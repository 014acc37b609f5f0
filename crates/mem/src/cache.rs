//! Set-associative cache timing model.
//!
//! The model is *latency-computed-at-access*: an access walks the tag array
//! immediately and returns the absolute [`Time`] at which its data is
//! available, recursing into the next level on a miss. Contention is
//! captured by per-line fill timestamps and an MSHR occupancy window, which
//! is the fidelity the paper's results depend on (relative stall behaviour
//! of the main core vs. checker cores), at a fraction of the cost of a
//! message-passing model. See DESIGN.md §5.1.

use crate::sparse::{count_nonzero_bytes, nonzero_bytes, Sparse};
use crate::time::Time;

/// Static configuration of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency.
    pub hit_latency: Time,
    /// Number of miss-status holding registers (outstanding misses).
    pub mshrs: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `ways * line_bytes`, or any parameter is zero).
    pub fn sets(&self) -> usize {
        assert!(self.size_bytes > 0 && self.ways > 0 && self.line_bytes > 0);
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let per_way = self.size_bytes / self.ways;
        assert!(per_way.is_multiple_of(self.line_bytes), "cache geometry inconsistent: {self:?}");
        let sets = per_way / self.line_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// Running statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total demand accesses.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines evicted.
    pub evictions: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Prefetch fills inserted.
    pub prefetch_fills: u64,
    /// Misses that found all MSHRs occupied and had to queue.
    pub mshr_stalls: u64,
}

/// The outcome of a timed cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Absolute time at which the data is available.
    pub done: Time,
    /// Whether the access hit.
    pub hit: bool,
}

/// One filled line's metadata, as a [`CacheSnapshot`] stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    flags: u8,
    ready_fs: u64,
    lru: u64,
}

/// A cache's state in compact form (see [`Cache::snapshot`]).
#[derive(Debug, Clone)]
pub(crate) struct CacheSnapshot {
    cfg: CacheConfig,
    lines: Sparse<Line>,
    mshr_busy: Vec<Time>,
    lru_clock: u64,
    stats: CacheStats,
}

impl CacheSnapshot {
    /// Bytes the snapshot's filled lines and MSHRs occupy.
    pub(crate) fn bytes(&self) -> usize {
        self.lines.bytes() + std::mem::size_of_val(self.mshr_busy.as_slice())
    }
}

/// A set-associative, write-back, write-allocate cache with LRU replacement
/// and a bounded number of outstanding misses.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// Line metadata in structure-of-arrays layout, `cfg.ways` entries per
    /// set, one flat primitive array per field: a cold cache is four
    /// zero-filled allocations on the allocator's zeroed-page path rather
    /// than a write of every line struct (construction sits inside the
    /// timed region of every trial), and a set walk scans a contiguous run
    /// of tags.
    tags: Vec<u64>,
    /// Bit 0: line valid; bit 1: line dirty.
    flags: Vec<u8>,
    /// Time at which the fill for each line completes, in femtoseconds
    /// ([`Time::as_fs`]); hits before this time are delayed until then
    /// (models fill latency without events).
    ready_fs: Vec<u64>,
    /// Per-line LRU stamp.
    lru: Vec<u64>,
    /// Completion times of in-flight misses; fixed length `cfg.mshrs`.
    mshr_busy: Vec<Time>,
    lru_clock: u64,
    /// Statistics (public for the experiment harness).
    pub stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]) or
    /// `mshrs == 0`.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.mshrs > 0, "a cache needs at least one MSHR");
        let sets = cfg.sets();
        let n = sets * cfg.ways;
        Cache {
            tags: vec![0; n],
            flags: vec![0; n],
            ready_fs: vec![0; n],
            lru: vec![0; n],
            mshr_busy: vec![Time::ZERO; cfg.mshrs],
            lru_clock: 0,
            stats: CacheStats::default(),
            set_mask: sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            cfg,
        }
    }

    /// The flat-array index of the resident line holding `tag` in set
    /// `set_idx`, if any.
    #[inline]
    fn find(&self, set_idx: usize, tag: u64) -> Option<usize> {
        let base = set_idx * self.cfg.ways;
        (base..base + self.cfg.ways).find(|&i| self.flags[i] & 1 != 0 && self.tags[i] == tag)
    }

    /// The victim way for a fill into set `set_idx`: the first invalid way
    /// if one exists, else the least-recently-used.
    #[inline]
    fn victim(&self, set_idx: usize) -> usize {
        let base = set_idx * self.cfg.ways;
        let mut best = base;
        for i in base..base + self.cfg.ways {
            if self.flags[i] & 1 == 0 {
                return i;
            }
            if self.lru[i] < self.lru[best] {
                best = i;
            }
        }
        best
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The line-aligned address containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    /// Probes the cache without updating any state; returns whether `addr`
    /// is resident (regardless of fill completion).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index(addr);
        self.find(set, tag).is_some()
    }

    /// Timed *observation*: computes when a read of `addr` would complete
    /// without mutating anything — no LRU touch, no statistics, no MSHR or
    /// fill allocation.
    ///
    /// On a resident line the result is exactly what [`access`] would
    /// report for that hit (`max(now, fill_ready) + hit_latency`). On a
    /// miss, `miss(line_addr, start)` supplies the next level's completion
    /// time and the readout latency is added, but no line is installed —
    /// repeated observation of an absent line misses every time.
    ///
    /// Secondary clock domains use this to share the primary run's L2/DRAM
    /// state for their checker I-fetch folds without perturbing it (see
    /// [`MemHier::checker_ifetch_cycle_via`](crate::MemHier)).
    ///
    /// [`access`]: Cache::access
    pub fn observe(&self, addr: u64, now: Time, miss: &mut dyn FnMut(u64, Time) -> Time) -> Time {
        let (set, tag) = self.index(addr);
        if let Some(i) = self.find(set, tag) {
            return now.max(Time::from_fs(self.ready_fs[i])) + self.cfg.hit_latency;
        }
        miss(self.line_addr(addr), now + self.cfg.hit_latency) + self.cfg.hit_latency
    }

    /// Performs a timed access.
    ///
    /// `fill` is invoked on a miss with `(victim_writeback, line_addr,
    /// start_time)` semantics folded into two calls: first an optional dirty
    /// writeback (`write == true`), then the demand fill (`write == false`);
    /// it must return the completion time of the request at the next level.
    pub fn access(
        &mut self,
        addr: u64,
        write: bool,
        now: Time,
        fill: &mut dyn FnMut(u64, bool, Time) -> Time,
    ) -> AccessResult {
        self.stats.accesses += 1;
        self.lru_clock += 1;
        let (set_idx, tag) = self.index(addr);

        if let Some(i) = self.find(set_idx, tag) {
            self.lru[i] = self.lru_clock;
            if write {
                self.flags[i] |= 2;
            }
            let done = now.max(Time::from_fs(self.ready_fs[i])) + self.cfg.hit_latency;
            self.stats.hits += 1;
            return AccessResult { done, hit: true };
        }

        // Miss path. Find the issue time permitted by MSHR occupancy: reuse
        // the register whose previous miss completes earliest.
        self.stats.misses += 1;
        let slot = {
            let mut best = 0;
            for i in 1..self.mshr_busy.len() {
                if self.mshr_busy[i] < self.mshr_busy[best] {
                    best = i;
                }
            }
            best
        };
        let mut start = now;
        if self.mshr_busy[slot] > now {
            self.stats.mshr_stalls += 1;
            start = self.mshr_busy[slot];
        }

        let victim = self.victim(set_idx);
        let line_base = self.line_addr(addr);
        if self.flags[victim] & 1 != 0 {
            self.stats.evictions += 1;
            if self.flags[victim] & 2 != 0 {
                self.stats.writebacks += 1;
                let set_bits = self.set_mask.count_ones();
                let victim_addr =
                    ((self.tags[victim] << set_bits) | set_idx as u64) << self.line_shift;
                // Fire-and-forget: the writeback occupies the next level but
                // the demand miss does not wait for its completion.
                let _ = fill(victim_addr, true, start);
            }
        }

        let fill_done = fill(line_base, false, start + self.cfg.hit_latency);
        self.mshr_busy[slot] = fill_done;
        self.tags[victim] = tag;
        self.flags[victim] = if write { 3 } else { 1 };
        self.ready_fs[victim] = fill_done.as_fs();
        self.lru[victim] = self.lru_clock;
        AccessResult { done: fill_done + self.cfg.hit_latency, hit: false }
    }

    /// A compact copy of this cache: the metadata of every line ever
    /// filled, plus the MSHRs, LRU clock and statistics. Lines are never
    /// invalidated, so a line whose flags are clear has never been filled
    /// and still holds its reset metadata — the scan reads only the flag
    /// array.
    pub(crate) fn snapshot(&self) -> CacheSnapshot {
        let live = count_nonzero_bytes(&self.flags);
        let lines = Sparse::gather(live, nonzero_bytes(&self.flags), |i| Line {
            tag: self.tags[i],
            flags: self.flags[i],
            ready_fs: self.ready_fs[i],
            lru: self.lru[i],
        });
        CacheSnapshot {
            cfg: self.cfg,
            lines,
            mshr_busy: self.mshr_busy.clone(),
            lru_clock: self.lru_clock,
            stats: self.stats,
        }
    }

    /// Bytes the line metadata and MSHRs occupy.
    pub(crate) fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(self.tags.as_slice())
            + size_of_val(self.flags.as_slice())
            + size_of_val(self.ready_fs.as_slice())
            + size_of_val(self.lru.as_slice())
            + size_of_val(self.mshr_busy.as_slice())
    }

    /// Rebuilds the cache a [`snapshot`](Cache::snapshot) was taken of.
    pub(crate) fn from_snapshot(snap: &CacheSnapshot) -> Cache {
        let mut cache = Cache::new(snap.cfg);
        for (i, line) in snap.lines.iter() {
            cache.tags[i] = line.tag;
            cache.flags[i] = line.flags;
            cache.ready_fs[i] = line.ready_fs;
            cache.lru[i] = line.lru;
        }
        cache.mshr_busy.clone_from(&snap.mshr_busy);
        cache.lru_clock = snap.lru_clock;
        cache.stats = snap.stats;
        cache
    }

    /// Inserts a line as a prefetch fill completing at `ready_at`, evicting
    /// LRU if necessary. Does nothing if the line is already resident.
    pub fn insert_prefetch(&mut self, addr: u64, ready_at: Time) {
        let (set_idx, tag) = self.index(addr);
        if self.find(set_idx, tag).is_some() {
            return;
        }
        self.lru_clock += 1;
        let victim = self.victim(set_idx);
        if self.flags[victim] & 1 != 0 {
            self.stats.evictions += 1;
        }
        self.stats.prefetch_fills += 1;
        // Prefetched lines are inserted with *lowest* recency in the set so a
        // useless prefetch is evicted first.
        let base = set_idx * self.cfg.ways;
        let min_lru = (base..base + self.cfg.ways)
            .filter(|&i| self.flags[i] & 1 != 0)
            .map(|i| self.lru[i])
            .min();
        self.tags[victim] = tag;
        self.flags[victim] = 1;
        self.ready_fs[victim] = ready_at.as_fs();
        self.lru[victim] = min_lru.unwrap_or(self.lru_clock).saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_small() -> CacheConfig {
        CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency: Time::from_ns(1),
            mshrs: 2,
        }
    }

    /// A fake next level with fixed latency that records requests.
    struct NextLevel {
        latency: Time,
        requests: Vec<(u64, bool)>,
    }

    impl NextLevel {
        fn new(latency: Time) -> NextLevel {
            NextLevel { latency, requests: Vec::new() }
        }
        fn fill(&mut self) -> impl FnMut(u64, bool, Time) -> Time + '_ {
            move |addr, write, t| {
                self.requests.push((addr, write));
                t + self.latency
            }
        }
    }

    #[test]
    fn geometry() {
        assert_eq!(cfg_small().sets(), 2);
        let c = Cache::new(cfg_small());
        assert_eq!(c.line_addr(0x12345), 0x12340);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(cfg_small());
        let mut next = NextLevel::new(Time::from_ns(10));
        let r1 = c.access(0x1000, false, Time::ZERO, &mut next.fill());
        assert!(!r1.hit);
        // miss: hit_lat (tag check) + 10ns fill + hit_lat (read out)
        assert_eq!(r1.done, Time::from_ns(12));
        let r2 = c.access(0x1008, false, r1.done, &mut next.fill());
        assert!(r2.hit);
        assert_eq!(r2.done, r1.done + Time::from_ns(1));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn hit_before_fill_completes_waits() {
        let mut c = Cache::new(cfg_small());
        let mut next = NextLevel::new(Time::from_ns(100));
        let r1 = c.access(0x1000, false, Time::ZERO, &mut next.fill());
        // Second access to the same line 1ns later: tag-hits but must wait
        // for the fill.
        let r2 = c.access(0x1010, false, Time::from_ns(1), &mut next.fill());
        assert!(r2.hit);
        assert_eq!(
            r2.done,
            r1.done.saturating_sub(Time::from_ns(1)) + Time::from_ns(1) + Time::ZERO
        );
        assert!(r2.done >= r1.done);
    }

    #[test]
    fn lru_eviction() {
        let mut c = Cache::new(cfg_small()); // 2 sets x 2 ways, 64B lines
        let mut next = NextLevel::new(Time::from_ns(10));
        // Three lines mapping to set 0: 0x0000, 0x0080, 0x0100 (line>>6 even)
        let t = Time::ZERO;
        c.access(0x0000, false, t, &mut next.fill());
        c.access(0x0080, false, t, &mut next.fill());
        c.access(0x0000, false, t, &mut next.fill()); // touch to make 0x80 LRU
        c.access(0x0100, false, t, &mut next.fill()); // evicts 0x0080
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0080));
        assert!(c.probe(0x0100));
        assert_eq!(c.stats.evictions, 1);
        assert_eq!(c.stats.writebacks, 0); // clean eviction
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = Cache::new(cfg_small());
        let mut next = NextLevel::new(Time::from_ns(10));
        c.access(0x0000, true, Time::ZERO, &mut next.fill()); // dirty
        c.access(0x0080, false, Time::ZERO, &mut next.fill());
        c.access(0x0100, false, Time::ZERO, &mut next.fill()); // evicts 0x0000 dirty
        let wb: Vec<_> = next.requests.iter().filter(|(_, w)| *w).collect();
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].0, 0x0000);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn mshr_saturation_delays_misses() {
        let mut c = Cache::new(CacheConfig { mshrs: 1, ..cfg_small() });
        let mut next = NextLevel::new(Time::from_ns(100));
        let r1 = c.access(0x0000, false, Time::ZERO, &mut next.fill());
        // Different set, also a miss, issued while the first is in flight:
        // with a single MSHR it must wait for r1's fill to finish.
        let r2 = c.access(0x0040, false, Time::from_ns(1), &mut next.fill());
        assert!(r2.done >= r1.done + Time::from_ns(100));
        assert_eq!(c.stats.mshr_stalls, 1);
    }

    #[test]
    fn mshr_parallel_misses_overlap() {
        let mut c = Cache::new(cfg_small()); // 2 MSHRs
        let mut next = NextLevel::new(Time::from_ns(100));
        let r1 = c.access(0x0000, false, Time::ZERO, &mut next.fill());
        let r2 = c.access(0x0040, false, Time::from_ns(1), &mut next.fill());
        // Overlapping fills: the second finishes ~1ns after the first.
        assert!(r2.done < r1.done + Time::from_ns(10));
        assert_eq!(c.stats.mshr_stalls, 0);
    }

    #[test]
    fn prefetch_insert_turns_miss_into_hit() {
        let mut c = Cache::new(cfg_small());
        let mut next = NextLevel::new(Time::from_ns(10));
        c.insert_prefetch(0x2000, Time::from_ns(5));
        let r = c.access(0x2000, false, Time::from_ns(6), &mut next.fill());
        assert!(r.hit);
        assert_eq!(c.stats.prefetch_fills, 1);
    }

    #[test]
    fn snapshot_restores_an_identical_cache() {
        let mut c = Cache::new(cfg_small());
        let mut next = NextLevel::new(Time::from_ns(10));
        c.access(0x0000, true, Time::ZERO, &mut next.fill());
        c.access(0x0040, false, Time::from_ns(1), &mut next.fill());
        c.insert_prefetch(0x2000, Time::from_ns(5));
        let snap = c.snapshot();
        assert_eq!(snap.lines.iter().count(), 3, "only filled lines are kept");
        let mut d = Cache::from_snapshot(&snap);
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
        // Both copies evolve identically from here.
        for addr in [0x0080, 0x0000, 0x0100, 0x2000] {
            let a = c.access(addr, false, Time::from_ns(20), &mut next.fill());
            let b = d.access(addr, false, Time::from_ns(20), &mut next.fill());
            assert_eq!(a, b);
        }
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
    }

    #[test]
    #[should_panic(expected = "geometry inconsistent")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 64,
            hit_latency: Time::ZERO,
            mshrs: 1,
        });
    }
}
