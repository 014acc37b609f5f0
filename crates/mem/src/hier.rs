//! The composed memory hierarchy of the paradet system.
//!
//! One [`MemHier`] instance is shared by the main core and all checker
//! cores, mirroring Figure 4 of the paper:
//!
//! * main core: private L1I and L1D backed by a shared L2 with a stride
//!   prefetcher, backed by DDR3 DRAM;
//! * checker cores: a tiny private L0 instruction cache each, a shared
//!   checker L1I, then the main core's L2 ("connected to the main core's
//!   L2", §IV-B). Checker cores have **no data cache**: all their data comes
//!   from the load-store log.
//!
//! Functional memory contents live in a single [`FlatMemory`] (the paper
//! assumes caches and DRAM are ECC-protected, so a fault-free functional
//! image is the correct model — core-internal faults are injected at the
//! core level, never in memory).

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::dram::{Dram, DramConfig, DramStats};
use crate::prefetch::{PrefetchStats, PrefetcherConfig, StridePrefetcher};
use crate::time::{Freq, Time};
use paradet_isa::FlatMemory;

/// Static configuration of the entire memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Main-core instruction cache.
    pub l1i: CacheConfig,
    /// Main-core data cache.
    pub l1d: CacheConfig,
    /// Shared second-level cache.
    pub l2: CacheConfig,
    /// L2 stride prefetcher.
    pub prefetcher: PrefetcherConfig,
    /// Whether the prefetcher is enabled.
    pub prefetch_enabled: bool,
    /// DRAM device.
    pub dram: DramConfig,
    /// Per-checker-core L0 instruction cache.
    pub checker_l0: CacheConfig,
    /// Instruction cache shared by all checker cores.
    pub checker_l1i: CacheConfig,
}

impl MemConfig {
    /// The paper's Table I configuration.
    ///
    /// `main` and `checker` are the respective core clocks — cache hit
    /// latencies are specified in *cycles* in the paper, so the absolute
    /// latencies scale with the clocks.
    pub fn paper_default(main: Freq, checker: Freq) -> MemConfig {
        MemConfig {
            l1i: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 2,
                line_bytes: 64,
                hit_latency: main.cycles(2),
                mshrs: 6,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 2,
                line_bytes: 64,
                hit_latency: main.cycles(2),
                mshrs: 6,
            },
            l2: CacheConfig {
                size_bytes: 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                hit_latency: main.cycles(12),
                mshrs: 16,
            },
            prefetcher: PrefetcherConfig::default(),
            prefetch_enabled: true,
            dram: DramConfig::ddr3_1600(),
            checker_l0: CacheConfig {
                size_bytes: 2 * 1024,
                ways: 2,
                line_bytes: 64,
                hit_latency: checker.cycles(1),
                mshrs: 2,
            },
            checker_l1i: CacheConfig {
                size_bytes: 16 * 1024,
                ways: 4,
                line_bytes: 64,
                hit_latency: checker.cycles(2),
                mshrs: 4,
            },
        }
    }
}

/// Aggregated statistics snapshot across the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierStats {
    /// Main-core L1 instruction cache.
    pub l1i: CacheStats,
    /// Main-core L1 data cache.
    pub l1d: CacheStats,
    /// Shared L2.
    pub l2: CacheStats,
    /// DRAM.
    pub dram: DramStats,
    /// L2 prefetcher.
    pub prefetch: PrefetchStats,
}

/// One clock domain's private checker instruction path: per-core L0 caches
/// behind a shared checker L1I, both clocked at that domain's checker
/// frequency (their hit latencies come from the domain's [`MemConfig`]).
///
/// [`MemHier`] owns the primary domain's path; secondary clock domains
/// (see `paradet_checker::ClockDomain`) each clone a fresh path from their
/// own `MemConfig` template — cold, exactly as a dedicated run at that
/// clock would start — and route misses into the *shared* L2/DRAM via
/// [`MemHier::checker_ifetch_cycle_via`].
#[derive(Debug)]
pub struct CheckerPath {
    l0: Vec<Cache>,
    l1i: Cache,
}

impl CheckerPath {
    /// Builds a cold path with `n_checkers` L0 caches from `cfg`'s
    /// checker-cache template.
    pub fn new(cfg: &MemConfig, n_checkers: usize) -> CheckerPath {
        CheckerPath {
            l0: (0..n_checkers).map(|_| Cache::new(cfg.checker_l0)).collect(),
            l1i: Cache::new(cfg.checker_l1i),
        }
    }

    /// Number of L0 caches.
    pub fn n_checkers(&self) -> usize {
        self.l0.len()
    }

    /// Core `core`'s L0 statistics.
    pub fn l0_stats(&self, core: usize) -> CacheStats {
        self.l0[core].stats
    }

    /// Timed instruction fetch for core `core`, missing into `l2`/`dram`.
    fn ifetch(&mut self, l2: &mut Cache, dram: &mut Dram, core: usize, pc: u64, now: Time) -> Time {
        let CheckerPath { l0, l1i } = self;
        l0[core]
            .access(pc, false, now, &mut |line, _w, t| {
                l1i.access(line, false, t, &mut |l2line, _w2, t2| {
                    l2.access(l2line, false, t2, &mut |l, _w3, t3| dram.access(l, t3)).done
                })
                .done
            })
            .done
    }

    /// Timed instruction fetch for core `core` whose L1I misses *observe*
    /// `l2`/`dram` (see [`Cache::observe`]) instead of accessing them: the
    /// path's own caches fill normally — they are private to this domain,
    /// exactly as in a dedicated run — but the shared outer hierarchy is
    /// read without being perturbed.
    fn ifetch_observing(
        &mut self,
        l2: &Cache,
        dram: &Dram,
        core: usize,
        pc: u64,
        now: Time,
    ) -> Time {
        let CheckerPath { l0, l1i } = self;
        l0[core]
            .access(pc, false, now, &mut |line, _w, t| {
                l1i.access(line, false, t, &mut |l2line, _w2, t2| {
                    l2.observe(l2line, t2, &mut |l, t3| dram.observe(l, t3))
                })
                .done
            })
            .done
    }

    /// Invalidates the path's caches.
    fn flush(&mut self) {
        for c in &mut self.l0 {
            c.flush();
        }
        self.l1i.flush();
    }

    /// The instant after which every cache on this path is quiescent.
    fn quiet_at(&self) -> Time {
        self.l0.iter().map(|c| c.quiet_at()).fold(self.l1i.quiet_at(), Time::max)
    }

    /// The next demand-fill completion strictly after `now` anywhere on
    /// this path, or `None` (see [`Cache::next_fill_after`]).
    ///
    /// Public because externally owned paths (a mixed farm's per-class
    /// paths in `paradet-core`) are invisible to
    /// [`MemHier::next_event_after`] — their owner must chain this into
    /// its own event horizon, exactly as the hierarchy does for the path
    /// it owns.
    pub fn next_fill_after(&self, now: Time) -> Option<Time> {
        self.l0
            .iter()
            .chain(std::iter::once(&self.l1i))
            .filter_map(|c| c.next_fill_after(now))
            .min()
    }
}

/// Which memory array an [`ArrayFault`] strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayKind {
    /// Cache data array: the flip lands on the byte being accessed (a bad
    /// SRAM cell read back on the triggering access).
    Cache,
    /// DRAM cell disturbance: the flip lands on the *adjacent* cache line
    /// (address ^ line size), corrupting data the triggering access never
    /// touched — the victim row of a disturbance error.
    Dram,
}

/// A fault in a memory array, injected on the `at_access`-th timed
/// main-core data access.
///
/// These faults are deliberately **outside the detection sphere**: the
/// paper's design assumes ECC on memory arrays (§III — "memory protected
/// by ECC"), so the checkers validate logged values, not the arrays
/// behind them. A flipped array bit enters the load-store log as
/// legitimate data and replays identically on the checker — the expected
/// campaign outcome is SDC or Masked, never Detected. The fault taxonomy
/// table in the README documents this boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayFault {
    /// Which array is struck.
    pub array: ArrayKind,
    /// 0-based index of the main-core data access that triggers the flip.
    pub at_access: u64,
    /// Bit flipped within the struck byte (taken modulo 8).
    pub bit: u8,
}

/// The composed, shared memory hierarchy.
#[derive(Debug)]
pub struct MemHier {
    /// Functional memory contents (ECC-protected per the paper's model).
    pub data: FlatMemory,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dram: Dram,
    prefetcher: StridePrefetcher,
    prefetch_enabled: bool,
    checker: CheckerPath,
    /// An armed (not yet fired) array fault; `None` on every clean run, so
    /// the hot data path pays one never-taken branch.
    array_fault: Option<ArrayFault>,
    /// Main-core data accesses seen while an array fault is armed.
    daccesses: u64,
}

impl MemHier {
    /// Builds the hierarchy with `n_checkers` L0 caches.
    pub fn new(cfg: &MemConfig, n_checkers: usize) -> MemHier {
        MemHier {
            data: FlatMemory::new(),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg.dram),
            prefetcher: StridePrefetcher::new(cfg.prefetcher),
            prefetch_enabled: cfg.prefetch_enabled,
            checker: CheckerPath::new(cfg, n_checkers),
            array_fault: None,
            daccesses: 0,
        }
    }

    /// Arms an [`ArrayFault`]: the flip fires on the `at_access`-th timed
    /// main-core data access after arming, then disarms.
    pub fn arm_array_fault(&mut self, fault: ArrayFault) {
        self.array_fault = Some(fault);
        self.daccesses = 0;
    }

    /// Whether an armed array fault has not fired yet.
    pub fn array_fault_pending(&self) -> bool {
        self.array_fault.is_some()
    }

    /// Fires the armed array fault if this access is its trigger.
    fn poll_array_fault(&mut self, addr: u64) {
        let Some(f) = self.array_fault else { return };
        let n = self.daccesses;
        self.daccesses += 1;
        if n < f.at_access {
            return;
        }
        self.array_fault = None;
        let victim = match f.array {
            ArrayKind::Cache => addr,
            ArrayKind::Dram => addr ^ 64,
        };
        let b = self.data.read_byte(victim);
        self.data.write_byte(victim, b ^ (1 << (f.bit & 7)));
    }

    /// Number of checker L0 caches.
    pub fn n_checkers(&self) -> usize {
        self.checker.n_checkers()
    }

    /// Timed instruction fetch on the main core.
    pub fn ifetch(&mut self, pc: u64, now: Time) -> Time {
        let MemHier { l1i, l2, dram, .. } = self;
        l1i.access(pc, false, now, &mut |line, write, t| {
            l2.access(line, write, t, &mut |l, _w, t2| dram.access(l, t2)).done
        })
        .done
    }

    /// Timed data read on the main core. `pc` trains the L2 prefetcher.
    pub fn dread(&mut self, pc: u64, addr: u64, now: Time) -> Time {
        self.daccess(pc, addr, false, now)
    }

    /// Timed data write on the main core (write-allocate).
    pub fn dwrite(&mut self, pc: u64, addr: u64, now: Time) -> Time {
        self.daccess(pc, addr, true, now)
    }

    fn daccess(&mut self, pc: u64, addr: u64, write: bool, now: Time) -> Time {
        if self.array_fault.is_some() {
            self.poll_array_fault(addr);
        }
        let MemHier { l1d, l2, dram, prefetcher, prefetch_enabled, .. } = self;
        l1d.access(addr, write, now, &mut |line, wb, t| {
            let r = l2.access(line, wb, t, &mut |l, _w, t2| dram.access(l, t2));
            if !wb && *prefetch_enabled {
                for p in prefetcher.observe(pc, line) {
                    let pl = l2.line_addr(p);
                    if !l2.probe(pl) {
                        let ready = dram.access(pl, t);
                        l2.insert_prefetch(pl, ready);
                    }
                }
            }
            r.done
        })
        .done
    }

    /// [`checker_ifetch`](MemHier::checker_ifetch) in a checker core's
    /// cycle domain: fetches `line` at cycle `cycle` of a clock whose
    /// period is `period_fs` femtoseconds and returns the cycle at which
    /// the line is ready.
    ///
    /// This is the replayable I-fetch entry point of the decoupled checker
    /// farm: a segment's functional replay records which lines it fetched,
    /// and the timing fold replays that line trace through here *in seal
    /// order* on the simulation thread — the hierarchy itself never sees a
    /// worker thread, and the seal-order call sequence is what keeps timing
    /// bit-identical at any farm width.
    ///
    /// # Panics
    ///
    /// Panics if `core >= n_checkers`.
    pub fn checker_ifetch_cycle(
        &mut self,
        core: usize,
        line: u64,
        cycle: u64,
        period_fs: u64,
    ) -> u64 {
        let done = self.checker_ifetch(core, line, Time::from_fs(cycle * period_fs));
        done.as_fs().div_ceil(period_fs)
    }

    /// [`checker_ifetch_cycle`](MemHier::checker_ifetch_cycle) through an
    /// external [`CheckerPath`] instead of the hierarchy's own: `path`'s L0
    /// and L1I absorb the access, and only their misses reach this
    /// hierarchy's shared L2/DRAM — which they *observe* without mutating
    /// (note the `&self`: a secondary domain's folds cannot perturb the
    /// primary simulation, by construction).
    ///
    /// This is how a secondary clock domain folds segment timing within one
    /// run: its path is private (per-domain cold caches at per-domain hit
    /// latencies), while L2/DRAM state — warmed by the main core, which
    /// executes identically at every checker clock — stays shared. The
    /// domain's times match a dedicated run's exactly as long as its
    /// L1I-missing fetches hit the shared L2 (constant hit latency); under
    /// L2 text eviction the observed miss skips MSHR/bank reservation, so
    /// the domain row is an approximation there.
    ///
    /// # Panics
    ///
    /// Panics if `core >= path.n_checkers()`.
    pub fn checker_ifetch_cycle_via(
        &self,
        path: &mut CheckerPath,
        core: usize,
        line: u64,
        cycle: u64,
        period_fs: u64,
    ) -> u64 {
        let done = path.ifetch_observing(
            &self.l2,
            &self.dram,
            core,
            line,
            Time::from_fs(cycle * period_fs),
        );
        done.as_fs().div_ceil(period_fs)
    }

    /// [`checker_ifetch_cycle`](MemHier::checker_ifetch_cycle) through an
    /// external [`CheckerPath`] that *shares* this hierarchy's L2/DRAM
    /// mutably: `path`'s L0 and L1I absorb the access, and its misses
    /// access the shared outer hierarchy exactly as the primary path's
    /// would (MSHRs, bank reservation, and all — note the `&mut self`,
    /// in contrast to the observe-only
    /// [`checker_ifetch_cycle_via`](MemHier::checker_ifetch_cycle_via)).
    ///
    /// This is the *primary-farm* route for mixed-speed farms: each speed
    /// class owns a cold path clocked at the class clock (per-class hit
    /// latencies), but the class's folds still gate main-core stalls, so
    /// their L2/DRAM traffic must land in the shared stream — in seal
    /// order, on the simulation thread, like every other fold.
    ///
    /// # Panics
    ///
    /// Panics if `core >= path.n_checkers()`.
    pub fn checker_ifetch_cycle_on(
        &mut self,
        path: &mut CheckerPath,
        core: usize,
        line: u64,
        cycle: u64,
        period_fs: u64,
    ) -> u64 {
        let MemHier { l2, dram, .. } = self;
        let done = path.ifetch(l2, dram, core, line, Time::from_fs(cycle * period_fs));
        done.as_fs().div_ceil(period_fs)
    }

    /// Timed instruction fetch on checker core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core >= n_checkers`.
    pub fn checker_ifetch(&mut self, core: usize, pc: u64, now: Time) -> Time {
        let MemHier { checker, l2, dram, .. } = self;
        checker.ifetch(l2, dram, core, pc, now)
    }

    /// The instant at (and after) which the whole hierarchy is quiescent:
    /// every in-flight fill has completed in every cache (main, shared and
    /// checker path) and DRAM's banks and bus are idle. An access issued at
    /// or after this time waits on nothing but its own latency chain — the
    /// hierarchy-side half of the event-driven driver's skip invariant
    /// (the core-side half is `OooCore::quiet_at` in `paradet-ooo`).
    pub fn quiet_at(&self) -> Time {
        [
            self.l1i.quiet_at(),
            self.l1d.quiet_at(),
            self.l2.quiet_at(),
            self.dram.quiet_at(),
            self.checker.quiet_at(),
        ]
        .into_iter()
        .max()
        .unwrap_or(Time::ZERO)
    }

    /// The next instant strictly after `now` at which a *demand* fill
    /// completes or a DRAM bank/bus frees — or `None` if nothing of the
    /// kind is pending. Prefetch fills are bounded only by
    /// [`quiet_at`](MemHier::quiet_at) (see
    /// [`Cache::next_fill_after`](crate::Cache::next_fill_after)): no
    /// demand-side state changes in the open interval between `now` and
    /// the returned instant, and *nothing at all* is in flight at or after
    /// the horizon.
    pub fn next_event_after(&self, now: Time) -> Option<Time> {
        let caches =
            [&self.l1i, &self.l1d, &self.l2].into_iter().filter_map(|c| c.next_fill_after(now));
        caches.chain(self.checker.next_fill_after(now)).chain(self.dram.next_event_after(now)).min()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HierStats {
        HierStats {
            l1i: self.l1i.stats,
            l1d: self.l1d.stats,
            l2: self.l2.stats,
            dram: self.dram.stats,
            prefetch: self.prefetcher.stats,
        }
    }

    /// Per-checker L0 statistics.
    pub fn checker_l0_stats(&self, core: usize) -> CacheStats {
        self.checker.l0_stats(core)
    }

    /// Invalidates all caches and resets DRAM (functional contents are kept).
    pub fn flush_timing(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        self.dram.flush();
        self.checker.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> MemHier {
        let cfg = MemConfig::paper_default(Freq::from_mhz(3200), Freq::from_mhz(1000));
        MemHier::new(&cfg, 12)
    }

    #[test]
    fn cold_read_reaches_dram_then_hits() {
        let mut h = hier();
        let t1 = h.dread(0x1000, 0x8000, Time::ZERO);
        // Cold miss: L1 (2cyc) + L2 (12cyc) + DRAM (~32.5ns) round trip.
        assert!(t1 > Time::from_ns(30), "cold read too fast: {t1}");
        let t2 = h.dread(0x1000, 0x8008, t1);
        assert_eq!(t2 - t1, Freq::from_mhz(3200).cycles(2), "warm read should be an L1 hit");
        assert_eq!(h.stats().dram.requests, 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction_pressure() {
        let mut h = hier();
        // Touch a line, then stream through enough lines to evict it from
        // the 32KiB 2-way L1 but not the 1MiB L2.
        let mut t = Time::ZERO;
        t = h.dread(0x1000, 0x10000, t);
        for i in 0..2048u64 {
            t = h.dread(0x1000, 0x20000 + i * 64, t);
        }
        let dram_before = h.stats().dram.requests;
        let t2 = h.dread(0x1000, 0x10000, t);
        assert_eq!(h.stats().dram.requests, dram_before, "should be an L2 hit, not DRAM");
        // L1 miss + L2 hit: 2 + 12 + 2 cycles
        assert_eq!(t2 - t, Freq::from_mhz(3200).cycles(16));
    }

    #[test]
    fn prefetcher_hides_streaming_latency() {
        let mut ph = hier();
        let cfg = MemConfig {
            prefetch_enabled: false,
            ..MemConfig::paper_default(Freq::from_mhz(3200), Freq::from_mhz(1000))
        };
        let mut nh = MemHier::new(&cfg, 0);
        // Stream 512 lines with the same PC through both hierarchies.
        let (mut tp, mut tn) = (Time::ZERO, Time::ZERO);
        for i in 0..512u64 {
            let addr = 0x100000 + i * 64;
            tp = ph.dread(0x1000, addr, tp);
            tn = nh.dread(0x1000, addr, tn);
        }
        assert!(tp < tn, "prefetching should accelerate a linear stream: {tp} vs {tn}");
        assert!(ph.stats().prefetch.issued > 100);
    }

    #[test]
    fn checker_ifetch_path_works_and_shares_l2() {
        let mut h = hier();
        // Main core fetches a line; checker then fetches the same line.
        let t1 = h.ifetch(0x1000, Time::ZERO);
        let t2 = h.checker_ifetch(0, 0x1000, t1);
        // Checker sees L0 miss + checker-L1I miss + L2 hit.
        assert!(t2 - t1 < Time::from_ns(30), "checker fetch should hit in L2: {}", t2 - t1);
        // Second checker fetch to the same line hits its private L0 (1 cycle
        // at 1 GHz = 1 ns).
        let t3 = h.checker_ifetch(0, 0x1008, t2);
        assert_eq!(t3 - t2, Time::from_ns(1));
        // A different checker's L0 is cold but the shared checker L1I is
        // warm: L0 tag check (1) + shared L1I hit (2) + L0 readout (1).
        let t4 = h.checker_ifetch(1, 0x1008, t3);
        assert_eq!(t4 - t3, Time::from_ns(4));
    }

    #[test]
    fn hier_event_queries_cover_checker_path() {
        let mut h = hier();
        // Warm the shared L2 from the main core, then miss in the checker
        // L0/L1I only: the pending demand fill lives on the checker path
        // and must surface through the hierarchy-level event query.
        let t1 = h.ifetch(0x1000, Time::ZERO);
        let t2 = h.checker_ifetch(0, 0x1000, t1);
        let next = h.next_event_after(t1).expect("checker L0/L1I fill is in flight");
        assert!(next > t1 && next <= t2.max(h.quiet_at()), "next={next}, t2={t2}");
    }

    #[test]
    fn hier_event_queries_cover_dram_and_caches() {
        let mut h = hier();
        assert_eq!(h.next_event_after(Time::ZERO), None, "idle hierarchy has no pending event");
        let done = h.dread(0x1000, 0x8000, Time::ZERO);
        // A cold read leaves in-flight state everywhere on its path: the
        // hierarchy is not quiescent before the access completes, and some
        // event (a fill or the DRAM burst) is pending.
        assert!(
            h.quiet_at() >= done - Freq::from_mhz(3200).cycles(2),
            "quiet_at: {}",
            h.quiet_at()
        );
        let next = h.next_event_after(Time::ZERO).expect("a fill is in flight");
        assert!(next <= h.quiet_at());
        // No event strictly after the horizon.
        assert_eq!(h.next_event_after(h.quiet_at()), None);
    }

    #[test]
    fn functional_data_is_shared() {
        use paradet_isa::{MemWidth, MemoryIface};
        let mut h = hier();
        h.data.store(0x9000, MemWidth::D, 0xdead_beef);
        assert_eq!(h.data.load(0x9000, MemWidth::D), 0xdead_beef);
    }

    #[test]
    fn flush_timing_keeps_contents() {
        use paradet_isa::{MemWidth, MemoryIface};
        let mut h = hier();
        h.data.store(0x9000, MemWidth::D, 42);
        h.dread(0x1000, 0x9000, Time::ZERO);
        h.flush_timing();
        assert_eq!(h.data.load(0x9000, MemWidth::D), 42);
        let t = h.dread(0x1000, 0x9000, Time::from_ns(1000));
        assert!(t - Time::from_ns(1000) > Time::from_ns(30), "post-flush read must miss");
    }
}
