//! The composed memory hierarchy of the paradet system, mirroring Figure 4
//! of the paper:
//!
//! * main core: private L1I and L1D backed by a shared L2 with a stride
//!   prefetcher, backed by DDR3 DRAM — one [`MemHier`];
//! * checker cores: a tiny private L0 instruction cache each, a shared
//!   checker L1I, then the main core's L2 ("connected to the main core's
//!   L2", §IV-B) — one [`CheckerPath`] per checker clock, owned by the
//!   detection hardware and fetching through the [`MemHier`]'s L2/DRAM.
//!   Checker cores have **no data cache**: all their data comes from the
//!   load-store log.
//!
//! Functional memory contents live in a single [`FlatMemory`] (the paper
//! assumes caches and DRAM are ECC-protected, so a fault-free functional
//! image is the correct model — core-internal faults are injected at the
//! core level, never in memory).

use crate::cache::{Cache, CacheConfig, CacheSnapshot, CacheStats};
use crate::dram::{Dram, DramConfig, DramStats};
use crate::prefetch::{PrefetchStats, PrefetcherConfig, StridePrefetcher};
use crate::time::{Freq, Time};
use paradet_isa::{FlatMemory, ImageDiff, Program};

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

/// One checker clock's private instruction path: per-core L0 caches behind
/// a shared checker L1I, both clocked at that clock (their hit latencies
/// come from the [`MemConfig`] the path is built from).
///
/// Every path starts cold, exactly as a dedicated run at its clock would.
/// Each speed class of the primary farm owns one, whose misses access the
/// shared L2/DRAM through [`MemHier::checker_ifetch_cycle_on`]; each
/// secondary clock domain (see `paradet_checker::ClockDomain`) owns one
/// whose misses only observe them, through
/// [`MemHier::checker_ifetch_cycle_via`].
#[derive(Debug, Clone)]
pub struct CheckerPath {
    l0: Vec<Cache>,
    l1i: Cache,
}

impl CheckerPath {
    /// Builds a cold path with `n_checkers` L0 caches from `cfg`'s
    /// checker-cache template (`checker_l0`, `checker_l1i`).
    pub fn new(cfg: &MemConfig, n_checkers: usize) -> CheckerPath {
        CheckerPath {
            l0: (0..n_checkers).map(|_| Cache::new(cfg.checker_l0)).collect(),
            l1i: Cache::new(cfg.checker_l1i),
        }
    }

    /// Bytes the path's caches occupy (about 16 KB at Table I settings);
    /// a snapshot clones the path whole.
    pub fn bytes(&self) -> usize {
        self.l0.iter().map(Cache::bytes).sum::<usize>() + self.l1i.bytes()
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

/// A [`MemHier`] in compact form (see [`MemHier::snapshot`]).
#[derive(Debug, Clone)]
pub struct HierSnapshot {
    data: ImageDiff,
    l1i: CacheSnapshot,
    l1d: CacheSnapshot,
    l2: CacheSnapshot,
    dram: Dram,
    prefetcher: StridePrefetcher,
    prefetch_enabled: bool,
    array_fault: Option<ArrayFault>,
    daccesses: u64,
}

impl HierSnapshot {
    /// Bytes the snapshot's memory diff and cache snapshots occupy (the
    /// DRAM and prefetcher copies are a few hundred bytes and not counted).
    pub fn bytes(&self) -> usize {
        self.data.bytes() + self.l1i.bytes() + self.l1d.bytes() + self.l2.bytes()
    }
}

/// The main core's caches, the shared L2 and DRAM, and the functional
/// memory contents.
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
    /// An armed (not yet fired) array fault; `None` on every clean run, so
    /// the hot data path pays one never-taken branch.
    array_fault: Option<ArrayFault>,
    /// Main-core data accesses seen while an array fault is armed.
    daccesses: u64,
}

impl MemHier {
    /// Builds a cold hierarchy from `cfg`'s main-core, L2 and DRAM
    /// configuration. The checker caches live in [`CheckerPath`]s.
    pub fn new(cfg: &MemConfig) -> MemHier {
        MemHier {
            data: FlatMemory::new(),
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            dram: Dram::new(cfg.dram),
            prefetcher: StridePrefetcher::new(cfg.prefetcher),
            prefetch_enabled: cfg.prefetch_enabled,
            array_fault: None,
            daccesses: 0,
        }
    }

    /// A compact copy of the hierarchy: every cache as the metadata of its
    /// filled lines, and the functional memory as its diff from `program`'s
    /// data image — the image this hierarchy was loaded with.
    pub fn snapshot(&self, program: &Program) -> HierSnapshot {
        HierSnapshot {
            data: self.data.diff_from_image(program),
            l1i: self.l1i.snapshot(),
            l1d: self.l1d.snapshot(),
            l2: self.l2.snapshot(),
            dram: self.dram.clone(),
            prefetcher: self.prefetcher.clone(),
            prefetch_enabled: self.prefetch_enabled,
            array_fault: self.array_fault,
            daccesses: self.daccesses,
        }
    }

    /// Rebuilds the hierarchy a [`snapshot`](MemHier::snapshot) of
    /// `program`'s run was taken of.
    pub fn from_snapshot(snap: &HierSnapshot, program: &Program) -> MemHier {
        MemHier {
            data: FlatMemory::from_image_diff(program, &snap.data),
            l1i: Cache::from_snapshot(&snap.l1i),
            l1d: Cache::from_snapshot(&snap.l1d),
            l2: Cache::from_snapshot(&snap.l2),
            dram: snap.dram.clone(),
            prefetcher: snap.prefetcher.clone(),
            prefetch_enabled: snap.prefetch_enabled,
            array_fault: snap.array_fault,
            daccesses: snap.daccesses,
        }
    }

    /// Arms an [`ArrayFault`]: the flip fires on the `at_access`-th timed
    /// main-core data access after arming, then disarms.
    pub fn arm_array_fault(&mut self, fault: ArrayFault) {
        self.array_fault = Some(fault);
        self.daccesses = 0;
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

    /// Timed instruction fetch for checker core `core` through `path`, in
    /// the checker's cycle domain: fetches `line` at cycle `cycle` of a
    /// clock whose period is `period_fs` femtoseconds and returns the cycle
    /// at which the line is ready. `path`'s L0 and L1I absorb the access,
    /// and its misses access this hierarchy's shared L2/DRAM like any other
    /// access (MSHRs, bank reservation and all — note the `&mut self`, in
    /// contrast to the observe-only
    /// [`checker_ifetch_cycle_via`](MemHier::checker_ifetch_cycle_via)).
    ///
    /// This is the primary farm's I-fetch entry point: a segment's
    /// functional replay records which lines it fetched, and the timing
    /// fold replays that line trace through here, through the path of the
    /// checker's speed class, *in seal order* on the simulation thread.
    /// The primary folds gate main-core stalls, so their L2/DRAM traffic
    /// must land in the shared stream, and the seal-order call sequence
    /// keeps it deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `core` has no L0 cache on `path`.
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

    /// [`checker_ifetch_cycle_on`](MemHier::checker_ifetch_cycle_on) whose
    /// L1I misses *observe* this hierarchy's shared L2/DRAM without
    /// mutating them (note the `&self`: a secondary domain's folds cannot
    /// perturb the primary simulation, by construction). `path`'s own
    /// caches fill as usual.
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
    /// Panics if `core` has no L0 cache on `path`.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        MemConfig::paper_default(Freq::from_mhz(3200), Freq::from_mhz(1000))
    }

    fn hier() -> MemHier {
        MemHier::new(&cfg())
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
        let mut nh = MemHier::new(&MemConfig { prefetch_enabled: false, ..cfg() });
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
        // Both routes from a checker path into the shared L2, in cycles at
        // 1 GHz: the primary farm's `_on` accesses it, a secondary
        // domain's `_via` only observes it.
        let period = Freq::from_mhz(1000).period().as_fs();
        let mut ready = Vec::new();
        for observe in [false, true] {
            let mut h = hier();
            let mut path = CheckerPath::new(&cfg(), 2);
            let mut fetch = |h: &mut MemHier, core, line, cycle| {
                if observe {
                    h.checker_ifetch_cycle_via(&mut path, core, line, cycle, period)
                } else {
                    h.checker_ifetch_cycle_on(&mut path, core, line, cycle, period)
                }
            };
            // Main core fetches a line; checker then fetches the same line.
            let c1 = h.ifetch(0x1000, Time::ZERO).as_fs().div_ceil(period);
            let after_main = h.stats();
            // Checker sees L0 miss + checker-L1I miss + L2 hit.
            let c2 = fetch(&mut h, 0, 0x1000, c1);
            assert!(c2 - c1 < 30, "checker fetch should hit in L2: {} cycles", c2 - c1);
            // Second checker fetch to the same line hits its private L0.
            let c3 = fetch(&mut h, 0, 0x1008, c2);
            assert_eq!(c3 - c2, 1);
            // A different checker's L0 is cold but the shared checker L1I is
            // warm: L0 tag check (1) + shared L1I hit (2) + L0 readout (1).
            let c4 = fetch(&mut h, 1, 0x1008, c3);
            assert_eq!(c4 - c3, 4);
            if observe {
                assert_eq!(h.stats(), after_main, "observing must not perturb the hierarchy");
            } else {
                assert_eq!(h.stats().l2.accesses, after_main.l2.accesses + 1);
            }
            ready.push([c2, c3, c4]);
        }
        assert_eq!(ready[0], ready[1], "both routes see the same hits");
    }

    #[test]
    fn functional_data_is_shared() {
        use paradet_isa::{MemWidth, MemoryIface};
        let mut h = hier();
        h.data.store(0x9000, MemWidth::D, 0xdead_beef);
        assert_eq!(h.data.load(0x9000, MemWidth::D), 0xdead_beef);
    }
}
