//! The paired system: one out-of-order main core plus its checker-core
//! farm, sharing a memory hierarchy (Fig. 3 of the paper).

use crate::config::SystemConfig;
use crate::delay::DelayStats;
use crate::detector::{Detector, DetectorStats, DomainReport, RollbackPlan};
use crate::error::DetectedError;
use crate::scratch::SimScratch;
use paradet_isa::{ArchState, FlatMemory, Program};
use paradet_mem::{ArrayFault, HierSnapshot, HierStats, MemHier, Time};
use paradet_ooo::{ArmedFault, CoreSnapshot, CoreStats, NullSink, OooCore};
use std::collections::HashSet;
use std::sync::Arc;

/// Complete result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Macro-instructions retired by the main core.
    pub instrs: u64,
    /// Main-core cycles to the last commit.
    pub main_cycles: u64,
    /// Absolute time of the last main-core commit.
    pub main_time: Time,
    /// Absolute time at which the run is fully verified: the later of the
    /// last commit and the last check (§IV-H holds termination until all
    /// checks complete).
    pub wall_time: Time,
    /// Whether the program committed `halt`.
    pub halted: bool,
    /// Whether execution crashed (wild PC under fault injection).
    pub crashed: bool,
    /// Errors detected by the checkers, in seal order, with confirmation
    /// times filled in.
    pub errors: Vec<DetectedError>,
    /// Detection delays over all checked entries (Fig. 8).
    pub delays: DelayStats,
    /// Detection delays over stores only (Fig. 11/12).
    pub store_delays: DelayStats,
    /// Detection-hardware statistics.
    pub detector: DetectorStats,
    /// Main-core statistics.
    pub core: CoreStats,
    /// Memory-hierarchy statistics.
    pub mem: HierStats,
    /// Total busy time across all checker cores, in femtoseconds.
    pub checker_busy_fs: u64,
    /// Total segments checked across all checker cores.
    pub checker_segments: u64,
    /// One result row per secondary clock domain swept within this run
    /// (empty for single-clock runs): the same replay stream folded at the
    /// domain's checker clock. Exact per-domain Fig. 9/11 data whenever the
    /// row's [`stall_divergences`](DomainReport::stall_divergences) is 0.
    pub domains: Vec<DomainReport>,
}

impl RunReport {
    /// Whether any error was detected.
    pub fn detected(&self) -> bool {
        !self.errors.is_empty()
    }

    /// The first confirmed error (lowest seal sequence), if any.
    pub fn first_error(&self) -> Option<&DetectedError> {
        self.errors.iter().min_by_key(|e| e.seal_seq)
    }

    /// Instructions per cycle of the main core.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }
}

/// A paired system frozen between two blocks (see
/// [`PairedSystem::snapshot`]), in compact form: large tables as the
/// entries that differ from reset, functional memory as its diff from the
/// program's data image, and the detection hardware as a plain clone,
/// whose in-flight checks share their replay inputs with the run.
#[derive(Debug, Clone)]
pub struct SystemSnapshot {
    cfg: SystemConfig,
    core: CoreSnapshot,
    hier: HierSnapshot,
    det: Detector,
}

impl SystemSnapshot {
    /// Macro-ops the main core had retired when the snapshot was taken.
    pub fn instrs(&self) -> u64 {
        self.core.instrs()
    }

    /// Approximate bytes this snapshot holds on its own (see
    /// [`shared_bytes`](SystemSnapshot::shared_bytes) for the rest).
    pub fn bytes(&self) -> usize {
        self.core.bytes() + self.hier.bytes() + self.det.bytes()
    }

    /// Bytes of the in-flight checks' replay inputs the snapshots in
    /// `snaps` carry, each shared input counted once however many
    /// snapshots share it.
    pub fn shared_bytes<'a>(snaps: impl IntoIterator<Item = &'a SystemSnapshot>) -> usize {
        let mut seen = HashSet::new();
        snaps
            .into_iter()
            .flat_map(|s| s.det.shared_inputs())
            .filter(|&(addr, _)| seen.insert(addr))
            .map(|(_, bytes)| bytes)
            .sum()
    }
}

/// A main core paired with checker cores through the detection hardware.
///
/// # Example
///
/// ```
/// use paradet_core::{PairedSystem, SystemConfig};
/// use paradet_isa::{ProgramBuilder, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let buf = b.alloc_zeroed(1);
/// b.li(Reg::X1, buf as i64);
/// b.li(Reg::X2, 7);
/// b.sd(Reg::X2, Reg::X1, 0);
/// b.halt();
/// let program = b.build();
///
/// let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
/// let report = sys.run_to_halt();
/// assert!(report.halted);
/// assert!(!report.detected());
/// ```
#[derive(Debug)]
pub struct PairedSystem {
    cfg: SystemConfig,
    core: OooCore,
    hier: MemHier,
    det: Detector,
}

impl PairedSystem {
    /// Builds the system and loads `program`'s data image into memory.
    ///
    /// Deep-clones `program` once (shared between the main core and the
    /// detection hardware); trial loops that build many systems over the
    /// same program should use [`PairedSystem::new_shared`] or
    /// [`PairedSystem::new_with_scratch`] to skip the clone entirely.
    pub fn new(cfg: SystemConfig, program: &Program) -> PairedSystem {
        PairedSystem::new_shared(cfg, &Arc::new(program.clone()))
    }

    /// Builds the system around a shared program: no `Program` deep clone
    /// anywhere on the construction path.
    pub fn new_shared(cfg: SystemConfig, program: &Arc<Program>) -> PairedSystem {
        PairedSystem::new_with_scratch(cfg, program, &mut SimScratch::new())
    }

    /// Builds the system around a shared program, recycling buffers pooled
    /// in `scratch` (see [`SimScratch`]) — the fast path for back-to-back
    /// trials.
    pub fn new_with_scratch(
        cfg: SystemConfig,
        program: &Arc<Program>,
        scratch: &mut SimScratch,
    ) -> PairedSystem {
        let mut hier = MemHier::new(&cfg.mem_config());
        hier.data.load_image(program);
        PairedSystem {
            core: OooCore::new_shared(cfg.main, Arc::clone(program)),
            det: Detector::new_shared(&cfg, Arc::clone(program), scratch),
            hier,
            cfg,
        }
    }

    /// Builds a system resumed from a validated checkpoint instead of the
    /// program entry point: the main core and the detection chain restart
    /// from `state`, and `mem` (a rolled-back memory image, not the
    /// program's initial one) becomes the functional contents. The
    /// re-execution leg of detect → rollback → re-execute; see
    /// [`run_recovery`](crate::run_recovery).
    pub fn new_resumed(
        cfg: SystemConfig,
        program: &Arc<Program>,
        scratch: &mut SimScratch,
        state: &ArchState,
        mem: FlatMemory,
    ) -> PairedSystem {
        let mut hier = MemHier::new(&cfg.mem_config());
        hier.data = mem;
        let mut det = Detector::new_shared(&cfg, Arc::clone(program), scratch);
        det.resume_from(state);
        PairedSystem {
            core: OooCore::new_resumed(cfg.main, Arc::clone(program), state.clone()),
            det,
            hier,
            cfg,
        }
    }

    /// A compact copy of the system, to start later runs from this point
    /// with [`PairedSystem::from_snapshot`]. The detector's part is a
    /// clone: its check queue shares its replay inputs with this run,
    /// whose checks still replay and fold at their own simulation points,
    /// so it continues exactly as if no snapshot had been taken.
    pub fn snapshot(&mut self) -> SystemSnapshot {
        SystemSnapshot {
            cfg: self.cfg,
            core: self.core.snapshot(),
            hier: self.hier.snapshot(self.core.program()),
            det: self.det.clone(),
        }
    }

    /// Rebuilds the system `snap` was taken of, drawing buffers from
    /// `scratch`. Replay is pure, so the snapshot's pending checks are
    /// queued again as they are, and each replays at its own fold.
    ///
    /// A restored system is bit-identical to the original from this point
    /// on (determinism invariant 13, snapshot transparency): advancing it
    /// — with faults armed at or after [`SystemSnapshot::instrs`] — gives
    /// the run the original would have.
    pub fn from_snapshot(snap: &SystemSnapshot, scratch: &mut SimScratch) -> PairedSystem {
        let core = OooCore::from_snapshot(&snap.core);
        PairedSystem {
            hier: MemHier::from_snapshot(&snap.hier, core.program()),
            det: Detector::from_snapshot(&snap.det, scratch),
            core,
            cfg: snap.cfg,
        }
    }

    /// Tears the system down, returning its reusable allocations to
    /// `scratch` for the next [`PairedSystem::new_with_scratch`].
    pub fn recycle_into(self, scratch: &mut SimScratch) {
        self.det.recycle_into(scratch);
    }

    /// Tears the system down like [`PairedSystem::recycle_into`], but
    /// hands back the functional memory contents — the rollback and
    /// final-state-audit paths of the recovery driver need them.
    pub fn dismantle(self, scratch: &mut SimScratch) -> FlatMemory {
        self.det.recycle_into(scratch);
        self.hier.data
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The main core (e.g. to inspect statistics mid-run).
    pub fn core(&self) -> &OooCore {
        &self.core
    }

    /// The detection hardware.
    pub fn detector(&self) -> &Detector {
        &self.det
    }

    /// The shared memory hierarchy.
    pub fn hier(&self) -> &MemHier {
        &self.hier
    }

    /// Arms a fault in the main core (see
    /// [`FaultTarget`](paradet_ooo::FaultTarget)).
    pub fn arm_fault(&mut self, fault: ArmedFault) {
        self.core.arm_fault(fault);
    }

    /// Arms an over-detection fault in the detection hardware itself: one
    /// bit of one log entry of the `seal_seq`-th sealed segment flips
    /// before its check runs (§IV-I).
    pub fn arm_log_fault(&mut self, seal_seq: u64, entry: usize, bit: u8) {
        self.det.arm_log_fault(seal_seq, entry, bit);
    }

    /// Arms a memory-array fault (cache/DRAM bit flip; see
    /// [`ArrayFault`]). Outside the detection sphere by design — the paper
    /// assumes ECC on arrays — so the expected outcome is SDC or Masked.
    pub fn arm_array_fault(&mut self, fault: ArrayFault) {
        self.hier.arm_array_fault(fault);
    }

    /// Arms the missed-detection checker fault: the checker farm lies
    /// "pass" on every check from now on (see
    /// [`Detector::arm_checker_miss`]).
    pub fn arm_checker_miss(&mut self) {
        self.det.arm_checker_miss();
    }

    /// Turns on rollback bookkeeping so a detected error yields a
    /// [`RollbackPlan`] after the run (see
    /// [`Detector::enable_recovery_tracking`]).
    pub fn enable_recovery_tracking(&mut self) {
        self.det.enable_recovery_tracking();
    }

    /// The rollback plan after a run whose checks failed (see
    /// [`Detector::rollback_plan`]).
    pub fn rollback_plan(&self) -> Option<RollbackPlan> {
        self.det.rollback_plan()
    }

    /// Faults armed on the main core that have not fired yet (see
    /// [`OooCore::unfired_faults`]).
    pub fn unfired_faults(&self) -> &[ArmedFault] {
        self.core.unfired_faults()
    }

    /// Macro-ops the main core has retired.
    pub fn instrs(&self) -> u64 {
        self.core.stats.committed_instrs
    }

    /// Runs until the program halts, crashes, or `max_instrs` instructions
    /// retire; then finalizes all outstanding checks and reports.
    pub fn run(&mut self, max_instrs: u64) -> RunReport {
        self.advance(max_instrs);
        self.finalize()
    }

    /// Runs until the program halts, crashes, or `max_instrs` more
    /// instructions retire, leaving outstanding checks in flight; returns
    /// the instructions retired. Any split of a budget across `advance`
    /// calls runs exactly like one call.
    pub fn advance(&mut self, max_instrs: u64) -> u64 {
        self.core.run(&mut self.hier, &mut self.det, max_instrs)
    }

    /// [`advance`](PairedSystem::advance) that also returns after the
    /// first block during which a check failed. Folds run in seal order
    /// (invariant 1), so the first error recorded has the lowest seal and
    /// its confirmation time — the running maximum of finish times up to
    /// that seal — is already final: [`finalize`](PairedSystem::finalize)
    /// then reports the same [`first_error`](RunReport::first_error) as a
    /// run to the full budget.
    pub fn advance_until_error(&mut self, max_instrs: u64) -> u64 {
        let mut n = 0;
        while n < max_instrs && self.det.folds.errors.is_empty() {
            match self.core.step_block(&mut self.hier, &mut self.det, max_instrs - n) {
                Ok(out) => n += out.instrs,
                Err(_) => break,
            }
        }
        n
    }

    /// Finalizes all outstanding checks and reports on the run so far.
    pub fn finalize(&mut self) -> RunReport {
        // Hold "termination" until every outstanding check completes
        // (§IV-H), sealing the residual partial segment.
        let at = self.core.now();
        self.det.finalize(
            self.core.committed_state(),
            self.core.stats.committed_instrs,
            at,
            &mut self.hier,
        );
        let checker_busy_fs = self.det.checkers.iter().map(|c| c.stats.busy_fs).sum();
        let checker_segments = self.det.checkers.iter().map(|c| c.stats.segments).sum();
        RunReport {
            instrs: self.core.stats.committed_instrs,
            main_cycles: self.core.stats.last_commit_cycle,
            main_time: at,
            wall_time: at.max(self.det.all_checks_done_at()),
            halted: self.core.halted(),
            crashed: self.core.crashed().is_some(),
            errors: self.det.folds.errors.clone(),
            delays: self.det.folds.delays.clone(),
            store_delays: self.det.folds.store_delays.clone(),
            detector: self.det.stats,
            core: self.core.stats,
            mem: self.hier.stats(),
            checker_busy_fs,
            checker_segments,
            domains: self.det.domain_reports(),
        }
    }

    /// Runs to halt (or crash) with no instruction bound.
    pub fn run_to_halt(&mut self) -> RunReport {
        self.run(u64::MAX)
    }
}

/// Runs `program` on an *unchecked* core (no detection hardware at all) and
/// returns the report — the baseline for normalized-slowdown figures.
pub fn run_unchecked(cfg: &SystemConfig, program: &Program, max_instrs: u64) -> RunReport {
    run_unchecked_shared(cfg, &Arc::new(program.clone()), max_instrs)
}

/// [`run_unchecked`] over a shared program: no `Program` deep clone.
pub fn run_unchecked_shared(
    cfg: &SystemConfig,
    program: &Arc<Program>,
    max_instrs: u64,
) -> RunReport {
    let mut hier = MemHier::new(&cfg.mem_config());
    hier.data.load_image(program);
    let mut core = OooCore::new_shared(cfg.main, Arc::clone(program));
    core.run(&mut hier, &mut NullSink, max_instrs);
    let at = core.now();
    RunReport {
        instrs: core.stats.committed_instrs,
        main_cycles: core.stats.last_commit_cycle,
        main_time: at,
        wall_time: at,
        halted: core.halted(),
        crashed: core.crashed().is_some(),
        errors: Vec::new(),
        delays: DelayStats::new(),
        store_delays: DelayStats::new(),
        detector: DetectorStats::default(),
        core: core.stats,
        mem: hier.stats(),
        checker_busy_fs: 0,
        checker_segments: 0,
        domains: Vec::new(),
    }
}
