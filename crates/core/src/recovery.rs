//! Detect → rollback → re-execute: the checkpoint-recovery driver.
//!
//! The paper's architecture *detects* errors; this module closes the loop
//! the paper sketches for recovery (§III: "the register checkpoint …
//! could be used to roll back execution"). When a checker flags a
//! segment, the driver rolls architectural state back to the last
//! *validated* checkpoint, undoes every committed store since it (the
//! undo column of the load-store log holds each store's pre-image), and
//! re-executes from there on a fresh system. Retries are bounded: a
//! fault that keeps striking (a permanent stuck-at) cannot livelock the
//! machine — after `max_retries` rollbacks the driver escalates to
//! **graceful degradation**, executing the remainder functionally on a
//! known-good in-order core (the checker core taking over, DCLS-style),
//! which guarantees forward progress for every fault the checkers can
//! see.
//!
//! # The forward-progress argument
//!
//! * Folds run in seal order, so the first failed check freezes the
//!   unvalidated-segment window with the errored segment at its front —
//!   its start checkpoint is by induction the last validated state.
//! * Rolling back applies store pre-images newest-segment-first, each
//!   segment's stores reversed, restoring memory exactly to that
//!   checkpoint (aliased stores unwind correctly because application
//!   order is the exact reverse of commit order).
//! * A transient strike is consumed by its firing, so the re-execution
//!   is fault-free and — execution being deterministic — bit-identical
//!   to an uninterrupted run (determinism invariant 9, rollback
//!   transparency). Such an attempt cannot fail a check, and only its
//!   final state is reported, so it runs on the functional oracle
//!   (invariant 14) unless the program reads `rdcycle`.
//! * A strike that persists (intermittent before its count runs out,
//!   permanent always) re-fires, is re-detected, and burns one retry per
//!   attempt; the retry bound then forces the degraded path, which the
//!   fault model places outside the fault's reach.

use crate::config::SystemConfig;
use crate::scratch::SimScratch;
use crate::system::{PairedSystem, SystemSnapshot};
use paradet_isa::{ArchState, FlatMemory, Instruction, NoNondet, Program};
use paradet_mem::{ArrayFault, Time};
use paradet_ooo::{ArmedFault, FaultKind};
use std::sync::Arc;

/// The complete fault load of one recovery trial: a temporal kind applied
/// to main-core strike targets, plus optional array and checker-side
/// faults (which have their own temporal semantics).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrialFaults {
    /// Temporal behaviour of the main-core strikes.
    pub kind: FaultKind,
    /// Main-core strikes, `at_instr` counted over the *global* retired
    /// stream (the driver translates across rollbacks).
    pub core: Vec<ArmedFault>,
    /// A memory-array fault (fires once; survives rollback by design —
    /// arrays are not checkpointed).
    pub array: Option<ArrayFault>,
    /// A lying checker that misses every error (persists across
    /// attempts: it is checker hardware, not state).
    pub checker_miss: bool,
    /// A lying checker that reports a false positive: one log bit of the
    /// `(seal_seq, entry, bit)` segment flips before its check (§IV-I
    /// over-detection). Consumed with the discarded log copy — armed on
    /// the first attempt only.
    pub log_fault: Option<(u64, usize, u8)>,
}

impl TrialFaults {
    /// The main-core strikes [`kind`](TrialFaults::kind) expands
    /// [`core`](TrialFaults::core) into, in `core` order: an intermittent
    /// fault becomes `count` strikes `period` retired instructions apart (a
    /// zero period counts as one), while a transient or permanent fault is
    /// one strike at its own `at_instr`.
    pub fn strikes(&self) -> impl Iterator<Item = ArmedFault> + '_ {
        let (count, period) = match self.kind {
            FaultKind::Intermittent { period, count } => (u64::from(count), period.max(1)),
            FaultKind::Transient | FaultKind::Permanent => (1, 0),
        };
        self.core.iter().flat_map(move |f| {
            (0..count).map(move |k| ArmedFault::new(f.at_instr + k * period, f.target))
        })
    }

    /// The latest instruction count from which a trial of these faults may
    /// start off a snapshot of the clean run (see
    /// [`PairedSystem::snapshot`]) and stay bit-identical to a trial
    /// started from scratch: the first main-core strike, since no strike
    /// changes anything before it fires. Array and log faults count data
    /// accesses or seals from system start, so they pin the trial to the
    /// start. `u64::MAX` when nothing is armed.
    pub fn clean_prefix(&self) -> u64 {
        if self.array.is_some() || self.log_fault.is_some() {
            return 0;
        }
        self.strikes().map(|f| f.at_instr).min().unwrap_or(u64::MAX)
    }
}

/// Bounds and modeled costs of the recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Rollback attempts before escalating to the degraded path.
    pub max_retries: u32,
    /// Fixed modeled cost per rollback (checkpoint restore, store-undo
    /// walk, pipeline refill), charged to the recovery latency.
    pub rollback_penalty: Time,
}

impl Default for RecoveryPolicy {
    fn default() -> RecoveryPolicy {
        RecoveryPolicy { max_retries: 3, rollback_penalty: Time::from_ns(100) }
    }
}

/// How a recovery-driven run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryDisposition {
    /// No check ever failed; no rollback happened.
    Clean,
    /// At least one rollback, then an attempt completed with every check
    /// passing.
    Recovered,
    /// Retries exhausted (or no rollback target existed); the remainder
    /// executed on the degraded functional path.
    Degraded,
    /// Even the degraded path could not complete (corrupted state drove
    /// the known-good core off the text segment).
    Unrecoverable,
}

/// Result of one fault trial under the recovery driver.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// How the run ended.
    pub disposition: RecoveryDisposition,
    /// Rollbacks performed.
    pub retries: u32,
    /// Whether any attempt's checkers flagged an error.
    pub detected: bool,
    /// Whether the program reached `halt` (on whichever path completed).
    pub halted: bool,
    /// Whether the *final* path crashed (wild PC).
    pub crashed: bool,
    /// Final architectural state — for Recovered transients this is
    /// bit-identical to the golden run's.
    pub final_state: ArchState,
    /// Final functional memory contents.
    pub final_mem: FlatMemory,
    /// The first error's confirmation time, measured from the start of the
    /// run (the first attempt), in femtoseconds; 0 when nothing was
    /// detected.
    pub detect_fs: u64,
    /// Modeled recovery cost: the full wall time of every aborted
    /// attempt plus one rollback penalty per retry, femtoseconds.
    pub recovery_fs: u64,
}

/// Runs `program` for up to `max_instrs` instructions under `faults`,
/// recovering from every detected error per `policy`. See the module
/// docs for the algorithm and the forward-progress argument.
pub fn run_recovery(
    cfg: &SystemConfig,
    program: &Arc<Program>,
    scratch: &mut SimScratch,
    max_instrs: u64,
    faults: &TrialFaults,
    policy: &RecoveryPolicy,
) -> RecoveryReport {
    run_recovery_from(cfg, program, scratch, max_instrs, faults, policy, None)
}

/// [`run_recovery`] whose first attempt resumes from `start`: a snapshot of
/// a clean run of `program` under `cfg` with recovery tracking on, taken
/// at or before [`TrialFaults::clean_prefix`]. The report is bit-identical
/// to [`run_recovery`]'s (determinism invariant 13); only the fault-free
/// prefix is not simulated again. `None` starts from the program entry.
pub fn run_recovery_from(
    cfg: &SystemConfig,
    program: &Arc<Program>,
    scratch: &mut SimScratch,
    max_instrs: u64,
    faults: &TrialFaults,
    policy: &RecoveryPolicy,
    mut start: Option<&SystemSnapshot>,
) -> RecoveryReport {
    debug_assert!(start.is_none_or(|s| s.instrs() <= faults.clean_prefix()));
    // Global strikes, each with whether it is consumed. Permanent strikes
    // re-arm on every attempt; others are consumed by firing.
    let mut strikes: Vec<(ArmedFault, bool)> = faults.strikes().map(|f| (f, false)).collect();
    let permanent = faults.kind == FaultKind::Permanent;
    // `rdcycle` reads the main core's cycle count, which only the paired
    // system models; programs containing it re-execute on that system.
    let oracle_reexecution =
        !program.text().iter().any(|i| matches!(i, Instruction::RdCycle { .. }));
    // Resume point: None = the first attempt, from `start` or the entry.
    let mut resume: Option<(ArchState, FlatMemory)> = None;
    let mut base = 0u64; // global retired instructions at the resume point
    let mut retries = 0u32;
    let mut detected = false;
    let mut detect_fs = 0u64;
    let mut recovery_fs = 0u64;

    // Each attempt either converges on the paired system and returns, or
    // hands the rest of the budget to the functional oracle: a fault-free
    // re-execution, or the degraded path.
    let (mut state, mut mem, done, degraded) = loop {
        let mut sys = match (resume.take(), start.take()) {
            // Array and log faults arm on the first attempt only and a
            // lying checker only suppresses errors, so with every strike
            // consumed nothing is armed: the attempt cannot fail a check,
            // and `recovery_fs` never reads a converged attempt's timing.
            (Some((state, mem)), _) if oracle_reexecution && strikes.iter().all(|s| s.1) => {
                debug_assert!(!state.halted, "a segment starts before halt");
                break (state, mem, base, false);
            }
            (Some((state, mem)), _) => {
                PairedSystem::new_resumed(*cfg, program, scratch, &state, mem)
            }
            (None, Some(snap)) => PairedSystem::from_snapshot(snap, scratch),
            (None, None) => PairedSystem::new_with_scratch(*cfg, program, scratch),
        };
        sys.enable_recovery_tracking();
        if faults.checker_miss {
            sys.arm_checker_miss();
        }
        if retries == 0 {
            if let Some(a) = faults.array {
                sys.arm_array_fault(a);
            }
            if let Some((seq, entry, bit)) = faults.log_fault {
                sys.arm_log_fault(seq, entry, bit);
            }
        }
        // Arm every unconsumed strike, translated to this attempt's local
        // instruction stream; strikes the rollback jumped behind re-arm at
        // the first local instruction (they were still waiting to fire).
        let mut armed: Vec<(usize, ArmedFault)> = Vec::new();
        for (i, &(s, consumed)) in strikes.iter().enumerate() {
            if consumed {
                continue;
            }
            let f = ArmedFault::new(s.at_instr.saturating_sub(base), s.target);
            sys.arm_fault(f);
            armed.push((i, f));
        }

        // A system restored from a snapshot has already retired its prefix.
        let report = sys.run(max_instrs.saturating_sub(base + sys.instrs()));

        // A non-permanent strike is consumed once it actually fired
        // (gated strikes — e.g. a store-value flip with no store yet —
        // stay armed and carry over).
        let unfired = sys.unfired_faults().to_vec();
        for (i, f) in &armed {
            if !permanent && !unfired.contains(f) {
                strikes[*i].1 = true;
            }
        }

        if !report.detected() {
            // Converged: every check of this attempt passed.
            let final_state = sys.core().committed_state().clone();
            let disposition = if retries == 0 {
                RecoveryDisposition::Clean
            } else {
                RecoveryDisposition::Recovered
            };
            return RecoveryReport {
                disposition,
                retries,
                detected,
                halted: report.halted,
                crashed: report.crashed,
                final_state,
                final_mem: sys.dismantle(scratch),
                detect_fs,
                recovery_fs,
            };
        }
        detected = true;
        if detect_fs == 0 {
            if let Some(e) = report.first_error() {
                detect_fs = e.confirm_time.as_fs();
            }
        }

        // Detected: roll back and retry, or escalate to the degraded path
        // — a known-good in-order core executing the remainder (checker
        // takeover, DCLS-style) from the last validated checkpoint, or,
        // with no plan, from wherever the main core stopped.
        recovery_fs += report.wall_time.as_fs() + policy.rollback_penalty.as_fs();
        let Some(plan) = sys.rollback_plan() else {
            let state = sys.core().committed_state().clone();
            break (state, sys.dismantle(scratch), base + report.instrs, true);
        };
        let mut mem = sys.dismantle(scratch);
        for &(addr, width, old) in &plan.undo {
            use paradet_isa::MemoryIface;
            mem.store(addr, width, old);
        }
        base += plan.base_instr;
        if retries >= policy.max_retries {
            break (plan.state, mem, base, true);
        }
        retries += 1;
        resume = Some((plan.state, mem));
    };

    let crashed = state
        .run_blocks(program, &mut mem, &mut NoNondet, max_instrs.saturating_sub(done))
        .is_err();
    let disposition = match (degraded, crashed) {
        (false, _) => RecoveryDisposition::Recovered,
        (true, false) => RecoveryDisposition::Degraded,
        (true, true) => RecoveryDisposition::Unrecoverable,
    };
    RecoveryReport {
        disposition,
        retries,
        detected,
        halted: state.halted,
        crashed,
        final_state: state,
        final_mem: mem,
        detect_fs,
        recovery_fs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use paradet_isa::{AluOp, ProgramBuilder, Reg};
    use paradet_ooo::FaultTarget;

    fn store_loop(iters: i64) -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(256);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, iters);
        let top = b.label_here();
        b.op_imm(AluOp::And, Reg::X5, Reg::X2, 255);
        b.op_imm(AluOp::Sll, Reg::X5, Reg::X5, 3);
        b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X1);
        b.ld(Reg::X6, Reg::X5, 0);
        b.op(AluOp::Add, Reg::X6, Reg::X6, Reg::X2);
        b.sd(Reg::X6, Reg::X5, 0);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X3, top);
        b.halt();
        Arc::new(b.build())
    }

    fn golden(program: &Arc<Program>) -> (ArchState, FlatMemory) {
        let mut state = ArchState::at_entry(program);
        let mut mem = FlatMemory::new();
        mem.load_image(program);
        state.run_blocks(program, &mut mem, &mut NoNondet, u64::MAX).expect("golden run crashed");
        (state, mem)
    }

    #[test]
    fn strikes_expand_every_fault_kind() {
        let a = ArmedFault::new(100, FaultTarget::IntRegBit { reg: Reg::X2, bit: 3 });
        let b = ArmedFault::new(7, FaultTarget::StoreValueBit { bit: 1 });
        let strikes = |kind| {
            let faults = TrialFaults { kind, core: vec![a, b], ..TrialFaults::default() };
            faults.strikes().collect::<Vec<_>>()
        };
        let at = |f: ArmedFault, at_instr| ArmedFault::new(at_instr, f.target);
        assert_eq!(strikes(FaultKind::Transient), [a, b]);
        assert_eq!(strikes(FaultKind::Permanent), [a, b]);
        assert_eq!(
            strikes(FaultKind::Intermittent { period: 40, count: 3 }),
            [a, at(a, 140), at(a, 180), b, at(b, 47), at(b, 87)]
        );
        // A zero period still spaces the strikes one instruction apart.
        assert_eq!(
            strikes(FaultKind::Intermittent { period: 0, count: 2 }),
            [a, at(a, 101), b, at(b, 8)]
        );
        assert_eq!(strikes(FaultKind::Intermittent { period: 40, count: 0 }), []);
    }

    #[test]
    fn transient_register_fault_recovers_to_golden() {
        let program = store_loop(2000);
        let (gstate, gmem) = golden(&program);
        let faults = TrialFaults {
            kind: FaultKind::Transient,
            core: vec![ArmedFault::new(500, FaultTarget::IntRegBit { reg: Reg::X2, bit: 3 })],
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &RecoveryPolicy::default(),
        );
        assert!(r.detected);
        assert_eq!(r.disposition, RecoveryDisposition::Recovered);
        assert!(r.retries >= 1);
        assert!(r.halted && !r.crashed);
        assert_eq!(r.final_state, gstate, "rollback transparency: state ≡ golden");
        assert_eq!(r.final_mem.first_difference(&gmem), None, "memory ≡ golden");
        assert!(r.recovery_fs > 0 && r.detect_fs > 0);
    }

    #[test]
    fn permanent_stuck_alu_degrades_with_forward_progress() {
        let program = store_loop(2000);
        let (gstate, gmem) = golden(&program);
        let faults = TrialFaults {
            kind: FaultKind::Permanent,
            core: vec![ArmedFault::new(
                500,
                FaultTarget::AluStuckAt { unit: 0, bit: 0, value: true },
            )],
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let policy = RecoveryPolicy { max_retries: 2, ..RecoveryPolicy::default() };
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &policy,
        );
        assert!(r.detected);
        assert_eq!(r.disposition, RecoveryDisposition::Degraded, "no livelock on hard faults");
        assert_eq!(r.retries, 2, "burned every retry before escalating");
        assert!(r.halted);
        assert_eq!(r.final_state, gstate, "degraded path still reaches the golden state");
        assert_eq!(r.final_mem.first_difference(&gmem), None);
    }

    #[test]
    fn intermittent_fault_recovers_once_strikes_run_out() {
        let program = store_loop(2000);
        let (gstate, _) = golden(&program);
        let faults = TrialFaults {
            kind: FaultKind::Intermittent { period: 40, count: 2 },
            core: vec![ArmedFault::new(300, FaultTarget::StoreValueBit { bit: 7 })],
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &RecoveryPolicy::default(),
        );
        assert!(r.detected);
        assert!(
            matches!(r.disposition, RecoveryDisposition::Recovered | RecoveryDisposition::Degraded),
            "bounded strikes must not be unrecoverable: {:?}",
            r.disposition
        );
        assert_eq!(r.final_state, gstate);
    }

    #[test]
    fn clean_run_is_clean() {
        let program = store_loop(500);
        let (gstate, _) = golden(&program);
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &TrialFaults::default(),
            &RecoveryPolicy::default(),
        );
        assert_eq!(r.disposition, RecoveryDisposition::Clean);
        assert!(!r.detected && r.retries == 0 && r.recovery_fs == 0);
        assert_eq!(r.final_state, gstate);
    }

    #[test]
    fn checker_false_positive_rolls_back_and_recovers() {
        // §IV-I over-detection as a *recoverable* event: the lying check
        // flags a clean segment; rollback + re-execution finds nothing
        // wrong and the run converges to golden.
        let program = store_loop(2000);
        let (gstate, gmem) = golden(&program);
        let faults = TrialFaults { log_fault: Some((3, 5, 11)), ..TrialFaults::default() };
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &RecoveryPolicy::default(),
        );
        assert!(r.detected, "the lie is indistinguishable from a real error");
        assert_eq!(r.disposition, RecoveryDisposition::Recovered);
        assert_eq!(r.final_state, gstate);
        assert_eq!(r.final_mem.first_difference(&gmem), None);
    }

    #[test]
    fn checker_miss_lets_fault_escape_silently() {
        let program = store_loop(2000);
        let (gstate, gmem) = golden(&program);
        let faults = TrialFaults {
            kind: FaultKind::Transient,
            core: vec![ArmedFault::new(500, FaultTarget::StoreValueBit { bit: 3 })],
            checker_miss: true,
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let r = run_recovery(
            &SystemConfig::paper_default(),
            &program,
            &mut scratch,
            u64::MAX,
            &faults,
            &RecoveryPolicy::default(),
        );
        assert!(!r.detected, "a lying checker reports nothing");
        assert_eq!(r.disposition, RecoveryDisposition::Clean);
        assert!(
            r.final_mem.first_difference(&gmem).is_some() || r.final_state != gstate,
            "the corruption silently escaped (SDC)"
        );
    }
}
