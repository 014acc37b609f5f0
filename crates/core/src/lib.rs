//! Parallel error detection using heterogeneous cores — the paper's core
//! contribution (Ainsworth & Jones, DSN 2018).
//!
//! This crate assembles the detection architecture of Fig. 3:
//!
//! * a [`LoadForwardingUnit`] duplicating load values at execute time
//!   (§IV-C), indexed by reorder-buffer slot;
//! * a partitioned load-store log ([`Segment`]/[`SegmentLog`], §IV-D) in
//!   structure-of-arrays form (dense replay walks; the measured
//!   116-bit/entry SRAM cost vs the paper's 18-byte estimate) with a
//!   one-to-one segment↔checker mapping;
//! * register checkpointing at segment boundaries with a 16-cycle commit
//!   pause (Table I), chained so each segment's start checkpoint is the
//!   previous segment's end checkpoint (strong induction, §IV);
//! * the [`Detector`] commit-stage logic: seal on space/timeout/interrupt/
//!   halt, stall the main core when all segments are busy, dispatch checks
//!   to the in-order checker cores of `paradet-checker`;
//! * [`PairedSystem`] — the whole machine, producing a [`RunReport`] with
//!   slowdown, detection delays (Fig. 8/11/12) and detected errors;
//! * secondary checker clock domains ([`SystemConfig::extra_domains`],
//!   [`DomainReport`]): one run folds every sealed segment's replay once
//!   per [`ClockDomain`], reproducing the Fig. 9/11 checker-clock
//!   sensitivity curves from a single simulation — per-domain rows are
//!   bit-identical to dedicated runs whenever their stall-divergence
//!   counter is zero.
//!
//! # Quickstart
//!
//! ```
//! use paradet_core::{PairedSystem, SystemConfig};
//! use paradet_isa::{AluOp, ProgramBuilder, Reg};
//!
//! // sum the numbers 0..100 through memory
//! let mut b = ProgramBuilder::new();
//! let buf = b.alloc_zeroed(1);
//! b.li(Reg::X1, buf as i64);
//! b.li(Reg::X2, 0);
//! b.li(Reg::X3, 100);
//! let top = b.label_here();
//! b.ld(Reg::X4, Reg::X1, 0);
//! b.op(AluOp::Add, Reg::X4, Reg::X4, Reg::X2);
//! b.sd(Reg::X4, Reg::X1, 0);
//! b.addi(Reg::X2, Reg::X2, 1);
//! b.blt(Reg::X2, Reg::X3, top);
//! b.halt();
//! let program = b.build();
//!
//! let mut system = PairedSystem::new(SystemConfig::paper_default(), &program);
//! let report = system.run_to_halt();
//! assert!(report.halted && !report.detected());
//! assert!(report.delays.count() > 0, "every load and store was checked");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod delay;
mod detector;
mod error;
mod lfu;
mod log;
mod recovery;
mod scratch;
mod system;

pub use config::{DetectionMode, LogConfig, SystemConfig};
pub use delay::DelayStats;
pub use detector::{Detector, DetectorStats, DomainReport, RollbackPlan, SealAssignment, SealKind};
pub use error::DetectedError;
pub use lfu::{LfuEntry, LfuStats, LoadForwardingUnit};
pub use log::{EntryKind, LogEntry, Segment, SegmentLog, SegmentReader, SegmentState};
pub use paradet_checker::{ClockDomain, DomainSet, FarmSpec, SchedPolicyKind};
pub use paradet_isa::MAX_UOPS_PER_INSN;
pub use recovery::{
    run_recovery, run_recovery_from, RecoveryDisposition, RecoveryPolicy, RecoveryReport,
    TrialFaults,
};
pub use scratch::SimScratch;
pub use system::{run_unchecked, run_unchecked_shared, PairedSystem, RunReport, SystemSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use paradet_checker::{CheckError, ReplayError};
    use paradet_isa::{AluOp, Program, ProgramBuilder, Reg};
    use paradet_mem::Time;
    use paradet_ooo::{ArmedFault, FaultTarget};

    /// A memory-traffic-heavy kernel: accumulate-and-store over a table.
    fn store_loop(iters: i64) -> Program {
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
        b.build()
    }

    /// A compute-only kernel (no memory traffic at all after setup).
    fn compute_loop(iters: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::X1, 1);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, iters);
        let top = b.label_here();
        b.op(AluOp::Xor, Reg::X1, Reg::X1, Reg::X2);
        b.op_imm(AluOp::Sll, Reg::X4, Reg::X1, 1);
        b.op(AluOp::Add, Reg::X1, Reg::X1, Reg::X4);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X3, top);
        b.halt();
        b.build()
    }

    #[test]
    fn clean_run_verifies_everything() {
        let program = store_loop(2000);
        let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
        let report = sys.run_to_halt();
        assert!(report.halted);
        assert!(!report.crashed);
        assert!(report.errors.is_empty(), "clean run must not raise: {:?}", report.errors);
        // Every load and store was checked: 2000 loads + 2000 stores.
        assert_eq!(report.delays.count(), 4000);
        assert_eq!(report.store_delays.count(), 2000);
        assert!(report.detector.seals > 10, "36KiB/12 segments fill many times");
        assert!(report.wall_time >= report.main_time);
        assert!(report.delays.mean_ns() > 0.0);
    }

    /// Main-core cycles of full detection over the unchecked baseline.
    fn slowdown(cfg: SystemConfig, program: &Program) -> f64 {
        let base = run_unchecked(&cfg, program, u64::MAX);
        let full = PairedSystem::new(cfg, program).run_to_halt();
        full.main_cycles as f64 / base.main_cycles as f64
    }

    #[test]
    fn slowdown_at_paper_defaults_is_small() {
        let program = store_loop(3000);
        let s = slowdown(SystemConfig::paper_default(), &program);
        assert!(s >= 1.0, "detection can't speed the core up: {s}");
        assert!(s < 1.12, "paper reports ≤3.4% at defaults; allow 12% here, got {s:.3}");
    }

    #[test]
    fn slow_checkers_stall_a_compute_bound_core() {
        // 2 checkers at 125 MHz cannot keep up with a 3.2 GHz core on a
        // compute-bound loop: the log fills and the main core stalls.
        let cfg = SystemConfig::paper_default()
            .with_checkers(2)
            .with_checker_mhz(125)
            .with_log(2 * 1024, Some(200));
        let program = compute_loop(20_000);
        let s = slowdown(cfg, &program);
        assert!(s > 1.5, "slow checkers must throttle the main core, got {s:.2}");
    }

    #[test]
    fn checkpoint_only_mode_has_pauses_but_no_checks() {
        let program = store_loop(2000);
        let cfg = SystemConfig::paper_default().with_mode(DetectionMode::CheckpointOnly);
        let mut sys = PairedSystem::new(cfg, &program);
        let report = sys.run_to_halt();
        assert!(report.detector.seals > 0);
        assert!(report.core.gate_pauses > 0);
        assert_eq!(report.delays.count(), 0, "no checker ever ran");
        assert_eq!(report.checker_segments, 0);
    }

    #[test]
    fn register_fault_is_detected() {
        let program = store_loop(2000);
        let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
        // Corrupt the accumulator register mid-run: the corrupted value
        // flows into a store, which the checker recomputes correctly.
        sys.arm_fault(ArmedFault::new(500, FaultTarget::IntRegBit { reg: Reg::X2, bit: 3 }));
        let report = sys.run_to_halt();
        assert!(report.detected(), "register corruption must be detected");
        let first = report.first_error().unwrap();
        assert!(first.confirm_time >= first.detect_time);
    }

    #[test]
    fn store_value_fault_is_detected_as_value_mismatch() {
        let program = store_loop(2000);
        let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
        sys.arm_fault(ArmedFault::new(600, FaultTarget::StoreValueBit { bit: 5 }));
        let report = sys.run_to_halt();
        assert!(report.detected());
        assert!(
            matches!(
                report.first_error().unwrap().error,
                CheckError::Replay { error: ReplayError::StoreValueMismatch { .. }, .. }
            ),
            "got {:?}",
            report.first_error().unwrap().error
        );
    }

    #[test]
    fn store_addr_fault_is_detected_as_addr_mismatch() {
        let program = store_loop(2000);
        let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
        sys.arm_fault(ArmedFault::new(600, FaultTarget::StoreAddrBit { bit: 4 }));
        let report = sys.run_to_halt();
        assert!(report.detected());
        assert!(matches!(
            report.first_error().unwrap().error,
            CheckError::Replay { error: ReplayError::StoreAddrMismatch { .. }, .. }
        ));
    }

    #[test]
    fn load_value_fault_detected_with_lfu_but_escapes_without() {
        // THE load-forwarding-unit ablation (§IV-C): a fault striking the
        // loaded value *after* duplication is caught only because the LFU
        // captured the clean copy; the naive design forwards the corrupted
        // register at commit and the checker happily reproduces the same
        // wrong results.
        let program = store_loop(2000);

        let mut with_lfu = PairedSystem::new(SystemConfig::paper_default(), &program);
        with_lfu.arm_fault(ArmedFault::new(700, FaultTarget::LoadValueBit { bit: 9 }));
        let r1 = with_lfu.run_to_halt();
        assert!(r1.detected(), "LFU design must detect a post-capture load fault");

        let cfg = SystemConfig { lfu_enabled: false, ..SystemConfig::paper_default() };
        let mut without = PairedSystem::new(cfg, &program);
        without.arm_fault(ArmedFault::new(700, FaultTarget::LoadValueBit { bit: 9 }));
        let r2 = without.run_to_halt();
        assert!(
            !r2.detected(),
            "naive commit-time forwarding reproduces the corruption: {:?}",
            r2.first_error()
        );
    }

    #[test]
    fn pc_fault_is_detected_or_crashes_with_checks_complete() {
        let program = store_loop(5000);
        let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
        sys.arm_fault(ArmedFault::new(1000, FaultTarget::PcBit { bit: 4 }));
        let report = sys.run_to_halt();
        assert!(report.detected() || report.crashed, "control-flow corruption must surface");
        assert!(report.wall_time >= report.main_time, "checks completed before reporting");
    }

    #[test]
    fn alu_stuck_at_fault_is_detected() {
        let program = store_loop(3000);
        let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
        sys.arm_fault(ArmedFault::new(
            500,
            FaultTarget::AluStuckAt { unit: 0, bit: 0, value: true },
        ));
        let report = sys.run_to_halt();
        assert!(report.detected(), "hard faults must be detected (unlike RMT, §VII-B)");
    }

    #[test]
    fn timeout_seals_cover_quiet_stretches() {
        // A compute loop does no memory traffic: only the timeout can seal.
        let cfg = SystemConfig::paper_default().with_log(36 * 1024, Some(500));
        let program = compute_loop(5_000);
        let mut sys = PairedSystem::new(cfg, &program);
        let report = sys.run_to_halt();
        assert!(report.detector.timeout_seals >= 9, "got {:?}", report.detector);
        assert!(report.errors.is_empty());
    }

    #[test]
    fn no_timeout_means_single_final_seal_for_compute() {
        let cfg = SystemConfig::paper_default().with_log(36 * 1024, None);
        let program = compute_loop(5_000);
        let mut sys = PairedSystem::new(cfg, &program);
        let report = sys.run_to_halt();
        assert_eq!(report.detector.timeout_seals, 0);
        assert_eq!(report.detector.seals, 1, "only the halt seal");
    }

    #[test]
    fn interrupt_interval_forces_early_seals() {
        let mut cfg = SystemConfig::paper_default().with_log(36 * 1024, None);
        cfg.interrupt_interval = Some(Time::from_us(1));
        let program = compute_loop(20_000);
        let mut sys = PairedSystem::new(cfg, &program);
        let report = sys.run_to_halt();
        assert!(report.detector.interrupt_seals > 2, "got {:?}", report.detector);
    }

    #[test]
    fn log_full_stall_is_counted_when_checkers_lag() {
        let cfg = SystemConfig::paper_default()
            .with_checkers(2)
            .with_checker_mhz(125)
            .with_log(1024, Some(100));
        let program = store_loop(3000);
        let mut sys = PairedSystem::new(cfg, &program);
        let report = sys.run_to_halt();
        assert!(report.detector.log_full_retries > 0);
        assert!(report.core.gate_retry_cycles > 0);
    }

    #[test]
    fn delays_scale_inversely_with_checker_clock() {
        let program = store_loop(3000);
        let fast =
            PairedSystem::new(SystemConfig::paper_default().with_checker_mhz(2000), &program)
                .run_to_halt();
        let slow = PairedSystem::new(SystemConfig::paper_default().with_checker_mhz(250), &program)
            .run_to_halt();
        assert!(
            slow.delays.mean_ns() > fast.delays.mean_ns() * 2.0,
            "250MHz checks must be much slower: {:.0} vs {:.0}",
            slow.delays.mean_ns(),
            fast.delays.mean_ns()
        );
    }

    #[test]
    fn delays_scale_with_log_size() {
        let program = store_loop(20_000);
        let small =
            PairedSystem::new(SystemConfig::paper_default().with_log(3600, Some(500)), &program)
                .run_to_halt();
        let large = PairedSystem::new(
            SystemConfig::paper_default().with_log(360 * 1024, Some(50_000)),
            &program,
        )
        .run_to_halt();
        assert!(
            large.delays.mean_ns() > small.delays.mean_ns() * 3.0,
            "bigger segments mean longer delays: {:.0} vs {:.0}",
            large.delays.mean_ns(),
            small.delays.mean_ns()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let program = store_loop(2000);
        let r1 = PairedSystem::new(SystemConfig::paper_default(), &program).run_to_halt();
        let r2 = PairedSystem::new(SystemConfig::paper_default(), &program).run_to_halt();
        assert_eq!(r1.main_cycles, r2.main_cycles);
        assert_eq!(r1.wall_time, r2.wall_time);
        assert_eq!(r1.delays.count(), r2.delays.count());
        assert_eq!(r1.delays.samples_fs(), r2.delays.samples_fs());
    }

    #[test]
    fn instruction_cap_finalizes_partial_work() {
        let program = store_loop(100_000);
        let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
        let report = sys.run(5_000);
        assert!(!report.halted);
        assert_eq!(report.instrs, 5_000);
        assert!(report.errors.is_empty());
        // All entries committed so far were checked.
        assert_eq!(report.delays.count(), report.detector.entries_logged);
    }
}
