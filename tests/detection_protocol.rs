//! Protocol-level tests of the detection architecture: macro-op boundary
//! handling under log pressure, checkpoint chaining, first-error ordering,
//! and termination semantics.

use paradet::detect::{DetectedError, DomainSet, PairedSystem, SystemConfig};
use paradet::isa::{AluOp, Program, ProgramBuilder, Reg};
use paradet::mem::Time;
use paradet::ooo::{ArmedFault, FaultTarget};

/// A program built almost entirely from paired-memory macro-ops: stresses
/// the §IV-D rule that a macro-op's entries never straddle a segment
/// boundary.
fn paired_ops_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(64);
    b.li(Reg::X1, buf as i64);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, iters);
    let top = b.label_here();
    b.op_imm(AluOp::And, Reg::X5, Reg::X2, 31);
    b.op_imm(AluOp::Sll, Reg::X5, Reg::X5, 4);
    b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X1);
    b.stp(Reg::X2, Reg::X3, Reg::X5, 0); // two stores, one macro-op
    b.ldp(Reg::X6, Reg::X7, Reg::X5, 0); // two loads, one macro-op
    b.op(AluOp::Add, Reg::X8, Reg::X6, Reg::X7);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt(Reg::X2, Reg::X3, top);
    b.halt();
    b.build()
}

#[test]
fn paired_macro_ops_never_straddle_segments() {
    // A minuscule log (few entries per segment) forces a seal decision at
    // nearly every instruction; with stp/ldp cracking into two entries the
    // boundary rule is exercised constantly. Any straddle would corrupt a
    // checker's replay and raise a spurious error.
    for total_bytes in [1024usize, 2048, 4096] {
        let cfg = SystemConfig::paper_default().with_log(total_bytes, Some(200));
        let program = paired_ops_program(500);
        let mut sys = PairedSystem::new(cfg, &program);
        let report = sys.run_to_halt();
        assert!(report.halted);
        assert!(
            report.errors.is_empty(),
            "{total_bytes}B log: spurious errors {:?}",
            report.errors
        );
        // 500 iterations × 4 entries, all checked.
        assert_eq!(report.delays.count(), 2000);
    }
}

#[test]
fn paired_ops_under_checker_pressure_still_verify() {
    // Slow checkers + tiny log: the main core stalls on full segments
    // (Retry), still every entry must check out.
    let cfg = SystemConfig::paper_default()
        .with_log(1024, Some(100))
        .with_checkers(2)
        .with_checker_mhz(125);
    let program = paired_ops_program(300);
    let mut sys = PairedSystem::new(cfg, &program);
    let report = sys.run_to_halt();
    assert!(report.halted);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.detector.log_full_retries > 0, "pressure must cause stalls");
    assert_eq!(report.delays.count(), 1200);
}

/// Asserts that every error is confirmed when its own and every earlier
/// check had finished (§IV): at the latest of `finishes` up to its seal.
fn assert_confirmed_at_prefix_maxima(errors: &[DetectedError], finishes: &[Time]) {
    for e in errors {
        let latest = finishes[..=e.seal_seq as usize].iter().max();
        assert_eq!(Some(&e.confirm_time), latest, "{e}");
    }
}

#[test]
fn first_error_ordering_with_two_faults() {
    // Two independent faults far apart: both segments fail their checks;
    // the first error (by seal sequence) must carry a confirm time no
    // earlier than its detect time, and the error list must identify the
    // earlier segment as first. The primary farm and both secondary clock
    // domains confirm each error at the latest finish up to its seal.
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(128);
    b.li(Reg::X1, buf as i64);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, 8_000);
    let top = b.label_here();
    b.op_imm(AluOp::And, Reg::X5, Reg::X2, 127);
    b.op_imm(AluOp::Sll, Reg::X5, Reg::X5, 3);
    b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X1);
    b.sd(Reg::X2, Reg::X5, 0);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt(Reg::X2, Reg::X3, top);
    b.halt();
    let program = b.build();

    let cfg = SystemConfig::paper_default().with_extra_domains(DomainSet::from_mhz(&[250, 2000]));
    let mut sys = PairedSystem::new(cfg, &program);
    sys.arm_fault(ArmedFault::new(10_000, FaultTarget::StoreValueBit { bit: 2 }));
    sys.arm_fault(ArmedFault::new(30_000, FaultTarget::StoreValueBit { bit: 9 }));
    let report = sys.run_to_halt();
    assert!(report.errors.len() >= 2, "both faults must be detected: {:?}", report.errors);
    assert_confirmed_at_prefix_maxima(&report.errors, sys.detector().finish_times());
    assert_eq!(report.domains.len(), 2);
    for d in &report.domains {
        assert_eq!(d.errors.len(), report.errors.len(), "{} MHz", d.domain.mhz());
        assert_confirmed_at_prefix_maxima(&d.errors, &d.finishes);
    }
    let first = report.first_error().unwrap();
    for e in &report.errors {
        assert!(first.seal_seq <= e.seal_seq);
    }
    assert!(first.confirm_time >= first.detect_time);
    // Errors arrive in seal order.
    for w in report.errors.windows(2) {
        assert!(w[0].seal_seq < w[1].seal_seq);
    }
}

#[test]
fn wall_time_covers_the_tail_of_checking() {
    // With very slow checkers the final checks finish long after the main
    // core halts; §IV-H termination waits for them.
    let cfg = SystemConfig::paper_default().with_checkers(3).with_checker_mhz(125);
    let program = paired_ops_program(2_000);
    let mut sys = PairedSystem::new(cfg, &program);
    let report = sys.run_to_halt();
    assert!(report.halted);
    assert!(report.wall_time > report.main_time, "checker tail should extend past the last commit");
}

#[test]
fn empty_and_tiny_programs_are_handled() {
    // A single halt: one final seal, no entries, clean verify.
    let mut b = ProgramBuilder::new();
    b.halt();
    let program = b.build();
    let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
    let report = sys.run_to_halt();
    assert!(report.halted);
    assert!(report.errors.is_empty());
    assert_eq!(report.delays.count(), 0);
    assert_eq!(report.detector.seals, 1, "exactly the final seal");

    // One store then halt.
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(1);
    b.li(Reg::X1, buf as i64);
    b.sd(Reg::X1, Reg::X1, 0);
    b.halt();
    let program = b.build();
    let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
    let report = sys.run_to_halt();
    assert!(report.errors.is_empty());
    assert_eq!(report.delays.count(), 1);
}

#[test]
fn nondeterministic_instructions_are_replayed_through_the_log() {
    // rdcycle values differ between main core and any recomputation — only
    // log forwarding can make the checker agree (§IV-D).
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(8);
    b.li(Reg::X1, buf as i64);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, 200);
    let top = b.label_here();
    b.rdcycle(Reg::X4);
    b.op_imm(AluOp::And, Reg::X5, Reg::X2, 7);
    b.op_imm(AluOp::Sll, Reg::X5, Reg::X5, 3);
    b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X1);
    b.sd(Reg::X4, Reg::X5, 0); // store the nondet value: checked!
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt(Reg::X2, Reg::X3, top);
    b.halt();
    let program = b.build();
    let mut sys = PairedSystem::new(SystemConfig::paper_default(), &program);
    let report = sys.run_to_halt();
    assert!(report.halted);
    assert!(
        report.errors.is_empty(),
        "rdcycle must replay exactly through the log: {:?}",
        report.first_error()
    );
    // 200 nondet entries + 200 stores.
    assert_eq!(report.detector.entries_logged, 400);
}

#[test]
fn detection_works_at_every_core_count() {
    let program = paired_ops_program(400);
    for n in [1usize, 2, 3, 6, 12, 24] {
        let cfg = SystemConfig::paper_default().with_checkers(n);
        let mut sys = PairedSystem::new(cfg, &program);
        sys.arm_fault(ArmedFault::new(1_000, FaultTarget::StoreValueBit { bit: 4 }));
        let report = sys.run_to_halt();
        assert!(report.detected(), "{n} checkers: fault escaped");
    }
}

#[test]
fn over_detection_reports_do_not_corrupt_the_program() {
    // §IV-I: a fault in the detection hardware raises an error, but the
    // main program's result is untouched.
    let program = paired_ops_program(400);
    let mut clean = PairedSystem::new(SystemConfig::paper_default(), &program);
    let clean_report = clean.run_to_halt();
    let clean_state = clean.core().committed_state().clone();

    // Sweep a few entries: corrupted *store* entries always raise a false
    // error; a corrupted load of a dead value can be benign. In every case
    // the main program must be untouched.
    let mut detections = 0;
    for entry in 0..6 {
        let mut faulty = PairedSystem::new(SystemConfig::paper_default(), &program);
        faulty.arm_log_fault(1, entry, 13);
        let report = faulty.run_to_halt();
        if report.detected() {
            detections += 1;
        }
        assert_eq!(
            faulty.core().committed_state().first_register_mismatch(&clean_state),
            None,
            "main program must be unaffected by checker-side faults"
        );
        assert_eq!(report.instrs, clean_report.instrs);
    }
    // Within any six consecutive entries of this kernel at least two are
    // stores (the s,s,l,l pattern may start segment-shifted), and corrupted
    // store entries always raise a false error; corrupted loads of
    // dead-by-segment-end values can be benign.
    assert!(
        detections >= 2,
        "at least the store entries must raise false errors, got {detections}/6"
    );
}
