//! The crown property of the recovery subsystem, checked over *random*
//! kernels, fault kinds, strike targets, and checker-farm geometries:
//!
//! > For every **detected transient** fault, recovery converges and the
//! > final architectural state is bit-identical to the golden run —
//! > regardless of checker count or log size (determinism invariant 9,
//! > rollback transparency).
//!
//! Alongside it, the forward-progress guarantee (no fault kind in the
//! sphere is ever `Unrecoverable`), the no-silent-corruption corollary
//! (an honest checker farm never lets a strike escape: undetected implies
//! golden-identical), bit-level determinism of the driver itself, and the
//! premise of its oracle re-execution (determinism invariant 14): with no
//! fault armed, a resumed paired system never detects and ends exactly
//! where the functional oracle does.

use paradet::detect::{
    run_recovery, PairedSystem, RecoveryDisposition, RecoveryPolicy, SimScratch, SystemConfig,
    TrialFaults,
};
use paradet::isa::{AluOp, ArchState, FlatMemory, NoNondet, Program, ProgramBuilder, Reg};
use paradet::ooo::{ArmedFault, FaultKind, FaultTarget};
use proptest::prelude::*;
use std::sync::Arc;

/// One random ALU op in the kernel body: `(op, rd, rs1, rs2)` over the
/// scratch registers x10–x13.
type BodyOp = (AluOp, usize, usize, usize);

fn arb_alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Mul),
        Just(AluOp::Slt),
    ]
}

fn arb_body_op() -> impl Strategy<Value = BodyOp> {
    (arb_alu_op(), 10usize..14, 10usize..14, 10usize..14)
}

/// A random store-loop kernel: per iteration it indexes a 256-entry
/// buffer, loads, folds the iteration count and a random dataflow over
/// x10–x13 into the value, and stores it back. Every strike on a live
/// register therefore feeds a store the checkers verify. ~9+N dynamic
/// instructions per iteration; no `rdcycle` (values must be replayable).
fn random_kernel(iters: i64, seeds: &[u64], body: &[BodyOp]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(256);
    let data = b.alloc_u64s(seeds);
    b.li(Reg::X1, buf as i64);
    b.li(Reg::X31, data as i64);
    for i in 0..seeds.len() {
        b.ld(Reg::from_index(10 + i), Reg::X31, (i * 8) as i64);
    }
    b.li(Reg::X2, 0);
    b.li(Reg::X3, iters);
    let top = b.label_here();
    b.op_imm(AluOp::And, Reg::X5, Reg::X2, 255);
    b.op_imm(AluOp::Sll, Reg::X5, Reg::X5, 3);
    b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X1);
    b.ld(Reg::X6, Reg::X5, 0);
    for &(op, rd, rs1, rs2) in body {
        b.op(op, Reg::from_index(rd), Reg::from_index(rs1), Reg::from_index(rs2));
    }
    b.op(AluOp::Add, Reg::X6, Reg::X6, Reg::X10);
    b.op(AluOp::Add, Reg::X6, Reg::X6, Reg::X2);
    b.sd(Reg::X6, Reg::X5, 0);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt(Reg::X2, Reg::X3, top);
    b.halt();
    Arc::new(b.build())
}

/// Strike targets inside the detection sphere that the kernel keeps live.
fn arb_target() -> impl Strategy<Value = FaultTarget> {
    prop_oneof![
        (2u64..6, 0u8..64).prop_map(|(r, bit)| FaultTarget::IntRegBit {
            reg: Reg::from_index(if r == 3 { 6 } else { r as usize }),
            bit,
        }),
        (10u64..14, 0u8..64)
            .prop_map(|(r, bit)| FaultTarget::IntRegBit { reg: Reg::from_index(r as usize), bit }),
        (0u8..64).prop_map(|bit| FaultTarget::StoreValueBit { bit }),
        (0u8..16).prop_map(|bit| FaultTarget::StoreAddrBit { bit }),
    ]
}

/// Checker-farm geometries the property must hold across: farm width and
/// log size both change segment boundaries and fold order.
fn arb_geometry() -> impl Strategy<Value = SystemConfig> {
    (
        prop_oneof![Just(2usize), Just(4), Just(8), Just(12)],
        prop_oneof![Just(12_288usize), Just(36_864)],
    )
        .prop_map(|(n, log)| SystemConfig::paper_default().with_checkers(n).with_log(log, None))
}

fn arb_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Transient),
        (10u64..80, 2u32..4).prop_map(|(period, count)| FaultKind::Intermittent { period, count }),
        Just(FaultKind::Permanent),
    ]
}

fn golden(program: &Arc<Program>) -> (ArchState, FlatMemory) {
    let mut state = ArchState::at_entry(program);
    let mut mem = FlatMemory::new();
    mem.load_image(program);
    while !state.halted {
        state.step(program, &mut mem, &mut NoNondet).expect("golden run crashed");
    }
    (state, mem)
}

/// Instruction budget generous enough for a detour (a corrupted loop
/// counter can run the faulty attempt long before detection aborts it)
/// but finite so no case can hang.
const MAX_INSTRS: u64 = 60_000;

proptest! {
    /// The crown property. A transient strike, once detected, must always
    /// be repaired by rollback + re-execution: the run converges with at
    /// least one retry, and both the architectural register state and the
    /// functional memory image are bit-identical to the golden run — at
    /// every farm width and log size drawn.
    #[test]
    fn detected_transient_recovers_bit_identical_to_golden(
        iters in 60i64..200,
        seeds in proptest::collection::vec(any::<u64>(), 4),
        body in proptest::collection::vec(arb_body_op(), 0..6),
        target in arb_target(),
        at_frac in 1u64..90,
        cfg in arb_geometry(),
    ) {
        let program = random_kernel(iters, &seeds, &body);
        let (gstate, gmem) = golden(&program);
        let at_instr = 1 + at_frac * (iters as u64 * 11) / 100;
        let faults = TrialFaults {
            kind: FaultKind::Transient,
            core: vec![ArmedFault::new(at_instr, target)],
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let r = run_recovery(&cfg, &program, &mut scratch, MAX_INSTRS, &faults, &RecoveryPolicy::default());

        prop_assert!(r.disposition != RecoveryDisposition::Unrecoverable,
            "forward progress: {:?} at {:?}", target, at_instr);
        if r.detected {
            prop_assert_eq!(r.disposition, RecoveryDisposition::Recovered,
                "a detected transient must be repaired, not degraded: {:?}", target);
            prop_assert!(r.retries >= 1 && r.recovery_fs > 0 && r.detect_fs > 0);
            prop_assert!(r.halted && !r.crashed);
            prop_assert_eq!(&r.final_state, &gstate, "rollback transparency: state ≡ golden");
            prop_assert_eq!(r.final_mem.first_difference(&gmem), None, "memory ≡ golden");
        } else {
            // No-silent-corruption corollary: with an honest farm, a strike
            // that goes unreported either never fired or was architecturally
            // masked — the final state must still be golden.
            prop_assert_eq!(&r.final_state, &gstate, "undetected ⇒ masked, never SDC");
            prop_assert_eq!(r.final_mem.first_difference(&gmem), None);
        }
    }

    /// Forward progress across the whole temporal fault space: transient,
    /// intermittent, and permanent strikes all terminate in a non-livelock
    /// disposition, and whenever the driver claims repair (`Recovered`) or
    /// escalates onto the known-good core (`Degraded`), the final state is
    /// the golden one.
    #[test]
    fn every_fault_kind_makes_forward_progress(
        iters in 60i64..160,
        seeds in proptest::collection::vec(any::<u64>(), 4),
        body in proptest::collection::vec(arb_body_op(), 0..4),
        kind in arb_kind(),
        target in arb_target(),
        at_frac in 1u64..80,
        cfg in arb_geometry(),
    ) {
        let program = random_kernel(iters, &seeds, &body);
        let (gstate, gmem) = golden(&program);
        let at_instr = 1 + at_frac * (iters as u64 * 11) / 100;
        let faults = TrialFaults {
            kind,
            core: vec![ArmedFault::new(at_instr, target)],
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let r = run_recovery(&cfg, &program, &mut scratch, MAX_INSTRS, &faults, &RecoveryPolicy::default());

        prop_assert!(r.disposition != RecoveryDisposition::Unrecoverable,
            "{:?} {:?} must not defeat the retry bound + degraded path", kind, target);
        prop_assert!(r.halted, "every disposition but Unrecoverable reaches halt");
        match r.disposition {
            RecoveryDisposition::Recovered | RecoveryDisposition::Degraded => {
                prop_assert_eq!(&r.final_state, &gstate,
                    "{:?}: repaired/degraded runs end in the golden state", kind);
                prop_assert_eq!(r.final_mem.first_difference(&gmem), None);
            }
            _ => {}
        }
    }

    /// The driver itself is a pure function of (kernel, faults, geometry):
    /// two runs of the same trial agree bit-for-bit on every observable —
    /// disposition, retry count, detection flag, both latencies, and the
    /// final state. This is what lets sharded campaigns replay trials.
    #[test]
    fn recovery_driver_is_deterministic(
        iters in 60i64..160,
        seeds in proptest::collection::vec(any::<u64>(), 4),
        body in proptest::collection::vec(arb_body_op(), 0..4),
        kind in arb_kind(),
        target in arb_target(),
        at_frac in 1u64..80,
        cfg in arb_geometry(),
    ) {
        let program = random_kernel(iters, &seeds, &body);
        let at_instr = 1 + at_frac * (iters as u64 * 11) / 100;
        let faults = TrialFaults {
            kind,
            core: vec![ArmedFault::new(at_instr, target)],
            ..TrialFaults::default()
        };
        let mut scratch = SimScratch::new();
        let policy = RecoveryPolicy::default();
        let a = run_recovery(&cfg, &program, &mut scratch, MAX_INSTRS, &faults, &policy);
        let b = run_recovery(&cfg, &program, &mut scratch, MAX_INSTRS, &faults, &policy);
        prop_assert_eq!(a.disposition, b.disposition);
        prop_assert_eq!(a.retries, b.retries);
        prop_assert_eq!(a.detected, b.detected);
        prop_assert_eq!(a.detect_fs, b.detect_fs);
        prop_assert_eq!(a.recovery_fs, b.recovery_fs);
        prop_assert_eq!(&a.final_state, &b.final_state);
        prop_assert_eq!(a.final_mem.first_difference(&b.final_mem), None);
    }

    /// The premise of running fault-free re-executions on the functional
    /// oracle: a paired system resumed at any point of a clean run before
    /// its halt (where every rollback target lies: a segment starts before
    /// halt), with no fault armed, never detects, and ends with exactly the
    /// state, memory, `halted` and `crashed` that `ArchState::run_blocks`
    /// gives from the same start and budget — at every farm width and log
    /// size.
    #[test]
    fn fault_free_resumed_run_matches_the_oracle(
        iters in 20i64..120,
        seeds in proptest::collection::vec(any::<u64>(), 4),
        body in proptest::collection::vec(arb_body_op(), 0..6),
        resume_pct in 0u64..100,
        budget in 0u64..2_500,
        cfg in arb_geometry(),
    ) {
        let program = random_kernel(iters, &seeds, &body);
        let resume_at = resume_pct * golden(&program).0.retired / 100;
        let mut state = ArchState::at_entry(&program);
        let mut mem = FlatMemory::new();
        mem.load_image(&program);
        state.run_blocks(&program, &mut mem, &mut NoNondet, resume_at).expect("clean prefix");
        let mut scratch = SimScratch::new();
        let mut sys = PairedSystem::new_resumed(cfg, &program, &mut scratch, &state, mem.clone());
        let report = sys.run(budget);
        let crashed = state.run_blocks(&program, &mut mem, &mut NoNondet, budget).is_err();

        prop_assert!(!report.detected(), "a fault-free run detected {:?}", report.first_error());
        prop_assert_eq!((report.halted, report.crashed), (state.halted, crashed));
        prop_assert_eq!(sys.core().committed_state(), &state);
        prop_assert_eq!(sys.dismantle(&mut scratch).first_difference(&mem), None);
    }
}
