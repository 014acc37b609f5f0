//! Determinism invariant 13, snapshot transparency: a trial started from a
//! snapshot of the clean run is bit-identical to one started from scratch.
//!
//! Campaign trials resume from snapshots their golden run takes (see
//! `prepare_golden` in `paradet-faults`). That rests on two facts, each
//! pinned here on its own before the invariant itself:
//!
//! * splitting a run into `advance` calls — taking snapshots between them —
//!   runs exactly like one `run`, in full detection, checkpoint-only mode,
//!   with secondary clock domains and on a mixed farm;
//! * turning recovery tracking on leaves the `RunReport` unchanged, so a
//!   recovery campaign's golden run is the clean run its trials start from.
//!
//! Failures print the proptest case index and seed; `PROPTEST_SEED` and
//! `PROPTEST_CASES` replay them.

use paradet::checker::{DomainSet, FarmSpec, SchedPolicyKind};
use paradet::detect::{
    run_recovery, run_recovery_from, DetectionMode, PairedSystem, RecoveryPolicy, RecoveryReport,
    RunReport, SimScratch, SystemConfig, SystemSnapshot, TrialFaults,
};
use paradet::faults::{trial_plan, FaultSite};
use paradet::isa::{AluOp, Program, ProgramBuilder, Reg};
use paradet::ooo::{ArmedFault, FaultKind, FaultTarget};
use proptest::prelude::*;
use std::sync::Arc;

/// One random ALU op in the kernel body: `(op, rd, rs1, rs2)` over the
/// scratch registers x10–x13.
type BodyOp = (AluOp, usize, usize, usize);

fn arb_body_op() -> impl Strategy<Value = BodyOp> {
    (
        prop_oneof![
            Just(AluOp::Add),
            Just(AluOp::Sub),
            Just(AluOp::Xor),
            Just(AluOp::Sll),
            Just(AluOp::Mul),
            Just(AluOp::Slt),
        ],
        10usize..14,
        10usize..14,
        10usize..14,
    )
}

/// A random store loop: per iteration it loads two words, folds a random
/// dataflow over x10–x13 and the cycle counter into them (so any timing
/// difference reaches memory), stores them back, takes a branch on the
/// result's low bit (so predictor state matters) and calls a leaf
/// function (so the return-address stack is live). Each run of eight
/// consecutive iterations touches eight lines 16 KiB apart that share one
/// L1D set, so lines are evicted and LRU state matters too.
fn random_kernel(iters: i64, seeds: &[u64], body: &[BodyOp]) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(8 * 2048);
    let data = b.alloc_u64s(seeds);
    let leaf = b.new_label();
    let start = b.new_label();
    b.j(start);
    b.bind(leaf);
    b.addi(Reg::X13, Reg::X13, 3);
    b.ret(Reg::X1);
    b.bind(start);
    b.li(Reg::X7, buf as i64);
    b.li(Reg::X31, data as i64);
    for i in 0..seeds.len() {
        b.ld(Reg::from_index(10 + i), Reg::X31, (i * 8) as i64);
    }
    b.li(Reg::X2, 0);
    b.li(Reg::X3, iters);
    let top = b.label_here();
    let skip = b.new_label();
    // x5 = buf + (i & 7) * 16 KiB + ((i >> 3) & 63) * 64
    b.op_imm(AluOp::And, Reg::X5, Reg::X2, 7);
    b.op_imm(AluOp::Sll, Reg::X5, Reg::X5, 14);
    b.op_imm(AluOp::Srl, Reg::X9, Reg::X2, 3);
    b.op_imm(AluOp::And, Reg::X9, Reg::X9, 63);
    b.op_imm(AluOp::Sll, Reg::X9, Reg::X9, 6);
    b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X9);
    b.op(AluOp::Add, Reg::X5, Reg::X5, Reg::X7);
    b.ld(Reg::X6, Reg::X5, 0);
    b.ld(Reg::X14, Reg::X5, 8);
    for &(op, rd, rs1, rs2) in body {
        b.op(op, Reg::from_index(rd), Reg::from_index(rs1), Reg::from_index(rs2));
    }
    b.op(AluOp::Add, Reg::X6, Reg::X6, Reg::X10);
    b.rdcycle(Reg::X8);
    b.op(AluOp::Xor, Reg::X6, Reg::X6, Reg::X8);
    b.op(AluOp::Add, Reg::X14, Reg::X14, Reg::X11);
    b.sd(Reg::X6, Reg::X5, 0);
    b.sd(Reg::X14, Reg::X5, 8);
    b.op_imm(AluOp::And, Reg::X9, Reg::X6, 1);
    b.beq(Reg::X9, Reg::X0, skip);
    b.addi(Reg::X12, Reg::X12, 1);
    b.bind(skip);
    b.jal_to(Reg::X1, leaf);
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt(Reg::X2, Reg::X3, top);
    b.halt();
    Arc::new(b.build())
}

fn arb_kernel() -> impl Strategy<Value = Arc<Program>> {
    (
        60i64..140,
        proptest::collection::vec(any::<u64>(), 4),
        proptest::collection::vec(arb_body_op(), 0..5),
    )
        .prop_map(|(iters, seeds, body)| random_kernel(iters, &seeds, &body))
}

/// Farm and log geometries: width, log size and the seal timeout move
/// segment boundaries. Small logs and short timeouts make the segment
/// ring wrap within the budget, so snapshots hold folded checks, delay
/// samples and busy segments, not just checks in flight.
fn arb_geometry() -> impl Strategy<Value = SystemConfig> {
    (
        prop_oneof![Just(2usize), Just(4), Just(12)],
        prop_oneof![Just(3_072usize), Just(12_288)],
        prop_oneof![Just(None), Just(Some(96u64))],
    )
        .prop_map(|(n, log, timeout)| {
            SystemConfig::paper_default().with_checkers(n).with_log(log, timeout)
        })
}

fn arb_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::Transient),
        (10u64..80, 2u32..4).prop_map(|(period, count)| FaultKind::Intermittent { period, count }),
        Just(FaultKind::Permanent),
    ]
}

/// Every fault of `plan` armed, as a detection-only campaign arms it.
fn arm(sys: &mut PairedSystem, plan: &TrialFaults) {
    for f in plan.strikes() {
        sys.arm_fault(f);
    }
    if let Some(a) = plan.array {
        sys.arm_array_fault(a);
    }
    if let Some((seal, entry, bit)) = plan.log_fault {
        sys.arm_log_fault(seal, entry, bit);
    }
    if plan.checker_miss {
        sys.arm_checker_miss();
    }
}

/// A clean run's snapshots every `every` instructions from the entry up
/// to `budget`, with recovery tracking on when `tracked`.
fn golden_snapshots(
    cfg: SystemConfig,
    program: &Arc<Program>,
    budget: u64,
    every: u64,
    tracked: bool,
) -> Vec<SystemSnapshot> {
    let mut sys = PairedSystem::new_shared(cfg, program);
    if tracked {
        sys.enable_recovery_tracking();
    }
    let mut snaps = vec![sys.snapshot()];
    while sys.instrs() + every < budget && sys.advance(every) == every {
        snaps.push(sys.snapshot());
    }
    snaps
}

/// Everything a run leaves behind: the report, final state and memory.
fn outcome(sys: PairedSystem, report: RunReport) -> String {
    let mem = sys.hier().data.diff_from_image(sys.core().program());
    let state = sys.core().committed_state().clone();
    let out = format!("{report:?}\n{state:?}\n{mem:?}");
    sys.recycle_into(&mut SimScratch::new());
    out
}

fn recovery_fields(r: &RecoveryReport, program: &Program) -> String {
    format!(
        "{:?} {} {} {} {} {} {} {:?} {:?}",
        r.disposition,
        r.retries,
        r.detected,
        r.halted,
        r.crashed,
        r.detect_fs,
        r.recovery_fs,
        r.final_state,
        r.final_mem.diff_from_image(program)
    )
}

/// Detection-system variants the split and snapshot identities must hold
/// across: full detection, checkpoint-only, secondary clock domains, and
/// a mixed farm under a dynamic policy (whose folds drain at seals).
fn arb_mode() -> impl Strategy<Value = SystemConfig> {
    let base = SystemConfig::paper_default().with_checkers(4).with_log(3_072, Some(96));
    prop_oneof![
        Just(base),
        Just(base.with_mode(DetectionMode::CheckpointOnly)),
        Just(base.with_extra_domains(DomainSet::from_mhz(&[250, 2000]))),
        Just(
            base.with_farm(FarmSpec::striped(&[2000, 500]))
                .with_sched_policy(SchedPolicyKind::DeadlineAware)
        ),
    ]
}

proptest! {
    /// `advance` split at random points, with a snapshot taken at every
    /// split, then finished, equals one `run` — and so does a run resumed
    /// from any of those snapshots.
    #[test]
    fn split_advance_with_snapshots_equals_one_run(
        program in arb_kernel(),
        cfg in arb_mode(),
        chunks in proptest::collection::vec(1u64..700, 1..8),
        budget in 500u64..2_500,
        pick in any::<usize>(),
    ) {
        let mut whole = PairedSystem::new_shared(cfg, &program);
        let report = whole.run(budget);
        let expected = outcome(whole, report);

        let mut split = PairedSystem::new_shared(cfg, &program);
        let mut snaps = Vec::new();
        for &c in &chunks {
            split.advance(c.min(budget - split.instrs()));
            snaps.push(split.snapshot());
        }
        split.advance(budget - split.instrs());
        let report = split.finalize();
        prop_assert_eq!(outcome(split, report), expected.clone());

        let snap = &snaps[pick % snaps.len()];
        let mut resumed = PairedSystem::from_snapshot(snap, &mut SimScratch::new());
        let report = resumed.run(budget - snap.instrs());
        prop_assert_eq!(outcome(resumed, report), expected, "resumed from {}", snap.instrs());
    }

    /// Recovery tracking is bookkeeping only: with a fault armed or not,
    /// the run reports the same.
    #[test]
    fn recovery_tracking_leaves_the_report_unchanged(
        program in arb_kernel(),
        cfg in arb_geometry(),
        at in 1u64..1_500,
        bit in 0u8..64,
        faulty in any::<bool>(),
    ) {
        let run = |tracked: bool| {
            let mut sys = PairedSystem::new_shared(cfg, &program);
            if tracked {
                sys.enable_recovery_tracking();
            }
            if faulty {
                sys.arm_fault(ArmedFault::new(at, FaultTarget::StoreValueBit { bit }));
            }
            let report = sys.run(2_000);
            outcome(sys, report)
        };
        prop_assert_eq!(run(true), run(false));
    }

    /// Invariant 13: a trial resumed from the latest snapshot its plan
    /// allows equals the trial run from scratch — for plans from every
    /// site class and every fault kind, detection-only and under recovery.
    /// A detection trial ended at its first error, as campaigns run it,
    /// reports the same first error (invariant 14).
    #[test]
    fn trials_from_snapshots_equal_trials_from_scratch(
        program in arb_kernel(),
        cfg in arb_geometry(),
        every in prop_oneof![Just(37u64), Just(150), Just(400), Just(1_000)],
        site_idx in 0usize..13,
        trial in 0u64..1_000,
        seed in any::<u64>(),
        kind in arb_kind(),
        recover in any::<bool>(),
    ) {
        let site = FaultSite::extended()[site_idx];
        let budget = 2_000;
        let plan = trial_plan(seed, site, trial, budget, kind);
        let snaps = golden_snapshots(cfg, &program, budget, every, recover);
        let limit = plan.clean_prefix();
        let snap = snaps.iter().rev().find(|s| s.instrs() <= limit).expect("entry snapshot");
        let mut scratch = SimScratch::new();
        if recover {
            let policy = RecoveryPolicy::default();
            let fresh = run_recovery(&cfg, &program, &mut scratch, budget, &plan, &policy);
            let resumed =
                run_recovery_from(&cfg, &program, &mut scratch, budget, &plan, &policy, Some(snap));
            prop_assert_eq!(
                recovery_fields(&resumed, &program),
                recovery_fields(&fresh, &program),
                "{:?} {:?} from {}", site, kind, snap.instrs()
            );
        } else {
            let mut fresh = PairedSystem::new_shared(cfg, &program);
            arm(&mut fresh, &plan);
            let report = fresh.run(budget);
            let first_error = report.first_error().cloned();
            let expected = outcome(fresh, report);
            let mut resumed = PairedSystem::from_snapshot(snap, &mut scratch);
            arm(&mut resumed, &plan);
            let report = resumed.run(budget - snap.instrs());
            prop_assert_eq!(outcome(resumed, report), expected.clone(),
                "{:?} {:?} from {}", site, kind, snap.instrs());

            // Invariant 14: a resumed trial ended at its first error reports
            // the full run's first error; with none it runs the whole budget.
            let mut early = PairedSystem::from_snapshot(snap, &mut scratch);
            arm(&mut early, &plan);
            early.advance_until_error(budget - snap.instrs());
            let report = early.finalize();
            prop_assert_eq!(report.first_error(), first_error.as_ref(),
                "{:?} {:?} from {}", site, kind, snap.instrs());
            if first_error.is_none() {
                prop_assert_eq!(outcome(early, report), expected);
            }
        }
    }
}
