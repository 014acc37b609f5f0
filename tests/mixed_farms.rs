//! Mixed-speed checker farms under pluggable scheduling policies.
//!
//! The tentpole invariants:
//!
//! * **Invariant 11**: the homogeneous farm under round-robin — whether
//!   spelled as the plain default, an explicit `FarmSpec::uniform()`, or a
//!   single-class striped farm at the primary clock — reproduces the
//!   fixed-ring results bit for bit.
//! * Scheduling is a **pure function** of (kernel, config, geometry): the
//!   per-seal assignment trace is reproducible run over run.

use paradet::detect::{FarmSpec, PairedSystem, SchedPolicyKind, SystemConfig};
use paradet::isa::{AluOp, Program, ProgramBuilder, Reg};
use paradet::workloads::Workload;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs `program` once under `cfg` and renders every observable the farm
/// can influence — the full report, per-seal finish times, per-checker
/// statistics, and the scheduler's per-seal assignment trace — into one
/// comparable string.
fn run_fingerprint(cfg: SystemConfig, program: &Arc<Program>, max_instrs: u64) -> String {
    let mut sys = PairedSystem::new_shared(cfg, program);
    let rep = sys.run(max_instrs);
    let det = sys.detector();
    let checkers: Vec<_> = det.checkers.iter().map(|c| c.stats).collect();
    format!("{rep:?}|{:?}|{checkers:?}|{:?}", det.finish_times(), det.assignments())
}

/// A loopy kernel with loads, stores and arithmetic (mirrors the farm
/// determinism proptest's generator in `tests/clock_domains.rs`).
fn farm_kernel(seeds: &[u64], ops: &[(AluOp, usize, usize)], iters: u64) -> Program {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_u64s(seeds);
    b.li(Reg::X1, buf as i64);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, iters as i64);
    let top = b.label_here();
    for (i, &(op, ld_slot, st_slot)) in ops.iter().enumerate() {
        let dst = Reg::from_index(4 + (i % 4));
        b.ld(dst, Reg::X1, ((ld_slot % seeds.len()) * 8) as i64);
        b.op(op, Reg::X8, dst, Reg::X2);
        b.sd(Reg::X8, Reg::X1, ((st_slot % seeds.len()) * 8) as i64);
    }
    b.addi(Reg::X2, Reg::X2, 1);
    b.blt(Reg::X2, Reg::X3, top);
    b.halt();
    b.build()
}

/// Invariant 11, pinned on real workloads: the homogeneous farm under
/// round-robin is the PR 4 fixed ring, however it is spelled. Every
/// spelling folds through the detector's per-class path and
/// `checker_ifetch_cycle_on`; the uniform default is one class at
/// `SystemConfig::checker`, and a `striped(&[1000])` farm must derive the
/// same class — the same clock, checker configuration and cold path — so
/// the results must not move.
#[test]
fn uniform_round_robin_reproduces_the_fixed_ring() {
    for w in [Workload::Bitcount, Workload::Stream, Workload::Randacc] {
        let program = Arc::new(w.build(w.iters_for_instrs(3_000)));
        let base = SystemConfig::paper_default();
        let plain = run_fingerprint(base, &program, 3_000);
        let explicit = run_fingerprint(
            base.with_farm(FarmSpec::uniform()).with_sched_policy(SchedPolicyKind::RoundRobin),
            &program,
            3_000,
        );
        assert_eq!(plain, explicit, "{}: explicit uniform round-robin != plain default", w.name());
        let one_class =
            run_fingerprint(base.with_farm(FarmSpec::striped(&[1000])), &program, 3_000);
        assert_eq!(
            plain,
            one_class,
            "{}: single-class 1000 MHz striped farm != plain default",
            w.name()
        );
    }
}

fn arb_clocks() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![Just(125u64), Just(250), Just(500), Just(1000), Just(2000)],
        1..4,
    )
}

proptest! {
    /// Random kernels × geometries × per-slot speed assignments × policies:
    /// every policy's results and its scheduling (the per-seal assignment
    /// trace, folded into the fingerprint) are a pure function of (kernel,
    /// config, geometry) — a repeat run reproduces them exactly.
    #[test]
    fn every_policy_is_width_invariant_and_pure(
        seeds in proptest::collection::vec(any::<u64>(), 4..9),
        ops in proptest::collection::vec(
            (prop_oneof![
                Just(AluOp::Add), Just(AluOp::Sub), Just(AluOp::Xor), Just(AluOp::Mul),
            ], 0usize..16, 0usize..16),
            1..6,
        ),
        iters in 8u64..50,
        clocks in arb_clocks(),
        pattern_seed in any::<u64>(),
        n_checkers in 1usize..7,
        log_sel in 0usize..3,
        timeout_sel in 0usize..3,
    ) {
        let program = Arc::new(farm_kernel(&seeds, &ops, iters));
        // A deterministic pseudo-random tiling over the drawn classes, so
        // the pattern axis is exercised beyond plain striping.
        let pattern: Vec<u8> = (0..4u64)
            .map(|i| ((pattern_seed >> (i * 8)) as usize % clocks.len()) as u8)
            .collect();
        let farm = FarmSpec::striped(&clocks).with_pattern(&pattern);
        let (log_bytes, timeout) =
            ([1024, 4096, 16384][log_sel], [None, Some(64), Some(400)][timeout_sel]);
        let base = SystemConfig::paper_default()
            .with_checkers(n_checkers)
            .with_log(log_bytes, timeout)
            .with_farm(farm);
        for &policy in SchedPolicyKind::ALL.iter() {
            let cfg = base.with_sched_policy(policy);
            let first = run_fingerprint(cfg, &program, 1_500);
            let again = run_fingerprint(cfg, &program, 1_500);
            prop_assert_eq!(&first, &again,
                "{:?} is not a pure function of (kernel, config)", policy);
        }
    }

    /// Invariant 11 over random kernels and geometries: uniform-speed
    /// round-robin — explicit or as a single-class striped farm at the
    /// primary checker clock — reproduces the plain fixed-ring run bit
    /// for bit.
    #[test]
    fn uniform_round_robin_matches_fixed_ring_on_random_kernels(
        seeds in proptest::collection::vec(any::<u64>(), 4..9),
        ops in proptest::collection::vec(
            (prop_oneof![
                Just(AluOp::Add), Just(AluOp::Sub), Just(AluOp::Xor), Just(AluOp::Mul),
            ], 0usize..16, 0usize..16),
            1..6,
        ),
        iters in 8u64..50,
        n_checkers in 1usize..7,
        log_sel in 0usize..3,
    ) {
        let program = Arc::new(farm_kernel(&seeds, &ops, iters));
        let base = SystemConfig::paper_default()
            .with_checkers(n_checkers)
            .with_log([1024, 4096, 16384][log_sel], None);
        let plain = run_fingerprint(base, &program, 1_500);
        let explicit = run_fingerprint(
            base.with_farm(FarmSpec::uniform())
                .with_sched_policy(SchedPolicyKind::RoundRobin),
            &program,
            1_500,
        );
        prop_assert_eq!(&plain, &explicit, "explicit uniform round-robin moved");
        let one_class =
            run_fingerprint(base.with_farm(FarmSpec::striped(&[1000])), &program, 1_500);
        prop_assert_eq!(&plain, &one_class, "single-class striped farm moved");
    }
}
