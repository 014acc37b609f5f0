//! One-run clock-domain sweeps vs dedicated single-clock runs.
//!
//! The tentpole invariant: a run carrying a `DomainSet` of secondary
//! checker clocks produces, per domain, results **bit-identical** to a
//! dedicated run at that clock — delays, store delays, per-seal finish
//! times, errors and checker statistics — whenever the domain reports zero
//! stall divergences; and the primary domain's results are bit-identical
//! to a plain run with no domain set at all.

use paradet::checker::{CheckerStats, DomainSet};
use paradet::detect::{DelayStats, DetectedError, PairedSystem, RunReport, SystemConfig};
use paradet::isa::{AluOp, Program, ProgramBuilder, Reg};
use paradet::mem::Time;
use paradet::workloads::Workload;
use proptest::prelude::*;
use std::sync::Arc;

/// The Fig. 9/11 sweep points.
const CLOCKS: [u64; 5] = [125, 250, 500, 1000, 2000];

/// Renders one domain's complete observable state into a comparable
/// string.
fn domain_fingerprint(
    delays: &DelayStats,
    store_delays: &DelayStats,
    finishes: &[Time],
    errors: &[DetectedError],
    checkers: &[CheckerStats],
) -> String {
    format!("{delays:?}|{store_delays:?}|{finishes:?}|{errors:?}|{checkers:?}")
}

/// Runs `program` once per clock, each a dedicated single-clock system,
/// and returns each run's fingerprint plus main-core cycles.
fn dedicated_sweeps(
    base: SystemConfig,
    program: &Arc<Program>,
    max_instrs: u64,
) -> Vec<(String, u64)> {
    CLOCKS
        .iter()
        .map(|&mhz| {
            let mut sys = PairedSystem::new_shared(base.with_checker_mhz(mhz), program);
            let rep = sys.run(max_instrs);
            let checkers: Vec<CheckerStats> =
                sys.detector().checkers.iter().map(|c| c.stats).collect();
            (
                domain_fingerprint(
                    &rep.delays,
                    &rep.store_delays,
                    sys.detector().finish_times(),
                    &rep.errors,
                    &checkers,
                ),
                rep.main_cycles,
            )
        })
        .collect()
}

/// Runs the one-run sweep (primary at 1000 MHz + all five clocks as
/// secondary domains, so every sweep point has a domain row) and returns
/// the report plus the primary's checker stats.
fn one_run_sweep(
    base: SystemConfig,
    program: &Arc<Program>,
    max_instrs: u64,
) -> (RunReport, String) {
    let cfg = base.with_extra_domains(DomainSet::from_mhz(&CLOCKS));
    let mut sys = PairedSystem::new_shared(cfg, program);
    let rep = sys.run(max_instrs);
    let checkers: Vec<CheckerStats> = sys.detector().checkers.iter().map(|c| c.stats).collect();
    let primary = domain_fingerprint(
        &rep.delays,
        &rep.store_delays,
        sys.detector().finish_times(),
        &rep.errors,
        &checkers,
    );
    (rep, primary)
}

/// Asserts the one-run sweep reproduces every dedicated run bit for bit
/// (given zero stall divergences), and that the primary domain is
/// unaffected by carrying the domain set.
fn assert_sweep_identity(base: SystemConfig, program: &Arc<Program>, max_instrs: u64) {
    let dedicated = dedicated_sweeps(base, program, max_instrs);
    let (rep, primary_fp) = one_run_sweep(base, program, max_instrs);

    // Primary invariance: the same run without any domain set.
    let mut plain = PairedSystem::new_shared(base, program);
    let plain_rep = plain.run(max_instrs);
    let plain_checkers: Vec<CheckerStats> =
        plain.detector().checkers.iter().map(|c| c.stats).collect();
    let plain_fp = domain_fingerprint(
        &plain_rep.delays,
        &plain_rep.store_delays,
        plain.detector().finish_times(),
        &plain_rep.errors,
        &plain_checkers,
    );
    assert_eq!(primary_fp, plain_fp, "secondary domains perturbed the primary run");
    assert_eq!(rep.main_cycles, plain_rep.main_cycles);

    assert_eq!(rep.domains.len(), CLOCKS.len());
    for ((d, (ded_fp, ded_cycles)), &mhz) in rep.domains.iter().zip(&dedicated).zip(&CLOCKS) {
        assert_eq!(d.domain.mhz(), mhz);
        assert_eq!(
            d.stall_divergences, 0,
            "{mhz} MHz domain diverged — pick a larger log or shorter run for this test"
        );
        let fp =
            domain_fingerprint(&d.delays, &d.store_delays, &d.finishes, &d.errors, &d.checkers);
        assert_eq!(&fp, ded_fp, "{mhz} MHz domain row != dedicated {mhz} MHz run");
        // Zero divergences also certify the dedicated run's main-core
        // timeline equalled the primary's.
        assert_eq!(*ded_cycles, rep.main_cycles, "{mhz} MHz dedicated run stalled differently");
    }
}

#[test]
fn one_run_sweep_matches_dedicated_runs_per_workload() {
    for w in [Workload::Bitcount, Workload::Stream, Workload::Randacc, Workload::Swaptions] {
        let program = Arc::new(w.build(w.iters_for_instrs(3_000)));
        assert_sweep_identity(SystemConfig::paper_default(), &program, 3_000);
    }
}

/// Mixed-speed farms × recovery (invariant 9 under the mixed-farm axis):
/// a strike detected by the checker farm on a *mixed* farm still drives
/// rollback + re-execution to a final architectural state bit-identical
/// to the fault-free golden run, under every scheduling policy. Under
/// round-robin the first sealed segment — where the early strike lands —
/// is pinned to slot 0, the slow 125 MHz class, so the flagging checker
/// is a genuinely slow slot at least once.
#[test]
fn mixed_farm_recovery_is_golden_under_every_policy() {
    use paradet::detect::{
        run_recovery, FarmSpec, RecoveryDisposition, RecoveryPolicy, SchedPolicyKind, SimScratch,
        TrialFaults,
    };
    use paradet::isa::{ArchState, FlatMemory, NoNondet};
    use paradet::ooo::{ArmedFault, FaultKind, FaultTarget};

    let w = Workload::Stream;
    let program = Arc::new(w.build(w.iters_for_instrs(6_000)));
    let mut gstate = ArchState::at_entry(&program);
    let mut gmem = FlatMemory::new();
    gmem.load_image(&program);
    while !gstate.halted {
        gstate.step(&program, &mut gmem, &mut NoNondet).expect("golden run crashed");
    }
    let faults = TrialFaults {
        kind: FaultKind::Transient,
        core: vec![ArmedFault::new(40, FaultTarget::StoreValueBit { bit: 7 })],
        ..TrialFaults::default()
    };
    for &policy in SchedPolicyKind::ALL.iter() {
        let cfg = SystemConfig::paper_default()
            .with_farm(FarmSpec::striped(&[125, 1000]))
            .with_sched_policy(policy);
        let mut scratch = SimScratch::new();
        let r =
            run_recovery(&cfg, &program, &mut scratch, 60_000, &faults, &RecoveryPolicy::default());
        assert!(r.detected, "{policy:?}: the store-value strike must be detected");
        assert_eq!(
            r.disposition,
            RecoveryDisposition::Recovered,
            "{policy:?}: a detected transient must be repaired"
        );
        assert!(r.halted && !r.crashed, "{policy:?}");
        assert_eq!(&r.final_state, &gstate, "{policy:?}: state ≡ fault-free golden");
        assert_eq!(r.final_mem.first_difference(&gmem), None, "{policy:?}: memory ≡ golden");
    }
}

/// A loopy kernel with loads, stores and arithmetic (mirrors the farm
/// determinism proptest's generator).
fn sweep_kernel(seeds: &[u64], ops: &[(AluOp, usize, usize)], iters: u64) -> Program {
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

proptest! {
    /// Random kernels × geometries: wherever a domain reports zero stall
    /// divergences, its one-run row is bit-identical to a dedicated run at
    /// that clock; and the primary is always bit-identical to the
    /// domain-free run. Small logs and low clocks make
    /// wrap-around stalls (and so genuine divergences) reachable — the
    /// counter's soundness is the property, not their absence.
    #[test]
    fn domain_rows_are_exact_when_undiverged(
        seeds in proptest::collection::vec(any::<u64>(), 4..9),
        ops in proptest::collection::vec(
            (prop_oneof![
                Just(AluOp::Add), Just(AluOp::Sub), Just(AluOp::Xor), Just(AluOp::Mul),
            ], 0usize..16, 0usize..16),
            1..6,
        ),
        iters in 8u64..50,
        n_checkers in 1usize..5,
        log_sel in 0usize..3,
        timeout_sel in 0usize..3,
    ) {
        let program = Arc::new(sweep_kernel(&seeds, &ops, iters));
        let (log_bytes, timeout) =
            ([1024, 4096, 16384][log_sel], [None, Some(64), Some(400)][timeout_sel]);
        let base = SystemConfig::paper_default()
            .with_checkers(n_checkers)
            .with_log(log_bytes, timeout);
        let dedicated = dedicated_sweeps(base, &program, 1_500);
        let (rep, primary_fp) = one_run_sweep(base, &program, 1_500);

        // Primary invariance holds unconditionally.
        let mut plain = PairedSystem::new_shared(base, &program);
        let plain_rep = plain.run(1_500);
        let plain_checkers: Vec<CheckerStats> =
            plain.detector().checkers.iter().map(|c| c.stats).collect();
        let plain_fp = domain_fingerprint(
            &plain_rep.delays,
            &plain_rep.store_delays,
            plain.detector().finish_times(),
            &plain_rep.errors,
            &plain_checkers,
        );
        prop_assert_eq!(&primary_fp, &plain_fp, "primary perturbed by domain set");

        // Soundness of the divergence certificate, per domain.
        for (d, (ded_fp, ded_cycles)) in rep.domains.iter().zip(&dedicated) {
            if d.stall_divergences == 0 {
                let fp = domain_fingerprint(
                    &d.delays, &d.store_delays, &d.finishes, &d.errors, &d.checkers,
                );
                prop_assert_eq!(&fp, ded_fp,
                    "undiverged {} MHz domain != dedicated run", d.domain.mhz());
                prop_assert_eq!(*ded_cycles, rep.main_cycles);
            }
        }
    }
}
