//! Serial-vs-parallel determinism: the experiment pipeline must produce
//! bit-identical results at any thread count.
//!
//! Thread counts are pinned with `paradet::par::with_threads` (a scoped,
//! thread-local override) rather than the `PARADET_THREADS` environment
//! variable, so these tests cannot race with each other over process state.

use paradet::detect::{PairedSystem, SystemConfig};
use paradet::faults::{
    run_campaign, run_overdetection_trials, trial_fault, trial_seed, CampaignConfig, FaultSite,
};
use paradet::isa::{AluOp, Program, ProgramBuilder, Reg};
use paradet::ooo::{ArmedFault, FaultTarget};
use paradet::par::with_threads;
use paradet_bench::experiments::fig07_slowdown;
use paradet_bench::runner::Runner;
use proptest::prelude::*;
use std::sync::Arc;

fn small_campaign_cfg() -> CampaignConfig {
    CampaignConfig {
        instrs: 3_000,
        trials_per_site: 4,
        sites: vec![FaultSite::IntReg, FaultSite::StoreValue, FaultSite::Pc],
        ..CampaignConfig::default()
    }
}

/// `run_campaign` at 1 and 8 threads: identical trials (site, fault,
/// outcome, latency) and identical per-site aggregates, bit for bit.
#[test]
fn campaign_is_bit_identical_across_thread_counts() {
    let cfg = small_campaign_cfg();
    let serial = with_threads(1, || run_campaign(&cfg));
    let parallel = with_threads(8, || run_campaign(&cfg));
    assert_eq!(serial.trials.len(), parallel.trials.len());
    for (a, b) in serial.trials.iter().zip(parallel.trials.iter()) {
        assert_eq!(a.site, b.site);
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.detect_latency, b.detect_latency);
    }
    // Full structural identity, aggregates included.
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}

/// Over-detection trials: same false-positive count at any thread count.
#[test]
fn overdetection_is_bit_identical_across_thread_counts() {
    let cfg = CampaignConfig { instrs: 3_000, ..CampaignConfig::default() };
    let serial = with_threads(1, || run_overdetection_trials(&cfg, 6));
    let parallel = with_threads(8, || run_overdetection_trials(&cfg, 6));
    assert_eq!(serial, parallel);
}

/// A representative sweep (Fig. 7 over all nine workloads, baseline cache
/// included) produces identical CSV bytes at 1 and 8 threads.
#[test]
fn sweep_csv_bytes_are_identical_across_thread_counts() {
    let csv_at = |threads: usize, path: &std::path::Path| {
        let table = with_threads(threads, || fig07_slowdown(&Runner::with_instrs(2_000)));
        table.write_csv(path).expect("write sweep CSV");
        std::fs::read(path).expect("read sweep CSV back")
    };
    let dir = std::env::temp_dir();
    let serial = csv_at(1, &dir.join("paradet_fig07_t1.csv"));
    let parallel = csv_at(8, &dir.join("paradet_fig07_t8.csv"));
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel, "CSV bytes differ between 1 and 8 threads");
}

/// Reordering or subsetting the site list never changes the fault any
/// surviving (site, trial) pair draws — campaign-level check of the
/// per-trial seeding contract.
#[test]
fn site_reordering_preserves_per_trial_faults() {
    let forward = small_campaign_cfg();
    let mut reversed = small_campaign_cfg();
    reversed.sites.reverse();
    let a = run_campaign(&forward);
    let b = run_campaign(&reversed);
    for ta in &a.trials {
        // Match by (site, position-within-site): trials are site-major.
        let matching: Vec<_> = b.trials.iter().filter(|tb| tb.site == ta.site).collect();
        let pos = a.trials.iter().filter(|t| t.site == ta.site).position(|t| std::ptr::eq(t, ta));
        let tb = matching[pos.unwrap()];
        assert_eq!(ta.fault, tb.fault, "fault for {:?} changed with site order", ta.site);
        assert_eq!(ta.outcome, tb.outcome);
    }
}

// ---------------------------------------------------------------------------
// Event-driven cycle skipping: the skip path (OooConfig::event_skip, the
// default) must be bit-identical to the exhaustive tick path on ANY
// input — reports, finish times, checker stats, per-domain rows. The only
// permitted difference is the `cycles_skipped` accounting itself, which the
// tick path deliberately leaves at zero; fingerprints below zero it out on
// both sides before comparing.
// ---------------------------------------------------------------------------

/// A loopy kernel with loads, stores, random arithmetic and (optionally) a
/// non-deterministic `rdcycle`, parameterized enough to hit space seals,
/// timeout seals, wrap-around stalls and divergent replays.
fn farm_kernel(seeds: &[u64], ops: &[(AluOp, usize, usize)], iters: u64, rdcycle: bool) -> Program {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_u64s(seeds);
    b.li(Reg::X1, buf as i64);
    b.li(Reg::X2, 0);
    b.li(Reg::X3, iters as i64);
    let top = b.label_here();
    if rdcycle {
        // Timing-visible value through the log: any timing divergence
        // between the skip and tick paths would cascade into a functional
        // mismatch.
        b.rdcycle(Reg::X10);
    }
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

/// Runs `program` under `cfg` (with an optional main-core fault and an
/// optional detector log fault armed) and renders everything observable —
/// the full run report, per-seal finish times, and per-checker stats —
/// into one comparable string, with `cycles_skipped` normalized to zero and
/// returned beside it (the one field that legitimately differs between the
/// skip and tick paths).
fn run_fingerprint(
    cfg: SystemConfig,
    program: &Arc<Program>,
    fault: Option<ArmedFault>,
    log_fault: Option<(u64, usize, u8)>,
    max_instrs: u64,
) -> (String, u64) {
    let mut sys = PairedSystem::new_shared(cfg, program);
    if let Some(f) = fault {
        sys.arm_fault(f);
    }
    if let Some((seq, entry, bit)) = log_fault {
        sys.arm_log_fault(seq, entry, bit);
    }
    let mut report = sys.run(max_instrs);
    let skipped = report.core.cycles_skipped;
    report.core.cycles_skipped = 0;
    let fp = format!(
        "{report:?}|finishes={:?}|checkers={:?}",
        sys.detector().finish_times(),
        sys.detector().checkers
    );
    (fp, skipped)
}

fn farm_sweep_config() -> SystemConfig {
    // Small log + few checkers: seals and wrap-around stalls every few
    // dozen instructions, so the lazy join fires constantly.
    let mut cfg = SystemConfig::paper_default().with_checkers(3).with_log(1024, Some(64));
    cfg = cfg.with_checker_mhz(250);
    cfg
}

/// Skip vs tick over real workloads, including the stall-heavy small-log
/// config whose wrap-around retries are exactly the jumps being skipped.
#[test]
fn event_skip_matches_exhaustive_tick_on_workloads() {
    use paradet::workloads::Workload;
    for (w, cfg) in [
        (Workload::Stream, SystemConfig::paper_default()),
        (Workload::Randacc, SystemConfig::paper_default()),
        (Workload::Swaptions, farm_sweep_config()),
    ] {
        let program = Arc::new(w.build(w.iters_for_instrs(5_000)));
        let (skip, skipped) =
            run_fingerprint(cfg.with_event_skip(true), &program, None, None, 5_000);
        let (tick, tick_skipped) =
            run_fingerprint(cfg.with_event_skip(false), &program, None, None, 5_000);
        assert_eq!(skip, tick, "skip diverged from tick on {}", w.name());
        assert_eq!(tick_skipped, 0, "the tick path must account no skipped cycles");
        assert!(skipped > 0, "{} skipped no cycles — the skip path never engaged", w.name());
    }
}

/// Skip vs tick with secondary clock domains swept in the run: the
/// per-domain rows (delays, finishes, errors, divergence counters) ride the
/// report fingerprint and must agree too.
#[test]
fn event_skip_matches_tick_with_clock_domains() {
    use paradet::detect::DomainSet;
    let w = paradet::workloads::Workload::Swaptions;
    let program = Arc::new(w.build(w.iters_for_instrs(5_000)));
    let cfg = SystemConfig::paper_default().with_extra_domains(DomainSet::from_mhz(&[250, 2000]));
    let (skip, _) = run_fingerprint(cfg.with_event_skip(true), &program, None, None, 5_000);
    let (tick, _) = run_fingerprint(cfg.with_event_skip(false), &program, None, None, 5_000);
    assert_eq!(skip, tick, "skip diverged from tick on a clock-domain run");
}

proptest! {
    /// Random kernels × random geometries × random faults: event-driven
    /// cycle skipping is invisible — the skip and tick paths agree bit for
    /// bit on the full fingerprint (report, finish times, checker stats),
    /// clock domains included.
    #[test]
    fn event_skip_is_bit_identical(
        seeds in proptest::collection::vec(any::<u64>(), 4..9),
        ops in proptest::collection::vec(
            (prop_oneof![
                Just(AluOp::Add), Just(AluOp::Sub), Just(AluOp::Xor),
                Just(AluOp::Mul), Just(AluOp::Div), Just(AluOp::Sll),
            ], 0usize..16, 0usize..16),
            1..8,
        ),
        iters in 8u64..60,
        rdcycle in any::<bool>(),
        n_checkers in 1usize..5,
        mhz_sel in 0usize..3,
        log_sel in 0usize..3,
        timeout_sel in 0usize..3,
        domains_sel in 0usize..3,
        fault_sel in 0usize..4,
        fault_instr in 1u64..400,
        fault_bit in 0u8..64,
    ) {
        use paradet::detect::DomainSet;
        let program = Arc::new(farm_kernel(&seeds, &ops, iters, rdcycle));
        let mhz = [250, 500, 1000][mhz_sel];
        let (log_bytes, timeout) =
            ([512, 1024, 8192][log_sel], [None, Some(48), Some(400)][timeout_sel]);
        let domains = [
            DomainSet::new(),
            DomainSet::from_mhz(&[500]),
            DomainSet::from_mhz(&[125, 2000]),
        ][domains_sel];
        let cfg = SystemConfig::paper_default()
            .with_checkers(n_checkers)
            .with_checker_mhz(mhz)
            .with_log(log_bytes, timeout)
            .with_extra_domains(domains);
        let fault = match fault_sel {
            1 => Some(ArmedFault::new(
                fault_instr,
                FaultTarget::IntRegBit { reg: Reg::X8, bit: fault_bit },
            )),
            2 => Some(ArmedFault::new(
                fault_instr,
                FaultTarget::PcBit { bit: 2 + (fault_bit % 8) },
            )),
            _ => None,
        };
        let log_fault =
            if fault_sel == 3 { Some((fault_instr % 4, fault_bit as usize, fault_bit)) } else { None };

        let (skip, _) = run_fingerprint(
            cfg.with_event_skip(true), &program, fault, log_fault, 2_000);
        let (tick, tick_skipped) = run_fingerprint(
            cfg.with_event_skip(false), &program, fault, log_fault, 2_000);
        prop_assert_eq!(&skip, &tick, "event skip changed simulated results");
        prop_assert_eq!(tick_skipped, 0);
    }
}

proptest! {
    /// Per-trial seeds are a pure function of (seed, site, trial): deriving
    /// them in any shuffled order gives the same value per pair, and the
    /// armed fault follows suit.
    #[test]
    fn trial_seeding_is_stable_under_reordering(
        seed in any::<u64>(),
        site_a in 0usize..8,
        site_b in 0usize..8,
        trial_a in 0u64..10_000,
        trial_b in 0u64..10_000,
    ) {
        let sites = FaultSite::all();
        let (sa, sb) = (sites[site_a], sites[site_b]);
        // Derivation order cannot matter: compute b-then-a and a-then-b.
        let b_first = (trial_seed(seed, sb, trial_b), trial_seed(seed, sa, trial_a));
        let a_first = (trial_seed(seed, sa, trial_a), trial_seed(seed, sb, trial_b));
        prop_assert_eq!(b_first.1, a_first.0);
        prop_assert_eq!(b_first.0, a_first.1);
        // Distinct (site, trial) pairs get distinct seeds (SplitMix64
        // dispersion; a collision here would correlate two trials' faults).
        if (sa, trial_a) != (sb, trial_b) {
            prop_assert_ne!(b_first.1, b_first.0);
        }
        // And the concrete fault is reproducible from the pair alone.
        let f1 = trial_fault(seed, sa, trial_a, 3_000);
        let f2 = trial_fault(seed, sa, trial_a, 3_000);
        prop_assert_eq!(f1, f2);
    }
}
