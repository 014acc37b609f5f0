//! The `campaign` workload: the default fault campaign and a recovery
//! campaign, each run as one shard through an on-disk store and merged.

use crate::alloc::{self, AllocCount};
use crate::detect::{self, Spec};
use crate::expected;
use crate::host::HostRef;
use crate::report::{fnv1a, median, ms, rate, secs, time, Report};
use crate::store::{CountingFs, FsTally};
use paradet_core::{run_recovery, PairedSystem, RecoveryDisposition, SimScratch, TrialFaults};
use paradet_faults::{
    merge_campaign_on, merged_table, run_campaign, run_campaign_shard_on, trial_plan,
    CampaignConfig, CampaignResult, DynFs, FaultKind, Outcome, RecoveryPolicy, ShardRunOptions,
    SiteResult,
};
use paradet_stats::Mergeable;
use paradet_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replayed trials per site for the per-trial host cost.
const REPLICAS_PER_SITE: u64 = 5;

/// The two legs: the default detection-only campaign, and the same grid
/// under intermittent faults with rollback recovery.
fn legs(seed: u64) -> [(&'static str, CampaignConfig); 2] {
    let detect = CampaignConfig { seed, ..CampaignConfig::default() };
    let recover = CampaignConfig {
        fault_kind: FaultKind::Intermittent { period: 40, count: 3 },
        recovery: Some(RecoveryPolicy::default()),
        ..detect.clone()
    };
    [("detect", detect), ("recover", recover)]
}

/// Where the legs keep their stores: inside the working directory,
/// beside the build output.
fn store_root() -> PathBuf {
    PathBuf::from(".bench_build").join(format!("perfbench-store-{}", std::process::id()))
}

/// One leg run through the store.
struct Leg {
    result: CampaignResult,
    /// The merged table, rendered as `campaign-merge` prints it.
    table: String,
    trials: u64,
    /// From entering the shard run to the merged result, host-speed
    /// samples excepted.
    elapsed: Duration,
    /// From entering the shard run to the last store operation before the
    /// golden run.
    store_open: Duration,
    merge: Duration,
    tally: FsTally,
}

/// Runs one leg through a fresh store in `dir`, sampling the host's speed
/// at every checkpoint, between batches.
fn run_leg(cfg: &CampaignConfig, dir: &Path, host: &mut HostRef) -> Result<Leg, String> {
    // A leftover store from an aborted run would be refused as finished.
    let _ = std::fs::remove_dir_all(dir);
    let fs = Arc::new(CountingFs::default());
    let dyn_fs: DynFs = fs.clone();
    let opts = ShardRunOptions::default();
    let (mut checkpoints, mut sampling) = (0u64, Duration::ZERO);
    let t0 = Instant::now();
    let summary = run_campaign_shard_on(&dyn_fs, dir, cfg, &opts, |_, _| {
        checkpoints += 1;
        sampling += host.sample();
    })
    .map_err(|e| format!("shard run: {e}"))?;
    let t1 = Instant::now();
    let (manifest, result) =
        merge_campaign_on(&dyn_fs, dir, Some(cfg)).map_err(|e| format!("merge: {e}"))?;
    let t2 = Instant::now();
    let tally = fs.tally();
    std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    if summary.done != summary.total || checkpoints != summary.total.div_ceil(opts.checkpoint_every)
    {
        return Err(format!("shard ended at {summary:?} after {checkpoints} checkpoints"));
    }
    if tally.failed != 0 {
        return Err(format!("{} store operations failed", tally.failed));
    }
    Ok(Leg {
        table: merged_table(&manifest, &result).render(),
        result,
        trials: summary.total,
        elapsed: t2 - t0 - sampling,
        store_open: tally.open_end.ok_or("no checkpoint was written")? - t0,
        merge: t2 - t1,
        tally,
    })
}

/// Host time of the golden run every shard pays before its first trial,
/// taken through `run_campaign` on the same configuration with an empty
/// trial grid: the golden preparation is all that call does then.
fn golden_time(cfg: &CampaignConfig) -> Result<Duration, String> {
    let empty = CampaignConfig { trials_per_site: 0, ..cfg.clone() };
    let t = Instant::now();
    let r = run_campaign(&empty);
    let elapsed = t.elapsed();
    match r.trials.is_empty() {
        true => Ok(elapsed),
        false => Err(format!("an empty grid ran {} trials", r.trials.len())),
    }
}

/// The leg's merged result must equal the one-shot campaign bit for bit,
/// and at the recorded seed its table must match the recorded digest.
fn verify(name: &str, seed: u64, leg: &Leg, one_shot: &str) -> Result<(), String> {
    if format!("{:?}", leg.result) != one_shot {
        return Err(format!("{name}: merged result differs from the one-shot campaign"));
    }
    if seed == expected::CAMPAIGN_SEED {
        let digest = fnv1a(&leg.table);
        let recorded = expected::CAMPAIGN_TABLES.iter().find(|(n, _)| *n == name);
        if recorded.map(|&(_, d)| d) != Some(digest) {
            return Err(format!(
                "{name}: table digest differs from the recorded one; observed (\"{name}\", {digest:#018x})\n{}",
                leg.table
            ));
        }
    }
    Ok(())
}

/// Runs both legs once; `None` for a leg that failed.
fn round(
    legs: &[(&'static str, CampaignConfig); 2],
    one_shot: &[Option<String>],
    seed: u64,
    host: &mut HostRef,
    report: &mut Report,
) -> Vec<Option<Leg>> {
    legs.iter()
        .zip(one_shot)
        .map(|((name, cfg), reference)| {
            report.op(name, || {
                let leg = run_leg(cfg, &store_root().join(name), host)?;
                let reference = reference.as_deref().ok_or("no one-shot reference")?;
                verify(name, seed, &leg, reference)?;
                println!(
                    "{name:8} {} trials in {:.3} s: store open {:.3} ms, merge {:.3} ms",
                    leg.trials,
                    secs(leg.elapsed),
                    ms(leg.store_open),
                    ms(leg.merge)
                );
                Ok(leg)
            })
        })
        .collect()
}

/// One-shot campaigns, the reference each merged leg must equal. They
/// also warm the process up before anything is timed.
fn one_shot(
    legs: &[(&'static str, CampaignConfig); 2],
    report: &mut Report,
) -> Vec<Option<String>> {
    legs.iter()
        .map(|(name, cfg)| report.op(name, || Ok(format!("{:?}", run_campaign(cfg)))))
        .collect()
}

/// Golden runs timed per round.
const GOLDEN_REPS: usize = 5;

/// The golden run's host time, in seconds, once per successful repetition.
fn golden_reps(cfg: &CampaignConfig, report: &mut Report) -> Vec<f64> {
    (0..GOLDEN_REPS)
        .filter_map(|_| report.op("golden run", || golden_time(cfg)))
        .map(secs)
        .collect()
}

/// One measured round: both legs, then the golden run timed.
struct Round {
    legs: Vec<Leg>,
    /// Store open plus the golden run.
    setup: Duration,
    /// Host speed over the round, relative to the nominal host.
    speed: f64,
}

/// Rounds for `seconds` (at least three).
fn rounds(seed: u64, seconds: f64, report: &mut Report) -> Vec<Round> {
    let legs = legs(seed);
    let refs = one_shot(&legs, report);
    let mut host = HostRef::new();
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let ran: Vec<Leg> =
            round(&legs, &refs, seed, &mut host, report).into_iter().flatten().collect();
        let open: Vec<f64> = ran.iter().map(|l| secs(l.store_open)).collect();
        let setup = median(&open) + median(&golden_reps(&legs[0].1, report));
        out.push(Round {
            legs: ran,
            setup: Duration::from_secs_f64(setup),
            speed: host.take_speed(),
        });
    }
    let _ = std::fs::remove_dir_all(store_root());
    out
}

/// The untraced run: end-to-end metrics only, scaled to the nominal host
/// round by round.
pub fn run_e2e(seed: u64, seconds: f64, report: &mut Report) {
    let rounds = rounds(seed, seconds, report);
    let instrs = CampaignConfig::default().instrs as f64;
    let (mut trials_per_s, mut setup) = (Vec::new(), Vec::new());
    for r in &rounds {
        let trials: u64 = r.legs.iter().map(|l| l.trials).sum();
        let elapsed: Duration = r.legs.iter().map(|l| l.elapsed).sum();
        let raw = trials as f64 / secs(elapsed);
        println!("round: {raw:.3} trials/s on a host at {:.3}x nominal", r.speed);
        trials_per_s.push(raw / r.speed);
        setup.push(secs(r.setup) * r.speed);
    }
    println!("{} measured rounds of 2 campaign legs", rounds.len());
    let tps = rate(&trials_per_s);
    report.metric("trials_per_s", tps, "1/s");
    report.metric("minstr_per_s", tps * instrs / 1e6, "Minstr/s");
    report.metric("setup_s", time(&setup), "s");
}

/// Replays a sample of each leg's trials outside the campaign, one at a
/// time on one worker, and checks each against the merged outcome.
/// Reports the mean host time per detection and per recovery trial, and
/// the detection trials' allocations per instruction retired.
fn replicas(
    legs: &[(&'static str, CampaignConfig); 2],
    merged: [&CampaignResult; 2],
    report: &mut Report,
) {
    let (detect, recover) = (&legs[0].1, &legs[1].1);
    let program = Arc::new(detect.workload.build(detect.workload.iters_for_instrs(detect.instrs)));
    let mut scratch = SimScratch::new();
    let (mut det_time, mut rec_time, mut n) = (Duration::ZERO, Duration::ZERO, 0u32);
    let (mut allocs, mut instrs) = (AllocCount::default(), 0u64);
    for (s, &site) in detect.sites.iter().enumerate() {
        for trial in 0..REPLICAS_PER_SITE {
            let g = s * detect.trials_per_site as usize + trial as usize;
            let plan = trial_plan(detect.seed, site, trial, detect.instrs, detect.fault_kind);
            let t = Instant::now();
            let (r, a) = paradet_par::with_threads(1, || {
                alloc::count(|| {
                    let mut sys = PairedSystem::new_shared(detect.system, &program);
                    arm(&mut sys, &plan);
                    sys.run(detect.instrs)
                })
            });
            det_time += t.elapsed();
            allocs += a;
            instrs += r.instrs;
            let outcome = merged[0].trials[g].outcome;
            report.op("detection trial replica", || {
                let agrees = match outcome {
                    Outcome::Detected => r.detected(),
                    Outcome::Crashed => !r.detected() && r.crashed,
                    _ => !r.detected() && !r.crashed,
                };
                agrees
                    .then_some(())
                    .ok_or(format!("{site:?}/{trial}: replica disagrees with {outcome:?}"))
            });

            let plan = trial_plan(recover.seed, site, trial, recover.instrs, recover.fault_kind);
            let policy = recover.recovery.as_ref().expect("the recovery leg has a policy");
            let t = Instant::now();
            let r = paradet_par::with_threads(1, || {
                run_recovery(&recover.system, &program, &mut scratch, recover.instrs, &plan, policy)
            });
            rec_time += t.elapsed();
            n += 1;
            let outcome = merged[1].trials[g].outcome;
            report.op("recovery trial replica", || {
                let agrees = match outcome {
                    Outcome::Recovered { retries } => {
                        r.disposition == RecoveryDisposition::Recovered && r.retries == retries
                    }
                    Outcome::Masked => r.disposition == RecoveryDisposition::Clean,
                    _ => true,
                };
                agrees
                    .then_some(())
                    .ok_or(format!("{site:?}/{trial}: replica disagrees with {outcome:?}"))
            });
        }
    }
    report.metric("faults.trial_ms", ms(det_time) / f64::from(n), "ms");
    report.metric("faults.recovery_trial_ms", ms(rec_time) / f64::from(n), "ms");
    let per_k = |x: u64| x as f64 / instrs.max(1) as f64 * 1e3;
    report.metric("alloc.trial_allocs_per_kinstr", per_k(allocs.allocs), "1/kinstr");
    report.metric("alloc.trial_bytes_per_kinstr", per_k(allocs.bytes), "B/kinstr");
}

/// Arms a detection-only trial's faults, as the campaign does for a
/// transient plan.
fn arm(sys: &mut PairedSystem, plan: &TrialFaults) {
    for &f in &plan.core {
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

/// The traced run of the campaign workload.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report) {
    let budget = CampaignConfig::default().instrs;
    detect::ledger(
        &Spec { kernels: &[Workload::Freqmine], budget, domains: false },
        seconds * 0.2,
        report,
    );

    let legs = legs(seed);
    let refs = one_shot(&legs, report);
    let mut host = HostRef::new();
    let at_n: Vec<Leg> =
        round(&legs, &refs, seed, &mut host, report).into_iter().flatten().collect();
    let at_1 = paradet_par::with_threads(1, || round(&legs, &refs, seed, &mut host, report));
    report.op("one-thread identity", || match at_1.iter().all(Option::is_some) {
        true => Ok(()),
        false => Err(format!(
            "a leg at PARADET_THREADS=1 differs from the one-shot reference at {} threads",
            paradet_par::num_threads()
        )),
    });
    if at_n.len() != legs.len() {
        report_absent(report);
        return;
    }

    let trials: u64 = at_n.iter().map(|l| l.trials).sum();
    let per_trial = |x: f64| x / trials as f64;
    let busy: Duration = at_n.iter().map(|l| l.tally.busy).sum();
    let sum = |f: fn(&FsTally) -> u64| at_n.iter().map(|l| f(&l.tally)).sum::<u64>();
    let golden = median(&golden_reps(&legs[0].1, report));
    report.metric("faults.golden_ms", 1e3 * golden, "ms");
    report.metric("store.io_ms_per_trial", per_trial(ms(busy)), "ms");
    report.metric(
        "store.merge_ms",
        median(&at_n.iter().map(|l| ms(l.merge)).collect::<Vec<_>>()),
        "ms",
    );
    report.metric("store.bytes_written_per_trial", per_trial(sum(|t| t.bytes_written) as f64), "B");
    report.metric("store.ops_per_trial", per_trial(sum(|t| t.ops) as f64), "count");
    report.metric("store.failed_ops", sum(|t| t.failed) as f64, "count");

    let mut agg = SiteResult::default();
    for (_, s) in at_n.iter().flat_map(|l| &l.result.per_site) {
        agg.merge_from(s);
    }
    report.metric("faults.coverage", at_n[0].result.overall_coverage(), "ratio");
    report.metric(
        "faults.mean_retries",
        agg.retries_sum as f64 / agg.recovered.max(1) as f64,
        "count",
    );
    for (name, n) in [
        ("faults.detected", agg.detected),
        ("faults.crashed", agg.crashed),
        ("faults.sdc", agg.sdc),
        ("faults.masked", agg.masked),
        ("faults.recovered", agg.recovered),
        ("faults.degraded", agg.degraded),
        ("faults.unrecoverable", agg.unrecoverable),
    ] {
        report.metric(name, n as f64, "count");
    }
    replicas(&legs, [&at_n[0].result, &at_n[1].result], report);

    // Tracing overhead: interleaved untraced and traced rounds.
    let (mut off, mut on, mut speed) = (Vec::new(), Vec::new(), Vec::new());
    host.take_speed();
    let start = Instant::now();
    while off.len() < 2 || start.elapsed().as_secs_f64() < seconds * 0.5 {
        for counting in [false, true] {
            alloc::set_enabled(counting);
            let ran = round(&legs, &refs, seed, &mut host, report);
            let s = host.take_speed();
            let elapsed = secs(ran.iter().flatten().map(|l| l.elapsed).sum()) * s;
            speed.push(s);
            if counting {
                on.push(elapsed)
            } else {
                off.push(elapsed)
            }
        }
        alloc::set_enabled(false);
    }
    report.metric("bench.trace_overhead_pct", 100.0 * (median(&on) / median(&off) - 1.0), "%");
    report.metric("bench.host_speed", median(&speed), "ratio");
    let _ = std::fs::remove_dir_all(store_root());
}

/// The campaign layers, reported as 0 by workloads that run no campaign.
pub fn report_absent(report: &mut Report) {
    for (name, unit) in [
        ("faults.golden_ms", "ms"),
        ("faults.trial_ms", "ms"),
        ("faults.recovery_trial_ms", "ms"),
        ("store.io_ms_per_trial", "ms"),
        ("store.merge_ms", "ms"),
        ("store.bytes_written_per_trial", "B"),
        ("store.ops_per_trial", "count"),
        ("store.failed_ops", "count"),
        ("faults.coverage", "ratio"),
        ("faults.mean_retries", "count"),
        ("faults.detected", "count"),
        ("faults.crashed", "count"),
        ("faults.sdc", "count"),
        ("faults.masked", "count"),
        ("faults.recovered", "count"),
        ("faults.degraded", "count"),
        ("faults.unrecoverable", "count"),
        ("alloc.trial_allocs_per_kinstr", "1/kinstr"),
        ("alloc.trial_bytes_per_kinstr", "B/kinstr"),
    ] {
        report.metric(name, 0.0, unit);
    }
}
