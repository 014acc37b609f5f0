//! The detection workloads (`detect-compute`, `sweep-memory`) and the
//! host-time ladder every workload's traced run shares.

use crate::alloc::{self, AllocCount};
use crate::expected;
use crate::host::HostRef;
use crate::report::{median, ms, rate, secs, time, Report};
use paradet_core::{
    run_unchecked_shared, DetectionMode, DomainSet, PairedSystem, RunReport, SystemConfig,
};
use paradet_isa::{ArchState, FlatMemory, NoNondet, Program};
use paradet_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The Fig. 9/11 checker clocks, swept as secondary domains within a run.
pub const SWEEP_MHZ: [u64; 5] = [125, 250, 500, 1000, 2000];

/// A set of kernels simulated one at a time under one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kernels: &'static [Workload],
    /// Committed instructions per simulation.
    pub budget: u64,
    /// Whether the run carries the five-clock secondary-domain sweep.
    pub domains: bool,
}

/// Compute-bound kernels: L1D miss rate 0.07–6%, little logging, so the
/// OoO timing model and checker replay do nearly all the work.
pub const DETECT_COMPUTE: Spec = Spec {
    kernels: &[
        Workload::Bitcount,
        Workload::Swaptions,
        Workload::Blackscholes,
        Workload::Bodytrack,
    ],
    budget: 1_000_000,
    domains: false,
};

/// Memory-bound kernels under the fig09/fig11 sweep: the memory
/// hierarchy, log sealing and the secondary-domain folds dominate.
pub const SWEEP_MEMORY: Spec = Spec {
    kernels: &[Workload::Randacc, Workload::Stream, Workload::Freqmine],
    budget: 1_000_000,
    domains: true,
};

pub fn full_config() -> SystemConfig {
    SystemConfig::paper_default()
}

pub fn sweep_config() -> SystemConfig {
    SystemConfig::paper_default().with_extra_domains(DomainSet::from_mhz(&SWEEP_MHZ))
}

impl Spec {
    fn config(&self) -> SystemConfig {
        if self.domains {
            sweep_config()
        } else {
            full_config()
        }
    }

    fn build(&self, w: Workload) -> Arc<Program> {
        Arc::new(w.build(w.iters_for_instrs(self.budget)))
    }
}

/// The deterministic fingerprint of one simulation: the primary result,
/// then one row per secondary domain. Every number is simulated, so it
/// repeats bit for bit across runs, hosts and thread counts.
pub fn fingerprint(r: &RunReport) -> String {
    let mut s = format!(
        "{} {} {} {} {} {:?}",
        r.instrs,
        r.main_cycles,
        r.detector.seals,
        r.detector.entries_logged,
        r.delays.count(),
        r.delays.mean_ns()
    );
    s.push_str(" |");
    for d in &r.domains {
        s.push_str(&format!(
            " {}:{}:{:?}:{}",
            d.domain.mhz(),
            d.delays.count(),
            d.delays.mean_ns(),
            d.stall_divergences
        ));
    }
    s
}

/// Checks one clean simulation against the recorded fingerprint of
/// `kernel` at `budget`. Without secondary domains only the primary part
/// is compared: the primary result does not depend on the sweep.
pub fn check(kernel: Workload, budget: u64, r: &RunReport) -> Result<(), String> {
    if r.detected() || r.crashed {
        return Err(format!("{kernel}: clean run reported an error or crashed"));
    }
    if r.delays.count() != r.detector.entries_logged {
        return Err(format!(
            "{kernel}: {} delay samples for {} logged entries",
            r.delays.count(),
            r.detector.entries_logged
        ));
    }
    if r.domains.iter().any(|d| !d.errors.is_empty()) {
        return Err(format!("{kernel}: a secondary domain reported an error"));
    }
    let got = fingerprint(r);
    let want = expected::fingerprint(kernel.name(), budget).ok_or_else(|| {
        format!("no recorded fingerprint; observed (\"{kernel}\", {budget}, \"{got}\")")
    })?;
    let matches = if r.domains.is_empty() {
        want.split(" |").next() == got.split(" |").next()
    } else {
        want == got
    };
    if matches {
        Ok(())
    } else {
        Err(format!("fingerprint mismatch; observed (\"{kernel}\", {budget}, \"{got}\")"))
    }
}

/// One simulation, teardown included; returns the report and the
/// macro-instructions the checker farm replayed.
fn simulate(cfg: SystemConfig, program: &Arc<Program>, budget: u64) -> (RunReport, u64) {
    let mut sys = PairedSystem::new_shared(cfg, program);
    let r = sys.run(budget);
    let replayed = sys.detector().checkers.iter().map(|c| c.stats.instrs).sum();
    (r, replayed)
}

/// Host time of one end-to-end round.
#[derive(Debug, Clone, Copy, Default)]
struct Round {
    /// Program builds plus system construction.
    setup: Duration,
    /// Inside `PairedSystem::run`.
    run: Duration,
    instrs: u64,
    sims: u64,
    /// Host speed over the round, relative to the nominal host.
    speed: f64,
}

/// One round: every kernel built, constructed and run once, in an order
/// rotated by `offset`, with a host-speed sample before each.
fn e2e_round(spec: &Spec, offset: usize, host: &mut HostRef, report: &mut Report) -> Round {
    let cfg = spec.config();
    let mut round = Round::default();
    let n = spec.kernels.len();
    for i in 0..n {
        host.sample();
        let kernel = spec.kernels[(offset + i) % n];
        let t0 = Instant::now();
        let program = spec.build(kernel);
        let mut sys = PairedSystem::new_shared(cfg, &program);
        let t1 = Instant::now();
        let r = report.op(kernel.name(), || Ok(sys.run(spec.budget)));
        let t2 = Instant::now();
        round.setup += t1 - t0;
        round.run += t2 - t1;
        round.sims += 1;
        if let Some(r) = r {
            round.instrs += r.instrs;
            report.op("fingerprint check", || check(kernel, spec.budget, &r));
        }
    }
    round.speed = host.take_speed();
    round
}

/// Rounds until `seconds` have been measured (at least three), after one
/// untimed warm-up round. The seed rotates the kernel order.
fn e2e_rounds(spec: &Spec, seed: u64, seconds: f64, report: &mut Report) -> Vec<Round> {
    let mut host = HostRef::new();
    e2e_round(spec, seed as usize, &mut host, report);
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        rounds.push(e2e_round(spec, seed as usize + rounds.len() + 1, &mut host, report));
    }
    rounds
}

/// The untraced run: end-to-end metrics only, scaled to the nominal host
/// round by round.
pub fn run_e2e(spec: &Spec, seed: u64, seconds: f64, report: &mut Report) {
    let rounds = e2e_rounds(spec, seed, seconds, report);
    println!("{} measured rounds of {} kernels", rounds.len(), spec.kernels.len());
    let (mut minstr, mut sims, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    for r in &rounds {
        let raw = r.instrs as f64 / secs(r.run) / 1e6;
        println!(
            "round: {raw:.3} Minstr/s, set-up {:.3} ms on a host at {:.3}x nominal",
            ms(r.setup),
            r.speed
        );
        minstr.push(raw / r.speed);
        sims.push(r.sims as f64 / secs(r.run) / r.speed);
        setup.push(secs(r.setup) * r.speed);
    }
    report.metric("minstr_per_s", rate(&minstr), "Minstr/s");
    report.metric("trials_per_s", rate(&sims), "1/s");
    report.metric("setup_s", time(&setup), "s");
}

/// Runs `program` on the functional oracle alone; returns instructions
/// retired.
fn oracle(program: &Program, budget: u64) -> Result<u64, String> {
    let mut st = ArchState::at_entry(program);
    let mut mem = FlatMemory::new();
    mem.load_image(program);
    let mut n = 0;
    while n < budget && !st.halted {
        n += st
            .run_blocks(program, &mut mem, &mut NoNondet, budget - n)
            .map_err(|e| format!("oracle: {e:?}"))?;
    }
    Ok(n)
}

/// Runs `f` and returns its result with the host time it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Ladder legs, cheapest first: each adds one layer to the one before.
const LEGS: usize = 5;
const ORACLE: usize = 0;
const UNCHECKED: usize = 1;
const CKPT_ONLY: usize = 2;
const FULL: usize = 3;
const DOMAINS: usize = 4;

/// Exact simulated counters summed over a spec's kernels.
#[derive(Debug, Default)]
struct Counters {
    instrs: u64,
    main_cycles: u64,
    unchecked_cycles: u64,
    skipped: u64,
    mispredicts: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    dram_requests: u64,
    entries: u64,
    seals: u64,
    log_full_retries: u64,
    gate_pause_cycles: u64,
    replayed: u64,
    busy_fs: f64,
    capacity_fs: f64,
    delay_sum_ns: f64,
    delay_count: u64,
    stall_divergences: u64,
}

impl Counters {
    fn add(&mut self, unchecked: &RunReport, full: &RunReport, replayed: u64, swept: &RunReport) {
        self.instrs += full.instrs;
        self.main_cycles += full.main_cycles;
        self.unchecked_cycles += unchecked.main_cycles;
        self.skipped += full.core.cycles_skipped;
        self.mispredicts += full.core.mispredicts;
        self.l1d_accesses += full.mem.l1d.accesses;
        self.l1d_misses += full.mem.l1d.misses;
        self.l2_accesses += full.mem.l2.accesses;
        self.l2_misses += full.mem.l2.misses;
        self.dram_requests += full.mem.dram.requests;
        self.entries += full.detector.entries_logged;
        self.seals += full.detector.seals;
        self.log_full_retries += full.detector.log_full_retries;
        self.gate_pause_cycles += full.core.gate_pause_cycles;
        self.replayed += replayed;
        self.busy_fs += full.checker_busy_fs as f64;
        self.capacity_fs += full_config().n_checkers as f64 * full.wall_time.as_fs() as f64;
        self.delay_sum_ns += full.delays.mean_ns() * full.delays.count() as f64;
        self.delay_count += full.delays.count();
        self.stall_divergences += swept.domains.iter().map(|d| d.stall_divergences).sum::<u64>();
    }

    fn report(&self, report: &mut Report) {
        let instrs = self.instrs.max(1) as f64;
        let per_k = |x: u64| x as f64 / instrs * 1e3;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        report.metric("ooo.sim_ipc", ratio(self.instrs, self.main_cycles), "instr/cycle");
        report.metric("ooo.cycles_skipped_pct", 100.0 * ratio(self.skipped, self.main_cycles), "%");
        report.metric("ooo.mispredicts_per_kinstr", per_k(self.mispredicts), "1/kinstr");
        report.metric("mem.l1d_accesses_per_instr", self.l1d_accesses as f64 / instrs, "1/instr");
        report.metric("mem.l1d_miss_rate", ratio(self.l1d_misses, self.l1d_accesses), "ratio");
        report.metric("mem.l2_miss_rate", ratio(self.l2_misses, self.l2_accesses), "ratio");
        report.metric("mem.dram_requests_per_kinstr", per_k(self.dram_requests), "1/kinstr");
        report.metric("core.log_entries_per_instr", self.entries as f64 / instrs, "1/instr");
        report.metric("core.seals_per_kinstr", per_k(self.seals), "1/kinstr");
        report.metric("core.log_full_retries", self.log_full_retries as f64, "count");
        report.metric(
            "core.gate_pause_cycles_per_kinstr",
            per_k(self.gate_pause_cycles),
            "cycles/kinstr",
        );
        report.metric(
            "core.sim_slowdown_pct",
            100.0 * (ratio(self.main_cycles, self.unchecked_cycles) - 1.0),
            "%",
        );
        report.metric("checker.replayed_per_instr", self.replayed as f64 / instrs, "ratio");
        report.metric("checker.busy_frac", self.busy_fs / self.capacity_fs.max(1.0), "ratio");
        report.metric(
            "checker.mean_delay_ns",
            self.delay_sum_ns / self.delay_count.max(1) as f64,
            "ns",
        );
        report.metric("checker.stall_divergences", self.stall_divergences as f64, "count");
    }
}

/// Whether two runs of one simulation agree on every simulated result,
/// delay samples included.
fn same_run(a: &RunReport, b: &RunReport) -> bool {
    fingerprint(a) == fingerprint(b)
        && format!("{:?}{:?}{:?}", a.core, a.mem, a.detector)
            == format!("{:?}{:?}{:?}", b.core, b.mem, b.detector)
        && (a.wall_time, a.checker_busy_fs) == (b.wall_time, b.checker_busy_fs)
        && a.delays.samples_fs() == b.delays.samples_fs()
        && a.store_delays.samples_fs() == b.store_delays.samples_fs()
        && a.domains.len() == b.domains.len()
        && a.domains.iter().zip(&b.domains).all(|(x, y)| {
            x.delays.samples_fs() == y.delays.samples_fs() && x.finishes == y.finishes
        })
}

/// The traced run's simulator layers over `spec`'s kernels: the
/// interleaved host-time ladder (rounds for `seconds`, at least five),
/// the exact counters, the allocation counters, and the thread-count
/// identity check.
pub fn ledger(spec: &Spec, seconds: f64, report: &mut Report) {
    let full = full_config();
    let ckpt_only = full.with_mode(DetectionMode::CheckpointOnly);
    let mut ns: [Vec<f64>; LEGS] = Default::default();
    let mut build_ms = Vec::new();
    let mut construct_ms = Vec::new();
    let mut counters = Counters::default();
    let mut reference: Vec<(RunReport, RunReport)> = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round < 5 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let programs: Vec<Arc<Program>> = spec.kernels.iter().map(|&w| spec.build(w)).collect();
        build_ms.push(ms(t.elapsed()));
        let mut time = [Duration::ZERO; LEGS];
        let mut instrs = [0u64; LEGS];
        let mut construct = Duration::ZERO;
        for (&kernel, program) in spec.kernels.iter().zip(&programs) {
            let (n_oracle, t_oracle) = timed(|| oracle(program, spec.budget));
            let (unchecked, t_unchecked) =
                timed(|| run_unchecked_shared(&full, program, spec.budget));
            let ((ckpt, _), t_ckpt) = timed(|| simulate(ckpt_only, program, spec.budget));
            let ((r_full, replayed), t_full) = timed(|| simulate(full, program, spec.budget));
            let ((swept, _), t_swept) = timed(|| simulate(sweep_config(), program, spec.budget));
            let (sys, t_construct) = timed(|| PairedSystem::new_shared(full, program));
            drop(sys);
            construct += t_construct;
            let legs = [
                (t_oracle, *n_oracle.as_ref().unwrap_or(&0)),
                (t_unchecked, unchecked.instrs),
                (t_ckpt, ckpt.instrs),
                (t_full, r_full.instrs),
                (t_swept, swept.instrs),
            ];
            for (i, (t, n)) in legs.into_iter().enumerate() {
                time[i] += t;
                instrs[i] += n;
            }
            report.op("ladder instruction counts", || {
                let n = n_oracle?;
                let counts = [n, unchecked.instrs, ckpt.instrs, r_full.instrs, swept.instrs];
                match counts.iter().all(|&m| m == counts[0]) {
                    true => Ok(()),
                    false => Err(format!("{kernel}: ladder legs retired {counts:?}")),
                }
            });
            report.op("fingerprint check", || check(kernel, spec.budget, &r_full));
            report.op("fingerprint check", || check(kernel, spec.budget, &swept));
            if round == 0 {
                counters.add(&unchecked, &r_full, replayed, &swept);
                reference.push((r_full, swept));
            }
        }
        construct_ms.push(ms(construct) / spec.kernels.len() as f64);
        for (v, (t, n)) in ns.iter_mut().zip(time.iter().zip(instrs)) {
            v.push(t.as_nanos() as f64 / n.max(1) as f64);
        }
        round += 1;
    }
    println!("{round} ladder rounds over {} kernels", spec.kernels.len());

    let med: Vec<f64> = ns.iter().map(|v| median(v)).collect();
    report.metric("isa.oracle_ns_per_instr", med[ORACLE], "ns/instr");
    report.metric("ooo.timing_ns_per_instr", med[UNCHECKED], "ns/instr");
    report.metric("core.detect_ns_per_instr", med[CKPT_ONLY] - med[UNCHECKED], "ns/instr");
    report.metric("checker.check_ns_per_instr", med[FULL] - med[CKPT_ONLY], "ns/instr");
    report.metric("bench.full_ns_per_instr", med[FULL], "ns/instr");
    report.metric(
        "checker.domain_fold_ns_per_instr",
        (med[DOMAINS] - med[FULL]) / SWEEP_MHZ.len() as f64,
        "ns/instr",
    );
    report.metric("workloads.build_ms", median(&build_ms), "ms");
    report.metric("core.construct_ms", median(&construct_ms), "ms");
    counters.report(report);

    // Allocation counts and the thread-count identity check, with the
    // farm and the domain folds pinned to one worker.
    let (mut unchecked_alloc, mut full_alloc, mut instrs) =
        (AllocCount::default(), AllocCount::default(), 0);
    for (&kernel, (r_full, swept)) in spec.kernels.iter().zip(&reference) {
        let program = spec.build(kernel);
        paradet_par::with_threads(1, || {
            let (u, a) = alloc::count(|| run_unchecked_shared(&full, &program, spec.budget));
            unchecked_alloc += a;
            instrs += u.instrs;
            let ((f, _), a) = alloc::count(|| simulate(full, &program, spec.budget));
            full_alloc += a;
            let (d, _) = simulate(sweep_config(), &program, spec.budget);
            report.op("one-thread identity", || {
                match same_run(&f, r_full) && same_run(&d, swept) {
                    true => Ok(()),
                    false => Err(format!(
                        "{kernel}: PARADET_THREADS=1 and {} threads disagree",
                        paradet_par::num_threads()
                    )),
                }
            });
        });
    }
    let per_k = |x: u64| x as f64 / instrs.max(1) as f64 * 1e3;
    report.metric("alloc.unchecked_allocs_per_kinstr", per_k(unchecked_alloc.allocs), "1/kinstr");
    report.metric("alloc.unchecked_bytes_per_kinstr", per_k(unchecked_alloc.bytes), "B/kinstr");
    report.metric("alloc.full_allocs_per_kinstr", per_k(full_alloc.allocs), "1/kinstr");
    report.metric("alloc.full_bytes_per_kinstr", per_k(full_alloc.bytes), "B/kinstr");
}

/// The traced run of a detection workload: the ladder, then the cost of
/// tracing itself, from interleaved untraced and traced end-to-end
/// rounds. No campaign runs here, so the campaign layers report 0.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, report: &mut Report) {
    ledger(spec, seconds * 0.6, report);
    let (mut off, mut on, mut speed) = (Vec::new(), Vec::new(), Vec::new());
    let mut host = HostRef::new();
    let start = Instant::now();
    let mut i = 0;
    while i < 3 || start.elapsed().as_secs_f64() < seconds * 0.4 {
        let r = e2e_round(spec, seed as usize + i, &mut host, report);
        off.push(secs(r.setup + r.run) * r.speed);
        speed.push(r.speed);
        alloc::set_enabled(true);
        let r = e2e_round(spec, seed as usize + i, &mut host, report);
        alloc::set_enabled(false);
        on.push(secs(r.setup + r.run) * r.speed);
        speed.push(r.speed);
        i += 1;
    }
    report.metric("bench.trace_overhead_pct", 100.0 * (median(&on) / median(&off) - 1.0), "%");
    report.metric("bench.host_speed", median(&speed), "ratio");
    crate::campaign::report_absent(report);
}
