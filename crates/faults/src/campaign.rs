//! Campaign runner: golden run, fault arming, outcome classification.
//!
//! Trials are embarrassingly parallel and run across worker threads
//! (`PARADET_THREADS`, see `paradet-par`). Each trial's RNG is seeded from
//! the campaign seed, the fault-site class, and the trial index — never
//! from a shared sequential stream — so the campaign result is
//! **bit-identical at any thread count**, and a trial's fault does not
//! depend on which other sites or trials the campaign happens to run.

use paradet_core::{
    run_recovery_from, PairedSystem, RecoveryDisposition, RecoveryPolicy, SimScratch, SystemConfig,
    SystemSnapshot, TrialFaults,
};
use paradet_isa::{ArchState, FReg, FlatMemory, ImageDiff, Program, Reg};
use paradet_mem::{ArrayFault, ArrayKind, Time};
use paradet_ooo::{ArmedFault, FaultKind, FaultTarget};
use paradet_workloads::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A fault-injection site class (each trial randomizes the strike point and
/// bit within the class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Architectural integer register bit (physical-register strike).
    IntReg,
    /// Architectural floating-point register bit.
    FpReg,
    /// Store datapath: value corrupted after leaving the register file.
    StoreValue,
    /// Store datapath: address corrupted.
    StoreAddr,
    /// Load destination register after LFU capture (§IV-C window).
    LoadValue,
    /// Load value before LFU capture (models the *naive* no-LFU design's
    /// vulnerability; with the LFU this class is covered by the ECC'd
    /// cache domain and out of scope).
    LoadCapture,
    /// Program-counter bit (control-flow fault).
    Pc,
    /// Hard stuck-at fault in one integer ALU.
    AluStuckAt,
    /// Multi-bit upset: two or three bits of one integer register flip in
    /// the same cycle (an MCU — increasingly common at small geometries;
    /// defeats per-word parity but not the checker's replay).
    IntRegMulti,
    /// Bit flip in a cache data array at the accessed line. Outside the
    /// detection sphere: the paper assumes ECC on the arrays (§IV-F), so
    /// the checker — which validates the *logged* values — is expected to
    /// miss it (SDC or masked, never detected).
    CacheArray,
    /// Bit flip in a DRAM array on the line *adjacent* to an accessed one
    /// (a disturbance/rowhammer-style upset). Also outside the detection
    /// sphere; expected SDC/masked.
    DramArray,
    /// Checker-side false positive (§IV-I over-detection): a bit of the
    /// detection hardware's own load-store log flips, so a check fails on
    /// a perfectly healthy main core.
    CheckerFalsePos,
    /// Checker-side missed detection: a lying checker suppresses every
    /// error report while a real store-datapath fault strikes the main
    /// core — the fault escapes as SDC by construction.
    CheckerMiss,
}

impl FaultSite {
    /// The legacy (main-core) sites, in reporting order. Kept distinct
    /// from [`extended`](FaultSite::extended) so the default campaign —
    /// and every golden table derived from it — is unchanged by the
    /// widened fault space.
    pub fn all() -> [FaultSite; 8] {
        [
            FaultSite::IntReg,
            FaultSite::FpReg,
            FaultSite::StoreValue,
            FaultSite::StoreAddr,
            FaultSite::LoadValue,
            FaultSite::LoadCapture,
            FaultSite::Pc,
            FaultSite::AluStuckAt,
        ]
    }

    /// Every site class, legacy and widened, in reporting order.
    pub fn extended() -> [FaultSite; 13] {
        [
            FaultSite::IntReg,
            FaultSite::FpReg,
            FaultSite::StoreValue,
            FaultSite::StoreAddr,
            FaultSite::LoadValue,
            FaultSite::LoadCapture,
            FaultSite::Pc,
            FaultSite::AluStuckAt,
            FaultSite::IntRegMulti,
            FaultSite::CacheArray,
            FaultSite::DramArray,
            FaultSite::CheckerFalsePos,
            FaultSite::CheckerMiss,
        ]
    }

    /// A stable identifier mixed into per-trial seeds. Tied to the site
    /// class itself (not its position in `CampaignConfig::sites`), so
    /// reordering or subsetting the site list never changes the faults any
    /// surviving (site, trial) pair draws.
    pub fn id(self) -> u64 {
        match self {
            FaultSite::IntReg => 0,
            FaultSite::FpReg => 1,
            FaultSite::StoreValue => 2,
            FaultSite::StoreAddr => 3,
            FaultSite::LoadValue => 4,
            FaultSite::LoadCapture => 5,
            FaultSite::Pc => 6,
            FaultSite::AluStuckAt => 7,
            FaultSite::IntRegMulti => 8,
            FaultSite::CacheArray => 9,
            FaultSite::DramArray => 10,
            FaultSite::CheckerFalsePos => 11,
            FaultSite::CheckerMiss => 12,
        }
    }

    /// A short display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::IntReg => "int-reg",
            FaultSite::FpReg => "fp-reg",
            FaultSite::StoreValue => "store-value",
            FaultSite::StoreAddr => "store-addr",
            FaultSite::LoadValue => "load-value",
            FaultSite::LoadCapture => "load-capture",
            FaultSite::Pc => "pc",
            FaultSite::AluStuckAt => "alu-stuck",
            FaultSite::IntRegMulti => "int-reg-multi",
            FaultSite::CacheArray => "cache-array",
            FaultSite::DramArray => "dram-array",
            FaultSite::CheckerFalsePos => "checker-false-pos",
            FaultSite::CheckerMiss => "checker-miss",
        }
    }

    /// Looks a site class up by its [`name`](FaultSite::name) — the inverse
    /// used when reading manifests and checkpoints back from disk.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::extended().into_iter().find(|s| s.name() == name)
    }

    fn sample(self, rng: &mut StdRng) -> FaultTarget {
        match self {
            FaultSite::IntReg => FaultTarget::IntRegBit {
                // Bias toward low registers — they are the live ones in the
                // kernels, as in real register-pressure profiles.
                reg: Reg::from_index(rng.gen_range(1..16)),
                bit: rng.gen_range(0..64),
            },
            FaultSite::FpReg => FaultTarget::FpRegBit {
                reg: FReg::from_index(rng.gen_range(0..16)),
                bit: rng.gen_range(0..64),
            },
            FaultSite::StoreValue => FaultTarget::StoreValueBit { bit: rng.gen_range(0..64) },
            FaultSite::StoreAddr => FaultTarget::StoreAddrBit { bit: rng.gen_range(0..20) },
            FaultSite::LoadValue => FaultTarget::LoadValueBit { bit: rng.gen_range(0..64) },
            FaultSite::LoadCapture => FaultTarget::LoadCaptureBit { bit: rng.gen_range(0..64) },
            FaultSite::Pc => FaultTarget::PcBit { bit: rng.gen_range(2..16) },
            FaultSite::AluStuckAt => FaultTarget::AluStuckAt {
                unit: rng.gen_range(0..3),
                bit: rng.gen_range(0..64),
                value: rng.gen(),
            },
            // Widened sites don't reduce to a single main-core target;
            // their draws live in `trial_plan`.
            FaultSite::IntRegMulti
            | FaultSite::CacheArray
            | FaultSite::DramArray
            | FaultSite::CheckerFalsePos
            | FaultSite::CheckerMiss => {
                unreachable!("extended site {self:?} draws via trial_plan")
            }
        }
    }
}

/// Classification of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A checker raised an error (detection-only campaign: no recovery
    /// was attempted).
    Detected,
    /// Execution crashed; §IV-H semantics report the fault after checks.
    Crashed,
    /// State diverged from golden with no detection — a miss.
    SilentDataCorruption,
    /// No architectural difference and no detection.
    Masked,
    /// Detected, rolled back, and re-executed to a final state
    /// bit-identical to golden after `retries` rollbacks.
    Recovered {
        /// Rollbacks performed before an attempt validated end-to-end.
        retries: u32,
    },
    /// Detected but not outrunnable by rollback (a persistent fault):
    /// the remainder completed on the degraded known-good path, final
    /// state still bit-identical to golden — forward progress held.
    Degraded,
    /// Detected, but neither re-execution nor the degraded path reached
    /// the golden state: recovery failed.
    Unrecoverable,
}

impl Outcome {
    /// The stable tag written into shard checkpoints. `Recovered` drops
    /// its retry count here; the checkpoint line carries it in a
    /// separate `retries` field, which the reader re-attaches.
    pub fn tag(self) -> &'static str {
        match self {
            Outcome::Detected => "detected",
            Outcome::Crashed => "crashed",
            Outcome::SilentDataCorruption => "sdc",
            Outcome::Masked => "masked",
            Outcome::Recovered { .. } => "recovered",
            Outcome::Degraded => "degraded",
            Outcome::Unrecoverable => "unrecoverable",
        }
    }

    /// Parses a checkpoint [`tag`](Outcome::tag) back. A `recovered` tag
    /// parses as `Recovered { retries: 0 }`; the caller patches the count
    /// from the line's own field.
    pub fn from_tag(tag: &str) -> Option<Outcome> {
        [
            Outcome::Detected,
            Outcome::Crashed,
            Outcome::SilentDataCorruption,
            Outcome::Masked,
            Outcome::Recovered { retries: 0 },
            Outcome::Degraded,
            Outcome::Unrecoverable,
        ]
        .into_iter()
        .find(|o| o.tag() == tag)
    }
}

/// One trial's record: what the one-shot run returns, what a shard
/// checkpoints, and what the merge reads back. Its faults are
/// [`trial_plan`]'s, pure in the campaign seed, `site` and `trial`.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The site class.
    pub site: FaultSite,
    /// The trial index within the site.
    pub trial: u64,
    /// The classification.
    pub outcome: Outcome,
    /// When detected, the first error's confirmation time measured from
    /// the start of the run — the same quantity as
    /// [`RecoveryReport::detect_fs`](paradet_core::RecoveryReport::detect_fs).
    pub detect_latency: Option<Time>,
    /// Modeled recovery cost in femtoseconds (aborted attempts + rollback
    /// penalties), when a recovery driver rolled back at least once.
    pub recovery_fs: Option<u64>,
}

/// Per-site aggregate counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteResult {
    /// Trials run.
    pub trials: u64,
    /// Detected by a checker.
    pub detected: u64,
    /// Crashed (reported after checks, §IV-H).
    pub crashed: u64,
    /// Missed (silent data corruption).
    pub sdc: u64,
    /// Masked.
    pub masked: u64,
    /// Detected and recovered to a golden-identical state by rollback.
    pub recovered: u64,
    /// Detected and completed on the degraded path (persistent fault).
    pub degraded: u64,
    /// Detected but recovery failed to reach the golden state.
    pub unrecoverable: u64,
    /// Total rollbacks across recovered/degraded/unrecoverable trials.
    pub retries_sum: u64,
    /// Total modeled recovery cost (femtoseconds) across those trials.
    pub recovery_fs_sum: u64,
}

impl paradet_stats::Mergeable for SiteResult {
    /// Per-site counts are integer tallies, so partial aggregates from
    /// different shards fold together exactly — the property
    /// `campaign-merge` relies on for byte-identical coverage tables.
    fn merge_from(&mut self, other: &Self) {
        self.trials += other.trials;
        self.detected += other.detected;
        self.crashed += other.crashed;
        self.sdc += other.sdc;
        self.masked += other.masked;
        self.recovered += other.recovered;
        self.degraded += other.degraded;
        self.unrecoverable += other.unrecoverable;
        self.retries_sum += other.retries_sum;
        self.recovery_fs_sum += other.recovery_fs_sum;
    }
}

impl SiteResult {
    /// Every outcome that began with a checker detection (the recovery
    /// dispositions are detections that were then acted on).
    pub fn detected_family(&self) -> u64 {
        self.detected + self.crashed + self.recovered + self.degraded + self.unrecoverable
    }

    /// Coverage over *unmasked* faults: detected-family / (trials −
    /// masked). Masked faults are benign; the paper's detection guarantee
    /// concerns faults that change architectural state.
    pub fn coverage(&self) -> f64 {
        let unmasked = self.trials - self.masked;
        if unmasked == 0 {
            1.0
        } else {
            self.detected_family() as f64 / unmasked as f64
        }
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// System configuration (defaults to the paper's Table I).
    pub system: SystemConfig,
    /// Workload to run.
    pub workload: Workload,
    /// Dynamic instructions per trial (the fault strikes uniformly within
    /// the first 80%).
    pub instrs: u64,
    /// Trials per site class.
    pub trials_per_site: u64,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
    /// Site classes to exercise.
    pub sites: Vec<FaultSite>,
    /// Temporal behaviour of the main-core strikes (transient by
    /// default — the historic campaign semantics).
    pub fault_kind: FaultKind,
    /// When set, trials run under the detect → rollback → re-execute
    /// driver and classify into the recovery outcomes; when `None`,
    /// trials classify detection-only (the historic campaign).
    pub recovery: Option<RecoveryPolicy>,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            system: SystemConfig::paper_default(),
            workload: Workload::Freqmine,
            instrs: 20_000,
            // Raised from 20 once trials ran in parallel: 50 per site keeps
            // a default campaign's 95% Wilson interval on a clean site
            // (50/50 detected) above 92% coverage, at ParaMedic-style
            // statistical confidence rather than smoke-test counts.
            trials_per_site: 50,
            seed: 42,
            sites: FaultSite::all().to_vec(),
            fault_kind: FaultKind::Transient,
            recovery: None,
        }
    }
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Every trial, in execution order.
    pub trials: Vec<TrialResult>,
    /// Aggregates per site, in `sites` order.
    pub per_site: Vec<(FaultSite, SiteResult)>,
}

impl CampaignResult {
    /// Overall coverage over unmasked faults, all sites pooled.
    pub fn overall_coverage(&self) -> f64 {
        let mut agg = SiteResult::default();
        for (_, s) in &self.per_site {
            paradet_stats::Mergeable::merge_from(&mut agg, s);
        }
        agg.coverage()
    }
}

/// Derives the RNG seed for stream `stream`, item `index` of a campaign
/// with base seed `seed` (SplitMix64-style finalizer).
///
/// Every trial draws from its own generator seeded this way, which is what
/// makes campaigns order-independent: the (seed, stream, index) triple — not
/// the position in any loop, nor the thread that happens to run it —
/// determines the fault.
fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG seed of fault trial `trial` on `site`, for campaign seed `seed`.
///
/// Public so the test-suite can assert the stability guarantee directly.
pub fn trial_seed(seed: u64, site: FaultSite, trial: u64) -> u64 {
    derive_seed(seed, site.id(), trial)
}

/// The complete fault load drawn for trial `trial` on `site` in a campaign
/// with base seed `seed` and per-trial budget `instrs` — main-core strikes
/// plus any array or checker-side fault the widened site classes carry.
///
/// A pure function of its arguments: no shared RNG stream, so the fault is
/// independent of which other sites/trials the campaign runs, their order,
/// and the thread count. `instrs` must be at least [`MIN_CAMPAIGN_INSTRS`]
/// (the CLI rejects smaller budgets): strikes land in `1..instrs * 8 / 10`,
/// which is empty below it. For the eight legacy sites the draw order
/// is the historic one (`at_instr`, then the target) — the same `(seed,
/// site, trial)` yields the same fault it always did.
///
/// `kind` sets only the temporal behaviour of the core strikes; the draws
/// themselves are kind-independent, so a checkpoint written by a transient
/// campaign and one written by a permanent campaign over the same grid
/// disagree only in outcomes, never in faults.
pub fn trial_plan(
    seed: u64,
    site: FaultSite,
    trial: u64,
    instrs: u64,
    kind: FaultKind,
) -> TrialFaults {
    let mut rng = StdRng::seed_from_u64(trial_seed(seed, site, trial));
    let at_instr = rng.gen_range(1..instrs * 8 / 10);
    let mut plan = TrialFaults { kind, ..TrialFaults::default() };
    match site {
        FaultSite::IntRegMulti => {
            // A multi-cell upset: 2–3 distinct bits of one register, one
            // event. A repeated bit would flip back, so it is redrawn.
            let reg = Reg::from_index(rng.gen_range(1..16));
            let n: usize = rng.gen_range(2..4);
            while plan.core.len() < n {
                let bit = rng.gen_range(0..64);
                let flip = ArmedFault::new(at_instr, FaultTarget::IntRegBit { reg, bit });
                if !plan.core.contains(&flip) {
                    plan.core.push(flip);
                }
            }
        }
        FaultSite::CacheArray => {
            plan.array = Some(ArrayFault {
                array: ArrayKind::Cache,
                at_access: at_instr / 8,
                bit: rng.gen_range(0..8),
            });
        }
        FaultSite::DramArray => {
            plan.array = Some(ArrayFault {
                array: ArrayKind::Dram,
                at_access: at_instr / 8,
                bit: rng.gen_range(0..8),
            });
        }
        FaultSite::CheckerFalsePos => {
            plan.log_fault =
                Some((rng.gen_range(0..4), rng.gen_range(0..64), rng.gen_range(0..64)));
        }
        FaultSite::CheckerMiss => {
            plan.checker_miss = true;
            plan.core.push(ArmedFault::new(
                at_instr,
                FaultTarget::StoreValueBit { bit: rng.gen_range(0..64) },
            ));
        }
        legacy => {
            plan.core.push(ArmedFault::new(at_instr, legacy.sample(&mut rng)));
        }
    }
    plan
}

/// The smallest per-trial budget a campaign accepts: strikes are drawn
/// from `1..instrs * 8 / 10`, which is empty below 3.
pub const MIN_CAMPAIGN_INSTRS: u64 = 3;

/// Stream tag for over-detection trials (distinct from every `FaultSite::id`).
const OVERDETECTION_STREAM: u64 = 0xFACE;

/// The shared golden-run context every trial classifies against: the built
/// program, the clean run's report, final architectural state and final
/// memory, and the snapshots trials start from.
///
/// One-shot campaigns build this once per campaign; each shard process of a
/// sharded campaign rebuilds it independently (the golden run is
/// deterministic, so every shard classifies against the identical
/// reference).
#[derive(Debug)]
pub(crate) struct Golden {
    pub(crate) program: Arc<Program>,
    report: paradet_core::RunReport,
    state: ArchState,
    /// The final memory as its diff from the program's data image.
    mem: ImageDiff,
    /// Snapshots of the clean run at every fifth of the budget below the
    /// strike window's end, ascending; the first is at the entry.
    snapshots: Vec<SystemSnapshot>,
}

impl Golden {
    /// The latest snapshot a trial of `plan` may start from (see
    /// [`TrialFaults::clean_prefix`]).
    fn snapshot_for(&self, plan: &TrialFaults) -> Option<&SystemSnapshot> {
        let limit = plan.clean_prefix();
        self.snapshots.iter().rev().find(|s| s.instrs() <= limit)
    }

    /// Whether `mem` holds exactly the golden run's final memory.
    fn mem_matches(&self, mem: &FlatMemory) -> bool {
        mem.diff_from_image(&self.program) == self.mem
    }
}

/// Builds the workload program and runs it clean, snapshotting the run
/// at every fifth of the budget below the strike window's end. A recovery
/// campaign's golden run tracks rollback state, so its snapshots carry the
/// window of unvalidated segments its trials would have.
///
/// Capture reads every filled cache line and every stored-to memory word,
/// a few percent of the golden run per snapshot: fifths keep that setup
/// cost small while a trial still skips most of its prefix.
pub(crate) fn prepare_golden(cfg: &CampaignConfig) -> Golden {
    let program = Arc::new(cfg.workload.build(cfg.workload.iters_for_instrs(cfg.instrs)));
    // Golden run (same detection config so timing-visible state like
    // instruction counts is comparable).
    let mut gold_sys = PairedSystem::new_shared(cfg.system, &program);
    if cfg.recovery.is_some() {
        gold_sys.enable_recovery_tracking();
    }
    let (step, window_end) = ((cfg.instrs / 5).max(1), cfg.instrs * 8 / 10);
    let mut snapshots = Vec::new();
    let mut at = 0;
    while at < window_end {
        let due = at - gold_sys.instrs();
        if gold_sys.advance(due) < due {
            break; // halted or crashed: nothing left to snapshot
        }
        snapshots.push(gold_sys.snapshot());
        at += step;
    }
    let report = gold_sys.run(cfg.instrs - gold_sys.instrs());
    assert!(!report.detected(), "golden run must be clean");
    let state = gold_sys.core().committed_state().clone();
    let mem = gold_sys.hier().data.diff_from_image(&program);
    Golden { program, report, state, mem, snapshots }
}

/// Runs and classifies grid point `(site, trial)` — a pure function of the
/// campaign config and the point, which is what makes the grid shardable
/// and resumable: any process that evaluates the point gets the same
/// [`TrialResult`].
pub(crate) fn run_point(
    cfg: &CampaignConfig,
    golden: &Golden,
    site: FaultSite,
    trial: u64,
    scratch: &mut SimScratch,
) -> TrialResult {
    let plan = trial_plan(cfg.seed, site, trial, cfg.instrs, cfg.fault_kind);
    let (outcome, detect_latency, recovery_fs) = match &cfg.recovery {
        Some(policy) => run_trial_recover(cfg, golden, &plan, policy, scratch),
        None => {
            let (outcome, latency) = run_trial(cfg, golden, &plan, scratch);
            (outcome, latency, None)
        }
    };
    TrialResult { site, trial, outcome, detect_latency, recovery_fs }
}

/// Folds one trial into a site aggregate — the single tally shared by the
/// one-shot path, `campaign-merge`, and the partial merge, so every
/// producer counts identically.
fn fold_trial(agg: &mut SiteResult, trial: &TrialResult) {
    agg.trials += 1;
    match trial.outcome {
        Outcome::Detected => agg.detected += 1,
        Outcome::Crashed => agg.crashed += 1,
        Outcome::SilentDataCorruption => agg.sdc += 1,
        Outcome::Masked => agg.masked += 1,
        Outcome::Recovered { retries } => {
            agg.recovered += 1;
            agg.retries_sum += retries as u64;
        }
        Outcome::Degraded => agg.degraded += 1,
        Outcome::Unrecoverable => agg.unrecoverable += 1,
    }
    agg.recovery_fs_sum += trial.recovery_fs.unwrap_or(0);
}

/// Tallies trials into per-site aggregates, one row per entry of `sites`
/// in that order, each trial counted under its own `site`. Site tallies
/// are integer sums, so trial order cannot matter: the one-shot path and
/// the strict merge pass a full grid, the partial merge a sparse one.
pub(crate) fn aggregate<'a>(
    sites: &[FaultSite],
    trials: impl IntoIterator<Item = &'a TrialResult>,
) -> Vec<(FaultSite, SiteResult)> {
    let mut per_site: Vec<(FaultSite, SiteResult)> =
        sites.iter().map(|&site| (site, SiteResult::default())).collect();
    for trial in trials {
        let (_, agg) = per_site
            .iter_mut()
            .find(|(site, _)| *site == trial.site)
            .expect("every trial's site is one of the campaign's sites");
        fold_trial(agg, trial);
    }
    per_site
}

/// Arms every fault of `plan` on a fresh system for one attempt, the
/// main-core strikes expanded by [`TrialFaults::strikes`] (a permanent
/// *target* like a stuck-at ALU persists on its own once triggered).
fn arm_plan(sys: &mut PairedSystem, plan: &TrialFaults) {
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

/// Runs one detection-only trial with the plan's faults armed, from the
/// latest golden snapshot the plan allows. The trial ends at its first
/// error ([`PairedSystem::advance_until_error`]): `Detected` outranks every
/// other outcome, and the first error's confirmation time is final once
/// it is recorded (determinism invariant 14).
fn run_trial(
    cfg: &CampaignConfig,
    golden: &Golden,
    plan: &TrialFaults,
    scratch: &mut SimScratch,
) -> (Outcome, Option<Time>) {
    let mut sys = match golden.snapshot_for(plan) {
        Some(snap) => PairedSystem::from_snapshot(snap, scratch),
        None => PairedSystem::new_with_scratch(cfg.system, &golden.program, scratch),
    };
    arm_plan(&mut sys, plan);
    sys.advance_until_error(cfg.instrs - sys.instrs());
    let report = sys.finalize();
    let outcome = if report.detected() {
        let latency = report.first_error().map(|e| e.confirm_time);
        (Outcome::Detected, latency)
    } else if report.crashed {
        (Outcome::Crashed, None)
    } else {
        // No detection: compare final state with golden.
        let regs_differ =
            sys.core().committed_state().first_register_mismatch(&golden.state).is_some();
        let mem_differs = !golden.mem_matches(&sys.hier().data);
        let counts_differ = report.instrs != golden.report.instrs;
        if regs_differ || mem_differs || counts_differ {
            (Outcome::SilentDataCorruption, None)
        } else {
            (Outcome::Masked, None)
        }
    };
    sys.recycle_into(scratch);
    outcome
}

/// Runs one trial under the detect → rollback → re-execute driver and
/// classifies its [`RecoveryDisposition`] against the golden run.
fn run_trial_recover(
    cfg: &CampaignConfig,
    golden: &Golden,
    plan: &TrialFaults,
    policy: &RecoveryPolicy,
    scratch: &mut SimScratch,
) -> (Outcome, Option<Time>, Option<u64>) {
    let start = golden.snapshot_for(plan);
    let r =
        run_recovery_from(&cfg.system, &golden.program, scratch, cfg.instrs, plan, policy, start);
    let matches_golden = r.final_state == golden.state && golden.mem_matches(&r.final_mem);
    let detect_latency = r.detected.then(|| Time::from_fs(r.detect_fs));
    let recovery_fs = (r.retries > 0).then_some(r.recovery_fs);
    let outcome = match r.disposition {
        // No check ever failed: classic undetected classification.
        RecoveryDisposition::Clean if r.crashed => Outcome::Crashed,
        RecoveryDisposition::Clean if matches_golden => Outcome::Masked,
        RecoveryDisposition::Clean => Outcome::SilentDataCorruption,
        // Rolled back and converged: recovery succeeded only if the final
        // state really is the golden one (the crown property); anything
        // else is a silent divergence wearing a recovered label.
        RecoveryDisposition::Recovered if matches_golden => {
            Outcome::Recovered { retries: r.retries }
        }
        RecoveryDisposition::Recovered => Outcome::SilentDataCorruption,
        // Forward progress on the degraded path counts only if it landed
        // on the golden state.
        RecoveryDisposition::Degraded if matches_golden => Outcome::Degraded,
        RecoveryDisposition::Degraded => Outcome::Unrecoverable,
        RecoveryDisposition::Unrecoverable => Outcome::Unrecoverable,
    };
    (outcome, detect_latency, recovery_fs)
}

/// Runs a full campaign: one golden run, then `trials_per_site` faulted
/// runs per site class, in parallel across `PARADET_THREADS` workers with
/// bit-identical results at any thread count.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignResult {
    let golden = prepare_golden(cfg);

    // One work item per (site, trial), in reporting order. Trial cost is
    // wildly uneven (a crash ends a run early; an SDC runs to the budget
    // plus a full state diff); `par_map` claims one trial at a time.
    let points = crate::shard::grid_points(&cfg.sites, cfg.trials_per_site);
    let trials: Vec<TrialResult> =
        paradet_par::par_map(&points, SimScratch::new, |scratch, _, &(site, t)| {
            run_point(cfg, &golden, site, t, scratch)
        });

    let per_site = aggregate(&cfg.sites, trials.iter());
    CampaignResult { trials, per_site }
}

/// Exercises §IV-I over-detection: corrupts a log entry inside the
/// detection hardware on otherwise-clean runs; returns
/// `(false_positives, trials)`. Every false positive is an error report
/// with a perfectly healthy main core. Trials run in parallel with the same
/// per-trial seeding scheme (and so the same thread-count independence) as
/// [`run_campaign`].
pub fn run_overdetection_trials(cfg: &CampaignConfig, trials: u64) -> (u64, u64) {
    let program = Arc::new(cfg.workload.build(cfg.workload.iters_for_instrs(cfg.instrs)));
    let idx: Vec<u64> = (0..trials).collect();
    let detected = paradet_par::par_map(&idx, SimScratch::new, |scratch, _, &t| {
        let mut rng = StdRng::seed_from_u64(derive_seed(cfg.seed, OVERDETECTION_STREAM, t));
        let mut sys = PairedSystem::new_with_scratch(cfg.system, &program, scratch);
        sys.arm_log_fault(rng.gen_range(0..4), rng.gen_range(0..64), rng.gen_range(0..64));
        let report = sys.run(cfg.instrs);
        let fp = report.detected();
        sys.recycle_into(scratch);
        fp
    });
    (detected.iter().filter(|&&fp| fp).count() as u64, trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign(sites: Vec<FaultSite>, trials: u64) -> CampaignResult {
        let cfg = CampaignConfig {
            instrs: 4_000,
            trials_per_site: trials,
            sites,
            ..CampaignConfig::default()
        };
        run_campaign(&cfg)
    }

    #[test]
    fn store_value_faults_are_always_caught() {
        let r = small_campaign(vec![FaultSite::StoreValue], 8);
        let (_, s) = r.per_site[0];
        assert_eq!(s.sdc, 0, "store-value faults must never be SDC");
        assert!(s.coverage() >= 1.0 - 1e-9);
    }

    #[test]
    fn store_addr_faults_are_always_caught() {
        let r = small_campaign(vec![FaultSite::StoreAddr], 8);
        let (_, s) = r.per_site[0];
        assert_eq!(s.sdc, 0);
    }

    #[test]
    fn load_value_faults_are_caught_with_lfu() {
        let r = small_campaign(vec![FaultSite::LoadValue], 8);
        let (_, s) = r.per_site[0];
        assert_eq!(s.sdc, 0, "the LFU must close the load window");
    }

    #[test]
    fn load_capture_faults_escape_without_lfu() {
        // The ablation: naive commit-time forwarding lets pre-capture
        // corruption through as SDC.
        let cfg = CampaignConfig {
            system: SystemConfig { lfu_enabled: false, ..SystemConfig::paper_default() },
            instrs: 4_000,
            trials_per_site: 8,
            sites: vec![FaultSite::LoadCapture],
            ..CampaignConfig::default()
        };
        let r = run_campaign(&cfg);
        let (_, s) = r.per_site[0];
        assert!(s.sdc > 0, "without the LFU some pre-capture load faults must escape: {s:?}");
    }

    #[test]
    fn int_reg_faults_have_high_coverage() {
        let r = small_campaign(vec![FaultSite::IntReg], 10);
        let (_, s) = r.per_site[0];
        assert_eq!(s.sdc, 0, "unmasked register faults must be detected: {s:?}");
    }

    #[test]
    fn overdetection_reports_false_positives() {
        let cfg = CampaignConfig { instrs: 4_000, ..CampaignConfig::default() };
        let (fp, n) = run_overdetection_trials(&cfg, 6);
        // Most corrupted entries surface as (false) errors; a flipped bit
        // can occasionally be architecturally dead by segment end (e.g. the
        // high bits of a value whose low bits alone feed later addresses),
        // in which case the replay still validates.
        assert!(fp * 2 >= n, "expected mostly false positives, got {fp}/{n}");
        assert!(fp >= 1);
    }

    #[test]
    fn multi_bit_upsets_flip_distinct_bits() {
        for seed in [1, 7, 42, 1234] {
            for trial in 0..1_000 {
                let plan =
                    trial_plan(seed, FaultSite::IntRegMulti, trial, 20_000, FaultKind::Transient);
                let mut bits: Vec<u8> = plan
                    .core
                    .iter()
                    .map(|f| match f.target {
                        FaultTarget::IntRegBit { bit, .. } => bit,
                        other => panic!("seed {seed} trial {trial}: {other:?}"),
                    })
                    .collect();
                assert!((2..=3).contains(&bits.len()), "seed {seed} trial {trial}: {bits:?}");
                bits.sort_unstable();
                bits.dedup();
                assert_eq!(bits.len(), plan.core.len(), "seed {seed} trial {trial} repeats a bit");
            }
        }
    }

    /// Invariant 13 at the campaign level: every trial classifies the same
    /// whether it starts from a golden snapshot or from scratch, for every
    /// site, fault kind, and detection-only or recovery campaigns.
    #[test]
    fn trials_from_snapshots_match_trials_from_scratch() {
        let kinds = [
            FaultKind::Transient,
            FaultKind::Intermittent { period: 40, count: 3 },
            FaultKind::Permanent,
        ];
        let configs =
            kinds.into_iter().flat_map(|k| [(k, None), (k, Some(RecoveryPolicy::default()))]);
        for (seed, (kind, recovery)) in configs.enumerate() {
            let cfg = CampaignConfig {
                instrs: 3_000,
                sites: FaultSite::extended().to_vec(),
                fault_kind: kind,
                recovery,
                seed: seed as u64,
                ..CampaignConfig::default()
            };
            let golden = prepare_golden(&cfg);
            assert_eq!(golden.snapshots.len(), 4);
            let scratch_only = Golden { snapshots: Vec::new(), ..prepare_golden(&cfg) };
            let mut scratch = SimScratch::new();
            for site in FaultSite::extended() {
                for trial in 0..2 {
                    let resumed = run_point(&cfg, &golden, site, trial, &mut scratch);
                    let fresh = run_point(&cfg, &scratch_only, site, trial, &mut scratch);
                    assert_eq!(
                        format!("{resumed:?}"),
                        format!("{fresh:?}"),
                        "{site:?}/{trial} {kind:?} recovery={}",
                        cfg.recovery.is_some()
                    );
                }
            }
        }
    }

    /// A detection trial run from scratch to its full budget and
    /// classified against the golden run — the reference for a trial that
    /// ends at its first error.
    fn full_budget_trial(
        cfg: &CampaignConfig,
        golden: &Golden,
        site: FaultSite,
        trial: u64,
    ) -> TrialResult {
        let plan = trial_plan(cfg.seed, site, trial, cfg.instrs, cfg.fault_kind);
        let mut sys = PairedSystem::new_shared(cfg.system, &golden.program);
        arm_plan(&mut sys, &plan);
        let report = sys.run(cfg.instrs);
        let (outcome, detect_latency) = if report.detected() {
            (Outcome::Detected, report.first_error().map(|e| e.confirm_time))
        } else if report.crashed {
            (Outcome::Crashed, None)
        } else if sys.core().committed_state().first_register_mismatch(&golden.state).is_some()
            || !golden.mem_matches(&sys.hier().data)
            || report.instrs != golden.report.instrs
        {
            (Outcome::SilentDataCorruption, None)
        } else {
            (Outcome::Masked, None)
        };
        TrialResult { site, trial, outcome, detect_latency, recovery_fs: None }
    }

    /// Invariant 14's detection cut: a trial that ends at its first error
    /// classifies exactly like one run to the full budget, for every
    /// site and fault kind.
    #[test]
    fn trials_ended_at_the_first_error_match_full_runs() {
        let kinds = [
            FaultKind::Transient,
            FaultKind::Intermittent { period: 40, count: 3 },
            FaultKind::Permanent,
        ];
        let mut detected = 0;
        for (seed, kind) in kinds.into_iter().enumerate() {
            let cfg = CampaignConfig {
                instrs: 3_000,
                sites: FaultSite::extended().to_vec(),
                fault_kind: kind,
                seed: seed as u64,
                ..CampaignConfig::default()
            };
            let golden = prepare_golden(&cfg);
            let mut scratch = SimScratch::new();
            for site in FaultSite::extended() {
                for trial in 0..4 {
                    let early = run_point(&cfg, &golden, site, trial, &mut scratch);
                    let full = full_budget_trial(&cfg, &golden, site, trial);
                    assert_eq!(
                        format!("{early:?}"),
                        format!("{full:?}"),
                        "{site:?}/{trial} {kind:?}"
                    );
                    detected += u32::from(early.outcome == Outcome::Detected);
                }
            }
        }
        assert!(detected >= 40, "only {detected} of 156 trials detected");
    }

    /// The golden snapshots of the default detection and recovery
    /// campaigns stay far below the ~5 MB dense clones would cost.
    #[test]
    fn golden_snapshots_are_compact() {
        let detect = CampaignConfig::default();
        let recover = CampaignConfig {
            fault_kind: FaultKind::Intermittent { period: 40, count: 3 },
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        };
        for (name, cfg) in [("detect", detect), ("recover", recover)] {
            let golden = prepare_golden(&cfg);
            let own: Vec<usize> = golden.snapshots.iter().map(SystemSnapshot::bytes).collect();
            let shared = SystemSnapshot::shared_bytes(&golden.snapshots);
            let total = own.iter().sum::<usize>() + shared;
            println!(
                "{name}: {} snapshots at {:?} instrs; bytes per snapshot {own:?}; \
                 shared in-flight inputs {shared}; total {total}; golden memory diff {}",
                own.len(),
                golden.snapshots.iter().map(SystemSnapshot::instrs).collect::<Vec<_>>(),
                golden.mem.bytes()
            );
            assert_eq!(own.len(), 4);
            assert!(total < 1 << 20, "{name}: snapshots hold {total} B");
        }
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = small_campaign(vec![FaultSite::StoreValue], 4);
        let b = small_campaign(vec![FaultSite::StoreValue], 4);
        for (x, y) in a.trials.iter().zip(b.trials.iter()) {
            assert_eq!(x.outcome, y.outcome);
        }
    }
}
