//! The campaign-as-a-service layer: resumable shard execution and the
//! merge that folds shard checkpoints back into a one-shot-identical
//! [`CampaignResult`].
//!
//! Determinism contract (invariant 8 in ARCHITECTURE.md): for any shard
//! count, interruption schedule, and resume sequence,
//!
//! ```text
//! merge(shard 0/n, …, shard n−1/n)  ≡  run_campaign(cfg)
//! ```
//!
//! bit for bit — same `TrialResult`s in the same grid order, same per-site
//! aggregates, same rendered coverage table. The proof obligations:
//!
//! * each trial is a pure function of `(config, site, trial)`
//!   ([`run_point`](crate::campaign)), so *where/when* it runs is
//!   invisible;
//! * the partitioner's slices are disjoint and cover the grid
//!   ([`shard_points`]);
//! * checkpoints are written atomically, so a kill leaves a valid prefix
//!   of the slice and resume recomputes only the suffix;
//! * the checkpoint reader ([`read_checkpoint_on`]) accepts only a prefix
//!   of the shard's slice and rebuilds each trial's fault, and the merge
//!   places the `j`-th trial of shard `i/n` at grid index `i + j·n`
//!   ([`ShardSpec::point`]) and aggregates with the same fold as the
//!   one-shot path ([`aggregate`](crate::campaign)).
//!
//! Both merges take one walk over the shards; the strict one refuses any
//! shard the walk could not fill, the partial one accounts for it.
//!
//! Invariant 12 strengthens this under *injected I/O faults* (see
//! [`chaosfs`](crate::chaosfs) and [`supervisor`](crate::supervisor)):
//! whatever a scripted chaos run does to the store, a supervised campaign
//! either merges byte-identical to the one-shot golden or fails with a
//! typed [`StoreError`] / an explicit [`merge_campaign_partial_on`] — never
//! a silently wrong table. CI enforces both contracts on every push
//! (`campaign-shard` and `campaign-chaos` jobs).

use crate::campaign::{
    aggregate, prepare_golden, run_point, CampaignConfig, CampaignResult, SiteResult, TrialResult,
};
use crate::shard::{shard_points, ShardSpec};
use crate::store::{
    ensure_manifest_on, read_checkpoint_on, read_manifest_on, read_status_on, real_fs,
    sweep_stale_tmp_on, write_checkpoint_on, write_status_on, DynFs, Manifest, ShardLock,
    StoreError,
};
use paradet_core::SimScratch;
use paradet_stats::{wilson_interval, Table};
use std::path::Path;

/// How a shard run should execute.
#[derive(Debug, Clone, Copy)]
pub struct ShardRunOptions {
    /// Which slice of the grid this process owns.
    pub shard: ShardSpec,
    /// Checkpoint (and heartbeat) after this many completed trials.
    pub checkpoint_every: u64,
    /// Continue from an existing checkpoint. A stale lock from a *dead*
    /// owner is taken over (and resumed) automatically either way; this
    /// flag is only needed to re-enter a directory whose shard finished
    /// or exited cleanly.
    pub resume: bool,
}

impl Default for ShardRunOptions {
    fn default() -> ShardRunOptions {
        ShardRunOptions { shard: ShardSpec::SOLO, checkpoint_every: 25, resume: false }
    }
}

/// What a completed (or resumed-to-completion) shard run did.
#[derive(Debug, Clone, Copy)]
pub struct ShardRunSummary {
    /// Trials already in the checkpoint when the run started.
    pub resumed_from: u64,
    /// Trials completed by the end of the run (== `total`).
    pub done: u64,
    /// Trials in this shard's slice.
    pub total: u64,
}

/// Runs (or resumes) one shard of `cfg` in `dir` through `fs`,
/// checkpointing every `opts.checkpoint_every` trials.
/// `on_checkpoint(done, total)` fires after each checkpoint write — the
/// campaign's own fault-injection harness uses it to abort the process
/// mid-run and prove resume determinism.
///
/// On entry the shard lock is taken (a dead owner's stale lock — gone
/// pid, or a pid the kernel recycled onto a different process — is taken
/// over automatically and treated as an implicit resume), then stranded
/// `*.tmp` staging files are swept.
///
/// # Errors
///
/// Fails if the directory's manifest or checkpoint fingerprints don't
/// match `cfg` (see [`StoreError::FingerprintMismatch`]), if a store file
/// fails verification, if the shard's lock is held by a live process, if a
/// finished checkpoint exists and `opts.resume` is not set, or on I/O.
pub fn run_campaign_shard_on(
    fs: &DynFs,
    dir: &Path,
    cfg: &CampaignConfig,
    opts: &ShardRunOptions,
    mut on_checkpoint: impl FnMut(u64, u64),
) -> Result<ShardRunSummary, StoreError> {
    let manifest = ensure_manifest_on(fs.as_ref(), dir, cfg, opts.shard.count())?;
    let (_lock, took_over_dead) = ShardLock::acquire_on(fs, dir, opts.shard)?;
    sweep_stale_tmp_on(fs.as_ref(), dir);
    // A dead owner's lock means a kill mid-slice: resuming its checkpoint
    // is the only correct continuation, no flag ceremony required.
    let resume = opts.resume || took_over_dead;

    let points = shard_points(&cfg.sites, cfg.trials_per_site, opts.shard);
    let total = points.len() as u64;

    let mut trials = match read_checkpoint_on(fs.as_ref(), dir, &manifest, opts.shard)? {
        Some(existing) if resume => existing,
        Some(_) => {
            return Err(StoreError::Locked(format!(
                "checkpoint for shard {} already exists in {}; pass --resume to continue it \
                 (or use a fresh directory)",
                opts.shard,
                dir.display()
            )))
        }
        None => Vec::new(),
    };
    let resumed_from = trials.len() as u64;
    write_status_on(fs.as_ref(), dir, opts.shard, "running", resumed_from, total)?;

    if resumed_from < total {
        let golden = prepare_golden(cfg);
        let every = opts.checkpoint_every.max(1) as usize;
        while trials.len() < points.len() {
            let at = trials.len();
            let chunk = &points[at..(at + every).min(points.len())];
            // par_map is order-preserving: batch[j] is chunk[j]'s result.
            let batch = paradet_par::par_map(chunk, SimScratch::new, |scratch, _, &(site, t)| {
                run_point(cfg, &golden, site, t, scratch)
            });
            trials.extend(batch);
            let done = trials.len() as u64;
            write_checkpoint_on(fs.as_ref(), dir, &manifest, opts.shard, &trials)?;
            write_status_on(fs.as_ref(), dir, opts.shard, "running", done, total)?;
            on_checkpoint(done, total);
        }
    } else {
        // Nothing left (a resume of a finished shard): still refresh the
        // checkpoint so the file exists even for an empty slice.
        write_checkpoint_on(fs.as_ref(), dir, &manifest, opts.shard, &trials)?;
    }
    write_status_on(fs.as_ref(), dir, opts.shard, "done", total, total)?;
    Ok(ShardRunSummary { resumed_from, done: total, total })
}

/// The one walk both merges take: reads `dir`'s manifest (refused unless
/// it describes `expect`, when given), then each shard's checkpoint under
/// it. `per_shard` sees each shard in order with its slice length and what
/// reading its checkpoint gave — `Ok(None)` when it has none,
/// `Ok(Some(done))` for a verified prefix of `done` trials — and an error
/// it returns ends the walk. Returns the manifest and the trials the
/// checkpoints supplied, in grid order.
fn walk_shards(
    fs: &DynFs,
    dir: &Path,
    expect: Option<&CampaignConfig>,
    mut per_shard: impl FnMut(ShardSpec, u64, Result<Option<u64>, StoreError>) -> Result<(), StoreError>,
) -> Result<(Manifest, Vec<TrialResult>), StoreError> {
    let manifest = read_manifest_on(fs.as_ref(), dir)?;
    if let Some(cfg) = expect {
        manifest.check_config(dir, cfg)?;
    }
    let mut slices = Vec::new();
    for i in 0..manifest.shards {
        let shard = ShardSpec::new(i, manifest.shards);
        let total = shard.slice_len(manifest.grid_len());
        let (read, trials) = match read_checkpoint_on(fs.as_ref(), dir, &manifest, shard) {
            Ok(Some(trials)) => (Ok(Some(trials.len() as u64)), trials),
            Ok(None) => (Ok(None), Vec::new()),
            Err(e) => (Err(e), Vec::new()),
        };
        per_shard(shard, total, read)?;
        slices.push(trials.into_iter());
    }
    // Shard i/n's j-th trial is at grid index i + j·n, so row j of every
    // shard in turn is the next stretch of the grid.
    let mut trials = Vec::new();
    loop {
        let before = trials.len();
        trials.extend(slices.iter_mut().filter_map(Iterator::next));
        if trials.len() == before {
            return Ok((manifest, trials));
        }
    }
}

/// Merges every shard checkpoint in `dir` into the campaign result,
/// byte-identical to [`run_campaign`](crate::run_campaign) on the same
/// configuration.
///
/// With `expect`, the directory's manifest fingerprint must match the
/// expected configuration — merging a directory from a different campaign
/// (other seed, workload, fault model, or trial count) is refused with
/// [`StoreError::FingerprintMismatch`] rather than producing a plausible
/// but wrong table.
///
/// # Errors
///
/// Also fails if any shard checkpoint is missing or incomplete (the error
/// names the shard to resume) or if any store file fails verification. For
/// a best-effort render of an incomplete campaign, use
/// [`merge_campaign_partial_on`] instead.
pub fn merge_campaign_on(
    fs: &DynFs,
    dir: &Path,
    expect: Option<&CampaignConfig>,
) -> Result<(Manifest, CampaignResult), StoreError> {
    let (manifest, trials) = walk_shards(fs, dir, expect, |shard, total, read| match read? {
        None => Err(StoreError::Incomplete(format!(
            "shard {shard} has no checkpoint in {} — run it first",
            dir.display()
        ))),
        Some(done) if done < total => Err(StoreError::Incomplete(format!(
            "shard {shard} has {done}/{total} trials — resume it before merging"
        ))),
        Some(_) => Ok(()),
    })?;
    assert_eq!(
        trials.len() as u64,
        manifest.grid_len(),
        "complete shards fill the grid: their slices partition it"
    );
    let per_site = aggregate(&manifest.sites, trials.iter());
    Ok((manifest, CampaignResult { trials, per_site }))
}

/// One shard's contribution to a partial merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCompleteness {
    /// The shard.
    pub shard: ShardSpec,
    /// Trials this shard's checkpoint contributed.
    pub done: u64,
    /// Trials in the shard's slice.
    pub total: u64,
    /// `done`, `partial`, `degraded` (the supervisor quarantined it),
    /// `missing` (no checkpoint), or `corrupt` (checkpoint refused —
    /// contributes nothing rather than risk a wrong table).
    pub state: String,
}

/// A best-effort merge of an incomplete campaign, with explicit per-shard
/// completeness accounting. Unlike [`merge_campaign_on`] this never
/// refuses for missing trials: absent grid points simply don't count, and
/// the caller renders *how much* of the campaign the table reflects.
#[derive(Debug)]
pub struct PartialMerge {
    /// The directory's manifest.
    pub manifest: Manifest,
    /// Per-shard accounting, shard order.
    pub completeness: Vec<ShardCompleteness>,
    /// The merged result over the populated grid points only.
    pub result: CampaignResult,
    /// Grid points populated.
    pub completed: u64,
    /// Grid size.
    pub grid: u64,
}

impl PartialMerge {
    /// Whether every grid point was populated (the partial merge of a
    /// complete campaign — its tables match [`merge_campaign_on`]'s
    /// exactly).
    pub fn is_complete(&self) -> bool {
        self.completed == self.grid
    }
}

/// Merges whatever shard checkpoints `dir` holds, however incomplete —
/// the explicit hand-off target when a supervised campaign quarantines a
/// shard as degraded.
///
/// Per shard: a missing checkpoint contributes nothing (`missing`); a
/// checkpoint that is refused (corrupt, off its slice, foreign
/// fingerprint, wrong schema) contributes nothing (`corrupt`) — a partial
/// table must still never include a record that failed verification; a
/// valid prefix contributes its records (`partial`/`done`, or the status
/// heartbeat's `degraded` tag when the supervisor quarantined the shard).
///
/// # Errors
///
/// Only an unreadable/foreign manifest (the directory's identity) is
/// fatal; everything below it degrades to accounting.
pub fn merge_campaign_partial_on(
    fs: &DynFs,
    dir: &Path,
    expect: Option<&CampaignConfig>,
) -> Result<PartialMerge, StoreError> {
    let mut completeness = Vec::new();
    let (manifest, trials) = walk_shards(fs, dir, expect, |shard, total, read| {
        let (done, state) = match read {
            Ok(Some(done)) if done == total => (done, "done"),
            Ok(Some(done)) => (done, "partial"),
            Ok(None) => (0, "missing"),
            Err(_) => (0, "corrupt"),
        };
        // The supervisor's quarantine verdict (in the status heartbeat)
        // outranks the generic "partial" and "missing" labels.
        let degraded = matches!(state, "partial" | "missing")
            && read_status_on(fs.as_ref(), dir, shard).is_some_and(|s| s.state == "degraded");
        let state = if degraded { "degraded" } else { state };
        completeness.push(ShardCompleteness { shard, done, total, state: state.to_string() });
        Ok(())
    })?;
    let per_site = aggregate(&manifest.sites, trials.iter());
    Ok(PartialMerge {
        completeness,
        completed: trials.len() as u64,
        grid: manifest.grid_len(),
        manifest,
        result: CampaignResult { trials, per_site },
    })
}

/// Runs every shard of `cfg` (serially, in this process) into `dir`, then
/// merges: the sharded store path end to end, for tests that compare it
/// with the one-shot [`run_campaign`](crate::run_campaign).
pub fn run_campaign_sharded(
    cfg: &CampaignConfig,
    shards: u32,
    dir: &Path,
) -> Result<CampaignResult, StoreError> {
    let fs = real_fs();
    for i in 0..shards {
        let opts = ShardRunOptions { shard: ShardSpec::new(i, shards), ..Default::default() };
        run_campaign_shard_on(&fs, dir, cfg, &opts, |_, _| {})?;
    }
    Ok(merge_campaign_on(&fs, dir, Some(cfg))?.1)
}

/// Formats the 95% Wilson interval on `successes/trials` as a percentage
/// range: the interval cell of every coverage row, and of the
/// `fault_coverage` experiment's over-detection row.
pub fn ci95(successes: u64, trials: u64) -> String {
    let (lo, hi) = wilson_interval(successes, trials, 1.96);
    format!("[{:.0}%, {:.0}%]", lo * 100.0, hi * 100.0)
}

/// The column headers of a coverage table (shared with the
/// `fault_coverage` experiment so every producer agrees byte-for-byte).
pub const COVERAGE_HEADER: [&str; 9] = [
    "workload",
    "site",
    "trials",
    "detected",
    "crashed",
    "SDC",
    "masked",
    "coverage",
    "cov 95% CI",
];

/// One coverage row: counts, the point rate, and its 95% Wilson interval
/// over unmasked faults. The single source of the cell formatting — the
/// one-shot experiment table, `campaignd --one-shot`, and `campaign-merge`
/// all render through here, which is what makes "merged table ≡ one-shot
/// table" a byte-level statement.
pub fn coverage_cells(label: &str, site: &str, s: &SiteResult) -> Vec<String> {
    let unmasked = s.trials - s.masked;
    vec![
        label.to_string(),
        site.to_string(),
        s.trials.to_string(),
        s.detected.to_string(),
        s.crashed.to_string(),
        s.sdc.to_string(),
        s.masked.to_string(),
        format!("{:.0}%", s.coverage() * 100.0),
        ci95(s.detected_family(), unmasked),
    ]
}

/// Renders a campaign's per-site coverage as the standard table.
pub fn coverage_table(label: &str, result: &CampaignResult) -> Table {
    coverage_table_titled("Fault-injection coverage (per unmasked fault)", label, result)
}

fn coverage_table_titled(title: &str, label: &str, result: &CampaignResult) -> Table {
    let mut t = Table::new(title, &COVERAGE_HEADER);
    for (site, s) in &result.per_site {
        t.row(&coverage_cells(label, site.name(), s));
    }
    t
}

/// The column headers of a recovery (coverage-by-fault-class) table —
/// shared by the `recovery` experiment, `campaignd`, and `campaign-merge`
/// so every producer agrees byte-for-byte.
pub const RECOVERY_HEADER: [&str; 12] = [
    "workload",
    "kind",
    "site",
    "trials",
    "recovered",
    "degraded",
    "unrecov",
    "crashed",
    "SDC",
    "masked",
    "coverage",
    "mean retries",
];

/// One recovery row: per-class recovery dispositions and the mean retry
/// count over recovered trials. The single source of the cell formatting,
/// for the same byte-identity reason as [`coverage_cells`].
pub fn recovery_cells(label: &str, kind: &str, site: &str, s: &SiteResult) -> Vec<String> {
    let mean_retries = if s.recovered == 0 {
        "-".to_string()
    } else {
        format!("{:.2}", s.retries_sum as f64 / s.recovered as f64)
    };
    vec![
        label.to_string(),
        kind.to_string(),
        site.to_string(),
        s.trials.to_string(),
        s.recovered.to_string(),
        s.degraded.to_string(),
        s.unrecoverable.to_string(),
        s.crashed.to_string(),
        s.sdc.to_string(),
        s.masked.to_string(),
        format!("{:.0}%", s.coverage() * 100.0),
        mean_retries,
    ]
}

/// Renders a recovery campaign's per-site dispositions as the standard
/// coverage-by-fault-class table.
pub fn recovery_table(label: &str, kind: &str, result: &CampaignResult) -> Table {
    recovery_table_titled(
        "Fault recovery by class (detect → rollback → re-execute)",
        label,
        kind,
        result,
    )
}

fn recovery_table_titled(title: &str, label: &str, kind: &str, result: &CampaignResult) -> Table {
    let mut t = Table::new(title, &RECOVERY_HEADER);
    for (site, s) in &result.per_site {
        t.row(&recovery_cells(label, kind, site.name(), s));
    }
    t
}

/// The column headers of the per-shard completeness table a partial merge
/// prints alongside its coverage.
pub const COMPLETENESS_HEADER: [&str; 5] = ["shard", "done", "total", "pct", "state"];

/// Renders a partial merge's per-shard accounting. The `state` column
/// makes the merge's honesty explicit: a `degraded`/`missing`/`corrupt`
/// shard is *named*, not papered over.
pub fn completeness_table(partial: &PartialMerge) -> Table {
    let mut t = Table::new("Shard completeness", &COMPLETENESS_HEADER);
    for c in &partial.completeness {
        let pct = if c.total == 0 {
            "100%".to_string()
        } else {
            format!("{:.0}%", c.done as f64 / c.total as f64 * 100.0)
        };
        t.row(&[
            c.shard.to_string(),
            c.done.to_string(),
            c.total.to_string(),
            pct,
            c.state.clone(),
        ]);
    }
    t
}

/// Renders a campaign result with the table family its manifest calls
/// for — the single render path of `campaignd` (one-shot and supervised),
/// `campaign-merge`, and the chaos harness, so "merged table ≡ one-shot
/// table" stays a byte-level statement.
pub fn merged_table(manifest: &Manifest, result: &CampaignResult) -> Table {
    manifest_table(manifest, result, false)
}

/// Renders a partial merge's coverage (or recovery) table. Complete
/// campaigns render with the standard titles — byte-identical to
/// [`merge_campaign_on`]'s output — while genuinely partial ones carry a
/// `PARTIAL` marker in the title so a truncated table can never pass as a
/// full campaign downstream.
pub fn partial_result_table(partial: &PartialMerge) -> Table {
    manifest_table(&partial.manifest, &partial.result, !partial.is_complete())
}

/// The coverage table of a detection-only campaign, or the by-class table
/// of a recovery one; its `kind` cell is the lowercased head of the
/// manifest's `Debug` form of the fault kind, which is what
/// `FaultKind::name()` returns.
fn manifest_table(manifest: &Manifest, result: &CampaignResult, partial: bool) -> Table {
    let label = &manifest.workload;
    if manifest.recovery == "None" {
        return match partial {
            false => coverage_table(label, result),
            true => coverage_table_titled(
                "PARTIAL fault-injection coverage (incomplete campaign)",
                label,
                result,
            ),
        };
    }
    let kind = manifest.fault_kind.split_whitespace().next().unwrap_or_default();
    let kind = kind.to_ascii_lowercase();
    match partial {
        false => recovery_table(label, &kind, result),
        true => recovery_table_titled(
            "PARTIAL fault recovery by class (incomplete campaign)",
            label,
            &kind,
            result,
        ),
    }
}
