//! The on-disk campaign store: manifest, per-shard checkpoints, status
//! heartbeats, and lock files.
//!
//! Layout of a campaign directory:
//!
//! ```text
//! <dir>/
//!   run_manifest.json        config fingerprint + shard spec (one per run)
//!   shard-0-of-2.jsonl       shard 0's checkpoint: header + one line/trial
//!   shard-1-of-2.jsonl       shard 1's checkpoint
//!   status-shard-0.json      shard 0's heartbeat (progress, state)
//!   shard-0.lock             present while shard 0 runs (or died running)
//! ```
//!
//! Every file is written atomically (full rewrite to a pid-tagged `.tmp`
//! sibling, then rename), so a `SIGKILL` at any instant leaves either the
//! previous complete checkpoint or the new complete checkpoint — never a
//! torn file. A killed shard loses at most `checkpoint_every − 1` trials
//! of work; because trials are pure in `(seed, site, trial)`, re-running
//! them on resume reproduces the identical results.
//!
//! Every reader verifies what it reads, because the filesystem under it
//! may not keep that promise. The manifest's fingerprint is a digest of
//! the manifest's own fields and the file must be exactly what those
//! fields render to, so a torn or edited manifest is refused. Each
//! checkpoint line carries its own checksum, and [`read_checkpoint_on`]
//! checks the records against the shard's slice of the grid. A heartbeat
//! that is not exactly what [`write_status_on`] writes reads as absent.
//!
//! # The filesystem seam ([`StoreFs`])
//!
//! Every filesystem operation the store performs — atomic writes,
//! checkpoint reads, lock acquire/release, status heartbeats, the tmp
//! sweep — goes through the [`StoreFs`] trait. Production uses [`RealFs`];
//! the chaos harness ([`crate::chaosfs::ChaosFs`]) substitutes a scripted
//! fault-injecting implementation, which is how the campaign service's own
//! robustness claims (determinism invariant 12) are tested
//! deterministically: torn writes, failed renames, EIO/ENOSPC, lost lock
//! removals, and stale heartbeats all replay bit-identically from a
//! `(seed, script)` pair.
//!
//! The workspace is deliberately dependency-free (no serde); the JSON here
//! is hand-rendered and hand-scanned.

use crate::campaign::{
    trial_fault, CampaignConfig, FaultSite, Outcome, TrialResult, MIN_CAMPAIGN_INSTRS,
};
use crate::shard::ShardSpec;
use paradet_mem::Time;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema tag of `run_manifest.json`. Bumped to v2 when campaigns grew a
/// fault kind, a recovery policy, and per-trial recovery fields — v1
/// stores are refused with [`StoreError::SchemaVersion`] rather than
/// silently misread (a v1 record has no retry/recovery columns, so a v2
/// merge over it would fabricate zeros).
pub const MANIFEST_SCHEMA: &str = "paradet-campaign-manifest/v2";
/// Schema tag of the checkpoint header line (see [`MANIFEST_SCHEMA`] for
/// the v2 bump; v2 also adds a per-line FNV-1a checksum).
pub const CHECKPOINT_SCHEMA: &str = "paradet-campaign-ckpt/v2";
/// Schema tag of the status heartbeat files.
pub const STATUS_SCHEMA: &str = "paradet-campaign-status/v2";

/// The filesystem operations the campaign store performs, as an
/// object-safe seam.
///
/// [`RealFs`] forwards to `std::fs`; `ChaosFs` (in
/// [`chaosfs`](crate::chaosfs)) wraps it with a deterministic, scripted
/// fault plan. Everything the store and service layers touch on disk goes
/// through this trait, so a chaos run covers the *whole* persistence
/// surface, not a lucky subset.
pub trait StoreFs: fmt::Debug + Send + Sync {
    /// Reads a whole file as UTF-8.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;
    /// Writes (creating or truncating) a whole file.
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()>;
    /// Renames `from` onto `to` (the commit point of an atomic write).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists the entries of a directory (file paths, any order).
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// A shared, dynamically-dispatched [`StoreFs`] — the form the service
/// layer threads around (the lock keeps a clone so its `Drop` can release
/// through the same filesystem it acquired through).
pub type DynFs = Arc<dyn StoreFs>;

/// The production [`StoreFs`]: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl StoreFs for RealFs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        std::fs::write(path, contents)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::read_dir(path)?.map(|e| e.map(|e| e.path())).collect()
    }
}

/// A fresh shared [`RealFs`].
pub fn real_fs() -> DynFs {
    Arc::new(RealFs)
}

/// Errors from the campaign store and the shard/merge service.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The manifest on disk describes a different campaign than the current
    /// invocation — resuming or merging would silently mix incompatible
    /// trial grids, so both refuse.
    FingerprintMismatch {
        /// Fingerprint the current invocation computes.
        expected: String,
        /// Fingerprint recorded on disk.
        found: String,
        /// Which file disagreed and the human-readable config it records.
        detail: String,
    },
    /// A store file exists but cannot be understood.
    Corrupt(String),
    /// A store file was written by a different (typically older) schema
    /// version. Distinct from [`Corrupt`](StoreError::Corrupt): the file
    /// is intact, it just speaks another dialect — re-run the campaign
    /// with the current binaries instead of "repairing" anything.
    SchemaVersion {
        /// Schema tag recorded in the file.
        found: String,
        /// Schema tag this binary writes and reads.
        expected: String,
    },
    /// A lock file says the shard is running in a *live* process, or a
    /// completed shard's checkpoint exists and `--resume` was not given.
    Locked(String),
    /// A merge found a shard with missing trials.
    Incomplete(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "campaign store I/O error: {e}"),
            StoreError::FingerprintMismatch { expected, found, detail } => write!(
                f,
                "config fingerprint mismatch: this invocation is {expected} but {detail} \
                 records {found} — the directory belongs to a different campaign \
                 (seed/workload/fault model/trials differ); use a fresh --dir or rerun \
                 with the original configuration"
            ),
            StoreError::Corrupt(m) => write!(f, "corrupt campaign store: {m}"),
            StoreError::SchemaVersion { found, expected } => write!(
                f,
                "campaign store schema `{found}` is not the supported `{expected}` — \
                 this directory was written by an incompatible paradet version; \
                 re-run the campaign into a fresh --dir"
            ),
            StoreError::Locked(m) => write!(f, "{m}"),
            StoreError::Incomplete(m) => write!(f, "incomplete campaign: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Refuses a store file whose recorded fingerprint `found` is not
/// `expected`: the one place a [`StoreError::FingerprintMismatch`] is
/// built.
fn same_fingerprint(
    expected: &str,
    found: &str,
    detail: impl FnOnce() -> String,
) -> Result<(), StoreError> {
    if expected == found {
        return Ok(());
    }
    Err(StoreError::FingerprintMismatch {
        expected: expected.to_string(),
        found: found.to_string(),
        detail: detail(),
    })
}

/// `run_manifest.json`: the campaign identity a directory serves. Written
/// by the first shard to start; every later shard, resume, and merge
/// validates against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Config fingerprint: the digest of every other field but `shards`
    /// (see [`Manifest::from_config`]).
    pub fingerprint: String,
    /// Campaign RNG seed.
    pub seed: u64,
    /// Workload name.
    pub workload: String,
    /// Dynamic instructions per trial.
    pub instrs: u64,
    /// Trials per site class.
    pub trials_per_site: u64,
    /// Site classes, in grid order.
    pub sites: Vec<FaultSite>,
    /// Number of shards the grid is partitioned into.
    pub shards: u32,
    /// The `SystemConfig`, in its `Debug` form.
    pub system: String,
    /// The temporal fault kind, in its `Debug` form.
    pub fault_kind: String,
    /// The recovery policy, in its `Debug` form: `"None"` for
    /// detection-only campaigns.
    pub recovery: String,
}

impl Manifest {
    /// Builds the manifest a fresh campaign run writes. Its fingerprint is
    /// FNV-1a-64 over the canonical rendering of every field that
    /// determines the trial grid and each trial's result — the site order
    /// fixes grid positions, and `system` covers fault-model ablations such
    /// as `lfu_enabled`. `shards` is left out: how a grid is split changes
    /// no result, and the checkpoints' file names carry the count. A new
    /// per-trial knob in [`CampaignConfig`] must become a manifest field,
    /// or resume and merge would mix incompatible campaigns.
    pub fn from_config(cfg: &CampaignConfig, shards: u32) -> Manifest {
        let mut manifest = Manifest {
            fingerprint: String::new(),
            seed: cfg.seed,
            workload: cfg.workload.name().to_string(),
            instrs: cfg.instrs,
            trials_per_site: cfg.trials_per_site,
            sites: cfg.sites.clone(),
            shards,
            system: format!("{:?}", cfg.system),
            fault_kind: format!("{:?}", cfg.fault_kind),
            recovery: format!("{:?}", cfg.recovery),
        };
        manifest.fingerprint = manifest.digest();
        manifest
    }

    /// The fingerprint these fields call for.
    fn digest(&self) -> String {
        let sites: Vec<&str> = self.sites.iter().map(|s| s.name()).collect();
        fnv1a_hex(&format!(
            "seed={}|workload={}|instrs={}|trials_per_site={}|sites={}|system={}|\
             fault_kind={}|recovery={}",
            self.seed,
            self.workload,
            self.instrs,
            self.trials_per_site,
            sites.join(","),
            self.system,
            self.fault_kind,
            self.recovery,
        ))
    }

    /// Points in the campaign grid, `sites × trials_per_site`: a parsed
    /// manifest's always fit a u64.
    pub(crate) fn grid_len(&self) -> u64 {
        (self.sites.len() as u64).saturating_mul(self.trials_per_site)
    }

    /// Refuses unless this manifest, read from `dir`, describes `cfg`.
    pub(crate) fn check_config(&self, dir: &Path, cfg: &CampaignConfig) -> Result<(), StoreError> {
        let mine = Manifest::from_config(cfg, self.shards);
        same_fingerprint(&mine.fingerprint, &self.fingerprint, || {
            format!(
                "{} (workload={}, seed={}, instrs={}, trials_per_site={})",
                manifest_path(dir).display(),
                self.workload,
                self.seed,
                self.instrs,
                self.trials_per_site
            )
        })
    }

    fn render(&self) -> String {
        let sites = self.sites.iter().map(|s| format!("\"{}\"", s.name())).collect::<Vec<_>>();
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"fingerprint\": \"{}\",\n  \"seed\": {},\n  \
             \"workload\": \"{}\",\n  \"instrs\": {},\n  \"trials_per_site\": {},\n  \
             \"sites\": [{}],\n  \"shards\": {},\n  \"system\": \"{}\",\n  \
             \"fault_kind\": \"{}\",\n  \"recovery\": \"{}\"\n}}\n",
            MANIFEST_SCHEMA,
            json_escape(&self.fingerprint),
            self.seed,
            json_escape(&self.workload),
            self.instrs,
            self.trials_per_site,
            sites.join(", "),
            self.shards,
            json_escape(&self.system),
            json_escape(&self.fault_kind),
            json_escape(&self.recovery),
        )
    }

    /// Parses and verifies a manifest: every field present, `instrs`,
    /// `shards` and the grid size in the range a merge can use, the
    /// fingerprint the digest of the fields, and the text exactly what the
    /// fields render to. A manifest torn or edited anywhere is
    /// [`StoreError::Corrupt`].
    fn parse(text: &str) -> Result<Manifest, StoreError> {
        let schema = str_field(text, "schema")
            .ok_or_else(|| StoreError::Corrupt("manifest has no schema tag".into()))?;
        if schema != MANIFEST_SCHEMA {
            return Err(StoreError::SchemaVersion {
                found: schema,
                expected: MANIFEST_SCHEMA.to_string(),
            });
        }
        let missing = |field: &str| StoreError::Corrupt(format!("manifest missing {field}"));
        let text_of = |field: &str| str_field(text, field).ok_or_else(|| missing(field));
        let number_of = |field: &str| u64_field(text, field).ok_or_else(|| missing(field));
        let sites: Vec<FaultSite> = str_array(text, "sites")
            .into_iter()
            .map(|n| {
                FaultSite::from_name(&n)
                    .ok_or_else(|| StoreError::Corrupt(format!("unknown fault site `{n}`")))
            })
            .collect::<Result<_, _>>()?;
        let instrs = number_of("instrs")?;
        if instrs < MIN_CAMPAIGN_INSTRS {
            return Err(StoreError::Corrupt(format!(
                "manifest instrs {instrs} is below the minimum {MIN_CAMPAIGN_INSTRS}"
            )));
        }
        let shards = number_of("shards")?;
        let shards = u32::try_from(shards).ok().filter(|&n| n > 0).ok_or_else(|| {
            StoreError::Corrupt(format!("manifest shards {shards} is outside 1..={}", u32::MAX))
        })?;
        let trials_per_site = number_of("trials_per_site")?;
        if (sites.len() as u64).checked_mul(trials_per_site).is_none() {
            return Err(StoreError::Corrupt(format!(
                "manifest grid of {} sites x {trials_per_site} trials overflows a u64",
                sites.len()
            )));
        }
        let manifest = Manifest {
            fingerprint: text_of("fingerprint")?,
            seed: number_of("seed")?,
            workload: text_of("workload")?,
            instrs,
            trials_per_site,
            sites,
            shards,
            system: text_of("system")?,
            fault_kind: text_of("fault_kind")?,
            recovery: text_of("recovery")?,
        };
        let digest = manifest.digest();
        if manifest.fingerprint != digest {
            return Err(StoreError::Corrupt(format!(
                "manifest fingerprint {} is not {digest}, the digest of its fields: \
                 the manifest was edited",
                manifest.fingerprint
            )));
        }
        if manifest.render() != text {
            return Err(StoreError::Corrupt(
                "manifest is not the text its fields render to: it is torn or edited".into(),
            ));
        }
        Ok(manifest)
    }
}

/// Path of the manifest inside `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("run_manifest.json")
}

/// Reads and verifies `run_manifest.json` from `dir` through `fs`.
pub fn read_manifest_on(fs: &dyn StoreFs, dir: &Path) -> Result<Manifest, StoreError> {
    let path = manifest_path(dir);
    let text = fs.read_to_string(&path).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            StoreError::Corrupt(format!("no run_manifest.json in {}", dir.display()))
        } else {
            StoreError::Io(e)
        }
    })?;
    Manifest::parse(&text)
}

/// Writes the manifest if absent, or validates the existing one against
/// this invocation (fingerprint and shard count must match). Returns the
/// manifest in force.
pub fn ensure_manifest_on(
    fs: &dyn StoreFs,
    dir: &Path,
    cfg: &CampaignConfig,
    shards: u32,
) -> Result<Manifest, StoreError> {
    fs.create_dir_all(dir)?;
    let path = manifest_path(dir);
    if !fs.exists(&path) {
        let mine = Manifest::from_config(cfg, shards);
        atomic_write_on(fs, &path, &mine.render())?;
        return Ok(mine);
    }
    let found = read_manifest_on(fs, dir)?;
    found.check_config(dir, cfg)?;
    if found.shards != shards {
        return Err(StoreError::Corrupt(format!(
            "{} partitions the grid into {} shards, this invocation says {}",
            path.display(),
            found.shards,
            shards
        )));
    }
    Ok(found)
}

/// Path of shard `shard`'s checkpoint inside `dir`.
pub fn checkpoint_path(dir: &Path, shard: ShardSpec) -> PathBuf {
    dir.join(format!("shard-{}-of-{}.jsonl", shard.index(), shard.count()))
}

/// FNV-1a-64 over `text`, in fixed-width hex: the manifest's fingerprint
/// and each checkpoint line's `crc`.
fn fnv1a_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Appends `line` to `out`, sealed with its checksum as the final `crc`
/// field. `line` must be an open JSON object (no closing brace). The
/// checksum covers everything before `", \"crc\""`, so the reader needs no
/// JSON canonicalization to verify.
fn push_sealed(out: &mut String, line: &str) {
    out.push_str(line);
    out.push_str(", \"crc\": \"");
    out.push_str(&fnv1a_hex(line));
    out.push_str("\"}\n");
}

/// Verifies a sealed line's `crc` field; returns the checksummed prefix
/// (the open JSON object) when intact.
fn check_sealed(line: &str) -> Option<&str> {
    let pos = line.rfind(", \"crc\": \"")?;
    let claim = line[pos..].strip_prefix(", \"crc\": \"")?.strip_suffix("\"}")?;
    let prefix = &line[..pos];
    (claim == fnv1a_hex(prefix)).then_some(prefix)
}

/// Atomically (re)writes shard `shard`'s checkpoint under `manifest`: a
/// header line carrying the schema + fingerprint, then one line per
/// completed trial in slice order — its site, trial index, outcome,
/// latency and recovery cost, not its fault. Every line — header
/// included — is sealed with a FNV-1a checksum so bit rot from non-atomic
/// storage (NFS, torn replication) is caught on read instead of corrupting
/// a resumed campaign.
pub fn write_checkpoint_on(
    fs: &dyn StoreFs,
    dir: &Path,
    manifest: &Manifest,
    shard: ShardSpec,
    trials: &[TrialResult],
) -> Result<(), StoreError> {
    let mut out = String::with_capacity(64 + trials.len() * 96);
    push_sealed(
        &mut out,
        &format!(
            "{{\"schema\": \"{}\", \"fingerprint\": \"{}\", \"shard\": \"{}\"",
            CHECKPOINT_SCHEMA,
            json_escape(&manifest.fingerprint),
            shard
        ),
    );
    for t in trials {
        let mut line = format!(
            "{{\"site\": \"{}\", \"trial\": {}, \"outcome\": \"{}\"",
            t.site.name(),
            t.trial,
            t.outcome.tag()
        );
        if let Some(latency) = t.detect_latency {
            line.push_str(&format!(", \"latency_fs\": {}", latency.as_fs()));
        }
        if let Outcome::Recovered { retries } = t.outcome {
            line.push_str(&format!(", \"retries\": {retries}"));
        }
        if let Some(fs) = t.recovery_fs {
            line.push_str(&format!(", \"recovery_fs\": {fs}"));
        }
        push_sealed(&mut out, &line);
    }
    atomic_write_on(fs, &checkpoint_path(dir, shard), &out)
}

/// Reads shard `shard`'s checkpoint, if present, under `manifest`: the
/// header's fingerprint must be the manifest's, every line must pass its
/// checksum, and the records must be a prefix of the shard's slice of the
/// grid, in slice order. Each trial's fault is rebuilt with
/// [`trial_fault`]: it is pure in `(seed, site, trial)`, which is the whole
/// reason sharding can be bit-identical.
///
/// A checksum failure on the **final** line is treated as a clean
/// truncation (a partial append from foreign storage): the intact prefix
/// is returned and resume recomputes the suffix — trials are pure in
/// `(seed, site, trial)`, so the repaired campaign is bit-identical. A
/// bad line anywhere *else*, an intact line that doesn't parse, or a
/// record off or past the slice is real corruption and is refused.
pub fn read_checkpoint_on(
    fs: &dyn StoreFs,
    dir: &Path,
    manifest: &Manifest,
    shard: ShardSpec,
) -> Result<Option<Vec<TrialResult>>, StoreError> {
    let path = checkpoint_path(dir, shard);
    let text = match fs.read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    };
    let corrupt = |what: String| StoreError::Corrupt(format!("{} {what}", path.display()));
    let all: Vec<&str> = text.lines().collect();
    let header = *all.first().ok_or_else(|| corrupt("is empty".into()))?;
    let schema =
        str_field(header, "schema").ok_or_else(|| corrupt("header has no schema".into()))?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(StoreError::SchemaVersion {
            found: schema,
            expected: CHECKPOINT_SCHEMA.to_string(),
        });
    }
    if check_sealed(header).is_none() {
        return Err(corrupt("header fails its checksum".into()));
    }
    let fp = str_field(header, "fingerprint").unwrap_or_default();
    same_fingerprint(&manifest.fingerprint, &fp, || format!("checkpoint {}", path.display()))?;
    let mut trials = Vec::new();
    for (i, &line) in all.iter().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let Some(body) = check_sealed(line) else {
            if i == all.len() - 1 {
                // Torn tail: the prefix is intact, resume recomputes the
                // rest.
                break;
            }
            return Err(corrupt(format!("line {}: checksum failure mid-file", i + 1)));
        };
        let bad = |what: &str| corrupt(format!("line {}: {what}", i + 1));
        let site = str_field(body, "site")
            .and_then(|n| FaultSite::from_name(&n))
            .ok_or_else(|| bad("no known site"))?;
        let trial = u64_field(body, "trial").ok_or_else(|| bad("no trial"))?;
        let j = trials.len() as u64;
        if shard.point(&manifest.sites, manifest.trials_per_site, j) != Some((site, trial)) {
            return Err(bad(&format!(
                "({}, {trial}) is not point {j} of shard {shard}'s {}-point slice",
                site.name(),
                shard.slice_len(manifest.grid_len())
            )));
        }
        let outcome = match str_field(body, "outcome").and_then(|tag| Outcome::from_tag(&tag)) {
            // The tag drops the retry count; the line's own field restores it.
            Some(Outcome::Recovered { .. }) => Outcome::Recovered {
                retries: u64_field(body, "retries")
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad("recovered without a retry count"))?,
            },
            Some(outcome) => outcome,
            None => return Err(bad("no known outcome")),
        };
        trials.push(TrialResult {
            site,
            trial,
            fault: trial_fault(manifest.seed, site, trial, manifest.instrs),
            outcome,
            detect_latency: u64_field(body, "latency_fs").map(Time::from_fs),
            recovery_fs: u64_field(body, "recovery_fs"),
        });
    }
    Ok(Some(trials))
}

/// Path of shard `shard`'s status heartbeat inside `dir`. The supervisor
/// watches this file's mtime as the liveness signal.
pub fn status_path(dir: &Path, shard: ShardSpec) -> PathBuf {
    dir.join(format!("status-shard-{}.json", shard.index()))
}

/// Atomically writes shard `shard`'s status heartbeat.
pub fn write_status_on(
    fs: &dyn StoreFs,
    dir: &Path,
    shard: ShardSpec,
    state: &str,
    done: u64,
    total: u64,
) -> Result<(), StoreError> {
    let updated_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let status = ShardStatus { state: state.to_string(), done, total, updated_unix };
    atomic_write_on(fs, &status_path(dir, shard), &status.render(shard))
}

/// A parsed status heartbeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// Free-form state tag: `running`, `done`, or `degraded` (written by
    /// the supervisor when it quarantines a shard).
    pub state: String,
    /// Trials completed at the time of the heartbeat.
    pub done: u64,
    /// Trials in the shard's slice.
    pub total: u64,
    /// Unix seconds of the heartbeat (coarse; the supervisor uses file
    /// mtime instead for sub-second staleness detection).
    pub updated_unix: u64,
}

impl ShardStatus {
    /// The heartbeat file of shard `shard` holding this status.
    fn render(&self, shard: ShardSpec) -> String {
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"shard\": \"{}\",\n  \"state\": \"{}\",\n  \
             \"done\": {},\n  \"total\": {},\n  \"updated_unix\": {}\n}}\n",
            STATUS_SCHEMA,
            shard,
            json_escape(&self.state),
            self.done,
            self.total,
            self.updated_unix
        )
    }
}

/// Reads shard `shard`'s status heartbeat, if present. A heartbeat that is
/// not exactly what [`write_status_on`] writes — torn, edited, another
/// schema's or another shard's — reads as `None` rather than an error:
/// heartbeats are advisory (progress display, supervisor bookkeeping),
/// never load-bearing for the merge.
pub fn read_status_on(fs: &dyn StoreFs, dir: &Path, shard: ShardSpec) -> Option<ShardStatus> {
    let text = fs.read_to_string(&status_path(dir, shard)).ok()?;
    let status = ShardStatus {
        state: str_field(&text, "state")?,
        done: u64_field(&text, "done")?,
        total: u64_field(&text, "total")?,
        updated_unix: u64_field(&text, "updated_unix")?,
    };
    (status.render(shard) == text).then_some(status)
}

/// The boot token of a live process: a stable identifier of the process
/// *instance* (not just the pid, which the kernel recycles). On Linux this
/// is the `starttime` field of `/proc/<pid>/stat` — two different
/// processes can share a pid across time, but never a `(pid, starttime)`
/// pair. Returns `None` where unreadable (non-Linux, or the process is
/// gone).
pub fn boot_token_of(pid: u32) -> Option<String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // comm (field 2) is an arbitrary string in parens; everything after
    // the *last* ')' is whitespace-separated fields 3.. — starttime is
    // field 22 overall, index 19 of the remainder.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(19).map(str::to_string)
}

/// Whether process `pid` is live at all (boot token aside). `true` is the
/// conservative answer where `/proc` is unavailable.
fn process_is_live(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    if !Path::new("/proc").exists() {
        return true; // No way to tell; never steal from a maybe-live owner.
    }
    Path::new(&format!("/proc/{pid}")).exists()
}

/// Whether the shard-lock owner `(pid, token)` is a genuinely live
/// process *other than us*.
///
/// * Our own pid → **dead**: a live concurrent process cannot share our
///   pid, so the lock is a leftover of an earlier incarnation in this
///   process (the in-process chaos harness exercises exactly this).
/// * pid gone → dead. pid present but boot token differs → the pid was
///   recycled onto an unrelated process → the *owner* is dead.
/// * Token unreadable/unrecorded → conservatively live (never steal a
///   lock we cannot prove stale).
fn lock_owner_is_live(pid: u32, token: &str) -> bool {
    if pid == std::process::id() {
        return false;
    }
    if !process_is_live(pid) {
        return false;
    }
    if token == "-" {
        return true; // Recorded without a token: cannot prove reuse.
    }
    match boot_token_of(pid) {
        Some(cur) => cur == token,
        // /proc/<pid> exists but stat is unreadable: conservatively live.
        None => true,
    }
}

/// A held per-shard lock file. Dropped on clean completion (the file is
/// removed); a `SIGKILL` leaves the file behind.
///
/// The lock records `pid` **and** the owner's boot token (process start
/// time), so a stale lock is distinguished from a live one by *owner
/// liveness*, not by flags: a lock whose owner is dead — the pid is gone,
/// or was recycled onto a different process instance — is taken over
/// automatically, while a genuinely live owner always refuses, `--resume`
/// or not (two live processes on one shard would race the checkpoint).
#[derive(Debug)]
pub struct ShardLock {
    fs: DynFs,
    path: PathBuf,
}

/// Path of shard `shard`'s lock file inside `dir`.
pub fn lock_path(dir: &Path, shard: ShardSpec) -> PathBuf {
    dir.join(format!("shard-{}.lock", shard.index()))
}

impl ShardLock {
    /// Acquires the lock for `shard` in `dir` through `fs`. Returns the
    /// held lock and whether a dead owner's stale lock was taken over —
    /// the service treats that as an implicit resume (the dead owner left
    /// a checkpoint mid-slice).
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when the recorded owner is a genuinely live
    /// process (see [`boot_token_of`] for how pid reuse is detected).
    pub fn acquire_on(
        fs: &DynFs,
        dir: &Path,
        shard: ShardSpec,
    ) -> Result<(ShardLock, bool), StoreError> {
        let path = lock_path(dir, shard);
        let mut took_over_dead = false;
        if fs.exists(&path) {
            let owner = fs.read_to_string(&path).unwrap_or_default();
            let mut it = owner.split_whitespace();
            let pid: Option<u32> = it.next().and_then(|p| p.parse().ok());
            let token = it.next().unwrap_or("-");
            match pid {
                Some(pid) if lock_owner_is_live(pid, token) => {
                    return Err(StoreError::Locked(format!(
                        "{} is held by live process {pid}: shard {} is already running; \
                         wait for it (or kill it) instead of racing its checkpoint",
                        path.display(),
                        shard
                    )));
                }
                // Dead owner (gone pid, recycled pid, our own earlier
                // incarnation) or unparseable legacy lock: take over.
                _ => took_over_dead = true,
            }
        }
        let token = boot_token_of(std::process::id()).unwrap_or_else(|| "-".to_string());
        fs.write(&path, format!("{} {}\n", std::process::id(), token).as_bytes())?;
        Ok((ShardLock { fs: Arc::clone(fs), path }, took_over_dead))
    }
}

impl Drop for ShardLock {
    fn drop(&mut self) {
        let _ = self.fs.remove_file(&self.path);
    }
}

/// The pid-tagged `.tmp` sibling [`atomic_write_on`] stages into:
/// `<name>.<pid>.tmp`. Tagging with the writer's pid lets the sweep
/// distinguish a *stranded* tmp (owner dead — a kill landed between write
/// and rename) from one a live sibling shard is about to rename.
fn tmp_sibling(path: &Path) -> PathBuf {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    path.with_file_name(format!("{name}.{}.tmp", std::process::id()))
}

/// Writes `contents` to `path` via a pid-tagged `.tmp` sibling + rename,
/// so readers (and a kill at any instant) see either the old file or the
/// new one.
pub fn atomic_write_on(fs: &dyn StoreFs, path: &Path, contents: &str) -> Result<(), StoreError> {
    let tmp = tmp_sibling(path);
    fs.write(&tmp, contents.as_bytes())?;
    fs.rename(&tmp, path)?;
    Ok(())
}

/// Sweeps stranded `*.tmp` staging files out of `dir`: an `atomic_write`
/// killed between write and rename leaks its tmp forever, and nothing
/// else ever removes it. A tmp is *stranded* when its embedded owner pid
/// is dead (or the name carries no parseable pid); a live owner's tmp —
/// a sibling shard mid-write — is left alone. Returns the removed paths.
///
/// Called on store open/resume (under the shard lock). Best-effort:
/// individual remove failures are skipped, never fatal — a surviving tmp
/// costs disk, not correctness.
pub fn sweep_stale_tmp_on(fs: &dyn StoreFs, dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs.list_dir(dir) else {
        return Vec::new();
    };
    let mut removed = Vec::new();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".tmp") else {
            continue;
        };
        // `<original>.<pid>.tmp` → owner pid is the last dot-segment.
        let owner: Option<u32> = stem.rsplit('.').next().and_then(|p| p.parse().ok());
        let stranded = match owner {
            Some(pid) => pid == std::process::id() || !process_is_live(pid),
            None => true, // Legacy / foreign tmp: nobody will rename it.
        };
        if stranded && fs.remove_file(&path).is_ok() {
            removed.push(path);
        }
    }
    removed
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Unescapes the subset [`json_escape`] produces.
fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// Scans `"key": "value"` out of our own JSON (not a general parser — the
/// format is ours).
fn str_field(json: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let at = json.find(&tag)? + tag.len();
    let rest = &json[at..];
    // Find the closing quote, skipping escaped ones.
    let mut end = None;
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => {
                end = Some(i);
                break;
            }
            _ => i += 1,
        }
    }
    Some(json_unescape(&rest[..end?]))
}

/// Scans `"key": <u64>` out of our own JSON.
fn u64_field(json: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let at = json.find(&tag)? + tag.len();
    json[at..].split([',', '}', '\n']).next()?.trim().parse().ok()
}

/// Scans `"key": ["a", "b", ...]` out of our own JSON.
fn str_array(json: &str, key: &str) -> Vec<String> {
    let tag = format!("\"{key}\": [");
    let Some(at) = json.find(&tag).map(|i| i + tag.len()) else {
        return Vec::new();
    };
    let Some(end) = json[at..].find(']') else {
        return Vec::new();
    };
    json[at..at + end]
        .split(',')
        .filter_map(|item| {
            let item = item.trim();
            item.strip_prefix('"').and_then(|s| s.strip_suffix('"')).map(json_unescape)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::shard_points;
    use paradet_workloads::Workload;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("paradet-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fingerprint(cfg: &CampaignConfig) -> String {
        Manifest::from_config(cfg, 1).fingerprint
    }

    #[test]
    fn manifest_round_trips() {
        let cfg = CampaignConfig::default();
        let m = Manifest::from_config(&cfg, 3);
        let text = m.render();
        let parsed = Manifest::parse(&text).unwrap();
        assert_eq!(m, parsed);
        assert_eq!(parsed.sites, cfg.sites);
        let mut too_short = Manifest { instrs: 2, ..m.clone() };
        too_short.fingerprint = too_short.digest();
        let mut overflowing = Manifest { trials_per_site: u64::MAX / 2, ..m.clone() };
        overflowing.fingerprint = overflowing.digest();
        for bad in [
            // Self-consistent, but no strike window fits in 2 instructions.
            too_short.render(),
            // Self-consistent, but its sites x trials_per_site grid
            // overflows a u64.
            overflowing.render(),
            // Self-consistent, but the shard count is no u32, or zero.
            text.replace("\"shards\": 3,", "\"shards\": 4294967297,"),
            text.replace("\"shards\": 3,", "\"shards\": 0,"),
            // Edited under an unchanged fingerprint.
            text.replace("\"trials_per_site\": 50,", "\"trials_per_site\": 2,"),
            // Torn: the last 4 bytes lost, or only the closing brace.
            text[..text.len() - 4].to_string(),
            text[..text.len() - 2].to_string(),
        ] {
            assert_ne!(bad, text);
            assert!(
                matches!(Manifest::parse(&bad), Err(StoreError::Corrupt(_))),
                "accepted:\n{bad}"
            );
        }
    }

    #[test]
    fn fingerprint_separates_configs() {
        let base = CampaignConfig::default();
        let f0 = fingerprint(&base);
        // The digest of the manifest's fields is the fingerprint every v2
        // store has recorded for this campaign, so those stores still
        // verify.
        assert_eq!(f0, "3da65f47c16d46f1");
        assert_eq!(f0, Manifest::from_config(&base, 7).fingerprint, "shards are not identity");
        let seeds = CampaignConfig { seed: 43, ..base.clone() };
        assert_ne!(f0, fingerprint(&seeds));
        let workload = CampaignConfig { workload: Workload::Stream, ..base.clone() };
        assert_ne!(f0, fingerprint(&workload));
        let trials = CampaignConfig { trials_per_site: 51, ..base.clone() };
        assert_ne!(f0, fingerprint(&trials));
        let system = CampaignConfig {
            system: paradet_core::SystemConfig {
                lfu_enabled: false,
                ..paradet_core::SystemConfig::paper_default()
            },
            ..base.clone()
        };
        assert_ne!(f0, fingerprint(&system), "fault-model ablations must refingerprint");
        let sites = CampaignConfig { sites: vec![FaultSite::Pc], ..base };
        assert_ne!(f0, fingerprint(&sites));
    }

    #[test]
    fn ensure_manifest_rejects_mismatch() {
        let dir = tmpdir("manifest");
        let cfg = CampaignConfig::default();
        ensure_manifest_on(&RealFs, &dir, &cfg, 2).unwrap();
        // Same config, same shards: fine (the resume path).
        ensure_manifest_on(&RealFs, &dir, &cfg, 2).unwrap();
        // Different seed: refused.
        let other = CampaignConfig { seed: 7, ..cfg.clone() };
        match ensure_manifest_on(&RealFs, &dir, &other, 2) {
            Err(StoreError::FingerprintMismatch { .. }) => {}
            r => panic!("expected fingerprint mismatch, got {r:?}"),
        }
        // Different shard count: refused.
        assert!(matches!(ensure_manifest_on(&RealFs, &dir, &cfg, 3), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A manifest over three site classes and `shard`'s whole slice under
    /// it, its outcomes cycling through detected, masked and recovered.
    fn sample(shard: ShardSpec) -> (Manifest, Vec<TrialResult>) {
        let cfg = CampaignConfig {
            trials_per_site: 4,
            sites: vec![FaultSite::IntReg, FaultSite::Pc, FaultSite::CheckerFalsePos],
            ..CampaignConfig::default()
        };
        let outcomes = [
            (Outcome::Detected, Some(123_456), None),
            (Outcome::Masked, None, None),
            (Outcome::Recovered { retries: 2 }, Some(9_999), Some(42_000_000)),
        ];
        let trials = shard_points(&cfg.sites, cfg.trials_per_site, shard)
            .into_iter()
            .zip(outcomes.into_iter().cycle())
            .map(|((site, trial), (outcome, latency, recovery_fs))| TrialResult {
                site,
                trial,
                fault: trial_fault(cfg.seed, site, trial, cfg.instrs),
                outcome,
                detect_latency: latency.map(Time::from_fs),
                recovery_fs,
            })
            .collect();
        (Manifest::from_config(&cfg, shard.count()), trials)
    }

    #[test]
    fn checkpoint_round_trips() {
        let dir = tmpdir("ckpt");
        let shard = ShardSpec::new(0, 2);
        let (manifest, trials) = sample(shard);
        let read = || read_checkpoint_on(&RealFs, &dir, &manifest, shard);
        write_checkpoint_on(&RealFs, &dir, &manifest, shard, &trials).unwrap();
        let back = read().unwrap().unwrap();
        assert_eq!(format!("{back:?}"), format!("{trials:?}"));
        assert_eq!(back[2].outcome, Outcome::Recovered { retries: 2 }, "retry count survives");
        // Under another campaign's manifest: refused.
        let mut other = Manifest { seed: 7, ..manifest.clone() };
        other.fingerprint = other.digest();
        assert!(matches!(
            read_checkpoint_on(&RealFs, &dir, &other, shard),
            Err(StoreError::FingerprintMismatch { .. })
        ));
        // Absent shard: None.
        assert!(read_checkpoint_on(&RealFs, &dir, &manifest, ShardSpec::new(1, 2))
            .unwrap()
            .is_none());
        // Records off the slice are refused though every checksum holds.
        let mut swapped = trials.clone();
        swapped.swap(0, 1);
        write_checkpoint_on(&RealFs, &dir, &manifest, shard, &swapped).unwrap();
        assert!(matches!(read(), Err(StoreError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_byte_flip_is_corrupt() {
        let dir = tmpdir("bitrot");
        let shard = ShardSpec::new(0, 1);
        let (manifest, trials) = sample(shard);
        write_checkpoint_on(&RealFs, &dir, &manifest, shard, &trials).unwrap();
        let path = checkpoint_path(&dir, shard);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the *second* line (an interior trial record):
        // past the header, well before the file's tail.
        let text = String::from_utf8(bytes.clone()).unwrap();
        let second_line_start = text.find('\n').unwrap() + 1;
        bytes[second_line_start + 10] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(
                read_checkpoint_on(&RealFs, &dir, &manifest, shard),
                Err(StoreError::Corrupt(_))
            ),
            "a flipped interior byte must fail the line checksum"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chopped_tail_repairs_to_prefix() {
        let dir = tmpdir("chop");
        let shard = ShardSpec::new(0, 1);
        let (manifest, trials) = sample(shard);
        write_checkpoint_on(&RealFs, &dir, &manifest, shard, &trials).unwrap();
        let path = checkpoint_path(&dir, shard);
        let text = std::fs::read_to_string(&path).unwrap();
        // Chop the file mid-way through its final line — a torn append.
        let chopped = &text[..text.len() - 17];
        std::fs::write(&path, chopped).unwrap();
        let back = read_checkpoint_on(&RealFs, &dir, &manifest, shard).unwrap().unwrap();
        assert_eq!(
            format!("{back:?}"),
            format!("{:?}", &trials[..trials.len() - 1]),
            "intact prefix survives, torn tail is dropped"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_checkpoint_is_refused_by_schema() {
        let dir = tmpdir("v1ckpt");
        let shard = ShardSpec::new(0, 1);
        // A v1 header as the old writer produced it (no crc field).
        let v1 = "{\"schema\": \"paradet-campaign-ckpt/v1\", \"fingerprint\": \"deadbeef\", \
                  \"shard\": \"0/1\"}\n\
                  {\"site\": \"pc\", \"trial\": 0, \"outcome\": \"masked\"}\n";
        std::fs::write(checkpoint_path(&dir, shard), v1).unwrap();
        match read_checkpoint_on(&RealFs, &dir, &sample(shard).0, shard) {
            Err(StoreError::SchemaVersion { found, expected }) => {
                assert_eq!(found, "paradet-campaign-ckpt/v1");
                assert_eq!(expected, CHECKPOINT_SCHEMA);
            }
            r => panic!("expected SchemaVersion, got {r:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_manifest_is_refused_by_schema() {
        let v1 = "{\n  \"schema\": \"paradet-campaign-manifest/v1\",\n  \
                  \"fingerprint\": \"deadbeef\",\n  \"seed\": 42\n}\n";
        assert!(matches!(Manifest::parse(v1), Err(StoreError::SchemaVersion { .. })));
    }

    #[test]
    fn fingerprint_covers_fault_kind_and_recovery() {
        let base = CampaignConfig::default();
        let f0 = fingerprint(&base);
        let kind = CampaignConfig { fault_kind: paradet_ooo::FaultKind::Permanent, ..base.clone() };
        assert_ne!(f0, fingerprint(&kind), "fault kind must refingerprint");
        let recov = CampaignConfig {
            recovery: Some(paradet_core::RecoveryPolicy::default()),
            ..base.clone()
        };
        assert_ne!(f0, fingerprint(&recov), "recovery policy must refingerprint");
        let retries = CampaignConfig {
            recovery: Some(paradet_core::RecoveryPolicy {
                max_retries: 5,
                ..paradet_core::RecoveryPolicy::default()
            }),
            ..base
        };
        assert_ne!(fingerprint(&recov), fingerprint(&retries));
    }

    #[test]
    fn status_round_trips() {
        let dir = tmpdir("status");
        let shard = ShardSpec::new(1, 3);
        write_status_on(&RealFs, &dir, shard, "running", 7, 12).unwrap();
        let s = read_status_on(&RealFs, &dir, shard).expect("status readable");
        assert_eq!((s.state.as_str(), s.done, s.total), ("running", 7, 12));
        // Absent shard: None, not an error.
        assert!(read_status_on(&RealFs, &dir, ShardSpec::new(2, 3)).is_none());
        // Another split's heartbeat, or a torn one: None.
        assert!(read_status_on(&RealFs, &dir, ShardSpec::new(1, 4)).is_none());
        let path = status_path(&dir, shard);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 3]).unwrap();
        assert!(read_status_on(&RealFs, &dir, shard).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: a stale lock from a dead owner is taken over
    /// automatically; a lock held by a genuinely live process refuses.
    #[test]
    fn dead_owner_lock_is_taken_over_live_owner_refuses() {
        let dir = tmpdir("lock");
        let shard = ShardSpec::new(0, 1);
        let path = lock_path(&dir, shard);
        let fs = real_fs();

        // A lock whose pid cannot exist (> kernel pid_max) — SIGKILLed
        // owner long gone: taken over without ceremony.
        std::fs::write(&path, "4194999999 12345\n").unwrap();
        let (lock, took_over) = ShardLock::acquire_on(&fs, &dir, shard).unwrap();
        assert!(took_over, "a dead owner's lock must be taken over");
        drop(lock);
        assert!(!path.exists(), "clean drop removes the lock");

        // Our own pid with a *stale* boot token — the pid-reuse shape (a
        // recycled pid on a different process instance): taken over.
        std::fs::write(&path, format!("{} not-a-real-token\n", std::process::id())).unwrap();
        let (lock, took_over) = ShardLock::acquire_on(&fs, &dir, shard).unwrap();
        assert!(took_over, "a recycled pid must read as a dead owner");
        drop(lock);

        // A genuinely live owner (pid 1 — init/systemd, always alive,
        // never us) with its real boot token: refused.
        if let Some(token) = boot_token_of(1) {
            std::fs::write(&path, format!("1 {token}\n")).unwrap();
            match ShardLock::acquire_on(&fs, &dir, shard) {
                Err(StoreError::Locked(m)) => {
                    assert!(m.contains("live process"), "error must say why: {m}")
                }
                r => panic!("a live owner must refuse, got {r:?}"),
            }
            std::fs::remove_file(&path).unwrap();
        }

        // Unparseable legacy lock: treated as dead, taken over.
        std::fs::write(&path, "garbage\n").unwrap();
        let (_lock, took_over) = ShardLock::acquire_on(&fs, &dir, shard).unwrap();
        assert!(took_over);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_lock_acquires_and_releases() {
        let dir = tmpdir("lock2");
        let shard = ShardSpec::new(0, 1);
        let fs = real_fs();
        let (lock, took_over) = ShardLock::acquire_on(&fs, &dir, shard).unwrap();
        assert!(!took_over, "a fresh acquire takes over nothing");
        // The lock file records our pid + boot token.
        let body = std::fs::read_to_string(lock_path(&dir, shard)).unwrap();
        let mut it = body.split_whitespace();
        assert_eq!(it.next().unwrap(), std::process::id().to_string());
        assert!(it.next().is_some(), "boot token recorded");
        drop(lock);
        drop(ShardLock::acquire_on(&fs, &dir, shard).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite regression: stranded `*.tmp` staging files (a kill
    /// between write and rename) are swept on store open; live files and
    /// a live owner's tmp are untouched.
    #[test]
    fn sweep_removes_stranded_tmp_and_keeps_live_files() {
        let dir = tmpdir("sweep");
        // A stranded tmp from a dead pid, a legacy tmp with no pid, a
        // live checkpoint, and a tmp owned by a live process (pid 1).
        std::fs::write(dir.join("shard-0-of-2.jsonl.4194999999.tmp"), "stranded").unwrap();
        std::fs::write(dir.join("run_manifest.tmp"), "legacy").unwrap();
        std::fs::write(dir.join("shard-0-of-2.jsonl"), "live checkpoint").unwrap();
        std::fs::write(dir.join("status-shard-1.json.1.tmp"), "live owner").unwrap();

        let removed = sweep_stale_tmp_on(&RealFs, &dir);
        assert_eq!(removed.len(), 2, "exactly the stranded + legacy tmps go: {removed:?}");
        assert!(!dir.join("shard-0-of-2.jsonl.4194999999.tmp").exists());
        assert!(!dir.join("run_manifest.tmp").exists());
        assert_eq!(
            std::fs::read_to_string(dir.join("shard-0-of-2.jsonl")).unwrap(),
            "live checkpoint",
            "live files are untouched"
        );
        assert!(
            dir.join("status-shard-1.json.1.tmp").exists(),
            "a live owner's in-flight tmp is left alone"
        );
        // Sweeping a missing directory is a quiet no-op.
        assert!(sweep_stale_tmp_on(&RealFs, &dir.join("nope")).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}";
        assert_eq!(json_unescape(&json_escape(s)), s);
    }
}
