//! The self-healing shard supervisor: `campaignd --supervise n`.
//!
//! The paper's thesis — errors are inevitable; detection and recovery
//! must be systematic — applies to the campaign *service* as much as to
//! the simulated machine. PR 6/7 made a killed shard resumable by a
//! human; this module removes the human. The supervisor
//!
//! 1. spawns the n shard workers as child processes (always with
//!    `--resume`: a fresh directory resumes from nothing, a crashed
//!    shard's stale lock is taken over via owner-liveness detection);
//! 2. watches each shard's `status-shard-i.json` heartbeat **mtime**
//!    against a deadline — a shard that stops heartbeating is hung, and
//!    gets killed like a crashed one (deadline-style health monitoring à
//!    la FlexStep);
//! 3. restarts crashed/hung shards under capped exponential backoff with
//!    deterministic jitter (SplitMix64 over `(seed, shard, attempt)` — a
//!    supervised run's restart schedule replays exactly);
//! 4. after `max_restarts` failed restarts — or immediately on a
//!    *non-retryable* exit (usage, fingerprint mismatch, live lock,
//!    schema) — quarantines the shard as **degraded**, stamps its status
//!    file, and moves on;
//! 5. on full success merges and prints the table byte-identical to the
//!    one-shot; with quarantined shards it exits
//!    [`DEGRADED`](crate::cli::exit::DEGRADED) and points at
//!    `campaign-merge --partial` for explicit completeness accounting.
//!
//! Determinism invariant 12 (ARCHITECTURE.md): under any scripted I/O
//! fault plan, a supervised campaign either merges byte-identical to the
//! one-shot golden or terminates with a typed, explicit failure — never a
//! silent partial or corrupt merge. [`supervise_in_process`] is the
//! proptest-facing harness that pins the invariant over random
//! [`ChaosScript`]s × shard counts × kill points; the CI `campaign-chaos`
//! job re-proves it through the real binaries.

use crate::campaign::CampaignConfig;
use crate::chaosfs::{ChaosFs, ChaosScript, KillMode, CHAOS_KILL};
use crate::service::{run_campaign_shard_on, ShardRunOptions};
use crate::shard::ShardSpec;
use crate::store::{read_status, status_path, write_status, DynFs, StoreError};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Restart/backoff/deadline policy of a supervised campaign.
#[derive(Debug, Clone, Copy)]
pub struct SupervisePolicy {
    /// Restarts per shard before quarantining it as degraded.
    pub max_restarts: u32,
    /// Base backoff before a restart; attempt k waits `base · 2^(k−1)`
    /// (capped) plus jitter.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// A shard whose status-file heartbeat is older than this is hung and
    /// gets killed + restarted.
    pub heartbeat_timeout_ms: u64,
    /// Child poll interval.
    pub poll_ms: u64,
    /// Seed of the deterministic backoff jitter.
    pub seed: u64,
}

impl Default for SupervisePolicy {
    fn default() -> SupervisePolicy {
        SupervisePolicy {
            max_restarts: 3,
            backoff_base_ms: 200,
            backoff_cap_ms: 5_000,
            heartbeat_timeout_ms: 30_000,
            poll_ms: 50,
            seed: 0,
        }
    }
}

/// SplitMix64 finalizer — the same mixing idiom as `trial_seed`.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The wait before restart number `attempt` (1-based) of `shard`: capped
/// exponential backoff plus a deterministic jitter in `[0, base)` derived
/// from `(seed, shard, attempt)`. Pure — a supervised run's entire
/// restart schedule is a function of the policy.
pub fn backoff_ms(policy: &SupervisePolicy, shard: u32, attempt: u32) -> u64 {
    let base = policy.backoff_base_ms.max(1);
    let exp =
        base.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(32)).min(policy.backoff_cap_ms);
    let jitter = mix(policy
        .seed
        .wrapping_add(u64::from(shard).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03)))
        % base;
    exp + jitter
}

/// How a supervised shard ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFate {
    /// The shard completed its slice (possibly after restarts).
    Completed {
        /// Restarts it took.
        restarts: u32,
    },
    /// The shard was quarantined: restart budget exhausted, or a
    /// non-retryable failure. Its partial checkpoint remains mergeable
    /// via `campaign-merge --partial`.
    Degraded {
        /// Restarts attempted before quarantine.
        restarts: u32,
        /// Why (last exit status / error).
        reason: String,
    },
}

/// The full outcome of a supervised run.
#[derive(Debug)]
pub struct SuperviseOutcome {
    /// Per-shard fates, shard order.
    pub fates: Vec<ShardFate>,
}

impl SuperviseOutcome {
    /// Whether every shard completed.
    pub fn all_completed(&self) -> bool {
        self.fates.iter().all(|f| matches!(f, ShardFate::Completed { .. }))
    }
}

/// How to spawn one shard worker.
#[derive(Debug, Clone)]
pub struct ShardCommand {
    /// The `campaignd` binary (normally `std::env::current_exe()`).
    pub program: PathBuf,
    /// The campaign-config flags, exactly as the supervisor received them
    /// (see [`crate::cli::render_config_flags`] — the child must compute
    /// the *same* fingerprint, and the fingerprint gate turns any
    /// divergence into a visible non-retryable exit, never corruption).
    pub config_flags: Vec<String>,
    /// Campaign directory.
    pub dir: PathBuf,
    /// Total shards.
    pub shards: u32,
    /// `--checkpoint-every` for the children (also the heartbeat cadence).
    pub checkpoint_every: u64,
    /// Chaos script to export to children as `PARADET_CHAOS` (the
    /// supervisor also exports each child's incarnation number as
    /// `PARADET_CHAOS_ATTEMPT`).
    pub chaos: Option<String>,
}

impl ShardCommand {
    fn spawn(&self, shard: u32, attempt: u32) -> std::io::Result<Child> {
        let spec = ShardSpec::new(shard, self.shards);
        let mut cmd = Command::new(&self.program);
        cmd.arg("--shard")
            .arg(spec.to_string())
            // Always resume: a fresh directory resumes from nothing, a
            // dead owner's lock is taken over, and a *live* owner still
            // refuses (exit LOCKED, non-retryable) — so `--resume` here
            // can never race or clobber anything.
            .arg("--resume")
            .arg(&self.dir)
            .arg("--checkpoint-every")
            .arg(self.checkpoint_every.to_string())
            .args(&self.config_flags)
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(script) = &self.chaos {
            cmd.env("PARADET_CHAOS", script).env("PARADET_CHAOS_ATTEMPT", attempt.to_string());
        }
        cmd.spawn()
    }
}

/// Exit codes that restarting cannot fix: usage, fingerprint mismatch,
/// a genuinely live lock owner, schema version. (See
/// [`crate::cli::exit`].)
fn non_retryable(code: i32) -> bool {
    matches!(code, 2 | 3 | 4 | 6)
}

enum St {
    Pending { at: Instant, attempt: u32 },
    Running { child: Child, attempt: u32, spawned: Instant },
    Done(ShardFate),
}

/// The newest heartbeat instant the supervisor can attribute to a shard:
/// its status file's mtime (the real filesystem — heartbeat freshness is
/// a wall-clock property even under chaos), or `None` before the first
/// write.
fn heartbeat_age(dir: &Path, shard: ShardSpec) -> Option<Duration> {
    std::fs::metadata(status_path(dir, shard))
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
}

/// Runs `cmd.shards` shard workers to completion (or quarantine) under
/// `policy`, logging progress through `log`. Blocks until every shard is
/// done or degraded; the caller decides what to do with the fates
/// (merge, or hand off to `campaign-merge --partial`).
pub fn supervise_processes(
    cmd: &ShardCommand,
    policy: &SupervisePolicy,
    mut log: impl FnMut(&str),
) -> SuperviseOutcome {
    let now = Instant::now();
    let mut states: Vec<St> =
        (0..cmd.shards).map(|_| St::Pending { at: now, attempt: 0 }).collect();

    loop {
        let mut all_done = true;
        for (i, state) in states.iter_mut().enumerate() {
            let shard = i as u32;
            let spec = ShardSpec::new(shard, cmd.shards);
            match state {
                St::Done(_) => {}
                St::Pending { at, attempt } => {
                    all_done = false;
                    if Instant::now() < *at {
                        continue;
                    }
                    let attempt = *attempt;
                    match cmd.spawn(shard, attempt) {
                        Ok(child) => {
                            if attempt > 0 {
                                log(&format!("shard {spec}: restart {attempt} spawned"));
                            }
                            *state = St::Running { child, attempt, spawned: Instant::now() };
                        }
                        Err(e) => {
                            log(&format!("shard {spec}: spawn failed: {e}"));
                            *state = quarantine(
                                &cmd.dir,
                                spec,
                                attempt,
                                format!("spawn failed: {e}"),
                                &mut log,
                            );
                        }
                    }
                }
                St::Running { child, attempt, spawned } => {
                    all_done = false;
                    let attempt = *attempt;
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => {
                            log(&format!(
                                "shard {spec}: completed ({} restart{})",
                                attempt,
                                if attempt == 1 { "" } else { "s" }
                            ));
                            *state = St::Done(ShardFate::Completed { restarts: attempt });
                        }
                        Ok(Some(status)) => {
                            let code = status.code();
                            let reason = match code {
                                Some(c) => format!("exit code {c}"),
                                None => "killed by signal".to_string(),
                            };
                            if code.is_some_and(non_retryable) {
                                log(&format!("shard {spec}: {reason} (non-retryable)"));
                                *state = quarantine(&cmd.dir, spec, attempt, reason, &mut log);
                            } else if attempt >= policy.max_restarts {
                                log(&format!("shard {spec}: {reason}; restart budget spent"));
                                *state = quarantine(
                                    &cmd.dir,
                                    spec,
                                    attempt,
                                    format!("{reason} after {attempt} restarts"),
                                    &mut log,
                                );
                            } else {
                                let wait = backoff_ms(policy, shard, attempt + 1);
                                log(&format!("shard {spec}: {reason}; restarting in {wait}ms"));
                                *state = St::Pending {
                                    at: Instant::now() + Duration::from_millis(wait),
                                    attempt: attempt + 1,
                                };
                            }
                        }
                        Ok(None) => {
                            // Still running: heartbeat deadline. Grace:
                            // measure from spawn until the first status
                            // write appears.
                            let age =
                                heartbeat_age(&cmd.dir, spec).unwrap_or_else(|| spawned.elapsed());
                            if age > Duration::from_millis(policy.heartbeat_timeout_ms) {
                                let _ = child.kill();
                                let _ = child.wait();
                                if attempt >= policy.max_restarts {
                                    log(&format!("shard {spec}: hung; restart budget spent"));
                                    *state = quarantine(
                                        &cmd.dir,
                                        spec,
                                        attempt,
                                        format!(
                                            "heartbeat stale for {}ms after {attempt} restarts",
                                            age.as_millis()
                                        ),
                                        &mut log,
                                    );
                                } else {
                                    let wait = backoff_ms(policy, shard, attempt + 1);
                                    log(&format!(
                                        "shard {spec}: heartbeat stale ({}ms); killed, \
                                         restarting in {wait}ms",
                                        age.as_millis()
                                    ));
                                    *state = St::Pending {
                                        at: Instant::now() + Duration::from_millis(wait),
                                        attempt: attempt + 1,
                                    };
                                }
                            }
                        }
                        Err(e) => {
                            log(&format!("shard {spec}: wait failed: {e}"));
                            *state = quarantine(
                                &cmd.dir,
                                spec,
                                attempt,
                                format!("wait failed: {e}"),
                                &mut log,
                            );
                        }
                    }
                }
            }
        }
        if all_done {
            break;
        }
        std::thread::sleep(Duration::from_millis(policy.poll_ms));
    }

    SuperviseOutcome {
        fates: states
            .into_iter()
            .map(|s| match s {
                St::Done(f) => f,
                _ => unreachable!("loop exits only when all states are Done"),
            })
            .collect(),
    }
}

/// Quarantines a shard: stamps its status file `degraded` (preserving the
/// last known progress so `campaign-merge --partial` can account for it)
/// and returns the terminal state.
fn quarantine(
    dir: &Path,
    spec: ShardSpec,
    restarts: u32,
    reason: String,
    log: &mut impl FnMut(&str),
) -> St {
    let (done, total) = read_status(dir, spec).map(|s| (s.done, s.total)).unwrap_or((0, 0));
    if let Err(e) = write_status(dir, spec, "degraded", done, total) {
        log(&format!("shard {spec}: could not stamp degraded status: {e}"));
    }
    log(&format!("shard {spec}: QUARANTINED ({reason}); partial checkpoint kept"));
    St::Done(ShardFate::Degraded { restarts, reason })
}

/// Classifies an in-process shard error: can a restart help?
fn retryable(e: &StoreError) -> bool {
    match e {
        StoreError::Io(_) | StoreError::Incomplete(_) => true,
        StoreError::FingerprintMismatch { .. }
        | StoreError::Corrupt(_)
        | StoreError::SchemaVersion { .. }
        | StoreError::Locked(_) => false,
    }
}

/// The in-process twin of [`supervise_processes`], for the invariant-12
/// proptest: runs each shard's attempts with a fresh
/// [`ChaosFs`]([`KillMode::Panic`]) per incarnation, catching scripted
/// kill panics and retrying with resume — no real child processes, no
/// wall-clock backoff, so thousands of random scripts run in seconds.
///
/// Shards run sequentially (determinism of the *store* is what's under
/// test; trial results are order-independent by purity).
pub fn supervise_in_process(
    cfg: &CampaignConfig,
    dir: &Path,
    shards: u32,
    checkpoint_every: u64,
    script: &ChaosScript,
    max_restarts: u32,
) -> SuperviseOutcome {
    let mut fates = Vec::with_capacity(shards as usize);
    for i in 0..shards {
        let spec = ShardSpec::new(i, shards);
        let mut fate = None;
        for attempt in 0..=max_restarts {
            let fs: DynFs = Arc::new(ChaosFs::new(script.clone(), attempt, KillMode::Panic));
            let opts = ShardRunOptions {
                shard: spec,
                checkpoint_every,
                // Restarts resume; the first attempt may also implicitly
                // resume via dead-owner lock takeover.
                resume: attempt > 0,
            };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_campaign_shard_on(&fs, dir, cfg, &opts, |_, _| {})
            }));
            match run {
                Ok(Ok(_)) => {
                    fate = Some(ShardFate::Completed { restarts: attempt });
                    break;
                }
                Ok(Err(e)) if !retryable(&e) => {
                    fate = Some(ShardFate::Degraded { restarts: attempt, reason: e.to_string() });
                    break;
                }
                Ok(Err(e)) => {
                    if attempt == max_restarts {
                        fate =
                            Some(ShardFate::Degraded { restarts: attempt, reason: e.to_string() });
                    }
                }
                Err(payload) => {
                    // A scripted kill is expected chaos; any other panic
                    // is a real bug and must fail the harness.
                    let is_kill = payload.downcast_ref::<String>().is_some_and(|s| s == CHAOS_KILL)
                        || payload.downcast_ref::<&str>().is_some_and(|s| *s == CHAOS_KILL);
                    if !is_kill {
                        std::panic::resume_unwind(payload);
                    }
                    if attempt == max_restarts {
                        fate = Some(ShardFate::Degraded {
                            restarts: attempt,
                            reason: "scripted kill on every attempt".to_string(),
                        });
                    }
                }
            }
        }
        let fate = fate.expect("attempt loop always sets a fate");
        if let ShardFate::Degraded { .. } = &fate {
            let (done, total) = read_status(dir, spec).map(|s| (s.done, s.total)).unwrap_or((0, 0));
            let _ = write_status(dir, spec, "degraded", done, total);
        }
        fates.push(fate);
    }
    SuperviseOutcome { fates }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let p = SupervisePolicy { seed: 7, ..SupervisePolicy::default() };
        // Pure: same inputs, same wait.
        assert_eq!(backoff_ms(&p, 0, 1), backoff_ms(&p, 0, 1));
        // Different shards/attempts jitter differently (with seed 7 these
        // happen to differ; the point is the schedule is a function).
        let w1 = backoff_ms(&p, 0, 1);
        let w2 = backoff_ms(&p, 1, 1);
        assert!(w1 >= p.backoff_base_ms && w1 < p.backoff_base_ms * 2);
        assert!(w2 >= p.backoff_base_ms && w2 < p.backoff_base_ms * 2);
        // Exponential growth up to the cap (+ jitter < base).
        let w5 = backoff_ms(&p, 0, 5);
        assert!(w5 >= p.backoff_cap_ms.min(p.backoff_base_ms * 16));
        let w20 = backoff_ms(&p, 0, 20);
        assert!(w20 < p.backoff_cap_ms + p.backoff_base_ms, "cap holds: {w20}");
        // Seed changes the jitter.
        let q = SupervisePolicy { seed: 8, ..p };
        assert!(
            (1..=6).any(|a| backoff_ms(&p, 0, a) != backoff_ms(&q, 0, a)),
            "jitter must depend on the seed"
        );
    }

    #[test]
    fn non_retryable_codes_match_the_exit_table() {
        use crate::cli::exit;
        for c in [exit::USAGE, exit::FINGERPRINT_MISMATCH, exit::LOCKED, exit::SCHEMA_VERSION] {
            assert!(non_retryable(c));
        }
        for c in [exit::OK, exit::STORE, exit::INCOMPLETE, exit::DEGRADED] {
            assert!(!non_retryable(c));
        }
    }
}
