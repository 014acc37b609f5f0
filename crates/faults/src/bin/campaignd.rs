//! `campaignd` — runs a fault campaign one-shot, one resumable shard of
//! it against an on-disk checkpoint store, or a whole supervised fleet of
//! shard workers that restarts itself.
//!
//! ```text
//! # The in-memory one-shot (the golden reference):
//! campaignd --one-shot [config flags] [--out coverage.csv]
//!
//! # One shard of a 2-way split, checkpointing every 5 trials:
//! campaignd --shard 0/2 --dir camp/ --checkpoint-every 5 [config flags]
//!
//! # Resume it after a crash or SIGKILL:
//! campaignd --shard 0/2 --resume camp/ --checkpoint-every 5 [config flags]
//!
//! # Self-healing: spawn both shards, restart crashes/hangs, merge:
//! campaignd --supervise 2 --dir camp/ --checkpoint-every 5 [config flags]
//! ```
//!
//! Shards of one campaign can run in any order, in parallel processes, on
//! different hosts sharing the directory. After every shard completes,
//! `campaign-merge --dir camp/` folds the checkpoints into a coverage
//! table byte-identical to `--one-shot` with the same config flags —
//! `--supervise` does the same merge itself on success. A supervised run
//! that exhausts a shard's restart budget quarantines it as *degraded*,
//! exits 7, and leaves the partial checkpoints for
//! `campaign-merge --partial`.
//!
//! Exit codes (the shared table in `paradet_faults::cli::exit`): 0
//! success, 1 other store errors, 2 usage, 3 config-fingerprint mismatch,
//! 4 shard locked by a live process / checkpoint exists without
//! `--resume`, 5 incomplete merge, 6 incompatible store schema version,
//! 7 supervised run degraded.
//!
//! Fault-injection hooks (the service tests itself with them):
//! `--exit-after-checkpoints <k>` `abort()`s (as if SIGKILLed) right
//! after the k-th checkpoint write; the `PARADET_CHAOS` env var (script
//! grammar in `paradet_faults::chaosfs`) routes all store I/O through a
//! deterministic fault-injecting filesystem, with
//! `PARADET_CHAOS_ATTEMPT` selecting which incarnation's entries arm —
//! the supervisor exports both to its children via `--chaos`.

use paradet_faults::chaosfs::{ChaosFs, ChaosScript, KillMode};
use paradet_faults::cli::{
    exit, parse_campaign_flags, reject_unknown, take_parsed, take_switch, take_value, wants_help,
};
use paradet_faults::supervisor::{supervise_processes, ShardCommand, ShardFate, SupervisePolicy};
use paradet_faults::{
    coverage_table, merge_campaign, merged_table, real_fs, recovery_table, run_campaign,
    run_campaign_shard_on, DynFs, ShardRunOptions, ShardSpec, StoreError,
};
use std::path::PathBuf;
use std::sync::Arc;

fn usage_text() -> String {
    format!(
        "usage: campaignd (--one-shot | --shard i/n | --supervise n) [options]\n\
         \n\
         modes:\n  \
         --one-shot                run the whole campaign in memory, print the coverage table\n  \
         --shard <i/n>             run slice i of an n-way split against --dir\n  \
         --supervise <n>           spawn all n shards as children, restart crashed/hung ones,\n                            merge on success (degraded shards quarantine; exit 7)\n\
         \n\
         shard options:\n  \
         --dir <dir>               campaign directory (manifest, checkpoints, status, locks)\n  \
         --resume <dir>            like --dir, but continue from the existing checkpoint\n  \
         --checkpoint-every <n>    trials between checkpoints (default 25)\n  \
         --exit-after-checkpoints <k>  abort() after the k-th checkpoint (fault-injection hook)\n\
         \n\
         supervise options:\n  \
         --max-restarts <n>        restarts per shard before quarantine (default 3)\n  \
         --heartbeat-timeout-ms <ms>  stale-heartbeat deadline (default 30000)\n  \
         --backoff-base-ms <ms>    restart backoff base (default 200)\n  \
         --chaos <script>          chaos script exported to children (fault-injection hook)\n\
         \n\
         output:\n  \
         --out <csv>               write the coverage table as CSV (one-shot/supervise)\n  \
         --help                    print this text and exit\n\
         \n\
         campaign config:\n{}",
        paradet_faults::cli::CONFIG_FLAGS_HELP
    )
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(exit::USAGE);
}

/// The parsed value, or the error reported with the usage text.
fn or_usage<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("campaignd: {e}");
        usage();
    })
}

fn fail(e: &StoreError) -> ! {
    eprintln!("campaignd: {e}");
    std::process::exit(exit::code_for(e));
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&args) {
        println!("{}", usage_text());
        return;
    }
    let (cfg, _) = or_usage(parse_campaign_flags(&mut args));

    let one_shot = take_switch(&mut args, "--one-shot");
    let shard_arg = or_usage(take_value(&mut args, "--shard"));
    let supervise_arg: Option<u32> = or_usage(take_parsed(&mut args, "--supervise"));
    let dir_arg = or_usage(take_value(&mut args, "--dir"));
    let resume_arg = or_usage(take_value(&mut args, "--resume"));
    let every: u64 = or_usage(take_parsed(&mut args, "--checkpoint-every")).unwrap_or(25);
    let exit_after: Option<u64> = or_usage(take_parsed(&mut args, "--exit-after-checkpoints"));
    let max_restarts: u32 = or_usage(take_parsed(&mut args, "--max-restarts")).unwrap_or(3);
    let heartbeat_timeout_ms: u64 =
        or_usage(take_parsed(&mut args, "--heartbeat-timeout-ms")).unwrap_or(30_000);
    let backoff_base_ms: u64 = or_usage(take_parsed(&mut args, "--backoff-base-ms")).unwrap_or(200);
    let chaos = or_usage(take_value(&mut args, "--chaos"));
    let out = or_usage(take_value(&mut args, "--out")).map(PathBuf::from);
    or_usage(reject_unknown(&args));

    match (one_shot, shard_arg, supervise_arg) {
        (true, None, None) => {
            let result = run_campaign(&cfg);
            // Recovery campaigns render the coverage-by-fault-class table;
            // detection-only campaigns keep the historic coverage table.
            let table = match &cfg.recovery {
                Some(_) => recovery_table(cfg.workload.name(), cfg.fault_kind.name(), &result),
                None => coverage_table(cfg.workload.name(), &result),
            };
            print!("{}", table.render());
            if let Some(path) = out {
                table.write_csv(&path).unwrap_or_else(|e| {
                    eprintln!("campaignd: writing {}: {e}", path.display());
                    std::process::exit(exit::STORE);
                });
                eprintln!("wrote {}", path.display());
            }
        }
        (false, Some(spec), None) => {
            let shard = ShardSpec::parse(&spec).unwrap_or_else(|e| {
                eprintln!("campaignd: --shard: {e}");
                usage();
            });
            let (dir, resume) = match (dir_arg, resume_arg) {
                (Some(d), None) => (PathBuf::from(d), false),
                (None, Some(d)) => (PathBuf::from(d), true),
                _ => {
                    eprintln!("campaignd: --shard needs exactly one of --dir or --resume");
                    usage();
                }
            };
            // The chaos hook: PARADET_CHAOS (set by the supervisor or a
            // test) replays a scripted fault plan over this shard's store
            // I/O. Kills are real aborts — this is a real process.
            let fs: DynFs = match ChaosFs::from_env(KillMode::Abort) {
                Ok(Some(chaos)) => Arc::new(chaos),
                Ok(None) => real_fs(),
                Err(e) => {
                    eprintln!("campaignd: PARADET_CHAOS: {e}");
                    usage();
                }
            };
            let opts = ShardRunOptions { shard, checkpoint_every: every, resume };
            let mut checkpoints = 0u64;
            let summary = run_campaign_shard_on(&fs, &dir, &cfg, &opts, |done, total| {
                checkpoints += 1;
                eprintln!("shard {shard}: {done}/{total} trials checkpointed");
                if exit_after == Some(checkpoints) {
                    // Simulate a SIGKILL mid-campaign: no cleanup, no lock
                    // release, no final status — the resume path must cope.
                    eprintln!("shard {shard}: aborting after checkpoint {checkpoints} (--exit-after-checkpoints)");
                    std::process::abort();
                }
            })
            .unwrap_or_else(|e| fail(&e));
            println!(
                "shard {shard} complete: {} trials ({} resumed, {} run) in {}",
                summary.total,
                summary.resumed_from,
                summary.total - summary.resumed_from,
                dir.display()
            );
        }
        (false, None, Some(shards)) => {
            if shards == 0 {
                eprintln!("campaignd: --supervise needs at least one shard");
                usage();
            }
            let Some(dir) = dir_arg.map(PathBuf::from) else {
                eprintln!("campaignd: --supervise needs --dir");
                usage();
            };
            if let Some(script) = &chaos {
                // Validate up front: a typo'd script must be a usage
                // error here, not a mystery child crash loop.
                if let Err(e) = ChaosScript::parse(script) {
                    eprintln!("campaignd: --chaos: {e}");
                    usage();
                }
            }
            let program = std::env::current_exe().unwrap_or_else(|e| {
                eprintln!("campaignd: cannot locate own binary: {e}");
                std::process::exit(exit::STORE);
            });
            let cmd = ShardCommand {
                program,
                config_flags: paradet_faults::cli::render_config_flags(&cfg),
                dir: dir.clone(),
                shards,
                checkpoint_every: every,
                chaos,
            };
            let policy = SupervisePolicy {
                max_restarts,
                heartbeat_timeout_ms,
                backoff_base_ms,
                seed: cfg.seed,
                ..SupervisePolicy::default()
            };
            let outcome = supervise_processes(&cmd, &policy, |line| eprintln!("campaignd: {line}"));
            if outcome.all_completed() {
                let (manifest, result) =
                    merge_campaign(&dir, Some(&cfg)).unwrap_or_else(|e| fail(&e));
                let table = merged_table(&manifest, &result);
                print!("{}", table.render());
                eprintln!(
                    "supervised {} shards to completion, {} trials, fingerprint {}",
                    shards,
                    result.trials.len(),
                    manifest.fingerprint
                );
                if let Some(path) = out {
                    table.write_csv(&path).unwrap_or_else(|e| {
                        eprintln!("campaignd: writing {}: {e}", path.display());
                        std::process::exit(exit::STORE);
                    });
                    eprintln!("wrote {}", path.display());
                }
            } else {
                for (i, fate) in outcome.fates.iter().enumerate() {
                    if let ShardFate::Degraded { restarts, reason } = fate {
                        eprintln!(
                            "campaignd: shard {i}/{shards} DEGRADED after {restarts} \
                             restart(s): {reason}"
                        );
                    }
                }
                eprintln!(
                    "campaignd: campaign degraded; partial checkpoints kept in {} — \
                     render them with `campaign-merge --partial --dir {}`",
                    dir.display(),
                    dir.display()
                );
                std::process::exit(exit::DEGRADED);
            }
        }
        _ => {
            eprintln!("campaignd: pass exactly one of --one-shot, --shard i/n, or --supervise n");
            usage();
        }
    }
}
