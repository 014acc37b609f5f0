//! `campaign-merge` — folds the shard checkpoints of a campaign directory
//! into the coverage table, byte-identical to a one-shot run of the same
//! campaign.
//!
//! ```text
//! campaign-merge --dir camp/ [--out coverage.csv] [config flags]
//! campaign-merge --partial --dir camp/   # degraded campaigns: explicit accounting
//! ```
//!
//! The manifest must verify itself — its fingerprint is the digest of its
//! own fields, and its text what those fields render to — so a torn or
//! edited manifest is refused (exit 1). When any campaign config flag is
//! given, the manifest must also fingerprint-match the described campaign
//! — merging a directory that belongs to a different campaign (other
//! seed, workload, fault model, or trial count) is refused rather than
//! producing a plausible but wrong table.
//!
//! The strict merge refuses incomplete campaigns (exit 5). `--partial` is
//! the explicit opt-out — the hand-off target when a supervised run
//! quarantined a shard: it renders a per-shard completeness table (done /
//! total / state, naming `degraded`, `missing`, and `corrupt` shards)
//! plus the coverage over the trials that *do* exist, with a `PARTIAL`
//! title whenever anything is missing so a truncated table can never pass
//! as a full campaign.
//!
//! Exit codes (the shared table in `paradet_faults::cli::exit`): 0
//! success, 2 usage, 3 config-fingerprint mismatch, 5 incomplete shards
//! without `--partial` (the error names which shard to resume), 6 store
//! written by an incompatible schema version, 1 other store errors.

use paradet_faults::cli::{
    emit_table, exit, parse_campaign_flags, reject_unknown, take_switch, take_value, wants_help,
};
use paradet_faults::{
    completeness_table, merge_campaign_on, merge_campaign_partial_on, merged_table,
    partial_result_table, real_fs, StoreError,
};
use std::path::PathBuf;

fn usage_text() -> String {
    format!(
        "usage: campaign-merge --dir <dir> [--partial] [--out <csv>] [config flags]\n\
         \n  \
         --partial                 merge whatever checkpoints exist, rendering per-shard\n                            completeness instead of refusing incomplete campaigns\n  \
         --help                    print this text and exit\n\
         \n\
         campaign config (optional; when given, the directory's manifest must match):\n{}",
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
        eprintln!("campaign-merge: {e}");
        usage();
    })
}

fn fail(e: &StoreError) -> ! {
    eprintln!("campaign-merge: {e}");
    std::process::exit(exit::code_for(e));
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&args) {
        println!("{}", usage_text());
        return;
    }
    let (cfg, explicit) = or_usage(parse_campaign_flags(&mut args));
    let partial = take_switch(&mut args, "--partial");
    let Some(dir) = or_usage(take_value(&mut args, "--dir")).map(PathBuf::from) else {
        eprintln!("campaign-merge: --dir is required");
        usage();
    };
    let out = or_usage(take_value(&mut args, "--out")).map(PathBuf::from);
    or_usage(reject_unknown(&args));

    let expect = if explicit { Some(&cfg) } else { None };
    if partial {
        let merge =
            merge_campaign_partial_on(&real_fs(), &dir, expect).unwrap_or_else(|e| fail(&e));
        print!("{}", completeness_table(&merge).render());
        eprintln!(
            "partial merge: {}/{} grid points across {} shards, fingerprint {}",
            merge.completed, merge.grid, merge.manifest.shards, merge.manifest.fingerprint
        );
        emit_table("campaign-merge", &partial_result_table(&merge), out.as_deref());
        return;
    }

    let (manifest, result) =
        merge_campaign_on(&real_fs(), &dir, expect).unwrap_or_else(|e| fail(&e));
    eprintln!(
        "merged {} shards, {} trials, fingerprint {}",
        manifest.shards,
        result.trials.len(),
        manifest.fingerprint
    );
    // A recovery campaign (manifest records a policy) merges to the
    // coverage-by-fault-class table, byte-identical to its one-shot; a
    // detection-only campaign keeps the historic coverage table.
    emit_table("campaign-merge", &merged_table(&manifest, &result), out.as_deref());
}
