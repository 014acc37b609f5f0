//! Determinism invariant 12, pinned by property: under **any** scripted
//! I/O fault plan, a supervised campaign either merges byte-identical to
//! the one-shot golden or terminates with a typed, explicit failure —
//! never a silent partial or corrupt merge.
//!
//! The harness is `supervise_in_process`: each shard incarnation runs
//! over a fresh `ChaosFs` (panic-mode kills, so thousands of random
//! scripts × shard counts × kill points run in seconds, no child
//! processes), restarts resume, and the final directory is merged with
//! the *real* filesystem — exactly what `campaign-merge` would see after
//! a supervised run on a faulty disk. The process-level twin (real
//! `campaignd --supervise` children under `--chaos`) lives in
//! `crates/faults/tests/supervised_campaigns.rs`.
//!
//! The store readers are pinned here too: bytes damaged on disk, by a
//! flip, an insertion or a truncation, read back as a typed refusal,
//! never as a panic or a value the bytes do not say. So is the flag
//! parser in front of the store: it refuses any argument list it cannot
//! begin a readable store for.

use paradet::faults::chaosfs::CHAOS_KILL;
use paradet::faults::cli::parse_campaign_flags;
use paradet::faults::store::{
    checkpoint_path, ensure_manifest_on, manifest_path, read_checkpoint_on, read_manifest_on,
    read_status_on, status_path, Manifest, ShardStatus,
};
use paradet::faults::supervisor::{supervise_in_process, ShardFate};
use paradet::faults::{
    coverage_table, merge_campaign_on, merge_campaign_partial_on, merged_table, real_fs,
    run_campaign, run_campaign_shard_on, CampaignConfig, ChaosScript, FaultSite, RealFs,
    RecoveryPolicy, ShardRunOptions, ShardSpec, StoreError, TrialResult,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::{Once, OnceLock};

/// Small enough that a case (≤ 3 restarts × ≤ 3 shards) stays in the
/// milliseconds, real enough to populate every outcome class.
fn small_cfg() -> CampaignConfig {
    CampaignConfig {
        instrs: 1_500,
        trials_per_site: 3,
        sites: vec![FaultSite::IntReg, FaultSite::StoreValue],
        ..CampaignConfig::default()
    }
}

/// The one-shot golden table, rendered once — every chaos case that
/// merges at all must reproduce these exact bytes.
fn golden_table() -> &'static str {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let cfg = small_cfg();
        coverage_table(cfg.workload.name(), &run_campaign(&cfg)).render()
    })
}

/// Scripted kills unwind as panics with the [`CHAOS_KILL`] payload; the
/// default hook would spam a backtrace per kill across thousands of
/// cases. Filter exactly those — any other panic still reports in full.
fn quiet_chaos_kills() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let is_kill = info.payload().downcast_ref::<String>().is_some_and(|s| s == CHAOS_KILL)
                || info.payload().downcast_ref::<&str>().is_some_and(|s| *s == CHAOS_KILL);
            if !is_kill {
                default(info);
            }
        }));
    });
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paradet-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The empty-script anchor: with no faults armed the in-process harness
/// itself must merge byte-identical — a regression here means the
/// proptest below would be exercising a broken harness, not the store.
#[test]
fn supervised_harness_without_chaos_is_byte_identical() {
    quiet_chaos_kills();
    let cfg = small_cfg();
    for shards in 1u32..=3 {
        let dir = tmpdir(&format!("clean-{shards}"));
        let script = ChaosScript::parse("").expect("empty script parses");
        let outcome = supervise_in_process(&cfg, &dir, shards, 2, &script, 2);
        assert!(outcome.all_completed(), "no chaos, no degradation: {:?}", outcome.fates);
        let (manifest, result) = merge_campaign_on(&real_fs(), &dir, Some(&cfg)).expect("merge");
        assert_eq!(merged_table(&manifest, &result).render(), golden_table());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Both supervisors take one policy. A manifest torn on the first
/// incarnation reads as `Corrupt` — exit 1, which `campaignd --supervise`
/// retries — so the in-process supervisor retries it too, up to its
/// budget, then quarantines the shard; the strict merge refuses the store.
#[test]
fn in_process_supervisor_retries_corrupt_like_campaignd() {
    quiet_chaos_kills();
    let cfg = small_cfg();
    let dir = tmpdir("torn-manifest");
    let script = ChaosScript::parse("0:torn-manifest-write@0=-4;0:fail-ckpt-write@0")
        .expect("script parses");
    let outcome = supervise_in_process(&cfg, &dir, 1, 2, &script, 2);
    assert!(
        matches!(outcome.fates[..], [ShardFate::Degraded { restarts: 2, .. }]),
        "{:?}",
        outcome.fates
    );
    assert!(matches!(merge_campaign_on(&real_fs(), &dir, Some(&cfg)), Err(StoreError::Corrupt(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// Invariant 12 over random fault scripts × shard counts × checkpoint
    /// cadences. Whatever the script does — torn or dropped writes, lost
    /// renames, ENOSPC/EIO, lost locks, kills at any I/O point, on any
    /// incarnation — exactly two endings are legal:
    ///
    /// * `merge_campaign_on` **succeeds** → the rendered table is
    ///   byte-identical to the one-shot golden (checkpoints can lag or
    ///   tear, but never lie);
    /// * it **fails** → the error is a typed [`StoreError`], and an
    ///   *incomplete* campaign is still explicitly accountable:
    ///   `merge_campaign_partial_on` renders per-shard completeness over the
    ///   verified prefixes instead of guessing.
    #[test]
    fn invariant_12_any_script_merges_golden_or_fails_typed(
        seed in any::<u64>(),
        shards in 1u32..=3,
        every in 1u64..=3,
    ) {
        quiet_chaos_kills();
        let cfg = small_cfg();
        let script = ChaosScript::random(seed, 3);
        let dir = tmpdir(&format!("prop-{seed:016x}-{shards}-{every}"));
        let _outcome = supervise_in_process(&cfg, &dir, shards, every, &script, 2);

        match merge_campaign_on(&real_fs(), &dir, Some(&cfg)) {
            Ok((manifest, result)) => {
                prop_assert_eq!(
                    merged_table(&manifest, &result).render(),
                    golden_table(),
                    "script `{}` (shards {}, every {}): a merge that succeeds must be \
                     byte-identical to the golden",
                    script.render(), shards, every
                );
            }
            Err(StoreError::Incomplete(which)) => {
                // Chaos starved some shard — legal only if the supervisor
                // actually reported degradation or a checkpoint write was
                // silently dropped; either way the partial merge must
                // account for every shard explicitly.
                let partial = merge_campaign_partial_on(&real_fs(), &dir, Some(&cfg));
                prop_assert!(
                    partial.is_ok(),
                    "script `{}`: incomplete ({which}) but partial merge failed: {:?}",
                    script.render(), partial.err()
                );
                let partial = partial.unwrap();
                prop_assert!(
                    partial.completed < partial.grid,
                    "script `{}`: strict merge refused a complete campaign", script.render()
                );
                prop_assert_eq!(partial.completeness.len(), shards as usize);
            }
            Err(e) => {
                // Torn manifest, corrupt interior, schema, I/O: typed and
                // explicit, never a plausible-but-wrong table. (A torn
                // manifest can even coexist with complete checkpoints —
                // the merge still refuses rather than trusting a store
                // whose identity it cannot verify.)
                prop_assert!(
                    !e.to_string().is_empty(),
                    "script `{}`: failure must carry a diagnosis", script.render()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A finished one-shard recovery campaign's store: the manifest, trials
/// and status its readers return, and each file's name and text.
type StoreFiles = (Manifest, Vec<TrialResult>, ShardStatus, [(PathBuf, String); 3]);

fn store_files() -> &'static StoreFiles {
    static FILES: OnceLock<StoreFiles> = OnceLock::new();
    FILES.get_or_init(|| {
        let cfg = CampaignConfig { recovery: Some(RecoveryPolicy::default()), ..small_cfg() };
        let (dir, solo) = (tmpdir("reader-template"), ShardSpec::SOLO);
        run_campaign_shard_on(&real_fs(), &dir, &cfg, &ShardRunOptions::default(), |_, _| {})
            .expect("template shard");
        let manifest = read_manifest_on(&RealFs, &dir).expect("manifest");
        let trials = read_checkpoint_on(&RealFs, &dir, &manifest, solo).expect("ckpt").unwrap();
        let status = read_status_on(&RealFs, &dir, solo).expect("status");
        let texts = [manifest_path(&dir), checkpoint_path(&dir, solo), status_path(&dir, solo)]
            .map(|p| (p.file_name().unwrap().into(), std::fs::read_to_string(&p).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
        (manifest, trials, status, texts)
    })
}

/// Whether reader `file` (manifest, checkpoint, status) makes of the
/// bytes now in `dir` a refusal or what those bytes say.
fn reads_true(dir: &Path, file: usize) -> bool {
    let (manifest, trials, status, texts) = store_files();
    let damaged = std::fs::read(dir.join(&texts[file].0)).unwrap();
    match file {
        // No digest covers the split: a changed shard count reads as such,
        // and a merge under it finds no checkpoint named for it.
        0 => read_manifest_on(&RealFs, dir)
            .map_or(true, |m| Manifest { shards: manifest.shards, ..m } == *manifest),
        1 => match read_checkpoint_on(&RealFs, dir, manifest, ShardSpec::SOLO) {
            Ok(Some(v)) => {
                format!("{v:?}") == format!("{:?}", &trials[..v.len().min(trials.len())])
            }
            other => other.is_err(),
        },
        // Heartbeats carry no checksum: a changed value is another
        // heartbeat, read exactly as the bytes spell it.
        _ => read_status_on(&RealFs, dir, ShardSpec::SOLO).is_none_or(|s| {
            let escaped = |v: &str| v.replace('\\', r"\\").replace('"', r#"\""#);
            let quoted = |v: &str| format!("\"state\": \"{}\"", escaped(v).replace('\n', r"\n"));
            let mut spelled = texts[2].1.replace(&quoted(&status.state), &quoted(&s.state));
            for (key, old, new) in [
                ("done", status.done, s.done),
                ("total", status.total, s.total),
                ("updated_unix", status.updated_unix, s.updated_unix),
            ] {
                spelled =
                    spelled.replace(&format!("\"{key}\": {old}"), &format!("\"{key}\": {new}"));
            }
            spelled.as_bytes() == damaged
        }),
    }
}

proptest! {
    /// Part 2 of "inputs can't crash it", for the store's readers: a byte
    /// of a valid manifest, checkpoint or status file is flipped, a byte
    /// inserted before it, or the file cut there. The manifest reader
    /// returns a typed error or the original (a changed shard count
    /// aside), the checkpoint reader a typed error or a prefix of the
    /// original trials (a torn last line is a clean truncation), the
    /// status reader `None` or exactly what the bytes spell — and none of
    /// them panics.
    #[test]
    fn store_readers_refuse_damaged_bytes(at in any::<u64>(), byte in 1u8..=255) {
        let dir = tmpdir(&format!("reader-{at:016x}-{byte}"));
        for (file, (name, text)) in store_files().3.iter().enumerate() {
            let i = (at % text.len() as u64) as usize;
            let (mut flipped, mut inserted) = (text.clone().into_bytes(), text.clone().into_bytes());
            flipped[i] ^= byte;
            inserted.insert(i, byte);
            for (how, bytes) in [("flip", flipped), ("insert", inserted), ("cut", text.as_bytes()[..i].to_vec())] {
                std::fs::write(dir.join(name), &bytes).unwrap();
                let read = std::panic::catch_unwind(|| reads_true(&dir, file));
                prop_assert!(matches!(read, Ok(true)), "{how} 0x{byte:02x} at byte {i} of file {file}: {:?}", read.ok());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Config flag `flag` with the value `pick` selects, randomized by `n`: a
/// number (`0`, `2`, `u64::MAX`, huge, any, small), a name or site list
/// that may be unknown or repeat a site, or garbage. The grid's flag,
/// `--trials-per-site`, is drawn four times as often as each other flag.
fn flag_and_value(flag: usize, pick: usize, n: u64) -> [String; 2] {
    const SITES: [&str; 4] = ["int-reg", "store-value", "pc", "load-value"];
    let flag = "--workload --instrs --seed --sites --fault-kind --recover --max-retries --no-lfu"
        .split(' ')
        .nth(flag)
        .unwrap_or("--trials-per-site");
    let value = match (flag, pick) {
        (_, 6) => ["", "soon", "-1", "0x10", "1e3"][(n % 5) as usize].to_string(),
        ("--workload", _) => ["stream", "freqmine", "randacc", "nope"][pick % 4].to_string(),
        ("--sites", 0) => "extended".to_string(),
        ("--sites", _) => {
            (0..=n % 4).map(|k| SITES[(n >> (8 * k)) as usize % 4]).collect::<Vec<_>>().join(",")
        }
        ("--fault-kind", _) => {
            ["transient", "permanent", "intermittent:40,3", "intermittent:40"][pick % 4].to_string()
        }
        _ => [0, 2, u64::MAX, u64::MAX >> (n % 8), n, n % 100_000][pick].to_string(),
    };
    [flag.to_string(), value]
}

proptest! {
    /// Part 2 of "inputs can't crash it", for the campaign flags: a random
    /// argument list, its last value perhaps cut off, is parsed or refused
    /// and never panics the parser, and every config it accepts begins a
    /// store whose manifest reads back as written.
    #[test]
    fn campaign_flags_parse_or_refuse_and_their_manifests_read_back(
        draws in proptest::collection::vec((0usize..12, 0usize..7, any::<u64>()), 0..8),
        cut in any::<bool>(),
        shards in 1u32..=3,
    ) {
        let mut args: Vec<String> =
            draws.iter().flat_map(|&(f, v, n)| flag_and_value(f, v, n)).collect();
        if cut {
            args.pop();
        }
        let parsed = std::panic::catch_unwind(|| parse_campaign_flags(&mut args.clone()));
        prop_assert!(parsed.is_ok(), "parse_campaign_flags panicked on {args:?}");
        if let Ok((cfg, _)) = parsed.unwrap() {
            let dir = tmpdir("flags");
            let written = ensure_manifest_on(&RealFs, &dir, &cfg, shards);
            let read = read_manifest_on(&RealFs, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            prop_assert!(written.is_ok(), "{args:?}: {:?}", written.err());
            prop_assert!(
                read.as_ref().ok() == written.as_ref().ok(),
                "{args:?}: the manifest written reads back as {:?}",
                read.map(|m| m.fingerprint)
            );
        }
    }
}

/// The chaos script grammar's words.
const CHAOS_VERBS: [&str; 5] = ["torn", "abort", "fail", "drop", "stall"];
const CHAOS_CLASSES: [&str; 5] = ["manifest", "ckpt", "status", "lock", "any"];
const CHAOS_OPS: [&str; 4] = ["write", "rename", "read", "remove"];
const CHAOS_SEPARATORS: [&str; 6] = [":", "-", "@", "=", ";", " "];
/// Spellings of an attempt or index in range: signed, zero-padded, spaced,
/// the largest.
const CHAOS_COUNTS: [&str; 6] = ["0", "1", "+7", "007", " 3", "4294967295"];
/// Spellings of an `arg` in range, the extremes among them.
const CHAOS_ARGS: [&str; 5] = ["-7", "0", "+24", "9223372036854775807", "-9223372036854775808"];
/// Numbers out of range for every field, and near-miss words.
const CHAOS_MISSES: [&str; 7] =
    ["4294967296", "-9223372036854775809", "18446744073709551616", "1e3", "tear", "log", "sync"];

/// A chaos script to parse, then damaged by `edits`. Before the damage it
/// is, by `seed`, a random script's rendering, entries assembled from the
/// grammar's words by `draws`, or words of every kind strung together in
/// any order. An edit flips, inserts or cuts a byte, or splices in a
/// separator or a number.
fn damaged_script(seed: u64, draws: &[u64], edits: &[(u8, u64, u64)]) -> String {
    let pick = |list: &[&'static str], r: u64| list[(r % list.len() as u64) as usize];
    let entry = |r: u64| {
        let (verb, class, op) =
            (pick(&CHAOS_VERBS, r >> 8), pick(&CHAOS_CLASSES, r >> 16), pick(&CHAOS_OPS, r >> 24));
        let (attempt, index) = (pick(&CHAOS_COUNTS, r), pick(&CHAOS_COUNTS, r >> 32));
        let arg = if r >> 63 == 0 { "" } else { pick(&CHAOS_ARGS, r >> 40) };
        let eq = if arg.is_empty() { "" } else { "=" };
        format!("{attempt}:{verb}-{class}-{op}@{index}{eq}{arg}")
    };
    let lists = [
        &CHAOS_VERBS[..],
        &CHAOS_CLASSES,
        &CHAOS_OPS,
        &CHAOS_SEPARATORS,
        &CHAOS_COUNTS,
        &CHAOS_ARGS,
        &CHAOS_MISSES,
    ];
    let mut text = match seed % 3 {
        0 => ChaosScript::random(seed, 4).render(),
        1 => draws.iter().take(3).map(|&r| entry(r)).collect::<Vec<_>>().join(";"),
        _ => draws.iter().map(|&r| pick(lists[(r % 7) as usize], r >> 8)).collect(),
    }
    .into_bytes();
    for &(kind, at, n) in edits {
        let i = (at % (text.len() as u64 + 1)) as usize;
        match kind {
            0 if i < text.len() => text[i] ^= (n as u8).max(1),
            0 | 1 => text.insert(i, n as u8),
            2 => text.truncate(i),
            _ => {
                let words = if kind == 3 { &CHAOS_SEPARATORS[..] } else { &CHAOS_MISSES };
                text.splice(i..i, pick(words, n).bytes());
            }
        }
    }
    String::from_utf8_lossy(&text).into_owned()
}

proptest! {
    /// Part 2 of "inputs can't crash it", for the chaos script grammar that
    /// `--chaos` and `PARADET_CHAOS` carry: a random, assembled or
    /// word-soup script, damaged or not, is refused with an error naming
    /// the entry, or read as a script whose rendering parses back to the
    /// same script. The parser never panics.
    #[test]
    fn chaos_scripts_parse_or_refuse_and_round_trip(
        seed in any::<u64>(),
        draws in proptest::collection::vec(any::<u64>(), 0..12),
        edits in proptest::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 0..3),
    ) {
        let text = damaged_script(seed, &draws, &edits);
        let parsed = std::panic::catch_unwind(|| ChaosScript::parse(&text));
        prop_assert!(parsed.is_ok(), "ChaosScript::parse panicked on {text:?}");
        match parsed.unwrap() {
            Ok(script) => {
                let rendered = script.render();
                let again = ChaosScript::parse(&rendered);
                prop_assert!(
                    again.as_ref() == Ok(&script),
                    "{text:?} reads as {script:?}, whose rendering {rendered:?} reads back as {again:?}"
                );
            }
            Err(e) => prop_assert!(e.starts_with("chaos entry `"), "{text:?}: {e}"),
        }
    }
}
