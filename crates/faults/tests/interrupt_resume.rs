//! Fault injection for the campaign service itself: the `campaignd`
//! process is aborted (SIGABRT via `--exit-after-checkpoints`) and
//! SIGKILLed mid-shard, then resumed — and the merged coverage table must
//! come out byte-identical to the one-shot golden.
//!
//! These tests drive the real binaries (`CARGO_BIN_EXE_*`), so they cover
//! the full surface CI's `campaign-shard` job gates: CLI parsing, the
//! on-disk store, lock semantics after an unclean death, resume, merge,
//! and the rendered CSV bytes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const CAMPAIGND: &str = env!("CARGO_BIN_EXE_campaignd");
const MERGE: &str = env!("CARGO_BIN_EXE_campaign-merge");

/// The small-but-real campaign every test here runs: three site classes,
/// four trials each (12 grid points), 2.5k instructions per trial.
const CONFIG_FLAGS: [&str; 8] = [
    "--instrs",
    "2500",
    "--trials-per-site",
    "4",
    "--seed",
    "42",
    "--sites",
    "int-reg,store-value,pc",
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paradet-interrupt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn campaignd(args: &[&str]) -> Output {
    Command::new(CAMPAIGND).args(CONFIG_FLAGS).args(args).output().expect("spawn campaignd")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// One-shot golden written to `path`; returns its bytes.
fn golden_csv(path: &PathBuf) -> Vec<u8> {
    let out = campaignd(&["--one-shot", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "one-shot failed: {}", stderr_of(&out));
    std::fs::read(path).expect("golden csv written")
}

/// `campaign-merge` of `dir`, checked against the config flags' fingerprint
/// and written to `dir/merged.csv`; returns its bytes.
fn merged_csv(dir: &Path) -> Vec<u8> {
    let path = dir.join("merged.csv");
    let merge = Command::new(MERGE)
        .args(CONFIG_FLAGS)
        .args(["--dir", dir.to_str().unwrap(), "--out", path.to_str().unwrap()])
        .output()
        .expect("spawn campaign-merge");
    assert!(merge.status.success(), "merge failed: {}", stderr_of(&merge));
    std::fs::read(&path).expect("merged csv written")
}

/// The acceptance-criteria scenario, end to end: a 2-shard campaign with
/// one shard deterministically aborted mid-run (after its first
/// checkpoint, with 5 of its 6 trials outstanding) and resumed, merged,
/// and diffed byte-for-byte against the one-shot golden.
#[test]
fn aborted_shard_resumes_and_merges_byte_identical() {
    let dir = tmpdir("abort");
    let dir_s = dir.to_str().unwrap();
    let golden_path = dir.join("golden.csv");
    std::fs::create_dir_all(&dir).unwrap();
    let golden = golden_csv(&golden_path);

    // Shard 0 aborts right after its first checkpoint (1 of 6 trials).
    let out = campaignd(&[
        "--shard",
        "0/2",
        "--dir",
        dir_s,
        "--checkpoint-every",
        "1",
        "--exit-after-checkpoints",
        "1",
    ]);
    assert!(!out.status.success(), "the abort hook must kill the process");
    assert!(dir.join("shard-0-of-2.jsonl").exists(), "checkpoint must survive the abort");
    assert!(dir.join("shard-0.lock").exists(), "an aborted process leaves its lock");
    assert!(dir.join("run_manifest.json").exists());

    // A restart WITHOUT --resume detects the dead lock owner (the aborted
    // process's pid is gone, or recycled onto a different start time),
    // takes the lock over, and continues the checkpoint implicitly — no
    // flag ceremony after a crash.
    let resumed = campaignd(&["--shard", "0/2", "--dir", dir_s, "--checkpoint-every", "1"]);
    assert!(
        resumed.status.success(),
        "dead-owner takeover must auto-resume: {}",
        stderr_of(&resumed)
    );
    let stdout = String::from_utf8_lossy(&resumed.stdout).into_owned();
    assert!(stdout.contains("(1 resumed, 5 run)"), "must resume from the checkpoint: {stdout}");

    // Re-running the now-*finished* shard without --resume is still
    // refused: no lock, no dead owner — just a completed checkpoint that
    // an explicit --resume (or a fresh dir) must acknowledge. Exit 4.
    let blocked = campaignd(&["--shard", "0/2", "--dir", dir_s]);
    assert_eq!(
        blocked.status.code(),
        Some(4),
        "finished checkpoint without --resume must block: {}",
        stderr_of(&blocked)
    );
    assert!(stderr_of(&blocked).contains("--resume"), "error must say how to proceed");

    // Shard 1 runs uninterrupted.
    let s1 = campaignd(&["--shard", "1/2", "--dir", dir_s]);
    assert!(s1.status.success(), "shard 1 failed: {}", stderr_of(&s1));

    // Merge (with the config flags, so the fingerprint gate is exercised
    // on the happy path too) and compare bytes.
    assert_eq!(
        golden,
        merged_csv(&dir),
        "merged coverage table must be byte-identical to the one-shot golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same invariant under a real SIGKILL: the shard is killed from
/// outside as soon as its first checkpoint appears, resumed, and merged.
/// (On a fast machine the shard may finish before the kill lands; resume
/// and merge must hold either way, and the deterministic-abort test above
/// always exercises the interrupted path.)
#[test]
fn sigkilled_shard_resumes_and_merges_byte_identical() {
    let dir = tmpdir("sigkill");
    let dir_s = dir.to_str().unwrap();
    let golden_path = dir.join("golden.csv");
    std::fs::create_dir_all(&dir).unwrap();
    let golden = golden_csv(&golden_path);

    let mut child = Command::new(CAMPAIGND)
        .args(CONFIG_FLAGS)
        .args(["--shard", "0/1", "--dir", dir_s, "--checkpoint-every", "1"])
        .spawn()
        .expect("spawn campaignd shard");
    // Kill (SIGKILL on unix) as soon as the first checkpoint is on disk.
    let ckpt = dir.join("shard-0-of-1.jsonl");
    for _ in 0..600 {
        if ckpt.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let _ = child.kill();
    let _ = child.wait();

    let resumed = campaignd(&["--shard", "0/1", "--resume", dir_s, "--checkpoint-every", "1"]);
    assert!(resumed.status.success(), "resume failed: {}", stderr_of(&resumed));

    assert_eq!(golden, merged_csv(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite of the chaos tentpole: kill the real binary *inside* the
/// checkpoint write→rename window. A scripted `PARADET_CHAOS` plan tears
/// the second checkpoint 7 bytes short (so the on-disk file ends in a
/// line whose crc cannot verify) and aborts the process during the third
/// checkpoint's write — stranding its pid-tagged `.tmp` before the
/// rename. Resume must (a) repair the torn final line to the intact
/// prefix per the PR 7 crc path, (b) sweep the stranded tmp, and (c)
/// merge byte-identical to the one-shot golden.
#[test]
fn chaos_kill_in_checkpoint_window_repairs_on_resume() {
    let dir = tmpdir("chaoswin");
    let dir_s = dir.to_str().unwrap();
    let golden_path = dir.join("golden.csv");
    std::fs::create_dir_all(&dir).unwrap();
    let golden = golden_csv(&golden_path);

    // Checkpoint every trial: ckpt-writes #0,#1,#2 are checkpoints 1–3.
    let out = Command::new(CAMPAIGND)
        .args(CONFIG_FLAGS)
        .args(["--shard", "0/2", "--dir", dir_s, "--checkpoint-every", "1"])
        .env("PARADET_CHAOS", "0:torn-ckpt-write@1=-7;0:abort-ckpt-write@2=0")
        .output()
        .expect("spawn campaignd under chaos");
    assert!(!out.status.success(), "the scripted abort must kill the process");

    let ckpt = dir.join("shard-0-of-2.jsonl");
    assert!(ckpt.exists(), "the torn checkpoint must have been renamed into place");
    let tmps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .map(|e| e.path())
        .collect();
    assert_eq!(tmps.len(), 1, "the aborted write must strand its tmp: {tmps:?}");
    assert!(dir.join("shard-0.lock").exists(), "abort leaves the lock");

    // Restart (no --resume, no chaos): dead-owner takeover, crc-repair of
    // the torn final line (2 records on disk, 1 survives), then 5 trials.
    let resumed = campaignd(&["--shard", "0/2", "--dir", dir_s, "--checkpoint-every", "1"]);
    assert!(resumed.status.success(), "resume under repair failed: {}", stderr_of(&resumed));
    let stdout = String::from_utf8_lossy(&resumed.stdout).into_owned();
    assert!(
        stdout.contains("(1 resumed, 5 run)"),
        "the torn record must be recomputed, the intact one kept: {stdout}"
    );
    let leftover: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .map(|e| e.path())
        .collect();
    assert!(leftover.is_empty(), "resume must sweep the stranded tmp: {leftover:?}");

    let s1 = campaignd(&["--shard", "1/2", "--dir", dir_s]);
    assert!(s1.status.success(), "shard 1 failed: {}", stderr_of(&s1));

    assert_eq!(golden, merged_csv(&dir), "chaos + repair must still merge byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard builds only the points up to its next checkpoint, so a slice of
/// 2^60 trials runs: aborted after its first checkpoint, it dies at the
/// hook (not a "capacity overflow" panic, exit 101), and the partial merge
/// accounts for both shards.
#[test]
fn a_huge_shard_checkpoints_without_building_its_slice() {
    let dir = tmpdir("huge");
    let dir_s = dir.to_str().unwrap();
    let grid = ["--instrs", "2500", "--trials-per-site", "1152921504606846976"];
    let out = Command::new(CAMPAIGND)
        .args(grid)
        .args(["--sites", "int-reg,pc", "--shard", "0/2", "--dir", dir_s])
        .args(["--checkpoint-every", "1", "--exit-after-checkpoints", "1"])
        .output()
        .expect("spawn campaignd");
    assert!(!out.status.success() && out.status.code() != Some(101), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("aborting after checkpoint 1"), "{}", stderr_of(&out));

    let merge = Command::new(MERGE)
        .args(["--partial", "--dir", dir_s])
        .output()
        .expect("spawn campaign-merge");
    assert!(merge.status.success(), "partial merge failed: {}", stderr_of(&merge));
    let stdout = String::from_utf8_lossy(&merge.stdout).into_owned();
    let row = |shard: &str| {
        let line = stdout.lines().find(|l| l.trim_start().starts_with(shard));
        line.map(|l| l.split_whitespace().collect::<Vec<_>>()).unwrap_or_default()
    };
    assert_eq!(row("0/2"), ["0/2", "1", "1152921504606846976", "0%", "partial"], "{stdout}");
    assert_eq!(row("1/2"), ["1/2", "0", "1152921504606846976", "0%", "missing"], "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint interval does not size what a shard builds at once: with
/// one larger than its slice, a 2^60-trial shard keeps running (it does not
/// panic with "capacity overflow", exit 101), and 6-trial shards each
/// checkpoint once, at their end, and merge byte-identical to the one-shot
/// table.
#[test]
fn a_huge_checkpoint_interval_runs_in_batches() {
    let dir = tmpdir("huge-interval");
    let dir_s = dir.to_str().unwrap();
    let never = u64::MAX.to_string();
    let mut huge = Command::new(CAMPAIGND)
        .args(["--instrs", "2500", "--trials-per-site", "1152921504606846976"])
        .args(["--sites", "int-reg,pc", "--shard", "0/2", "--dir", dir_s])
        .args(["--checkpoint-every", &never])
        .env("PARADET_THREADS", "1")
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn campaignd");
    std::thread::sleep(std::time::Duration::from_secs(3));
    let ended = huge.try_wait().expect("poll campaignd");
    let _ = huge.kill();
    let _ = huge.wait();
    assert_eq!(ended, None, "the 2^60-trial shard must still be running");
    let _ = std::fs::remove_dir_all(&dir);

    std::fs::create_dir_all(&dir).unwrap();
    let golden = golden_csv(&dir.join("golden.csv"));
    for shard in ["0/2", "1/2"] {
        let out = campaignd(&["--shard", shard, "--dir", dir_s, "--checkpoint-every", &never]);
        assert!(out.status.success(), "shard {shard} failed: {}", stderr_of(&out));
        let stderr = stderr_of(&out);
        let checkpoints: Vec<_> = stderr.lines().filter(|l| l.contains("checkpointed")).collect();
        assert_eq!(checkpoints, [format!("shard {shard}: 6/6 trials checkpointed")]);
    }
    assert_eq!(golden, merged_csv(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fingerprint gate, through the binaries: resuming or merging with a
/// different campaign config is a clear, distinct failure (exit 3), and
/// merging an unfinished campaign names the missing shard (exit 5).
#[test]
fn binaries_reject_mismatched_fingerprint_and_incomplete_merge() {
    let dir = tmpdir("reject");
    let dir_s = dir.to_str().unwrap();

    // Run shard 0 of 2 to completion (shard 1 never runs).
    let s0 = campaignd(&["--shard", "0/2", "--dir", dir_s]);
    assert!(s0.status.success(), "shard 0 failed: {}", stderr_of(&s0));

    // Resume with a different seed: fingerprint mismatch, exit 3.
    let out = Command::new(CAMPAIGND)
        .args(["--instrs", "2500", "--trials-per-site", "4", "--seed", "43"])
        .args(["--sites", "int-reg,store-value,pc"])
        .args(["--shard", "0/2", "--resume", dir_s])
        .output()
        .expect("spawn campaignd");
    assert_eq!(out.status.code(), Some(3), "wrong seed must exit 3: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("fingerprint mismatch"),
        "error must say what went wrong: {}",
        stderr_of(&out)
    );

    // Merge with a different trial count: fingerprint mismatch, exit 3.
    let out = Command::new(MERGE)
        .args(["--instrs", "2500", "--trials-per-site", "5", "--seed", "42"])
        .args(["--sites", "int-reg,store-value,pc"])
        .args(["--dir", dir_s])
        .output()
        .expect("spawn campaign-merge");
    assert_eq!(out.status.code(), Some(3), "wrong trials must exit 3: {}", stderr_of(&out));

    // Merge with the right config but a missing shard: incomplete, exit 5.
    let out = Command::new(MERGE)
        .args(CONFIG_FLAGS)
        .args(["--dir", dir_s])
        .output()
        .expect("spawn campaign-merge");
    assert_eq!(out.status.code(), Some(5), "missing shard must exit 5: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("shard 1/2"),
        "error must name the missing shard: {}",
        stderr_of(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
