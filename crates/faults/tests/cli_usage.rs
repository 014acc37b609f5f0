//! The campaign binaries' command line: `--help` prints usage to stdout
//! and succeeds, and every malformed option is a usage error (exit 2)
//! that names the flag and, when there is one, the value.

use std::process::{Command, Output};

const CAMPAIGND: &str = env!("CARGO_BIN_EXE_campaignd");
const MERGE: &str = env!("CARGO_BIN_EXE_campaign-merge");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn the binary")
}

/// Asserts a usage error whose message contains every one of `needles`.
fn assert_usage_error(bin: &str, args: &[&str], needles: &[&str]) {
    assert_refused(Command::new(bin).args(args), needles);
}

/// Runs `cmd` and asserts a usage error whose message contains every one
/// of `needles`.
fn assert_refused(cmd: &mut Command, needles: &[&str]) {
    let out = cmd.output().expect("spawn the binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{cmd:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{cmd:?} printed to stdout");
    for needle in needles {
        assert!(stderr.contains(needle), "{cmd:?}: `{needle}` missing from\n{stderr}");
    }
}

#[test]
fn help_prints_usage_to_stdout_and_succeeds() {
    for (bin, name) in [(CAMPAIGND, "campaignd"), (MERGE, "campaign-merge")] {
        for flag in ["--help", "-h"] {
            let out = run(bin, &[flag, "--seed", "not-a-number"]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{name} {flag}");
            assert!(stdout.starts_with(&format!("usage: {name}")), "{name} {flag}:\n{stdout}");
            assert!(stdout.contains("--trials-per-site"), "config flags listed");
            assert!(out.stderr.is_empty(), "{name} {flag} wrote to stderr");
        }
    }
}

#[test]
fn bad_option_values_name_the_flag_and_value() {
    for flag in [
        "--checkpoint-every",
        "--exit-after-checkpoints",
        "--max-restarts",
        "--heartbeat-timeout-ms",
        "--backoff-base-ms",
        "--supervise",
        "--seed",
    ] {
        let expected = format!("bad {flag} `soon`");
        assert_usage_error(CAMPAIGND, &["--one-shot", flag, "soon"], &[&expected]);
    }
    // A checkpoint every 0 trials is refused in every mode before anything
    // is written, `--supervise` included: it would forward the value to
    // its shards.
    let dir = std::env::temp_dir().join(format!("paradet-cli-every-{}", std::process::id()));
    let dir_s = dir.to_str().unwrap();
    for mode in [
        &["--one-shot"][..],
        &["--shard", "0/1", "--dir", dir_s],
        &["--supervise", "2", "--dir", dir_s],
    ] {
        let args = [mode, &["--checkpoint-every", "0"]].concat();
        assert_usage_error(CAMPAIGND, &args, &["bad --checkpoint-every `0`"]);
    }
    assert!(!dir.exists(), "a refused interval must leave no directory");
    assert_usage_error(MERGE, &["--dir", "camp", "--instrs", "many"], &["bad --instrs `many`"]);
}

#[test]
fn missing_option_values_name_the_flag() {
    for flag in [
        "--dir",
        "--resume",
        "--shard",
        "--checkpoint-every",
        "--max-restarts",
        "--chaos",
        "--out",
        "--workload",
    ] {
        let expected = format!("{flag} requires a value");
        assert_usage_error(CAMPAIGND, &["--one-shot", flag], &[&expected]);
    }
    assert_usage_error(MERGE, &["--dir"], &["--dir requires a value"]);
    for flag in ["--out", "--seed"] {
        let expected = format!("{flag} requires a value");
        assert_usage_error(MERGE, &["--dir", "camp", flag], &[&expected]);
    }
}

/// A grid of `sites x trials_per_site` points that overflows a u64 is a
/// store no manifest reader accepts: both binaries refuse it as a usage
/// error, and `campaignd` writes nothing for it.
#[test]
fn an_overflowing_grid_is_refused_before_anything_is_written() {
    let dir = std::env::temp_dir().join(format!("paradet-cli-grid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    let grid = ["--trials-per-site", "9223372036854775807", "--sites", "int-reg,store-value,pc"];
    let needles = ["--trials-per-site 9223372036854775807", "overflows a u64"];
    assert_usage_error(
        CAMPAIGND,
        &[&["--shard", "0/2", "--dir", dir_s][..], &grid].concat(),
        &needles,
    );
    assert!(!dir.exists(), "a refused grid must leave no directory");
    assert_usage_error(MERGE, &[&["--partial", "--dir", dir_s][..], &grid].concat(), &needles);
}

/// The chaos hook's environment is refused like a malformed flag, under
/// the name of the variable at fault, before the shard writes anything.
#[test]
fn malformed_chaos_settings_name_their_variable() {
    let dir = std::env::temp_dir().join(format!("paradet-cli-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    let args = ["--shard", "0/1", "--dir", dir_s, "--instrs", "2500", "--sites", "int-reg"];
    for (script, attempt, needle) in [
        ("0:fail-ckpt-write@0", "x", "campaignd: PARADET_CHAOS_ATTEMPT=x: "),
        ("0:fail-ckpt-write@0", "-1", "campaignd: PARADET_CHAOS_ATTEMPT=-1: "),
        ("0:fail-ckpt-write", "0", "campaignd: PARADET_CHAOS: chaos entry `0:fail-ckpt-write`"),
    ] {
        let mut cmd = Command::new(CAMPAIGND);
        cmd.args(args).env("PARADET_CHAOS", script).env("PARADET_CHAOS_ATTEMPT", attempt);
        assert_refused(&mut cmd, &[needle]);
        assert!(!dir.exists(), "a refused chaos setting must leave no directory");
    }
}

#[test]
fn unknown_flags_stay_usage_errors() {
    assert_usage_error(
        CAMPAIGND,
        &["--one-shot", "--wrokload", "x"],
        &["unknown flag `--wrokload`"],
    );
    assert_usage_error(MERGE, &["--dir", "camp", "--parital"], &["unknown flag `--parital`"]);
}
