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
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: `{needle}` missing from\n{stderr}");
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

#[test]
fn unknown_flags_stay_usage_errors() {
    assert_usage_error(
        CAMPAIGND,
        &["--one-shot", "--wrokload", "x"],
        &["unknown flag `--wrokload`"],
    );
    assert_usage_error(MERGE, &["--dir", "camp", "--parital"], &["unknown flag `--parital`"]);
}
