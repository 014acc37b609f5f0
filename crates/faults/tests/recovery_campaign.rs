//! Determinism and forward-progress gates for recovery campaigns
//! (detect → rollback → re-execute), at every level the service exposes:
//! in-process thread counts, in-process sharding, and the real binaries
//! killed mid-campaign and resumed — plus the v2 schema gate that keeps
//! v1 stores from being silently misread.

use paradet_faults::{
    merge_campaign_on, real_fs, recovery_table, run_campaign, run_campaign_sharded, CampaignConfig,
    FaultSite, Outcome, StoreError,
};
use std::path::PathBuf;
use std::process::{Command, Output};

const CAMPAIGND: &str = env!("CARGO_BIN_EXE_campaignd");
const MERGE: &str = env!("CARGO_BIN_EXE_campaign-merge");

/// The recovery campaign every test here runs: a main-core class, a
/// store-datapath class, and a checker-side class, under the rollback
/// driver.
const CONFIG_FLAGS: [&str; 9] = [
    "--instrs",
    "2500",
    "--trials-per-site",
    "3",
    "--seed",
    "42",
    "--sites",
    "int-reg,store-value,checker-false-pos",
    "--recover",
];

fn small_recovery_cfg() -> CampaignConfig {
    CampaignConfig {
        instrs: 2_500,
        trials_per_site: 3,
        sites: vec![FaultSite::IntReg, FaultSite::StoreValue, FaultSite::CheckerFalsePos],
        recovery: Some(paradet_faults::RecoveryPolicy::default()),
        ..CampaignConfig::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paradet-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The forward-progress gate: over transient fault classes inside the
/// detection sphere, every detected fault must recover (or crash, per
/// §IV-H) — zero unrecoverable trials, zero livelock, and every
/// `Recovered` classification already implies final state ≡ golden (the
/// classifier only hands out that label on bit-identity).
#[test]
fn transient_recovery_campaign_has_no_unrecoverable_trials() {
    let result = run_campaign(&small_recovery_cfg());
    let mut recovered = 0;
    for (site, s) in &result.per_site {
        assert_eq!(
            s.unrecoverable,
            0,
            "{}: transient faults must never be unrecoverable",
            site.name()
        );
        assert_eq!(s.sdc, 0, "{}: in-sphere transients must not escape", site.name());
        recovered += s.recovered;
    }
    assert!(recovered > 0, "the campaign must exercise actual rollbacks");
    for t in &result.trials {
        if let Outcome::Recovered { retries } = t.outcome {
            assert!(retries >= 1, "a recovered trial rolled back at least once");
            assert!(t.recovery_fs.unwrap_or(0) > 0, "recovery time must be charged");
        }
    }
}

/// Determinism invariant 9 at the campaign level: the recovery table is
/// byte-identical at any worker thread count.
#[test]
fn recovery_campaign_is_thread_count_invariant() {
    let cfg = small_recovery_cfg();
    let t1 = paradet_par::with_threads(1, || run_campaign(&cfg));
    let t4 = paradet_par::with_threads(4, || run_campaign(&cfg));
    let r1 = recovery_table(cfg.workload.name(), cfg.fault_kind.name(), &t1).render();
    let r4 = recovery_table(cfg.workload.name(), cfg.fault_kind.name(), &t4).render();
    assert_eq!(r1, r4, "recovery tables must be byte-identical at 1 vs 4 threads");
    for (a, b) in t1.trials.iter().zip(t4.trials.iter()) {
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.recovery_fs, b.recovery_fs);
    }
}

/// Invariant 8 extended to recovery campaigns: a 2-shard store round-trip
/// (checkpoints written, read back, merged) reproduces the one-shot
/// result bit for bit — including the recovery outcomes, retry counts,
/// and recovery latencies that only exist in the v2 record format.
#[test]
fn two_shard_recovery_campaign_merges_byte_identical() {
    let cfg = small_recovery_cfg();
    let one_shot = run_campaign(&cfg);
    let dir = tmpdir("shard2");
    let merged = run_campaign_sharded(&cfg, 2, &dir).expect("sharded run");
    assert_eq!(one_shot.trials.len(), merged.trials.len());
    for (a, b) in one_shot.trials.iter().zip(merged.trials.iter()) {
        assert_eq!(a.site, b.site);
        assert_eq!(a.trial, b.trial);
        assert_eq!(a.outcome, b.outcome, "outcomes must survive the store round-trip");
        assert_eq!(a.detect_latency, b.detect_latency);
        assert_eq!(a.recovery_fs, b.recovery_fs, "v2 recovery fields must survive");
    }
    let t_one = recovery_table(cfg.workload.name(), cfg.fault_kind.name(), &one_shot).render();
    let t_merged = recovery_table(cfg.workload.name(), cfg.fault_kind.name(), &merged).render();
    assert_eq!(t_one, t_merged);
    // A manifest that lost its last 4 bytes lost the end of its recovery
    // policy: the merge refuses it rather than render a detection table.
    let manifest = dir.join("run_manifest.json");
    let text = std::fs::read(&manifest).unwrap();
    std::fs::write(&manifest, &text[..text.len() - 4]).unwrap();
    match merge_campaign_on(&real_fs(), &dir, Some(&cfg)) {
        Err(StoreError::Corrupt(_)) => {}
        r => panic!("a torn manifest must be refused, got {r:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The binary-level recovery leg CI runs: a recovery campaign sharded
/// 2 ways, one shard aborted mid-run after its first checkpoint, resumed,
/// merged — and the merged coverage-by-class CSV must be byte-identical
/// to the one-shot golden.
#[test]
fn killed_recovery_shard_resumes_and_merges_byte_identical() {
    let dir = tmpdir("kill");
    let dir_s = dir.to_str().unwrap();

    let golden_path = dir.join("golden.csv");
    let golden = Command::new(CAMPAIGND)
        .args(CONFIG_FLAGS)
        .args(["--one-shot", "--out", golden_path.to_str().unwrap()])
        .output()
        .expect("spawn campaignd");
    assert!(golden.status.success(), "one-shot failed: {}", stderr_of(&golden));
    let golden_bytes = std::fs::read(&golden_path).expect("golden csv");

    // Shard 0 aborts right after its first checkpoint, mid-recovery-campaign.
    let aborted = Command::new(CAMPAIGND)
        .args(CONFIG_FLAGS)
        .args([
            "--shard",
            "0/2",
            "--dir",
            dir_s,
            "--checkpoint-every",
            "1",
            "--exit-after-checkpoints",
            "1",
        ])
        .output()
        .expect("spawn campaignd");
    assert!(!aborted.status.success(), "the abort hook must kill the process");

    let resumed = Command::new(CAMPAIGND)
        .args(CONFIG_FLAGS)
        .args(["--shard", "0/2", "--resume", dir_s])
        .output()
        .expect("spawn campaignd");
    assert!(resumed.status.success(), "resume failed: {}", stderr_of(&resumed));

    let s1 = Command::new(CAMPAIGND)
        .args(CONFIG_FLAGS)
        .args(["--shard", "1/2", "--dir", dir_s])
        .output()
        .expect("spawn campaignd");
    assert!(s1.status.success(), "shard 1 failed: {}", stderr_of(&s1));

    let merged_path = dir.join("merged.csv");
    let merge = Command::new(MERGE)
        .args(CONFIG_FLAGS)
        .args(["--dir", dir_s, "--out", merged_path.to_str().unwrap()])
        .output()
        .expect("spawn campaign-merge");
    assert!(merge.status.success(), "merge failed: {}", stderr_of(&merge));
    let merged_bytes = std::fs::read(&merged_path).expect("merged csv");
    assert_eq!(
        golden_bytes, merged_bytes,
        "interrupted + resumed + merged recovery CSV must equal the one-shot golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The schema gate, through the binaries: a directory written by the v1
/// store is refused with exit code 6 by both `campaignd` (resume) and
/// `campaign-merge` — never silently misread as a v2 campaign.
#[test]
fn v1_store_is_refused_with_exit_code_6() {
    let dir = tmpdir("v1");
    let dir_s = dir.to_str().unwrap();

    // Hand-write a v1-era store: v1 manifest, v1 checkpoint (no crc
    // columns, no fault_kind/recovery fields), exactly as the old writer
    // laid them out.
    std::fs::write(
        dir.join("run_manifest.json"),
        "{\n  \"schema\": \"paradet-campaign-manifest/v1\",\n  \
         \"fingerprint\": \"00000000deadbeef\",\n  \"seed\": 42,\n  \
         \"workload\": \"freqmine\",\n  \"instrs\": 2500,\n  \
         \"trials_per_site\": 3,\n  \"sites\": [\"int-reg\"],\n  \
         \"shards\": 1,\n  \"system\": \"SystemConfig\"\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("shard-0-of-1.jsonl"),
        "{\"schema\": \"paradet-campaign-ckpt/v1\", \"fingerprint\": \
         \"00000000deadbeef\", \"shard\": \"0/1\"}\n\
         {\"site\": \"int-reg\", \"trial\": 0, \"outcome\": \"detected\", \
         \"latency_fs\": 123}\n",
    )
    .unwrap();

    let resume = Command::new(CAMPAIGND)
        .args(["--instrs", "2500", "--trials-per-site", "3", "--sites", "int-reg"])
        .args(["--shard", "0/1", "--resume", dir_s])
        .output()
        .expect("spawn campaignd");
    assert_eq!(
        resume.status.code(),
        Some(6),
        "resuming a v1 store must exit 6: {}",
        stderr_of(&resume)
    );
    assert!(
        stderr_of(&resume).contains("incompatible"),
        "the error must say the store is incompatible: {}",
        stderr_of(&resume)
    );

    let merge = Command::new(MERGE).args(["--dir", dir_s]).output().expect("spawn merge");
    assert_eq!(
        merge.status.code(),
        Some(6),
        "merging a v1 store must exit 6: {}",
        stderr_of(&merge)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
