//! Sharded-campaign determinism: the on-disk shard/checkpoint/merge path
//! must reproduce the in-memory one-shot campaign bit for bit, and the
//! partitioner must tile the trial grid exactly.
//!
//! (The process-level half of the story — `campaignd` SIGKILLed mid-shard
//! and resumed — lives in `crates/faults/tests/interrupt_resume.rs`, which
//! drives the real binaries.)

use paradet::faults::shard::{grid_points, shard_points, ShardSpec};
use paradet::faults::store::{
    ensure_manifest_on, read_checkpoint_on, read_manifest_on, write_checkpoint_on, Manifest,
};
use paradet::faults::{
    coverage_table, merge_campaign_on, merge_campaign_partial_on, real_fs, run_campaign,
    run_campaign_shard_on, run_campaign_sharded, trial_plan, trial_seed, CampaignConfig, FaultKind,
    FaultSite, RealFs, ShardRunOptions, StoreError,
};
use paradet::par::with_threads;
use proptest::prelude::*;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paradet-shardtest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_cfg() -> CampaignConfig {
    CampaignConfig {
        instrs: 2_500,
        trials_per_site: 4,
        sites: vec![FaultSite::IntReg, FaultSite::StoreValue, FaultSite::Pc],
        ..CampaignConfig::default()
    }
}

/// The full determinism contract in-process: a 3-shard run through the
/// on-disk store merges to the same trials, aggregates, and rendered
/// coverage table as the one-shot in-memory campaign — including when the
/// two sides use different thread counts.
#[test]
fn sharded_merge_is_bit_identical_to_one_shot() {
    let cfg = small_cfg();
    let dir = tmpdir("identity");
    let one_shot = with_threads(2, || run_campaign(&cfg));
    let merged = with_threads(1, || run_campaign_sharded(&cfg, 3, &dir).expect("sharded run"));
    assert_eq!(format!("{:?}", one_shot.trials), format!("{:?}", merged.trials));
    assert_eq!(format!("{:?}", one_shot.per_site), format!("{:?}", merged.per_site));
    assert_eq!(
        coverage_table(cfg.workload.name(), &one_shot).render(),
        coverage_table(cfg.workload.name(), &merged).render(),
        "rendered coverage tables must match byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Interrupting a shard between checkpoints and resuming it changes
/// nothing: the resumed shard completes the identical slice, and the merge
/// still equals the one-shot. The interruption is simulated by a
/// checkpoint hook that panics mid-run (the process-kill variant lives in
/// the faults crate's integration test).
#[test]
fn interrupted_and_resumed_shard_merges_identically() {
    let cfg = small_cfg();
    let dir = tmpdir("resume");
    let fs = real_fs();
    let shard0 =
        ShardRunOptions { shard: ShardSpec::new(0, 2), checkpoint_every: 2, resume: false };
    // First attempt dies after the first checkpoint (4 of 6 trials left).
    let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_campaign_shard_on(&fs, &dir, &cfg, &shard0, |done, _| {
            if done >= 2 {
                panic!("injected interrupt");
            }
        })
    }));
    assert!(died.is_err(), "the injected interrupt must fire");
    // Without --resume the leftover state blocks a restart (here the
    // unwind released the lock file, so it is the existing checkpoint that
    // refuses; a real SIGKILL also leaves the lock — covered by the
    // process-level test in crates/faults).
    match run_campaign_shard_on(&fs, &dir, &cfg, &shard0, |_, _| {}) {
        Err(StoreError::Locked(_)) => {}
        r => panic!("expected the stale lock to block, got {r:?}"),
    }
    // Resume finishes the slice (and reports what it picked up).
    let resumed = ShardRunOptions { resume: true, ..shard0 };
    let summary = run_campaign_shard_on(&fs, &dir, &cfg, &resumed, |_, _| {}).expect("resume");
    assert_eq!(summary.resumed_from, 2, "resume must pick up the checkpointed prefix");
    assert_eq!(summary.done, summary.total);
    // Other shard, then merge: equal to one-shot.
    let shard1 = ShardRunOptions { shard: ShardSpec::new(1, 2), ..shard0 };
    run_campaign_shard_on(&fs, &dir, &cfg, &shard1, |_, _| {}).expect("shard 1");
    let (_, merged) = merge_campaign_on(&fs, &dir, Some(&cfg)).expect("merge");
    let one_shot = run_campaign(&cfg);
    assert_eq!(format!("{:?}", one_shot.trials), format!("{:?}", merged.trials));
    assert_eq!(format!("{:?}", one_shot.per_site), format!("{:?}", merged.per_site));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume and merge both refuse a directory whose manifest fingerprints a
/// different campaign — the satellite "fix" contract: a clear error, never
/// a silently mixed grid.
#[test]
fn resume_and_merge_reject_fingerprint_mismatch() {
    let cfg = small_cfg();
    let dir = tmpdir("mismatch");
    let fs = real_fs();
    let opts = ShardRunOptions { shard: ShardSpec::new(0, 1), checkpoint_every: 4, resume: false };
    run_campaign_shard_on(&fs, &dir, &cfg, &opts, |_, _| {}).expect("shard");

    for wrong in [
        CampaignConfig { seed: 43, ..cfg.clone() },
        CampaignConfig { trials_per_site: 5, ..cfg.clone() },
        CampaignConfig { workload: paradet::workloads::Workload::Stream, ..cfg.clone() },
    ] {
        let resumed = ShardRunOptions { resume: true, ..opts };
        match run_campaign_shard_on(&fs, &dir, &wrong, &resumed, |_, _| {}) {
            Err(StoreError::FingerprintMismatch { .. }) => {}
            r => panic!("resume with a different config must be refused, got {r:?}"),
        }
        match merge_campaign_on(&fs, &dir, Some(&wrong)) {
            Err(StoreError::FingerprintMismatch { .. }) => {}
            r => panic!("merge with a different config must be refused, got {r:?}"),
        }
        assert_ne!(
            Manifest::from_config(&cfg, 1).fingerprint,
            Manifest::from_config(&wrong, 1).fingerprint
        );
    }
    // The matching config still merges fine.
    assert!(merge_campaign_on(&fs, &dir, Some(&cfg)).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Merging with an unfinished shard names the shard instead of producing a
/// partial table, and a shard whose checkpoint holds a record past its
/// slice is refused rather than trimmed.
#[test]
fn merge_refuses_incomplete_shards() {
    let cfg = small_cfg();
    let dir = tmpdir("incomplete");
    let fs = real_fs();
    let opts = ShardRunOptions { shard: ShardSpec::new(0, 2), checkpoint_every: 4, resume: false };
    run_campaign_shard_on(&fs, &dir, &cfg, &opts, |_, _| {}).expect("shard 0");
    match merge_campaign_on(&fs, &dir, Some(&cfg)) {
        Err(StoreError::Incomplete(msg)) => {
            assert!(msg.contains("1/2"), "error must name the missing shard: {msg}")
        }
        r => panic!("expected Incomplete, got {r:?}"),
    }
    // One more record, checksummed like the rest, past shard 0's slice.
    let manifest = read_manifest_on(&RealFs, &dir).expect("manifest");
    let mut trials = read_checkpoint_on(&RealFs, &dir, &manifest, opts.shard)
        .expect("checkpoint")
        .expect("shard 0 ran");
    trials.push(trials[0].clone());
    write_checkpoint_on(&RealFs, &dir, &manifest, opts.shard, &trials).expect("rewrite");
    match merge_campaign_on(&fs, &dir, Some(&cfg)) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("slice"), "{msg}"),
        r => panic!("a record past the slice must be refused, got {r:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Only a self-consistent manifest, over a grid far too large to hold
    // in memory: both merges account for it without building the grid.
    let huge = CampaignConfig { trials_per_site: 1 << 60, ..cfg };
    ensure_manifest_on(&RealFs, &dir, &huge, 2).expect("manifest");
    match merge_campaign_on(&fs, &dir, Some(&huge)) {
        Err(StoreError::Incomplete(msg)) => assert!(msg.contains("0/2"), "{msg}"),
        r => panic!("expected Incomplete, got {r:?}"),
    }
    let partial = merge_campaign_partial_on(&fs, &dir, Some(&huge)).expect("partial merge");
    assert_eq!((partial.completed, partial.grid), (0, 3 << 60));
    for c in &partial.completeness {
        assert_eq!((c.done, c.total, c.state.as_str()), (0, 3 << 59, "missing"), "{c:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// The partitioner tiles the grid: for random site subsets, trial
    /// counts, and shard counts, the shard slices are disjoint, their
    /// union is exactly the site-major grid, slice order is increasing
    /// global index, and — the property sharding rides on — each point's
    /// RNG seed and armed fault are untouched by how the grid is split.
    #[test]
    fn partitioner_tiles_the_grid(
        site_mask in 1u8..=255,
        trials_per_site in 1u64..40,
        n_shards in 1u32..9,
        seed in any::<u64>(),
    ) {
        let sites: Vec<FaultSite> = FaultSite::all()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| site_mask & (1 << i) != 0)
            .map(|(_, s)| s)
            .collect();
        let grid = grid_points(&sites, trials_per_site);

        // Union (with order recovered by interleaving) == grid; disjoint.
        let mut recovered: Vec<Option<(FaultSite, u64)>> = vec![None; grid.len()];
        for i in 0..n_shards {
            let shard = ShardSpec::new(i, n_shards);
            let pts = shard_points(&sites, trials_per_site, shard);
            let globals: Vec<usize> =
                (0..grid.len()).filter(|&g| shard.owns(g)).collect();
            prop_assert_eq!(pts.len(), globals.len());
            for (&g, &p) in globals.iter().zip(&pts) {
                prop_assert!(recovered[g].is_none(), "two shards own grid point {}", g);
                recovered[g] = Some(p);
            }
            // Slice order is increasing global index ⇒ trials within a
            // site appear in increasing order.
            for w in pts.windows(2) {
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1);
                }
            }
        }
        for (g, (slot, &want)) in recovered.iter().zip(&grid).enumerate() {
            prop_assert_eq!(*slot, Some(want), "grid point {} missing from every shard", g);
        }

        // Seeds and faults are pure in (seed, site, trial): identical no
        // matter which shard enumerates the point.
        for &(site, trial) in grid.iter().take(16) {
            prop_assert_eq!(
                trial_seed(seed, site, trial),
                trial_seed(seed, site, trial)
            );
            let instrs = 4_000;
            prop_assert_eq!(
                trial_plan(seed, site, trial, instrs, FaultKind::Transient),
                trial_plan(seed, site, trial, instrs, FaultKind::Transient)
            );
        }
    }
}
