//! Fault-injection coverage (the detection claims of §IV) and
//! over-detection (§IV-I).

use crate::runner::out_dir;
use paradet_core::SystemConfig;
use paradet_faults::{
    coverage_cells, run_campaign, run_campaign_sharded, run_overdetection_trials, CampaignConfig,
    CampaignResult, FaultSite, SiteResult,
};
use paradet_stats::{wilson_interval, Table};
use paradet_workloads::Workload;
use std::num::NonZeroU32;

/// Formats the 95% Wilson interval on a rate of `successes` in `trials` as
/// a percentage range.
fn ci95(successes: u64, trials: u64) -> String {
    let (lo, hi) = wilson_interval(successes, trials, 1.96);
    format!("[{:.0}%, {:.0}%]", lo * 100.0, hi * 100.0)
}

/// One coverage row, rendered through the same cell formatter the sharded
/// campaign service uses (`paradet_faults::coverage_cells`) — the
/// experiment table and a `campaign-merge` table can never drift apart.
fn site_row(t: &mut Table, workload: &str, site: &str, s: &SiteResult) {
    t.row(&coverage_cells(workload, site, s));
}

/// Runs a coverage campaign, optionally through the on-disk sharded
/// checkpoint/merge path: set `PARADET_CAMPAIGN_SHARDS=<n>` (n ≥ 2) to
/// split the grid into n shards, run them through the store, and merge.
/// The merged result is bit-identical to the in-memory one-shot — the
/// tables this experiment emits are byte-for-byte the same either way,
/// which is exactly the determinism contract CI's `campaign-shard` job
/// enforces.
fn campaign(cfg: &CampaignConfig) -> CampaignResult {
    let shards = paradet_par::env_setting::<NonZeroU32>("PARADET_CAMPAIGN_SHARDS")
        .map_or(1, NonZeroU32::get);
    match shards {
        n @ 2.. => {
            let dir = std::env::temp_dir().join(format!(
                "paradet-bench-shards-{}-{}",
                std::process::id(),
                paradet_faults::store::fingerprint(cfg)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let result = run_campaign_sharded(cfg, n, &dir)
                .unwrap_or_else(|e| panic!("sharded campaign in {}: {e}", dir.display()));
            let _ = std::fs::remove_dir_all(&dir);
            result
        }
        _ => run_campaign(cfg),
    }
}

/// Runs the fault campaign on two representative workloads (one memory
/// bound, one compute bound) plus the no-LFU ablation, and prints coverage
/// per site with 95% Wilson confidence intervals.
pub fn fault_coverage(trials_per_site: u64, instrs: u64) -> Table {
    let mut t = Table::new(
        "Fault-injection coverage (per unmasked fault)",
        &paradet_faults::COVERAGE_HEADER,
    );
    for w in [Workload::Freqmine, Workload::Bitcount] {
        let cfg =
            CampaignConfig { workload: w, instrs, trials_per_site, ..CampaignConfig::default() };
        let result = campaign(&cfg);
        for (site, s) in &result.per_site {
            site_row(&mut t, w.name(), site.name(), s);
        }
    }
    // The LFU ablation: the naive design leaks pre-capture load faults.
    let ablation = CampaignConfig {
        system: SystemConfig { lfu_enabled: false, ..SystemConfig::paper_default() },
        workload: Workload::Freqmine,
        instrs,
        trials_per_site,
        sites: vec![FaultSite::LoadCapture, FaultSite::LoadValue],
        ..CampaignConfig::default()
    };
    let result = campaign(&ablation);
    for (site, s) in &result.per_site {
        site_row(&mut t, "freqmine (no LFU)", site.name(), s);
    }
    // Over-detection (§IV-I): faults in the detection hardware itself.
    let od_cfg = CampaignConfig { instrs, ..CampaignConfig::default() };
    let (fp, n) = run_overdetection_trials(&od_cfg, trials_per_site.min(10));
    t.row(&[
        "freqmine".to_string(),
        "log-entry (over-detection)".to_string(),
        n.to_string(),
        fp.to_string(),
        "0".to_string(),
        "0".to_string(),
        (n - fp).to_string(),
        format!("{:.0}% false-positive", fp as f64 / n as f64 * 100.0),
        ci95(fp, n),
    ]);
    let _ = t.write_csv(&out_dir().join("fault_coverage.csv"));
    t
}
