//! Fault-injection coverage (the detection claims of §IV) and
//! over-detection (§IV-I).

use super::save;
use paradet_core::SystemConfig;
use paradet_faults::{
    ci95, coverage_cells, run_campaign, run_overdetection_trials, CampaignConfig, FaultSite,
};
use paradet_stats::Table;
use paradet_workloads::Workload;
use std::io;
use std::path::Path;

/// Runs the fault campaign on two representative workloads (one memory
/// bound, one compute bound) plus the no-LFU ablation, and prints coverage
/// per site with 95% Wilson confidence intervals.
pub fn fault_coverage(trials_per_site: u64, instrs: u64, out: &Path) -> io::Result<Table> {
    let mut t = Table::new(
        "Fault-injection coverage (per unmasked fault)",
        &paradet_faults::COVERAGE_HEADER,
    );
    for w in [Workload::Freqmine, Workload::Bitcount] {
        let cfg =
            CampaignConfig { workload: w, instrs, trials_per_site, ..CampaignConfig::default() };
        for (site, s) in &run_campaign(&cfg).per_site {
            t.row(&coverage_cells(w.name(), site.name(), s));
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
    for (site, s) in &run_campaign(&ablation).per_site {
        t.row(&coverage_cells("freqmine (no LFU)", site.name(), s));
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
    save(&t, out, "fault_coverage.csv")?;
    Ok(t)
}
