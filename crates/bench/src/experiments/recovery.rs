//! Fault recovery (the detect → rollback → re-execute loop closing the
//! paper's §III recovery sketch): outcome per fault class across the
//! temporal fault space — transient, intermittent, and permanent strikes.

use super::save;
use paradet_faults::{
    recovery_cells, run_campaign, CampaignConfig, FaultKind, FaultSite, RecoveryPolicy,
    RECOVERY_HEADER,
};
use paradet_stats::Table;
use paradet_workloads::Workload;
use std::io;
use std::path::Path;

/// The temporal fault kinds the recovery sweep covers.
const KINDS: [FaultKind; 3] =
    [FaultKind::Transient, FaultKind::Intermittent { period: 40, count: 3 }, FaultKind::Permanent];

/// Runs recovery campaigns over the widened fault space (main-core,
/// array, and checker-side classes) for each temporal kind, and prints
/// one row per kind × class: how many trials recovered, degraded, or
/// escaped, with the mean retry count. Transient in-sphere classes must
/// show zero unrecoverable trials — the forward-progress guarantee.
pub fn fault_recovery(trials_per_site: u64, instrs: u64, out: &Path) -> io::Result<Table> {
    let mut t =
        Table::new("Fault recovery by class (detect → rollback → re-execute)", &RECOVERY_HEADER);
    let sites = vec![
        FaultSite::IntReg,
        FaultSite::StoreValue,
        FaultSite::IntRegMulti,
        FaultSite::CacheArray,
        FaultSite::CheckerFalsePos,
        FaultSite::CheckerMiss,
    ];
    for kind in KINDS {
        let cfg = CampaignConfig {
            workload: Workload::Freqmine,
            instrs,
            trials_per_site,
            sites: sites.clone(),
            fault_kind: kind,
            recovery: Some(RecoveryPolicy::default()),
            ..CampaignConfig::default()
        };
        let result = run_campaign(&cfg);
        for (site, s) in &result.per_site {
            t.row(&recovery_cells(cfg.workload.name(), kind.name(), site.name(), s));
        }
    }
    save(&t, out, "fault_recovery.csv")?;
    Ok(t)
}
