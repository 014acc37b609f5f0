//! The mixed-speed checker-farm experiment: detection-latency
//! distributions by scheduling policy (the MEEK/FlexStep regime — see
//! `paradet_checker::SchedPolicyKind`).

use super::{par_grid, save};
use crate::runner::Runner;
use paradet_core::{FarmSpec, SchedPolicyKind, SystemConfig};
use paradet_stats::Table;
use paradet_workloads::Workload;
use std::io;
use std::path::Path;

/// The mixed farm every policy is compared on: the paper's 12 slots,
/// striped fast/medium/slow (2 GHz / 1 GHz / 250 MHz — four slots each).
pub const MIXED_FARM_CLOCKS: [u64; 3] = [2000, 1000, 250];

/// Detection delay and slowdown-side pressure on a mixed farm, per
/// scheduling policy: round-robin wastes fast slots on short segments and
/// stalls behind slow ones; fastest-first keeps segments flowing to
/// whichever fast slot is free; deadline-aware additionally sizes
/// segments to slot speed (long segments on fast checkers), FlexStep's
/// regime. The `stall retries` column is the log-full backpressure the
/// main core felt — the policy axis the detection-latency distribution
/// trades against.
pub fn mixed_policy_delay(r: &Runner, out: &Path) -> io::Result<Table> {
    let farm = FarmSpec::striped(&MIXED_FARM_CLOCKS);
    let mut t = Table::new(
        "Mixed farm (2000/1000/250 MHz striped): detection delay by scheduling policy",
        &[
            "benchmark",
            "policy",
            "mean ns",
            "p99.9 ns",
            "max us",
            "frac <= 5000ns",
            "stall retries",
        ],
    );
    let cells = par_grid(&Workload::all(), &SchedPolicyKind::ALL, |w, &policy| {
        let cfg = SystemConfig::paper_default().with_farm(farm).with_sched_policy(policy);
        let rep = r.run(&cfg, w);
        let d = &rep.delays;
        vec![
            w.name().to_string(),
            policy.name().to_string(),
            format!("{:.0}", d.mean_ns()),
            format!("{:.0}", d.quantile_ns(0.999)),
            format!("{:.1}", d.max_ns() / 1000.0),
            format!("{:.4}", d.fraction_within(paradet_mem::Time::from_ns(5000))),
            format!("{}", rep.detector.log_full_retries),
        ]
    });
    for row in cells.into_iter().flatten() {
        t.row(&row);
    }
    save(&t, out, "mixed_policy_delay.csv")?;
    Ok(t)
}
