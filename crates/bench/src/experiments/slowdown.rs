//! The normalized-slowdown experiments: Fig. 7, 9, 10 and 13.

use super::{par_grid, CLOCK_SWEEP, CORE_SWEEP, LOG_SWEEP};
use crate::runner::{out_dir, Runner};
use paradet_core::{DetectionMode, SystemConfig};
use paradet_stats::{Summary, Table};
use paradet_workloads::Workload;

/// Fig. 7: normalized slowdown per benchmark at Table I settings
/// (paper: average 1.75%, max 3.4%).
pub fn fig07_slowdown(r: &Runner) -> Table {
    let cfg = SystemConfig::paper_default();
    let mut t = Table::new(
        "Fig. 7: normalized slowdown at default settings",
        &["benchmark", "baseline Mcycles", "checked Mcycles", "slowdown"],
    );
    let cells = par_grid(&Workload::all(), &[()], |w, ()| {
        let base = r.baseline(w).main_cycles;
        let full = r.run(&cfg, w);
        (base, full.main_cycles)
    });
    let mut slowdowns = Vec::new();
    for (w, row) in Workload::all().iter().zip(&cells) {
        let (base, full) = row[0];
        let s = full as f64 / base.max(1) as f64;
        slowdowns.push(s);
        t.row(&[
            w.name().to_string(),
            format!("{:.3}", base as f64 / 1e6),
            format!("{:.3}", full as f64 / 1e6),
            format!("{s:.4}"),
        ]);
    }
    let sum = Summary::of(&slowdowns);
    t.row(&["geomean".to_string(), String::new(), String::new(), format!("{:.4}", sum.geomean)]);
    let _ = t.write_csv(&out_dir().join("fig07_slowdown.csv"));
    t
}

/// Fig. 9: slowdown when sweeping the checker-core clock
/// (paper: compute-bound benchmarks suffer below 500 MHz, up to ~4.5x).
/// Each point is [`Runner::clock_point`]'s: one run per workload carries
/// every clock, and only the clocks whose rows it cannot certify exact run
/// again on their own.
pub fn fig09_freq_slowdown(r: &Runner) -> Table {
    let mut t = clock_table("Fig. 9: slowdown vs checker clock");
    let cells = par_grid(&Workload::all(), &CLOCK_SWEEP, |w, &mhz| r.clock_point(w, mhz).slowdown);
    for (w, row) in Workload::all().iter().zip(&cells) {
        let mut out = vec![w.name().to_string()];
        out.extend(row.iter().map(|s| format!("{s:.3}")));
        t.row(&out);
    }
    let _ = t.write_csv(&out_dir().join("fig09_freq_slowdown.csv"));
    t
}

/// An empty table with the shared `benchmark, 125MHz, …` header of the
/// Fig. 9/11 sweeps.
pub(crate) fn clock_table(title: &str) -> Table {
    let header: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(CLOCK_SWEEP.iter().map(|m| format!("{m}MHz")))
        .collect();
    let href: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    Table::new(title, &href)
}

/// Fig. 10: slowdown from checkpointing alone (checkers disabled), across
/// log sizes and timeouts (paper: up to 15% at 3.6 KiB/500, ≤2% at
/// defaults, negligible at 360 KiB).
pub fn fig10_checkpoint_overhead(r: &Runner) -> Table {
    let configs = &LOG_SWEEP[..4];
    let header: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(configs.iter().map(|(l, _, _)| l.to_string()))
        .collect();
    let href: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("Fig. 10: checkpoint-only slowdown vs log size/timeout", &href);
    let cells = par_grid(&Workload::all(), configs, |w, &(_, bytes, timeout)| {
        let cfg = SystemConfig::paper_default()
            .with_log(bytes, timeout)
            .with_mode(DetectionMode::CheckpointOnly);
        r.slowdown(&cfg, w)
    });
    for (w, row) in Workload::all().iter().zip(&cells) {
        let mut out = vec![w.name().to_string()];
        out.extend(row.iter().map(|s| format!("{s:.4}")));
        t.row(&out);
    }
    let _ = t.write_csv(&out_dir().join("fig10_checkpoint_overhead.csv"));
    t
}

/// Fig. 13: slowdown across checker-core counts and clocks
/// (paper: N cores at M MHz ≈ 2N cores at M/2 MHz).
///
/// Core counts change segment geometry, so each count needs its own
/// simulation; the Table I count's points are Fig. 9's
/// [`Runner::clock_point`]s.
pub fn fig13_core_scaling(r: &Runner) -> Table {
    let header: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(CORE_SWEEP.iter().map(|(l, _, _)| l.to_string()))
        .collect();
    let href: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("Fig. 13: slowdown vs checker core count and clock", &href);
    let table1_cores = SystemConfig::paper_default().n_checkers;
    let cells = par_grid(&Workload::all(), &CORE_SWEEP, |w, &(_, cores, mhz)| {
        if cores == table1_cores {
            r.clock_point(w, mhz).slowdown
        } else {
            let cfg = SystemConfig::paper_default().with_checkers(cores).with_checker_mhz(mhz);
            r.slowdown(&cfg, w)
        }
    });
    for (w, row) in Workload::all().iter().zip(&cells) {
        let mut out = vec![w.name().to_string()];
        out.extend(row.iter().map(|s| format!("{s:.3}")));
        t.row(&out);
    }
    let _ = t.write_csv(&out_dir().join("fig13_core_scaling.csv"));
    t
}
