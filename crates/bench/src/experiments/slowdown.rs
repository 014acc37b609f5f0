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
///
/// One-run path: each workload simulates **once**, with every sweep clock
/// folded as a secondary [`ClockDomain`](paradet_core::ClockDomain). A
/// domain row with zero stall divergences is bit-identical to a dedicated
/// run at that clock (its slowdown is the shared main-core cycle count
/// over the baseline); a diverged row — a clock slow enough that its
/// dedicated run would have stalled the main core differently — falls back
/// to a dedicated run, so the table is exact at every clock.
pub fn fig09_freq_slowdown(r: &Runner) -> Table {
    let mut t = clock_table("Fig. 9: slowdown vs checker clock");
    let cells = par_grid(&Workload::all(), &[()], |w, ()| {
        let base = r.baseline(w).main_cycles.max(1);
        let rep = r.clock_sweep(w, &CLOCK_SWEEP);
        rep.domains
            .iter()
            .map(|d| {
                if d.stall_divergences == 0 {
                    rep.main_cycles as f64 / base as f64
                } else {
                    let cfg = SystemConfig::paper_default().with_checker_mhz(d.domain.mhz());
                    r.slowdown(&cfg, w)
                }
            })
            .collect::<Vec<f64>>()
    });
    for (w, row) in Workload::all().iter().zip(&cells) {
        let mut out = vec![w.name().to_string()];
        out.extend(row[0].iter().map(|s| format!("{s:.3}")));
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
/// Core counts change segment geometry, so each count still needs its own
/// simulation — but the three 12-core points (250/500/1000 MHz) share one
/// run with the clocks folded as secondary domains, cutting the sweep from
/// five simulations per workload to three. Diverged domains fall back to a
/// dedicated run, as in [`fig09_freq_slowdown`].
pub fn fig13_core_scaling(r: &Runner) -> Table {
    let header: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(CORE_SWEEP.iter().map(|(l, _, _)| l.to_string()))
        .collect();
    let href: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("Fig. 13: slowdown vs checker core count and clock", &href);
    // The distinct core counts of the sweep, each one simulation: the
    // non-default counts run single-clock; the 12-core run carries every
    // 12-core clock of the sweep as a domain.
    let twelve_clocks: Vec<u64> =
        CORE_SWEEP.iter().filter(|&&(_, c, _)| c == 12).map(|&(_, _, m)| m).collect();
    #[derive(Clone, Copy)]
    enum Point {
        Single(usize, u64),
        TwelveSweep,
    }
    let points: Vec<Point> = {
        let mut pts: Vec<Point> = CORE_SWEEP
            .iter()
            .filter(|&&(_, c, _)| c != 12)
            .map(|&(_, c, m)| Point::Single(c, m))
            .collect();
        pts.push(Point::TwelveSweep);
        pts
    };
    let cells = par_grid(&Workload::all(), &points, |w, &p| match p {
        Point::Single(cores, mhz) => {
            let cfg = SystemConfig::paper_default().with_checkers(cores).with_checker_mhz(mhz);
            vec![((cores, mhz), r.slowdown(&cfg, w))]
        }
        Point::TwelveSweep => {
            let base = r.baseline(w).main_cycles.max(1);
            let cfg = SystemConfig::paper_default()
                .with_checkers(12)
                .with_extra_domains(paradet_core::DomainSet::from_mhz(&twelve_clocks));
            let rep = r.run(&cfg, w);
            rep.domains
                .iter()
                .map(|d| {
                    let s = if d.stall_divergences == 0 {
                        rep.main_cycles as f64 / base as f64
                    } else {
                        let cfg = SystemConfig::paper_default()
                            .with_checkers(12)
                            .with_checker_mhz(d.domain.mhz());
                        r.slowdown(&cfg, w)
                    };
                    ((12, d.domain.mhz()), s)
                })
                .collect()
        }
    });
    for (w, row) in Workload::all().iter().zip(&cells) {
        let by_point: Vec<((usize, u64), f64)> = row.iter().flatten().copied().collect();
        let mut out = vec![w.name().to_string()];
        for &(_, cores, mhz) in &CORE_SWEEP {
            let s = by_point
                .iter()
                .find(|((c, m), _)| *c == cores && *m == mhz)
                .expect("every sweep point simulated")
                .1;
            out.push(format!("{s:.3}"));
        }
        t.row(&out);
    }
    let _ = t.write_csv(&out_dir().join("fig13_core_scaling.csv"));
    t
}
