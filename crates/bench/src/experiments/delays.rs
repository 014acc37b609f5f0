//! The detection-delay experiments: Fig. 8, 11 and 12.

use super::{par_grid, CLOCK_SWEEP, LOG_SWEEP};
use crate::runner::{out_dir, Runner};
use paradet_core::SystemConfig;
use paradet_stats::{gaussian_kde, write_csv, Table};
use paradet_workloads::Workload;

/// Fig. 8: the distribution of delays between a load/store committing and
/// being checked, at default settings (paper: roughly normal, mean 770 ns,
/// 99.9% within 5 µs). Prints summary statistics and writes the KDE curves
/// to CSV.
pub fn fig08_delay_density(r: &Runner) -> Table {
    let cfg = SystemConfig::paper_default();
    let mut t = Table::new(
        "Fig. 8: detection-delay distribution at default settings",
        &["benchmark", "mean ns", "p99.9 ns", "max us", "frac <= 5000ns"],
    );
    let cells = par_grid(&Workload::all(), &[()], |w, ()| {
        let rep = r.run(&cfg, w);
        let d = &rep.delays;
        let row = vec![
            w.name().to_string(),
            format!("{:.0}", d.mean_ns()),
            format!("{:.0}", d.quantile_ns(0.999)),
            format!("{:.1}", d.max_ns() / 1000.0),
            format!("{:.4}", d.fraction_within(paradet_mem::Time::from_ns(5000))),
        ];
        let samples_ns: Vec<f64> = d.samples_fs().iter().map(|&fs| fs as f64 / 1e6).collect();
        let kde: Vec<Vec<String>> = gaussian_kde(&samples_ns, 0.0, 5000.0, 100)
            .into_iter()
            .map(|p| vec![w.name().to_string(), format!("{:.1}", p.x), format!("{:.8}", p.density)])
            .collect();
        (row, kde)
    });
    let mut kde_rows: Vec<Vec<String>> = Vec::new();
    for cell in cells {
        let (row, kde) = cell.into_iter().next().expect("one cell per workload row");
        t.row(&row);
        kde_rows.extend(kde);
    }
    let _ = write_csv(
        &out_dir().join("fig08_delay_density.csv"),
        &["benchmark".into(), "delay_ns".into(), "density".into()],
        &kde_rows,
    );
    let _ = t.write_csv(&out_dir().join("fig08_delay_summary.csv"));
    t
}

/// Fig. 11: mean (a) and max (b) store-check delay vs checker clock
/// (paper: mean halves as the clock doubles, saturating at high clocks).
/// Each point is [`Runner::clock_point`]'s, shared with Fig. 9.
pub fn fig11_freq_delay(r: &Runner) -> (Table, Table) {
    let mut mean_t =
        super::slowdown::clock_table("Fig. 11a: mean store-check delay (ns) vs checker clock");
    let mut max_t =
        super::slowdown::clock_table("Fig. 11b: max store-check delay (us) vs checker clock");
    let cells = par_grid(&Workload::all(), &CLOCK_SWEEP, |w, &mhz| {
        let d = &r.clock_point(w, mhz).store_delays;
        (d.mean_ns(), d.max_ns())
    });
    for (w, row) in Workload::all().iter().zip(&cells) {
        let mut mean_row = vec![w.name().to_string()];
        let mut max_row = vec![w.name().to_string()];
        for &(mean, max) in row {
            mean_row.push(format!("{mean:.0}"));
            max_row.push(format!("{:.1}", max / 1000.0));
        }
        mean_t.row(&mean_row);
        max_t.row(&max_row);
    }
    let _ = mean_t.write_csv(&out_dir().join("fig11a_mean_delay.csv"));
    let _ = max_t.write_csv(&out_dir().join("fig11b_max_delay.csv"));
    (mean_t, max_t)
}

/// Fig. 12: mean (a) and max (b) store-check delay vs log size/timeout
/// (paper: mean scales linearly with segment size).
pub fn fig12_logsize_delay(r: &Runner) -> (Table, Table) {
    let header: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(LOG_SWEEP.iter().map(|(l, _, _)| l.to_string()))
        .collect();
    let href: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut mean_t = Table::new("Fig. 12a: mean store-check delay (ns) vs log size/timeout", &href);
    let mut max_t = Table::new("Fig. 12b: max store-check delay (us) vs log size/timeout", &href);
    let cells = par_grid(&Workload::all(), &LOG_SWEEP, |w, &(_, bytes, timeout)| {
        let cfg = SystemConfig::paper_default().with_log(bytes, timeout);
        let rep = r.run(&cfg, w);
        (rep.store_delays.mean_ns(), rep.store_delays.max_ns())
    });
    for (w, row) in Workload::all().iter().zip(&cells) {
        let mut mean_row = vec![w.name().to_string()];
        let mut max_row = vec![w.name().to_string()];
        for &(mean, max) in row {
            mean_row.push(format!("{mean:.0}"));
            max_row.push(format!("{:.1}", max / 1000.0));
        }
        mean_t.row(&mean_row);
        max_t.row(&max_row);
    }
    let _ = mean_t.write_csv(&out_dir().join("fig12a_mean_delay.csv"));
    let _ = max_t.write_csv(&out_dir().join("fig12b_max_delay.csv"));
    (mean_t, max_t)
}
