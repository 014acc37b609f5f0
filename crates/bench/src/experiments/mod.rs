//! One function per table/figure of the paper.
//!
//! Sweeps are parallel over their workload×config grid (`PARADET_THREADS`
//! workers, see `paradet-par`): every grid point is an independent
//! simulation, results are assembled in row-major order, and the shared
//! [`Runner`](crate::runner::Runner) caches programs and baselines behind
//! interior mutability — so tables, CSVs, and figures are byte-identical at
//! any thread count.
//!
//! Each function writes its CSVs under the directory its caller passes and
//! returns the first I/O error, naming the file it could not write.

mod bigger;
mod comparison;
mod coverage;
mod delays;
mod hardware;
mod mixed;
mod recovery;
mod slowdown;
mod tables;

pub use bigger::sec6d_bigger_cores;
pub use comparison::fig01_comparison;
pub use coverage::fault_coverage;
pub use delays::{fig08_delay_density, fig11_freq_delay, fig12_logsize_delay};
pub use hardware::area_power;
pub use mixed::{mixed_policy_delay, MIXED_FARM_CLOCKS};
pub use recovery::fault_recovery;
pub use slowdown::{
    fig07_slowdown, fig09_freq_slowdown, fig10_checkpoint_overhead, fig13_core_scaling,
};
pub use tables::{table1_config, table2_benchmarks};

use paradet_stats::Table;
use std::io;
use std::path::Path;

/// Writes `table` as the CSV `name` under `out`; an error names the file.
pub(crate) fn save(table: &Table, out: &Path, name: &str) -> io::Result<()> {
    let path = out.join(name);
    let named = |e: io::Error| io::Error::new(e.kind(), format!("writing {}: {e}", path.display()));
    table.write_csv(&path).map_err(named)
}

/// Evaluates `f` over the `rows × cols` grid in parallel (one whole
/// simulation per point) and returns the results in row-major order, one
/// `Vec` per row. Deterministic: the output layout depends only on the
/// grid, never on scheduling.
pub(crate) fn par_grid<R1, C, R, F>(rows: &[R1], cols: &[C], f: F) -> Vec<Vec<R>>
where
    R1: Copy + Sync,
    C: Sync,
    R: Send,
    F: Fn(R1, &C) -> R + Sync,
{
    let points: Vec<(usize, usize)> =
        (0..rows.len()).flat_map(|i| (0..cols.len()).map(move |j| (i, j))).collect();
    let flat = paradet_par::par_map(&points, || (), |(), _, &(i, j)| f(rows[i], &cols[j]));
    let mut it = flat.into_iter();
    (0..rows.len()).map(|_| it.by_ref().take(cols.len()).collect()).collect()
}

/// The log-size/timeout sweep of Fig. 10/12: (label, bytes, timeout).
pub const LOG_SWEEP: [(&str, usize, Option<u64>); 5] = [
    ("3.6KiB/500", 3686, Some(500)),
    ("36KiB/5000", 36 * 1024, Some(5_000)),
    ("360KiB/50000", 360 * 1024, Some(50_000)),
    ("360KiB/inf", 360 * 1024, None),
    ("36KiB/inf", 36 * 1024, None),
];

/// The checker-clock sweep of Fig. 9/11, MHz.
pub const CLOCK_SWEEP: [u64; 5] = [125, 250, 500, 1000, 2000];

/// The core-count/clock sweep of Fig. 13: (label, cores, MHz).
pub const CORE_SWEEP: [(&str, usize, u64); 5] = [
    ("3c@1GHz", 3, 1000),
    ("12c@250MHz", 12, 250),
    ("6c@1GHz", 6, 1000),
    ("12c@500MHz", 12, 500),
    ("12c@1GHz", 12, 1000),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_csv_that_cannot_be_written_is_an_error_naming_it() {
        let file = std::env::temp_dir().join(format!("paradet-bench-file-{}", std::process::id()));
        std::fs::write(&file, "a regular file").expect("write the blocking file");
        let out = file.join("out");
        let err = table1_config(&out).expect_err("no CSV can be written below a regular file");
        let _ = std::fs::remove_file(&file);
        let csv = out.join("table1_config.csv");
        assert!(err.to_string().contains(&csv.display().to_string()), "{err}");
    }
}
