//! §VI-B area and §VI-C power estimates.

use super::save;
use paradet_core::{LogConfig, SegmentLog};
use paradet_model::{AreaInputs, PowerInputs};
use paradet_stats::Table;
use std::io;
use std::path::Path;

/// Evaluates and prints the analytic area/power model with the paper's
/// datapoints (paper: ≈24% area vs core, ≈16% vs core+L2, ≈16% power).
///
/// Also reports the *measured* SRAM cost of one log entry from the
/// structure-of-arrays segment layout ([`SegmentLog::SRAM_BITS_PER_ENTRY`])
/// next to the 18-byte modelling estimate [`LogConfig`] sizes segments
/// with.
pub fn area_power(out: &Path) -> io::Result<Table> {
    let a = AreaInputs::default().evaluate();
    let p = PowerInputs::default().evaluate();
    let mut t = Table::new("SVI-B/C: area and power overheads", &["quantity", "value"]);
    t.row(&["checker cores (12x)".into(), format!("{:.3} mm2", a.checkers_mm2)]);
    t.row(&["detection SRAM (80KiB)".into(), format!("{:.3} mm2", a.sram_mm2)]);
    t.row(&[
        "log entry: measured (SoA) vs modelled".into(),
        format!(
            "{} bits ({:.1} B) vs {} B",
            SegmentLog::SRAM_BITS_PER_ENTRY,
            SegmentLog::SRAM_BITS_PER_ENTRY as f64 / 8.0,
            LogConfig::paper_default().entry_bytes
        ),
    ]);
    t.row(&["total detection hardware".into(), format!("{:.3} mm2", a.detection_mm2)]);
    t.row(&["area overhead vs core".into(), format!("{:.1}%", a.overhead_vs_core * 100.0)]);
    t.row(&["area overhead vs core+L2".into(), format!("{:.1}%", a.overhead_vs_core_l2 * 100.0)]);
    t.row(&["main core power".into(), format!("{:.2} W", p.main_w)]);
    t.row(&["checker power (12x)".into(), format!("{:.3} W", p.checkers_w)]);
    t.row(&["power overhead (upper bound)".into(), format!("{:.1}%", p.overhead * 100.0)]);
    t.row(&["DCLS area/power overhead".into(), "100% / 100%".into()]);
    save(&t, out, "area_power.csv")?;
    Ok(t)
}
