//! Table I (configuration) and Table II (benchmarks).

use super::save;
use paradet_core::SystemConfig;
use paradet_stats::Table;
use paradet_workloads::Workload;
use std::io;
use std::path::Path;

/// Prints the modelled Table I configuration.
pub fn table1_config(out: &Path) -> io::Result<Table> {
    let cfg = SystemConfig::paper_default();
    let mut t = Table::new("Table I: core and memory experimental setup", &["parameter", "value"]);
    let m = &cfg.main;
    let rows: Vec<(&str, String)> = vec![
        ("main core", format!("{}-wide out-of-order, {}", m.width, m.clock)),
        (
            "ROB / IQ / LQ / SQ",
            format!("{} / {} / {} / {}", m.rob_entries, m.iq_entries, m.lq_entries, m.sq_entries),
        ),
        ("phys regs (int/fp)", format!("{} / {}", m.phys_int, m.phys_fp)),
        (
            "FUs",
            format!("{} int ALU, {} FP ALU, {} mul/div", m.int_alus, m.fp_alus, m.mul_div_units),
        ),
        (
            "predictor",
            format!(
                "{}-entry local, {}-entry global, {}-entry chooser, {}-entry BTB, {}-entry RAS",
                m.predictor.local_entries,
                m.predictor.global_entries,
                m.predictor.chooser_entries,
                m.predictor.btb_entries,
                m.predictor.ras_depth
            ),
        ),
        ("reg. checkpoint", format!("{} cycles commit pause", cfg.checkpoint_pause_cycles)),
        ("L1I / L1D", "32KiB 2-way, 2-cycle hit, 6 MSHRs".to_string()),
        ("L2", "1MiB 16-way, 12-cycle hit, 16 MSHRs, stride prefetcher".to_string()),
        ("DRAM", "DDR3-1600 11-11-11 800MHz, 8 banks".to_string()),
        (
            "checker cores",
            format!(
                "{}x in-order, {}-stage, {}",
                cfg.n_checkers, cfg.checker.pipeline_depth, cfg.checker.clock
            ),
        ),
        (
            "log",
            format!(
                "{}KiB total, {} entries/segment, {:?}-instruction timeout",
                cfg.log.total_bytes / 1024,
                cfg.entries_per_segment(),
                cfg.log.timeout_insns
            ),
        ),
        ("checker caches", "2KiB L0 I-cache per core, 16KiB shared L1I".to_string()),
    ];
    for (k, v) in rows {
        t.row(&[k.to_string(), v]);
    }
    save(&t, out, "table1_config.csv")?;
    Ok(t)
}

/// Prints the Table II benchmark inventory with the synthetic-kernel notes.
pub fn table2_benchmarks(out: &Path) -> io::Result<Table> {
    let mut t = Table::new(
        "Table II: benchmarks (synthetic equivalents)",
        &["benchmark", "source", "synthetic kernel character"],
    );
    for w in Workload::all() {
        t.row(&[w.name().to_string(), w.source().to_string(), w.description().to_string()]);
    }
    save(&t, out, "table2_benchmarks.csv")?;
    Ok(t)
}
