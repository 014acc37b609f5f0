//! §VI-D "Bigger Cores": the paper argues the technique scales favourably
//! to more aggressive hosts — single-thread performance grows sublinearly
//! with core size while checker throughput scales linearly with the
//! area/power devoted to it, so *relative* overhead shrinks.

use super::{par_grid, save};
use crate::runner::Runner;
use paradet_core::SystemConfig;
use paradet_model::AreaInputs;
use paradet_ooo::OooConfig;
use paradet_stats::Table;
use paradet_workloads::Workload;
use std::io;
use std::path::Path;

/// A host-core scaling step: Table I's core, then progressively more
/// aggressive designs (wider, bigger windows, more FUs, more checkers to
/// match, and a proportionally bigger area datapoint).
fn hosts() -> Vec<(&'static str, OooConfig, usize, f64)> {
    let base = OooConfig::default();
    vec![
        ("tableI-3w", base, 12, 2.05),
        (
            "4w-64rob",
            OooConfig {
                width: 4,
                rob_entries: 64,
                iq_entries: 48,
                lq_entries: 24,
                sq_entries: 24,
                int_alus: 4,
                mem_ports: 2,
                ..base
            },
            14,
            3.1,
        ),
        (
            "6w-128rob",
            OooConfig {
                width: 6,
                rob_entries: 128,
                iq_entries: 96,
                lq_entries: 48,
                sq_entries: 48,
                phys_int: 256,
                phys_fp: 256,
                int_alus: 6,
                fp_alus: 3,
                mul_div_units: 2,
                mem_ports: 3,
                ..base
            },
            16,
            5.0,
        ),
        (
            "8w-192rob",
            OooConfig {
                width: 8,
                rob_entries: 192,
                iq_entries: 120,
                lq_entries: 72,
                sq_entries: 56,
                phys_int: 384,
                phys_fp: 384,
                int_alus: 8,
                fp_alus: 4,
                mul_div_units: 2,
                mem_ports: 4,
                ..base
            },
            20,
            8.0,
        ),
    ]
}

/// Sweeps host-core aggressiveness: slowdown stays bounded (more checkers
/// absorb the higher commit rate) while the checkers' *relative* area
/// shrinks against the growing host.
pub fn sec6d_bigger_cores(r: &Runner, out: &Path) -> io::Result<Table> {
    let mut t = Table::new(
        "SVI-D: scaling to bigger main cores",
        &["host core", "checkers", "IPC", "slowdown(bitcount)", "slowdown(freqmine)", "area ovh"],
    );
    let hosts = hosts();
    let host_idx: Vec<usize> = (0..hosts.len()).collect();
    let cells = par_grid(&host_idx, &[Workload::Bitcount, Workload::Freqmine], |h, &w| {
        let (_, main, checkers, _) = hosts[h];
        let cfg = SystemConfig { main, n_checkers: checkers, ..SystemConfig::paper_default() };
        let program = r.program(w);
        let base = paradet_core::run_unchecked_shared(&cfg, &program, r.instrs());
        let full = {
            let mut sys = paradet_core::PairedSystem::new_shared(cfg, &program);
            sys.run(r.instrs())
        };
        (base.ipc(), full.main_cycles as f64 / base.main_cycles.max(1) as f64)
    });
    for ((name, _, checkers, host_mm2), row) in hosts.iter().zip(&cells) {
        let (ipc, slow_bitcount) = row[0];
        let (_, slow_freqmine) = row[1];
        let area = AreaInputs {
            main_core_mm2: *host_mm2,
            n_checkers: *checkers,
            detection_sram_kib: 80.0 * *checkers as f64 / 12.0,
            ..AreaInputs::default()
        }
        .evaluate();
        t.row(&[
            name.to_string(),
            checkers.to_string(),
            format!("{ipc:.2}"),
            format!("{slow_bitcount:.3}"),
            format!("{slow_freqmine:.3}"),
            format!("{:.1}%", area.overhead_vs_core * 100.0),
        ]);
    }
    save(&t, out, "sec6d_bigger_cores.csv")?;
    Ok(t)
}
