//! Fig. 1(d): the lockstep / RMT / paradet comparison, with measured
//! performance and modelled area/energy.

use super::par_grid;
use crate::runner::{out_dir, Runner};
use paradet_baselines::{rmt_slowdown, DclsSystem};
use paradet_core::SystemConfig;
use paradet_model::{AreaInputs, PowerInputs};
use paradet_stats::{Summary, Table};
use paradet_workloads::Workload;

/// Regenerates Fig. 1(d) with measured numbers: performance overhead is the
/// geomean slowdown across the nine benchmarks; area and energy factors
/// come from the §VI-B/C model.
pub fn fig01_comparison(r: &Runner) -> Table {
    let cfg = SystemConfig::paper_default();
    let cells = par_grid(&Workload::all(), &[()], |w, ()| {
        let base = r.baseline(w).main_cycles.max(1);
        let ours = r.run(&cfg, w).main_cycles as f64 / base as f64;
        let program = r.program(w);
        let rmt = rmt_slowdown(&cfg, &program, r.instrs());
        let mut d = DclsSystem::new(cfg.main, &program);
        let dcls = d.run(r.instrs()).cycles as f64 / base as f64;
        (ours, rmt, dcls)
    });
    let mut ours = Vec::new();
    let mut rmt = Vec::new();
    let mut dcls = Vec::new();
    for cell in &cells {
        let (o, rm, dc) = cell[0];
        ours.push(o);
        rmt.push(rm);
        dcls.push(dc);
    }
    let area = AreaInputs::default().evaluate();
    let power = PowerInputs::default().evaluate();
    let mut t = Table::new(
        "Fig. 1(d): scheme comparison (geomean across 9 benchmarks)",
        &["scheme", "perf overhead", "area overhead", "energy overhead", "hard faults"],
    );
    t.row(&[
        "lockstep (DCLS)".into(),
        format!("{:+.2}%", (Summary::of(&dcls).geomean - 1.0) * 100.0),
        "+100%".into(),
        "+100%".into(),
        "covered".into(),
    ]);
    t.row(&[
        "RMT".into(),
        format!("{:+.2}%", (Summary::of(&rmt).geomean - 1.0) * 100.0),
        "~0%".into(),
        "~+100% (duplicated execution)".into(),
        "NOT covered".into(),
    ]);
    t.row(&[
        "paradet (ours)".into(),
        format!("{:+.2}%", (Summary::of(&ours).geomean - 1.0) * 100.0),
        format!("{:+.0}%", area.overhead_vs_core * 100.0),
        format!("{:+.0}%", power.overhead * 100.0),
        "covered".into(),
    ]);
    let _ = t.write_csv(&out_dir().join("fig01_comparison.csv"));
    t
}
