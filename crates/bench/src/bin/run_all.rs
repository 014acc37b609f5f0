//! Runs every experiment, printing all tables and writing all CSVs.
//!
//! Pass `--smoke` to run each experiment at a sharply reduced instruction
//! budget with sanity checks on the outputs — the CI fast path. A smoke
//! check failure or panic exits non-zero.
use paradet_bench::experiments as ex;
use paradet_bench::runner::{instr_budget, Runner, DEFAULT_INSTRS};
use paradet_stats::Table;

/// Instruction budget per run in smoke mode (vs. 150k for real figures).
const SMOKE_INSTRS: u64 = 3_000;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let t0 = std::time::Instant::now();
    let r = Runner::with_instrs(instr_budget(if smoke { SMOKE_INSTRS } else { DEFAULT_INSTRS }));
    let (cov_trials, cov_instrs) = if smoke { (2, 2_000) } else { (10, 20_000) };

    let mut shown = 0usize;
    let mut show = |name: &str, tables: &[&Table]| {
        for t in tables {
            // Only smoke mode hard-fails on an empty table: a full run should
            // still print the remaining figures and the CSV summary.
            assert!(
                !smoke || !t.is_empty(),
                "experiment {name} produced no data rows — smoke check failed"
            );
            println!("{}", t.render());
        }
        shown += 1;
    };

    // Thread count goes to stderr: stdout must stay byte-identical across
    // PARADET_THREADS settings (the documented determinism check diffs it).
    eprintln!("[{} worker threads]", paradet_par::num_threads());
    println!("paradet experiment suite — {} instructions per run\n", r.instrs());
    show("table1_config", &[&ex::table1_config()]);
    show("table2_benchmarks", &[&ex::table2_benchmarks()]);
    show("fig07_slowdown", &[&ex::fig07_slowdown(&r)]);
    show("fig08_delay_density", &[&ex::fig08_delay_density(&r)]);
    show("fig09_freq_slowdown", &[&ex::fig09_freq_slowdown(&r)]);
    show("fig10_checkpoint_overhead", &[&ex::fig10_checkpoint_overhead(&r)]);
    let (a, b) = ex::fig11_freq_delay(&r);
    show("fig11_freq_delay", &[&a, &b]);
    let (a, b) = ex::fig12_logsize_delay(&r);
    show("fig12_logsize_delay", &[&a, &b]);
    show("fig13_core_scaling", &[&ex::fig13_core_scaling(&r)]);
    show("mixed_policy_delay", &[&ex::mixed_policy_delay(&r)]);
    show("fig01_comparison", &[&ex::fig01_comparison(&r)]);
    show("area_power", &[&ex::area_power()]);
    show("sec6d_bigger_cores", &[&ex::sec6d_bigger_cores(&r)]);
    show("fault_coverage", &[&ex::fault_coverage(cov_trials, cov_instrs)]);
    show("fault_recovery", &[&ex::fault_recovery(cov_trials, cov_instrs)]);

    println!(
        "total wall time: {:.1?}; CSVs in {}",
        t0.elapsed(),
        paradet_bench::runner::out_dir().display()
    );
    if smoke {
        println!("smoke OK: {shown} experiments produced data");
    }
}
