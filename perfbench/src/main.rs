//! paradet's benchmark: end-to-end host throughput of the simulator on
//! three workloads, and a per-layer ledger from a separate traced run.
//! See README.md for the metrics and workloads.
//!
//! ```text
//! paradet-perfbench --workload <detect-compute|sweep-memory|campaign>
//!                   --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every simulated result is checked; the last line of standard output is
//! one JSON object with the operation counts and the metrics.

mod alloc;
mod campaign;
mod detect;
mod expected;
mod host;
mod report;
mod store;

use report::Report;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: paradet-perfbench --workload <detect-compute|sweep-memory|campaign> \
                     --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("paradet-perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        paradet_par::num_threads()
    );
    let mut report = Report::default();
    let (seed, seconds) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("detect-compute", false) => {
            detect::run_e2e(&detect::DETECT_COMPUTE, seed, seconds, &mut report)
        }
        ("detect-compute", true) => {
            detect::run_traced(&detect::DETECT_COMPUTE, seed, seconds, &mut report)
        }
        ("sweep-memory", false) => {
            detect::run_e2e(&detect::SWEEP_MEMORY, seed, seconds, &mut report)
        }
        ("sweep-memory", true) => {
            detect::run_traced(&detect::SWEEP_MEMORY, seed, seconds, &mut report)
        }
        ("campaign", false) => campaign::run_e2e(seed, seconds, &mut report),
        ("campaign", true) => campaign::run_traced(seed, seconds, &mut report),
        (other, _) => {
            eprintln!("paradet-perfbench: unknown workload `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    }
    if !args.trace {
        if let Some(mb) = report.op("peak RSS", report::peak_rss_mb) {
            report.metric("peak_rss_mb", mb, "MB");
        }
    }
    report.finish();
}
