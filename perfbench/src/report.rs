//! Operation accounting, metric collection, and the result line.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Runs one operation (one simulation, one campaign leg, or one
    /// cross-check) and counts it. An operation fails if it panics or
    /// returns `Err`, whether from the program or from a result check.
    pub fn op<R>(&mut self, what: &str, f: impl FnOnce() -> Result<R, String>) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: {e}");
                None
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: panicked");
                None
            }
        }
    }

    /// Records a metric; a non-finite value fails the run rather than
    /// reaching the JSON.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.op(name, || Err::<(), _>(format!("metric is not finite ({value})")));
            return;
        }
        println!("{name:42} {value:>16.6} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Prints the result object as the last line of standard output.
    pub fn finish(self) {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "failed_frac = {} ({} of {} operations)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// The `q` quantile of `xs`, interpolating linearly between order
/// statistics (NaN for no samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A host rate from per-round samples: the upper quartile. Neighbours on
/// a shared host slow some rounds by up to 2x within one run; the fastest
/// quarter of rounds tracks the host's lightly loaded speed, which moves
/// far less from run to run than the median does.
pub fn rate(xs: &[f64]) -> f64 {
    quantile(xs, 0.75)
}

/// A host time from per-round samples: the lower quartile, for the same
/// reason as [`rate`].
pub fn time(xs: &[f64]) -> f64 {
    quantile(xs, 0.25)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// 64-bit FNV-1a, for the recorded campaign-table digests.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
