//! Detection-delay accounting.
//!
//! The paper evaluates the *delay between a load/store committing and being
//! checked* (Figures 8, 11, 12). [`DelayStats`] records every such delay in
//! constant space: running moments, log-scale buckets for percentiles and a
//! deterministic reservoir sample for the density plot of Fig. 8.

use paradet_mem::Time;

/// Number of log₂ buckets (covers 1 fs … ~584 years).
const BUCKETS: usize = 64;

/// Capacity of the reservoir sample used for density plots.
const RESERVOIR: usize = 16 * 1024;

/// Streaming statistics over a population of delays.
#[derive(Debug, Clone)]
pub struct DelayStats {
    count: u64,
    sum_fs: u128,
    max_fs: u64,
    min_fs: u64,
    buckets: [u64; BUCKETS],
    reservoir: Vec<u64>,
    /// Deterministic LCG state for reservoir replacement (no global RNG —
    /// runs must be exactly reproducible for fault-injection comparison).
    rng: u64,
}

impl Default for DelayStats {
    fn default() -> DelayStats {
        DelayStats::new()
    }
}

impl DelayStats {
    /// Creates an empty population.
    pub fn new() -> DelayStats {
        DelayStats {
            count: 0,
            sum_fs: 0,
            max_fs: 0,
            min_fs: u64::MAX,
            buckets: [0; BUCKETS],
            reservoir: Vec::new(),
            rng: 0x9E3779B97F4A7C15,
        }
    }

    /// Bytes the reservoir sample occupies (the moments and buckets are a
    /// fixed ~0.6 KB).
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(self.reservoir.as_slice())
    }

    /// Records one delay.
    pub fn record(&mut self, delay: Time) {
        let fs = delay.as_fs();
        self.count += 1;
        self.sum_fs += fs as u128;
        self.max_fs = self.max_fs.max(fs);
        self.min_fs = self.min_fs.min(fs);
        let bucket = 63 - fs.max(1).leading_zeros() as usize;
        self.buckets[bucket] += 1;
        if self.reservoir.len() < RESERVOIR {
            self.reservoir.push(fs);
        } else {
            // Algorithm R with a deterministic LCG.
            self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (self.rng >> 16) % self.count;
            if (j as usize) < RESERVOIR {
                self.reservoir[j as usize] = fs;
            }
        }
    }

    /// Number of recorded delays.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean delay in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_fs as f64 / self.count as f64 / 1e6
        }
    }

    /// Maximum delay in nanoseconds.
    pub fn max_ns(&self) -> f64 {
        self.max_fs as f64 / 1e6
    }

    /// Minimum delay in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_fs as f64 / 1e6
        }
    }

    /// Approximate `q`-quantile (e.g. 0.999) in nanoseconds, from the log
    /// buckets (upper bound of the containing bucket).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return 2f64.powi(i as i32 + 1) / 1e6;
            }
        }
        self.max_ns()
    }

    /// The fraction of delays at or below `t`.
    pub fn fraction_within(&self, t: Time) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let within = self.reservoir.iter().filter(|&&fs| fs <= t.as_fs()).count();
        if self.reservoir.is_empty() {
            return 1.0;
        }
        within as f64 / self.reservoir.len() as f64
    }

    /// The reservoir sample (delays in femtoseconds), for density plots.
    pub fn samples_fs(&self) -> &[u64] {
        &self.reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments() {
        let mut d = DelayStats::new();
        d.record(Time::from_ns(100));
        d.record(Time::from_ns(300));
        assert_eq!(d.count(), 2);
        assert!((d.mean_ns() - 200.0).abs() < 1e-9);
        assert_eq!(d.max_ns(), 300.0);
        assert_eq!(d.min_ns(), 100.0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut d = DelayStats::new();
        for i in 1..=1000u64 {
            d.record(Time::from_ns(i));
        }
        let p50 = d.quantile_ns(0.5);
        let p999 = d.quantile_ns(0.999);
        assert!(p50 <= p999);
        assert!(p999 <= d.max_ns() * 2.0, "bucket upper bound is within 2x of max");
    }

    #[test]
    fn fraction_within_reflects_population() {
        let mut d = DelayStats::new();
        for i in 0..1000u64 {
            d.record(Time::from_ns(i));
        }
        assert!(d.fraction_within(Time::from_ns(2000)) > 0.999);
        let half = d.fraction_within(Time::from_ns(500));
        assert!((half - 0.5).abs() < 0.05, "got {half}");
    }

    #[test]
    fn reservoir_is_bounded_and_deterministic() {
        let mut a = DelayStats::new();
        let mut b = DelayStats::new();
        for i in 0..100_000u64 {
            a.record(Time::from_fs(i * 7));
            b.record(Time::from_fs(i * 7));
        }
        assert!(a.samples_fs().len() <= RESERVOIR);
        assert_eq!(a.samples_fs(), b.samples_fs(), "reservoir must be deterministic");
    }
}
