//! A fixed reference loop that samples the host's speed between the
//! measured operations, so host rates and times can be scaled to a
//! nominal host.
//!
//! On a shared host the same binary runs up to 2x slower in one window
//! than in another, for minutes at a time. The loop below never changes
//! with the simulator, and it slows with the host: dividing a round's
//! rate by the reference rate sampled within that round removes most of
//! the drift while keeping every change to the simulator in the result.

use std::time::{Duration, Instant};

/// Reference iterations per second of the nominal host, in millions: about
/// what the loop reaches on a lightly loaded two-core container. Only
/// ratios between runs matter; this constant fixes the units.
pub const NOMINAL_MITER_PER_S: f64 = 30.0;

/// Table walked by the loop: 2 MiB, beyond a private L2.
const TABLE_WORDS: usize = 1 << 18;
/// Loop iterations per sample (several milliseconds).
const SAMPLE_ITERS: u64 = 200_000;

#[derive(Debug)]
pub struct HostRef {
    table: Vec<u64>,
    iters: u64,
    time: Duration,
    seed: u64,
}

impl HostRef {
    pub fn new() -> HostRef {
        let table =
            (0..TABLE_WORDS as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7).collect();
        HostRef { table, iters: 0, time: Duration::ZERO, seed: 0 }
    }

    /// Runs one sample: dependent loads at pseudo-random places in the
    /// table, mixed with data-dependent branches. Returns its host time.
    pub fn sample(&mut self) -> Duration {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1D ^ self.seed;
        let mut acc = 0u64;
        for i in 0..SAMPLE_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = self.table[((x ^ acc) as usize) & (TABLE_WORDS - 1)];
            acc = if v & 3 == 0 { acc.wrapping_add(v ^ i) } else { acc.rotate_left(5) ^ v };
        }
        std::hint::black_box(acc);
        let elapsed = t.elapsed();
        self.seed += 1;
        self.iters += SAMPLE_ITERS;
        self.time += elapsed;
        elapsed
    }

    /// How many times faster the host ran than the nominal host over the
    /// samples since the last call (1.0 with no samples), and restarts the
    /// count. A host rate divided by this, or a host time multiplied by
    /// it, reads as on the nominal host.
    pub fn take_speed(&mut self) -> f64 {
        let speed = match self.iters {
            0 => 1.0,
            n => n as f64 / self.time.as_secs_f64() / 1e6 / NOMINAL_MITER_PER_S,
        };
        (self.iters, self.time) = (0, Duration::ZERO);
        speed
    }
}
