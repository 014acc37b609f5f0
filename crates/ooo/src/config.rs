//! Static configuration of the out-of-order core (Table I).

use crate::predictor::PredictorConfig;
use paradet_mem::Freq;

/// Execution latencies (in core cycles) of the functional units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTable {
    /// Simple integer ALU op.
    pub int_alu: u64,
    /// Integer multiply (pipelined).
    pub mul: u64,
    /// Integer divide (unpipelined: occupies the unit for its latency).
    pub div: u64,
    /// FP add/sub/mul/min/max and FMA (pipelined).
    pub fp_alu: u64,
    /// FP divide (unpipelined).
    pub fp_div: u64,
    /// FP square root (unpipelined).
    pub fsqrt: u64,
    /// Register-file moves and int/FP conversions.
    pub fmov: u64,
    /// Branch resolution.
    pub branch: u64,
    /// Address generation.
    pub agu: u64,
    /// Store-to-load forwarding.
    pub forward: u64,
}

impl Default for LatencyTable {
    fn default() -> LatencyTable {
        LatencyTable {
            int_alu: 1,
            mul: 3,
            div: 12,
            fp_alu: 4,
            fp_div: 12,
            fsqrt: 20,
            fmov: 1,
            branch: 1,
            agu: 1,
            forward: 1,
        }
    }
}

/// Full static configuration of the out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooConfig {
    /// Core clock (Table I: 3.2 GHz).
    pub clock: Freq,
    /// Fetch/dispatch/issue/commit width (Table I: 3-wide).
    pub width: usize,
    /// Reorder-buffer entries (Table I: 40).
    pub rob_entries: usize,
    /// Issue-queue entries (Table I: 32).
    pub iq_entries: usize,
    /// Load-queue entries (Table I: 16).
    pub lq_entries: usize,
    /// Store-queue entries (Table I: 16).
    pub sq_entries: usize,
    /// Physical integer registers (Table I: 128).
    pub phys_int: usize,
    /// Physical floating-point registers (Table I: 128).
    pub phys_fp: usize,
    /// Integer ALUs (Table I: 3).
    pub int_alus: usize,
    /// FP ALUs (Table I: 2).
    pub fp_alus: usize,
    /// Multiply/divide units (Table I: 1).
    pub mul_div_units: usize,
    /// L1D access ports.
    pub mem_ports: usize,
    /// Write-buffer entries draining committed stores to the L1D.
    pub write_buffer: usize,
    /// Pipeline depth from fetch to dispatch, in cycles.
    pub front_depth: u64,
    /// Functional-unit latencies.
    pub lat: LatencyTable,
    /// Branch predictor geometry.
    pub predictor: PredictorConfig,
    /// Redundant-multithreading baseline mode: every micro-op is duplicated
    /// at rename and the copy competes for window slots, issue bandwidth and
    /// functional units (Mukherjee et al.-style CRT; the paper cites ~32%
    /// overhead for such schemes, §VII-B).
    pub rmt_duplicate: bool,
    /// Event-driven cycle skipping (default on). The core tracks its
    /// resource-event horizon (the latest cycle of any resource event
    /// recorded so far) and, when a micro-op dispatches past it, jumps time
    /// straight there — clearing the drained occupancy windows in O(1) and
    /// skipping the store-forward scan — instead of re-walking every
    /// structure; log-full commit stalls jump to the checker-finish
    /// deadline in one step. `false` forces the exhaustive path (every
    /// structure evaluated at every micro-op, `CoreStats::cycles_skipped`
    /// stays 0) inside the same kernel, kept as the one timing reference;
    /// the two are asserted identical by the skip-vs-tick suite in
    /// `tests/parallel_determinism.rs`.
    pub event_skip: bool,
}

impl Default for OooConfig {
    /// The paper's Table I main core.
    fn default() -> OooConfig {
        OooConfig {
            clock: Freq::from_mhz(3200),
            width: 3,
            rob_entries: 40,
            iq_entries: 32,
            lq_entries: 16,
            sq_entries: 16,
            phys_int: 128,
            phys_fp: 128,
            int_alus: 3,
            fp_alus: 2,
            mul_div_units: 1,
            mem_ports: 2,
            write_buffer: 8,
            front_depth: 3,
            lat: LatencyTable::default(),
            predictor: PredictorConfig::default(),
            rmt_duplicate: false,
            event_skip: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_i() {
        let c = OooConfig::default();
        assert_eq!(c.clock.mhz(), 3200);
        assert_eq!(c.width, 3);
        assert_eq!(c.rob_entries, 40);
        assert_eq!(c.iq_entries, 32);
        assert_eq!(c.lq_entries, 16);
        assert_eq!(c.sq_entries, 16);
        assert_eq!(c.phys_int, 128);
        assert_eq!(c.int_alus, 3);
        assert_eq!(c.fp_alus, 2);
        assert_eq!(c.mul_div_units, 1);
        assert!(!c.rmt_duplicate);
    }
}
