//! Recycled allocations for back-to-back simulations.
//!
//! Fault campaigns and sweeps construct a fresh [`PairedSystem`] per trial,
//! or restore one from a snapshot; before this existed, every construction
//! reallocated each log segment's entry buffer (12 × 170 entries at Table I
//! settings) just to drop them a few milliseconds later. A [`SimScratch`]
//! is a small pool, owned by one worker thread, that carries those buffers
//! from a finished system into the next one. Segment buffers are the only
//! thing it pools: everything else a detector owns is either small or, like
//! the register checkpoints, free of heap memory.
//!
//! [`PairedSystem`]: crate::PairedSystem

use crate::log::SegmentLog;

/// A per-worker pool of reusable simulation allocations.
///
/// Typical use inside a trial loop:
///
/// ```
/// use paradet_core::{PairedSystem, SimScratch, SystemConfig};
/// use paradet_isa::{ProgramBuilder, Reg};
/// use std::sync::Arc;
///
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::X1, 1);
/// b.halt();
/// let program = Arc::new(b.build());
///
/// let mut scratch = SimScratch::new();
/// for _trial in 0..3 {
///     let mut sys =
///         PairedSystem::new_with_scratch(SystemConfig::paper_default(), &program, &mut scratch);
///     let report = sys.run_to_halt();
///     assert!(report.halted);
///     sys.recycle_into(&mut scratch); // buffers feed the next trial
/// }
/// ```
#[derive(Debug, Default)]
pub struct SimScratch {
    seg_bufs: Vec<SegmentLog>,
}

impl SimScratch {
    /// Creates an empty pool.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    /// Takes one segment buffer from the pool, or a fresh empty
    /// [`SegmentLog`] if the pool is dry. The buffer is returned as-is;
    /// [`Segment::with_buffer`](crate::Segment::with_buffer) is the single
    /// place that clears it and grows it to capacity.
    pub fn take_seg_buf(&mut self) -> SegmentLog {
        self.seg_bufs.pop().unwrap_or_default()
    }

    /// Returns a segment buffer to the pool.
    pub fn put_seg_buf(&mut self, buf: SegmentLog) {
        self.seg_bufs.push(buf);
    }

    /// Number of pooled segment buffers (for tests and diagnostics).
    pub fn pooled_seg_bufs(&self) -> usize {
        self.seg_bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recycled buffers must be invisible to the simulation: a run built
    /// from another run's scratch reports exactly what a fresh-allocation
    /// run reports, also when that other run was recycled unfinished, with
    /// checks still pending and some of them shared with a snapshot or
    /// with the rollback window.
    #[test]
    fn recycled_runs_match_fresh_runs() {
        use crate::{PairedSystem, SystemConfig};
        use paradet_isa::{AluOp, ProgramBuilder, Reg};
        use std::sync::Arc;

        let mut b = ProgramBuilder::new();
        let buf = b.alloc_zeroed(8);
        b.li(Reg::X1, buf as i64);
        b.li(Reg::X2, 0);
        b.li(Reg::X3, 200);
        let top = b.label_here();
        b.ld(Reg::X4, Reg::X1, 0);
        b.op(AluOp::Add, Reg::X4, Reg::X4, Reg::X2);
        b.sd(Reg::X4, Reg::X1, 0);
        b.addi(Reg::X2, Reg::X2, 1);
        b.blt(Reg::X2, Reg::X3, top);
        b.halt();
        let program = Arc::new(b.build());
        let cfg = SystemConfig::paper_default();

        let fresh = PairedSystem::new_shared(cfg, &program).run_to_halt();
        let mut scratch = SimScratch::new();
        let mut last = None;
        for _ in 0..3 {
            let mut sys = PairedSystem::new_with_scratch(cfg, &program, &mut scratch);
            let report = sys.run_to_halt();
            sys.recycle_into(&mut scratch);
            last = Some(report);
        }
        assert!(scratch.pooled_seg_bufs() > 0, "buffers actually round-tripped");
        assert_eq!(format!("{fresh:?}"), format!("{:?}", last.unwrap()));

        let mut sys = PairedSystem::new_with_scratch(cfg, &program, &mut scratch);
        sys.advance(500);
        let snap = sys.snapshot();
        let shared = sys.detector().stats.seals;
        sys.advance(500);
        // Every check is still pending: those sealed before the snapshot
        // are shared with it, the later ones are not.
        let det = sys.detector();
        assert!(det.finish_times().is_empty() && 0 < shared && shared < det.stats.seals);
        sys.recycle_into(&mut scratch);
        drop(snap);
        let report = PairedSystem::new_with_scratch(cfg, &program, &mut scratch).run_to_halt();
        assert_eq!(format!("{fresh:?}"), format!("{report:?}"));

        // The rollback window shares every pending check's inputs, and
        // still each segment's buffer and each pending check's comes home.
        let mut scratch = SimScratch::new();
        let mut sys = PairedSystem::new_with_scratch(cfg, &program, &mut scratch);
        sys.enable_recovery_tracking();
        sys.advance(500);
        let det = sys.detector();
        let pending = det.stats.seals as usize - det.finish_times().len();
        assert!(pending > 0, "checks still pending");
        let buffers = det.checkers.len() + pending;
        sys.recycle_into(&mut scratch);
        assert_eq!(scratch.pooled_seg_bufs(), buffers);
        let report = PairedSystem::new_with_scratch(cfg, &program, &mut scratch).run_to_halt();
        assert_eq!(format!("{fresh:?}"), format!("{report:?}"));

        // After a failed check the window keeps every later check's
        // buffer while its segment takes a new one: the pool gets one per
        // segment back, not both, so it does not grow run after run.
        let mut scratch = SimScratch::new();
        let mut sys = PairedSystem::new_with_scratch(cfg, &program, &mut scratch);
        sys.enable_recovery_tracking();
        sys.arm_log_fault(0, 0, 0);
        assert!(sys.run_to_halt().detected() && sys.rollback_plan().is_some());
        sys.recycle_into(&mut scratch);
        assert_eq!(scratch.pooled_seg_bufs(), cfg.n_checkers);
    }

    #[test]
    fn take_round_trips_buffers() {
        let mut s = SimScratch::new();
        let mut buf = s.take_seg_buf();
        assert!(buf.is_empty());
        buf.ensure_capacity(8);
        s.put_seg_buf(buf);
        assert_eq!(s.pooled_seg_bufs(), 1);
        // Pooled buffers come back with their allocation intact; growing to
        // a segment's capacity is Segment::with_buffer's job.
        let buf = s.take_seg_buf();
        assert!(buf.capacity() >= 8);
        assert_eq!(s.pooled_seg_bufs(), 0);
        let seg = crate::Segment::with_buffer(32, buf);
        assert!(seg.log.capacity() >= 32);
    }
}
