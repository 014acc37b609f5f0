//! What a functional replay leaves behind: its verdict and its path.
//!
//! Checking a segment used to be one interleaved loop: replay an
//! instruction, touch the I-cache hierarchy, advance the scoreboard, record
//! detection delays. The decoupled checker farm splits that loop in two:
//!
//! 1. a **functional replay** ([`replay_segment`](crate::replay_segment))
//!    that needs only the program, the start/end checkpoints and the log
//!    entries, and records here its verdict and, per replayed macro-op,
//!    the macro-op's text index and how many log entries passed their
//!    checks;
//! 2. a cheap **timing fold** ([`CheckerCore::fold_timing`]
//!    (crate::CheckerCore::fold_timing)) that walks this path through the
//!    program's own micro-ops, against an I-fetch hook (the detector's
//!    checker-cache path for the fold's clock), the checker's `free_at`
//!    and the folding core's own latencies, on the simulation thread, in
//!    seal order.
//!
//! The trace is a pure function of `(program, start checkpoint, entries,
//! instr_count)`: it holds no times and no latencies, so neither *when*
//! the replay ran nor which core replayed it can leak into simulated
//! timing.

use crate::replay::CheckError;

/// One replayed macro-op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceOp {
    /// Text index of the macro-op (`Program::text`).
    pub(crate) idx: u32,
    /// Log entries consumed by this op that passed their checks.
    pub(crate) passed: u8,
}

/// The record of one functional replay: its verdict, its load and store
/// counts, and its path (see the module docs).
///
/// Reusable: [`replay_segment`](crate::replay_segment) overwrites it in
/// place, [`clear`](ReplayTrace::clear) keeps its allocation, and the
/// detector keeps one trace for every replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayTrace {
    /// The path: one record per replayed macro-op, in replay order.
    pub(crate) ops: Vec<TraceOp>,
    /// The first failed check, or `None` if the segment verified clean.
    pub(crate) error: Option<CheckError>,
    /// Loads replayed from the log.
    pub(crate) loads: u64,
    /// Stores checked against the log.
    pub(crate) stores: u64,
}

impl ReplayTrace {
    /// Empties the trace, retaining its allocation.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.error = None;
        self.loads = 0;
        self.stores = 0;
    }
}
