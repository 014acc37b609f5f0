//! The timing trace a functional replay leaves behind.
//!
//! Checking a segment used to be one interleaved loop: replay an
//! instruction, touch the I-cache hierarchy, advance the scoreboard, record
//! detection delays. The decoupled checker farm splits that loop in two:
//!
//! 1. a **functional replay** ([`replay_segment`](crate::replay_segment))
//!    that needs only the program, the start/end checkpoints and the log
//!    entries, and records here, per replayed macro-op, the I-line it fetched (if new), the latency class
//!    and register dependencies of each micro-op, and how many log entries
//!    passed their checks;
//! 2. a cheap **timing fold** ([`CheckerCore::fold_timing`]
//!    (crate::CheckerCore::fold_timing)) that walks this trace against an
//!    I-fetch hook (the detector's checker-cache path for the fold's
//!    clock) and the checker's `free_at`, on the simulation thread, in
//!    seal order.
//!
//! The trace is a pure function of `(program, start checkpoint, entries,
//! instr_count)`: it contains no times, so *when* the replay ran can never
//! leak into simulated timing.

/// Sentinel line address meaning "no new I-line fetched before this op".
const SAME_LINE: u64 = u64::MAX;

/// Register-slot encoding: `0..32` integer, `32..64` floating-point,
/// [`NO_REG`] absent.
const NO_REG: u8 = u8::MAX;

/// One replayed macro-op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceOp {
    /// New I-line fetched before this op, or [`SAME_LINE`].
    line: u64,
    /// Number of micro-op records belonging to this op.
    n_uops: u8,
    /// Log entries consumed by this op that passed their checks.
    n_entries: u8,
}

/// Timing-relevant facts about one micro-op: where its operands come from,
/// where its result lands, and how long it takes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceUop {
    srcs: [u8; 3],
    dst: u8,
    lat: u32,
}

/// The replay's timing trace: I-lines fetched, micro-op latency classes and
/// dependencies, and per-op counts of checked entries (see the module
/// docs).
///
/// Buffers are reusable: [`clear`](ReplayTrace::clear) keeps allocations,
/// and the detector reuses one trace for every replay.
#[derive(Debug, Clone, Default)]
pub struct ReplayTrace {
    ops: Vec<TraceOp>,
    uops: Vec<TraceUop>,
}

impl ReplayTrace {
    /// Creates an empty trace.
    pub fn new() -> ReplayTrace {
        ReplayTrace::default()
    }

    /// Empties the trace, retaining its allocations.
    pub fn clear(&mut self) {
        self.ops.clear();
        self.uops.clear();
    }

    /// Number of macro-ops recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no macro-op has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Starts the record for the next macro-op. `new_line` is the I-line
    /// address if this op's fetch left the previous line.
    pub(crate) fn begin_op(&mut self, new_line: Option<u64>) {
        self.ops.push(TraceOp { line: new_line.unwrap_or(SAME_LINE), n_uops: 0, n_entries: 0 });
    }

    /// Appends a micro-op record to the current macro-op.
    pub(crate) fn push_uop(&mut self, srcs: [u8; 3], dst: u8, lat: u64) {
        self.uops.push(TraceUop { srcs, dst, lat: lat as u32 });
        self.ops.last_mut().expect("begin_op precedes push_uop").n_uops += 1;
    }

    /// Sets how many log entries the current macro-op consumed and passed.
    pub(crate) fn set_entries(&mut self, n: u8) {
        self.ops.last_mut().expect("begin_op precedes set_entries").n_entries = n;
    }

    /// Walks the trace in replay order, firing one [`TraceEvent`] per fact:
    /// `Op(line_if_new)` at each macro-op, `Uop` per micro-op record, and
    /// `Checked(n)` after each op that consumed `n > 0` entries.
    pub(crate) fn walk(&self, mut f: impl FnMut(TraceEvent<'_>)) {
        let mut ucur = 0;
        for o in &self.ops {
            f(TraceEvent::Op(if o.line == SAME_LINE { None } else { Some(o.line) }));
            for u in &self.uops[ucur..ucur + o.n_uops as usize] {
                f(TraceEvent::Uop(u));
            }
            ucur += o.n_uops as usize;
            if o.n_entries > 0 {
                f(TraceEvent::Checked(o.n_entries));
            }
        }
    }
}

/// One fact of a [`ReplayTrace`] walk, in replay order.
#[derive(Debug)]
pub(crate) enum TraceEvent<'a> {
    /// A macro-op begins; `Some(line)` if it fetched a new I-line.
    Op(Option<u64>),
    /// One micro-op of the current macro-op.
    Uop(&'a TraceUop),
    /// The current macro-op consumed this many passing log entries.
    Checked(u8),
}

impl TraceUop {
    /// Maximum issue-ready cycle over this uop's sources in `reg_ready`
    /// (the 64-slot int+fp scoreboard).
    pub(crate) fn srcs_ready(&self, reg_ready: &[u64; 64]) -> u64 {
        let mut ready = 0;
        for &s in &self.srcs {
            if s != NO_REG {
                ready = ready.max(reg_ready[s as usize]);
            }
        }
        ready
    }

    /// Marks this uop's destination ready at `complete` in `reg_ready`.
    pub(crate) fn retire(&self, reg_ready: &mut [u64; 64], complete: u64) {
        if self.dst != NO_REG {
            reg_ready[self.dst as usize] = complete;
        }
    }

    /// This uop's latency in checker cycles.
    pub(crate) fn lat(&self) -> u64 {
        self.lat as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips() {
        let mut t = ReplayTrace::new();
        t.begin_op(Some(0x1000));
        t.push_uop([0, NO_REG, NO_REG], 1, 3);
        t.set_entries(1);
        t.begin_op(None);
        t.push_uop([1, 2, NO_REG], NO_REG, 1);

        let mut lines = Vec::new();
        let mut lats = Vec::new();
        let mut checks = Vec::new();
        t.walk(|ev| match ev {
            TraceEvent::Op(l) => lines.push(l),
            TraceEvent::Uop(u) => lats.push(u.lat()),
            TraceEvent::Checked(n) => checks.push(n),
        });
        assert_eq!(lines, vec![Some(0x1000), None]);
        assert_eq!(lats, vec![3, 1]);
        assert_eq!(checks, vec![1]);
        assert_eq!(t.len(), 2);

        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn scoreboard_helpers() {
        let mut ready = [0u64; 64];
        let u = TraceUop { srcs: [0, 40, NO_REG], dst: 5, lat: 7 };
        ready[40] = 9;
        assert_eq!(u.srcs_ready(&ready), 9);
        u.retire(&mut ready, 16);
        assert_eq!(ready[5], 16);
        let nodst = TraceUop { srcs: [NO_REG; 3], dst: NO_REG, lat: 1 };
        assert_eq!(nodst.srcs_ready(&ready), 0);
        nodst.retire(&mut ready, 99); // no-op
        assert_eq!(ready.iter().filter(|&&c| c == 99).count(), 0);
    }
}
