//! Events emitted by the core and the sink interface the detection
//! hardware implements.

use paradet_isa::{ArchState, Instruction, MemAccess, MemWidth};
use paradet_mem::{MemHier, Time};

/// A micro-op commit notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEvent {
    /// Global micro-op sequence number.
    pub seq: u64,
    /// Dynamic macro-op index (0-based count of retired instructions).
    pub instr_index: u64,
    /// PC of the parent macro-op.
    pub pc: u64,
    /// The parent macro-op.
    pub insn: Instruction,
    /// Index of this micro-op within the macro-op.
    pub uop_index: u8,
    /// Whether this micro-op retires the macro-op.
    pub last: bool,
    /// The oracle's record of this micro-op's memory access, if it made
    /// one, with any fault override applied.
    pub mem: Option<MemAccess>,
    /// Non-deterministic result (e.g. `rdcycle`), to be forwarded via the
    /// load-store log.
    pub nondet: Option<u64>,
    /// Reorder-buffer slot this micro-op occupied — the load forwarding
    /// unit is indexed by this (paper §IV-C).
    pub rob_slot: usize,
}

/// Response of the detection hardware to a commit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitGate {
    /// Commit proceeds.
    Accept,
    /// Commit proceeds, and the commit stage then pauses for the given
    /// number of core cycles (the register-checkpoint copy, Table I:
    /// "Reg. Checkpoint 16 cycles latency").
    AcceptWithPause(u64),
    /// Commit cannot proceed before the given time (all load-store log
    /// segments are full, §IV-D: "we stall the main core until a checker
    /// core finishes"). The core retries at that time.
    Retry(Time),
}

/// Interface through which the error-detection hardware observes the core.
///
/// The default implementations make a no-detection core: every method is a
/// no-op and every commit is accepted.
pub trait DetectionSink {
    /// A load's address/value pair was duplicated into the load forwarding
    /// unit at execute time (paper §IV-C — this happens *before* commit so
    /// that a later fault in the physical register cannot corrupt the copy).
    fn on_load_executed(
        &mut self,
        rob_slot: usize,
        addr: u64,
        value: u64,
        width: MemWidth,
        at: Time,
    ) {
        let _ = (rob_slot, addr, value, width, at);
    }

    /// A micro-op attempts to commit at `at`. Returning
    /// [`CommitGate::Retry`] makes the core re-attempt later; the sink will
    /// then see the same event again with a later time.
    ///
    /// `committed` is the core's architectural state *after* the macro-op
    /// currently committing — when the last micro-op of an instruction
    /// commits, this is exactly the state a register checkpoint must
    /// capture (§IV-D). `hier` is lent so the detection system can fold
    /// checker timing (which needs instruction-fetch latency) through the
    /// shared hierarchy at deterministic commit-stream points: a sealed
    /// segment's finish time is folded in, in seal order, by the time any
    /// later commit of the same run needs it for a stall decision.
    fn on_commit(
        &mut self,
        ev: &CommitEvent,
        at: Time,
        committed: &ArchState,
        hier: &mut MemHier,
    ) -> CommitGate {
        let _ = (ev, at, committed, hier);
        CommitGate::Accept
    }
}

/// A sink that ignores everything (an unchecked core).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl DetectionSink for NullSink {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_accepts() {
        let ev = CommitEvent {
            seq: 0,
            instr_index: 0,
            pc: 0x1000,
            insn: Instruction::Nop,
            uop_index: 0,
            last: true,
            mem: None,
            nondet: None,
            rob_slot: 0,
        };
        let program = {
            let mut b = paradet_isa::ProgramBuilder::new();
            b.halt();
            b.build()
        };
        let state = ArchState::at_entry(&program);
        let mut hier = MemHier::new(&paradet_mem::MemConfig::paper_default(
            paradet_mem::Freq::from_mhz(3200),
            paradet_mem::Freq::from_mhz(1000),
        ));
        assert_eq!(NullSink.on_commit(&ev, Time::ZERO, &state, &mut hier), CommitGate::Accept);
    }
}
