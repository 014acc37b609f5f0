//! The replay interface between a checker core and its log segment.

use paradet_isa::MemWidth;
use paradet_mem::Time;
use std::fmt;

/// An error raised by the log while replaying (a detected fault, §IV-B:
/// "On a store, hardware logic checks both the address and stored value…
/// If a check fails, an error exception is raised").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The replayed load's address differs from the logged one.
    LoadAddrMismatch {
        /// Address the checker computed.
        got: u64,
        /// Address the main core logged.
        logged: u64,
    },
    /// The replayed store's address differs from the logged one.
    StoreAddrMismatch {
        /// Address the checker computed.
        got: u64,
        /// Address the main core logged.
        logged: u64,
    },
    /// The replayed store's value differs from the logged one.
    StoreValueMismatch {
        /// Value the checker computed.
        got: u64,
        /// Value the main core logged.
        logged: u64,
    },
    /// The checker performed more memory accesses than the log holds —
    /// execution diverged (§IV-J).
    LogExhausted,
    /// The checker consumed an entry of the wrong kind (e.g. a load where
    /// the log holds a store) — execution diverged.
    KindMismatch,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::LoadAddrMismatch { got, logged } => {
                write!(f, "load address mismatch: computed {got:#x}, logged {logged:#x}")
            }
            ReplayError::StoreAddrMismatch { got, logged } => {
                write!(f, "store address mismatch: computed {got:#x}, logged {logged:#x}")
            }
            ReplayError::StoreValueMismatch { got, logged } => {
                write!(f, "store value mismatch: computed {got:#x}, logged {logged:#x}")
            }
            ReplayError::LogExhausted => write!(f, "log segment exhausted: execution diverged"),
            ReplayError::KindMismatch => write!(f, "log entry kind mismatch: execution diverged"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// A checker core's view of one load-store log segment.
///
/// Implemented by the detection system (`paradet-core`). Purely functional:
/// per-entry detection delays (commit time → check time, the quantity
/// Figures 8, 11 and 12 of the paper report) are recorded by the timing
/// fold's `on_check` hook (see [`CheckerCore::fold_timing`]).
///
/// [`CheckerCore::fold_timing`]: crate::CheckerCore::fold_timing
pub trait ReplaySource {
    /// Consumes the next log entry as a load at `addr`, returning the value
    /// the main core loaded.
    ///
    /// # Errors
    ///
    /// Any [`ReplayError`] when the entry does not match.
    fn replay_load(&mut self, addr: u64, width: MemWidth) -> Result<u64, ReplayError>;

    /// Consumes the next log entry as a store of `value` to `addr`,
    /// checking both against the log.
    ///
    /// # Errors
    ///
    /// Any [`ReplayError`] when the entry does not match.
    fn check_store(&mut self, addr: u64, value: u64, width: MemWidth) -> Result<(), ReplayError>;

    /// Consumes the next log entry as a non-deterministic result
    /// (`rdcycle`), returning the main core's value.
    ///
    /// # Errors
    ///
    /// Any [`ReplayError`] when the entry does not match.
    fn replay_nondet(&mut self) -> Result<u64, ReplayError>;

    /// Whether every entry of the segment has been consumed.
    fn exhausted(&self) -> bool;
}

/// The overall verdict of checking one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A log check failed while replaying instruction `at_instr` (0-based
    /// within the segment).
    Replay {
        /// Offset within the segment.
        at_instr: u64,
        /// The failing check.
        error: ReplayError,
    },
    /// The replay finished but log entries remain — the checker executed a
    /// different (shorter) path than the main core.
    EntriesLeftOver,
    /// The end-of-segment register checkpoint does not match.
    RegisterMismatch {
        /// Name of the first mismatching register (`pc`, `x7`, `f3`, …).
        reg: String,
    },
    /// The checker hit its instruction-count timeout without consuming the
    /// log (§IV-J: "if we reach our maximum number of instructions without
    /// having checked all loads and stores…, we know that execution has
    /// diverged").
    Divergence,
    /// The checker's own execution failed (wild PC) — with a fault-free
    /// checker this implies a corrupted checkpoint or log.
    Exec,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Replay { at_instr, error } => {
                write!(f, "check failed at segment instruction {at_instr}: {error}")
            }
            CheckError::EntriesLeftOver => write!(f, "log entries left over after replay"),
            CheckError::RegisterMismatch { reg } => {
                write!(f, "end-of-segment checkpoint mismatch in {reg}")
            }
            CheckError::Divergence => write!(f, "instruction-count timeout: execution diverged"),
            CheckError::Exec => write!(f, "checker execution left the text segment"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Result of one segment check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Absolute time at which the checker finished (including the register
    /// comparison) and went back to sleep.
    pub finish_time: Time,
    /// `Ok` if the segment verified clean.
    pub result: Result<(), CheckError>,
    /// Macro-instructions replayed.
    pub instrs_replayed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(ReplayError::LoadAddrMismatch { got: 1, logged: 2 }),
            Box::new(ReplayError::LogExhausted),
            Box::new(CheckError::Divergence),
            Box::new(CheckError::RegisterMismatch { reg: "x7".into() }),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
