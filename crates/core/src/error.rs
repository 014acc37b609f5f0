//! Detected-error reporting with first-error identification.

use paradet_checker::CheckError;
use paradet_mem::Time;
use std::fmt;

/// One error detected by a checker core.
///
/// Per §IV of the paper, a failed check poisons all *later* computation:
/// "if an error is detected within a check, we do not know if it was the
/// first error until all previous checks complete". [`confirm_time`]
/// captures that: it is the time at which every earlier segment had
/// validated, so this error is known to be the first (or is superseded by
/// an earlier one).
///
/// [`confirm_time`]: DetectedError::confirm_time
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedError {
    /// Global seal sequence number of the failing segment.
    pub seal_seq: u64,
    /// The check that failed.
    pub error: CheckError,
    /// Time at which the checker raised the error.
    pub detect_time: Time,
    /// Time at which this and every earlier check had completed,
    /// identifying the position of the first error: the latest finish time
    /// up to this seal, set when the check folds (folds run in seal order).
    pub confirm_time: Time,
    /// Dynamic index of the first instruction of the failing segment.
    pub base_instr: u64,
}

impl fmt::Display for DetectedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segment {} (from instruction {}): {} (detected {}, confirmed {})",
            self.seal_seq, self.base_instr, self.error, self.detect_time, self.confirm_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DetectedError {
            seal_seq: 3,
            error: CheckError::Divergence,
            detect_time: Time::from_ns(100),
            confirm_time: Time::from_ns(120),
            base_instr: 4242,
        };
        let s = e.to_string();
        assert!(s.contains("segment 3"));
        assert!(s.contains("4242"));
        assert!(s.contains("diverged"));
    }
}
