//! In-order checker core model.
//!
//! Implements the small checker cores of §IV-B of the paper: in-order,
//! 4-stage pipeline, low clock (1 GHz default, swept 125 MHz–2 GHz in
//! Fig. 9/11), a tiny private L0 instruction cache behind a shared checker
//! L1I (modelled in `paradet-mem` as a `CheckerPath`), and **no data
//! cache** — every load is satisfied from the core's load-store log
//! segment, every store is checked against it, and the register file is
//! compared with the end-of-segment checkpoint when the replay finishes.
//!
//! The crate deliberately knows nothing about the log's layout or the
//! memory hierarchy: the detection system (in `paradet-core`) hands each
//! replay a [`ReplaySource`] and each timing fold an I-fetch hook, and
//! this crate contributes the *core model* — timing and architectural
//! replay. The two are decoupled: [`replay_segment`] is the purely
//! functional phase, a function of its inputs alone, that records the
//! verdict and the path (each replayed macro-op's text index and passed
//! log entries) in a [`ReplayTrace`]; [`CheckerCore::fold_timing`] walks
//! that path through the program's own micro-ops with the folding core's
//! clock and latencies, and through the I-fetch hook, in seal order on
//! the simulation thread.
//!
//! Because the replay is clock-invariant, one replay can feed many folds:
//! a [`ClockDomain`] names one checker clock/latency provisioning point,
//! and a [`DomainSet`] is the ordered set of secondary domains a single
//! run sweeps (reproducing the paper's Fig. 9/11 sensitivity curves from
//! one simulation), each fold routing its I-fetches through that domain's
//! own cache path.
//!
//! Farms need not be homogeneous: a [`FarmSpec`] gives each checker slot
//! its own [`ClockDomain`] (speed class), and a [`SchedPolicyKind`]
//! (round-robin / fastest-first / deadline-aware) decides, deterministically,
//! which slot receives each sealed segment and how large that slot's
//! segment is — the MEEK/FlexStep mixed-farm regime.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod core;
mod domain;
mod replay;
mod sched;
mod trace;

pub use crate::core::{
    replay_segment, CheckerConfig, CheckerCore, CheckerLatencies, CheckerStats, SegmentTask,
};
pub use domain::{ClockDomain, DomainSet, MAX_DOMAINS};
pub use replay::{CheckError, CheckOutcome, ReplayError, ReplaySource};
pub use sched::{
    FarmSpec, SchedPolicyKind, ScheduleCtx, SlotView, MAX_FARM_PATTERN, MAX_SPEED_CLASSES,
};
pub use trace::ReplayTrace;
