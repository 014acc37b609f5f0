//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each binary under `src/bin/` is a thin wrapper over one function in
//! [`experiments`]; `run_all` executes the full set. Results print as
//! aligned text tables and are also written as CSV under
//! `EXPERIMENTS-data/` (override with `PARADET_OUT`). Per-run instruction
//! budgets default to [`runner::DEFAULT_INSTRS`] and can be overridden
//! with `PARADET_INSTRS`. The repo-level `ARCHITECTURE.md` indexes every
//! figure to its experiment function, CSV, and implementing crates.
//!
//! The checker-clock sweeps (Fig. 9/11, and Fig. 13's 12-core points) run
//! on the **one-run clock-domain path**: each workload simulates once with
//! every sweep clock folded as a secondary domain, and the three figures
//! share each (workload, clock) point ([`runner::Runner::clock_point`]),
//! which falls back to a dedicated run for any domain reporting stall
//! divergences.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod runner;
