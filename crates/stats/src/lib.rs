//! Statistics and reporting utilities for the experiment harness.
//!
//! Everything `run_all` needs to turn raw
//! [`RunReport`](../paradet_core/struct.RunReport.html)s into the series
//! and tables the paper prints, mapped to where each is used:
//!
//! * [`Summary`] — running moments and the geometric mean ("average
//!   slowdown" in Fig. 7/9/13);
//! * [`gaussian_kde`] — the Fig. 8 detection-delay density curves;
//! * [`wilson_interval`] — 95% confidence intervals on the
//!   fault-coverage proportions (§IV campaign tables);
//! * [`Table`] — the aligned text tables `run_all` prints
//!   and the CSVs under `EXPERIMENTS-data/` that ARCHITECTURE.md's figure
//!   atlas indexes;
//! * [`Mergeable`] — the merge law of partial aggregates for sharded
//!   campaigns: shard processes tally integers, `campaign-merge` folds the
//!   tallies, and every float a table prints is derived from merged
//!   integers at render time.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod kde;
mod merge;
mod summary;
mod table;

pub use kde::{gaussian_kde, KdePoint};
pub use merge::Mergeable;
pub use summary::{wilson_interval, Summary};
pub use table::Table;
