//! Fault-injection campaigns over the paradet system.
//!
//! The paper's detection claims (§IV, §IV-I) are exercised by statistical
//! fault injection: each trial runs a workload twice — once clean (the
//! golden run) and once with a single armed fault — and classifies the
//! outcome:
//!
//! * **Detected** — a checker raised an error (store value/address, load
//!   address, register-checkpoint mismatch, or divergence timeout);
//! * **Crashed** — execution left the text segment; per §IV-H the OS holds
//!   termination until checks complete, then reports, so this also counts
//!   as detected in coverage terms (reported separately for transparency);
//! * **Silent data corruption (SDC)** — final memory or architectural state
//!   differs from golden with no detection: a *missed* fault;
//! * **Masked** — the fault changed nothing architectural (e.g. struck a
//!   dead value): benign by definition.
//!
//! Over-detection (§IV-I) is exercised separately by corrupting the
//! detection hardware's own log: the program is fine, but an error is
//! reported anyway — a false positive.
//!
//! # Sharded, resumable campaigns
//!
//! Because each trial is a pure function of `(seed, site, trial)`, a
//! campaign's work grid can be partitioned across processes ([`shard`]),
//! checkpointed to disk and resumed after a crash or `SIGKILL`
//! ([`store`], [`run_campaign_shard`]), and merged back
//! ([`merge_campaign`]) into a result **bit-identical** to the one-shot
//! in-memory [`run_campaign`]. The `campaignd` and `campaign-merge`
//! binaries expose this as a service; CI proves the identity on every
//! push.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
pub mod chaosfs;
pub mod cli;
mod service;
pub mod shard;
pub mod store;
pub mod supervisor;

pub use campaign::{
    run_campaign, run_overdetection_trials, trial_fault, trial_plan, trial_seed, CampaignConfig,
    CampaignResult, FaultSite, Outcome, SiteResult, TrialResult, MIN_CAMPAIGN_INSTRS,
};
pub use chaosfs::{ChaosFs, ChaosScript, KillMode};
pub use paradet_core::RecoveryPolicy;
pub use paradet_ooo::FaultKind;
pub use service::{
    ci95, completeness_table, coverage_cells, coverage_table, merge_campaign, merge_campaign_on,
    merge_campaign_partial, merge_campaign_partial_on, merged_table, partial_result_table,
    recovery_cells, recovery_table, run_campaign_shard, run_campaign_shard_on,
    run_campaign_sharded, PartialMerge, ShardCompleteness, ShardRunOptions, ShardRunSummary,
    COMPLETENESS_HEADER, COVERAGE_HEADER, RECOVERY_HEADER,
};
pub use shard::ShardSpec;
pub use store::{real_fs, DynFs, RealFs, StoreError, StoreFs};
