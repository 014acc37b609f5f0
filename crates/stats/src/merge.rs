//! The merge law of sharded/partial aggregation.
//!
//! Sharded fault campaigns classify trials in separate processes and fold
//! the partial aggregates together afterwards (`campaign-merge`). For the
//! merged coverage tables to be *byte-identical* to a one-shot run, the
//! aggregates must merge exactly — which is why they are integer tallies
//! and order-insensitive extrema, not floating-point running means: every
//! floating-point statistic in a coverage table is derived from merged
//! integers at render time, never merged itself.

/// A partial aggregate that can absorb another partial of the same shape
/// (the campaign's per-site tally implements it).
///
/// Laws (exercised by the campaign shard/merge identity tests):
///
/// * **associative + commutative**, so any shard order folds to the same
///   value;
/// * `a.merge_from(&Default::default())` leaves `a` unchanged (identity).
pub trait Mergeable {
    /// Folds `other` into `self`.
    fn merge_from(&mut self, other: &Self);
}
