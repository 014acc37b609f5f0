//! Checker clock domains: heterogeneous provisioning points swept within
//! one simulation.
//!
//! The Fig. 9/11 sensitivity axis — detection latency and slowdown versus
//! the checker-core clock — used to require one full simulation per clock.
//! But the functional replay of a sealed segment is clock-invariant (the
//! [`ReplayTrace`](crate::ReplayTrace) contains no times and no
//! latencies), and segment boundaries are decided by entry counts and
//! instruction counts, never by checker timing, so a single simulation can
//! feed one timing fold per clock. A [`ClockDomain`] names one such
//! provisioning point (checker clock + latency class, which also implies
//! the domain's checker-cache hit latencies in the memory system), and a
//! [`DomainSet`] is the ordered, `Copy` collection of *secondary* domains
//! a run sweeps alongside its primary checker configuration.
//!
//! The primary domain drives the simulation exactly as before — its folds
//! gate main-core stalls — so its results are bit-identical with or
//! without secondary domains. Each secondary domain folds the same replay
//! traces, in seal order, against its own checker cores (clock, latencies,
//! `free_at`, statistics) and its own checker-cache path; the detection
//! system counts a *stall divergence* whenever a secondary domain's
//! segment-busy window would have gated the main core differently than the
//! primary's, so a zero counter certifies the domain's one-run results as
//! bit-identical to a dedicated run at that clock.
//!
//! A [`ClockDomain`] also doubles as a *speed class* in a mixed-speed
//! farm (see [`FarmSpec`](crate::FarmSpec)): there, different slots of the
//! *primary* farm run different domains, whereas a [`DomainSet`] entry
//! re-clocks the whole farm uniformly for a one-run sweep ("what if the
//! entire farm ran at clock C"). The two compose — a mixed farm can still
//! carry secondary domains, each of which folds the farm as if it were
//! homogeneous at that domain's clock.

use crate::core::CheckerConfig;
use paradet_mem::Freq;

/// One checker provisioning point: the clock and latency class a farm of
/// checker cores runs at, swept within a single run (Fig. 9/11).
///
/// The domain's [`CheckerConfig`] carries everything clock-derived: the
/// core clock itself, the functional-unit latency class, and (through
/// `SystemConfig::mem_config_for` in `paradet-core`) the frequency the
/// memory system uses for this domain's checker L0/L1I hit latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDomain {
    /// The checker-core configuration this domain's cores run.
    pub checker: CheckerConfig,
}

impl ClockDomain {
    /// The paper's Table I checker at `mhz` (the Fig. 9/11 sweep points).
    pub fn at_mhz(mhz: u64) -> ClockDomain {
        ClockDomain { checker: CheckerConfig::paper_default(Freq::from_mhz(mhz)) }
    }

    /// This domain's checker clock in MHz.
    pub fn mhz(&self) -> u64 {
        self.checker.clock.mhz()
    }
}

/// Maximum number of secondary domains in a [`DomainSet`] (the set is a
/// fixed-size `Copy` array so `SystemConfig` stays `Copy`).
pub const MAX_DOMAINS: usize = 8;

/// An ordered, `Copy` set of secondary [`ClockDomain`]s swept within one
/// run, alongside (and after) the primary checker configuration.
///
/// Order matters only for determinism bookkeeping: folds run primary
/// first, then set order, so any shared-L2 interleaving between domains is
/// reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DomainSet {
    domains: [Option<ClockDomain>; MAX_DOMAINS],
    len: usize,
}

impl DomainSet {
    /// The empty set (the default: a plain single-clock run).
    pub fn new() -> DomainSet {
        DomainSet::default()
    }

    /// A set of paper-default domains at the given clocks, in order.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_DOMAINS`] clocks are given.
    pub fn from_mhz(clocks: &[u64]) -> DomainSet {
        let mut set = DomainSet::new();
        for &mhz in clocks {
            set = set.with(ClockDomain::at_mhz(mhz));
        }
        set
    }

    /// Returns the set extended by `domain`.
    ///
    /// # Panics
    ///
    /// Panics if the set already holds [`MAX_DOMAINS`] domains.
    pub fn with(mut self, domain: ClockDomain) -> DomainSet {
        assert!(self.len < MAX_DOMAINS, "DomainSet holds at most {MAX_DOMAINS} domains");
        self.domains[self.len] = Some(domain);
        self.len += 1;
        self
    }

    /// Number of secondary domains.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty (no secondary domains: single-clock run).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The domains, in sweep order.
    pub fn iter(&self) -> impl Iterator<Item = ClockDomain> + '_ {
        self.domains[..self.len].iter().map(|d| d.expect("set invariant: first len are Some"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_builds_in_order() {
        let set = DomainSet::from_mhz(&[125, 250, 2000]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        let clocks: Vec<u64> = set.iter().map(|d| d.mhz()).collect();
        assert_eq!(clocks, vec![125, 250, 2000]);
        assert!(DomainSet::new().is_empty());
    }

    #[test]
    fn domain_carries_paper_config() {
        let d = ClockDomain::at_mhz(500);
        assert_eq!(d.mhz(), 500);
        assert_eq!(d.checker, CheckerConfig::paper_default(Freq::from_mhz(500)));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn set_overflow_panics() {
        let mut set = DomainSet::new();
        for _ in 0..=MAX_DOMAINS {
            set = set.with(ClockDomain::at_mhz(125));
        }
    }
}
