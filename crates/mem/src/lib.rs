//! Memory hierarchy and simulated time for the paradet simulator.
//!
//! Implements the memory system of Table I of the paper: the main core's
//! split 32 KiB L1 caches, a 1 MiB shared L2 with stride prefetcher and
//! DDR3-1600 DRAM ([`MemHier`]), and the checker cores' L0 + shared-L1I
//! instruction path (Fig. 4) as a separate [`CheckerPath`]. The detection
//! hardware owns one path per checker clock: a primary-farm path's misses
//! access the shared L2/DRAM ([`MemHier::checker_ifetch_cycle_on`]), and
//! a secondary clock domain's path (at its own hit latencies) *observes*
//! them without perturbing them ([`MemHier::checker_ifetch_cycle_via`],
//! [`Cache::observe`], [`Dram::observe`]). Also home to the simulator's
//! exact femtosecond [`Time`]/[`Freq`] types, which every other crate
//! builds on.
//!
//! # Example
//!
//! ```
//! use paradet_mem::{Freq, MemConfig, MemHier, Time};
//!
//! let cfg = MemConfig::paper_default(Freq::from_mhz(3200), Freq::from_mhz(1000));
//! let mut hier = MemHier::new(&cfg);
//! let done = hier.dread(0x1000, 0x8000, Time::ZERO); // cold miss → DRAM
//! assert!(done > Time::from_ns(30));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod dram;
mod hier;
mod prefetch;
mod sparse;
mod time;

pub use cache::{AccessResult, Cache, CacheConfig, CacheStats};
pub use dram::{Dram, DramConfig, DramStats};
pub use hier::{ArrayFault, ArrayKind, CheckerPath, HierSnapshot, HierStats, MemConfig, MemHier};
pub use prefetch::{PrefetchStats, PrefetcherConfig, StridePrefetcher};
pub use sparse::Sparse;
pub use time::{CycleDiv, Freq, Time};
