//! Memory hierarchy and simulated time for the paradet simulator.
//!
//! Implements the memory system of Table I of the paper: split 32 KiB L1
//! caches, a 1 MiB shared L2 with stride prefetcher, DDR3-1600 DRAM, and the
//! checker cores' L0 + shared-L1I instruction path (Fig. 4), factored as a
//! [`CheckerPath`] so secondary clock domains can each clone a private
//! path (at their own hit latencies) that *observes* the shared L2/DRAM
//! without perturbing it ([`Cache::observe`], [`Dram::observe`]). Also
//! home to the simulator's exact femtosecond [`Time`]/[`Freq`] types,
//! which every other crate builds on.
//!
//! # Example
//!
//! ```
//! use paradet_mem::{Freq, MemConfig, MemHier, Time};
//!
//! let cfg = MemConfig::paper_default(Freq::from_mhz(3200), Freq::from_mhz(1000));
//! let mut hier = MemHier::new(&cfg, 12);
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
pub use hier::{
    ArrayFault, ArrayKind, CheckerPath, CheckerPathSnapshot, HierSnapshot, HierStats, MemConfig,
    MemHier,
};
pub use prefetch::{PrefetchStats, PrefetcherConfig, StridePrefetcher};
pub use sparse::Sparse;
pub use time::{CycleDiv, Freq, Time};
