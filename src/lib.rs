//! # paradet — Parallel Error Detection Using Heterogeneous Cores
//!
//! A full-system Rust reproduction of Ainsworth & Jones, *Parallel Error
//! Detection Using Heterogeneous Cores* (DSN 2018): a big out-of-order core
//! paired with many small in-order checker cores that re-execute segments of
//! the committed instruction stream in parallel, fed by a partitioned
//! load-store log and validated against periodic register checkpoints.
//!
//! This umbrella crate re-exports the public API of every subsystem:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`isa`] | `paradet-isa` | instruction set, assembler, golden model |
//! | [`mem`] | `paradet-mem` | caches, DRAM, timing, simulated time |
//! | [`ooo`] | `paradet-ooo` | out-of-order main core model |
//! | [`checker`] | `paradet-checker` | in-order checker core model |
//! | [`detect`] | `paradet-core` | load-store log, checkpoints, paired system |
//! | [`faults`] | `paradet-faults` | fault injection and campaigns |
//! | [`workloads`] | `paradet-workloads` | the nine benchmark kernels |
//! | [`baselines`] | `paradet-baselines` | dual-core lockstep and RMT |
//! | [`model`] | `paradet-model` | analytic area/power model |
//! | [`stats`] | `paradet-stats` | histograms, KDE, report tables |
//! | [`par`] | `paradet-par` | order-preserving parallel map across simulations (trials, sweep points) |
//!
//! # Quickstart
//!
//! ```
//! use paradet::detect::{PairedSystem, SystemConfig};
//! use paradet::workloads::Workload;
//!
//! // Build the default paper configuration (Table I): a 3-wide OoO core at
//! // 3.2 GHz checked by twelve 1 GHz in-order cores through a 36 KiB log.
//! let program = Workload::Bitcount.build(1_000);
//! let mut system = PairedSystem::new(SystemConfig::default(), &program);
//! let report = system.run_to_halt();
//! assert!(report.errors.is_empty());
//! ```

pub use paradet_baselines as baselines;
pub use paradet_checker as checker;
pub use paradet_core as detect;
pub use paradet_faults as faults;
pub use paradet_isa as isa;
pub use paradet_mem as mem;
pub use paradet_model as model;
pub use paradet_ooo as ooo;
pub use paradet_par as par;
pub use paradet_stats as stats;
pub use paradet_workloads as workloads;
