//! Sweep runner with baseline caching and common CLI conventions.
//!
//! The runner is shared by reference across the worker threads of a
//! parallel sweep (see `paradet-par`): programs, unchecked baselines and
//! checker-clock points are cached behind interior mutability, so
//! concurrent sweep points reuse them instead of recomputing, and no
//! `&mut self` forces sequential use.

use crate::experiments::CLOCK_SWEEP;
use paradet_core::{
    run_unchecked_shared, DelayStats, DomainSet, PairedSystem, RunReport, SystemConfig,
};
use paradet_isa::Program;
use paradet_workloads::Workload;
use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// Default dynamic-instruction budget per run. Override with the
/// `PARADET_INSTRS` environment variable.
pub const DEFAULT_INSTRS: u64 = 150_000;

/// The per-run instruction budget: `PARADET_INSTRS`, or `default` when it
/// is unset.
///
/// # Panics
///
/// When `PARADET_INSTRS` is set to anything but a positive integer.
pub fn instr_budget(default: u64) -> u64 {
    paradet_par::env_setting::<NonZeroU64>("PARADET_INSTRS").map_or(default, NonZeroU64::get)
}

/// Where experiment CSVs are written (`EXPERIMENTS-data/` at the workspace
/// root, override with `PARADET_OUT`).
pub fn out_dir() -> PathBuf {
    std::env::var("PARADET_OUT").map(PathBuf::from).unwrap_or_else(|_| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS-data")
    })
}

/// A compute-once cache, safe to hit from many sweep points at once: each
/// value is computed exactly once, and late arrivals block on the
/// in-flight computation rather than redoing it.
type OnceMap<K, V> = Mutex<HashMap<K, Arc<OnceLock<V>>>>;

/// `map`'s value for `key`, computed by `init` on first use.
fn once<K: Eq + Hash, V: Clone>(map: &OnceMap<K, V>, key: K, init: impl FnOnce() -> V) -> V {
    let cell = Arc::clone(map.lock().expect("runner cache poisoned").entry(key).or_default());
    cell.get_or_init(init).clone()
}

/// A sweep runner that caches, per workload, the built program, the
/// unchecked-baseline run and the checker-clock points. All methods take
/// `&self`, so parallel sweep points share the caches.
#[derive(Debug, Default)]
pub struct Runner {
    instrs: u64,
    programs: OnceMap<&'static str, Arc<Program>>,
    baselines: OnceMap<&'static str, RunReport>,
    /// One-run clock-sweep reports, keyed by workload: one simulation
    /// carrying every [`CLOCK_SWEEP`] clock as a secondary domain.
    sweeps: OnceMap<&'static str, Arc<RunReport>>,
    /// Checker-clock points (Fig. 9, 11 and 13), keyed by workload and MHz.
    points: OnceMap<(&'static str, u64), Arc<ClockPoint>>,
}

/// What the checker-clock figures read of one workload on the Table I
/// system with its checkers at one clock (see [`Runner::clock_point`]).
#[derive(Debug)]
pub struct ClockPoint {
    /// Normalized slowdown over the unchecked baseline (Fig. 9 and 13).
    pub slowdown: f64,
    /// Store-check delays (Fig. 11).
    pub store_delays: DelayStats,
}

impl Runner {
    /// Creates a runner with the environment-configured budget.
    pub fn new() -> Runner {
        Runner::with_instrs(instr_budget(DEFAULT_INSTRS))
    }

    /// Creates a runner with an explicit budget.
    pub fn with_instrs(instrs: u64) -> Runner {
        Runner { instrs, ..Runner::default() }
    }

    /// The per-run instruction budget.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// The built program for `workload` at this runner's budget (cached,
    /// shared — no per-run deep clone).
    pub fn program(&self, workload: Workload) -> Arc<Program> {
        once(&self.programs, workload.name(), || {
            Arc::new(workload.build(workload.iters_for_instrs(self.instrs)))
        })
    }

    /// Runs `workload` under `cfg` with full detection.
    pub fn run(&self, cfg: &SystemConfig, workload: Workload) -> RunReport {
        let program = self.program(workload);
        let mut sys = PairedSystem::new_shared(*cfg, &program);
        sys.run(self.instrs)
    }

    /// Runs the unchecked baseline for `workload` on the Table I main core
    /// (`SystemConfig::paper_default`; cached, computed at most once per
    /// workload even when parallel sweep points race for it).
    pub fn baseline(&self, workload: Workload) -> RunReport {
        once(&self.baselines, workload.name(), || {
            let program = self.program(workload);
            run_unchecked_shared(&SystemConfig::paper_default(), &program, self.instrs)
        })
    }

    /// Normalized slowdown of `cfg` over the unchecked [`baseline`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` changes the Table I main core: the cached baseline
    /// is the Table I core's unchecked run, not `cfg`'s.
    ///
    /// [`baseline`]: Runner::baseline
    pub fn slowdown(&self, cfg: &SystemConfig, workload: Workload) -> f64 {
        assert!(
            cfg.main == SystemConfig::paper_default().main,
            "slowdown over the cached baseline needs the Table I main core, got {:?}",
            cfg.main
        );
        let base_cycles = self.baseline(workload).main_cycles.max(1);
        let full = self.run(cfg, workload);
        full.main_cycles as f64 / base_cycles as f64
    }

    /// `workload` on the Table I system with its checkers clocked at `mhz`
    /// (cached; computed at most once even when Fig. 9, 11 and 13 race for
    /// it), exactly as a dedicated run at that clock reports it. A
    /// [`CLOCK_SWEEP`] clock is read from the one-run sweep's domain row
    /// when that row reports no stall divergence, which certifies it
    /// bit-identical to the dedicated run; any other point is that
    /// dedicated run.
    pub fn clock_point(&self, workload: Workload, mhz: u64) -> Arc<ClockPoint> {
        once(&self.points, (workload.name(), mhz), || {
            let base = self.baseline(workload).main_cycles.max(1);
            let sweep = self.clock_sweep(workload);
            let row = sweep.domains.iter().find(|d| d.domain.mhz() == mhz);
            let (main_cycles, store_delays) = match row {
                Some(d) if d.stall_divergences == 0 => (sweep.main_cycles, d.store_delays.clone()),
                _ => {
                    let cfg = SystemConfig::paper_default().with_checker_mhz(mhz);
                    let rep = self.run(&cfg, workload);
                    (rep.main_cycles, rep.store_delays)
                }
            };
            Arc::new(ClockPoint { slowdown: main_cycles as f64 / base as f64, store_delays })
        })
    }

    /// The one-run checker-clock sweep for `workload` (cached): a single
    /// paper-default simulation with every [`CLOCK_SWEEP`] clock folded as
    /// a secondary domain.
    fn clock_sweep(&self, workload: Workload) -> Arc<RunReport> {
        once(&self.sweeps, workload.name(), || {
            let cfg =
                SystemConfig::paper_default().with_extra_domains(DomainSet::from_mhz(&CLOCK_SWEEP));
            Arc::new(self.run(&cfg, workload))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradet_ooo::OooConfig;

    #[test]
    #[should_panic(expected = "needs the Table I main core")]
    fn slowdown_refuses_a_main_core_the_baseline_does_not_model() {
        let r = Runner::with_instrs(500);
        let main = OooConfig { width: 8, ..OooConfig::default() };
        let wide = SystemConfig { main, ..SystemConfig::paper_default() };
        r.slowdown(&wide, Workload::Bitcount);
    }
}
