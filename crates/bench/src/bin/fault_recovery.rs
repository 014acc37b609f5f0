//! Runs the recovery campaign (detect → rollback → re-execute) per fault kind.
use std::num::NonZeroU64;

fn main() {
    let trials =
        paradet_par::env_setting::<NonZeroU64>("PARADET_TRIALS").map_or(15, NonZeroU64::get);
    print!("{}", paradet_bench::experiments::fault_recovery(trials, 20_000).render());
}
