//! Runs the fault-injection coverage campaign.
use std::num::NonZeroU64;

fn main() {
    let trials =
        paradet_par::env_setting::<NonZeroU64>("PARADET_TRIALS").map_or(15, NonZeroU64::get);
    print!("{}", paradet_bench::experiments::fault_coverage(trials, 20_000).render());
}
