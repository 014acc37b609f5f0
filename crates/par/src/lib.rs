//! Dependency-free scoped data parallelism for the paradet workspace.
//!
//! The build environment has no crates.io access, so this crate vendors the
//! small slice of rayon-style functionality the experiment pipeline needs,
//! in the spirit of the `shims/` crates: [`par_map`] (an order-preserving
//! parallel map over a slice, for campaign trials and experiment grids)
//! and a thread-count policy ([`num_threads`]) driven by the
//! `PARADET_THREADS` environment variable. Parallelism is across
//! simulations only: one simulation, checker farm included, runs on one
//! thread.
//! It also reads the workspace's numeric environment settings
//! (`PARADET_THREADS`, `PARADET_INSTRS`, `PARADET_CHAOS_ATTEMPT`):
//! [`try_env_setting`] returns a malformed value as an error, and
//! [`env_setting`] panics on it.
//!
//! # Determinism
//!
//! [`par_map`] returns results **in input order**, and the worker count
//! never influences *what* is computed for an item — only *where*.
//! Callers that also keep their per-item computations independent of
//! execution order (paradet does this by deriving per-trial RNG seeds from
//! the item's identity, never from a shared sequential stream) therefore get
//! bit-identical results at any thread count, including 1.
//!
//! # Thread-count policy
//!
//! [`num_threads`] resolves, in order:
//!
//! 1. a scoped programmatic override installed by [`with_threads`]
//!    (used by the determinism test-suite; it nests and restores),
//! 2. the `PARADET_THREADS` environment variable (a positive integer),
//! 3. [`std::thread::available_parallelism`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::Cell;
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads parallel maps on this thread will use.
///
/// Resolution order: [`with_threads`] override, then `PARADET_THREADS`,
/// then [`std::thread::available_parallelism`]; always at least 1.
///
/// # Panics
///
/// When `PARADET_THREADS` is set to anything but a positive integer.
pub fn num_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n.max(1);
    }
    env_setting::<NonZeroUsize>("PARADET_THREADS")
        .or_else(|| std::thread::available_parallelism().ok())
        .map_or(1, NonZeroUsize::get)
}

/// Parses `value`, the value of the environment variable `name`, as a `T`;
/// the error names both.
fn parse_setting<T: FromStr>(name: &str, value: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{name}={value}: {e}"))
}

/// Reads the environment variable `name` as a `T`; `Ok(None)` when it is
/// unset. A `NonZero*` type rejects zero.
///
/// # Errors
///
/// When the variable is set but does not parse as a `T`, with a message
/// naming the variable and its value: a typo stops the run instead of
/// silently running a default.
pub fn try_env_setting<T: FromStr>(name: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    std::env::var_os(name).map(|value| parse_setting(name, &value.to_string_lossy())).transpose()
}

/// [`try_env_setting`] for settings read where there is no error to return.
///
/// # Panics
///
/// When the variable is set but does not parse as a `T`, with the message
/// of [`try_env_setting`]'s error.
pub fn env_setting<T: FromStr>(name: &str) -> Option<T>
where
    T::Err: Display,
{
    try_env_setting(name).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs `f` with [`num_threads`] forced to `n` on the current thread.
///
/// Nests: the previous override (if any) is restored on exit, including on
/// panic. This is how the test-suite compares 1-thread and 8-thread runs
/// without racing on the process environment.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

/// Order-preserving parallel map with per-worker scratch state: workers
/// claim one item at a time from a shared atomic cursor, which balances
/// items of very uneven cost (fault trials that crash early vs. run to the
/// budget). `init()` runs once on each worker thread, and its result is
/// threaded through every call that worker makes.
///
/// The scratch is the allocation-recycling hook: a worker's scratch (e.g.
/// pooled log-segment buffers) is reused across all items it processes
/// instead of being reallocated per item. Callers with nothing to recycle
/// pass `|| ()`.
pub fn par_map<T, R, S, F, I>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = num_threads().min(items.len()).max(1);
    if workers == 1 {
        // Serial fast path: no threads, no atomics — and the reference
        // ordering the parallel path must reproduce.
        let mut scratch = init();
        return items.iter().enumerate().map(|(i, t)| f(&mut scratch, i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let slots = SendSlots(out.as_mut_ptr(), std::marker::PhantomData);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                let f = &f;
                let init = &init;
                let slots = &slots;
                s.spawn(move || {
                    let mut scratch = init();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(idx) else { break };
                        let r = f(&mut scratch, idx, item);
                        // SAFETY: `idx` is claimed by exactly one worker
                        // (the atomic cursor hands out each index once),
                        // every slot outlives the scope, and the main
                        // thread does not touch `out` until the scope
                        // joins all workers.
                        unsafe { *slots.0.add(idx) = Some(r) };
                    }
                })
            })
            .collect();
        for h in handles {
            // Propagate worker panics to the caller.
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });

    out.into_iter().map(|r| r.expect("every index was claimed exactly once")).collect()
}

/// A raw pointer to the result slots, asserted shareable across the scope's
/// workers (they write disjoint indices; see the safety comment at the write
/// site).
struct SendSlots<R>(*mut Option<R>, std::marker::PhantomData<R>);
unsafe impl<R: Send> Sync for SendSlots<R> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroU64;

    #[test]
    fn settings_parse_or_name_the_variable_and_value() {
        assert_eq!(parse_setting::<NonZeroU64>("PARADET_INSTRS", "3000").unwrap().get(), 3000);
        assert_eq!(parse_setting::<u32>("PARADET_THREADS", "2"), Ok(2));
        for (name, bad) in [
            ("PARADET_INSTRS", "3k"),
            ("PARADET_INSTRS", "0"),
            ("PARADET_INSTRS", ""),
            ("PARADET_INSTRS", " 3000"),
            ("PARADET_THREADS", "two"),
            ("PARADET_THREADS", "-1"),
            ("PARADET_THREADS", "1.5"),
        ] {
            let err = parse_setting::<NonZeroU64>(name, bad).unwrap_err();
            assert!(err.starts_with(&format!("{name}={bad}: ")), "{err}");
        }
        assert!(parse_setting::<NonZeroU64>("PARADET_INSTRS", "0").unwrap_err().contains("zero"));
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let got = with_threads(8, || par_map(&items, || (), |(), i, &x| (i as u64) * 1000 + x * x));
        let want: Vec<u64> =
            items.iter().enumerate().map(|(i, &x)| i as u64 * 1000 + x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let items: Vec<u64> = (0..257).collect();
        let f = |_: &mut (), i: usize, x: &u64| i as u64 ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let serial = with_threads(1, || par_map(&items, || (), f));
        for n in [2, 3, 8, 33] {
            assert_eq!(with_threads(n, || par_map(&items, || (), f)), serial, "n={n}");
        }
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, || (), |(), _, &x| x).is_empty());
        assert_eq!(with_threads(8, || par_map(&[7u32], || (), |(), i, &x| (i, x))), vec![(0, 7)]);
    }

    #[test]
    fn init_scratch_is_per_worker_and_reused() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let got = with_threads(4, || {
            par_map(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0u64
                },
                |scratch, _, &x| {
                    *scratch += 1; // scratch survives across this worker's items
                    x as u64
                },
            )
        });
        assert_eq!(got.len(), 64);
        assert!(inits.load(Ordering::Relaxed) <= 4, "one init per worker at most");
    }

    #[test]
    fn with_threads_nests_and_restores() {
        assert_eq!(with_threads(3, num_threads), 3);
        with_threads(2, || {
            assert_eq!(num_threads(), 2);
            assert_eq!(with_threads(5, num_threads), 5);
            assert_eq!(num_threads(), 2);
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        with_threads(4, || {
            par_map(
                &items,
                || (),
                |(), _, &x| {
                    if x == 9 {
                        panic!("boom");
                    }
                    x
                },
            )
        });
    }
}
