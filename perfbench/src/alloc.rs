//! A counting global allocator: exact heap-allocation counters for the
//! traced run's `alloc.*` ledger entries.
//!
//! Counting is off until [`count`] switches it on, so the untraced run
//! pays one relaxed load per allocation. Counts cover every thread, so
//! callers pin the simulator to one worker while counting; otherwise
//! thread start-up and channel traffic would enter the totals.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus allocation and byte counters. `realloc` counts as one
/// allocation of its new size.
pub struct CountingAlloc;

fn note(bytes: usize) {
    // Relaxed throughout: the counters publish no other data, and the
    // reader runs on the thread that made the counted calls.
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no heap memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap activity of one counted region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

/// Runs `f` with counting on and returns its result and the allocations
/// made meanwhile (by any thread).
pub fn count<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
    let r = f();
    ENABLED.store(false, Ordering::SeqCst);
    let c =
        AllocCount { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) };
    (r, c)
}

/// Switches counting on or off without reading the totals: the traced
/// e2e rounds of the overhead measurement count everything they do.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

impl std::ops::AddAssign for AllocCount {
    fn add_assign(&mut self, other: AllocCount) {
        self.allocs += other.allocs;
        self.bytes += other.bytes;
    }
}
