//! The counting global allocator behind `peak_heap_mb` and the `alloc.*`
//! layer metrics.
//!
//! It lives in the benchmark's library (not in each binary) so the
//! self-tests under `tests/` measure with the very allocator the
//! `tfmcc_bench` binary reports from.  Every counter is a process-wide
//! statistic that publishes no other data, hence `Relaxed` throughout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`] and counts live bytes, their high-water mark,
/// allocation calls and allocated bytes.
pub struct CountingAllocator;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by as i64, Relaxed) + by as i64;
    PEAK.fetch_max(live, Relaxed);
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(by as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with unchanged arguments and
// returns its result unchanged; the added Relaxed counter updates touch no
// memory the allocator hands out, so the `GlobalAlloc` contract is exactly
// `System`'s.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        System.dealloc(ptr, layout)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as i64, Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: forwarded verbatim to `System`; the caller's `GlobalAlloc`
    // obligations are passed through unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// A reading of the allocator's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapMark {
    /// Heap bytes currently allocated.
    pub live: i64,
    /// Allocation calls so far (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes handed out so far.
    pub bytes: u64,
}

/// Reads the counters.
pub fn mark() -> HeapMark {
    HeapMark {
        live: LIVE.load(Relaxed),
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Restarts the high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live size since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Relaxed)
}
