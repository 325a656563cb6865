//! Counting global allocator. The traced run takes exact allocation
//! and byte deltas around each layer call, and reads the live heap to
//! size a cache entry. Counting is always on, so the untraced run pays
//! the same (uncontended, relaxed) increments as the traced one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct Counting;

// Statistics only: no counter publishes other data, so `Relaxed` is enough.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    LIVE.fetch_add(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are side effects that never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // Forwarded rather than left to the default (alloc + memset), so
    // zeroed tables keep the system allocator's lazily zeroed pages.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and bytes requested since process start.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub allocs: u64,
    pub bytes: u64,
}

impl Counts {
    pub fn now() -> Self {
        Counts {
            allocs: ALLOCS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
        }
    }

    /// Counts accrued since `earlier`.
    pub fn since(earlier: Counts) -> Self {
        let now = Counts::now();
        Counts {
            allocs: now.allocs - earlier.allocs,
            bytes: now.bytes - earlier.bytes,
        }
    }
}

/// Heap bytes currently allocated and not yet freed.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}
