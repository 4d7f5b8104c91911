//! The counting global allocator of the allocation-pin test binaries.
//!
//! Declaring this module installs the allocator for the whole process, so
//! every pin that uses it is a test binary of its own: no other test's
//! allocations can land in its measured window.
#![allow(unsafe_code, dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Counts every `alloc`/`realloc` hitting the global allocator.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method hands its arguments unchanged to `System`, so the
// blocks are exactly as sound as `System`'s; the counter touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract, which `System` shares.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s size rules.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the process has made so far.
pub(crate) fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Returns once no thread has allocated for 20 ms, or after 2 s.
pub(crate) fn quiesce() {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = allocs();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        let now = allocs();
        if now == last {
            return;
        }
        last = now;
    }
}
