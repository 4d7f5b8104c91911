//! Thread-local tensor arena: a freelist buffer pool behind every
//! [`Tensor`](crate::tensor::Tensor) and kernel scratch allocation.
//!
//! Training builds and drops one autograd tape per minibatch, so the same
//! buffer sizes recur every step. Instead of round-tripping each activation
//! and gradient through the global allocator, freed buffers park in a
//! per-thread freelist and are handed back out by best-fit capacity: after
//! the first step warms the lists, steady-state forward/backward performs
//! zero heap allocation inside the graph (pinned by the counting-allocator
//! test in `crates/nn/tests/arena_alloc.rs`).
//!
//! ## Ownership rules
//!
//! * Buffers are *owned* by whoever took them; returning them via
//!   [`put_f32`] / [`put_usize`] is optional. A buffer that is never
//!   returned is simply freed by the allocator — the arena is a cache, not
//!   a lifetime system.
//! * [`Tensor`](crate::tensor::Tensor) returns its buffers automatically on
//!   drop, so graph code never calls the arena directly.
//! * Arenas are strictly thread-local: a buffer taken on thread A and
//!   returned on thread B parks in B's freelist. That migration is safe and
//!   only costs cache warmth, so cross-thread flows (the kernel pool's
//!   result cells, and the packed GEMM operand panels shared with workers
//!   behind `Arc`) deliberately route buffers back to the dispatching
//!   thread — over the result channel or via `Arc::try_unwrap` — before
//!   returning them.
//! * Returned buffers are cleared (`len == 0`); takers receive an empty
//!   `Vec` with at least the requested capacity and must fill it
//!   themselves. [`take_f32_zeroed`] packages the common resize-to-zero
//!   pattern.
//!
//! Per-thread growth is bounded (`MAX_BUFFERS` buffers, `MAX_HELD_BYTES`
//! bytes per element class); anything beyond the cap is dropped to the
//! allocator. Hit/miss/held counters feed the trainer's telemetry gauges
//! (`nn_arena_*`).
//!
//! ## Counters
//!
//! Each thread counts into its own cache-line-aligned `Counters`,
//! registered once when the thread first touches its arena, so the
//! employee threads' takes and puts never contend for one cache line.
//! [`arena_stats`] sums the registered counters under the registry lock;
//! a thread that exits folds its hits and misses into the registry's
//! retired totals under the same lock, so no take is lost or counted
//! twice, and its held bytes leave with its freelists.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Mutex, MutexGuard, PoisonError};
use std::cell::RefCell;
use std::sync::Arc;

/// Per-thread, per-class cap on parked buffers.
#[cfg(not(loom))]
const MAX_BUFFERS: usize = 512;
/// Per-thread, per-class cap on parked bytes (256 MiB).
#[cfg(not(loom))]
const MAX_HELD_BYTES: usize = 256 << 20;

/// Model-checking caps, shrunk so `tests/loom_arena.rs` reaches the
/// over-cap drop path with a handful of small buffers.
#[cfg(loom)]
const MAX_BUFFERS: usize = 2;
#[cfg(loom)]
const MAX_HELD_BYTES: usize = 64;

// ordering: hits/misses are monotonic telemetry counters; held_bytes is a
// sum of deltas that only the owning thread applies (freelists are
// thread-local); no load of any of them gates other memory — Relaxed
// throughout.
/// One thread's arena counters, on a cache line of their own.
#[repr(align(64))]
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    held_bytes: AtomicU64,
}

/// The live threads' counters, plus the hits and misses of threads that
/// have exited.
struct Registry {
    live: Vec<Arc<Counters>>,
    retired_hits: u64,
    retired_misses: u64,
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { live: Vec::new(), retired_hits: 0, retired_misses: 0 });

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A snapshot of the process-wide arena counters (summed over threads).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Takes served from a parked buffer.
    pub hits: u64,
    /// Takes that fell through to the global allocator.
    pub misses: u64,
    /// Bytes currently parked across all thread freelists.
    pub held_bytes: u64,
}

/// Reads the process-wide arena counters: every thread's, summed.
pub fn arena_stats() -> ArenaStats {
    let reg = registry();
    let mut stats =
        ArenaStats { hits: reg.retired_hits, misses: reg.retired_misses, held_bytes: 0 };
    for c in &reg.live {
        stats.hits += c.hits.load(Ordering::Relaxed); // ordering: telemetry (see Counters)
        stats.misses += c.misses.load(Ordering::Relaxed); // ordering: telemetry (see Counters)
        stats.held_bytes += c.held_bytes.load(Ordering::Relaxed); // ordering: telemetry
    }
    stats
}

/// Zeroes the hit/miss counters (held bytes track live state and are not
/// reset).
pub fn reset_arena_stats() {
    let mut reg = registry();
    reg.retired_hits = 0;
    reg.retired_misses = 0;
    for c in &reg.live {
        c.hits.store(0, Ordering::Relaxed); // ordering: telemetry (see Counters)
        c.misses.store(0, Ordering::Relaxed); // ordering: telemetry (see Counters)
    }
}

/// One element class of the freelist: buffers sorted ascending by capacity.
struct Shelf<T> {
    free: Vec<Vec<T>>,
    held_bytes: usize,
}

impl<T> Shelf<T> {
    const fn new() -> Self {
        Self { free: Vec::new(), held_bytes: 0 }
    }

    /// Best-fit take: the smallest parked buffer with capacity ≥ `min_cap`,
    /// or a fresh allocation on miss.
    fn take(&mut self, min_cap: usize, counters: &Counters) -> Vec<T> {
        if min_cap == 0 {
            // Don't burn a parked buffer (or a counter tick) on an empty
            // request; `Vec::new` doesn't allocate.
            return Vec::new();
        }
        let idx = self.free.partition_point(|v| v.capacity() < min_cap);
        if idx < self.free.len() {
            let v = self.free.remove(idx);
            let bytes = v.capacity() * size_of::<T>();
            self.held_bytes -= bytes;
            // ordering: telemetry (see Counters).
            counters.held_bytes.fetch_sub(bytes as u64, Ordering::Relaxed);
            counters.hits.fetch_add(1, Ordering::Relaxed); // ordering: telemetry
            v
        } else {
            counters.misses.fetch_add(1, Ordering::Relaxed); // ordering: telemetry
            Vec::with_capacity(min_cap)
        }
    }

    /// Parks a cleared buffer, dropping it instead when over the caps.
    fn put(&mut self, mut v: Vec<T>, counters: &Counters) {
        v.clear();
        let bytes = v.capacity() * size_of::<T>();
        if bytes == 0 || self.free.len() >= MAX_BUFFERS || self.held_bytes + bytes > MAX_HELD_BYTES
        {
            return; // dropped to the allocator
        }
        let idx = self.free.partition_point(|p| p.capacity() < v.capacity());
        self.free.insert(idx, v);
        self.held_bytes += bytes;
        counters.held_bytes.fetch_add(bytes as u64, Ordering::Relaxed); // ordering: telemetry
    }
}

struct ArenaInner {
    f32s: Shelf<f32>,
    usizes: Shelf<usize>,
    counters: Arc<Counters>,
}

impl ArenaInner {
    /// An empty arena whose counters are registered.
    fn new() -> Self {
        let counters = Arc::new(Counters::default());
        registry().live.push(Arc::clone(&counters));
        Self { f32s: Shelf::new(), usizes: Shelf::new(), counters }
    }
}

impl Drop for ArenaInner {
    /// On thread exit: the thread's hits and misses stay counted, and its
    /// held bytes leave with its freelists.
    fn drop(&mut self) {
        let mut reg = registry();
        reg.live.retain(|c| !Arc::ptr_eq(c, &self.counters));
        reg.retired_hits += self.counters.hits.load(Ordering::Relaxed); // ordering: telemetry
        reg.retired_misses += self.counters.misses.load(Ordering::Relaxed); // ordering: telemetry
    }
}

thread_local! {
    static ARENA: RefCell<ArenaInner> = RefCell::new(ArenaInner::new());
}

/// An empty `Vec<f32>` with capacity ≥ `min_cap`, recycled when possible.
pub fn take_f32(min_cap: usize) -> Vec<f32> {
    ARENA
        .try_with(|a| {
            let ArenaInner { f32s, counters, .. } = &mut *a.borrow_mut();
            f32s.take(min_cap, counters)
        })
        .unwrap_or_else(|_| Vec::with_capacity(min_cap))
}

/// A zero-filled `Vec<f32>` of exactly `len` elements, recycled when
/// possible.
pub fn take_f32_zeroed(len: usize) -> Vec<f32> {
    let mut v = take_f32(len);
    v.resize(len, 0.0);
    v
}

/// Returns an `f32` buffer to the current thread's freelist. The buffer is
/// cleared; callers must not rely on its contents surviving.
pub fn put_f32(v: Vec<f32>) {
    let _ = ARENA.try_with(|a| {
        let ArenaInner { f32s, counters, .. } = &mut *a.borrow_mut();
        f32s.put(v, counters);
    });
}

/// An empty `Vec<usize>` with capacity ≥ `min_cap`, recycled when possible.
pub fn take_usize(min_cap: usize) -> Vec<usize> {
    ARENA
        .try_with(|a| {
            let ArenaInner { usizes, counters, .. } = &mut *a.borrow_mut();
            usizes.take(min_cap, counters)
        })
        .unwrap_or_else(|_| Vec::with_capacity(min_cap))
}

/// A recycled copy of `src` (the tensor-shape pattern).
pub fn take_usize_copy(src: &[usize]) -> Vec<usize> {
    let mut v = take_usize(src.len());
    v.extend_from_slice(src);
    v
}

/// Returns a `usize` buffer to the current thread's freelist.
pub fn put_usize(v: Vec<usize>) {
    let _ = ARENA.try_with(|a| {
        let ArenaInner { usizes, counters, .. } = &mut *a.borrow_mut();
        usizes.put(v, counters);
    });
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip_reuses_capacity() {
        let mut v = take_f32(100);
        v.resize(100, 1.5);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        put_f32(v);
        let v2 = take_f32(64);
        // Best fit must hand back the same cleared buffer.
        assert_eq!(v2.len(), 0);
        assert!(v2.capacity() >= 64);
        if v2.capacity() == cap {
            assert_eq!(v2.as_ptr(), ptr, "expected the parked buffer back");
        }
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        // Park two buffers; a small request must not consume the big one.
        let mut small = take_f32(10);
        small.resize(10, 0.0);
        let mut big = take_f32(10_000);
        big.resize(10_000, 0.0);
        let big_cap = big.capacity();
        put_f32(big);
        put_f32(small);
        let got = take_f32(5);
        assert!(got.capacity() < big_cap, "best-fit must skip the large buffer");
        let got_big = take_f32(9_000);
        assert!(got_big.capacity() >= 9_000);
    }

    #[test]
    fn zeroed_take_is_fully_zero_after_recycling_dirty_buffer() {
        let mut v = take_f32(32);
        v.resize(32, f32::NAN);
        put_f32(v);
        let z = take_f32_zeroed(32);
        assert_eq!(z.len(), 32);
        assert!(z.iter().all(|&x| x == 0.0), "recycled buffer leaked stale data");
    }

    #[test]
    fn stats_move_on_take_and_put() {
        let before = arena_stats();
        let mut v = take_f32(1 << 12);
        v.resize(1 << 12, 0.0);
        put_f32(v);
        let _hit = take_f32(1 << 12);
        let after = arena_stats();
        assert!(after.hits + after.misses > before.hits + before.misses);
    }

    #[test]
    fn usize_shelf_roundtrip() {
        let shape = take_usize_copy(&[3, 4, 5]);
        assert_eq!(shape, vec![3, 4, 5]);
        put_usize(shape);
        let v = take_usize(2);
        assert!(v.is_empty());
        assert!(v.capacity() >= 2);
    }
}
