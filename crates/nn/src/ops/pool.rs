//! Persistent kernel thread pool: spawn-once workers for the GEMM hot path.
//!
//! The previous kernel layer spawned fresh scoped threads inside every
//! parallel `gemm()` call. At training shapes that overhead dominates: the
//! committed bench trajectory shows 64³ matmul collapsing from 46.5 GFLOP/s
//! at 1 thread to 3.0 GFLOP/s at 2 threads, purely from thread creation.
//! This module replaces per-call spawning with a process-wide pool that is
//! grown on demand (never shrunk) and parked between dispatches.
//!
//! ## Design
//!
//! * **No work stealing.** Jobs are disjoint GEMM output cells (row-chunk ×
//!   L2-sized column-panel, see `gemm.rs`) pushed onto one
//!   `Mutex<VecDeque>`; any worker may pop any job. The partitioning
//!   contract (cells aligned to packed micro-panel boundaries, every output
//!   element a self-contained ascending-`k` accumulation chain) lives in
//!   the dispatcher, so results are bit-identical to the scoped
//!   implementation for every thread count regardless of cell shape or
//!   which worker runs which cell. Workers share the dispatcher's packed
//!   operands read-only behind `Arc` and write results into their own
//!   arena-recycled panels, so no cache line is ever written by two
//!   threads.
//! * **Spin-then-park.** Workers spin briefly on the queue-length atomic,
//!   then park on a condvar. Dispatch cost while warm is one lock + one
//!   `notify_all`.
//! * **Caller helping.** The dispatching thread always computes chunk 0
//!   itself and then drains remaining queued jobs inline via
//!   [`try_run_one`] while waiting. The pool therefore never deadlocks even
//!   with zero workers (spawn failure, single-core boxes), and undersized
//!   pools are starvation-free.
//! * **Panic containment.** Worker threads wrap each job in `catch_unwind`;
//!   a panicking job kills its result channel, which the dispatcher
//!   translates back into a panic on the calling thread (matching scoped
//!   `std::thread::scope` semantics).
//!
//! All primitives come from [`crate::sync`], so under `--cfg loom` the
//! dispatch protocol (enqueue vs spin vs park/unpark vs caller helping) is
//! exhaustively model-checked by `tests/loom_pool.rs`; the happens-before
//! contract itself is written down in `DESIGN.md` §13.
//!
//! This is the only module in the workspace allowed to create threads
//! (enforced by `cargo xtask check`'s `no-raw-thread` lint).

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::sync::{hint, thread, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::collections::VecDeque;

/// A unit of pool work: an owning closure, run exactly once on any thread.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Brief spin before a worker parks; deliberately short so workers on
/// oversubscribed machines yield the core back to the dispatcher quickly.
#[cfg(not(loom))]
const WORKER_SPINS: u32 = 256;
/// Under the model every spin iteration is two scheduling points; one
/// iteration is enough to cover the spin→recheck→park branch structure.
#[cfg(loom)]
const WORKER_SPINS: u32 = 1;

/// The pool's shared dispatch state. Instantiated once process-wide via
/// [`shared`]; loom models build private instances (fresh state per
/// explored execution) through [`model::ModelPool`].
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// Queue length mirror; lets spinning workers poll without the lock.
    /// Written only while holding `queue` (Release), read lock-free
    /// (Acquire): a reader that observes n > 0 may race a concurrent pop,
    /// so a zero-length pop result is normal and handled.
    queued: AtomicUsize,
}

static SHARED: OnceLock<&'static Shared> = OnceLock::new();
// ordering: all five counters are monotonic telemetry read only by
// pool_stats(); no other memory depends on their values, so Relaxed is
// sufficient everywhere they are touched.
static WORKERS: AtomicUsize = AtomicUsize::new(0);
static DISPATCHES: AtomicU64 = AtomicU64::new(0);
static JOBS_EXECUTED: AtomicU64 = AtomicU64::new(0);
static JOBS_HELPED: AtomicU64 = AtomicU64::new(0);
static PARKS: AtomicU64 = AtomicU64::new(0);

impl Shared {
    fn new() -> Self {
        Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queued: AtomicUsize::new(0),
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        // A poisoned queue only means a *pop* panicked mid-hold, which
        // popping never does; job panics happen outside the lock. Recover
        // the guard.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock-free queue-length read (the mirror, not the deque itself).
    fn queued_len(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }

    fn pop_job(&self) -> Option<Job> {
        if self.queued.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.lock_queue();
        let job = q.pop_front();
        if job.is_some() {
            self.queued.fetch_sub(1, Ordering::Release);
        }
        job
    }

    /// Enqueues a batch of jobs and wakes the workers.
    fn submit(&self, jobs: Vec<Job>) {
        let n = jobs.len();
        {
            let mut q = self.lock_queue();
            q.extend(jobs);
            self.queued.fetch_add(n, Ordering::Release);
        }
        self.available.notify_all();
    }

    /// Pops and runs one job inline; `false` when the queue is empty.
    fn try_run_one(&self) -> bool {
        match self.pop_job() {
            Some(job) => {
                job();
                true
            }
            None => false,
        }
    }

    /// One scheduling round of a worker: runs one job (returns `true`), or
    /// spins briefly and — if the queue stays empty — parks until woken
    /// (returns `false`; the caller loops back to re-attempt the pop).
    ///
    /// The park is a `wait_while` predicate loop on the queue itself, so a
    /// submit that lands between the failed spin and the park is seen
    /// before sleeping — the lost-wakeup window the loom model pins shut.
    fn worker_step(&self) -> bool {
        if let Some(job) = self.pop_job() {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            return true;
        }
        for _ in 0..WORKER_SPINS {
            hint::spin_loop();
            if self.queued.load(Ordering::Acquire) > 0 {
                return false;
            }
        }
        // ordering: monotonic telemetry counter (see statics above).
        PARKS.fetch_add(1, Ordering::Relaxed);
        let guard = self.lock_queue();
        let guard = self
            .available
            .wait_while(guard, |q| q.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        drop(guard);
        false
    }
}

/// A snapshot of the pool's lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads currently alive (grow-only).
    pub workers: usize,
    /// Parallel dispatches routed through the pool.
    pub dispatches: u64,
    /// Jobs completed on pool worker threads.
    pub jobs_executed: u64,
    /// Jobs completed inline on dispatching threads ([`try_run_one`]).
    pub jobs_helped: u64,
    /// Times a worker exhausted its spin budget and parked.
    pub parks: u64,
}

/// Reads the pool's lifetime counters.
pub fn pool_stats() -> PoolStats {
    // ordering: monotonic telemetry counters; snapshot consistency across
    // the five loads is not required (see statics above).
    PoolStats {
        workers: WORKERS.load(Ordering::Relaxed), // ordering: see above
        dispatches: DISPATCHES.load(Ordering::Relaxed), // ordering: see above
        jobs_executed: JOBS_EXECUTED.load(Ordering::Relaxed), // ordering: see above
        jobs_helped: JOBS_HELPED.load(Ordering::Relaxed), // ordering: see above
        parks: PARKS.load(Ordering::Relaxed),     // ordering: see above
    }
}

fn shared() -> &'static Shared {
    SHARED.get_or_init(|| Box::leak(Box::new(Shared::new())))
}

fn worker_loop(s: &'static Shared) {
    loop {
        if s.worker_step() {
            // ordering: monotonic telemetry counter (see statics above).
            JOBS_EXECUTED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Grows the pool to at least `n` worker threads (never shrinks). Spawn
/// failures degrade gracefully: dispatchers finish queued work themselves
/// via caller helping, so an undersized pool is slower, never stuck.
pub fn ensure_workers(n: usize) {
    let s = shared();
    loop {
        // ordering: WORKERS only gates how many threads exist; the spawned
        // thread's visibility of pool state is established by the mutex,
        // not by this counter, so the claim CAS can stay Relaxed.
        let cur = WORKERS.load(Ordering::Relaxed);
        if cur >= n {
            return;
        }
        // Claim the slot before spawning so racing dispatchers don't
        // over-spawn; roll back if the OS refuses the thread.
        // ordering: pure slot accounting, same contract as the load above.
        if WORKERS.compare_exchange(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed).is_err() {
            continue;
        }
        let spawned = thread::Builder::new()
            .name(format!("vc-nn-kernel-{cur}"))
            .spawn(move || worker_loop(s));
        if spawned.is_err() {
            // ordering: rollback of the Relaxed claim above.
            WORKERS.fetch_sub(1, Ordering::Relaxed);
            return;
        }
    }
}

/// Enqueues a batch of jobs and wakes the workers. Records one dispatch.
pub fn submit(jobs: Vec<Job>) {
    // ordering: monotonic telemetry counter (see statics above).
    DISPATCHES.fetch_add(1, Ordering::Relaxed);
    shared().submit(jobs);
}

/// Pops and runs one queued job on the calling thread. Returns `false` when
/// the queue is empty. Dispatchers call this in their wait loop so work
/// always completes even if every worker is busy or absent.
pub fn try_run_one() -> bool {
    if shared().try_run_one() {
        // ordering: monotonic telemetry counter (see statics above).
        JOBS_HELPED.fetch_add(1, Ordering::Relaxed);
        true
    } else {
        false
    }
}

/// Drains the pool's queue within `deadline` by running queued jobs on
/// the calling thread (caller helping), returning `true` once the queue
/// is observed empty. Used by graceful shutdown: worker threads are
/// detached and never joined (the pool is process-global and grow-only),
/// so "quiesced" means no *queued* work remains — a job already running
/// on a worker finishes on its own thread.
///
/// Returns `false` if the deadline expires while jobs are still queued
/// (e.g. another dispatcher keeps submitting); the caller decides whether
/// that is an error.
pub fn quiesce(deadline: std::time::Duration) -> bool {
    let start = std::time::Instant::now();
    let s = shared();
    loop {
        // ordering: Acquire pairs with the Release len publication in
        // submit/pop so an observed-zero here means every enqueued job has
        // been popped by someone.
        if s.queued_len() == 0 {
            return true;
        }
        if !try_run_one() {
            // Queue non-empty but pop lost a race: give the winner a beat.
            thread::yield_now();
        }
        if start.elapsed() >= deadline {
            return s.queued_len() == 0;
        }
    }
}

/// Model-checking surface: a private pool instance with fresh state per
/// explored execution, driving the *same* `Shared` protocol code the
/// production statics use. Worker loops are exercised one [`worker_step`]
/// at a time so model executions terminate.
///
/// [`worker_step`]: ModelPool::worker_step
#[cfg(loom)]
pub mod model {
    use super::{Job, Ordering, Shared};

    /// A self-contained pool for `loom` models (see `tests/loom_pool.rs`).
    pub struct ModelPool {
        shared: Shared,
    }

    impl ModelPool {
        /// A pool with an empty queue and no workers.
        #[must_use]
        pub fn new() -> Self {
            ModelPool { shared: Shared::new() }
        }

        /// [`super::submit`] against this instance (no telemetry).
        pub fn submit(&self, jobs: Vec<Job>) {
            self.shared.submit(jobs);
        }

        /// [`super::try_run_one`] against this instance (no telemetry).
        pub fn try_run_one(&self) -> bool {
            self.shared.try_run_one()
        }

        /// One worker scheduling round; see `Shared::worker_step`.
        pub fn worker_step(&self) -> bool {
            self.shared.worker_step()
        }

        /// The lock-free queue-length mirror.
        #[must_use]
        pub fn queued(&self) -> usize {
            self.shared.queued.load(Ordering::Acquire)
        }
    }

    impl Default for ModelPool {
        fn default() -> Self {
            Self::new()
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn submitted_jobs_all_run_even_with_zero_workers() {
        // Don't ensure_workers: caller helping alone must drain the queue.
        let hits = Arc::new(AtomicU32::new(0));
        let jobs: Vec<Job> = (0..8)
            .map(|_| {
                let hits = Arc::clone(&hits);
                Box::new(move || {
                    hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }) as Job
            })
            .collect();
        submit(jobs);
        // Workers may exist from other tests; help until the count lands.
        while hits.load(std::sync::atomic::Ordering::Relaxed) < 8 {
            if !try_run_one() {
                std::hint::spin_loop();
            }
        }
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 8);
    }

    #[test]
    fn workers_drain_queue_while_caller_waits() {
        ensure_workers(2);
        assert!(pool_stats().workers >= 2);
        let (tx, rx) = mpsc::channel();
        let jobs: Vec<Job> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                Box::new(move || {
                    let _ = tx.send(i);
                }) as Job
            })
            .collect();
        drop(tx);
        submit(jobs);
        let mut got: Vec<i32> = Vec::new();
        while got.len() < 4 {
            match rx.try_recv() {
                Ok(v) => got.push(v),
                Err(mpsc::TryRecvError::Empty) => {
                    if !try_run_one() {
                        std::thread::yield_now();
                    }
                }
                Err(mpsc::TryRecvError::Disconnected) => break,
            }
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn worker_survives_job_panic() {
        ensure_workers(1);
        let before = pool_stats();
        submit(vec![Box::new(|| panic!("deliberate test panic")) as Job]);
        // The panicking job must be consumed (by a worker or by us), and
        // later jobs must still run.
        let (tx, rx) = mpsc::channel();
        submit(vec![Box::new(move || {
            let _ = tx.send(42u32);
        }) as Job]);
        loop {
            match rx.try_recv() {
                Ok(v) => {
                    assert_eq!(v, 42);
                    break;
                }
                Err(mpsc::TryRecvError::Empty) => {
                    // Helping may hit the panicking job; contain it like a
                    // worker does.
                    let _ = std::panic::catch_unwind(try_run_one);
                    std::thread::yield_now();
                }
                Err(mpsc::TryRecvError::Disconnected) => panic!("sender dropped unexpectedly"),
            }
        }
        assert!(pool_stats().dispatches >= before.dispatches + 2);
    }

    #[test]
    fn ensure_workers_is_grow_only() {
        ensure_workers(3);
        let grown = pool_stats().workers;
        assert!(grown >= 3);
        ensure_workers(1);
        assert_eq!(pool_stats().workers, grown, "pool must never shrink");
    }
}
