//! Loom model checking for the tensor arena's global counters
//! (`crates/nn/src/arena.rs`).
//!
//! The freelists themselves are thread-local (no interleaving to check);
//! what concurrency can break is the hit/miss/held accounting: each
//! thread's counters are registered in a shared registry, summed by
//! `arena_stats`, and folded into its retired totals when the thread exits. Under `--cfg loom` the caps
//! shrink (`MAX_BUFFERS = 2`, `MAX_HELD_BYTES = 64`) so the over-cap drop
//! path is reached with tiny buffers.
//!
//! Run via `cargo xtask analyze --loom`; empty without `--cfg loom`.

#![cfg(loom)]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use vc_nn::arena;

/// Two threads churning their thread-local shelves concurrently: in every
/// interleaving each take ticks exactly one of hits/misses, and once all
/// model threads have exited (their shelves dropped), held bytes return to
/// the pre-model baseline.
///
/// One test function on purpose: the counters are process-wide, so a
/// single model keeps executions independent (the suite also runs with
/// `--test-threads=1` for the same reason).
#[test]
fn concurrent_churn_keeps_counters_consistent() {
    let baseline_held = arena::arena_stats().held_bytes;
    loom::model(|| {
        let s0 = arena::arena_stats();
        let churn = || {
            // Three puts against MAX_BUFFERS = 2 / MAX_HELD_BYTES = 64
            // drive both the park path and the over-cap drop path.
            let mut a = arena::take_f32(4);
            a.resize(4, 1.0);
            let mut b = arena::take_f32(4);
            b.resize(4, 2.0);
            let mut c = arena::take_f32(4);
            c.resize(4, 3.0);
            arena::put_f32(a);
            arena::put_f32(b);
            arena::put_f32(c);
            let hit = arena::take_f32(4); // served from this thread's shelf
            arena::put_f32(hit);
        };
        let t1 = loom::thread::spawn(churn);
        let t2 = loom::thread::spawn(churn);
        t1.join().unwrap();
        t2.join().unwrap();
        let s1 = arena::arena_stats();
        // 4 takes per thread, each exactly one hit or one miss — no tick
        // may be lost or double-counted in any interleaving.
        assert_eq!(
            (s1.hits - s0.hits) + (s1.misses - s0.misses),
            8,
            "hits+misses must equal the number of takes"
        );
    });
    // Every explored execution joined its threads before returning, so all
    // thread-local shelves have been dropped and returned their holdings.
    assert_eq!(
        arena::arena_stats().held_bytes,
        baseline_held,
        "held bytes must return to baseline once all model threads exit"
    );
}
