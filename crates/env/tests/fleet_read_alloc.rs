//! Pins the read side of DESIGN.md §16's zero-allocation guarantee: at
//! 1000 workers, `metrics()`, the `workers()` / `pois()` views, the
//! `valid_moves` / `can_charge` masks and `encode_into` (into a buffer
//! that already has capacity) perform **zero** heap allocations, because
//! they read the `FleetState` columns directly.
//!
//! The counting `GlobalAlloc` is process-wide, so this lives in its own
//! test binary instead of beside `fleet_alloc.rs`'s step test: two tests in
//! one binary run concurrently and would count each other's allocations.

#![allow(clippy::unwrap_used, clippy::expect_used)]

#[path = "../../nn/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use vc_env::prelude::*;
use vc_nn::ops::gemm::set_kernel_threads;

const WORKERS: usize = 1000;

/// Runs `f` and returns its result with the allocations made meanwhile.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocs();
    let out = f();
    (out, allocs() - before)
}

#[test]
fn steady_state_reads_perform_zero_heap_allocations() {
    set_kernel_threads(1);
    // The mega-fleet of `fleet_alloc.rs`: 1000 workers, 2000 PoIs.
    let mut cfg = EnvConfig::paper_default();
    cfg.size_x = 64.0;
    cfg.size_y = 64.0;
    cfg.grid = 16;
    cfg.num_workers = WORKERS;
    cfg.num_pois = 2000;
    cfg.num_stations = 16;
    cfg.horizon = 1_000_000;
    cfg.obstacles.clear();
    cfg.poi_distribution = PoiDistribution::Uniform;
    cfg.seed = 4242;
    let mut env = CrowdsensingEnv::new(cfg);
    let actions: Vec<WorkerAction> =
        (0..WORKERS).map(|wi| WorkerAction::go(Move::from_index(wi % NUM_MOVES))).collect();
    for _ in 0..3 {
        env.step_fleet(&actions);
    }
    let mut obs = Vec::with_capacity(state_len(env.config()));

    let (m, delta) = allocs_in(|| env.metrics());
    assert!(m.data_collection_ratio > 0.0, "the warmup steps collected nothing");
    assert_eq!(delta, 0, "metrics() hit the global allocator {delta} time(s)");

    let ((energy, data), delta) = allocs_in(|| {
        let energy: f32 = env.workers().iter().map(|w| w.energy).sum();
        let data: f32 = env.pois().iter().map(|p| p.data).sum();
        (energy, data)
    });
    assert!(energy > 0.0 && data > 0.0);
    assert_eq!(delta, 0, "the worker/PoI views hit the global allocator {delta} time(s)");

    let (legal, delta) = allocs_in(|| {
        (0..env.workers().len())
            .map(|wi| {
                let moves = env.valid_moves(wi).iter().filter(|&&ok| ok).count();
                moves + usize::from(env.can_charge(wi))
            })
            .sum::<usize>()
    });
    assert!(legal >= WORKERS, "Stay is always legal");
    assert_eq!(delta, 0, "valid_moves/can_charge hit the global allocator {delta} time(s)");

    let ((), delta) = allocs_in(|| encode_into(&env, &mut obs));
    assert_eq!(obs.len(), state_len(env.config()));
    assert_eq!(delta, 0, "encode_into hit the global allocator {delta} time(s)");
}
