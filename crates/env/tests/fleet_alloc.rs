//! Pins the fleet-stepping guarantee of DESIGN.md §16: after a short
//! warmup, `CrowdsensingEnv::step_fleet` at 1000 workers performs **zero**
//! heap allocations per slot. Phase-A/outcome columns live in the
//! persistent arena-backed scratch, PoI candidates reuse one arena buffer,
//! and even the `step()` wrapper's `Vec<WorkerOutcome>` is recycled through
//! a drop shelf.
//!
//! Mirrors `crates/nn/tests/arena_alloc.rs`: a counting `GlobalAlloc`
//! wrapper, warmup steps to populate every buffer size class, then a hard
//! zero-delta assertion per steady-state step.

#![allow(clippy::unwrap_used, clippy::expect_used)]

#[path = "../../nn/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::allocs;
use vc_env::prelude::*;
use vc_nn::ops::gemm::set_kernel_threads;

const WORKERS: usize = 1000;

/// A mega-fleet scenario: 1000 workers sweeping a 64×64 map with 2000 PoIs.
fn mega_config() -> EnvConfig {
    let mut cfg = EnvConfig::paper_default();
    cfg.size_x = 64.0;
    cfg.size_y = 64.0;
    cfg.grid = 16;
    cfg.num_workers = WORKERS;
    cfg.num_pois = 2000;
    cfg.num_stations = 16;
    cfg.horizon = 1_000_000; // never finishes during the test
    cfg.obstacles.clear();
    cfg.poi_distribution = PoiDistribution::Uniform;
    cfg.seed = 4242;
    cfg
}

/// A deterministic mixed action pattern (all 9 moves + charge requests).
fn fixed_actions() -> Vec<WorkerAction> {
    (0..WORKERS)
        .map(|wi| {
            if wi % 10 == 9 {
                WorkerAction::charge()
            } else {
                WorkerAction::go(Move::from_index(wi % NUM_MOVES))
            }
        })
        .collect()
}

#[test]
fn steady_state_fleet_step_performs_zero_heap_allocations() {
    set_kernel_threads(1);
    let mut env = CrowdsensingEnv::new(mega_config());
    let actions = fixed_actions();

    // Warmup: lease the scratch columns, size the candidate buffer, and
    // populate the outcome-vector recycle shelf.
    for _ in 0..5 {
        let view = env.step_fleet(&actions);
        assert_eq!(view.collected.len(), WORKERS);
    }

    for step in 0..5 {
        let before = allocs();
        let view = env.step_fleet(&actions);
        let collected: f32 = view.collected.iter().sum();
        let delta = allocs() - before;
        assert!(collected.is_finite(), "step {step} produced non-finite collection");
        assert_eq!(
            delta, 0,
            "steady-state fleet step {step} hit the global allocator {delta} time(s); \
             some per-step buffer is bypassing the scratch/arena"
        );
    }

    // The `step()` wrapper must also be allocation-free once its recycled
    // outcome vector has warmed up.
    for _ in 0..3 {
        drop(env.step(&actions));
    }
    for step in 0..5 {
        let before = allocs();
        let result = env.step(&actions);
        assert_eq!(result.outcomes.len(), WORKERS);
        drop(result);
        let delta = allocs() - before;
        assert_eq!(
            delta, 0,
            "steady-state step() wrapper {step} hit the global allocator {delta} time(s)"
        );
    }
}
