//! Pins the heap traffic of one whole W = 1000 fleet slot: after a short
//! warmup, `sample_action_fleet` performs exactly the allocations its
//! return owns — the outer batch `Vec` plus the five vectors of the one
//! `SampledAction` (actions, moves, charges, move mask, charge mask) — and
//! `step_fleet` performs none. Encoding, the forward pass, the action
//! masks and the logits-to-actions epilogue all run on arena buffers and
//! the stack.
//!
//! Its own test binary, because the counting allocator is process-wide:
//! the pattern of `crates/nn/tests/arena_alloc.rs` (a counting
//! `GlobalAlloc` wrapper, warmup, then measure once no thread has
//! allocated for a while).

#![allow(clippy::unwrap_used, clippy::expect_used)]

#[path = "../../nn/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use counting_alloc::{allocs, quiesce};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_env::prelude::*;
use vc_nn::ops::gemm::set_kernel_threads;
use vc_nn::prelude::*;
use vc_rl::prelude::*;

const WORKERS: usize = 1000;
const WARMUP_SLOTS: usize = 5;
const MEASURED_SLOTS: usize = 5;
/// What a returned single-env sample owns: the batch `Vec` and the
/// `SampledAction`'s five vectors.
const SAMPLE_ALLOCS: u64 = 6;

/// An obstacle-free 64×64 map with 2000 PoIs and 16 stations, a horizon
/// the test never reaches.
fn config() -> EnvConfig {
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
    cfg.seed = 2024;
    cfg
}

#[test]
fn warm_fleet_slot_allocates_only_its_returned_sampled_action() {
    set_kernel_threads(1);
    let mut env = CrowdsensingEnv::new(config());
    let mut init = StdRng::seed_from_u64(17);
    let mut store = ParamStore::new();
    let net = FleetActorCritic::new(
        &mut store,
        NetConfig::for_scenario(env.config().grid, WORKERS),
        &mut init,
    );
    let opts = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: true };
    let mut rng = StdRng::seed_from_u64(23);

    // One slot; returns the allocations of its sample and of its step.
    let mut slot = |env: &mut CrowdsensingEnv| {
        let before = allocs();
        let sampled = sample_action_fleet(&net, &store, env, opts, &mut rng);
        let sampled_at = allocs();
        std::hint::black_box(env.step_fleet(&sampled.actions));
        let stepped_at = allocs();
        (sampled_at - before, stepped_at - sampled_at)
    };
    for _ in 0..WARMUP_SLOTS {
        slot(&mut env);
    }
    let mut counts = Vec::with_capacity(MEASURED_SLOTS);
    quiesce();
    for _ in 0..MEASURED_SLOTS {
        counts.push(slot(&mut env));
    }
    for (k, &(sample, step)) in counts.iter().enumerate() {
        assert_eq!(
            sample, SAMPLE_ALLOCS,
            "measured slot {k}: sample_action_fleet made {sample} allocations, \
             want {SAMPLE_ALLOCS} (the returned SampledAction and its batch Vec)"
        );
        assert_eq!(step, 0, "measured slot {k}: step_fleet made {step} allocations");
    }
}
