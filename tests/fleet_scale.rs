//! Fleet-scale smoke: a 1000-worker environment driven end-to-end through
//! both action sources the mega-fleet path supports — the deterministic
//! [`SweepScheduler`] patrol and the factored [`FleetActorCritic`] policy
//! (per-worker heads over a shared trunk, one forward for the whole fleet).
//!
//! This is the CI `fleet-scale` job's rollout leg; the bitwise SoA≡AoS
//! proof lives in `crates/env/tests/fleet_equivalence.rs` and the
//! zero-allocation guarantee in `crates/env/tests/fleet_alloc.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_baselines::prelude::*;
use vc_env::prelude::*;
use vc_nn::prelude::*;
use vc_rl::prelude::*;

const WORKERS: usize = 1000;

/// 1000 workers on a 64×64 map dense with PoIs — big enough that a scalar
/// per-entity path would be visibly slow, small enough for a debug-build CI
/// smoke.
fn mega_config() -> EnvConfig {
    let mut cfg = EnvConfig::paper_default();
    cfg.size_x = 64.0;
    cfg.size_y = 64.0;
    cfg.grid = 16;
    cfg.num_workers = WORKERS;
    cfg.num_pois = 2000;
    cfg.num_stations = 16;
    cfg.horizon = 50;
    cfg.obstacles.clear();
    cfg.poi_distribution = PoiDistribution::Uniform;
    cfg.seed = 99;
    cfg
}

#[test]
fn sweep_scheduler_drives_a_thousand_worker_episode() {
    let mut env = CrowdsensingEnv::new(mega_config());
    let mut rng = StdRng::seed_from_u64(7);
    let metrics = run_episode(&mut SweepScheduler::new(), &mut env, &mut rng);
    assert!(env.done());
    assert_eq!(env.time(), 50);
    assert!(
        metrics.data_collection_ratio > 0.05,
        "1000 sweeping workers on a dense map collected almost nothing \
         (ratio {})",
        metrics.data_collection_ratio
    );
    assert!(metrics.energy_efficiency.is_finite());
}

#[test]
fn factored_policy_rolls_a_thousand_worker_fleet() {
    let mut env = CrowdsensingEnv::new(mega_config());
    let mut rng = StdRng::seed_from_u64(11);
    let mut store = ParamStore::new();
    let net = FleetActorCritic::new(
        &mut store,
        NetConfig::for_scenario(env.config().grid, WORKERS),
        &mut rng,
    );

    for _ in 0..3 {
        let sampled = sample_action(&net, &store, &env, PolicyOptions::default(), &mut rng);
        assert_eq!(sampled.actions.len(), WORKERS);
        assert!(sampled.logp.is_finite());
        assert!(sampled.value.is_finite());
        let result = env.step(&sampled.actions);
        assert_eq!(result.outcomes.len(), WORKERS);
    }
    assert_eq!(env.time(), 3);

    // The factored heads keep the parameter count fleet-size-agnostic up to
    // the per-worker embedding rows — a joint head over 9^1000 · 2^1000
    // actions could not even be constructed.
    let values = state_values_batched(&net, &store, &[&env]);
    assert_eq!(values.len(), 1);
    assert!(values[0].is_finite());
}
