//! Randomized property tests for the engineered schedulers: decisions must
//! always be executable, and the decision rules must respect their stated
//! invariants on arbitrary scenarios.
//!
//! The original proptest harness is unavailable offline, so each property
//! runs over a fixed number of seeded random cases instead — same
//! assertions, deterministic inputs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_baselines::prelude::*;
use vc_env::prelude::*;

const CASES: usize = 24;

fn env_config(rng: &mut StdRng) -> EnvConfig {
    let mut cfg = EnvConfig::tiny();
    cfg.num_workers = rng.gen_range(1usize..4);
    cfg.num_pois = rng.gen_range(0usize..30);
    cfg.num_stations = rng.gen_range(0usize..3);
    cfg.horizon = 20;
    cfg.seed = rng.gen::<u64>();
    cfg
}

/// Steps a scheduler through a whole episode, asserting executability:
/// a decided *move* must be valid per the environment mask (charging is
/// allowed to be speculative — the env treats an out-of-range charge as a
/// wasted slot, not an error).
fn assert_executable(scheduler: &mut dyn Scheduler, cfg: &EnvConfig, seed: u64) {
    let mut env = CrowdsensingEnv::new(cfg.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    while !env.done() {
        let actions = scheduler.decide(&env, &mut rng);
        assert_eq!(actions.len(), cfg.num_workers);
        for (wi, a) in actions.iter().enumerate() {
            if !a.charge {
                assert!(
                    env.valid_moves(wi)[a.movement.index()],
                    "{} chose an invalid move {:?} for worker {wi}",
                    scheduler.name(),
                    a.movement
                );
            }
        }
        env.step(&actions);
    }
}

#[test]
fn greedy_decisions_are_always_executable() {
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..CASES {
        let cfg = env_config(&mut rng);
        let seed = rng.gen::<u64>();
        assert_executable(&mut GreedyScheduler, &cfg, seed);
    }
}

#[test]
fn dnc_decisions_are_always_executable() {
    let mut rng = StdRng::seed_from_u64(22);
    for _ in 0..CASES {
        let cfg = env_config(&mut rng);
        let seed = rng.gen::<u64>();
        assert_executable(&mut DncScheduler::default(), &cfg, seed);
    }
}

#[test]
fn random_decisions_are_always_executable() {
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..CASES {
        let cfg = env_config(&mut rng);
        let seed = rng.gen::<u64>();
        assert_executable(&mut RandomScheduler, &cfg, seed);
    }
}

#[test]
fn greedy_never_moves_away_from_strictly_better_cells() {
    // If some reachable position yields strictly positive collection,
    // greedy must pick a positive-gain move (never a zero-gain one).
    let mut case_rng = StdRng::seed_from_u64(24);
    for _ in 0..CASES {
        let seed = case_rng.gen::<u64>();
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 12;
        cfg.seed = seed;
        let env = CrowdsensingEnv::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        let actions = GreedyScheduler.decide(&env, &mut rng);
        for (wi, a) in actions.iter().enumerate() {
            if a.charge {
                continue;
            }
            let best_gain = Move::ALL
                .iter()
                .filter_map(|&m| env.peek_move(wi, m))
                .map(|p| env.potential_collection(&p))
                .fold(0.0f32, f32::max);
            if best_gain > 1e-6 {
                let chosen = env.peek_move(wi, a.movement).unwrap();
                assert!(
                    env.potential_collection(&chosen) > 1e-6,
                    "worker {wi}: best gain {best_gain} available but greedy chose a barren move"
                );
            }
        }
    }
}

#[test]
fn low_battery_dnc_approaches_stations() {
    let mut case_rng = StdRng::seed_from_u64(25);
    for _ in 0..CASES {
        let seed = case_rng.gen::<u64>();
        let mut cfg = EnvConfig::tiny();
        cfg.num_pois = 0;
        cfg.num_stations = 1;
        cfg.seed = seed;
        let mut env = CrowdsensingEnv::new(cfg);
        env.set_worker_energy(0, 5.0);
        let before = env.workers().get(0).pos.dist(&env.stations()[0].pos);
        let mut rng = StdRng::seed_from_u64(seed);
        let actions = DncScheduler::default().decide(&env, &mut rng);
        if actions[0].charge {
            // Already in range — fine.
            assert!(env.can_charge(0));
        } else {
            let target = env.peek_move(0, actions[0].movement).unwrap();
            let after = target.dist(&env.stations()[0].pos);
            assert!(after <= before + 1e-5, "moved away from the only station");
        }
    }
}
