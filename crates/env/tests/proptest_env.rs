//! Randomized property tests for the crowdsensing simulator's physical and
//! metric invariants under arbitrary action sequences.
//!
//! The original proptest harness is unavailable offline, so each property
//! runs over a fixed number of seeded random cases instead — same
//! assertions, deterministic inputs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_env::prelude::*;

const CASES: usize = 48;

/// A small random environment config.
fn env_config(rng: &mut StdRng) -> EnvConfig {
    let mut cfg = EnvConfig::tiny();
    cfg.num_workers = rng.gen_range(1usize..4);
    cfg.num_pois = rng.gen_range(5usize..40);
    cfg.num_stations = rng.gen_range(0usize..3);
    cfg.horizon = rng.gen_range(5usize..25);
    cfg.seed = rng.gen::<u64>();
    cfg
}

/// A random action for one worker.
fn action(rng: &mut StdRng) -> WorkerAction {
    WorkerAction {
        movement: Move::from_index(rng.gen_range(0usize..NUM_MOVES)),
        charge: rng.gen::<bool>(),
    }
}

#[test]
fn physics_invariants_hold_under_arbitrary_actions() {
    let mut rng = StdRng::seed_from_u64(41);
    for _ in 0..CASES {
        let cfg = env_config(&mut rng);
        let seq: Vec<Vec<WorkerAction>> =
            (0..30).map(|_| (0..4).map(|_| action(&mut rng)).collect()).collect();
        let mut env = CrowdsensingEnv::new(cfg.clone());
        let mut prev_data: f32 = env.pois().iter().map(|p| p.data).sum();
        for step_actions in seq {
            if env.done() {
                break;
            }
            let actions: Vec<WorkerAction> =
                (0..cfg.num_workers).map(|w| step_actions[w % step_actions.len()]).collect();
            let result = env.step(&actions);

            // Energy stays within [0, capacity].
            for w in env.workers().iter() {
                assert!(w.energy >= -1e-4, "negative energy {}", w.energy);
                assert!(w.energy <= w.capacity + 1e-4, "overfull battery");
            }
            // Workers stay inside the space and outside obstacles.
            for w in env.workers().iter() {
                assert!(w.pos.x >= 0.0 && w.pos.x <= cfg.size_x);
                assert!(w.pos.y >= 0.0 && w.pos.y <= cfg.size_y);
                assert!(!cfg.obstacles.iter().any(|r| r.contains(&w.pos)));
            }
            // PoI data never grows.
            let data: f32 = env.pois().iter().map(|p| p.data).sum();
            assert!(data <= prev_data + 1e-4, "data regrew {prev_data} -> {data}");
            prev_data = data;

            // Per-step outcomes are consistent.
            for out in &result.outcomes {
                assert!(out.collected >= 0.0);
                assert!(out.consumed >= 0.0);
                assert!(out.charged >= 0.0);
                assert!(out.traveled >= 0.0);
                assert!(out.traveled <= cfg.max_step + 1e-5);
                if out.charging {
                    assert!(out.collected == 0.0, "charging slot collected data");
                }
            }
        }
    }
}

#[test]
fn metrics_stay_bounded() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..CASES {
        let cfg = env_config(&mut rng);
        let moves: Vec<usize> = (0..25).map(|_| rng.gen_range(0usize..NUM_MOVES)).collect();
        let mut env = CrowdsensingEnv::new(cfg.clone());
        for &mv in &moves {
            if env.done() {
                break;
            }
            let actions = vec![WorkerAction::go(Move::from_index(mv)); cfg.num_workers];
            env.step(&actions);
            let m = env.metrics();
            assert!((0.0..=1.0).contains(&m.data_collection_ratio));
            assert!((0.0..=1.0).contains(&m.remaining_data_ratio));
            assert!((0.0..=1.0).contains(&m.fairness_index));
            assert!(m.energy_efficiency >= 0.0 && m.energy_efficiency.is_finite());
        }
    }
}

#[test]
fn collection_conservation() {
    // Total collected by workers equals total removed from PoIs.
    let mut rng = StdRng::seed_from_u64(43);
    for _ in 0..CASES {
        let cfg = env_config(&mut rng);
        let moves: Vec<usize> = (0..25).map(|_| rng.gen_range(0usize..NUM_MOVES)).collect();
        let mut env = CrowdsensingEnv::new(cfg.clone());
        let initial: f32 = env.pois().iter().map(|p| p.data).sum();
        for &mv in &moves {
            if env.done() {
                break;
            }
            env.step(&vec![WorkerAction::go(Move::from_index(mv)); cfg.num_workers]);
        }
        let remaining: f32 = env.pois().iter().map(|p| p.data).sum();
        let collected: f32 = env.workers().iter().map(|w| w.total_collected).sum();
        assert!(
            (initial - remaining - collected).abs() < 1e-2,
            "conservation violated: initial {initial}, remaining {remaining}, collected {collected}"
        );
    }
}

#[test]
fn rewards_are_finite() {
    let mut rng = StdRng::seed_from_u64(44);
    for _ in 0..CASES {
        let cfg = env_config(&mut rng);
        let mv = rng.gen_range(0usize..NUM_MOVES);
        let mut env = CrowdsensingEnv::new(cfg.clone());
        let r = env.step(&vec![WorkerAction::go(Move::from_index(mv)); cfg.num_workers]);
        let sparse = sparse_reward(&cfg, &r.outcomes);
        let dense = dense_reward(&cfg, &r.outcomes);
        assert!(sparse.is_finite());
        assert!(dense.is_finite());
    }
}

#[test]
fn jain_index_bounds() {
    let mut rng = StdRng::seed_from_u64(45);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..20);
        let values: Vec<f32> = (0..n).map(|_| rng.gen_range(0.01f32..10.0)).collect();
        let j = jain_index(values.iter().copied());
        let n = values.len() as f32;
        assert!(j >= 1.0 / n - 1e-5, "jain {j} below 1/n");
        assert!(j <= 1.0 + 1e-5, "jain {j} above 1");
    }
}

#[test]
fn state_encoding_has_fixed_shape() {
    let mut rng = StdRng::seed_from_u64(46);
    for _ in 0..CASES {
        let cfg = env_config(&mut rng);
        let mv = rng.gen_range(0usize..NUM_MOVES);
        let mut env = CrowdsensingEnv::new(cfg.clone());
        let expect = vc_env::state::state_len(&cfg);
        assert_eq!(vc_env::state::encode(&env).len(), expect);
        env.step(&vec![WorkerAction::go(Move::from_index(mv)); cfg.num_workers]);
        let s = vc_env::state::encode(&env);
        assert_eq!(s.len(), expect);
        assert!(s.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn scenario_generation_is_pure() {
    let mut rng = StdRng::seed_from_u64(47);
    for _ in 0..CASES {
        let cfg = env_config(&mut rng);
        let a = CrowdsensingEnv::new(cfg.clone());
        let b = CrowdsensingEnv::new(cfg);
        assert_eq!(a.pois().iter().collect::<Vec<_>>(), b.pois().iter().collect::<Vec<_>>());
        assert_eq!(a.workers().iter().collect::<Vec<_>>(), b.workers().iter().collect::<Vec<_>>());
    }
}

#[test]
fn segment_intersection_is_symmetric() {
    let mut rng = StdRng::seed_from_u64(48);
    for _ in 0..CASES {
        let (x0, y0) = (rng.gen_range(0.0f32..8.0), rng.gen_range(0.0f32..8.0));
        let (x1, y1) = (rng.gen_range(0.0f32..8.0), rng.gen_range(0.0f32..8.0));
        let (rx, ry) = (rng.gen_range(1.0f32..5.0), rng.gen_range(1.0f32..5.0));
        let r = Rect::new(rx, ry, rx + 1.5, ry + 1.5);
        let a = Point::new(x0, y0);
        let b = Point::new(x1, y1);
        assert_eq!(r.intersects_segment(&a, &b), r.intersects_segment(&b, &a));
    }
}
