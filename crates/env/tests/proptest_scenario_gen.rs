//! Property suite for the procedural scenario families (seeded-case loops,
//! PR-1 convention): the seeding contract (same seed ⇒ bitwise-identical
//! scenario), and self-validation under seed mutation (every seed ⇒ a valid
//! scenario).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_env::prelude::*;
use vc_env::scenario_gen::{generate, validate};

const CASES: usize = 24;

#[test]
fn same_seed_is_bitwise_identical_across_families() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for case in 0..CASES {
        let seed: u64 = rng.gen();
        for family in ScenarioFamily::ALL {
            let a = generate(family, seed).unwrap_or_else(|e| panic!("{family:?}/{seed}: {e}"));
            let b = generate(family, seed).unwrap();
            assert_eq!(a, b, "case {case}: {family:?} seed {seed} not deterministic");
        }
    }
}

#[test]
fn mutated_seed_always_yields_a_valid_scenario() {
    let mut rng = StdRng::seed_from_u64(0xD00D);
    for case in 0..CASES {
        // Adversarial seed shapes: random, bit-flipped, near-zero, all-ones.
        let base: u64 = rng.gen();
        let seeds =
            [base, base ^ (1u64 << rng.gen_range(0..64)), case as u64, u64::MAX - case as u64];
        for seed in seeds {
            for family in ScenarioFamily::ALL {
                let scn =
                    generate(family, seed).unwrap_or_else(|e| panic!("{family:?}/{seed}: {e}"));
                // `generate` validated internally; re-assert the public
                // contract and the instantiation path.
                validate(&scn).unwrap_or_else(|e| panic!("{family:?}/{seed}: {e}"));
                let env = scn.try_env().unwrap_or_else(|e| panic!("{family:?}/{seed}: {e}"));
                assert_eq!(env.workers().len(), scn.config.num_workers);
                assert!(env.initial_total_data() > 0.0, "{family:?}/{seed}: no data on the map");
            }
        }
    }
}

#[test]
fn distinct_seeds_redraw_entities() {
    let mut rng = StdRng::seed_from_u64(0xFEED);
    for _ in 0..CASES {
        let a: u64 = rng.gen();
        let b: u64 = rng.gen();
        if a == b {
            continue;
        }
        for family in ScenarioFamily::ALL {
            let sa = generate(family, a).unwrap();
            let sb = generate(family, b).unwrap();
            assert_ne!(
                (sa.workers, sa.pois),
                (sb.workers, sb.pois),
                "{family:?}: seeds {a} and {b} produced identical entities"
            );
        }
    }
}

#[test]
fn generated_envs_reset_to_their_template() {
    // The generated entities must become the reset template — an episode
    // followed by reset restores the exact spawn state (capacity classes
    // included), which the recording round-trip and golden traces rely on.
    let mut rng = StdRng::seed_from_u64(0xAB1E);
    for family in ScenarioFamily::ALL {
        let scn = generate(family, 31).unwrap();
        let mut env = scn.env();
        while !env.done() {
            let n = env.workers().len();
            let mut actions = Vec::with_capacity(n);
            for wi in 0..n {
                let mask = env.valid_moves(wi);
                let valid: Vec<usize> = (0..NUM_MOVES).filter(|&i| mask[i]).collect();
                actions
                    .push(WorkerAction::go(Move::from_index(valid[rng.gen_range(0..valid.len())])));
            }
            env.step(&actions);
        }
        env.reset();
        let workers: Vec<Worker> = env.workers().iter().collect();
        assert_eq!(workers, scn.workers, "{family:?}: reset lost the worker template");
        let pois: Vec<Poi> = env.pois().iter().collect();
        assert_eq!(pois, scn.pois, "{family:?}: reset lost the PoI template");
        assert_eq!(env.time(), 0);
    }
}

#[test]
fn episodes_respect_physics_on_every_family() {
    // A quick physics audit straight from the generator (the full
    // scheduler × family sweep lives in tests/schedulers_differential.rs).
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for family in ScenarioFamily::ALL {
        let scn = generate(family, 13).unwrap();
        let mut env = scn.env();
        while !env.done() {
            let n = env.workers().len();
            let actions: Vec<WorkerAction> = (0..n)
                .map(|wi| {
                    if env.can_charge(wi) && rng.gen_bool(0.3) {
                        WorkerAction::charge()
                    } else {
                        WorkerAction::go(Move::from_index(rng.gen_range(0..NUM_MOVES)))
                    }
                })
                .collect();
            env.step(&actions);
            for (wi, w) in env.workers().iter().enumerate() {
                assert!(w.energy >= 0.0, "{family:?}: worker {wi} energy negative");
                assert!(w.energy <= w.capacity, "{family:?}: worker {wi} over capacity");
                assert!(
                    !scn.config.obstacles.iter().any(|r| r.contains(&w.pos)),
                    "{family:?}: worker {wi} inside an obstacle"
                );
            }
        }
    }
}
