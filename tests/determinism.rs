//! Determinism guarantees: identical seeds must give bit-identical models,
//! the foundation of every recorded experiment in EXPERIMENTS.md.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use drl_cews::prelude::*;
use vc_env::prelude::*;

fn cfg() -> TrainerConfig {
    let mut env = EnvConfig::tiny();
    env.horizon = 12;
    let mut c = TrainerConfig::drl_cews(env).quick();
    c.num_employees = 1;
    c
}

#[test]
fn single_employee_training_is_bit_deterministic() {
    let mut a = Trainer::new(cfg()).unwrap();
    let mut b = Trainer::new(cfg()).unwrap();
    for _ in 0..3 {
        a.train_episode().unwrap();
        b.train_episode().unwrap();
    }
    assert_eq!(
        a.store().flat_values(),
        b.store().flat_values(),
        "same seed, same episode count, different parameters"
    );
    assert_eq!(a.history(), b.history());
}

#[test]
fn different_seeds_diverge() {
    let a = Trainer::new(cfg()).unwrap();
    let mut c2 = cfg();
    c2.seed = 999;
    let b = Trainer::new(c2).unwrap();
    assert_ne!(a.store().flat_values(), b.store().flat_values());
}

#[test]
fn scenario_generation_is_stable_across_env_instances() {
    let e = EnvConfig::paper_default();
    let a = CrowdsensingEnv::new(e.clone());
    let b = CrowdsensingEnv::new(e);
    assert_eq!(a.pois().iter().collect::<Vec<_>>(), b.pois().iter().collect::<Vec<_>>());
    assert_eq!(a.stations(), b.stations());
    assert_eq!(a.workers().iter().collect::<Vec<_>>(), b.workers().iter().collect::<Vec<_>>());
}

#[test]
fn curiosity_models_are_seed_deterministic() {
    let c = CuriosityChoice::paper_spatial();
    let env = EnvConfig::tiny();
    let a = c.build(&env, 7);
    let b = c.build(&env, 7);
    assert_eq!(a.params().flat_values(), b.params().flat_values());
    let d = c.build(&env, 8);
    assert_ne!(a.params().flat_values(), d.params().flat_values());
}
