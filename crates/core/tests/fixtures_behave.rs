//! Integration checks on the chief-loop stress fixture: perfbench's
//! `train_paper` times `train_episode` as its unit of work, so how much chief
//! work one episode performs is pinned here.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use drl_cews::prelude::*;
use vc_env::prelude::*;

/// Many employees, many gather rounds, a deliberately small map: one
/// `train_episode` performs exactly `rounds` gather rounds (one per PPO epoch).
fn chief_stress_trainer(employees: usize, rounds: usize) -> Trainer {
    let mut env = EnvConfig::tiny();
    env.horizon = 15;
    env.num_pois = 20;
    let mut cfg = TrainerConfig::drl_cews(env);
    cfg.curiosity = CuriosityChoice::None;
    cfg.num_employees = employees;
    cfg.ppo.epochs = rounds;
    cfg.ppo.minibatch = 16;
    Trainer::new(cfg).expect("chief stress fixture failed to start")
}

#[test]
fn chief_stress_performs_exactly_the_configured_rounds() {
    // If a refactor changed the epochs→rounds mapping, a timing of one
    // episode would silently measure a different workload.
    let mut t = chief_stress_trainer(4, 3);
    assert_eq!(t.rounds_trained(), 0);
    t.train_episode().unwrap();
    assert_eq!(t.rounds_trained(), 3, "one episode must run exactly `rounds` gather rounds");
    t.train_episode().unwrap();
    assert_eq!(t.rounds_trained(), 6);
}

#[test]
fn chief_stress_runs_with_telemetry_disabled() {
    // A trainer never handed a telemetry handle runs the disabled path.
    let t = chief_stress_trainer(2, 1);
    assert!(!t.telemetry().is_on(), "stress fixture must run telemetry-off");
}
