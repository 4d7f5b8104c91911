//! Integration: durable v2 checkpoints resume training bit-exactly, and the
//! trainer survives scripted employee faults.
//!
//! The headline guarantee of the fault-tolerance work: a run killed at
//! episode `k` and resumed from its v2 checkpoint must produce parameters
//! bit-identical to the uninterrupted run — Adam moments, per-employee RNG
//! streams, and episode/round counters all travel in the checkpoint. It
//! holds for every curiosity model except `CuriosityChoice::Count`, whose
//! per-employee visit counts are in no checkpoint.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use drl_cews::prelude::*;
use vc_env::prelude::*;
use vc_rl::chief::{FaultKind, FaultPlan};

fn env() -> EnvConfig {
    let mut cfg = EnvConfig::tiny();
    cfg.horizon = 12;
    cfg
}

/// A curiosity-free config; the curiosity models are checked in
/// `resume_with_curiosity_matches_uninterrupted_run_bit_exactly`.
fn cfg(employees: usize) -> TrainerConfig {
    let mut c = TrainerConfig::drl_cews(env()).quick();
    c.num_employees = employees;
    c.curiosity = CuriosityChoice::None;
    c
}

#[test]
fn resume_matches_uninterrupted_run_bit_exactly() {
    // Run A: six episodes straight through.
    let mut a = Trainer::new(cfg(2)).unwrap();
    a.train(6).unwrap();

    // Run B: three episodes, checkpoint, "crash", resume in a fresh trainer
    // built purely from the checkpoint bytes, three more episodes.
    let mut b = Trainer::new(cfg(2)).unwrap();
    b.train(3).unwrap();
    let ckpt = b.checkpoint_v2().unwrap();
    drop(b);

    let mut b2 = Trainer::resume_from(&ckpt).unwrap();
    assert_eq!(b2.episodes_trained(), 3);
    assert_eq!(b2.rounds_trained(), a.rounds_trained() / 2);
    b2.train(3).unwrap();

    assert_eq!(b2.episodes_trained(), a.episodes_trained());
    assert_eq!(b2.rounds_trained(), a.rounds_trained());
    assert_eq!(
        b2.store().flat_values(),
        a.store().flat_values(),
        "resumed parameters must be bit-identical to the uninterrupted run"
    );
}

#[test]
fn resume_with_curiosity_matches_uninterrupted_run_bit_exactly() {
    // The same 3 + 3 against 6 episodes for each curiosity model whose
    // whole state is its parameters and its Adam moments.
    for curiosity in [
        CuriosityChoice::paper_spatial(),
        CuriosityChoice::Rnd { eta: 0.3 },
        CuriosityChoice::Icm { eta: 0.3 },
    ] {
        let label = curiosity.label();
        let mut c = cfg(2);
        c.curiosity = curiosity;
        let mut a = Trainer::new(c.clone()).unwrap();
        a.train(6).unwrap();

        let mut b = Trainer::new(c).unwrap();
        b.train(3).unwrap();
        let ckpt = b.checkpoint_v2().unwrap();
        drop(b);
        let mut b2 = Trainer::resume_from(&ckpt).unwrap();
        b2.train(3).unwrap();

        assert_eq!(b2.rounds_trained(), a.rounds_trained(), "{label}");
        assert_eq!(b2.store().flat_values(), a.store().flat_values(), "{label}: policy");
        assert_eq!(
            b2.curiosity().params().flat_values(),
            a.curiosity().params().flat_values(),
            "{label}: curiosity parameters"
        );
        assert!(
            b2.checkpoint_v2().unwrap() == a.checkpoint_v2().unwrap(),
            "{label}: the final checkpoints differ"
        );
    }
}

#[test]
fn checkpoint_v2_restore_into_existing_trainer_is_exact() {
    let mut a = Trainer::new(cfg(1)).unwrap();
    a.train(2).unwrap();
    let ckpt = a.checkpoint_v2().unwrap();
    a.train(2).unwrap();
    let after_four = a.store().flat_values();

    // Rewind the same trainer to the checkpoint and replay: identical.
    a.restore_v2(&ckpt).unwrap();
    assert_eq!(a.episodes_trained(), 2);
    a.train(2).unwrap();
    assert_eq!(a.store().flat_values(), after_four, "replay after rewind must match");
}

#[test]
fn corrupt_v2_checkpoint_is_rejected() {
    let mut t = Trainer::new(cfg(1)).unwrap();
    t.train(1).unwrap();
    let mut ckpt = t.checkpoint_v2().unwrap();
    let mid = ckpt.len() / 2;
    ckpt[mid] ^= 0x40;
    assert!(Trainer::resume_from(&ckpt).is_err(), "bit flip must be caught by the CRC");
    assert!(Trainer::resume_from(&ckpt[..mid]).is_err(), "truncation must be caught");
}

#[test]
fn trainer_survives_scripted_faults_within_budget() {
    let mut c = cfg(4);
    c.fault.round_timeout_ms = Some(2_000);
    c.fault.restart_budget = 4;
    c.fault.backoff_base_ms = 1;
    // One panic and one NaN round early in training.
    c.fault.faults = FaultPlan::none().with(1, 0, FaultKind::Panic).with(0, 2, FaultKind::NanGrads);

    let mut t = Trainer::new(c).unwrap();
    let stats = t.train(3).unwrap();
    assert_eq!(stats.len(), 3, "training must complete despite injected faults");
    assert_eq!(t.restarts_used(), 1, "the panic burns one restart, the NaN round none");
}

#[test]
fn fault_free_plan_uses_no_restarts() {
    let mut t = Trainer::new(cfg(2)).unwrap();
    t.train(2).unwrap();
    assert_eq!(t.restarts_used(), 0);
}
