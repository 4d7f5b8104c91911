//! Integration: checkpoints round-trip across independent trainer instances
//! and preserve policy behavior exactly.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use drl_cews::prelude::*;
use vc_env::prelude::*;

fn env() -> EnvConfig {
    let mut cfg = EnvConfig::tiny();
    cfg.horizon = 12;
    cfg
}

fn cfg() -> TrainerConfig {
    let mut c = TrainerConfig::drl_cews(env()).quick();
    c.num_employees = 1;
    c.curiosity = CuriosityChoice::None;
    c
}

#[test]
fn checkpoint_transfers_between_trainers() {
    let mut a = Trainer::new(cfg()).unwrap();
    a.train(3).unwrap();
    let ckpt = a.checkpoint_v2().unwrap();

    let mut b = Trainer::new(cfg()).unwrap();
    assert_ne!(b.store().flat_values(), a.store().flat_values());
    b.restore(&ckpt).unwrap();
    assert_eq!(b.store().flat_values(), a.store().flat_values());
    // A policy-only restore is a warm start: the run's counters stay put.
    assert_eq!(b.episodes_trained(), 0);
}

#[test]
fn restored_policy_behaves_identically() {
    let mut a = Trainer::new(cfg()).unwrap();
    a.train(2).unwrap();
    let ckpt = a.checkpoint_v2().unwrap();
    let mut b = Trainer::new(cfg()).unwrap();
    b.restore(&ckpt).unwrap();

    let e = env();
    let mut pa = PolicyScheduler::from_trainer(&a, "a");
    let mut pb = PolicyScheduler::from_trainer(&b, "b");
    let ma = evaluate(&mut pa, &e, 2, 3);
    let mb = evaluate(&mut pb, &e, 2, 3);
    assert_eq!(ma, mb, "same weights + same seeds must act identically");
}

#[test]
fn corrupt_checkpoint_is_rejected_not_applied() {
    let mut t = Trainer::new(cfg()).unwrap();
    let before = t.store().flat_values();
    let good = t.checkpoint_v2().unwrap();
    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    // A sound checkpoint of a differently shaped policy.
    let mut wider = cfg();
    wider.env.num_workers += 1;
    let wider = Trainer::new(wider).unwrap().checkpoint_v2().unwrap();
    for ckpt in [&bad_magic[..], &flipped[..], &good[..mid], &wider[..]] {
        assert!(t.restore(ckpt).is_err());
        assert_eq!(t.store().flat_values(), before, "failed restore must not corrupt params");
    }
}

#[test]
fn checkpoint_is_stable_across_serialization_cycles() {
    let mut t = Trainer::new(cfg()).unwrap();
    let c1 = t.checkpoint_v2().unwrap();
    let restored = vc_nn::serialize::load_checkpoint_v2(&c1).unwrap();
    let c2 = vc_nn::serialize::save_checkpoint_v2(&restored);
    assert_eq!(c1, c2, "save∘load must be the identity on checkpoints");
}

#[test]
fn vc_train_final_checkpoint_resumes_and_serves() {
    // `--save-ckpt` writes the same v2 file `--ckpt-every` does, so the
    // final checkpoint is accepted by `--resume` and by the serving loader.
    let dir = std::env::temp_dir().join(format!("vc-train-final-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("final.ckpt");
    let path = ckpt.to_str().unwrap();
    let vc_train = |args: &[&str]| {
        let out =
            std::process::Command::new(env!("CARGO_BIN_EXE_vc_train")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "vc_train {args:?} failed: {stderr}");
    };
    let train = ["--episodes", "1", "--employees", "1", "--curiosity", "none", "--horizon", "8"];
    vc_train(&[&train[..], &["--save-ckpt", path]].concat());
    vc_train(&["--resume", path, "--episodes", "2"]);
    vc_train(&[&train[..], &["--load-ckpt", path]].concat());

    let bytes = std::fs::read(&ckpt).unwrap();
    let t = Trainer::resume_from(&bytes).unwrap();
    assert_eq!(t.episodes_trained(), 1);
    drl_cews::serving::PolicyArtifact::from_bytes(&bytes).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
