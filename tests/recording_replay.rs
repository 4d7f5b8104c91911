//! Cross-crate integration: record a *policy-driven* episode, serialize it,
//! replay it, and verify the replay reproduces the exact trajectory — on
//! the default map and on every procedural scenario family.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use drl_cews::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_env::prelude::*;
use vc_rl::prelude::*;

#[test]
fn policy_episode_records_and_replays_exactly() {
    let mut env_cfg = EnvConfig::tiny();
    env_cfg.horizon = 15;
    let mut cfg = TrainerConfig::drl_cews(env_cfg.clone()).quick();
    cfg.num_employees = 1;
    let mut trainer = Trainer::new(cfg).unwrap();
    trainer.train(2).unwrap();

    // Drive + record.
    let mut env = CrowdsensingEnv::new(env_cfg.clone());
    let mut recorder = Recorder::new(&env);
    let mut rng = StdRng::seed_from_u64(11);
    let opts = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: true };
    let mut live_positions = Vec::new();
    while !env.done() {
        let a = sample_action(trainer.net(), trainer.store(), &env, opts, &mut rng);
        recorder.log(&a.actions);
        env.step(&a.actions);
        live_positions.push(env.workers().get(0).pos);
    }
    let recording = recorder.finish(&env);

    // Serialize / deserialize.
    let json = recording.to_json().unwrap();
    let restored = Recording::from_json(&json).unwrap();
    assert_eq!(restored, recording);

    // Replay and compare the trajectory step by step.
    let mut replay_positions = Vec::new();
    let replayed_env = restored.replay(|e, _| replay_positions.push(e.workers().get(0).pos));
    assert_eq!(replay_positions, live_positions, "replay diverged from the live episode");
    assert_eq!(replayed_env.metrics(), env.metrics());
}

#[test]
fn summary_of_replay_matches_live_summary() {
    let mut env_cfg = EnvConfig::tiny();
    env_cfg.horizon = 10;
    let mut env = CrowdsensingEnv::new(env_cfg.clone());
    let mut recorder = Recorder::new(&env);
    let mut live = EpisodeSummary::new(1);
    let mut rng = StdRng::seed_from_u64(2);
    let mut sched = vc_baselines::greedy::GreedyScheduler;
    use vc_baselines::scheduler::Scheduler;
    while !env.done() {
        let actions = sched.decide(&env, &mut rng);
        recorder.log(&actions);
        let r = env.step(&actions);
        live.record(&r);
    }
    let recording = recorder.finish(&env);

    let mut replayed = EpisodeSummary::new(1);
    recording.replay(|_, r| replayed.record(r));
    assert_eq!(replayed, live);
}

#[test]
fn every_family_records_serializes_and_replays_bit_identically() {
    // The recorder snapshots the slot-0 entities, so the generated
    // families' richer templates (heterogeneous batteries, drift-placed
    // PoIs, scarce stations) must survive JSON and replay to the exact
    // trajectory — positions, energies and final metrics alike.
    use vc_baselines::scheduler::Scheduler;
    use vc_env::scenario_gen::generate;
    for family in ScenarioFamily::ALL {
        let scn = generate(family, 23).unwrap_or_else(|e| panic!("{family:?}: {e}"));
        let mut env = scn.try_env().unwrap_or_else(|e| panic!("{family:?}: {e}"));
        let mut recorder = Recorder::new(&env);
        let mut rng = StdRng::seed_from_u64(23);
        let mut sched = vc_baselines::greedy::GreedyScheduler;
        let mut live_states = Vec::new();
        while !env.done() {
            let actions = sched.decide(&env, &mut rng);
            recorder.log(&actions);
            env.step(&actions);
            live_states.push(env.workers().iter().map(|w| (w.pos, w.energy)).collect::<Vec<_>>());
        }
        let recording = recorder.finish(&env);

        let json = recording.to_json().unwrap_or_else(|e| panic!("{family:?}: {e}"));
        let restored = Recording::from_json(&json).unwrap_or_else(|e| panic!("{family:?}: {e}"));
        assert_eq!(restored, recording, "{family:?}: JSON round-trip altered the recording");

        let mut replay_states = Vec::new();
        let replayed_env = restored.replay(|e, _| {
            replay_states.push(e.workers().iter().map(|w| (w.pos, w.energy)).collect::<Vec<_>>());
        });
        assert_eq!(replay_states, live_states, "{family:?}: replay trajectory diverged");
        assert_eq!(replayed_env.metrics(), env.metrics(), "{family:?}: final metrics diverged");
        assert_eq!(
            replayed_env.workers().iter().collect::<Vec<_>>(),
            env.workers().iter().collect::<Vec<_>>(),
            "{family:?}: final worker state diverged"
        );
    }
}
