//! Pins the trainer's sampling stream and PPO gradients to fixed hashes.
//!
//! The paper net (`EnvConfig::paper_default()`, two workers) runs one
//! 100-step masked stochastic rollout. The bits of every batch-of-one
//! `sample_action` result — moves, charges, joint log-probability and value
//! — are folded into one hash. `compute_ppo_grads` then runs once over the
//! whole 100-transition minibatch, and the gradient bits of every parameter
//! plus the returned `PpoStats` are folded into a second hash.
//!
//! The trunk's three convolutions dominate both paths, so any change to the
//! conv kernels, the GEMM tiles or the backward rules that moves a single
//! bit fails here: kernel refactors must leave both hashes as recorded.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_env::prelude::*;
use vc_env::reward::{extrinsic_reward, RewardMode};
use vc_nn::prelude::*;
use vc_rl::prelude::*;

const STEPS: usize = 100;
const SAMPLING_HASH: u64 = 0x2245_ed65_395a_f2ab;
const GRADIENT_HASH: u64 = 0xa214_4217_bdc1_6fd2;

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32s(&mut self, vs: &[f32]) {
        self.word(vs.len() as u64);
        for v in vs {
            self.word(u64::from(v.to_bits()));
        }
    }
}

#[test]
fn ppo_rollout_and_gradients_match_the_pinned_hashes() {
    let cfg = EnvConfig::paper_default();
    assert_eq!(cfg.horizon, STEPS);
    let mut env = CrowdsensingEnv::new(cfg);
    let mut init = StdRng::seed_from_u64(31);
    let mut store = ParamStore::new();
    let net = ActorCritic::new(
        &mut store,
        NetConfig::for_scenario(env.config().grid, env.config().num_workers),
        &mut init,
    );
    let opts = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: true };
    let mut rng = StdRng::seed_from_u64(37);

    let mut sampling = Fnv::new();
    let mut buffer = RolloutBuffer::new();
    while !env.done() {
        let state = vc_env::state::encode(&env);
        let s = sample_action(&net, &store, &env, opts, &mut rng);
        for (&mv, &ch) in s.moves.iter().zip(&s.charges) {
            sampling.word(mv as u64);
            sampling.word(ch as u64);
        }
        sampling.word(u64::from(s.logp.to_bits()));
        sampling.word(u64::from(s.value.to_bits()));
        let result = env.step(&s.actions);
        let reward = extrinsic_reward(RewardMode::Sparse, env.config(), &result.outcomes);
        buffer.push(Transition {
            state,
            moves: s.moves,
            charges: s.charges,
            move_mask: s.move_mask,
            charge_mask: s.charge_mask,
            logp: s.logp,
            reward,
            value: s.value,
        });
    }
    assert_eq!(buffer.len(), STEPS);

    let ppo = PpoConfig::default();
    let v_last = state_value(&net, &store, &env);
    finish_rollout(&mut buffer, &ppo, v_last);
    let indices: Vec<usize> = (0..STEPS).collect();
    store.zero_grads();
    let stats = compute_ppo_grads(&net, &mut store, &buffer, &indices, &ppo);

    let mut gradients = Fnv::new();
    let mut names = Vec::new();
    for id in store.ids() {
        names.push(store.name(id).to_string());
        for byte in store.name(id).bytes() {
            gradients.word(u64::from(byte));
        }
        gradients.f32s(store.grad(id).data());
    }
    gradients.f32s(&[stats.policy_objective, stats.value_loss, stats.entropy, stats.approx_kl]);
    for layer in ["conv1", "conv2", "conv3"] {
        assert!(names.iter().any(|n| n.ends_with(&format!("{layer}.w"))), "{names:?}");
    }

    assert_eq!(sampling.0, SAMPLING_HASH, "sampling hash {:#018x}", sampling.0);
    assert_eq!(gradients.0, GRADIENT_HASH, "gradient hash {:#018x}", gradients.0);
}
