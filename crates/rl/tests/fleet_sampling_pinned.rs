//! Pins the fleet sampler and the fleet net's gradients to fixed hashes.
//!
//! A 1000-worker `FleetActorCritic` samples 40 masked stochastic slots and
//! steps the environment with them; the bits of every sampled move and
//! charge, the joint log-probability, the value estimate and both action
//! masks are folded into one hash. A PPO-shaped backward pass over two of
//! the visited states then hashes the gradient bits of every parameter,
//! `fleet.worker_embed` and the trunk included.
//!
//! Any change to the head kernels, the join, the sampling order or the
//! backward rules that moves a single bit fails here, so refactors of the
//! fleet heads must leave both hashes as recorded.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use vc_env::prelude::*;
use vc_nn::prelude::*;
use vc_rl::prelude::*;

const WORKERS: usize = 1000;
const SLOTS: usize = 40;
const SAMPLING_HASH: u64 = 0xd673_9d52_0510_f13c;
const GRADIENT_HASH: u64 = 0x2ea5_70ff_f4f0_3dcd;

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

/// An obstacle-free 64×64 map with 2000 PoIs and 16 stations: dense
/// enough that masks and charging decisions vary across workers.
fn config() -> EnvConfig {
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
    cfg.seed = 2024;
    cfg
}

#[test]
fn fleet_sampling_and_gradients_match_the_pinned_hashes() {
    let mut env = CrowdsensingEnv::new(config());
    let mut init = StdRng::seed_from_u64(17);
    let mut store = ParamStore::new();
    let net = FleetActorCritic::new(
        &mut store,
        NetConfig::for_scenario(env.config().grid, WORKERS),
        &mut init,
    );
    let opts = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: true };
    let mut rng = StdRng::seed_from_u64(23);

    let mut sampling = Fnv::new();
    let mut states = Vec::new();
    let mut picked = Vec::new();
    for slot in 0..SLOTS {
        if slot == SLOTS / 2 || slot == SLOTS - 1 {
            vc_env::state::encode_into(&env, &mut states);
        }
        let s = sample_action_fleet(&net, &store, &env, opts, &mut rng);
        for (&mv, &ch) in s.moves.iter().zip(&s.charges) {
            sampling.word(mv as u64);
            sampling.word(ch as u64);
        }
        sampling.word(u64::from(s.logp.to_bits()));
        sampling.word(u64::from(s.value.to_bits()));
        for &ok in s.move_mask.iter().chain(&s.charge_mask) {
            sampling.word(u64::from(ok));
        }
        if slot == SLOTS / 2 || slot == SLOTS - 1 {
            picked.push((s.moves.clone(), s.charges.clone()));
        }
        env.step(&s.actions);
    }

    // One backward pass over the two saved states, with a loss touching
    // all three heads: picked log-probabilities, an entropy-like term and
    // a squared value.
    let shape = vc_env::state::state_shape(env.config());
    let mut g = Graph::new();
    let x = g.leaf(Tensor::from_vec(&[2, shape[0], shape[1], shape[2]], states));
    let out = net.forward(&mut g, &store, x);
    let moves: Vec<usize> = picked.iter().flat_map(|p| p.0.iter().copied()).collect();
    let charges: Vec<usize> = picked.iter().flat_map(|p| p.1.iter().copied()).collect();
    let lm = g.log_softmax(out.move_logits);
    let pm = g.pick_column(lm, moves);
    let lc = g.log_softmax(out.charge_logits);
    let pc = g.pick_column(lc, charges);
    let logp = g.add(pm, pc);
    let logp = g.sum_all(logp);
    let pr = g.softmax(out.move_logits);
    let ent = g.mul(pr, lm);
    let ent = g.mean_all(ent);
    let v = g.square(out.value);
    let v = g.sum_all(v);
    let t = g.add(logp, ent);
    let loss = g.add(t, v);
    store.zero_grads();
    g.backward(loss, &mut store);

    let mut gradients = Fnv::new();
    let mut names = Vec::new();
    for id in store.ids() {
        names.push(store.name(id).to_string());
        for byte in store.name(id).bytes() {
            gradients.word(u64::from(byte));
        }
        gradients.f32s(store.grad(id).data());
    }
    assert!(names.iter().any(|n| n == "fleet.worker_embed"), "{names:?}");
    assert!(names.iter().any(|n| n == "fleet.conv1.w"), "{names:?}");

    assert_eq!(sampling.0, SAMPLING_HASH, "sampling hash {:#018x}", sampling.0);
    assert_eq!(gradients.0, GRADIENT_HASH, "gradient hash {:#018x}", gradients.0);
}
