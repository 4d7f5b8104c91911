//! The full intrinsic curiosity module of Pathak et al. (CVPR 2017) —
//! the lineage the paper's spatial model descends from (Section V-C).
//!
//! Three networks on the *encoded full state*: an encoder `ϕ(s)`, a forward
//! model `f(ϕ(s), a) → ϕ̂(s')` whose error is the intrinsic reward, and an
//! inverse model `g(ϕ(s), ϕ(s')) → â` that grounds the encoder in
//! action-relevant features. Included as an additional comparator beyond the
//! paper's four spatial variants and RND.

use crate::traits::{Curiosity, TransitionView};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vc_nn::prelude::*;

const NUM_MOVES: usize = vc_env::action::NUM_MOVES;

/// ICM configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IcmConfig {
    /// Flat length of the encoded state.
    pub state_len: usize,
    /// Encoder output width ϕ(s).
    pub embed_dim: usize,
    /// Hidden width of all three MLPs.
    pub hidden: usize,
    /// Number of workers (the inverse model predicts each worker's move).
    pub num_workers: usize,
    /// Intrinsic-reward scale η.
    pub eta: f32,
    /// Weight of the inverse loss relative to the forward loss.
    pub inverse_weight: f32,
    /// Seed for network initialization.
    pub seed: u64,
}

impl IcmConfig {
    /// Reasonable defaults for the crowdsensing state.
    pub fn for_state(state_len: usize, num_workers: usize) -> Self {
        Self {
            state_len,
            embed_dim: 16,
            hidden: 64,
            num_workers,
            eta: 0.3,
            inverse_weight: 0.5,
            seed: 31,
        }
    }
}

#[derive(Clone, Debug)]
struct IcmSample {
    state: Vec<f32>,
    next_state: Vec<f32>,
    moves: Vec<usize>,
}

/// The ICM intrinsic-reward model.
pub struct Icm {
    cfg: IcmConfig,
    store: ParamStore,
    encoder: Mlp,
    forward_model: Mlp,
    inverse_model: Mlp,
    buffer: Vec<IcmSample>,
}

impl Icm {
    /// Builds the three networks.
    pub fn new(cfg: IcmConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let encoder = Mlp::new(
            &mut store,
            "icm.enc",
            &[cfg.state_len, cfg.hidden, cfg.embed_dim],
            Activation::Relu,
            &mut rng,
        );
        let forward_model = Mlp::new(
            &mut store,
            "icm.fwd",
            &[cfg.embed_dim + cfg.num_workers * NUM_MOVES, cfg.hidden, cfg.embed_dim],
            Activation::Relu,
            &mut rng,
        );
        let inverse_model = Mlp::new(
            &mut store,
            "icm.inv",
            &[2 * cfg.embed_dim, cfg.hidden, cfg.num_workers * NUM_MOVES],
            Activation::Relu,
            &mut rng,
        );
        Self { cfg, store, encoder, forward_model, inverse_model, buffer: Vec::new() }
    }

    fn one_hot_moves(&self, moves: &[usize]) -> Vec<f32> {
        let mut v = vec![0.0f32; self.cfg.num_workers * NUM_MOVES];
        for (wi, &m) in moves.iter().enumerate() {
            v[wi * NUM_MOVES + m] = 1.0;
        }
        v
    }

    /// Forward-model prediction error for one transition.
    pub fn prediction_error(&self, state: &[f32], moves: &[usize], next_state: &[f32]) -> f32 {
        let mut g = Graph::new();
        let s = g.leaf(Tensor::from_vec(&[1, self.cfg.state_len], state.to_vec()));
        let sn = g.leaf(Tensor::from_vec(&[1, self.cfg.state_len], next_state.to_vec()));
        let phi = self.encoder.forward(&mut g, &self.store, s);
        let phi_n = self.encoder.forward(&mut g, &self.store, sn);
        let a = g.leaf(Tensor::from_vec(
            &[1, self.cfg.num_workers * NUM_MOVES],
            self.one_hot_moves(moves),
        ));
        let joined = g.concat_cols(phi, a);
        let pred = self.forward_model.forward(&mut g, &self.store, joined);
        let dim_n = self.cfg.embed_dim as f32;
        g.value(pred)
            .data()
            .iter()
            .zip(g.value(phi_n).data())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            / dim_n
    }
}

impl Curiosity for Icm {
    fn intrinsic_reward(&mut self, t: &TransitionView<'_>) -> f32 {
        let err = self.prediction_error(t.state, t.moves, t.next_state);
        self.buffer.push(IcmSample {
            state: t.state.to_vec(),
            next_state: t.next_state.to_vec(),
            moves: t.moves.to_vec(),
        });
        self.cfg.eta * err
    }

    fn compute_grads(&mut self, minibatch: usize, rng: &mut StdRng) {
        if self.buffer.is_empty() {
            return;
        }
        let mut idx: Vec<usize> = (0..self.buffer.len()).collect();
        idx.shuffle(rng);
        idx.truncate(minibatch.max(1));
        let b = idx.len();
        let (sl, w) = (self.cfg.state_len, self.cfg.num_workers);

        let mut states = Vec::with_capacity(b * sl);
        let mut next_states = Vec::with_capacity(b * sl);
        let mut onehots = Vec::with_capacity(b * w * NUM_MOVES);
        let mut flat_moves = Vec::with_capacity(b * w);
        for &i in &idx {
            let s = &self.buffer[i];
            states.extend_from_slice(&s.state);
            next_states.extend_from_slice(&s.next_state);
            onehots.extend(self.one_hot_moves(&s.moves));
            flat_moves.extend_from_slice(&s.moves);
        }

        let mut g = Graph::new();
        let s = g.leaf(Tensor::from_vec(&[b, sl], states));
        let sn = g.leaf(Tensor::from_vec(&[b, sl], next_states));
        let phi = self.encoder.forward(&mut g, &self.store, s);
        let phi_n = self.encoder.forward(&mut g, &self.store, sn);

        // Forward loss (intrinsic-reward objective).
        let a = g.leaf(Tensor::from_vec(&[b, w * NUM_MOVES], onehots));
        let joined = g.concat_cols(phi, a);
        let pred = self.forward_model.forward(&mut g, &self.store, joined);
        let d = g.sub(pred, phi_n);
        let sq = g.square(d);
        let forward_loss = g.mean_all(sq);

        // Inverse loss: per-worker move classification from (ϕ, ϕ').
        let pair = g.concat_cols(phi, phi_n);
        let logits = self.inverse_model.forward(&mut g, &self.store, pair);
        let per_worker = g.reshape(logits, &[b * w, NUM_MOVES]);
        let lsm = g.log_softmax(per_worker);
        let picked = g.pick_column(lsm, flat_moves);
        let nll = g.neg(picked);
        let inverse_loss = g.mean_all(nll);

        let weighted = g.scale(inverse_loss, self.cfg.inverse_weight);
        let loss = g.add(forward_loss, weighted);
        g.backward(loss, &mut self.store);
    }

    fn clear_buffer(&mut self) {
        self.buffer.clear();
    }

    fn params(&self) -> &ParamStore {
        &self.store
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    fn name(&self) -> &'static str {
        "icm"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use vc_nn::optim::{Adam, Optimizer};

    fn sample_view<'a>(s: &'a [f32], sn: &'a [f32], mv: &'a [usize]) -> TransitionView<'a> {
        TransitionView { state: s, next_state: sn, positions: &[], next_positions: &[], moves: mv }
    }

    #[test]
    fn reward_positive_for_fresh_model() {
        let mut icm = Icm::new(IcmConfig::for_state(10, 2));
        let s = vec![0.1f32; 10];
        let sn = vec![0.4f32; 10];
        let mv = vec![1usize, 5];
        assert!(icm.intrinsic_reward(&sample_view(&s, &sn, &mv)) > 0.0);
    }

    #[test]
    fn all_three_networks_receive_grads() {
        let mut icm = Icm::new(IcmConfig::for_state(10, 1));
        let s = vec![0.1f32; 10];
        let sn = vec![0.4f32; 10];
        let mv = vec![2usize];
        icm.intrinsic_reward(&sample_view(&s, &sn, &mv));
        let mut rng = StdRng::seed_from_u64(0);
        icm.params_mut().zero_grads();
        icm.compute_grads(8, &mut rng);
        let mut missing = Vec::new();
        for id in icm.params().ids() {
            // Final-layer biases of the encoder may legitimately get tiny
            // grads, but every *network* must receive some gradient.
            if icm.params().grad(id).l2_norm() == 0.0 {
                missing.push(icm.params().name(id).to_string());
            }
        }
        let nets = ["icm.enc", "icm.fwd", "icm.inv"];
        for net in nets {
            assert!(
                !missing.iter().filter(|n| n.starts_with(net)).count().eq(&{
                    icm.params().ids().filter(|&i| icm.params().name(i).starts_with(net)).count()
                }),
                "no gradient reached {net}"
            );
        }
    }

    #[test]
    fn training_fades_curiosity_on_repeated_transition() {
        let mut icm = Icm::new(IcmConfig::for_state(6, 1));
        let s = vec![0.2f32; 6];
        let sn = vec![0.8f32; 6];
        let mv = vec![4usize];
        let before = icm.prediction_error(&s, &mv, &sn);
        let mut rng = StdRng::seed_from_u64(1);
        let mut opt = Adam::new(1e-2);
        for _ in 0..150 {
            icm.intrinsic_reward(&sample_view(&s, &sn, &mv));
            icm.params_mut().zero_grads();
            icm.compute_grads(16, &mut rng);
            opt.step(icm.params_mut());
            icm.clear_buffer();
        }
        let after = icm.prediction_error(&s, &mv, &sn);
        assert!(after < before, "ICM error {before} -> {after}");
    }
}
