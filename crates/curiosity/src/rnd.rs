//! Random network distillation (Burda et al., ICLR 2019) — the
//! state-of-the-art comparator of Section VII-D.
//!
//! A fixed random *target* network maps the full encoded state to an
//! embedding; a trainable *predictor* learns to match it. The prediction
//! error is the intrinsic reward: novel states predict badly. The paper
//! finds RND inefficient in this multi-worker system because it models the
//! conjoint state of all workers — reproducing that comparison requires the
//! faithful full-state formulation implemented here.

use crate::traits::{Curiosity, TransitionView};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vc_nn::prelude::*;

/// RND configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RndConfig {
    /// Flat length of the encoded state.
    pub state_len: usize,
    /// Embedding width of the target network.
    pub embed_dim: usize,
    /// Predictor hidden width.
    pub hidden: usize,
    /// Intrinsic-reward scale η.
    pub eta: f32,
    /// Seed for target/predictor initialization.
    pub seed: u64,
}

impl RndConfig {
    /// Defaults matched to the curiosity-model scale of the paper setup.
    pub fn for_state(state_len: usize) -> Self {
        Self { state_len, embed_dim: 16, hidden: 64, eta: 0.3, seed: 23 }
    }
}

/// The RND intrinsic-reward model.
pub struct Rnd {
    cfg: RndConfig,
    store: ParamStore,
    /// Frozen random target (its Linear params are registered frozen).
    target: Mlp,
    predictor: Mlp,
    buffer: Vec<Vec<f32>>,
}

impl Rnd {
    /// Builds the target (frozen) and predictor (trainable) networks.
    pub fn new(cfg: RndConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let target = Mlp::new(
            &mut store,
            "rnd.target",
            &[cfg.state_len, cfg.hidden, cfg.embed_dim],
            Activation::Relu,
            &mut rng,
        );
        // Freeze the target by re-registering its params as frozen copies.
        // Simpler: build it in a scratch store, then add frozen.
        // (Mlp has no frozen mode, so rebuild parameters as frozen.)
        let mut frozen_store = ParamStore::new();
        for id in store.ids() {
            frozen_store.add_frozen(store.name(id).to_string(), store.value(id).clone());
        }
        let mut store = frozen_store;
        let predictor = Mlp::new(
            &mut store,
            "rnd.pred",
            &[cfg.state_len, cfg.hidden, cfg.embed_dim],
            Activation::Relu,
            &mut rng,
        );
        Self { cfg, store, target, predictor, buffer: Vec::new() }
    }

    /// Prediction error ‖pred(s) − target(s)‖² for one encoded state.
    pub fn prediction_error(&self, state: &[f32]) -> f32 {
        assert_eq!(state.len(), self.cfg.state_len, "state length mismatch");
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(&[1, self.cfg.state_len], state.to_vec()));
        let t = self.target.forward(&mut g, &self.store, x);
        let p = self.predictor.forward(&mut g, &self.store, x);
        let dim_n = self.cfg.embed_dim as f32;
        g.value(p).data().iter().zip(g.value(t).data()).map(|(a, b)| (a - b) * (a - b)).sum::<f32>()
            / dim_n
    }
}

impl Curiosity for Rnd {
    fn intrinsic_reward(&mut self, t: &TransitionView<'_>) -> f32 {
        let err = self.prediction_error(t.next_state);
        self.buffer.push(t.next_state.to_vec());
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
        let mut states = Vec::with_capacity(b * self.cfg.state_len);
        for &i in &idx {
            states.extend_from_slice(&self.buffer[i]);
        }
        let mut g = Graph::new();
        let x = g.leaf(Tensor::from_vec(&[b, self.cfg.state_len], states));
        let t = self.target.forward(&mut g, &self.store, x);
        let p = self.predictor.forward(&mut g, &self.store, x);
        let d = g.sub(p, t);
        let sq = g.square(d);
        let loss = g.mean_all(sq);
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
        "rnd"
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use vc_nn::optim::{Adam, Optimizer};

    fn view(next_state: &[f32]) -> TransitionView<'_> {
        TransitionView { state: &[], next_state, positions: &[], next_positions: &[], moves: &[] }
    }

    #[test]
    fn target_params_are_frozen_predictor_trainable() {
        let r = Rnd::new(RndConfig::for_state(12));
        let frozen: Vec<bool> = r.params().ids().map(|id| r.params().is_frozen(id)).collect();
        assert!(frozen.iter().any(|&f| f), "no frozen target params");
        assert!(frozen.iter().any(|&f| !f), "no trainable predictor params");
    }

    #[test]
    fn novel_states_are_rewarded() {
        let mut r = Rnd::new(RndConfig::for_state(8));
        let s = vec![0.3f32; 8];
        let reward = r.intrinsic_reward(&view(&s));
        assert!(reward > 0.0);
    }

    #[test]
    fn training_reduces_error_on_seen_state() {
        let mut r = Rnd::new(RndConfig::for_state(8));
        let s = vec![0.5f32; 8];
        let before = r.prediction_error(&s);
        let mut rng = StdRng::seed_from_u64(0);
        let mut opt = Adam::new(1e-2);
        for _ in 0..200 {
            r.intrinsic_reward(&view(&s));
            r.params_mut().zero_grads();
            r.compute_grads(16, &mut rng);
            opt.step(r.params_mut());
            r.clear_buffer();
        }
        let after = r.prediction_error(&s);
        assert!(after < before / 5.0, "RND error {before} -> {after}");
    }

    #[test]
    fn unseen_state_stays_curious_after_training() {
        let mut r = Rnd::new(RndConfig::for_state(8));
        let seen = vec![0.5f32; 8];
        let unseen = vec![-0.7f32, 0.9, -0.1, 0.4, -0.9, 0.2, 0.8, -0.3];
        let mut rng = StdRng::seed_from_u64(1);
        let mut opt = Adam::new(1e-2);
        for _ in 0..200 {
            r.intrinsic_reward(&view(&seen));
            r.params_mut().zero_grads();
            r.compute_grads(16, &mut rng);
            opt.step(r.params_mut());
            r.clear_buffer();
        }
        assert!(r.prediction_error(&unseen) > 3.0 * r.prediction_error(&seen));
    }

    #[test]
    #[should_panic(expected = "state length mismatch")]
    fn wrong_state_length_panics() {
        let r = Rnd::new(RndConfig::for_state(8));
        r.prediction_error(&[0.0; 4]);
    }
}
