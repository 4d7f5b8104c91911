//! Action sampling from the actor–critic (Algorithm 1, lines 5–6).
//!
//! The server feeds the encoded state through the CNN, obtains per-worker
//! move and charge distributions, and samples a joint action. Invalid-action
//! masking is optional: the paper trains with a collision penalty rather
//! than a hard mask (Eqn 18's `τ`), but masking is exposed for ablations and
//! for safe deployment at test time.
//!
//! Logits become actions in one pass per worker row (DESIGN.md §16): the
//! sampler reads the graph's logits in place, writes the worker's masks
//! straight into the returned [`SampledAction`], substitutes `MASK_LOGIT`
//! on the stack, runs the per-row softmax that
//! [`vc_nn::ops::softmax::softmax_rows`] also runs, draws, and adds to
//! `logp`. It makes no logit clone and no probability tensor, and every
//! field and RNG draw is bitwise that of the clone → mask →
//! `softmax_rows` → draw chain kept as this module's test oracle.

use crate::net::{ActorCriticNet, Heads, NetOutputs, CHARGE_CHOICES, MOVES_PER_WORKER};
use rand::Rng;
use vc_env::prelude::*;
use vc_nn::ops::softmax::softmax_row;
use vc_nn::prelude::*;

/// Logit value used to disable a masked action.
const MASK_LOGIT: f32 = -1e9;

/// A sampled joint action plus the quantities stored in the rollout buffer.
#[derive(Clone, Debug)]
pub struct SampledAction {
    /// Ready-to-step environment actions.
    pub actions: Vec<WorkerAction>,
    /// Per-worker move indices (into [`Move::ALL`]).
    pub moves: Vec<usize>,
    /// Per-worker charge decisions (0 = don't, 1 = charge).
    pub charges: Vec<usize>,
    /// The move-validity mask applied at sampling time, flattened to
    /// `[W * NUM_MOVES]` (all-true if unmasked). PPO updates must re-apply
    /// it so new and old log-probabilities describe the same distribution.
    pub move_mask: Vec<bool>,
    /// The charge-validity mask applied at sampling time, `[W * 2]`.
    pub charge_mask: Vec<bool>,
    /// Joint log-probability under the behavior policy.
    pub logp: f32,
    /// Value estimate `V(s)`.
    pub value: f32,
}

/// Samples an index from a probability row.
///
/// When rounding leaves a sliver of the draw after the last lane, the draw
/// goes to the last lane with a positive probability, never to a masked
/// (zero-probability) one.
pub fn sample_categorical(probs: &[f32], rng: &mut impl Rng) -> usize {
    let total: f32 = probs.iter().sum();
    let mut u = rng.gen::<f32>() * total.max(1e-12);
    for (i, &p) in probs.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    probs.iter().rposition(|&p| p > 0.0).unwrap_or(probs.len() - 1)
}

/// Index of the maximum element.
pub fn argmax(values: &[f32]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// How actions are drawn from the policy distributions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleMode {
    /// Sample from the categorical distributions (training).
    Stochastic,
    /// Take the mode of each distribution (evaluation).
    Greedy,
}

/// Policy-evaluation options.
#[derive(Clone, Copy, Debug)]
pub struct PolicyOptions {
    /// How actions are drawn from the policy distributions.
    pub mode: SampleMode,
    /// Mask moves that would collide and charge requests out of station
    /// range before sampling.
    pub mask_invalid: bool,
}

impl Default for PolicyOptions {
    fn default() -> Self {
        Self { mode: SampleMode::Stochastic, mask_invalid: false }
    }
}

/// Encodes every environment into one `[E, C, H, W]` leaf (arena-backed, no
/// per-env temporaries thanks to `encode_into`) and runs a single forward
/// pass, returning the batched graph outputs.
///
/// All environments must share the network's worker count and grid. The
/// per-row arithmetic of every kernel is bitwise independent of the batch
/// dimension (pinned by the blocked-vs-naive GEMM equivalence tests), so
/// row `e` of the batched outputs is bit-identical to a batch-of-one
/// forward of `envs[e]`.
fn forward_batched<H: Heads>(
    net: &ActorCriticNet<H>,
    store: &ParamStore,
    envs: &[&CrowdsensingEnv],
    g: &mut Graph,
) -> NetOutputs {
    let cfg = envs[0].config();
    let shape = vc_env::state::state_shape(cfg);
    let item = shape[0] * shape[1] * shape[2];
    let mut stacked = vc_nn::arena::take_f32(envs.len() * item);
    for env in envs {
        assert_eq!(
            env.config().num_workers,
            net.config().num_workers,
            "network sized for a different worker count"
        );
        vc_env::state::encode_into(env, &mut stacked);
    }
    let s = g.leaf(Tensor::from_vec(&[envs.len(), shape[0], shape[1], shape[2]], stacked));
    net.forward(g, store, s)
}

/// Encodes every environment, runs **one** batched forward pass and samples
/// a joint action per environment — the sampling path of both head
/// variants ([`ActorCritic`](crate::net::ActorCritic) and
/// [`FleetActorCritic`](crate::net::FleetActorCritic)).
///
/// This is the rollout hot path: `E` lockstep episodes cost one network
/// evaluation per step instead of `E`, amortizing graph construction and
/// pushing the per-step GEMMs into shapes the blocked kernel likes. Both
/// variants emit `[E·W, A]` logits in env-major worker-minor order and the
/// RNG is consumed in that order — exactly the order `E` sequential
/// [`sample_action`] calls would use — and the underlying kernels are
/// batch-invariant, so results match the sequential path bit for bit.
pub fn sample_actions_batched<H: Heads>(
    net: &ActorCriticNet<H>,
    store: &ParamStore,
    envs: &[&CrowdsensingEnv],
    opts: PolicyOptions,
    rng: &mut impl Rng,
) -> Vec<SampledAction> {
    if envs.is_empty() {
        return Vec::new();
    }
    let mut g = Graph::new();
    let out = forward_batched(net, store, envs, &mut g);
    let values = g.value(out.value).data();
    let move_logits = g.value(out.move_logits).data(); // [E·W, 9]
    let charge_logits = g.value(out.charge_logits).data(); // [E·W, 2]
    let w_count = net.config().num_workers;

    envs.iter()
        .enumerate()
        .map(|(ei, env)| {
            let mut move_mask = vec![true; w_count * MOVES_PER_WORKER];
            let mut charge_mask = vec![true; w_count * CHARGE_CHOICES];
            let mut actions = Vec::with_capacity(w_count);
            let mut moves = Vec::with_capacity(w_count);
            let mut charges = Vec::with_capacity(w_count);
            let mut logp = 0.0f32;
            let rows = move_mask
                .chunks_exact_mut(MOVES_PER_WORKER)
                .zip(charge_mask.chunks_exact_mut(CHARGE_CHOICES))
                .zip(move_logits[ei * w_count * MOVES_PER_WORKER..].chunks_exact(MOVES_PER_WORKER))
                .zip(charge_logits[ei * w_count * CHARGE_CHOICES..].chunks_exact(CHARGE_CHOICES));
            for (wi, (((move_ok, charge_ok), ml), cl)) in rows.enumerate() {
                if opts.mask_invalid {
                    move_ok.copy_from_slice(&env.valid_moves(wi));
                    charge_ok[1] = env.can_charge(wi);
                }
                let mp = masked_softmax::<MOVES_PER_WORKER>(ml, move_ok);
                let cp = masked_softmax::<CHARGE_CHOICES>(cl, charge_ok);
                let (mv, ch) = match opts.mode {
                    SampleMode::Stochastic => {
                        (sample_categorical(&mp, rng), sample_categorical(&cp, rng))
                    }
                    SampleMode::Greedy => (argmax(&mp), argmax(&cp)),
                };
                logp += mp[mv].max(1e-12).ln() + cp[ch].max(1e-12).ln();
                moves.push(mv);
                charges.push(ch);
                actions.push(WorkerAction { movement: Move::from_index(mv), charge: ch == 1 });
            }
            SampledAction {
                actions,
                moves,
                charges,
                move_mask,
                charge_mask,
                logp,
                value: values[ei],
            }
        })
        .collect()
}

/// The softmax of one worker's `A`-lane logit row, with [`MASK_LOGIT`] in
/// every lane `ok` rules out.
#[inline]
fn masked_softmax<const A: usize>(logits: &[f32], ok: &[bool]) -> [f32; A] {
    let row: [f32; A] = std::array::from_fn(|k| if ok[k] { logits[k] } else { MASK_LOGIT });
    let mut probs = [0.0; A];
    softmax_row(&row, &mut probs);
    probs
}

/// Encodes the environment state, runs the network and samples a joint
/// action for every worker. Batch-of-one wrapper over
/// [`sample_actions_batched`].
pub fn sample_action<H: Heads>(
    net: &ActorCriticNet<H>,
    store: &ParamStore,
    env: &CrowdsensingEnv,
    opts: PolicyOptions,
    rng: &mut impl Rng,
) -> SampledAction {
    let mut batch = sample_actions_batched(net, store, &[env], opts, rng);
    batch.swap_remove(0)
}

/// The fleet-scale name of [`sample_action`], which serves both head
/// variants.
pub use sample_action as sample_action_fleet;

/// One batched forward returning only the state values `V(s)` for each
/// environment (the bootstrap `V(s_T)` of Eqn 11, vectorized).
pub fn state_values_batched<H: Heads>(
    net: &ActorCriticNet<H>,
    store: &ParamStore,
    envs: &[&CrowdsensingEnv],
) -> Vec<f32> {
    if envs.is_empty() {
        return Vec::new();
    }
    let mut g = Graph::new();
    let out = forward_batched(net, store, envs, &mut g);
    g.value(out.value).data().to_vec()
}

/// Runs the network once and returns the state value only (the bootstrap
/// `V(s_T)` of Eqn 11).
pub fn state_value<H: Heads>(
    net: &ActorCriticNet<H>,
    store: &ParamStore,
    env: &CrowdsensingEnv,
) -> f32 {
    state_values_batched(net, store, &[env])[0]
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    //! Every sampling behaviour has one body, generic over the head
    //! variant, and runs once per variant.

    use super::*;
    use crate::net::{FactoredHeads, JointHeads, NetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup<H: Heads>() -> (ParamStore, ActorCriticNet<H>, CrowdsensingEnv, StdRng) {
        let env = CrowdsensingEnv::new(EnvConfig::tiny());
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let net = ActorCriticNet::new(
            &mut store,
            NetConfig::for_scenario(env.config().grid, env.config().num_workers),
            &mut rng,
        );
        (store, net, env, rng)
    }

    /// Copies of `env` advanced by `steps[i]` slots of a fixed move, so a
    /// batch-index mixup would be caught.
    fn diversified(env: &CrowdsensingEnv, mv: usize, steps: &[usize]) -> Vec<CrowdsensingEnv> {
        let acts: Vec<WorkerAction> = (0..env.config().num_workers)
            .map(|_| WorkerAction { movement: Move::from_index(mv), charge: false })
            .collect();
        steps
            .iter()
            .map(|&n| {
                let mut e = CrowdsensingEnv::new(env.config().clone());
                for _ in 0..n {
                    let _ = e.step(&acts);
                }
                e
            })
            .collect()
    }

    fn check_well_formed<H: Heads>() {
        let (store, net, env, mut rng) = setup::<H>();
        let a = sample_action(&net, &store, &env, PolicyOptions::default(), &mut rng);
        assert_eq!(a.actions.len(), env.config().num_workers);
        assert!(a.logp <= 0.0, "log-prob must be non-positive");
        assert!(a.logp.is_finite());
        for (wi, act) in a.actions.iter().enumerate() {
            assert_eq!(act.movement.index(), a.moves[wi]);
            assert_eq!(act.charge, a.charges[wi] == 1);
        }
    }

    fn check_greedy_deterministic<H: Heads>() {
        let (store, net, env, mut rng) = setup::<H>();
        let opts = PolicyOptions { mode: SampleMode::Greedy, mask_invalid: false };
        let a = sample_action(&net, &store, &env, opts, &mut rng);
        let b = sample_action(&net, &store, &env, opts, &mut rng);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.charges, b.charges);
    }

    fn check_masking<H: Heads>() {
        let (store, net, mut env, mut rng) = setup::<H>();
        // Park the worker in a corner: several moves become illegal.
        env.teleport_worker(0, Point::new(0.0, 0.0));
        let opts = PolicyOptions { mode: SampleMode::Stochastic, mask_invalid: true };
        for _ in 0..50 {
            let a = sample_action(&net, &store, &env, opts, &mut rng);
            let mask = env.valid_moves(0);
            assert!(mask[a.moves[0]], "sampled a masked move {:?}", a.moves[0]);
            if !env.can_charge(0) {
                assert_eq!(a.charges[0], 0, "sampled charge while out of range");
            }
        }
    }

    fn check_state_value_matches_sampled_value<H: Heads>() {
        let (store, net, env, mut rng) = setup::<H>();
        let v = state_value(&net, &store, &env);
        let vs = state_values_batched(&net, &store, &[&env]);
        let a = sample_action(&net, &store, &env, PolicyOptions::default(), &mut rng);
        assert_eq!(v.to_bits(), a.value.to_bits());
        assert_eq!(vs[0].to_bits(), a.value.to_bits());
    }

    /// Kernel arithmetic is batch-invariant, so one `[3, C, H, W]` forward
    /// must reproduce three batch-of-one forwards bit for bit.
    fn check_batched_greedy_matches_sequential<H: Heads>() {
        let (store, net, env, mut rng) = setup::<H>();
        let envs = diversified(&env, 1, &[0, 1, 2]);
        let refs: Vec<&CrowdsensingEnv> = envs.iter().collect();
        let opts = PolicyOptions { mode: SampleMode::Greedy, mask_invalid: true };
        let batched = sample_actions_batched(&net, &store, &refs, opts, &mut rng);
        assert_eq!(batched.len(), 3);
        for (i, e) in envs.iter().enumerate() {
            let single = sample_action(&net, &store, e, opts, &mut rng);
            assert_eq!(batched[i].moves, single.moves, "env {i} moves diverged");
            assert_eq!(batched[i].charges, single.charges, "env {i} charges diverged");
            assert_eq!(batched[i].move_mask, single.move_mask);
            assert_eq!(batched[i].charge_mask, single.charge_mask);
            assert_eq!(
                batched[i].value.to_bits(),
                single.value.to_bits(),
                "env {i} value not bit-identical: batched {} vs single {}",
                batched[i].value,
                single.value
            );
            assert_eq!(batched[i].logp.to_bits(), single.logp.to_bits(), "env {i} logp diverged");
        }
    }

    /// The batched sampler must draw from the RNG in env-major,
    /// worker-minor order — the same stream E sequential calls consume.
    fn check_batched_rng_order<H: Heads>() {
        let (store, net, env, _) = setup::<H>();
        let envs = diversified(&env, 2, &[0, 1]);
        let opts = PolicyOptions::default();
        let mut rng_batched = StdRng::seed_from_u64(77);
        let batched =
            sample_actions_batched(&net, &store, &[&envs[0], &envs[1]], opts, &mut rng_batched);

        let mut rng_seq = StdRng::seed_from_u64(77);
        let first = sample_action(&net, &store, &envs[0], opts, &mut rng_seq);
        let second = sample_action(&net, &store, &envs[1], opts, &mut rng_seq);
        assert_eq!(batched[0].moves, first.moves);
        assert_eq!(batched[0].charges, first.charges);
        assert_eq!(batched[1].moves, second.moves);
        assert_eq!(batched[1].charges, second.charges);
    }

    fn check_state_values_batched_matches_singles<H: Heads>() {
        let (store, net, env, _) = setup::<H>();
        let envs = diversified(&env, 3, &[0, 1]);
        let vs = state_values_batched(&net, &store, &[&envs[0], &envs[1]]);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].to_bits(), state_value(&net, &store, &envs[0]).to_bits());
        assert_eq!(vs[1].to_bits(), state_value(&net, &store, &envs[1]).to_bits());
    }

    fn check_empty_batch<H: Heads>() {
        let (store, net, _, mut rng) = setup::<H>();
        assert!(sample_actions_batched(&net, &store, &[], PolicyOptions::default(), &mut rng)
            .is_empty());
        assert!(state_values_batched(&net, &store, &[]).is_empty());
    }

    /// The sampler before its one-pass epilogue, kept as the oracle: clone
    /// the logits, write `MASK_LOGIT` into them in place, run
    /// `softmax_rows` over all `[E·W, A]` rows, then draw row by row.
    fn oracle_sample<H: Heads>(
        net: &ActorCriticNet<H>,
        store: &ParamStore,
        envs: &[&CrowdsensingEnv],
        opts: PolicyOptions,
        rng: &mut impl Rng,
    ) -> Vec<SampledAction> {
        let mut g = Graph::new();
        let out = forward_batched(net, store, envs, &mut g);
        let values = g.value(out.value).data().to_vec();
        let mut move_logits = g.value(out.move_logits).clone();
        let mut charge_logits = g.value(out.charge_logits).clone();
        let w_count = net.config().num_workers;
        let mut masks = Vec::new();
        let move_rows = move_logits.data_mut().chunks_exact_mut(w_count * MOVES_PER_WORKER);
        let charge_rows = charge_logits.data_mut().chunks_exact_mut(w_count * CHARGE_CHOICES);
        for ((env, move_rows), charge_rows) in envs.iter().zip(move_rows).zip(charge_rows) {
            let mut move_mask = vec![true; w_count * MOVES_PER_WORKER];
            let mut can_charge = vec![true; w_count];
            if opts.mask_invalid {
                env.fleet().action_masks(&mut move_mask, &mut can_charge);
                for (logit, &ok) in move_rows.iter_mut().zip(&move_mask) {
                    if !ok {
                        *logit = MASK_LOGIT;
                    }
                }
                for (row, &ok) in charge_rows.chunks_exact_mut(CHARGE_CHOICES).zip(&can_charge) {
                    if !ok {
                        row[1] = MASK_LOGIT;
                    }
                }
            }
            let charge_mask = can_charge.iter().flat_map(|&ok| [true, ok]).collect();
            masks.push((move_mask, charge_mask));
        }
        let move_probs = vc_nn::ops::softmax::softmax_rows(&move_logits);
        let charge_probs = vc_nn::ops::softmax::softmax_rows(&charge_logits);
        let mut batch = Vec::new();
        for (ei, (move_mask, charge_mask)) in masks.into_iter().enumerate() {
            let (mut moves, mut charges, mut actions) = (Vec::new(), Vec::new(), Vec::new());
            let mut logp = 0.0f32;
            for wi in 0..w_count {
                let row = ei * w_count + wi;
                let mp = &move_probs.data()[row * MOVES_PER_WORKER..(row + 1) * MOVES_PER_WORKER];
                let cp = &charge_probs.data()[row * CHARGE_CHOICES..(row + 1) * CHARGE_CHOICES];
                let (mv, ch) = match opts.mode {
                    SampleMode::Stochastic => {
                        (sample_categorical(mp, rng), sample_categorical(cp, rng))
                    }
                    SampleMode::Greedy => (argmax(mp), argmax(cp)),
                };
                logp += mp[mv].max(1e-12).ln() + cp[ch].max(1e-12).ln();
                moves.push(mv);
                charges.push(ch);
                actions.push(WorkerAction { movement: Move::from_index(mv), charge: ch == 1 });
            }
            let value = values[ei];
            batch.push(SampledAction {
                actions,
                moves,
                charges,
                move_mask,
                charge_mask,
                logp,
                value,
            });
        }
        batch
    }

    /// The one-pass sampler equals the oracle in every field and bit and
    /// leaves the RNG where the oracle does, over three batched envs of the
    /// paper map (obstacles included) whose workers stand in a corner, on
    /// a station, against an obstacle, with an empty battery or where they
    /// were spawned, masked and unmasked, in both modes.
    fn check_matches_oracle<H: Heads>() {
        let mut cfg = EnvConfig::paper_default();
        cfg.num_workers = 6;
        let mut init = StdRng::seed_from_u64(8);
        let mut store = ParamStore::new();
        let net = ActorCriticNet::<H>::new(
            &mut store,
            NetConfig::for_scenario(cfg.grid, cfg.num_workers),
            &mut init,
        );
        let mut envs = diversified(&CrowdsensingEnv::new(cfg.clone()), 3, &[0, 2, 5]);
        let station = envs[0].stations()[0].pos;
        let wall = cfg.obstacles[0];
        for env in &mut envs {
            env.teleport_worker(0, Point::new(0.0, 0.0));
            env.set_worker_energy(1, 0.0);
            env.teleport_worker(2, station);
            env.teleport_worker(3, Point::new(wall.x0, wall.y0 + 0.5 * wall.height()));
            env.teleport_worker(4, Point::new(cfg.size_x, cfg.size_y));
        }
        let refs: Vec<&CrowdsensingEnv> = envs.iter().collect();
        for mode in [SampleMode::Stochastic, SampleMode::Greedy] {
            for mask_invalid in [false, true] {
                let opts = PolicyOptions { mode, mask_invalid };
                let mut rng = StdRng::seed_from_u64(91);
                let mut oracle_rng = StdRng::seed_from_u64(91);
                for round in 0..4 {
                    let got = sample_actions_batched(&net, &store, &refs, opts, &mut rng);
                    let want = oracle_sample(&net, &store, &refs, opts, &mut oracle_rng);
                    assert_eq!(got.len(), want.len());
                    for (ei, (a, b)) in got.iter().zip(&want).enumerate() {
                        let at = format!("{mode:?} masked={mask_invalid} round {round} env {ei}");
                        assert_eq!(a.moves, b.moves, "{at}: moves");
                        assert_eq!(a.charges, b.charges, "{at}: charges");
                        assert_eq!(a.actions, b.actions, "{at}: actions");
                        assert_eq!(a.move_mask, b.move_mask, "{at}: move mask");
                        assert_eq!(a.charge_mask, b.charge_mask, "{at}: charge mask");
                        assert_eq!(a.logp.to_bits(), b.logp.to_bits(), "{at}: logp");
                        assert_eq!(a.value.to_bits(), b.value.to_bits(), "{at}: value");
                    }
                    if mask_invalid {
                        let m = &got[0].move_mask;
                        assert!(m[..NUM_MOVES].iter().filter(|&&ok| !ok).count() >= 5, "corner");
                        assert!(m[NUM_MOVES + 1..2 * NUM_MOVES].iter().all(|&ok| !ok), "empty");
                        assert!(got[0].charge_mask[2 * 2 + 1], "worker 2 stands on a station");
                    }
                }
                assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "RNG streams diverged");
            }
        }
    }

    #[test]
    fn sampler_matches_the_clone_mask_softmax_oracle() {
        check_matches_oracle::<JointHeads>();
        check_matches_oracle::<FactoredHeads>();
    }

    #[test]
    fn sample_categorical_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(1);
        let probs = [0.0, 1.0, 0.0];
        for _ in 0..20 {
            assert_eq!(sample_categorical(&probs, &mut rng), 1);
        }
        // Roughly proportional draws from a skewed distribution.
        let probs = [0.8, 0.2];
        let hits = (0..2000).filter(|_| sample_categorical(&probs, &mut rng) == 0).count();
        assert!((1400..1800).contains(&hits), "hits {hits}");
    }

    /// An RNG whose every draw is `u32::MAX`: `gen::<f32>()` returns the
    /// largest `f32` below 1.
    struct TopDraw;

    impl rand::RngCore for TopDraw {
        fn next_u32(&mut self) -> u32 {
            u32::MAX
        }

        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn sample_categorical_never_returns_a_masked_last_lane() {
        // A normalized eight-lane row whose f32 scan leaves a sliver of the
        // top draw unspent; the masked ninth lane must not absorb it.
        let bits = [
            0x3de9_f4a3u32,
            0x3e28_7ace,
            0x3d1a_2f27,
            0x3e15_5919,
            0x3e23_2765,
            0x3e3a_617e,
            0x3d76_c360,
            0x3e0b_6c41,
            0,
        ];
        let probs = bits.map(f32::from_bits);
        let total: f32 = probs.iter().sum();
        let u = TopDraw.gen::<f32>() * total;
        let left = probs.iter().fold(u, |u, p| u - p);
        assert!(left > 0.0, "the row must exercise the fall-through (left {left})");
        assert_eq!(sample_categorical(&probs, &mut TopDraw), 7);
        // Without the masked lane the same fall-through keeps the last lane.
        assert_eq!(sample_categorical(&probs[..8], &mut TopDraw), 7);
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[0.1, 0.9, 0.3]), 1);
        assert_eq!(argmax(&[1.0]), 0);
    }

    #[test]
    fn sampled_actions_are_well_formed() {
        check_well_formed::<JointHeads>();
    }

    #[test]
    fn fleet_sampled_actions_are_well_formed() {
        check_well_formed::<FactoredHeads>();
    }

    #[test]
    fn greedy_mode_is_deterministic() {
        check_greedy_deterministic::<JointHeads>();
        check_greedy_deterministic::<FactoredHeads>();
    }

    #[test]
    fn masking_prevents_invalid_choices() {
        check_masking::<JointHeads>();
    }

    #[test]
    fn fleet_masking_prevents_invalid_choices() {
        check_masking::<FactoredHeads>();
    }

    #[test]
    fn state_value_matches_sampled_value() {
        check_state_value_matches_sampled_value::<JointHeads>();
    }

    #[test]
    fn fleet_state_values_match_sampled_values() {
        check_state_value_matches_sampled_value::<FactoredHeads>();
        check_empty_batch::<FactoredHeads>();
    }

    #[test]
    fn batched_greedy_matches_sequential_bitwise() {
        check_batched_greedy_matches_sequential::<JointHeads>();
    }

    #[test]
    fn fleet_batched_greedy_matches_sequential_bitwise() {
        check_batched_greedy_matches_sequential::<FactoredHeads>();
    }

    #[test]
    fn batched_stochastic_consumes_rng_in_sequential_order() {
        check_batched_rng_order::<JointHeads>();
    }

    #[test]
    fn fleet_batched_stochastic_consumes_rng_in_sequential_order() {
        check_batched_rng_order::<FactoredHeads>();
    }

    #[test]
    fn state_values_batched_matches_singles() {
        check_state_values_batched_matches_singles::<JointHeads>();
        check_state_values_batched_matches_singles::<FactoredHeads>();
    }

    #[test]
    fn empty_batch_is_empty() {
        check_empty_batch::<JointHeads>();
    }
}
