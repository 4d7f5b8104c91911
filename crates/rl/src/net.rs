//! The DRL-CEWS actor–critic network (Section V-B).
//!
//! A small CNN — three conv layers, each followed by layer normalization,
//! plus one fully connected layer — encodes the 3-channel spatial state into
//! a feature vector `φ(s)`. On top sit three heads:
//!
//! * a **route-planning head** producing, per worker, a 9-way categorical
//!   over moves (`v_t`);
//! * a **charging head** producing, per worker, a binary charge decision
//!   (`u_t`);
//! * a **value head** producing the scalar state value `V(φ(s))`.
//!
//! The per-worker heads are emitted as `[B, W·A]` and reshaped to `[B·W, A]`,
//! which is a free row-major view.

use rand::Rng;
use serde::{Deserialize, Serialize};
use vc_nn::prelude::*;

/// Static shape of the actor–critic network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Observation grid resolution per axis.
    pub grid: usize,
    /// Observation channels (3 in the paper).
    pub in_channels: usize,
    /// Number of workers `W` (one move + charge head slice each).
    pub num_workers: usize,
    /// Width of the FC feature layer `φ(s)`.
    pub feature_dim: usize,
}

impl NetConfig {
    /// The paper-shaped network for a given scenario.
    pub fn for_scenario(grid: usize, num_workers: usize) -> Self {
        Self { grid, in_channels: 3, num_workers, feature_dim: 128 }
    }
}

/// Number of route-planning choices per worker (re-exported for heads).
pub const MOVES_PER_WORKER: usize = vc_env::action::NUM_MOVES;
/// Charging choices per worker (charge / don't).
pub const CHARGE_CHOICES: usize = 2;

/// Outputs of one forward pass.
pub struct NetOutputs {
    /// Per-worker move logits, `[B·W, 9]`.
    pub move_logits: NodeId,
    /// Per-worker charge logits, `[B·W, 2]`.
    pub charge_logits: NodeId,
    /// State values, `[B, 1]`.
    pub value: NodeId,
    /// Encoded features `φ(s)`, `[B, feature_dim]`.
    pub features: NodeId,
}

/// The actor–critic module. Parameters live in an external [`ParamStore`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ActorCritic {
    cfg: NetConfig,
    conv1: Conv2dLayer,
    ln1: LayerNormLayer,
    conv2: Conv2dLayer,
    ln2: LayerNormLayer,
    conv3: Conv2dLayer,
    ln3: LayerNormLayer,
    fc: Linear,
    move_head: Linear,
    charge_head: Linear,
    value_head: Linear,
    /// Spatial size after each conv stage, cached for reshapes.
    dims: [usize; 3],
}

impl ActorCritic {
    /// Builds the network, registering parameters in `store`.
    pub fn new(store: &mut ParamStore, cfg: NetConfig, rng: &mut impl Rng) -> Self {
        assert!(cfg.grid >= 4, "grid too small for the 3-conv encoder");
        // `grid >= 4` guarantees every stage keeps the kernel inside its
        // padded input, so out_size cannot return None here.
        let stage = |c: &ConvCfg, input: usize, name: &str| {
            c.out_size(input)
                .unwrap_or_else(|| panic!("{name} shrinks grid below kernel (input {input})"))
        };
        let c1 = ConvCfg {
            in_channels: cfg.in_channels,
            out_channels: 8,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let d1 = stage(&c1, cfg.grid, "conv1");
        let c2 = ConvCfg { in_channels: 8, out_channels: 16, kernel: 3, stride: 2, padding: 1 };
        let d2 = stage(&c2, d1, "conv2");
        let c3 = ConvCfg { in_channels: 16, out_channels: 16, kernel: 3, stride: 1, padding: 1 };
        let d3 = stage(&c3, d2, "conv3");

        let conv1 = Conv2dLayer::new(store, "ac.conv1", c1, rng);
        let ln1 = LayerNormLayer::new(store, "ac.ln1", 8 * d1 * d1);
        let conv2 = Conv2dLayer::new(store, "ac.conv2", c2, rng);
        let ln2 = LayerNormLayer::new(store, "ac.ln2", 16 * d2 * d2);
        let conv3 = Conv2dLayer::new(store, "ac.conv3", c3, rng);
        let ln3 = LayerNormLayer::new(store, "ac.ln3", 16 * d3 * d3);
        let fc = Linear::new(store, "ac.fc", 16 * d3 * d3, cfg.feature_dim, rng);
        let move_head = Linear::new_head(
            store,
            "ac.move",
            cfg.feature_dim,
            cfg.num_workers * MOVES_PER_WORKER,
            rng,
        );
        let charge_head = Linear::new_head(
            store,
            "ac.charge",
            cfg.feature_dim,
            cfg.num_workers * CHARGE_CHOICES,
            rng,
        );
        let value_head = Linear::new_head(store, "ac.value", cfg.feature_dim, 1, rng);

        Self {
            cfg,
            conv1,
            ln1,
            conv2,
            ln2,
            conv3,
            ln3,
            fc,
            move_head,
            charge_head,
            value_head,
            dims: [d1, d2, d3],
        }
    }

    /// The network's static configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Runs the network on a batch of encoded states.
    ///
    /// `states` must be a leaf/node of shape `[B, C, grid, grid]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, states: NodeId) -> NetOutputs {
        let b = g.shape(states)[0];
        let [d1, d2, d3] = self.dims;

        let x = self.conv1.forward(g, store, states);
        let x = g.reshape(x, &[b, 8 * d1 * d1]);
        let x = self.ln1.forward(g, store, x);
        let x = g.relu(x);
        let x = g.reshape(x, &[b, 8, d1, d1]);

        let x = self.conv2.forward(g, store, x);
        let x = g.reshape(x, &[b, 16 * d2 * d2]);
        let x = self.ln2.forward(g, store, x);
        let x = g.relu(x);
        let x = g.reshape(x, &[b, 16, d2, d2]);

        let x = self.conv3.forward(g, store, x);
        let x = g.reshape(x, &[b, 16 * d3 * d3]);
        let x = self.ln3.forward(g, store, x);
        let x = g.relu(x);

        let features = self.fc.forward(g, store, x);
        let features = g.relu(features);

        let mv = self.move_head.forward(g, store, features);
        let move_logits = g.reshape(mv, &[b * self.cfg.num_workers, MOVES_PER_WORKER]);
        let ch = self.charge_head.forward(g, store, features);
        let charge_logits = g.reshape(ch, &[b * self.cfg.num_workers, CHARGE_CHOICES]);
        let value = self.value_head.forward(g, store, features);

        NetOutputs { move_logits, charge_logits, value, features }
    }
}

/// The fleet-scale actor–critic: the same conv trunk as [`ActorCritic`],
/// but with action heads **factored over workers**.
///
/// [`ActorCritic`] enumerates the joint action space in its head widths
/// (`F → W·9` and `F → W·2` matrices), so parameters and head FLOPs grow
/// linearly with the fleet and a 1000-worker head is a 128×9000 GEMM per
/// batch row. Here each worker reuses **shared** `F → 9` / `F → 2` heads
/// applied to `relu(features[e] + worker_embed[w])`: one
/// [`Graph::broadcast_add_rows`] pass builds the `[B·W, F]` joined rows,
/// and both heads run as a single `[B·W, F] × [F, 11]` GEMM (weights
/// concatenated column-wise, logits split back with
/// [`Graph::slice_cols`]) whose weight cost is independent of `W`. Worker
/// identity enters through a learned `[W, F]` embedding table instead of
/// dedicated head columns.
///
/// Outputs have the exact layout of [`ActorCritic`] (`[B·W, 9]` /
/// `[B·W, 2]` in env-major worker-minor row order), so the sampling,
/// buffer and PPO machinery work unchanged. Parameters register under the
/// `fleet.` prefix — disjoint from `ac.`, so both nets can share a
/// checkpointed [`ParamStore`] without name collisions.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FleetActorCritic {
    cfg: NetConfig,
    conv1: Conv2dLayer,
    ln1: LayerNormLayer,
    conv2: Conv2dLayer,
    ln2: LayerNormLayer,
    conv3: Conv2dLayer,
    ln3: LayerNormLayer,
    fc: Linear,
    /// Learned per-worker identity embedding, `[W, feature_dim]`.
    worker_embed: ParamId,
    move_head: Linear,
    charge_head: Linear,
    value_head: Linear,
    /// Spatial size after each conv stage, cached for reshapes.
    dims: [usize; 3],
}

impl FleetActorCritic {
    /// Builds the network, registering parameters in `store` under the
    /// `fleet.` name prefix.
    pub fn new(store: &mut ParamStore, cfg: NetConfig, rng: &mut impl Rng) -> Self {
        assert!(cfg.grid >= 4, "grid too small for the 3-conv encoder");
        let stage = |c: &ConvCfg, input: usize, name: &str| {
            c.out_size(input)
                .unwrap_or_else(|| panic!("{name} shrinks grid below kernel (input {input})"))
        };
        let c1 = ConvCfg {
            in_channels: cfg.in_channels,
            out_channels: 8,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let d1 = stage(&c1, cfg.grid, "conv1");
        let c2 = ConvCfg { in_channels: 8, out_channels: 16, kernel: 3, stride: 2, padding: 1 };
        let d2 = stage(&c2, d1, "conv2");
        let c3 = ConvCfg { in_channels: 16, out_channels: 16, kernel: 3, stride: 1, padding: 1 };
        let d3 = stage(&c3, d2, "conv3");

        let conv1 = Conv2dLayer::new(store, "fleet.conv1", c1, rng);
        let ln1 = LayerNormLayer::new(store, "fleet.ln1", 8 * d1 * d1);
        let conv2 = Conv2dLayer::new(store, "fleet.conv2", c2, rng);
        let ln2 = LayerNormLayer::new(store, "fleet.ln2", 16 * d2 * d2);
        let conv3 = Conv2dLayer::new(store, "fleet.conv3", c3, rng);
        let ln3 = LayerNormLayer::new(store, "fleet.ln3", 16 * d3 * d3);
        let fc = Linear::new(store, "fleet.fc", 16 * d3 * d3, cfg.feature_dim, rng);
        // Small-scale init (like the policy heads): worker identities start
        // nearly interchangeable, so the initial policy stays near-uniform.
        let embed = vc_nn::init::policy_head(&[cfg.num_workers, cfg.feature_dim], rng);
        let worker_embed = store.add("fleet.worker_embed", embed);
        let move_head =
            Linear::new_head(store, "fleet.move", cfg.feature_dim, MOVES_PER_WORKER, rng);
        let charge_head =
            Linear::new_head(store, "fleet.charge", cfg.feature_dim, CHARGE_CHOICES, rng);
        let value_head = Linear::new_head(store, "fleet.value", cfg.feature_dim, 1, rng);

        Self {
            cfg,
            conv1,
            ln1,
            conv2,
            ln2,
            conv3,
            ln3,
            fc,
            worker_embed,
            move_head,
            charge_head,
            value_head,
            dims: [d1, d2, d3],
        }
    }

    /// The network's static configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Runs the network on a batch of encoded states.
    ///
    /// `states` must be a leaf/node of shape `[B, C, grid, grid]`; outputs
    /// use the same `[B·W, A]` row layout as [`ActorCritic::forward`].
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, states: NodeId) -> NetOutputs {
        let b = g.shape(states)[0];
        let [d1, d2, d3] = self.dims;

        let x = self.conv1.forward(g, store, states);
        let x = g.reshape(x, &[b, 8 * d1 * d1]);
        let x = self.ln1.forward(g, store, x);
        let x = g.relu(x);
        let x = g.reshape(x, &[b, 8, d1, d1]);

        let x = self.conv2.forward(g, store, x);
        let x = g.reshape(x, &[b, 16 * d2 * d2]);
        let x = self.ln2.forward(g, store, x);
        let x = g.relu(x);
        let x = g.reshape(x, &[b, 16, d2, d2]);

        let x = self.conv3.forward(g, store, x);
        let x = g.reshape(x, &[b, 16 * d3 * d3]);
        let x = self.ln3.forward(g, store, x);
        let x = g.relu(x);

        let features = self.fc.forward(g, store, x);
        let features = g.relu(features);

        // Factor over workers: join each env's features with every
        // worker's embedding — `[B·W, F]` in env-major worker-minor order,
        // matching the joint net's row layout.
        let table = g.param(store, self.worker_embed);
        let joined = g.broadcast_add_rows(features, table);
        let joined = g.relu(joined);

        // Both factored heads as one `[B·W, F] × [F, 9 + 2]` GEMM, split
        // after the bias add: the joined rows are packed once, and each
        // logit is the same ascending-F chain as in a separate head GEMM.
        let (move_w, move_b) = self.move_head.params();
        let (charge_w, charge_b) = self.charge_head.params();
        let move_w = g.param(store, move_w);
        let charge_w = g.param(store, charge_w);
        let heads_w = g.concat_cols(move_w, charge_w);
        let move_b = g.param(store, move_b);
        let move_b = g.reshape(move_b, &[1, MOVES_PER_WORKER]);
        let charge_b = g.param(store, charge_b);
        let charge_b = g.reshape(charge_b, &[1, CHARGE_CHOICES]);
        let heads_b = g.concat_cols(move_b, charge_b);
        let heads_b = g.reshape(heads_b, &[MOVES_PER_WORKER + CHARGE_CHOICES]);
        let heads = g.matmul(joined, heads_w);
        let heads = g.add_row_broadcast(heads, heads_b);
        let move_logits = g.slice_cols(heads, 0, MOVES_PER_WORKER);
        let charge_logits = g.slice_cols(heads, MOVES_PER_WORKER, CHARGE_CHOICES);
        let value = self.value_head.forward(g, store, features);

        NetOutputs { move_logits, charge_logits, value, features }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build(grid: usize, workers: usize) -> (ParamStore, ActorCritic) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let net = ActorCritic::new(&mut store, NetConfig::for_scenario(grid, workers), &mut rng);
        (store, net)
    }

    #[test]
    fn forward_shapes() {
        let (store, net) = build(16, 2);
        let mut g = Graph::new();
        let s = g.leaf(Tensor::zeros(&[3, 3, 16, 16]));
        let out = net.forward(&mut g, &store, s);
        assert_eq!(g.shape(out.move_logits), &[6, 9]);
        assert_eq!(g.shape(out.charge_logits), &[6, 2]);
        assert_eq!(g.shape(out.value), &[3, 1]);
        assert_eq!(g.shape(out.features), &[3, 128]);
    }

    #[test]
    fn works_on_small_grid_and_many_workers() {
        let (store, net) = build(8, 5);
        let mut g = Graph::new();
        let s = g.leaf(Tensor::zeros(&[1, 3, 8, 8]));
        let out = net.forward(&mut g, &store, s);
        assert_eq!(g.shape(out.move_logits), &[5, 9]);
        assert_eq!(g.shape(out.charge_logits), &[5, 2]);
    }

    #[test]
    fn initial_policy_is_near_uniform() {
        // Head weights are small-scale, so fresh move distributions should be
        // close to uniform — important for exploration at episode 0.
        let (store, net) = build(16, 1);
        let mut g = Graph::new();
        let mut state = Tensor::zeros(&[1, 3, 16, 16]);
        state.data_mut()[40] = 0.7; // arbitrary non-trivial input
        let s = g.leaf(state);
        let out = net.forward(&mut g, &store, s);
        let probs = {
            let sm = g.softmax(out.move_logits);
            g.value(sm).clone()
        };
        for &p in probs.data() {
            assert!((p - 1.0 / 9.0).abs() < 0.05, "initial prob {p} far from uniform");
        }
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let (mut store, net) = build(8, 2);
        let mut g = Graph::new();
        let s = g.leaf(Tensor::ones(&[2, 3, 8, 8]));
        let out = net.forward(&mut g, &store, s);
        // A loss touching all three heads.
        let lm = g.sum_all(out.move_logits);
        let lc = g.sum_all(out.charge_logits);
        let lv = g.sum_all(out.value);
        let t = g.add(lm, lc);
        let loss0 = g.add(t, lv);
        let sq = g.square(loss0);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut store);
        let mut zero_grads = Vec::new();
        for id in store.ids() {
            if store.grad(id).l2_norm() == 0.0 {
                zero_grads.push(store.name(id).to_string());
            }
        }
        assert!(zero_grads.is_empty(), "no gradient reached: {zero_grads:?}");
    }

    fn build_fleet(grid: usize, workers: usize) -> (ParamStore, FleetActorCritic) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let net =
            FleetActorCritic::new(&mut store, NetConfig::for_scenario(grid, workers), &mut rng);
        (store, net)
    }

    #[test]
    fn fleet_forward_shapes_match_joint_net_layout() {
        let (store, net) = build_fleet(16, 7);
        let mut g = Graph::new();
        let s = g.leaf(Tensor::zeros(&[3, 3, 16, 16]));
        let out = net.forward(&mut g, &store, s);
        assert_eq!(g.shape(out.move_logits), &[21, 9]);
        assert_eq!(g.shape(out.charge_logits), &[21, 2]);
        assert_eq!(g.shape(out.value), &[3, 1]);
        assert_eq!(g.shape(out.features), &[3, 128]);
    }

    #[test]
    fn fleet_head_parameters_do_not_grow_with_fleet_size() {
        // The whole point of factoring: the joint net's move head is
        // [F, W·9] while the fleet net's stays [F, 9]; only the [W, F]
        // embedding scales, and linearly rather than through every head.
        let count = |w: usize| {
            let (store, _) = build_fleet(16, w);
            store.num_scalars()
        };
        let (small, large) = (count(10), count(1000));
        let embed_growth = (1000 - 10) * 128;
        assert_eq!(
            large - small,
            embed_growth,
            "fleet-size scaling must be embedding-only ({embed_growth} params)"
        );
    }

    #[test]
    fn fleet_initial_policy_is_near_uniform() {
        let (store, net) = build_fleet(16, 4);
        let mut g = Graph::new();
        let mut state = Tensor::zeros(&[1, 3, 16, 16]);
        state.data_mut()[40] = 0.7;
        let s = g.leaf(state);
        let out = net.forward(&mut g, &store, s);
        let probs = {
            let sm = g.softmax(out.move_logits);
            g.value(sm).clone()
        };
        for &p in probs.data() {
            assert!((p - 1.0 / 9.0).abs() < 0.05, "initial prob {p} far from uniform");
        }
    }

    #[test]
    fn fleet_gradients_reach_every_parameter() {
        let (mut store, net) = build_fleet(8, 3);
        let mut g = Graph::new();
        let s = g.leaf(Tensor::ones(&[2, 3, 8, 8]));
        let out = net.forward(&mut g, &store, s);
        let lm = g.sum_all(out.move_logits);
        let lc = g.sum_all(out.charge_logits);
        let lv = g.sum_all(out.value);
        let t = g.add(lm, lc);
        let loss0 = g.add(t, lv);
        let sq = g.square(loss0);
        let loss = g.sum_all(sq);
        g.backward(loss, &mut store);
        let mut zero_grads = Vec::new();
        for id in store.ids() {
            if store.grad(id).l2_norm() == 0.0 {
                zero_grads.push(store.name(id).to_string());
            }
        }
        assert!(zero_grads.is_empty(), "no gradient reached: {zero_grads:?}");
    }

    #[test]
    fn fleet_and_joint_nets_share_a_store_without_collisions() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let cfg = NetConfig::for_scenario(16, 2);
        let _joint = ActorCritic::new(&mut store, cfg, &mut rng);
        let _fleet = FleetActorCritic::new(&mut store, cfg, &mut rng);
        let names: Vec<String> = store.ids().map(|id| store.name(id).to_string()).collect();
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "param name collision: {names:?}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (store_a, net_a) = build(8, 1);
        let (store_b, net_b) = build(8, 1);
        let mut ga = Graph::new();
        let sa = ga.leaf(Tensor::ones(&[1, 3, 8, 8]));
        let oa = net_a.forward(&mut ga, &store_a, sa);
        let mut gb = Graph::new();
        let sb = gb.leaf(Tensor::ones(&[1, 3, 8, 8]));
        let ob = net_b.forward(&mut gb, &store_b, sb);
        assert_eq!(ga.value(oa.value), gb.value(ob.value));
    }
}
