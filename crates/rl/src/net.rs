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
//! [`ActorCriticNet`] builds the trunk and the value head once; the move
//! and charge heads come from a [`Heads`] variant. [`JointHeads`] is the
//! paper's layout ([`ActorCritic`]); [`FactoredHeads`] shares one head
//! across workers ([`FleetActorCritic`]). Both emit per-worker logits as
//! `[B·W, A]` in env-major worker-minor row order, so sampling, the rollout
//! buffer and PPO never see which variant produced them.

use rand::Rng;
use vc_nn::prelude::*;

/// Static shape of the actor–critic network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// The move and charge heads of one [`ActorCriticNet`] variant.
pub trait Heads: Sized {
    /// Parameter-name prefix of every parameter of the net (`ac`, `fleet`).
    const PREFIX: &'static str;

    /// Registers the head parameters in `store`. Called between the trunk
    /// and the value head, so it fixes both the registration order and the
    /// init RNG draw order.
    fn new(store: &mut ParamStore, cfg: &NetConfig, rng: &mut impl Rng) -> Self;

    /// Per-worker `(move, charge)` logits, `[B·W, 9]` and `[B·W, 2]`, from
    /// the trunk features `[B, feature_dim]`.
    fn forward(&self, g: &mut Graph, store: &ParamStore, features: NodeId) -> (NodeId, NodeId);
}

/// The paper's heads: one `F → W·9` move and one `F → W·2` charge matrix
/// enumerating every worker's slice, reshaped to `[B·W, A]` (a free
/// row-major view). Parameters and head FLOPs grow linearly with `W`.
#[derive(Clone, Debug)]
pub struct JointHeads {
    move_head: Linear,
    charge_head: Linear,
    num_workers: usize,
}

impl Heads for JointHeads {
    const PREFIX: &'static str = "ac";

    fn new(store: &mut ParamStore, cfg: &NetConfig, rng: &mut impl Rng) -> Self {
        let f = cfg.feature_dim;
        let w = cfg.num_workers;
        Self {
            move_head: Linear::new_head(store, "ac.move", f, w * MOVES_PER_WORKER, rng),
            charge_head: Linear::new_head(store, "ac.charge", f, w * CHARGE_CHOICES, rng),
            num_workers: w,
        }
    }

    fn forward(&self, g: &mut Graph, store: &ParamStore, features: NodeId) -> (NodeId, NodeId) {
        let rows = g.shape(features)[0] * self.num_workers;
        let mv = self.move_head.forward(g, store, features);
        let move_logits = g.reshape(mv, &[rows, MOVES_PER_WORKER]);
        let ch = self.charge_head.forward(g, store, features);
        let charge_logits = g.reshape(ch, &[rows, CHARGE_CHOICES]);
        (move_logits, charge_logits)
    }
}

/// Heads **factored over workers**: every worker reuses shared `F → 9` /
/// `F → 2` heads applied to `relu(features[e] + worker_embed[w])`.
///
/// Both heads run as one [`Graph::relu_join_matmul`]: the `[B·W, F]`
/// joined rows are written straight into the packed panels of a single
/// `[B·W, F] × [F, 11]` GEMM and never stored (backward recomputes them).
/// The weights are concatenated column-wise and the logits split back with
/// [`Graph::slice_cols`], so the weight cost is independent of `W`. Worker
/// identity enters through a learned `[W, F]` embedding table instead of
/// dedicated head columns, so only the embedding grows with the fleet.
#[derive(Clone, Debug)]
pub struct FactoredHeads {
    /// Learned per-worker identity embedding, `[W, feature_dim]`.
    worker_embed: ParamId,
    move_head: Linear,
    charge_head: Linear,
}

impl Heads for FactoredHeads {
    const PREFIX: &'static str = "fleet";

    fn new(store: &mut ParamStore, cfg: &NetConfig, rng: &mut impl Rng) -> Self {
        let f = cfg.feature_dim;
        // Small-scale init (like the policy heads): worker identities start
        // nearly interchangeable, so the initial policy stays near-uniform.
        let embed = vc_nn::init::policy_head(&[cfg.num_workers, f], rng);
        Self {
            worker_embed: store.add("fleet.worker_embed", embed),
            move_head: Linear::new_head(store, "fleet.move", f, MOVES_PER_WORKER, rng),
            charge_head: Linear::new_head(store, "fleet.charge", f, CHARGE_CHOICES, rng),
        }
    }

    fn forward(&self, g: &mut Graph, store: &ParamStore, features: NodeId) -> (NodeId, NodeId) {
        // Both heads as one `[B·W, F] × [F, 9 + 2]` GEMM over the joined
        // rows `relu(features[e] + worker_embed[w])` (env-major,
        // worker-minor), split after the bias add: each logit is the same
        // ascending-F chain as in a separate head GEMM.
        let table = g.param(store, self.worker_embed);
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
        let heads = g.relu_join_matmul(features, table, heads_w);
        let heads = g.add_row_broadcast(heads, heads_b);
        let move_logits = g.slice_cols(heads, 0, MOVES_PER_WORKER);
        let charge_logits = g.slice_cols(heads, MOVES_PER_WORKER, CHARGE_CHOICES);
        (move_logits, charge_logits)
    }
}

/// The actor–critic module: the conv/LayerNorm/FC trunk, the action heads
/// `H`, and the value head. Parameters live in an external [`ParamStore`],
/// registered trunk first, then the heads, then `value`, all under
/// [`Heads::PREFIX`] — the prefixes are disjoint, so both variants can
/// share one store without name collisions.
#[derive(Clone, Debug)]
pub struct ActorCriticNet<H> {
    cfg: NetConfig,
    conv1: Conv2dLayer,
    ln1: LayerNormLayer,
    conv2: Conv2dLayer,
    ln2: LayerNormLayer,
    conv3: Conv2dLayer,
    ln3: LayerNormLayer,
    fc: Linear,
    heads: H,
    value_head: Linear,
}

/// The paper's actor–critic, with per-worker head columns.
pub type ActorCritic = ActorCriticNet<JointHeads>;

/// The fleet-scale actor–critic, with heads shared across workers.
pub type FleetActorCritic = ActorCriticNet<FactoredHeads>;

impl<H: Heads> ActorCriticNet<H> {
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

        let name = |layer: &str| format!("{}.{layer}", H::PREFIX);
        let conv1 = Conv2dLayer::new(store, &name("conv1"), c1, rng);
        let ln1 = LayerNormLayer::new(store, &name("ln1"), 8 * d1 * d1);
        let conv2 = Conv2dLayer::new(store, &name("conv2"), c2, rng);
        let ln2 = LayerNormLayer::new(store, &name("ln2"), 16 * d2 * d2);
        let conv3 = Conv2dLayer::new(store, &name("conv3"), c3, rng);
        let ln3 = LayerNormLayer::new(store, &name("ln3"), 16 * d3 * d3);
        let fc = Linear::new(store, &name("fc"), 16 * d3 * d3, cfg.feature_dim, rng);
        let heads = H::new(store, &cfg, rng);
        let value_head = Linear::new_head(store, &name("value"), cfg.feature_dim, 1, rng);

        Self { cfg, conv1, ln1, conv2, ln2, conv3, ln3, fc, heads, value_head }
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

        // Each LayerNorm normalizes an item's `C·H·W` conv output in place
        // of a flatten, with the ReLU inside the same op.
        let x = self.conv1.forward(g, store, states);
        let x = self.ln1.forward_relu(g, store, x);
        let x = self.conv2.forward(g, store, x);
        let x = self.ln2.forward_relu(g, store, x);
        let x = self.conv3.forward(g, store, x);
        let x = self.ln3.forward_relu(g, store, x);
        let x = g.reshape(x, &[b, self.ln3.feat()]);

        let features = self.fc.forward(g, store, x);
        let features = g.relu(features);

        let (move_logits, charge_logits) = self.heads.forward(g, store, features);
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

    fn build<H: Heads>(grid: usize, workers: usize) -> (ParamStore, ActorCriticNet<H>) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let net = ActorCriticNet::new(&mut store, NetConfig::for_scenario(grid, workers), &mut rng);
        (store, net)
    }

    fn check_forward_shapes<H: Heads>(grid: usize, workers: usize, batch: usize) {
        let (store, net) = build::<H>(grid, workers);
        let mut g = Graph::new();
        let s = g.leaf(Tensor::zeros(&[batch, 3, grid, grid]));
        let out = net.forward(&mut g, &store, s);
        assert_eq!(g.shape(out.move_logits), &[batch * workers, 9]);
        assert_eq!(g.shape(out.charge_logits), &[batch * workers, 2]);
        assert_eq!(g.shape(out.value), &[batch, 1]);
        assert_eq!(g.shape(out.features), &[batch, 128]);
    }

    /// Head weights are small-scale, so fresh move distributions should be
    /// close to uniform — important for exploration at episode 0.
    fn check_near_uniform<H: Heads>(workers: usize) {
        let (store, net) = build::<H>(16, workers);
        let mut g = Graph::new();
        let mut state = Tensor::zeros(&[1, 3, 16, 16]);
        state.data_mut()[40] = 0.7; // arbitrary non-trivial input
        let s = g.leaf(state);
        let out = net.forward(&mut g, &store, s);
        let probs = {
            let sm = g.softmax(out.move_logits);
            g.value(sm).clone()
        };
        assert_eq!(probs.data().len(), workers * 9);
        for &p in probs.data() {
            assert!((p - 1.0 / 9.0).abs() < 0.05, "initial prob {p} far from uniform");
        }
    }

    fn check_gradients_reach_every_parameter<H: Heads>(workers: usize) {
        let (mut store, net) = build::<H>(8, workers);
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

    fn names<H: Heads>(workers: usize) -> Vec<String> {
        let (store, _) = build::<H>(16, workers);
        store.ids().map(|id| store.name(id).to_string()).collect()
    }

    #[test]
    fn forward_shapes() {
        check_forward_shapes::<JointHeads>(16, 2, 3);
    }

    #[test]
    fn fleet_forward_shapes_match_joint_net_layout() {
        check_forward_shapes::<FactoredHeads>(16, 7, 3);
    }

    #[test]
    fn works_on_small_grid_and_many_workers() {
        check_forward_shapes::<JointHeads>(8, 5, 1);
        check_forward_shapes::<FactoredHeads>(8, 5, 1);
    }

    #[test]
    fn initial_policy_is_near_uniform() {
        check_near_uniform::<JointHeads>(1);
    }

    #[test]
    fn fleet_initial_policy_is_near_uniform() {
        check_near_uniform::<FactoredHeads>(4);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        check_gradients_reach_every_parameter::<JointHeads>(2);
    }

    #[test]
    fn fleet_gradients_reach_every_parameter() {
        check_gradients_reach_every_parameter::<FactoredHeads>(3);
    }

    #[test]
    fn parameters_register_trunk_then_heads_then_value() {
        // The checkpoint layout and the init RNG draw order both follow
        // this registration order; changing it breaks every saved policy.
        let trunk = ["conv1.w", "conv1.b", "ln1.gamma", "ln1.beta", "conv2.w", "conv2.b"];
        for (prefix, heads, got) in [
            ("ac", &["move.w", "move.b", "charge.w", "charge.b"][..], names::<JointHeads>(2)),
            (
                "fleet",
                &["worker_embed", "move.w", "move.b", "charge.w", "charge.b"][..],
                names::<FactoredHeads>(2),
            ),
        ] {
            assert!(got.iter().all(|n| n.starts_with(&format!("{prefix}."))), "{got:?}");
            let local: Vec<&str> = got.iter().map(|n| &n[prefix.len() + 1..]).collect();
            assert_eq!(&local[..trunk.len()], &trunk[..], "{prefix} trunk order");
            let tail = &local[local.len() - heads.len() - 2..];
            assert_eq!(&tail[..heads.len()], heads, "{prefix} head order");
            assert_eq!(&tail[heads.len()..], &["value.w", "value.b"], "{prefix} value last");
        }
    }

    #[test]
    fn fleet_head_parameters_do_not_grow_with_fleet_size() {
        // The whole point of factoring: the joint net's move head is
        // [F, W·9] while the fleet net's stays [F, 9]; only the [W, F]
        // embedding scales, and linearly rather than through every head.
        let count = |w: usize| {
            let (store, _) = build::<FactoredHeads>(16, w);
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
        let (store_a, net_a) = build::<JointHeads>(8, 1);
        let (store_b, net_b) = build::<JointHeads>(8, 1);
        let mut ga = Graph::new();
        let sa = ga.leaf(Tensor::ones(&[1, 3, 8, 8]));
        let oa = net_a.forward(&mut ga, &store_a, sa);
        let mut gb = Graph::new();
        let sb = gb.leaf(Tensor::ones(&[1, 3, 8, 8]));
        let ob = net_b.forward(&mut gb, &store_b, sb);
        assert_eq!(ga.value(oa.value), gb.value(ob.value));
    }
}
