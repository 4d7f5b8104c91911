//! The fleet net's fused head GEMM against a two-`Linear` reference.
//!
//! `FleetActorCritic::forward` runs the move and charge heads as one
//! `relu_join_matmul`: the trunk features joined with the worker
//! embeddings, ReLU applied, times the `[F, 11]` concatenated head weights,
//! with the `[B·W, F]` join never stored; `slice_cols` splits the logits. The
//! reference below rebuilds the layout it replaced — a gather-based join
//! and two separate `x·W + b` heads — on the same trunk features.
//!
//! * Logits and every head-parameter gradient are bit-identical: each
//!   logit, and each head weight/bias gradient entry, is the same
//!   ascending-order chain in both layouts.
//! * The gradient into the joined rows is `g·Wᵀ` summed over all 11 head
//!   columns in one chain, where the reference sums 9 move columns, then 2
//!   charge columns, then adds the two. That reassociation reaches the
//!   trunk and `fleet.worker_embed` gradients, which therefore agree only
//!   to within 1e-5 relative (largest deviation over the largest entry of
//!   each gradient tensor).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_nn::prelude::*;
use vc_rl::prelude::*;

const GRID: usize = 16;

/// Parameters whose gradients must match bit for bit.
const EXACT: [&str; 6] = [
    "fleet.move.w",
    "fleet.move.b",
    "fleet.charge.w",
    "fleet.charge.b",
    "fleet.value.w",
    "fleet.value.b",
];

fn param(store: &ParamStore, name: &str) -> ParamId {
    store.ids().find(|&id| store.name(id) == name).unwrap_or_else(|| panic!("no param {name}"))
}

/// The per-head `x·W + b` of a `Linear` layer, on existing parameters.
fn linear(g: &mut Graph, store: &ParamStore, x: NodeId, prefix: &str) -> NodeId {
    let w = g.param(store, param(store, &format!("{prefix}.w")));
    let b = g.param(store, param(store, &format!("{prefix}.b")));
    let xw = g.matmul(x, w);
    g.add_row_broadcast(xw, b)
}

/// A PPO-shaped loss touching all three heads: picked log-probabilities,
/// an entropy-like term and a squared value.
fn loss(g: &mut Graph, moves: NodeId, charges: NodeId, value: NodeId, rows: usize) -> NodeId {
    let lm = g.log_softmax(moves);
    let pm = g.pick_column(lm, (0..rows).map(|r| (r * 5) % MOVES_PER_WORKER).collect());
    let lc = g.log_softmax(charges);
    let pc = g.pick_column(lc, (0..rows).map(|r| r % CHARGE_CHOICES).collect());
    let logp = g.add(pm, pc);
    let logp = g.sum_all(logp);
    let pr = g.softmax(moves);
    let ent = g.mul(pr, lm);
    let ent = g.mean_all(ent);
    let v = g.square(value);
    let v = g.sum_all(v);
    let t = g.add(logp, ent);
    g.add(t, v)
}

fn grads(store: &ParamStore) -> Vec<(String, Tensor)> {
    store.ids().map(|id| (store.name(id).to_string(), store.grad(id).clone())).collect()
}

fn check(batch: usize, workers: usize) {
    let mut init = StdRng::seed_from_u64(workers as u64);
    let mut store = ParamStore::new();
    let net = FleetActorCritic::new(&mut store, NetConfig::for_scenario(GRID, workers), &mut init);
    let mut rng = StdRng::seed_from_u64(9 + batch as u64);
    let states: Vec<f32> =
        (0..batch * 3 * GRID * GRID).map(|_| rng.gen_range(-1.0f32..2.0)).collect();
    let states = Tensor::from_vec(&[batch, 3, GRID, GRID], states);
    let rows = batch * workers;

    // Fused: the net's own heads.
    store.zero_grads();
    let mut g = Graph::new();
    let s = g.leaf(states.clone());
    let out = net.forward(&mut g, &store, s);
    let fused_move = g.value(out.move_logits).clone();
    let fused_charge = g.value(out.charge_logits).clone();
    let l = loss(&mut g, out.move_logits, out.charge_logits, out.value, rows);
    g.backward(l, &mut store);
    let fused = grads(&store);

    // Reference: same trunk features, gather join and two head GEMMs. The
    // net's own head nodes stay on the tape but feed no loss, so no
    // gradient passes through them.
    store.zero_grads();
    let mut g = Graph::new();
    let s = g.leaf(states);
    let out = net.forward(&mut g, &store, s);
    let feat_idx: Vec<usize> = (0..batch).flat_map(|e| std::iter::repeat_n(e, workers)).collect();
    let embed_idx: Vec<usize> = (0..batch).flat_map(|_| 0..workers).collect();
    let feat_rep = g.gather_rows(out.features, feat_idx);
    let table = g.param(&store, param(&store, "fleet.worker_embed"));
    let embed_rep = g.gather_rows(table, embed_idx);
    let joined = g.add(feat_rep, embed_rep);
    let joined = g.relu(joined);
    let ref_move = linear(&mut g, &store, joined, "fleet.move");
    let ref_charge = linear(&mut g, &store, joined, "fleet.charge");
    let label = format!("B={batch} W={workers}");
    assert_eq!(g.shape(ref_move), fused_move.shape(), "{label}: move logits shape");
    assert_eq!(g.shape(ref_charge), fused_charge.shape(), "{label}: charge logits shape");
    for (name, a, b) in
        [("move", &fused_move, g.value(ref_move)), ("charge", &fused_charge, g.value(ref_charge))]
    {
        let same = a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "{label}: {name} logits differ from the two-Linear reference");
    }
    let l = loss(&mut g, ref_move, ref_charge, out.value, rows);
    g.backward(l, &mut store);
    let reference = grads(&store);

    for ((name, a), (_, b)) in fused.iter().zip(&reference) {
        if EXACT.contains(&name.as_str()) {
            let same = a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{label}: {name} gradient not bit-identical");
        } else {
            let scale = b.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
            let dev = a.data().iter().zip(b.data()).fold(0.0f32, |m, (x, y)| m.max((x - y).abs()));
            assert!(scale > 0.0, "{label}: {name} gradient is all zero");
            assert!(
                dev <= 1e-5 * scale,
                "{label}: {name} gradient off by {dev:e} (largest entry {scale:e})"
            );
        }
    }
}

#[test]
fn fused_heads_match_two_linear_reference_single_env() {
    check(1, 37);
}

#[test]
fn fused_heads_match_two_linear_reference_batched() {
    check(3, 37);
}

#[test]
fn fused_heads_match_two_linear_reference_thousand_workers() {
    check(1, 1000);
}
