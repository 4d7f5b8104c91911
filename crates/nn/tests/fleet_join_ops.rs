//! Bitwise equivalence of the fleet head ops against the code they replace.
//!
//! * `relu_join_matmul(x, table, w)` must equal the gather-based chain it
//!   replaced — `relu(gather_rows(x, [e; W]) + gather_rows(table, 0..W))·w`
//!   — in forward value and in the gradients of `x`, `table` and `w`, bit
//!   for bit.
//! * `slice_cols` must equal plain column copies of the full-width value
//!   forward, and scatter exactly the upstream gradient into its columns
//!   (the full-width reference is a masked weighting of the whole tensor).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_nn::prelude::*;

fn tensor2(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    Tensor::from_vec(&[rows, cols], data)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Builds the head output with `head`, then a downstream loss that weights
/// every logit differently, so each gradient is non-trivial. Returns the
/// head's value and the gradients of `x`, `table` and `w`.
fn run_head(
    x0: &Tensor,
    t0: &Tensor,
    w0: &Tensor,
    head: impl Fn(&mut Graph, NodeId, NodeId, NodeId) -> NodeId,
) -> (Tensor, Tensor, Tensor, Tensor) {
    let mut store = ParamStore::new();
    let x = store.add("x", x0.clone());
    let t = store.add("table", t0.clone());
    let w = store.add("w", w0.clone());
    let mut g = Graph::new();
    let xn = g.param(&store, x);
    let tn = g.param(&store, t);
    let wn = g.param(&store, w);
    let y = head(&mut g, xn, tn, wn);
    let value = g.value(y).clone();
    let sq = g.square(y);
    let th = g.tanh(y);
    let mixed = g.add(sq, th);
    let loss = g.sum_all(mixed);
    g.backward(loss, &mut store);
    (value, store.grad(x).clone(), store.grad(t).clone(), store.grad(w).clone())
}

/// The unfused reference: gather both operands into `[B·W, F]`, add,
/// relu, matmul.
fn gather_oracle(g: &mut Graph, x: NodeId, t: NodeId, w: NodeId) -> NodeId {
    let (batch, workers) = (g.shape(x)[0], g.shape(t)[0]);
    let feat_idx: Vec<usize> = (0..batch).flat_map(|e| std::iter::repeat_n(e, workers)).collect();
    let embed_idx: Vec<usize> = (0..batch).flat_map(|_| 0..workers).collect();
    let xr = g.gather_rows(x, feat_idx);
    let tr = g.gather_rows(t, embed_idx);
    let joined = g.add(xr, tr);
    let r = g.relu(joined);
    g.matmul(r, w)
}

#[test]
fn relu_join_matmul_matches_gather_oracle_bitwise() {
    // F = 300 crosses the GEMM's k-block, W = 1000 its row blocks, and
    // N = 11 is the fleet heads' width.
    for (feat, n) in [(10usize, 11usize), (300, 11), (128, 20)] {
        for workers in [1usize, 3, 1000] {
            for batch in [1usize, 3] {
                let mut rng = StdRng::seed_from_u64((40 + batch + workers + feat) as u64);
                let x0 = tensor2(&mut rng, batch, feat);
                let t0 = tensor2(&mut rng, workers, feat);
                let w0 = tensor2(&mut rng, feat, n);

                let fused = run_head(&x0, &t0, &w0, |g, x, t, w| g.relu_join_matmul(x, t, w));
                let reference = run_head(&x0, &t0, &w0, gather_oracle);

                let label = format!("B={batch} W={workers} F={feat} N={n}");
                assert_eq!(fused.0.shape(), &[batch * workers, n], "{label}");
                assert_eq!(bits(&fused.0), bits(&reference.0), "{label}: forward value");
                assert_eq!(bits(&fused.1), bits(&reference.1), "{label}: x gradient");
                assert_eq!(bits(&fused.2), bits(&reference.2), "{label}: table gradient");
                assert_eq!(bits(&fused.3), bits(&reference.3), "{label}: w gradient");
            }
        }
    }
}

#[test]
fn relu_join_matmul_handles_empty_operands() {
    // No workers: no rows. No features: every logit is the empty sum.
    for (x, t, w, want) in [([2, 3], [0, 3], [3, 11], [0, 11]), ([2, 0], [3, 0], [0, 4], [6, 4])] {
        let mut store = ParamStore::new();
        let xi = store.add("x", Tensor::zeros(&x));
        let ti = store.add("table", Tensor::zeros(&t));
        let wi = store.add("w", Tensor::zeros(&w));
        let mut g = Graph::new();
        let (xn, tn, wn) = (g.param(&store, xi), g.param(&store, ti), g.param(&store, wi));
        let y = g.relu_join_matmul(xn, tn, wn);
        assert_eq!(g.shape(y), &want);
        assert!(g.value(y).data().iter().all(|&v| v == 0.0));
        let loss = g.sum_all(y);
        g.backward(loss, &mut store);
        assert_eq!(store.grad(xi).shape(), &x);
        assert_eq!(store.grad(ti).shape(), &t);
        assert_eq!(store.grad(wi).shape(), &w);
    }
}

#[test]
fn slice_cols_matches_full_width_reference_bitwise() {
    let cols = 11;
    // Two disjoint slices (the move/charge split) plus one overlapping both.
    let slices = [(0usize, 9usize), (9, 2), (7, 3)];
    for rows in [1usize, 3] {
        let mut rng = StdRng::seed_from_u64(70 + rows as u64);
        let x0 = tensor2(&mut rng, rows, cols);
        let weights: Vec<Tensor> =
            slices.iter().map(|&(_, len)| tensor2(&mut rng, rows, len)).collect();

        // Sliced: loss = Σ_s sum(slice_s(x) ⊙ K_s).
        let mut store = ParamStore::new();
        let x = store.add("x", x0.clone());
        let mut g = Graph::new();
        let xn = g.param(&store, x);
        let mut loss = None;
        for (&(start, len), k) in slices.iter().zip(&weights) {
            let s = g.slice_cols(xn, start, len);
            assert_eq!(g.shape(s), &[rows, len]);
            for r in 0..rows {
                for c in 0..len {
                    assert_eq!(
                        g.value(s).at2(r, c).to_bits(),
                        x0.at2(r, start + c).to_bits(),
                        "rows={rows}: slice ({start},{len}) value at ({r},{c})"
                    );
                }
            }
            let kn = g.leaf(k.clone());
            let m = g.mul(s, kn);
            let part = g.sum_all(m);
            loss = Some(match loss {
                Some(acc) => g.add(acc, part),
                None => part,
            });
        }
        g.backward(loss.unwrap(), &mut store);

        // Full-width reference: the same loss as sum(x ⊙ M) with the slice
        // weights summed into their columns of one [rows, cols] mask.
        let mut mask = Tensor::zeros(&[rows, cols]);
        for (&(start, len), k) in slices.iter().zip(&weights) {
            for r in 0..rows {
                for c in 0..len {
                    *mask.at2_mut(r, start + c) += k.at2(r, c);
                }
            }
        }
        let mut ref_store = ParamStore::new();
        let xr = ref_store.add("x", x0.clone());
        let mut gr = Graph::new();
        let xrn = gr.param(&ref_store, xr);
        let mn = gr.leaf(mask);
        let m = gr.mul(xrn, mn);
        let ref_loss = gr.sum_all(m);
        gr.backward(ref_loss, &mut ref_store);

        assert_eq!(bits(store.grad(x)), bits(ref_store.grad(xr)), "rows={rows}: x gradient");
    }
}

#[test]
#[should_panic(expected = "out of 4 columns")]
fn slice_cols_past_the_end_panics() {
    let mut g = Graph::new();
    let x = g.leaf(Tensor::zeros(&[2, 4]));
    g.slice_cols(x, 3, 2);
}
