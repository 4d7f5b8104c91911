//! Bitwise equivalence of the LayerNorm op against a row-at-a-time oracle.
//!
//! `layer_norm_forward` / `layer_norm_backward` normalize each item's
//! trailing features of a rank ≥ 2 input, with the ReLU optionally folded
//! in, and run their row statistics eight rows at a time. The oracle below
//! is the plain loop they replaced: flatten to `[rows, feat]`, normalize
//! one row at a time, then a separate ReLU and a reshape back. Every value
//! and gradient must match it bit for bit:
//!
//! * forward — per row, `mean = Σx / F` and `var = Σ(x − mean)² / F`, each
//!   an `Iterator::sum` in ascending feature order; `y = (x − mean)·rstd·γ
//!   + β`, then `max(y, 0)`;
//! * backward — the ReLU passes the upstream gradient where its input is
//!   positive; per row, `Σgy` and `Σgy·x̂` are sums from `+0.0` in
//!   ascending feature order, and `ggamma` / `gbeta` sum rows in ascending
//!   order from `+0.0`.
//!
//! Row counts straddle the eight-row group, feature counts cover one lane
//! up to the trunk's 512, and the inputs carry NaN, ±∞ and −0.0. NaN
//! payloads are folded to one pattern before comparing: when two NaN
//! operands meet, the instruction form the compiler picks decides which
//! payload survives.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::for_each_host_flavor;
use std::sync::{Mutex, PoisonError};
use vc_nn::ops::norm::{layer_norm_backward, layer_norm_forward};
use vc_nn::prelude::*;

/// The flavor cap is process-global; tests in this binary take this lock.
static KNOBS: Mutex<()> = Mutex::new(());

const EPS: f32 = 1e-5;

fn lcg_fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1 << 24) as f32) - 0.5
        })
        .collect()
}

/// Bit patterns with every NaN folded to one value (see module docs).
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// The oracle's results.
struct Oracle {
    y: Vec<f32>,
    gx: Vec<f32>,
    ggamma: Vec<f32>,
    gbeta: Vec<f32>,
}

/// Row-at-a-time layer norm on `[rows, feat]` data, then an optional ReLU
/// (the reshapes around it move no values).
fn oracle(x: &[f32], gamma: &[f32], beta: &[f32], gout: &[f32], feat: usize, relu: bool) -> Oracle {
    let rows = x.len() / feat;
    let mut norm = vec![0.0f32; rows * feat];
    let mut mean = vec![0.0f32; rows];
    let mut rstd = vec![0.0f32; rows];
    for r in 0..rows {
        let row = &x[r * feat..(r + 1) * feat];
        let mu = row.iter().sum::<f32>() / feat as f32;
        let var = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / feat as f32;
        let rs = 1.0 / (var + EPS).sqrt();
        mean[r] = mu;
        rstd[r] = rs;
        for j in 0..feat {
            norm[r * feat + j] = (row[j] - mu) * rs * gamma[j] + beta[j];
        }
    }
    let (y, g): (Vec<f32>, Vec<f32>) = if relu {
        let y = norm.iter().map(|v| v.max(0.0)).collect();
        let g = gout.iter().zip(&norm).map(|(&g, &v)| if v > 0.0 { g } else { 0.0 }).collect();
        (y, g)
    } else {
        (norm, gout.to_vec())
    };

    let n = feat as f32;
    let mut gx = vec![0.0f32; rows * feat];
    let mut ggamma = vec![0.0f32; feat];
    let mut gbeta = vec![0.0f32; feat];
    for r in 0..rows {
        let xr = &x[r * feat..(r + 1) * feat];
        let gr = &g[r * feat..(r + 1) * feat];
        let (mu, rs) = (mean[r], rstd[r]);
        let mut sum_gy = 0.0f32;
        let mut sum_gy_xhat = 0.0f32;
        for j in 0..feat {
            let xhat = (xr[j] - mu) * rs;
            let gy = gr[j] * gamma[j];
            sum_gy += gy;
            sum_gy_xhat += gy * xhat;
            ggamma[j] += gr[j] * xhat;
            gbeta[j] += gr[j];
        }
        for j in 0..feat {
            let xhat = (xr[j] - mu) * rs;
            let gy = gr[j] * gamma[j];
            gx[r * feat + j] = rs * (gy - sum_gy / n - xhat * sum_gy_xhat / n);
        }
    }
    Oracle { y, gx, ggamma, gbeta }
}

/// The item shape of `feat` features at rank 2 or rank 4.
fn shape(rows: usize, feat: usize, rank4: bool) -> Vec<usize> {
    match (rank4, feat) {
        (false, _) => vec![rows, feat],
        (true, 512) => vec![rows, 8, 8, 8],
        (true, 256) => vec![rows, 16, 4, 4],
        (true, f) => vec![rows, f, 1, 1],
    }
}

/// Inputs for one case, with non-finite and signed-zero entries planted in
/// a few rows (not all, so most rows stay finite and exercise the math).
fn inputs(rows: usize, feat: usize, seed: u64) -> [Vec<f32>; 4] {
    let mut x: Vec<f32> = lcg_fill(rows * feat, seed).iter().map(|v| 4.0 * v).collect();
    let mut gout = lcg_fill(rows * feat, seed ^ 0x600D);
    let mut gamma: Vec<f32> = lcg_fill(feat, seed ^ 0x6A).iter().map(|v| 1.0 + v).collect();
    let beta = lcg_fill(feat, seed ^ 0xBE);
    let plant = |v: &mut Vec<f32>, at: usize, val: f32| {
        if at < v.len() {
            v[at] = val;
        }
    };
    plant(&mut x, feat + feat / 2, f32::NAN);
    plant(&mut x, 3 * feat, f32::INFINITY);
    plant(&mut x, 5 * feat + 1, f32::NEG_INFINITY);
    plant(&mut x, 0, -0.0);
    plant(&mut gout, 2 * feat, f32::NAN);
    plant(&mut gout, 4 * feat + feat / 3, f32::INFINITY);
    plant(&mut gout, 6 * feat, -0.0);
    plant(&mut gout, 7 * feat + 2, f32::NEG_INFINITY);
    plant(&mut gamma, feat / 2, -0.0);
    [x, gout, gamma, beta]
}

#[test]
fn fused_layer_norm_matches_row_at_a_time_oracle() {
    let _knobs = KNOBS.lock().unwrap_or_else(PoisonError::into_inner);
    for_each_host_flavor(|flavor| {
        for rows in [1usize, 7, 8, 9, 100] {
            for feat in [1usize, 3, 256, 512] {
                let [x, gout, gamma, beta] = inputs(rows, feat, (rows * 1000 + feat) as u64);
                let gt = Tensor::from_vec(&[feat], gamma.clone());
                let bt = Tensor::from_vec(&[feat], beta.clone());
                for relu in [false, true] {
                    let want = oracle(&x, &gamma, &beta, &gout, feat, relu);
                    for rank4 in [false, true] {
                        let ctx = format!(
                            "rows={rows} feat={feat} relu={relu} rank4={rank4} flavor={flavor:?}"
                        );
                        let s = shape(rows, feat, rank4);
                        let xt = Tensor::from_vec(&s, x.clone());
                        let (y, stats) = layer_norm_forward(&xt, &gt, &bt, EPS, relu);
                        assert_eq!(y.shape(), &s[..], "{ctx}");
                        assert_eq!(bits(y.data()), bits(&want.y), "output: {ctx}");
                        let g = Tensor::from_vec(&s, gout.clone());
                        let grads = layer_norm_backward(&g, &xt, &gt, &stats, relu.then_some(&y));
                        assert_eq!(grads.gx.shape(), &s[..], "{ctx}");
                        assert_eq!(bits(grads.gx.data()), bits(&want.gx), "gx: {ctx}");
                        assert_eq!(bits(grads.ggamma.data()), bits(&want.ggamma), "ggamma: {ctx}");
                        assert_eq!(bits(grads.gbeta.data()), bits(&want.gbeta), "gbeta: {ctx}");
                    }
                }
            }
        }
    });
}

/// The graph op the trunk uses, `layer_norm_relu` on NCHW items, against the
/// node chain it replaced: flatten, `layer_norm`, `relu`, reshape back.
/// Finite inputs only: debug builds check every graph leaf for finiteness.
#[test]
fn graph_layer_norm_relu_matches_the_reshape_relu_chain() {
    let _knobs = KNOBS.lock().unwrap_or_else(PoisonError::into_inner);
    let (rows, feat) = (9usize, 256usize);
    let mut x = lcg_fill(rows * feat, 77);
    x[feat] = -0.0;
    let gout = lcg_fill(rows * feat, 78);
    let gamma: Vec<f32> = lcg_fill(feat, 79).iter().map(|v| 1.0 + v).collect();
    let beta = lcg_fill(feat, 80);
    let weights = Tensor::from_vec(&[rows, 16, 4, 4], gout);
    let run = |fused: bool| {
        let mut store = ParamStore::new();
        let xid = store.add("x", Tensor::from_vec(&[rows, 16, 4, 4], x.clone()));
        let gid = store.add("gamma", Tensor::from_vec(&[feat], gamma.clone()));
        let bid = store.add("beta", Tensor::from_vec(&[feat], beta.clone()));
        let mut g = Graph::new();
        let (xn, gn, bn) = (g.param(&store, xid), g.param(&store, gid), g.param(&store, bid));
        let y = if fused {
            g.layer_norm_relu(xn, gn, bn, EPS)
        } else {
            let flat = g.reshape(xn, &[rows, feat]);
            let n = g.layer_norm(flat, gn, bn, EPS);
            let r = g.relu(n);
            g.reshape(r, &[rows, 16, 4, 4])
        };
        let w = g.leaf(weights.clone());
        let prod = g.mul(y, w);
        let loss = g.sum_all(prod);
        let out = bits(g.value(y).data());
        g.backward(loss, &mut store);
        let grads: Vec<Vec<u32>> =
            [xid, gid, bid].iter().map(|&id| bits(store.grad(id).data())).collect();
        (out, grads)
    };
    let (fused, chain) = (run(true), run(false));
    assert_eq!(fused.0, chain.0, "output");
    assert_eq!(fused.1, chain.1, "gradients of x, gamma, beta");
}
