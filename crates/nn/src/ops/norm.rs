//! Layer normalization over each item's trailing features, with an
//! optional ReLU folded in.
//!
//! The input is any rank ≥ 2 tensor `[B, …]`: item `b` is its trailing
//! `F = numel / B` floats in memory order, so a conv output `[B, C, H, W]`
//! normalizes over `C·H·W` without being flattened first. Each item is
//! normalized to zero mean and unit variance, then scaled by `gamma` and
//! shifted by `beta` (both `[F]`). The DRL-CEWS CNN applies this, followed
//! by a ReLU, after every conv layer to stabilize PPO updates; with `relu`
//! set the op stores `max(y, 0)` and its backward masks the upstream
//! gradient by `y > 0` inside its own passes.
//!
//! ## Order of the sums
//!
//! Results are bitwise those of a row-at-a-time loop followed by a separate
//! ReLU (`crates/nn/tests/layer_norm_relu.rs`). Each row statistic is one
//! sequential sum over the row in ascending feature order: the forward
//! mean and variance start where `Iterator::sum` starts, the backward `Σgy`
//! and `Σgy·x̂` from `+0.0`. The rows run in groups of eight whose chains
//! are interleaved (`simd::row_sums`), so the adds of different rows
//! overlap instead of waiting on each other; each chain still sees its own
//! row in order.
//! `ggamma` and `gbeta` sum over rows in ascending order from `+0.0`, and
//! the ReLU mask is applied where each pass reads the upstream gradient,
//! so no masked copy of it is stored.

use crate::arena;
use crate::ops::gemm;
use crate::ops::simd::{self, SUM_ROWS};
use crate::tensor::Tensor;

/// Saved statistics from a layer-norm forward pass, needed for backward.
#[derive(Clone, Debug)]
pub struct LayerNormCtx {
    /// Mean per row.
    pub mean: Vec<f32>,
    /// Reciprocal standard deviation per row.
    pub rstd: Vec<f32>,
}

/// `(rows, features)` of a layer-norm input.
fn items(x: &Tensor) -> (usize, usize) {
    assert!(x.ndim() >= 2, "layer_norm input must be [B, ...], got {:?}", x.shape());
    (x.shape()[0], x.shape()[1..].iter().product())
}

/// Sums each row of a `[len, feat]` block, `len ≤ SUM_ROWS`, from `start`
/// in ascending feature order: a full group through [`simd::row_sums`],
/// a shorter one row by row.
fn block_sums<const N: usize>(
    blocks: [&[f32]; N],
    len: usize,
    feat: usize,
    start: f32,
) -> [[f32; SUM_ROWS]; N] {
    if len == SUM_ROWS {
        return simd::row_sums(blocks, feat, start, gemm::simd_kernel_active());
    }
    let mut out = [[start; SUM_ROWS]; N];
    for (o, b) in out.iter_mut().zip(blocks) {
        for (acc, row) in o.iter_mut().zip(b[..len * feat].chunks_exact(feat.max(1))) {
            *acc = row.iter().fold(start, |a, &v| a + v);
        }
    }
    out
}

/// Forward layer norm over each item's trailing features, with `max(·, 0)`
/// applied when `relu` is set: returns output (shaped like `x`) and the
/// per-row statistics.
pub fn layer_norm_forward(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    relu: bool,
) -> (Tensor, LayerNormCtx) {
    let (rows, feat) = items(x);
    assert_eq!(gamma.shape(), &[feat], "gamma shape mismatch");
    assert_eq!(beta.shape(), &[feat], "beta shape mismatch");
    let n = feat as f32;
    // Where `Iterator::sum` starts an `f32` sum.
    let start = std::iter::empty::<f32>().sum::<f32>();
    let mut mean = arena::take_f32_zeroed(rows);
    let mut rstd = arena::take_f32_zeroed(rows);
    let mut out = arena::take_f32(rows * feat);
    // One group's squared deviations.
    let mut dev = arena::take_f32_zeroed(SUM_ROWS * feat);
    for r0 in (0..rows).step_by(SUM_ROWS) {
        let len = SUM_ROWS.min(rows - r0);
        let block = &x.data()[r0 * feat..(r0 + len) * feat];
        let [sums] = block_sums([block], len, feat, start);
        for (r, row) in block.chunks_exact(feat.max(1)).enumerate() {
            let mu = sums[r] / n;
            mean[r0 + r] = mu;
            for (d, &v) in dev[r * feat..].iter_mut().zip(row) {
                *d = (v - mu) * (v - mu);
            }
        }
        let [vars] = block_sums([&dev[..len * feat]], len, feat, start);
        for (r, row) in block.chunks_exact(feat.max(1)).enumerate() {
            let (mu, rs) = (mean[r0 + r], 1.0 / (vars[r] / n + eps).sqrt());
            rstd[r0 + r] = rs;
            let y = row
                .iter()
                .zip(gamma.data().iter().zip(beta.data()))
                .map(|(&v, (&g, &b))| (v - mu) * rs * g + b);
            if relu {
                out.extend(y.map(|v| v.max(0.0)));
            } else {
                out.extend(y);
            }
        }
    }
    arena::put_f32(dev);
    (Tensor::from_vec(x.shape(), out), LayerNormCtx { mean, rstd })
}

/// Gradients of layer norm w.r.t. input, gamma and beta.
pub struct LayerNormGrads {
    /// Gradient w.r.t. the input.
    pub gx: Tensor,
    /// Gradient w.r.t. gamma (scale).
    pub ggamma: Tensor,
    /// Gradient w.r.t. beta (shift).
    pub gbeta: Tensor,
}

/// Backward layer norm given the upstream gradient and saved statistics.
/// `relu_out` is the forward output of a `relu` layer norm: the upstream
/// gradient then counts only where that output is positive.
pub fn layer_norm_backward(
    gout: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    ctx: &LayerNormCtx,
    relu_out: Option<&Tensor>,
) -> LayerNormGrads {
    assert_eq!(gout.numel(), x.numel(), "upstream gradient size");
    match relu_out {
        Some(y) => {
            assert_eq!(y.numel(), x.numel(), "relu output size");
            backward::<true>(gout, y, x, gamma, ctx)
        }
        None => backward::<false>(gout, gout, x, gamma, ctx),
    }
}

/// The upstream gradient `g` where the fused ReLU's output `y` passes it.
#[inline(always)]
fn masked<const RELU: bool>(y: f32, g: f32) -> f32 {
    if !RELU || y > 0.0 {
        g
    } else {
        0.0
    }
}

/// [`layer_norm_backward`], masking `gout` by `y > 0` when `RELU`.
fn backward<const RELU: bool>(
    gout: &Tensor,
    y: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    ctx: &LayerNormCtx,
) -> LayerNormGrads {
    let (rows, feat) = items(x);
    let n = feat as f32;
    let (gd, yd, xd, gamma) = (gout.data(), y.data(), x.data(), gamma.data());
    let mut gx = arena::take_f32_zeroed(rows * feat);
    let mut ggamma = arena::take_f32_zeroed(feat);
    let mut gbeta = arena::take_f32_zeroed(feat);
    // One group's `gy = g·gamma` and `gy·x̂`, whose row sums the input
    // gradient needs.
    let mut gys = arena::take_f32_zeroed(SUM_ROWS * feat);
    let mut gyxs = arena::take_f32_zeroed(SUM_ROWS * feat);
    for r0 in (0..rows).step_by(SUM_ROWS) {
        let len = SUM_ROWS.min(rows - r0);
        let span = r0 * feat..(r0 + len) * feat;
        let (gb, yb, xb) = (&gd[span.clone()], &yd[span.clone()], &xd[span]);
        for (r, (gys, gyxs)) in gys
            .chunks_exact_mut(feat.max(1))
            .zip(gyxs.chunks_exact_mut(feat.max(1)))
            .take(len)
            .enumerate()
        {
            let (mu, rs) = (ctx.mean[r0 + r], ctx.rstd[r0 + r]);
            let row = r * feat..(r + 1) * feat;
            let (gr, yr, xr) = (&gb[row.clone()], &yb[row.clone()], &xb[row]);
            let (gys, gyxs) = (&mut gys[..feat], &mut gyxs[..feat]);
            for j in 0..feat {
                let gy = masked::<RELU>(yr[j], gr[j]) * gamma[j];
                gys[j] = gy;
                gyxs[j] = gy * ((xr[j] - mu) * rs);
            }
        }
        let [sum_gy, sum_gy_xhat] =
            block_sums([&gys[..len * feat], &gyxs[..len * feat]], len, feat, 0.0);
        for r in 0..len {
            let (mu, rs) = (ctx.mean[r0 + r], ctx.rstd[r0 + r]);
            let (s_gy, s_gyx) = (sum_gy[r], sum_gy_xhat[r]);
            let row = r * feat..(r + 1) * feat;
            let (gr, yr, xr) = (&gb[row.clone()], &yb[row.clone()], &xb[row]);
            let gxr = &mut gx[(r0 + r) * feat..(r0 + r + 1) * feat];
            let (ggamma, gbeta) = (&mut ggamma[..feat], &mut gbeta[..feat]);
            for j in 0..feat {
                let g = masked::<RELU>(yr[j], gr[j]);
                let xhat = (xr[j] - mu) * rs;
                ggamma[j] += g * xhat;
                gbeta[j] += g;
                let gy = g * gamma[j];
                gxr[j] = rs * (gy - s_gy / n - xhat * s_gyx / n);
            }
        }
    }
    arena::put_f32(gys);
    arena::put_f32(gyxs);
    LayerNormGrads {
        gx: Tensor::from_vec(x.shape(), gx),
        ggamma: Tensor::from_vec(&[feat], ggamma),
        gbeta: Tensor::from_vec(&[feat], gbeta),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn forward_normalizes_rows() {
        let x = Tensor::from_vec(&[2, 4], vec![1., 2., 3., 4., -2., 0., 2., 8.]);
        let gamma = Tensor::ones(&[4]);
        let beta = Tensor::zeros(&[4]);
        let (y, _) = layer_norm_forward(&x, &gamma, &beta, 1e-5, false);
        for r in 0..2 {
            let row: Vec<f32> = (0..4).map(|c| y.at2(r, c)).collect();
            let mu: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / 4.0;
            assert!(mu.abs() < 1e-5, "row {r} mean {mu}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn gamma_beta_apply_affine() {
        let x = Tensor::from_vec(&[1, 2], vec![0., 2.]);
        let gamma = Tensor::from_vec(&[2], vec![3., 3.]);
        let beta = Tensor::from_vec(&[2], vec![10., 10.]);
        let (y, _) = layer_norm_forward(&x, &gamma, &beta, 1e-8, false);
        // Normalized row is [-1, 1], so output is [7, 13].
        assert!((y.data()[0] - 7.0).abs() < 1e-3);
        assert!((y.data()[1] - 13.0).abs() < 1e-3);
    }

    #[test]
    fn constant_row_stays_finite() {
        let x = Tensor::full(&[1, 8], 5.0);
        let (y, _) = layer_norm_forward(&x, &Tensor::ones(&[8]), &Tensor::zeros(&[8]), 1e-5, false);
        assert!(!y.has_non_finite());
        assert!(y.data().iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let feat = 6usize;
        let x = Tensor::from_vec(&[2, feat], (0..12).map(|i| (i as f32 * 0.6).sin()).collect());
        let gamma = Tensor::from_vec(&[feat], (0..feat).map(|i| 1.0 + 0.1 * i as f32).collect());
        let beta = Tensor::from_vec(&[feat], (0..feat).map(|i| 0.05 * i as f32).collect());
        let eps = 1e-5;
        let wts: Vec<f32> = (0..12).map(|i| 0.2 + 0.13 * i as f32).collect();
        let loss = |x: &Tensor, g: &Tensor, b: &Tensor| -> f32 {
            let (y, _) = layer_norm_forward(x, g, b, eps, false);
            y.data().iter().zip(&wts).map(|(a, w)| a * w).sum()
        };

        let (y, ctx) = layer_norm_forward(&x, &gamma, &beta, eps, false);
        let gout = Tensor::from_vec(y.shape(), wts.clone());
        let grads = layer_norm_backward(&gout, &x, &gamma, &ctx, None);

        let h = 1e-3f32;
        for i in 0..12 {
            let mut xp = x.clone();
            xp.data_mut()[i] += h;
            let mut xm = x.clone();
            xm.data_mut()[i] -= h;
            let num = (loss(&xp, &gamma, &beta) - loss(&xm, &gamma, &beta)) / (2.0 * h);
            assert!(
                (num - grads.gx.data()[i]).abs() < 2e-2,
                "gx[{i}] numeric {num} analytic {}",
                grads.gx.data()[i]
            );
        }
        for i in 0..feat {
            let mut gp = gamma.clone();
            gp.data_mut()[i] += h;
            let mut gm = gamma.clone();
            gm.data_mut()[i] -= h;
            let num = (loss(&x, &gp, &beta) - loss(&x, &gm, &beta)) / (2.0 * h);
            assert!(
                (num - grads.ggamma.data()[i]).abs() < 2e-2,
                "ggamma[{i}] numeric {num} analytic {}",
                grads.ggamma.data()[i]
            );
            let mut bp = beta.clone();
            bp.data_mut()[i] += h;
            let mut bm = beta.clone();
            bm.data_mut()[i] -= h;
            let numb = (loss(&x, &gamma, &bp) - loss(&x, &gamma, &bm)) / (2.0 * h);
            assert!((numb - grads.gbeta.data()[i]).abs() < 2e-2);
        }
    }
}
