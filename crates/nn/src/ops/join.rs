//! The fleet heads' fused join: `relu(x[e] + table[w]) · W` without the
//! `[B·W, F]` join tensor.
//!
//! Row `e·W + w` of the join (env-major, worker-minor) is
//! `relu(x[e] + table[w])`. The forward pass writes those rows block by
//! block straight into the packed A panels of
//! [`gemm_with_a_panels`](crate::ops::gemm::gemm_with_a_panels), so the join
//! and its ReLU are never stored. The backward pass recomputes the join once
//! into arena scratch and reads it for both the weight gradient and the
//! ReLU mask.
//!
//! Every value and gradient is bitwise what the unfused chain
//! (join → `relu` → `matmul`, see `crates/nn/tests/fleet_join_ops.rs`)
//! produces: each join element is the same expression, the GEMMs see the
//! same operands, and the input gradients are summed in the same order.

use crate::arena;
use crate::ops::gemm::gemm_with_a_panels;
use crate::ops::simd::MR;
use crate::tensor::Tensor;

/// One joined element: the single expression both passes use.
#[inline(always)]
fn joined(x: f32, t: f32) -> f32 {
    (x + t).max(0.0)
}

/// The `[B, F]`, `[W, F]`, `[F, N]` dimensions `(b, w, f, n)`.
fn dims(x: &Tensor, table: &Tensor, wt: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(x.ndim(), 2, "relu_join_matmul lhs must be rank 2");
    assert_eq!(table.ndim(), 2, "relu_join_matmul table must be rank 2");
    assert_eq!(wt.ndim(), 2, "relu_join_matmul weight must be rank 2");
    assert_eq!(x.shape()[1], table.shape()[1], "relu_join_matmul width mismatch");
    assert_eq!(x.shape()[1], wt.shape()[0], "relu_join_matmul inner dims mismatch");
    (x.shape()[0], table.shape()[0], x.shape()[1], wt.shape()[1])
}

/// `relu(x[e] + table[w]) · wt` for every `(e, w)` → `[B·W, N]`.
///
/// # Panics
///
/// If the operands are not rank 2 or their widths disagree.
pub fn relu_join_matmul(x: &Tensor, table: &Tensor, wt: &Tensor) -> Tensor {
    let (b, w, f, n) = dims(x, table, wt);
    let (xd, td) = (x.data(), table.data());
    // Joined row `row`, columns `[kb, kb + kc)`, as its two operand slices.
    let row = |row: usize, kb: usize, kc: usize| {
        let (e, wi) = (row / w, row % w);
        (&xd[e * f + kb..e * f + kb + kc], &td[wi * f + kb..wi * f + kb + kc])
    };
    let mut out = arena::take_f32_zeroed(b * w * n);
    gemm_with_a_panels(
        |i0, rows, kb, kc, panel| {
            let mut i = 0;
            while i < rows {
                let r = MR.min(rows - i);
                let dpan = &mut panel[kc * i..kc * (i + r)];
                if r == MR {
                    let (x0, t0) = row(i0 + i, kb, kc);
                    let (x1, t1) = row(i0 + i + 1, kb, kc);
                    let (x2, t2) = row(i0 + i + 2, kb, kc);
                    let (x3, t3) = row(i0 + i + 3, kb, kc);
                    let r0 = x0.iter().zip(t0);
                    let r1 = x1.iter().zip(t1);
                    let r2 = x2.iter().zip(t2);
                    let r3 = x3.iter().zip(t3);
                    for ((((d, (&a0, &b0)), (&a1, &b1)), (&a2, &b2)), (&a3, &b3)) in
                        dpan.chunks_exact_mut(MR).zip(r0).zip(r1).zip(r2).zip(r3)
                    {
                        d[0] = joined(a0, b0);
                        d[1] = joined(a1, b1);
                        d[2] = joined(a2, b2);
                        d[3] = joined(a3, b3);
                    }
                } else {
                    for rr in 0..r {
                        let (xr, tr) = row(i0 + i + rr, kb, kc);
                        for (p, (&xv, &tv)) in xr.iter().zip(tr).enumerate() {
                            dpan[p * r + rr] = joined(xv, tv);
                        }
                    }
                }
                i += r;
            }
        },
        wt.data(),
        &mut out,
        b * w,
        f,
        n,
    );
    Tensor::from_vec(&[b * w, n], out)
}

/// Gradients of [`relu_join_matmul`]; `None` where not requested.
pub struct ReluJoinGrads {
    /// Gradient of `x`, `[B, F]`.
    pub gx: Option<Tensor>,
    /// Gradient of `table`, `[W, F]`.
    pub gtable: Option<Tensor>,
    /// Gradient of `wt`, `[F, N]`.
    pub gw: Option<Tensor>,
}

/// Backward of [`relu_join_matmul`] for the upstream gradient
/// `gout: [B·W, N]`. `inputs` asks for the `x` and `table` gradients, and
/// `weight` for the `wt` gradient.
///
/// The join is recomputed once into arena scratch. From it `dW = joinᵀ·g`
/// and `dJoin = (g·wtᵀ) ⊙ [join > 0]` (a ReLU output is positive exactly
/// where its input is). Each `x` row then sums its `W` joined rows, and each
/// `table` row its `B`, in ascending joined-row order from zero.
pub fn relu_join_matmul_backward(
    gout: &Tensor,
    x: &Tensor,
    table: &Tensor,
    wt: &Tensor,
    inputs: bool,
    weight: bool,
) -> ReluJoinGrads {
    let (b, w, f, _) = dims(x, table, wt);
    let mut join = arena::take_f32(b * w * f);
    if f > 0 {
        for xr in x.data().chunks_exact(f) {
            for tr in table.data().chunks_exact(f) {
                join.extend(xr.iter().zip(tr).map(|(&xv, &tv)| joined(xv, tv)));
            }
        }
    }
    let join = Tensor::from_vec(&[b * w, f], join);
    let gw = weight.then(|| join.matmul_tn(gout));
    let (mut gx, mut gtable) = (None, None);
    if inputs {
        let mut gj = gout.matmul_nt(wt);
        for (g, &v) in gj.data_mut().iter_mut().zip(join.data()) {
            *g = if v > 0.0 { *g } else { 0.0 };
        }
        let mut tx = Tensor::zeros(&[b, f]);
        let mut tt = Tensor::zeros(&[w, f]);
        if f > 0 && w > 0 {
            let blocks = gj.data().chunks_exact(w * f);
            for (gxr, block) in tx.data_mut().chunks_exact_mut(f).zip(blocks) {
                for (gtr, gr) in tt.data_mut().chunks_exact_mut(f).zip(block.chunks_exact(f)) {
                    for ((ax, at), &g) in gxr.iter_mut().zip(gtr.iter_mut()).zip(gr) {
                        *ax += g;
                        *at += g;
                    }
                }
            }
        }
        gx = Some(tx);
        gtable = Some(tt);
    }
    ReluJoinGrads { gx, gtable, gw }
}
