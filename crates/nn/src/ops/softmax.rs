//! Row-wise softmax / log-softmax with exact backward passes.
//!
//! All functions operate on rank-2 tensors `[rows, cols]`, treating each row
//! as an independent distribution — the layout used for per-worker action
//! heads after the `[B, W*A] -> [B*W, A]` reshape.
//!
//! ## Fully masked rows
//!
//! Action masking drives logits to `-∞` (or `-1e9`). A row whose entries
//! are *all* exactly `-∞` has no well-defined softmax (`0/0`); the seed
//! implementation silently produced `NaN`s that then tripped the gradient
//! quarantine. The defined behavior is now: such a row yields the uniform
//! distribution (`1/cols` from [`softmax_rows`], `-ln(cols)` from
//! [`log_softmax_rows`]) — a fully masked head carries no preference, and a
//! uniform output keeps downstream entropy/ratio terms finite. Rows with
//! `NaN` entries still propagate `NaN`.

use crate::arena;
use crate::tensor::Tensor;

/// Whether every entry of the row is exactly `-∞` (a fully masked head).
fn fully_masked(row: &[f32]) -> bool {
    row.iter().all(|&v| v == f32::NEG_INFINITY)
}

/// The row's maximum by `f32::max` (NaNs ignored; `-∞` for an all-NaN
/// row), folded in eight independent chains instead of one. The maximum of
/// a set does not depend on the order it is taken in, except for which
/// zero comes back when it is `±0`; `exp(v - m)` is the same for either
/// zero, so the softmax's bits are those of a single left-to-right fold.
#[inline]
fn row_max(row: &[f32]) -> f32 {
    let mut acc = [f32::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for chunk in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(chunk) {
            *a = a.max(v);
        }
    }
    for (a, &v) in acc.iter_mut().zip(chunks.remainder()) {
        *a = a.max(v);
    }
    acc.into_iter().fold(f32::NEG_INFINITY, f32::max)
}

/// The softmax of one row into `dst` (same length): the row maximum `m`,
/// the `exp(v - m)` chain with its running sum `z` in lane order, then one
/// divide per lane. A fully masked row (all `-∞`) yields the uniform
/// distribution. The one row body of [`softmax_rows`] and of the policy
/// sampler, so both give the same bits.
#[inline]
pub fn softmax_row(row: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(row.len(), dst.len());
    let m = row_max(row);
    if m == f32::NEG_INFINITY && fully_masked(row) {
        dst.fill(1.0 / row.len() as f32);
        return;
    }
    let mut z = 0.0f32;
    for (d, &v) in dst.iter_mut().zip(row) {
        let e = (v - m).exp();
        *d = e;
        z += e;
    }
    for d in dst.iter_mut() {
        *d /= z;
    }
}

/// Numerically stable row-wise softmax ([`softmax_row`] per row). Fully
/// masked rows (all `-∞`) yield the uniform distribution; see the module
/// docs.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "softmax_rows requires rank 2");
    let (rows, cols) = (x.shape()[0], x.shape()[1]);
    let mut out = arena::take_f32_zeroed(rows * cols);
    for r in 0..rows {
        softmax_row(&x.data()[r * cols..(r + 1) * cols], &mut out[r * cols..(r + 1) * cols]);
    }
    Tensor::from_vec(&[rows, cols], out)
}

/// Numerically stable row-wise log-softmax. Fully masked rows (all `-∞`)
/// yield `-ln(cols)` everywhere; see the module docs.
pub fn log_softmax_rows(x: &Tensor) -> Tensor {
    assert_eq!(x.ndim(), 2, "log_softmax_rows requires rank 2");
    let (rows, cols) = (x.shape()[0], x.shape()[1]);
    let mut out = arena::take_f32_zeroed(rows * cols);
    for r in 0..rows {
        let row = &x.data()[r * cols..(r + 1) * cols];
        let dst = &mut out[r * cols..(r + 1) * cols];
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        if m == f32::NEG_INFINITY && fully_masked(row) {
            dst.fill(-(cols as f32).ln());
            continue;
        }
        let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
        for (d, &v) in dst.iter_mut().zip(row) {
            *d = v - lse;
        }
    }
    Tensor::from_vec(&[rows, cols], out)
}

/// Backward of [`softmax_rows`]: given y = softmax(x) and upstream gradient
/// g, returns dL/dx = y ⊙ (g − ⟨g, y⟩_row).
pub fn softmax_backward(y: &Tensor, gout: &Tensor) -> Tensor {
    assert_eq!(y.shape(), gout.shape());
    let (rows, cols) = (y.shape()[0], y.shape()[1]);
    let mut gin = arena::take_f32_zeroed(rows * cols);
    for r in 0..rows {
        let yr = &y.data()[r * cols..(r + 1) * cols];
        let gr = &gout.data()[r * cols..(r + 1) * cols];
        let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
        for ((d, &yv), &gv) in gin[r * cols..(r + 1) * cols].iter_mut().zip(yr).zip(gr) {
            *d = yv * (gv - dot);
        }
    }
    Tensor::from_vec(&[rows, cols], gin)
}

/// Backward of [`log_softmax_rows`]: given y = log_softmax(x) and upstream
/// gradient g, returns dL/dx = g − softmax(x) · Σ_row g.
pub fn log_softmax_backward(y: &Tensor, gout: &Tensor) -> Tensor {
    assert_eq!(y.shape(), gout.shape());
    let (rows, cols) = (y.shape()[0], y.shape()[1]);
    let mut gin = arena::take_f32_zeroed(rows * cols);
    for r in 0..rows {
        let yr = &y.data()[r * cols..(r + 1) * cols];
        let gr = &gout.data()[r * cols..(r + 1) * cols];
        let gsum: f32 = gr.iter().sum();
        for ((d, &yv), &gv) in gin[r * cols..(r + 1) * cols].iter_mut().zip(yr).zip(gr) {
            *d = gv - yv.exp() * gsum;
        }
    }
    Tensor::from_vec(&[rows, cols], gin)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(&[2, 3], vec![1., 2., 3., -1., 0., 1.]);
        let y = softmax_rows(&x);
        for r in 0..2 {
            let s: f32 = (0..3).map(|c| y.at2(r, c)).sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec(&[1, 3], vec![1., 2., 3.]);
        let xs = x.map(|v| v + 100.0);
        let a = softmax_rows(&x);
        let b = softmax_rows(&xs);
        for i in 0..3 {
            assert!((a.data()[i] - b.data()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_survives_large_negative_mask() {
        // Masked logits use -1e9; softmax must assign them ~0 without NaN.
        let x = Tensor::from_vec(&[1, 3], vec![0.5, -1e9, 0.5]);
        let y = softmax_rows(&x);
        assert!(!y.has_non_finite());
        assert!(y.data()[1] < 1e-6);
        assert!((y.data()[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn fully_masked_rows_are_uniform() {
        // A row of all -inf (fully masked action head) must produce the
        // uniform distribution, not a silent 0/0 NaN.
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(&[2, 4], vec![ninf, ninf, ninf, ninf, 1.0, 2.0, 3.0, 4.0]);
        let y = softmax_rows(&x);
        assert!(!y.has_non_finite(), "masked row produced non-finite: {y:?}");
        for c in 0..4 {
            assert!((y.at2(0, c) - 0.25).abs() < 1e-7, "uniform expected, got {}", y.at2(0, c));
        }
        let s: f32 = (0..4).map(|c| y.at2(1, c)).sum();
        assert!((s - 1.0).abs() < 1e-6, "unmasked row must be unaffected");

        let ls = log_softmax_rows(&x);
        for c in 0..4 {
            assert!((ls.at2(0, c) + 4.0f32.ln()).abs() < 1e-6, "-ln(cols) expected");
        }
    }

    #[test]
    fn masked_row_backward_is_finite() {
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(&[1, 3], vec![ninf, ninf, ninf]);
        let y = softmax_rows(&x);
        let g = softmax_backward(&y, &Tensor::ones(&[1, 3]));
        assert!(!g.has_non_finite());
        let ly = log_softmax_rows(&x);
        let lg = log_softmax_backward(&ly, &Tensor::ones(&[1, 3]));
        assert!(!lg.has_non_finite());
    }

    /// `softmax_row` against the single left-to-right max fold it
    /// replaced, bit for bit, on rows of every length up to 19 mixing
    /// signed zeros, infinities, NaNs, mask logits and ordinary values.
    #[test]
    fn softmax_row_matches_the_single_fold_body_bitwise() {
        fn single_fold(row: &[f32], dst: &mut [f32]) {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            if m == f32::NEG_INFINITY && fully_masked(row) {
                dst.fill(1.0 / row.len() as f32);
                return;
            }
            let mut z = 0.0f32;
            for (d, &v) in dst.iter_mut().zip(row) {
                let e = (v - m).exp();
                *d = e;
                z += e;
            }
            for d in dst.iter_mut() {
                *d /= z;
            }
        }
        let specials =
            [0.0, -0.0, f32::NEG_INFINITY, f32::INFINITY, f32::NAN, -1e9, 1e-39, 3.5, -2.25];
        let mut seed = 0x2545_f491u32;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 17;
            seed ^= seed << 5;
            seed
        };
        for len in 1..20 {
            for _ in 0..400 {
                let row: Vec<f32> = (0..len)
                    .map(|_| match next() % 4 {
                        0 => specials[next() as usize % specials.len()],
                        1 => 0.0,
                        _ => (next() % 2001) as f32 / 100.0 - 10.0,
                    })
                    .collect();
                let (mut got, mut want) = (vec![0.0; len], vec![0.0; len]);
                softmax_row(&row, &mut got);
                single_fold(&row, &mut want);
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                        "row {row:?}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_rows_still_propagate() {
        // NaN logits are a bug upstream; they must stay visible.
        let x = Tensor::from_vec(&[1, 2], vec![f32::NAN, 0.0]);
        assert!(softmax_rows(&x).has_non_finite());
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let x = Tensor::from_vec(&[2, 4], vec![0.3, -0.7, 1.2, 0.0, 2.0, 2.0, 2.0, 2.0]);
        let ls = log_softmax_rows(&x);
        let s = softmax_rows(&x);
        for i in 0..8 {
            assert!((ls.data()[i] - s.data()[i].ln()).abs() < 1e-5);
        }
    }

    fn finite_diff_check(
        cols: usize,
        f: impl Fn(&Tensor) -> Tensor,
        bwd: impl Fn(&Tensor, &Tensor) -> Tensor,
    ) {
        let x = Tensor::from_vec(&[1, cols], (0..cols).map(|i| (i as f32 * 0.9).sin()).collect());
        // Loss = Σ w_i · f(x)_i with arbitrary weights.
        let wts: Vec<f32> = (0..cols).map(|i| 0.5 + 0.3 * i as f32).collect();
        let y = f(&x);
        let gout = Tensor::from_vec(&[1, cols], wts.clone());
        let gin = bwd(&y, &gout);
        let eps = 1e-3f32;
        for i in 0..cols {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp: f32 = f(&xp).data().iter().zip(&wts).map(|(a, b)| a * b).sum();
            let lm: f32 = f(&xm).data().iter().zip(&wts).map(|(a, b)| a * b).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - gin.data()[i]).abs() < 1e-2,
                "coord {i}: numeric {num} analytic {}",
                gin.data()[i]
            );
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        finite_diff_check(5, softmax_rows, softmax_backward);
    }

    #[test]
    fn log_softmax_backward_matches_finite_difference() {
        finite_diff_check(5, log_softmax_rows, log_softmax_backward);
    }
}
