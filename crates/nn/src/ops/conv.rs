//! 2-D convolution as a direct gather-tile kernel, with an exact backward
//! pass.
//!
//! Layout conventions:
//! * input `x`: `[B, C_in, H, W]`
//! * weight `w`: `[C_out, C_in, K, K]`
//! * bias `b`: `[C_out]`
//! * output: `[B, C_out, HO, WO]`
//!
//! ## Direct convolution
//!
//! The forward pass copies the whole batch once into a zero-bordered
//! buffer `[B, C_in, H + 2p, W + 2p]`. In it, tap `q = (ci, ky, kx)` of
//! output pixel `n = (b, oy, ox)` sits at `pixel_base[n] + tap_off[q]`, with
//! `pixel_base[n] = b·C_in·(H+2p)·(W+2p) + (oy·s)·(W+2p) + ox·s` and
//! `tap_off[q] = (ci·(H+2p) + ky)·(W+2p) + kx`. The register tile
//! [`crate::ops::simd::gather_tile`] reads its A operand through those two
//! offset lists, so no column matrix is ever built:
//! * forward — rows are output pixels (`pixel_base`), `k` runs over the
//!   taps (`tap_off`), and the lanes are 16-wide `C_out` panels of `Wᵀ`.
//!   One epilogue pass adds the bias and stores `[B, C_out, HO, WO]`, so
//!   the layer boundary stays NCHW;
//! * `dW` — the roles swap: rows are taps, `k` runs over the whole batch's
//!   pixels in `KC`-pixel blocks with a reload in between, and the lanes
//!   are `C_out` over the pixel-major `goutᵀ`;
//! * `dX` — straight from `gout` and `W`, with no column gradient: rows
//!   are input pixels, grouped into classes that read the same taps
//!   (border rows and columns, and for stride 2 the parity classes), so a
//!   register tile of pixels shares one tap list. For each tap, `k` runs
//!   over `C_out` and the lanes are `C_in`
//!   (`simd::tap_sum_tile`); each tap's chain is added into
//!   the pixel's sum, which is stored once, NCHW.
//!
//! The zero-bordered input is the saved operand of
//! [`crate::op::Op::Conv2d`]. [`conv2d_backward`] is `conv2d_weight_grads`
//! plus `conv2d_input_grad`; the autograd tape calls the second only when
//! the input needs a gradient. The direct kernels tally their `(m, k, n)`
//! into the GEMM counters, so telemetry counts one product per pass as
//! before. They run on the calling thread at every kernel thread count.
//!
//! ## Geometry
//!
//! The offset lists and the input gradient's tap classes depend only on
//! `(cfg, H, W)`.
//! Each thread builds them once per shape and keeps them in a small cache,
//! so the kernels are straight table-driven loops with no per-element
//! border test, and steady-state calls allocate nothing. Padding taps read
//! the zero border, so they need no special case either.
//!
//! ## Bitwise equality with direct loops
//!
//! The kernels move values, never the order they are summed in, so results
//! equal the plain nested loops bit for bit (pinned by
//! `crates/nn/tests/conv_equivalence.rs`):
//! * forward — each output is one ascending-`(ci, ky, kx)` FMA chain over
//!   its patch, padding taps included, started from zero, then `+ bias`;
//! * `dW` — one ascending-pixel chain per weight. `fma` commutes in its two
//!   factors and the k-blocks reload rather than reassociate, so the
//!   row/column swap changes nothing;
//! * `dX` — per valid tap, one ascending-`C_out` chain from zero, the entry
//!   a column gradient `goutᵀ · W` would hold; each input element adds
//!   them in ascending `(ky, kx)` into a sum started at `+0.0`, as col2im
//!   summed the stored entries. Only valid taps are visited: a tap in the
//!   padding is not in the sum, so no `0·∞` can enter it;
//! * `gb` — a sequential sum in ascending `(b, oy, ox)`.
//!
//! These are the chains the blocked GEMM computes on a materialised
//! column matrix. Every thread count and every kernel flavor give the
//! same bits. Scratch comes from [`crate::arena`]. The input gradient
//! still tallies the `[B·HO·WO, C_out]·[C_out, C_in·K²]` product of that
//! lowering, so the kernel counters read the same.

use crate::arena;
use crate::ops::gemm;
use crate::ops::simd::{self, NR};
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// Pixels per weight-gradient k-block: one block of a `goutᵀ` panel is
/// 16 KiB, which stays in L1 while every tap row sweeps it.
const KC: usize = 256;

/// Static configuration of a convolution (shapes, stride, padding).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvCfg {
    /// Input channels `C_in`.
    pub in_channels: usize,
    /// Output channels `C_out`.
    pub out_channels: usize,
    /// Square kernel side length `K`.
    pub kernel: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl ConvCfg {
    /// Output spatial size for an input spatial size, or `None` if the
    /// kernel does not fit.
    pub fn out_size(&self, input: usize) -> Option<usize> {
        let padded = input + 2 * self.padding;
        if padded < self.kernel {
            return None;
        }
        Some((padded - self.kernel) / self.stride + 1)
    }

    /// Patch length `C_in·K·K`: the taps per output pixel.
    fn patch(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Index geometry of one `(cfg, H, W)` convolution over a single batch item.
struct Geometry {
    cfg: ConvCfg,
    h: usize,
    w: usize,
    ho: usize,
    wo: usize,
    /// `tap_off[q]`: offset of tap `q = (ci, ky, kx)` from its output
    /// pixel's base in the zero-bordered item `[C_in, H + 2p, W + 2p]`.
    tap_off: Vec<usize>,
    /// `pixel_off[n]`: base of output pixel `n = (oy, ox)` within one
    /// zero-bordered item.
    pixel_off: Vec<usize>,
    /// The input pixels grouped by the taps that read them, for the input
    /// gradient.
    classes: Vec<TapClass>,
}

/// The input pixels of one item whose valid taps are the same `(ky, kx)`
/// list. Along a tap list the output pixel `oy·WO + ox` strictly falls, so
/// each pixel's last tap reads its smallest one, the pixel's anchor.
struct TapClass {
    /// `(ky·K + kx, off)` in ascending `(ky, kx)`: the tap and its output
    /// pixel's offset from the anchor.
    taps: Vec<(usize, usize)>,
    /// `(anchor, iy·W + ix)` per pixel, in ascending `(iy, ix)`.
    pixels: Vec<(usize, usize)>,
}

impl Geometry {
    fn new(cfg: &ConvCfg, h: usize, w: usize, ho: usize, wo: usize) -> Self {
        let (c, k, s, p) = (cfg.in_channels, cfg.kernel, cfg.stride, cfg.padding);
        let (hp, wp) = (h + 2 * p, w + 2 * p);
        let patch = cfg.patch();

        let mut tap_off = Vec::with_capacity(patch);
        for ci in 0..c {
            for ky in 0..k {
                tap_off.extend((0..k).map(|kx| (ci * hp + ky) * wp + kx));
            }
        }
        let mut pixel_off = Vec::with_capacity(ho * wo);
        for oy in 0..ho {
            pixel_off.extend((0..wo).map(|ox| oy * s * wp + ox * s));
        }

        // Output coordinate whose tap `kk` reads padded coordinate `ip`.
        let source = |ip: usize, kk: usize, out: usize| {
            let d = ip.checked_sub(kk)?;
            (d % s == 0 && d / s < out).then_some(d / s)
        };
        let mut classes: Vec<TapClass> = Vec::new();
        let mut taps = Vec::with_capacity(k * k);
        for iy in 0..h {
            for ix in 0..w {
                taps.clear();
                for ky in 0..k {
                    let Some(oy) = source(iy + p, ky, ho) else { continue };
                    for kx in 0..k {
                        let Some(ox) = source(ix + p, kx, wo) else { continue };
                        taps.push((ky * k + kx, oy * wo + ox));
                    }
                }
                let anchor = taps.last().map_or(0, |&(_, n)| n);
                let rel = taps.iter().map(|&(q, n)| (q, n - anchor));
                let pixel = (anchor, iy * w + ix);
                match classes.iter_mut().find(|c| c.taps.iter().copied().eq(rel.clone())) {
                    Some(class) => class.pixels.push(pixel),
                    None => classes.push(TapClass { taps: rel.collect(), pixels: vec![pixel] }),
                }
            }
        }
        Self { cfg: *cfg, h, w, ho, wo, tap_off, pixel_off, classes }
    }

    /// Floats in one zero-bordered item.
    fn padded_item(&self) -> usize {
        let p = self.cfg.padding;
        self.cfg.in_channels * (self.h + 2 * p) * (self.w + 2 * p)
    }

    /// `pixel_base` for a batch of `bsz` items: every output pixel's base
    /// in the zero-bordered batch, in ascending `(b, oy, ox)`.
    fn pixel_bases(&self, bsz: usize) -> Vec<usize> {
        let mut bases = arena::take_usize(bsz * self.pixel_off.len());
        for b in 0..bsz {
            let item = b * self.padded_item();
            bases.extend(self.pixel_off.iter().map(|&o| item + o));
        }
        bases
    }
}

/// Geometries kept per thread; a model has a handful of conv shapes.
const GEOMETRY_CACHE: usize = 16;

thread_local! {
    static GEOMETRIES: RefCell<Vec<Rc<Geometry>>> = const { RefCell::new(Vec::new()) };
}

/// The cached geometry for `(cfg, h, w)`, built on first use. Panics with
/// [`crate::error::NnError::KernelTooLarge`] if the kernel does not fit.
fn geometry(cfg: &ConvCfg, h: usize, w: usize) -> Rc<Geometry> {
    GEOMETRIES.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(g) = cache.iter().find(|g| g.cfg == *cfg && g.h == h && g.w == w) {
            return Rc::clone(g);
        }
        let out_size = |input: usize| {
            cfg.out_size(input).unwrap_or_else(|| {
                panic!(
                    "{}",
                    crate::error::NnError::KernelTooLarge {
                        input,
                        kernel: cfg.kernel,
                        padding: cfg.padding,
                    }
                )
            })
        };
        let g = Rc::new(Geometry::new(cfg, h, w, out_size(h), out_size(w)));
        if cache.len() == GEOMETRY_CACHE {
            cache.remove(0);
        }
        cache.push(Rc::clone(&g));
        g
    })
}

/// Copies `x: [B, C_in, H, W]` into a fresh zero-bordered
/// `[B, C_in, H + 2p, W + 2p]`.
fn pad(x: &[f32], geo: &Geometry) -> Vec<f32> {
    let (h, w, p) = (geo.h, geo.w, geo.cfg.padding);
    let (hp, wp) = (h + 2 * p, w + 2 * p);
    let mut padded = arena::take_f32_zeroed(x.len() / (h * w) * hp * wp);
    for (dst, plane) in padded.chunks_exact_mut(hp * wp).zip(x.chunks_exact(h * w)) {
        for (drow, row) in dst[p * wp..].chunks_exact_mut(wp).zip(plane.chunks_exact(w)) {
            // An element loop, not `copy_from_slice`: rows are a few floats
            // long, and a `memcpy` call per row costs more than the copy.
            for (d, &v) in drow[p..].iter_mut().zip(row) {
                *d = v;
            }
        }
    }
    padded
}

/// Result of a convolution forward pass: output plus the saved
/// zero-bordered input needed by the backward pass.
pub struct ConvForward {
    /// Convolution output, `[B, C_out, HO, WO]`.
    pub output: Tensor,
    /// The zero-bordered input, `[B, C_in, H + 2p, W + 2p]`.
    pub padded: Tensor,
}

/// Forward convolution. Panics on shape mismatches.
pub fn conv2d_forward(x: &Tensor, w: &Tensor, b: &Tensor, cfg: &ConvCfg) -> ConvForward {
    assert_eq!(x.ndim(), 4, "conv input must be [B,C,H,W]");
    let (bsz, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    assert_eq!(c, cfg.in_channels, "input channels mismatch");
    assert_eq!(
        w.shape(),
        &[cfg.out_channels, cfg.in_channels, cfg.kernel, cfg.kernel],
        "weight shape mismatch"
    );
    assert_eq!(b.shape(), &[cfg.out_channels], "bias shape mismatch");
    let geo = geometry(cfg, h, wd);
    let (co, patch, ns) = (cfg.out_channels, cfg.patch(), geo.ho * geo.wo);
    let n = bsz * ns;
    gemm::tally(n, patch, co);

    let padded = pad(x.data(), &geo);
    let rows = geo.pixel_bases(bsz);
    // Wᵀ as zero-padded NR-wide C_out panels: panel `j` holds
    // `w[j·NR + l][q]` at `q·NR + l`.
    let panels = co.div_ceil(NR);
    let mut wt = arena::take_f32_zeroed(panels * patch * NR);
    for o in 0..co {
        let base = (o / NR) * patch * NR + o % NR;
        for (q, &v) in w.data()[o * patch..(o + 1) * patch].iter().enumerate() {
            wt[base + q * NR] = v;
        }
    }

    // y = (gathered colsT) · Wᵀ: [B·HO·WO, C_out].
    let mut y = arena::take_f32_zeroed(n * co);
    let flavor = gemm::flavor();
    for j in 0..panels {
        let panel = &wt[j * patch * NR..(j + 1) * patch * NR];
        let nr = NR.min(co - j * NR);
        // Clamped: with an empty batch `y` is empty.
        let y = &mut y[(j * NR).min(n * co)..];
        simd::gather_tile(&padded, &rows, &geo.tap_off, panel, y, co, nr, true, flavor);
    }

    // Epilogue: bias add and the NCHW store in one pass.
    let mut out = arena::take_f32(n * co);
    for item in y.chunks_exact(ns * co) {
        for (ch, &bias) in b.data().iter().enumerate() {
            out.extend(item.chunks_exact(co).map(|px| px[ch] + bias));
        }
    }
    arena::put_f32(wt);
    arena::put_f32(y);
    arena::put_usize(rows);
    let (hp, wp) = (h + 2 * cfg.padding, wd + 2 * cfg.padding);
    ConvForward {
        output: Tensor::from_vec(&[bsz, co, geo.ho, geo.wo], out),
        padded: Tensor::from_vec(&[bsz, c, hp, wp], padded),
    }
}

/// Gradients of a convolution with respect to input, weight and bias.
pub struct ConvGrads {
    /// Gradient w.r.t. the input.
    pub gx: Tensor,
    /// Gradient w.r.t. the weight.
    pub gw: Tensor,
    /// Gradient w.r.t. the bias.
    pub gb: Tensor,
}

/// Backward convolution given the upstream gradient `gout` (`[B,C_out,HO,WO]`),
/// the saved zero-bordered input, the weight, and the original input
/// shape: `conv2d_weight_grads` plus `conv2d_input_grad`.
pub fn conv2d_backward(
    gout: &Tensor,
    padded: &Tensor,
    w: &Tensor,
    x_shape: &[usize],
    cfg: &ConvCfg,
) -> ConvGrads {
    let (gw, gb) = conv2d_weight_grads(gout, padded, cfg);
    ConvGrads { gx: conv2d_input_grad(gout, w, x_shape, cfg), gw, gb }
}

/// Weight and bias gradients `(gw, gb)` from the upstream gradient and the
/// saved zero-bordered input: the direct `dW` kernel, then one transpose
/// of the `[C_in·K·K, C_out]` result.
pub(crate) fn conv2d_weight_grads(
    gout: &Tensor,
    padded: &Tensor,
    cfg: &ConvCfg,
) -> (Tensor, Tensor) {
    let p = cfg.padding;
    let &[bsz, c, hp, wp] = padded.shape() else { panic!("saved input must be [B,C,H,W]") };
    assert_eq!(c, cfg.in_channels, "saved input channels");
    assert!(hp >= 2 * p && wp >= 2 * p, "saved input lacks its border");
    let geo = geometry(cfg, hp - 2 * p, wp - 2 * p);
    let (co, patch, ns) = (cfg.out_channels, cfg.patch(), geo.ho * geo.wo);
    let n = bsz * ns;
    assert_eq!(gout.numel(), n * co, "upstream gradient size");
    gemm::tally(co, n, patch);

    // goutᵀ as zero-padded NR-wide C_out panels: panel `j` holds
    // `gout[b][j·NR + l][px]` at `(j·B·HO·WO + b·ns + px)·NR + l`.
    let panels = co.div_ceil(NR);
    let mut gt = arena::take_f32_zeroed(panels * n * NR);
    for (b, item) in gout.data().chunks_exact(co * ns).enumerate() {
        for j in 0..panels {
            let chans = &item[j * NR * ns..(j * NR + NR.min(co - j * NR)) * ns];
            let dst = &mut gt[(j * n + b * ns) * NR..(j * n + (b + 1) * ns) * NR];
            for (l, chan) in chans.chunks_exact(ns).enumerate() {
                for (d, &v) in dst[l..].iter_mut().step_by(NR).zip(chan) {
                    *d = v;
                }
            }
        }
    }
    // `gb` sums each channel in ascending `(b, oy, ox)`: lane `l` of a
    // panel's rows, from the value `Iterator::sum` starts at, so the bits
    // are those of a plain sum over the channel.
    let mut gb = Tensor::zeros(&[co]);
    for (j, g) in gb.data_mut().chunks_mut(NR).enumerate() {
        let mut acc = [std::iter::empty::<f32>().sum::<f32>(); NR];
        for lanes in gt[j * n * NR..(j + 1) * n * NR].chunks_exact(NR) {
            for (a, &v) in acc.iter_mut().zip(lanes) {
                *a += v;
            }
        }
        g.copy_from_slice(&acc[..g.len()]);
    }

    // gwT = Σ_pixels (gathered colsT)ᵀ · goutᵀ: [C_in·K·K, C_out].
    let cols = geo.pixel_bases(bsz);
    let mut gwt = arena::take_f32_zeroed(patch * co);
    let flavor = gemm::flavor();
    let mut kb = 0;
    while kb < n {
        let kc = KC.min(n - kb);
        for j in 0..panels {
            let panel = &gt[(j * n + kb) * NR..(j * n + kb + kc) * NR];
            let nr = NR.min(co - j * NR);
            // Clamped: with no taps (`C_in·K·K = 0`) `gwt` is empty.
            let (block, out) = (&cols[kb..kb + kc], &mut gwt[(j * NR).min(patch * co)..]);
            simd::gather_tile(
                padded.data(),
                &geo.tap_off,
                block,
                panel,
                out,
                co,
                nr,
                kb == 0,
                flavor,
            );
        }
        kb += kc;
    }
    let mut gw = arena::take_f32(co * patch);
    gemm::transpose_into(&gwt, patch, co, &mut gw);
    arena::put_f32(gt);
    arena::put_f32(gwt);
    arena::put_usize(cols);
    (Tensor::from_vec(&[co, cfg.in_channels, cfg.kernel, cfg.kernel], gw), gb)
}

/// Input gradient `[B, C_in, H, W]`, straight from `gout` and `W`: each
/// input pixel sums, over its valid taps in ascending `(ky, kx)`, one
/// ascending-`C_out` chain per `C_in` lane.
pub(crate) fn conv2d_input_grad(
    gout: &Tensor,
    w: &Tensor,
    x_shape: &[usize],
    cfg: &ConvCfg,
) -> Tensor {
    assert_eq!(x_shape.len(), 4, "conv input must be [B,C,H,W]");
    let geo = geometry(cfg, x_shape[2], x_shape[3]);
    let (ci, co, ns) = (cfg.in_channels, cfg.out_channels, geo.ho * geo.wo);
    let (bsz, hw, kk) = (x_shape[0], geo.h * geo.w, cfg.kernel * cfg.kernel);
    assert_eq!(x_shape[1], ci, "input channels mismatch");
    assert_eq!(gout.numel(), bsz * ns * co, "upstream gradient size");
    // The product a column-matrix lowering would run: `goutᵀ · W`.
    gemm::tally(bsz * ns, co, cfg.patch());

    // W as zero-padded NR-wide C_in panels: panel `j` holds
    // `w[o][j·NR + l][q]` at `(q·C_out + o)·NR + l`.
    let panels = ci.div_ceil(NR);
    let mut wp = arena::take_f32_zeroed(panels * kk * co * NR);
    for (o, filter) in w.data().chunks_exact(ci * kk).enumerate() {
        for (c, taps) in filter.chunks_exact(kk).enumerate() {
            let base = (c / NR * kk * co + o) * NR + c % NR;
            for (q, &v) in taps.iter().enumerate() {
                wp[base + q * co * NR] = v;
            }
        }
    }

    // Zeroed only to materialise the length: every element is stored once.
    let mut gx = arena::take_f32_zeroed(bsz * ci * hw);
    let mut rows = arena::take_usize(bsz * hw);
    let mut outs = arena::take_usize(bsz * hw);
    let flavor = gemm::flavor();
    for class in &geo.classes {
        rows.clear();
        outs.clear();
        for b in 0..bsz {
            for &(anchor, at) in &class.pixels {
                rows.push(b * co * ns + anchor);
                outs.push(b * ci * hw + at);
            }
        }
        for j in 0..panels {
            let panel = &wp[j * kk * co * NR..(j + 1) * kk * co * NR];
            let (nr, gx) = (NR.min(ci - j * NR), &mut gx[j * NR * hw..]);
            let taps = &class.taps;
            simd::tap_sum_tile(gout.data(), &rows, taps, panel, co, ns, gx, &outs, hw, nr, flavor);
        }
    }
    arena::put_f32(wp);
    arena::put_usize(rows);
    arena::put_usize(outs);
    Tensor::from_vec(x_shape, gx)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn cfg(cin: usize, cout: usize, k: usize, s: usize, p: usize) -> ConvCfg {
        ConvCfg { in_channels: cin, out_channels: cout, kernel: k, stride: s, padding: p }
    }

    #[test]
    fn out_size_matches_formula() {
        let c = cfg(1, 1, 3, 1, 1);
        assert_eq!(c.out_size(8), Some(8));
        let c2 = cfg(1, 1, 3, 2, 0);
        assert_eq!(c2.out_size(7), Some(3));
        let c3 = cfg(1, 1, 5, 1, 0);
        assert_eq!(c3.out_size(3), None);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // A 1x1 kernel with weight 1 and bias 0 is the identity map.
        let c = cfg(1, 1, 1, 1, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let w = Tensor::ones(&[1, 1, 1, 1]);
        let b = Tensor::zeros(&[1]);
        let f = conv2d_forward(&x, &w, &b, &c);
        assert_eq!(f.output.data(), x.data());
    }

    #[test]
    fn averaging_kernel_known_value() {
        // 2x2 kernel of 0.25 over a 2x2 input with stride 2 = mean of input.
        let c = cfg(1, 1, 2, 2, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let w = Tensor::full(&[1, 1, 2, 2], 0.25);
        let b = Tensor::zeros(&[1]);
        let f = conv2d_forward(&x, &w, &b, &c);
        assert_eq!(f.output.shape(), &[1, 1, 1, 1]);
        assert!((f.output.item() - 2.5).abs() < 1e-6);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let c = cfg(1, 2, 1, 1, 0);
        let x = Tensor::from_vec(&[1, 1, 1, 2], vec![1., 2.]);
        let w = Tensor::from_vec(&[2, 1, 1, 1], vec![1., 0.]);
        let b = Tensor::from_vec(&[2], vec![10., 20.]);
        let f = conv2d_forward(&x, &w, &b, &c);
        assert_eq!(f.output.data(), &[11., 12., 20., 20.]);
    }

    #[test]
    fn padding_zero_extends() {
        let c = cfg(1, 1, 3, 1, 1);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let b = Tensor::zeros(&[1]);
        let f = conv2d_forward(&x, &w, &b, &c);
        // Each output sees the 4 ones minus those cut off by the border.
        assert_eq!(f.output.shape(), &[1, 1, 2, 2]);
        assert_eq!(f.output.data(), &[4., 4., 4., 4.]);
    }

    #[test]
    fn batched_forward_matches_per_item() {
        // Running a 3-item batch must equal running the items one at a time.
        let c = cfg(2, 3, 3, 1, 1);
        let (bsz, ch, h, w) = (3usize, 2usize, 5usize, 4usize);
        let x: Vec<f32> = (0..bsz * ch * h * w).map(|i| (i as f32 * 0.7).sin()).collect();
        let wt: Vec<f32> = (0..3 * 2 * 9).map(|i| (i as f32 * 1.3).cos()).collect();
        let wt = Tensor::from_vec(&[3, 2, 3, 3], wt);
        let bias = Tensor::from_vec(&[3], vec![0.1, -0.2, 0.3]);
        let batch = Tensor::from_vec(&[bsz, ch, h, w], x.clone());
        let full = conv2d_forward(&batch, &wt, &bias, &c);
        let item_out = full.output.numel() / bsz;
        for bi in 0..bsz {
            let item = Tensor::from_vec(
                &[1, ch, h, w],
                x[bi * ch * h * w..(bi + 1) * ch * h * w].to_vec(),
            );
            let single = conv2d_forward(&item, &wt, &bias, &c);
            assert_eq!(
                &full.output.data()[bi * item_out..(bi + 1) * item_out],
                single.output.data(),
                "batch item {bi} diverges from single-item conv"
            );
        }
    }

    #[test]
    fn gather_offsets_and_input_grad_are_adjoint() {
        // With colsT[n][q] = padded[pixel_base[n] + tap_off[q]],
        // <colsT·Wᵀ, g> == <x, input_grad(g, W)> for random-ish x, W, g:
        // the transpose relationship that makes the backward pass exact.
        let c = cfg(2, 3, 3, 2, 1);
        let (bsz, ch, h, w) = (2usize, 2usize, 5usize, 4usize);
        let geo = geometry(&c, h, w);
        let ns = geo.ho * geo.wo;
        let x: Vec<f32> = (0..bsz * ch * h * w).map(|i| (i as f32 * 0.7).sin()).collect();
        let wt: Vec<f32> = (0..3 * c.patch()).map(|i| (i as f32 * 0.3).sin()).collect();
        let g: Vec<f32> = (0..bsz * 3 * ns).map(|i| (i as f32 * 1.3).cos()).collect();

        let padded = pad(&x, &geo);
        let mut lhs = 0.0f32;
        for (n, &base) in geo.pixel_bases(bsz).iter().enumerate() {
            let (b, px) = (n / ns, n % ns);
            for (o, filter) in wt.chunks_exact(c.patch()).enumerate() {
                let y: f32 =
                    geo.tap_off.iter().zip(filter).map(|(&q, &f)| padded[base + q] * f).sum();
                lhs += y * g[(b * 3 + o) * ns + px];
            }
        }

        let gx = conv2d_input_grad(
            &Tensor::from_vec(&[bsz, 3, geo.ho, geo.wo], g),
            &Tensor::from_vec(&[3, ch, 3, 3], wt),
            &[bsz, ch, h, w],
            &c,
        );
        let rhs: f32 = x.iter().zip(gx.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs {lhs} rhs {rhs}");
    }

    #[test]
    fn backward_matches_finite_difference() {
        let c = cfg(2, 3, 3, 1, 1);
        let xs = [2usize, 2, 4, 4];
        let mut seed = 0u32;
        let mut next = || {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            (seed >> 9) as f32 / (1u32 << 23) as f32 - 0.5
        };
        let x = Tensor::from_vec(&xs, (0..64).map(|_| next()).collect());
        let w = Tensor::from_vec(&[3, 2, 3, 3], (0..54).map(|_| next()).collect());
        let b = Tensor::from_vec(&[3], (0..3).map(|_| next()).collect());

        // Loss = sum of outputs, so gout = ones.
        let f = conv2d_forward(&x, &w, &b, &c);
        let gout = Tensor::ones(f.output.shape());
        let grads = conv2d_backward(&gout, &f.padded, &w, x.shape(), &c);

        let eps = 1e-2f32;
        // Check a sample of weight coordinates.
        for &i in &[0usize, 7, 20, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let fp = conv2d_forward(&x, &wp, &b, &c).output.sum();
            let fm = conv2d_forward(&x, &wm, &b, &c).output.sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grads.gw.data()[i]).abs() < 5e-2,
                "gw[{i}] numeric {num} analytic {}",
                grads.gw.data()[i]
            );
        }
        // Check a sample of input coordinates.
        for &i in &[0usize, 5, 17, 31, 40, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = conv2d_forward(&xp, &w, &b, &c).output.sum();
            let fm = conv2d_forward(&xm, &w, &b, &c).output.sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - grads.gx.data()[i]).abs() < 2e-2,
                "gx[{i}] numeric {num} analytic {}",
                grads.gx.data()[i]
            );
        }
        // Bias gradient is exactly the number of output positions per
        // channel times the batch size.
        let n_spatial = (2 * f.output.shape()[2] * f.output.shape()[3]) as f32;
        for co in 0..3 {
            assert!((grads.gb.data()[co] - n_spatial).abs() < 1e-3);
        }
    }
}
