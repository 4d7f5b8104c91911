//! Bitwise equivalence of the convolution kernels against a direct-loop
//! reference.
//!
//! `conv2d_forward` and the weight gradient of `conv2d_backward` run a
//! gather-tile direct convolution that reads each tap from the
//! zero-bordered input through offset tables; the input gradient is built
//! straight from the upstream gradient and `W`, one tile of input pixels
//! that read the same taps at a time. The kernels may reorder *where*
//! values are read from, but never the order in which any output is
//! accumulated, so every result must equal the plain nested loops below
//! bit for bit:
//!
//! * forward — one `mul_add` chain per output over the patch in ascending
//!   `(ci, ky, kx)` order, padding taps included as `0.0` factors, starting
//!   from `0.0`; the bias is added after the chain;
//! * weight gradient — one chain per weight over output pixels in
//!   ascending `(b, oy, ox)` order;
//! * input gradient — one chain over `C_out` per valid tap (the entry a
//!   column-matrix gradient would hold), and each input element sums its
//!   taps' chains in ascending `(ky, kx)` order, starting from `0.0`;
//! * bias gradient — a sequential sum in ascending `(b, oy, ox)` order.
//!
//! Every case runs at kernel thread counts 1, 2 and 3, under every kernel
//! flavor the host has. Non-finite inputs are compared with NaN
//! payloads folded to one pattern: when two NaN operands meet in one fused
//! multiply-add, the hardware instruction form decides which payload
//! survives, and that choice belongs to the compiler.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Mutex;
use vc_nn::ops::conv::{conv2d_backward, conv2d_forward, ConvCfg};
use vc_nn::ops::gemm::{
    host_kernel_flavor, kernel_threads, set_kernel_flavor_cap, set_kernel_threads, KernelFlavor,
};
use vc_nn::tensor::Tensor;

/// The thread and flavor knobs are process-global; tests in this binary
/// take this lock so each sweep really runs the setting it names.
static KNOBS: Mutex<()> = Mutex::new(());

/// The kernel flavors this host runs; the others are reported as skipped,
/// never as passed.
fn host_flavors() -> impl Iterator<Item = KernelFlavor> {
    KernelFlavor::ALL.into_iter().filter(|&f| {
        let runs = f <= host_kernel_flavor();
        if !runs {
            eprintln!("kernel flavor {} skipped: this host lacks it", f.name());
        }
        runs
    })
}

fn cfg(cin: usize, cout: usize, k: usize, s: usize, p: usize) -> ConvCfg {
    ConvCfg { in_channels: cin, out_channels: cout, kernel: k, stride: s, padding: p }
}

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

/// Direct-loop reference results.
struct Reference {
    out: Vec<f32>,
    gx: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
}

/// The input value under patch tap `(ci, ky, kx)` of output pixel
/// `(oy, ox)`, or `0.0` in the padding.
#[allow(clippy::too_many_arguments)]
fn tap(
    x: &[f32],
    shape: [usize; 4],
    c: &ConvCfg,
    b: usize,
    ci: usize,
    oy: usize,
    ox: usize,
    ky: usize,
    kx: usize,
) -> f32 {
    let [_, cin, h, w] = shape;
    let iy = (oy * c.stride + ky) as isize - c.padding as isize;
    let ix = (ox * c.stride + kx) as isize - c.padding as isize;
    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
        return 0.0;
    }
    x[((b * cin + ci) * h + iy as usize) * w + ix as usize]
}

fn reference(
    x: &[f32],
    shape: [usize; 4],
    wt: &[f32],
    bias: &[f32],
    gout: &[f32],
    c: &ConvCfg,
) -> Reference {
    let [bsz, cin, h, w] = shape;
    let (k, cout) = (c.kernel, c.out_channels);
    let (ho, wo) = (c.out_size(h).unwrap(), c.out_size(w).unwrap());
    let widx = |co: usize, ci: usize, ky: usize, kx: usize| ((co * cin + ci) * k + ky) * k + kx;
    let oidx = |b: usize, co: usize, oy: usize, ox: usize| ((b * cout + co) * ho + oy) * wo + ox;

    let mut out = vec![0.0f32; bsz * cout * ho * wo];
    for b in 0..bsz {
        for co in 0..cout {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for ci in 0..cin {
                        for ky in 0..k {
                            for kx in 0..k {
                                let xv = tap(x, shape, c, b, ci, oy, ox, ky, kx);
                                acc = xv.mul_add(wt[widx(co, ci, ky, kx)], acc);
                            }
                        }
                    }
                    out[oidx(b, co, oy, ox)] = acc + bias[co];
                }
            }
        }
    }

    let mut gw = vec![0.0f32; wt.len()];
    for co in 0..cout {
        for ci in 0..cin {
            for ky in 0..k {
                for kx in 0..k {
                    let mut acc = 0.0f32;
                    for b in 0..bsz {
                        for oy in 0..ho {
                            for ox in 0..wo {
                                let xv = tap(x, shape, c, b, ci, oy, ox, ky, kx);
                                acc = gout[oidx(b, co, oy, ox)].mul_add(xv, acc);
                            }
                        }
                    }
                    gw[widx(co, ci, ky, kx)] = acc;
                }
            }
        }
    }

    let mut gb = vec![0.0f32; cout];
    for (co, g) in gb.iter_mut().enumerate() {
        let mut chain = Vec::with_capacity(bsz * ho * wo);
        for b in 0..bsz {
            for oy in 0..ho {
                for ox in 0..wo {
                    chain.push(gout[oidx(b, co, oy, ox)]);
                }
            }
        }
        *g = chain.iter().sum::<f32>();
    }

    let mut gx = vec![0.0f32; x.len()];
    for b in 0..bsz {
        for ci in 0..cin {
            for iy in 0..h {
                for ix in 0..w {
                    let mut acc = 0.0f32;
                    for ky in 0..k {
                        for kx in 0..k {
                            let ny = (iy + c.padding) as isize - ky as isize;
                            let nx = (ix + c.padding) as isize - kx as isize;
                            if ny < 0 || nx < 0 {
                                continue;
                            }
                            let (ny, nx) = (ny as usize, nx as usize);
                            if ny % c.stride != 0 || nx % c.stride != 0 {
                                continue;
                            }
                            let (oy, ox) = (ny / c.stride, nx / c.stride);
                            if oy >= ho || ox >= wo {
                                continue;
                            }
                            let mut dcol = 0.0f32;
                            for co in 0..cout {
                                dcol = gout[oidx(b, co, oy, ox)]
                                    .mul_add(wt[widx(co, ci, ky, kx)], dcol);
                            }
                            acc += dcol;
                        }
                    }
                    gx[((b * cin + ci) * h + iy) * w + ix] = acc;
                }
            }
        }
    }
    Reference { out, gx, gw, gb }
}

/// Runs one convolution against the reference under every knob setting.
fn check(c: ConvCfg, shape: [usize; 4], x: Vec<f32>, wt: Vec<f32>, seed: u64) {
    let [bsz, cin, h, w] = shape;
    assert_eq!(cin, c.in_channels);
    let (ho, wo) = (c.out_size(h).unwrap(), c.out_size(w).unwrap());
    let bias = lcg_fill(c.out_channels, seed ^ 0xB1A5);
    let gout = lcg_fill(bsz * c.out_channels * ho * wo, seed ^ 0x600D);
    let want = reference(&x, shape, &wt, &bias, &gout, &c);

    let xt = Tensor::from_vec(&shape, x);
    let wtt = Tensor::from_vec(&[c.out_channels, cin, c.kernel, c.kernel], wt);
    let bt = Tensor::from_vec(&[c.out_channels], bias);
    let gt = Tensor::from_vec(&[bsz, c.out_channels, ho, wo], gout);

    let _knobs = KNOBS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let saved_threads = kernel_threads();
    for flavor in host_flavors() {
        set_kernel_flavor_cap(flavor);
        for threads in [1usize, 2, 3] {
            set_kernel_threads(threads);
            let ctx = format!("{c:?} input {shape:?} threads={threads} flavor={flavor:?}");
            let f = conv2d_forward(&xt, &wtt, &bt, &c);
            assert_eq!(f.output.shape(), &[bsz, c.out_channels, ho, wo], "{ctx}");
            assert_eq!(bits(f.output.data()), bits(&want.out), "forward: {ctx}");
            let g = conv2d_backward(&gt, &f.padded, &wtt, &shape, &c);
            assert_eq!(bits(g.gw.data()), bits(&want.gw), "weight grad: {ctx}");
            assert_eq!(bits(g.gb.data()), bits(&want.gb), "bias grad: {ctx}");
            assert_eq!(g.gx.shape(), &shape, "{ctx}");
            assert_eq!(bits(g.gx.data()), bits(&want.gx), "input grad: {ctx}");
        }
    }
    set_kernel_flavor_cap(KernelFlavor::Avx512);
    set_kernel_threads(saved_threads);
}

fn check_random(c: ConvCfg, shape: [usize; 4], seed: u64) {
    let x = lcg_fill(shape.iter().product(), seed);
    let wt = lcg_fill(c.out_channels * c.in_channels * c.kernel * c.kernel, seed ^ 0x3EED);
    check(c, shape, x, wt, seed);
}

#[test]
fn paper_trunk_layers_match_reference() {
    // The encoder's three convs on the paper grid (16 → 8 → 4 → 4).
    let layers =
        [(cfg(3, 8, 3, 2, 1), 16usize), (cfg(8, 16, 3, 2, 1), 8), (cfg(16, 16, 3, 1, 1), 4)];
    for (li, &(c, side)) in layers.iter().enumerate() {
        for bsz in [1usize, 3, 100] {
            check_random(c, [bsz, c.in_channels, side, side], (li * 1000 + bsz) as u64);
        }
    }
}

#[test]
fn ragged_pixel_counts_match_reference() {
    // HO·WO = 25 and 21: neither is a multiple of the 4-row tile.
    check_random(cfg(3, 8, 3, 1, 1), [2, 3, 5, 5], 11);
    check_random(cfg(4, 5, 3, 1, 0), [3, 4, 9, 5], 12);
    // More output channels than one 16-wide panel.
    check_random(cfg(2, 20, 3, 2, 1), [2, 2, 7, 6], 13);
}

#[test]
fn patch_longer_than_one_k_block_matches_reference() {
    // C_in·K·K = 288 crosses the GEMM's 256-deep k-block.
    check_random(cfg(32, 16, 3, 1, 1), [3, 32, 6, 6], 21);
    check_random(cfg(32, 8, 3, 2, 0), [2, 32, 7, 7], 22);
}

#[test]
fn kernel_and_padding_variants_match_reference() {
    check_random(cfg(3, 4, 1, 1, 0), [2, 3, 5, 4], 31);
    check_random(cfg(3, 4, 1, 2, 0), [2, 3, 5, 5], 32);
    check_random(cfg(2, 6, 5, 1, 2), [2, 2, 6, 5], 33);
    check_random(cfg(2, 6, 5, 2, 2), [3, 2, 9, 8], 34);
    check_random(cfg(3, 8, 3, 3, 2), [2, 3, 8, 8], 35);
    check_random(cfg(1, 3, 5, 1, 0), [1, 1, 5, 7], 36);
}

#[test]
fn non_finite_inputs_match_reference() {
    let c = cfg(3, 8, 3, 2, 1);
    let shape = [3usize, 3, 8, 8];
    let n = shape.iter().product();
    let mut x = lcg_fill(n, 41);
    x[0] = f32::NAN;
    x[17] = f32::INFINITY;
    x[100] = f32::NEG_INFINITY;
    let wt = lcg_fill(8 * 3 * 9, 42);
    check(c, shape, x.clone(), wt.clone(), 43);

    let mut wn = wt.clone();
    wn[5] = f32::NAN;
    wn[40] = f32::INFINITY;
    check(c, shape, lcg_fill(n, 44), wn.clone(), 45);
    check(c, shape, x, wn, 46);
}
