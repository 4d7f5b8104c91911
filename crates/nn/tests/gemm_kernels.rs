//! Regression and equivalence tests for the blocked GEMM/conv kernel layer.
//!
//! Four families:
//!
//! 1. **NaN propagation** — the seed kernel's `if a == 0.0 { continue }`
//!    shortcut silently converted `0 · NaN` and `0 · ∞` into `0`, hiding
//!    corrupted activations from the training chief's gradient quarantine.
//!    These tests fail against that kernel and pin the IEEE-faithful
//!    behavior through every public entry point (matmul, conv, a
//!    linear-layer computation).
//! 2. **Blocked vs naive equivalence** — seeded randomized comparison of
//!    the blocked kernel against the unblocked reference across awkward
//!    shapes (primes, non-multiples of the tile, degenerate dims), exact to
//!    the bit.
//! 3. **Transposed operands** — `gemm_with_a_panels` over a producer
//!    that packs a stored A must equal `gemm` on that A bit for bit, on
//!    ragged, multi-block and empty shapes, under every kernel flavor; so
//!    must `matmul_tn`, whose sequential route is such a producer, and
//!    `gemm_nt`, which packs `Bᵀ` straight from `B`, at the PPO backward's
//!    shapes.
//! 4. **Kernel counters** — a conv forward plus a full backward tallies the
//!    three products of the column-matrix lowering it replaced.
//! 5. **Determinism** — same inputs produce bit-identical outputs across
//!    repeated runs and across kernel thread settings, the property
//!    checkpoint-resume relies on.
//!
//! The kernel flavor and telemetry knobs are process-global, so every test
//! here takes [`knobs`] first.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::for_each_host_flavor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, PoisonError};
use vc_nn::ops::conv::{conv2d_forward, conv2d_input_grad, conv2d_weight_grads};
use vc_nn::ops::gemm;
use vc_nn::prelude::*;

static KNOBS: Mutex<()> = Mutex::new(());

/// Serializes the tests of this binary (see the module docs).
fn knobs() -> MutexGuard<'static, ()> {
    KNOBS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tensor2(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    Tensor::from_vec(&[rows, cols], data)
}

// ------------------------------------------------------- NaN propagation

#[test]
fn matmul_zero_times_nan_poisons_output() {
    let _knobs = knobs();
    // Row of zeros times a column containing NaN: the zero-skip kernel
    // returned 0 here; IEEE 754 demands NaN.
    let a = Tensor::from_vec(&[1, 3], vec![0.0, 0.0, 0.0]);
    let b = Tensor::from_vec(&[3, 2], vec![f32::NAN, 1.0, 2.0, 3.0, 4.0, 5.0]);
    let c = a.matmul(&b);
    assert!(c.data()[0].is_nan(), "0·NaN must stay NaN, got {}", c.data()[0]);
    assert_eq!(c.data()[1], 0.0, "column without the NaN is unaffected");
}

#[test]
fn matmul_zero_times_inf_poisons_output() {
    let _knobs = knobs();
    let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
    let b = Tensor::from_vec(&[2, 2], vec![f32::INFINITY, 0.0, 5.0, 6.0]);
    let c = a.matmul(&b);
    assert!(c.data()[0].is_nan(), "0·∞ must produce NaN, got {}", c.data()[0]);
    assert_eq!(c.data()[1], 6.0, "finite lanes are unaffected");
}

#[test]
fn conv_zero_weight_times_nan_input_poisons_output() {
    let _knobs = knobs();
    // A poisoned activation map convolved with all-zero weights: the old
    // per-item matmul silently produced a clean zero output.
    let cfg = ConvCfg { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
    let mut x = vec![0.5f32; 2 * 16];
    x[5] = f32::NAN;
    let x = Tensor::from_vec(&[2, 1, 4, 4], x);
    let w = Tensor::from_vec(&[1, 1, 3, 3], vec![0.0; 9]);
    let b = Tensor::from_vec(&[1], vec![0.0]);
    let out = conv2d_forward(&x, &w, &b, &cfg).output;
    assert!(
        out.data().iter().any(|v| v.is_nan()),
        "NaN input through zero weights must surface in the conv output"
    );
    // The second batch item never touches the NaN and stays finite.
    assert!(out.data()[16..].iter().all(|v| v.is_finite()), "clean item must stay clean");
}

#[test]
fn linear_layer_zero_weight_times_nan_input_poisons_output() {
    let _knobs = knobs();
    // x · W + b with NaN in x and W = 0 — the shape every Linear layer
    // computes. A NaN activation must reach the output even through dead
    // (all-zero) weights, or the chief's NaN quarantine never fires.
    let x = Tensor::from_vec(&[1, 3], vec![1.0, f32::NAN, 2.0]);
    let w = Tensor::from_vec(&[3, 2], vec![0.0; 6]);
    let y = x.matmul(&w);
    assert!(y.data().iter().all(|v| v.is_nan()), "NaN·0 must poison the linear output: {y:?}");
}

// ------------------------------------------- blocked vs naive equivalence

#[test]
fn randomized_blocked_matches_naive_bitwise() {
    let _knobs = knobs();
    // Awkward shapes: primes, tile-size non-multiples, degenerate dims.
    let shapes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 3, 1),
        (5, 7, 11),
        (13, 17, 19),
        (31, 37, 41),
        (1, 97, 1),
        (64, 1, 64),
        (3, 300, 5),
        (47, 53, 8),
        (16, 16, 16),
    ];
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for &(m, k, n) in shapes {
        let a = tensor2(&mut rng, m, k);
        let b = tensor2(&mut rng, k, n);
        let mut want = vec![0.0f32; m * n];
        gemm::matmul_naive(a.data(), b.data(), &mut want, m, k, n);
        for threads in [1usize, 2, 4] {
            let mut got = vec![0.0f32; m * n];
            gemm::gemm(a.data(), b.data(), &mut got, m, k, n, threads);
            let same = got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "blocked != naive for m={m} k={k} n={n} threads={threads}");
        }
    }
}

/// Fewer rows than one register tile skip packing and run the reference
/// chain. Those rows must equal both `matmul_naive` and the same rows of a
/// taller product that goes through the packed kernel — the property the
/// batch-of-one ≡ batched sampling tests rest on.
#[test]
fn small_m_route_matches_naive_and_the_packed_rows() {
    let _knobs = knobs();
    const TALL: usize = 9; // above MR, with a ragged tail tile
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for m in [1usize, 2, 3] {
        for k in [0usize, 1, 5, 256, 300] {
            for n in [1usize, 11, 16, 17, 128] {
                let a = tensor2(&mut rng, TALL, k);
                let b = tensor2(&mut rng, k, n);
                let mut tall = vec![0.0f32; TALL * n];
                gemm::gemm(a.data(), b.data(), &mut tall, TALL, k, n, 1);
                let a_small = &a.data()[..m * k];
                let mut want = vec![0.0f32; m * n];
                gemm::matmul_naive(a_small, b.data(), &mut want, m, k, n);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&tall[..m * n]), bits(&want), "packed rows m={m} k={k} n={n}");
                for threads in [1usize, 2] {
                    let mut got = vec![f32::NAN; m * n];
                    gemm::gemm(a_small, b.data(), &mut got, m, k, n, threads);
                    assert_eq!(bits(&got), bits(&want), "m={m} k={k} n={n} threads={threads}");
                }
            }
        }
    }
}

#[test]
fn transposed_variants_match_naive_on_random_shapes() {
    let _knobs = knobs();
    let mut rng = StdRng::seed_from_u64(42);
    for &(m, k, n) in &[(3, 5, 7), (13, 8, 21), (1, 19, 4)] {
        let a = tensor2(&mut rng, m, k);
        let bt = tensor2(&mut rng, n, k);
        let mut got = vec![0.0f32; m * n];
        gemm::gemm_nt(a.data(), bt.data(), &mut got, m, k, n, 1);
        let mut b_mat = Vec::new();
        gemm::transpose_into(bt.data(), n, k, &mut b_mat);
        let mut want = vec![0.0f32; m * n];
        gemm::matmul_naive(a.data(), &b_mat, &mut want, m, k, n);
        assert_eq!(got, want, "gemm_nt m={m} k={k} n={n}");
    }
}

/// `gemm_nt` at the shapes of the PPO backward's `dA = g·Bᵀ` products
/// (B = 100: the fc layer, the paper heads, the value head), below one
/// register tile of rows, across a k-block, and with empty dimensions:
/// bitwise equal to `matmul_naive` on the materialised transpose, for every
/// kernel flavor and on the pooled route.
#[test]
fn gemm_nt_matches_naive_at_ppo_backward_shapes() {
    let _knobs = knobs();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut rng = StdRng::seed_from_u64(0x9E7);
    let shapes = [
        (100, 128, 256),
        (100, 18, 128),
        (100, 4, 128),
        (100, 1, 128),
        (1, 128, 256),
        (3, 18, 128),
        (2, 300, 17),
        (9, 300, 21),
        (5, 7, 33),
        (0, 128, 256),
        (100, 0, 128),
        (100, 128, 0),
        (1, 0, 3),
    ];
    for &(m, k, n) in &shapes {
        let a = tensor2(&mut rng, m, k);
        let bt = tensor2(&mut rng, n, k);
        let mut b_mat = Vec::new();
        gemm::transpose_into(bt.data(), n, k, &mut b_mat);
        let mut want = vec![0.0f32; m * n];
        gemm::matmul_naive(a.data(), &b_mat, &mut want, m, k, n);
        for_each_host_flavor(|flavor| {
            for threads in [1usize, 2] {
                let mut got = vec![f32::NAN; m * n];
                gemm::gemm_nt(a.data(), bt.data(), &mut got, m, k, n, threads);
                let ctx = format!("m={m} k={k} n={n} flavor={flavor:?} threads={threads}");
                assert_eq!(bits(&got), bits(&want), "{ctx}");
            }
        });
        if m > 0 && k > 0 && n > 0 {
            assert_eq!(bits(a.matmul_nt(&bt).data()), bits(&want), "matmul_nt m={m} k={k} n={n}");
        }
    }
}

// ------------------------------------------------ A-panel producer entry

/// Register-tile height of the packed A layout (`simd::MR`).
const MR: usize = 4;

/// A producer for `gemm_with_a_panels` that packs block `[i0, i0 + rows) ×
/// [kb, kb + kc)` of the row-major `a: [m, k]` in the documented layout,
/// after poisoning the panel so any element it fails to write shows.
fn pack_block(a: &[f32], k: usize) -> impl FnMut(usize, usize, usize, usize, &mut [f32]) + '_ {
    move |i0, rows, kb, kc, panel| {
        assert!(i0 % MR == 0, "row blocks start on a micro-panel boundary");
        assert_eq!(panel.len(), rows * kc, "panel length");
        panel.fill(f32::NAN);
        let mut i = 0;
        while i < rows {
            let r = MR.min(rows - i);
            for p in 0..kc {
                for rr in 0..r {
                    panel[kc * i + p * r + rr] = a[(i0 + i + rr) * k + kb + p];
                }
            }
            i += r;
        }
    }
}

/// `gemm_with_a_panels` over a packing producer must equal `gemm` on the
/// same row-major A bit for bit, under every kernel flavor.
fn check_panels_against_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut want = vec![0.0f32; m * n];
    gemm::gemm(a, b, &mut want, m, k, n, 1);
    for_each_host_flavor(|flavor| {
        let mut got = vec![f32::NAN; m * n];
        gemm::gemm_with_a_panels(pack_block(a, k), b, &mut got, m, k, n);
        assert_eq!(bits(&got), bits(&want), "m={m} k={k} n={n} flavor={flavor:?}");
    });
}

#[test]
fn a_panel_producer_matches_gemm_bitwise() {
    let _knobs = knobs();
    // m < MR, m ≢ 0 (mod MR), m across several MC = 128 row blocks; k
    // across several KC = 256 k-blocks; n = 11 (the fleet heads), a full
    // NR panel, and n past NC = 128.
    let mut rng = StdRng::seed_from_u64(0xA9A7);
    for m in [1usize, 3, 4, 7, 130, 261] {
        for k in [1usize, 11, 128, 600] {
            for n in [1usize, 11, 16, 150] {
                let a = tensor2(&mut rng, m, k);
                let b = tensor2(&mut rng, k, n);
                check_panels_against_gemm(a.data(), b.data(), m, k, n);
            }
        }
    }
}

#[test]
fn a_panel_producer_handles_empty_dims() {
    let _knobs = knobs();
    // k = 0 is the empty sum: every output element is zero and the
    // producer is never asked for a panel.
    let mut out = vec![1.0f32; 6];
    gemm::gemm_with_a_panels(|_, _, _, _, _| panic!("no panel for k = 0"), &[], &mut out, 3, 0, 2);
    assert_eq!(out, vec![0.0; 6]);
    let mut empty: Vec<f32> = Vec::new();
    gemm::gemm_with_a_panels(
        |_, _, _, _, _| panic!("no panel for m = 0"),
        &[1.0; 8],
        &mut empty,
        0,
        4,
        2,
    );
    gemm::gemm_with_a_panels(
        |_, _, _, _, _| panic!("no panel for n = 0"),
        &[],
        &mut empty,
        5,
        4,
        0,
    );
}

#[test]
fn a_panel_producer_keeps_nan_out_of_pad_lanes() {
    let _knobs = knobs();
    // n = 11 leaves five zero pad lanes in the one B panel. Non-finite A
    // values multiply those zeros inside the tile; they must poison only
    // their own output rows, exactly as `gemm` does.
    let (m, k, n) = (10usize, 300, 11); // k crosses the KC = 256 reload
    let mut a = vec![0.5f32; m * k];
    let b = vec![0.25f32; k * n];
    a[2 * k + 5] = f32::NAN; // row 2, first k-block
    a[9 * k + 280] = f32::INFINITY; // row 9 (a tail tile), second k-block
    check_panels_against_gemm(&a, &b, m, k, n);

    let mut out = vec![0.0f32; m * n];
    gemm::gemm_with_a_panels(pack_block(&a, k), &b, &mut out, m, k, n);
    for (i, row) in out.chunks(n).enumerate() {
        match i {
            2 => assert!(row.iter().all(|v| v.is_nan()), "row 2 must be poisoned"),
            9 => assert!(row.iter().all(|&v| v == f32::INFINITY), "row 9 must be +∞"),
            _ => assert!(row.iter().all(|v| v.is_finite()), "row {i} must stay finite"),
        }
    }
}

/// `gemm_tn` on A stored `[k, m]` must equal `gemm` on the materialised
/// `Aᵀ` bit for bit, under every kernel flavor; `Tensor::matmul_tn` must
/// agree too.
fn check_tn_against_gemm(at: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut a = Vec::new();
    gemm::transpose_into(at, k, m, &mut a);
    let mut want = vec![0.0f32; m * n];
    gemm::gemm(&a, b, &mut want, m, k, n, 1);
    for_each_host_flavor(|flavor| {
        let mut got = vec![f32::NAN; m * n];
        gemm::gemm_tn(at, b, &mut got, m, k, n);
        assert_eq!(bits(&got), bits(&want), "m={m} k={k} n={n} flavor={flavor:?}");
        let t = Tensor::from_vec(&[k, m], at.to_vec())
            .matmul_tn(&Tensor::from_vec(&[k, n], b.to_vec()));
        assert_eq!(t.shape(), &[m, n]);
        assert_eq!(bits(t.data()), bits(&want), "matmul_tn m={m} k={k} n={n} flavor={flavor:?}");
    });
}

#[test]
fn matmul_tn_producer_matches_gemm_bitwise() {
    let _knobs = knobs();
    // The producer cases above, with A stored transposed: the fleet heads'
    // `[1000, 128]ᵀ·[1000, 11]` is the (128, 1000, 11) shape.
    let mut rng = StdRng::seed_from_u64(0x7A7E);
    for m in [1usize, 3, 4, 7, 130, 261] {
        for k in [1usize, 11, 128, 600] {
            for n in [1usize, 11, 16, 150] {
                let at = tensor2(&mut rng, k, m);
                let b = tensor2(&mut rng, k, n);
                check_tn_against_gemm(at.data(), b.data(), m, k, n);
            }
        }
    }
    let at = tensor2(&mut rng, 1000, 128);
    let b = tensor2(&mut rng, 1000, 11);
    check_tn_against_gemm(at.data(), b.data(), 128, 1000, 11);
}

#[test]
fn matmul_tn_handles_empty_dims() {
    let _knobs = knobs();
    // k = 0 is the empty sum; m = 0 and n = 0 are empty products.
    for (m, k, n) in [(3usize, 0usize, 2usize), (0, 4, 2), (5, 4, 0)] {
        let at = vec![1.0f32; k * m];
        let b = vec![1.0f32; k * n];
        let mut out = vec![f32::NAN; m * n];
        gemm::gemm_tn(&at, &b, &mut out, m, k, n);
        assert!(out.iter().all(|&v| v == 0.0), "m={m} k={k} n={n}: {out:?}");
        check_tn_against_gemm(&at, &b, m, k, n);
    }
}

// ------------------------------------------------------- kernel counters

#[test]
fn conv_forward_and_backward_tally_the_three_products() {
    let _knobs = knobs();
    // A forward plus a full backward counts one product per pass — the
    // forward `[N, patch]·[patch, C_out]`, `dW = [C_out, N]·[N, patch]` and
    // the input gradient's `goutᵀ·W = [N, C_out]·[C_out, patch]` — with
    // their FLOPs, exactly as the column-matrix lowering tallied them.
    let cfg = ConvCfg { in_channels: 3, out_channels: 8, kernel: 3, stride: 2, padding: 1 };
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let x = Tensor::from_vec(&[5, 3, 16, 16], tensor2(&mut rng, 5 * 3 * 16, 16).data().to_vec());
    let w = Tensor::from_vec(&[8, 3, 3, 3], tensor2(&mut rng, 8, 27).data().to_vec());
    let b = Tensor::from_vec(&[8], tensor2(&mut rng, 1, 8).data().to_vec());
    gemm::set_kernel_telemetry(true);
    let before = gemm::kernel_counters();
    let f = conv2d_forward(&x, &w, &b, &cfg);
    let gout = Tensor::ones(f.output.shape());
    conv2d_weight_grads(&gout, &f.padded, &cfg);
    let gx = conv2d_input_grad(&gout, &w, x.shape(), &cfg);
    let after = gemm::kernel_counters();
    gemm::set_kernel_telemetry(false);
    assert_eq!(gx.shape(), x.shape());

    let (pixels, patch, co) = (5 * 8 * 8u64, 27u64, 8u64);
    assert_eq!(after.gemm_calls - before.gemm_calls, 3);
    assert_eq!(after.gemm_flops - before.gemm_flops, 3 * 2 * pixels * patch * co);
}

// ---------------------------------------------------------- determinism

#[test]
fn same_seed_same_threads_is_bit_identical() {
    let _knobs = knobs();
    let run = |threads: usize| -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(7);
        let a = tensor2(&mut rng, 37, 113);
        let b = tensor2(&mut rng, 113, 29);
        let mut out = vec![0.0f32; 37 * 29];
        gemm::gemm(a.data(), b.data(), &mut out, 37, 113, 29, threads);
        out.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(run(1), run(1), "repeated single-thread runs must match bitwise");
    assert_eq!(run(1), run(3), "thread count must not change a single bit");
}

#[test]
fn matmul_into_reuses_buffer_and_matches_matmul() {
    let _knobs = knobs();
    let mut rng = StdRng::seed_from_u64(11);
    let a = tensor2(&mut rng, 9, 14);
    let b = tensor2(&mut rng, 14, 6);
    let want = a.matmul(&b);
    let mut out = Tensor::from_vec(&[1], vec![0.0]);
    a.matmul_into(&b, &mut out);
    assert_eq!(out.shape(), &[9, 6]);
    assert_eq!(out.data(), want.data());
    // Second call reuses the now-correctly-sized buffer.
    a.matmul_into(&b, &mut out);
    assert_eq!(out.data(), want.data());
}
