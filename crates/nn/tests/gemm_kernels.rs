//! Regression and equivalence tests for the blocked GEMM/conv kernel layer.
//!
//! Three families:
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
//! 3. **Determinism** — same inputs produce bit-identical outputs across
//!    repeated runs and across kernel thread settings, the property
//!    checkpoint-resume relies on.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vc_nn::ops::conv::conv2d_forward;
use vc_nn::ops::gemm;
use vc_nn::prelude::*;

fn tensor2(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    Tensor::from_vec(&[rows, cols], data)
}

// ------------------------------------------------------- NaN propagation

#[test]
fn matmul_zero_times_nan_poisons_output() {
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
    let a = Tensor::from_vec(&[1, 2], vec![0.0, 1.0]);
    let b = Tensor::from_vec(&[2, 2], vec![f32::INFINITY, 0.0, 5.0, 6.0]);
    let c = a.matmul(&b);
    assert!(c.data()[0].is_nan(), "0·∞ must produce NaN, got {}", c.data()[0]);
    assert_eq!(c.data()[1], 6.0, "finite lanes are unaffected");
}

#[test]
fn conv_zero_weight_times_nan_input_poisons_output() {
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
    let mut rng = StdRng::seed_from_u64(42);
    let mut scratch = Vec::new();
    for &(m, k, n) in &[(3, 5, 7), (13, 8, 21), (1, 19, 4)] {
        let a = tensor2(&mut rng, m, k);
        let bt = tensor2(&mut rng, n, k);
        let mut got = vec![0.0f32; m * n];
        gemm::gemm_nt(a.data(), bt.data(), &mut got, m, k, n, &mut scratch, 1);
        let mut b_mat = Vec::new();
        gemm::transpose_into(bt.data(), n, k, &mut b_mat);
        let mut want = vec![0.0f32; m * n];
        gemm::matmul_naive(a.data(), &b_mat, &mut want, m, k, n);
        assert_eq!(got, want, "gemm_nt m={m} k={k} n={n}");
    }
}

// ---------------------------------------------------------- determinism

#[test]
fn same_seed_same_threads_is_bit_identical() {
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
