//! Non-finite propagation through the SIMD micro-kernel.
//!
//! The blocked GEMM must treat NaN and ±∞ exactly like the naive reference:
//! `f32::mul_add` and per-lane AVX2 and AVX-512 FMA follow the same
//! IEEE-754 rules (`0·NaN = NaN`, `0·∞ = NaN`, `∞ + -∞ = NaN`), so every
//! poisoned input must surface in the same output elements with the same
//! bits under every kernel flavor. The trickiest cases live in the padding: the packed B
//! panel zero-fills lanes `n..NR` of a ragged last panel, and those zeros
//! are multiplied by real A values inside the vector unit — a non-finite A
//! operand must *not* leak NaN through a padded lane into a neighboring
//! output, and the padded lanes themselves are never written back.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use vc_nn::ops::gemm::{
    gemm, host_kernel_flavor, matmul_naive, set_kernel_flavor_cap, KernelFlavor,
};

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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `gemm` under every kernel flavor the host has and asserts each
/// matches naive bitwise (NaN payloads included).
fn check_against_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut want = vec![0.0f32; m * n];
    matmul_naive(a, b, &mut want, m, k, n);
    for flavor in host_flavors() {
        set_kernel_flavor_cap(flavor);
        for threads in [1usize, 4] {
            let mut got = vec![0.0f32; m * n];
            gemm(a, b, &mut got, m, k, n, threads);
            assert_eq!(bits(&got), bits(&want), "{m}x{k}x{n} threads={threads} flavor={flavor:?}");
        }
    }
    set_kernel_flavor_cap(KernelFlavor::Avx512);
}

#[test]
fn nan_in_a_poisons_exactly_one_output_row() {
    // 23×37×41: ragged in every blocking dimension (MR, NR, vector width).
    let (m, k, n) = (23usize, 37, 41);
    let mut a = vec![0.5f32; m * k];
    let b = vec![0.25f32; k * n];
    a[5 * k + 17] = f32::NAN; // row 5, reduction index 17
    check_against_naive(&a, &b, m, k, n);

    let mut out = vec![0.0f32; m * n];
    gemm(&a, &b, &mut out, m, k, n, 1);
    for (i, row) in out.chunks(n).enumerate() {
        let poisoned = row.iter().filter(|v| v.is_nan()).count();
        assert_eq!(poisoned, if i == 5 { n } else { 0 }, "row {i}");
    }
}

#[test]
fn nan_in_b_poisons_exactly_one_output_column() {
    let (m, k, n) = (9usize, 20, 33);
    let a = vec![1.0f32; m * k];
    let mut b = vec![0.125f32; k * n];
    // Column n-1 is the last real lane of a ragged NR panel (33 = 2·16+1):
    // the NaN rides in lane 0 of the tail panel, right next to the zeroed
    // padding lanes.
    b[7 * n + (n - 1)] = f32::NAN;
    check_against_naive(&a, &b, m, k, n);

    let mut out = vec![0.0f32; m * n];
    gemm(&a, &b, &mut out, m, k, n, 1);
    for (i, v) in out.iter().enumerate() {
        assert_eq!(v.is_nan(), i % n == n - 1, "element {i}");
    }
}

#[test]
fn infinities_propagate_and_cancel_like_naive() {
    let (m, k, n) = (8usize, 16, 17);
    let mut a = vec![0.5f32; m * k];
    let mut b = vec![1.0f32; k * n];
    a[3] = f32::INFINITY; // row 0 picks up +∞ …
    a[k + 4] = f32::NEG_INFINITY; // … row 1 picks up -∞ …
    a[2 * k + 5] = f32::INFINITY;
    b[5 * n + 2] = f32::NEG_INFINITY; // … and row 2, column 2 gets ∞·-∞.
    check_against_naive(&a, &b, m, k, n);

    let mut out = vec![0.0f32; m * n];
    gemm(&a, &b, &mut out, m, k, n, 1);
    assert_eq!(out[0], f32::INFINITY);
    assert_eq!(out[n], f32::NEG_INFINITY);
    assert_eq!(out[2 * n + 2], f32::NEG_INFINITY, "∞·-∞ must stay -∞ through the tile");
}

#[test]
fn zero_a_column_times_nonfinite_b_row_is_nan() {
    // A zero in A multiplying a non-finite in B must produce NaN, not 0:
    // the kernel must never skip "zero" work.
    let (m, k, n) = (4usize, 8, 16);
    let mut a = vec![1.0f32; m * k];
    let mut b = vec![2.0f32; k * n];
    a[2 * k + 6] = 0.0;
    b[6 * n + 9] = f32::INFINITY;
    check_against_naive(&a, &b, m, k, n);

    let mut out = vec![0.0f32; m * n];
    gemm(&a, &b, &mut out, m, k, n, 1);
    assert!(out[2 * n + 9].is_nan(), "0·∞ must poison, got {}", out[2 * n + 9]);
    assert_eq!(out[9], f32::INFINITY, "other rows still see the ∞ column");
}

#[test]
fn nonfinite_a_never_leaks_through_padded_tail_lanes() {
    // n=1: fifteen of the sixteen B-panel lanes are zero padding, and every
    // A value is non-finite. Inside the vector unit each step computes
    // `NaN/∞ · 0.0` in the padded lanes — the masked write-back must drop
    // those lanes, and the single real column must match naive bitwise.
    let (m, k, n) = (5usize, 300, 1); // k crosses the KC=256 reload boundary
    let mut a = vec![f32::INFINITY; m * k];
    for (i, v) in a.iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = f32::NAN;
        }
    }
    let b = vec![1.0f32; k * n];
    check_against_naive(&a, &b, m, k, n);
}

#[test]
fn nan_past_the_kc_boundary_survives_accumulator_reload() {
    // The micro-kernel reloads its accumulators from C at every KC=256
    // k-block boundary. A NaN introduced only in the second block must
    // still poison the final value (reload must read back the partial sum,
    // not restart from zero — and a NaN partial must survive the reload).
    let (m, k, n) = (4usize, 300, 20);
    let mut a = vec![0.25f32; m * k];
    let b = vec![0.5f32; k * n];
    a[270] = f32::NAN; // row 0, k-index 270 — inside the second k-block
    check_against_naive(&a, &b, m, k, n);

    let mut out = vec![0.0f32; m * n];
    gemm(&a, &b, &mut out, m, k, n, 1);
    assert!(out[..n].iter().all(|v| v.is_nan()), "row 0 must be fully poisoned");
    assert!(out[n..].iter().all(|v| !v.is_nan()), "other rows must stay finite");
}

#[test]
fn small_m_nonfinite_operands_match_naive_and_the_packed_rows() {
    // Below MR rows `gemm` skips packing; NaN/∞ must still surface in the
    // same elements with the same bits as the reference and as the same
    // rows of a taller, packed product.
    const TALL: usize = 6;
    for m in [1usize, 2, 3] {
        for k in [0usize, 1, 5, 256, 300] {
            for n in [1usize, 11, 16, 17, 128] {
                let mut a: Vec<f32> = (0..TALL * k).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
                let mut b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.5 - 1.0).collect();
                if k > 0 {
                    a[k - 1] = f32::NAN; // row 0
                    a[k / 2] = 0.0;
                    b[(k / 2) * n + n - 1] = f32::INFINITY; // 0·∞ on row 0
                    if m > 1 {
                        a[k] = f32::NEG_INFINITY; // row 1
                    }
                }
                check_against_naive(&a[..m * k], &b, m, k, n);
                let mut tall = vec![0.0f32; TALL * n];
                gemm(&a, &b, &mut tall, TALL, k, n, 1);
                let mut small = vec![0.0f32; m * n];
                gemm(&a[..m * k], &b, &mut small, m, k, n, 1);
                assert_eq!(bits(&small), bits(&tall[..m * n]), "m={m} k={k} n={n}");
            }
        }
    }
}
