//! Bit-exact equivalence of every GEMM execution strategy.
//!
//! The pooled dispatcher ([`gemm`]) and the sequential reference
//! ([`matmul_naive`]) must agree **bitwise** for every thread count, because the deterministic
//! replay/golden-trace machinery depends on runs being reproducible across
//! machines with different core counts. The pooled path partitions the
//! output into MR-aligned row chunks × L2-sized column panels and runs the
//! packed micro-kernel per cell; the micro-kernel reloads its accumulators
//! from `C` at every KC boundary, so each output element is one strictly
//! ascending-k FMA chain regardless of how the grid was carved. Any
//! divergence here means the partitioning, the packing layout, or the
//! accumulation order changed.
//!
//! The sweep runs once per kernel flavor the host has
//! ([`set_kernel_flavor_cap`]): per-lane AVX-512 and AVX2 FMA are
//! bit-identical to scalar `f32::mul_add`, so the scalar fallback
//! (non-x86 / Miri / loom builds) must produce the same bits as the
//! vectorized paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use vc_nn::ops::gemm::{
    gemm, host_kernel_flavor, matmul_naive, set_kernel_flavor_cap, KernelFlavor, PAR_THRESHOLD,
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

fn lcg_fill(buf: &mut [f32], mut state: u64) {
    for v in buf.iter_mut() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *v = ((state >> 40) as f32 / (1 << 24) as f32) - 0.5;
    }
}

fn check_shape(m: usize, k: usize, n: usize) {
    let mut a = vec![0.0f32; m * k];
    let mut b = vec![0.0f32; k * n];
    lcg_fill(&mut a, 0x9E3779B97F4A7C15 ^ (m * k * n) as u64);
    lcg_fill(&mut b, 0xD1B54A32D192ED03 ^ (m + k + n) as u64);

    let mut reference = vec![0.0f32; m * n];
    matmul_naive(&a, &b, &mut reference, m, k, n);
    let want: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();

    // Every kernel flavor must agree with the reference. The flavor cap is
    // process-global and tests in this binary run concurrently, but that
    // cannot skew an assertion: whichever kernel actually runs, the bits
    // must match `matmul_naive`.
    for flavor in host_flavors() {
        set_kernel_flavor_cap(flavor);
        for threads in [1usize, 2, 4, 8] {
            let mut pooled = vec![0.0f32; m * n];
            gemm(&a, &b, &mut pooled, m, k, n, threads);
            assert_eq!(
                pooled.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want,
                "pooled gemm diverged from naive at {m}x{k}x{n}, \
                 threads={threads}, flavor={flavor:?}"
            );
        }
    }
    set_kernel_flavor_cap(KernelFlavor::Avx512);
}

#[test]
fn above_threshold_square_shape_is_bitwise_identical() {
    // 160³ = 4.1 M flop-volume, comfortably above the dispatch threshold.
    const { assert!(160 * 160 * 160 >= PAR_THRESHOLD) }
    check_shape(160, 160, 160);
}

#[test]
fn above_threshold_ragged_shape_is_bitwise_identical() {
    // Ragged dims exercise MR/NR tail tiles and a ragged final row chunk.
    let (m, k, n) = (131, 173, 97);
    assert!(m * k * n >= PAR_THRESHOLD, "shape fell below PAR_THRESHOLD");
    check_shape(m, k, n);
}

#[test]
fn above_threshold_prime_shape_is_bitwise_identical() {
    // All-prime dims: k crosses the KC=256 boundary (accumulator reload),
    // n crosses the NC=128 panel boundary with a ragged last panel, and m
    // leaves a 3-row tail tile below MR.
    let (m, k, n) = (131, 257, 251);
    assert!(m * k * n >= PAR_THRESHOLD, "shape fell below PAR_THRESHOLD");
    check_shape(m, k, n);
}

#[test]
fn below_threshold_shape_is_bitwise_identical() {
    // 64³ stays sequential in `gemm` for every thread count and must
    // match naive exactly.
    const { assert!(64 * 64 * 64 < PAR_THRESHOLD) }
    check_shape(64, 64, 64);
}

#[test]
fn bench_ragged_shape_is_bitwise_identical() {
    // The bench matrix's ragged shape; below threshold, so this pins the
    // sequential packed path (and the scalar fallback) bitwise.
    const { assert!(33 * 65 * 127 < PAR_THRESHOLD) }
    check_shape(33, 65, 127);
}

#[test]
fn more_threads_than_rows_is_bitwise_identical() {
    // threads > m: the row partitioner rounds chunks to MR, leaving fewer
    // row chunks than workers.
    let (m, k, n) = (6, 640, 640);
    assert!(m * k * n >= PAR_THRESHOLD, "shape fell below PAR_THRESHOLD");
    check_shape(m, k, n);
}

#[test]
fn more_threads_than_panels_is_bitwise_identical() {
    // A single NC column panel (n ≤ 128) and an 8-row output: the whole
    // grid is 2 jobs, so at threads=8 most workers sit idle. Idle workers
    // must not perturb the result or deadlock the drain loop.
    let (m, k, n) = (8, 4096, 64);
    assert!(m * k * n >= PAR_THRESHOLD, "shape fell below PAR_THRESHOLD");
    check_shape(m, k, n);
}
