//! Bitwise equality of the kernel flavors: scalar ≡ AVX2 ≡ AVX-512.
//!
//! Every dense kernel — `gemm`, `gemm_nt`, `gemm_tn`, `gemm_with_a_panels`
//! and the paper trunk's three convolutions (forward, `dW`, `gb`, `dX`) —
//! runs once per kernel flavor the host has, and every flavor's bits must
//! equal the scalar flavor's. The flavors differ only in how many chains
//! run side by side (8 rows of one 16-lane vector, 4 rows of two 8-lane
//! vectors, 8 rows of one 8-lane vector for tiles at most 8 lanes wide, or
//! one lane at a time), never in a chain's order, so any difference is a
//! kernel fault: a wrong panel offset, a lost reload, a pad lane stored.
//!
//! The shapes cover the PPO minibatch (B = 100), row counts that are not a
//! multiple of the 8-row tile, tile widths `nr ∈ {1, 8, 11, 16}` and
//! k-block crossings (`KC = 256`), and A operands holding NaN and ±∞ next
//! to a B panel's zero pad lanes. A flavor the host lacks is reported as
//! skipped on stderr, never run as another flavor and counted as passed.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Mutex, MutexGuard, PoisonError};
use vc_nn::ops::conv::{conv2d_backward, conv2d_forward, ConvCfg};
use vc_nn::ops::gemm::{
    gemm, gemm_nt, gemm_tn, gemm_with_a_panels, host_kernel_flavor, kernel_flavor,
    set_kernel_flavor_cap, transpose_into, KernelFlavor,
};
use vc_nn::tensor::Tensor;

/// The flavor cap is process-global; the tests here take turns.
static KNOBS: Mutex<()> = Mutex::new(());

fn knobs() -> MutexGuard<'static, ()> {
    KNOBS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Register-tile height of the packed A layout.
const MR: usize = 4;

fn lcg_fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 40) as f32 / (1 << 24) as f32) - 0.5
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The flavors this host runs, scalar first; the others are reported as
/// skipped.
fn host_flavors() -> Vec<KernelFlavor> {
    KernelFlavor::ALL
        .into_iter()
        .filter(|&f| {
            let runs = f <= host_kernel_flavor();
            if !runs {
                eprintln!("kernel flavor {} skipped: this host lacks it", f.name());
            }
            runs
        })
        .collect()
}

/// Runs `f` under every flavor the host has and asserts that each run's
/// bits equal the scalar run's.
fn same_bits_in_every_flavor(ctx: &str, mut f: impl FnMut() -> Vec<f32>) {
    let mut want = None;
    for flavor in host_flavors() {
        set_kernel_flavor_cap(flavor);
        assert_eq!(kernel_flavor(), flavor, "{ctx}: the cap did not select {flavor:?}");
        let got = bits(&f());
        match &want {
            None => want = Some(got),
            Some(want) => assert!(got == *want, "{ctx}: {flavor:?} differs from Scalar"),
        }
    }
    set_kernel_flavor_cap(KernelFlavor::Avx512);
}

/// A producer for `gemm_with_a_panels` that packs block `[i0, i0 + rows) ×
/// [kb, kb + kc)` of the row-major `a: [m, k]` in the documented layout.
fn pack_block(a: &[f32], k: usize) -> impl FnMut(usize, usize, usize, usize, &mut [f32]) + '_ {
    move |i0, rows, kb, kc, panel| {
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

/// `gemm` (1 and 2 threads), `gemm_nt`, `gemm_tn` and `gemm_with_a_panels`
/// on `a: [m, k]` and `b: [k, n]`, each checked across flavors.
fn check_gemm_family(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let ctx = format!("m={m} k={k} n={n}");
    let mut bt = Vec::new();
    transpose_into(b, k, n, &mut bt);
    let mut at = Vec::new();
    transpose_into(a, m, k, &mut at);
    for threads in [1, 2] {
        same_bits_in_every_flavor(&format!("gemm t{threads} {ctx}"), || {
            let mut out = vec![f32::NAN; m * n];
            gemm(a, b, &mut out, m, k, n, threads);
            out
        });
    }
    same_bits_in_every_flavor(&format!("gemm_nt {ctx}"), || {
        let mut out = vec![f32::NAN; m * n];
        gemm_nt(a, &bt, &mut out, m, k, n, 1);
        out
    });
    same_bits_in_every_flavor(&format!("gemm_tn {ctx}"), || {
        let mut out = vec![f32::NAN; m * n];
        gemm_tn(&at, b, &mut out, m, k, n);
        out
    });
    same_bits_in_every_flavor(&format!("gemm_with_a_panels {ctx}"), || {
        let mut out = vec![f32::NAN; m * n];
        gemm_with_a_panels(pack_block(a, k), b, &mut out, m, k, n);
        out
    });
}

#[test]
fn host_flavor_follows_cpuid() {
    let _knobs = knobs();
    let host = host_kernel_flavor();
    eprintln!("host kernel flavor: {}", host.name());
    set_kernel_flavor_cap(KernelFlavor::Avx512);
    assert_eq!(kernel_flavor(), host, "an uncapped kernel runs the host's flavor");
    set_kernel_flavor_cap(KernelFlavor::Scalar);
    assert_eq!(kernel_flavor(), KernelFlavor::Scalar);
    set_kernel_flavor_cap(KernelFlavor::Avx512);
    #[cfg(target_arch = "x86_64")]
    if host == KernelFlavor::Avx512 {
        assert!(std::arch::is_x86_feature_detected!("avx512f"), "AVX-512 chosen without CPUID");
    }
}

#[test]
fn gemm_family_agrees_across_flavors_at_ppo_shapes() {
    let _knobs = knobs();
    // The paper net at B = 100: `ac.fc` 256 → 128 and the heads 128 → 18,
    // 4 and 1 (the value head).
    for (i, &(m, k, n)) in
        [(100, 256, 128), (100, 128, 18), (100, 128, 4), (100, 128, 1)].iter().enumerate()
    {
        let a = lcg_fill(m * k, 10 + i as u64);
        let b = lcg_fill(k * n, 20 + i as u64);
        check_gemm_family(&a, &b, m, k, n);
    }
}

#[test]
fn gemm_family_agrees_across_flavors_on_ragged_shapes() {
    let _knobs = knobs();
    // m: one micro-panel, a short second panel, 8-row tiles plus 4 and
    // plus 3; n: tile widths 1, 8, 11, 16 and 16 + 11; k: one step, short,
    // and across the KC = 256 reload.
    let mut seed = 100;
    for m in [4usize, 7, 12, 13, 131] {
        for k in [1usize, 37, 256, 300] {
            for n in [1usize, 8, 11, 16, 27] {
                seed += 1;
                let a = lcg_fill(m * k, seed);
                let b = lcg_fill(k * n, seed ^ 0xB);
                check_gemm_family(&a, &b, m, k, n);
            }
        }
    }
}

#[test]
fn nonfinite_a_beside_pad_lanes_agrees_across_flavors() {
    let _knobs = knobs();
    // Widths 1, 8 and 11 leave 15, 8 and 5 zero pad lanes in the B panel;
    // k = 300 puts one poison on each side of the KC = 256 reload. Rows
    // 2, 9 and 12 sit in the first panel, the second panel and a tail tile.
    let (m, k) = (13usize, 300usize);
    for n in [1usize, 8, 11] {
        let mut a = lcg_fill(m * k, 7 + n as u64);
        a[2 * k + 5] = f32::NAN;
        a[9 * k + 280] = f32::INFINITY;
        a[12 * k + 100] = f32::NEG_INFINITY;
        let b = lcg_fill(k * n, 9 + n as u64);
        check_gemm_family(&a, &b, m, k, n);

        let mut out = vec![0.0f32; m * n];
        gemm(&a, &b, &mut out, m, k, n, 1);
        for (i, row) in out.chunks(n).enumerate() {
            let poisoned = [2, 9, 12].contains(&i);
            assert_eq!(
                row.iter().all(|v| !v.is_finite()),
                poisoned,
                "n={n} row {i}: only the poisoned rows may leave the finite range"
            );
        }
    }
}

#[test]
fn paper_convs_agree_across_flavors() {
    let _knobs = knobs();
    let cfg = |cin, cout, stride| ConvCfg {
        in_channels: cin,
        out_channels: cout,
        kernel: 3,
        stride,
        padding: 1,
    };
    // The trunk on the paper grid: 16 → 8 → 4 → 4.
    let layers = [(cfg(3, 8, 2), 16usize), (cfg(8, 16, 2), 8), (cfg(16, 16, 1), 4)];
    for (li, &(c, side)) in layers.iter().enumerate() {
        for bsz in [1usize, 100] {
            let seed = (li * 1000 + bsz) as u64;
            let shape = [bsz, c.in_channels, side, side];
            let x = Tensor::from_vec(&shape, lcg_fill(shape.iter().product(), seed));
            let w = Tensor::from_vec(
                &[c.out_channels, c.in_channels, 3, 3],
                lcg_fill(c.out_channels * c.in_channels * 9, seed ^ 0x3EED),
            );
            let b = Tensor::from_vec(&[c.out_channels], lcg_fill(c.out_channels, seed ^ 0xB1A5));
            let out_shape = conv2d_forward(&x, &w, &b, &c).output.shape().to_vec();
            let g =
                Tensor::from_vec(&out_shape, lcg_fill(out_shape.iter().product(), seed ^ 0x600D));
            let ctx = format!("conv{} B={bsz}", li + 1);
            same_bits_in_every_flavor(&format!("{ctx} forward"), || {
                conv2d_forward(&x, &w, &b, &c).output.data().to_vec()
            });
            let padded = conv2d_forward(&x, &w, &b, &c).padded;
            same_bits_in_every_flavor(&format!("{ctx} backward"), || {
                let grads = conv2d_backward(&g, &padded, &w, &shape, &c);
                [grads.gw.data(), grads.gb.data(), grads.gx.data()].concat()
            });
        }
    }
}
