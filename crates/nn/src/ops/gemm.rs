//! Blocked, packed, SIMD-tiled GEMM kernels and the kernel thread-pool knob.
//!
//! Every PPO update and curiosity forward-model step bottoms out in dense
//! matrix multiplies — either directly ([`crate::tensor::Tensor::matmul`],
//! the autograd `MatMul` op) or inside the convolution
//! ([`crate::ops::conv`]), whose kernels run the register tiles of
//! [`crate::ops::simd`] on gathered operands and tally their products
//! here. This module owns the GEMMs:
//!
//! * [`gemm`] — `C = A·B`. Both operands are packed once into
//!   micro-kernel-friendly layouts (see below), then the product is computed
//!   in L2-sized `KC×NC` column panels by the `MR×NR` register tile in
//!   [`crate::ops::simd`] (AVX2/FMA on x86-64-v3, bit-identical scalar
//!   fallback elsewhere). Large problems fan out across the persistent
//!   kernel pool ([`crate::ops::pool`]) on a 2-D grid of row-chunk ×
//!   column-panel cells;
//! * [`gemm_with_a_panels`] — `C = A·B` where A is never stored: a caller
//!   closure writes each packed A block straight into one scratch panel
//!   (the fleet heads' `relu(x[e] + table[w])` join is its producer);
//! * [`gemm_nt`] / [`gemm_tn`] — `A·Bᵀ` and `Aᵀ·B`; the `MatMul` backward
//!   uses them. Neither transposes its operand first: `gemm_nt` packs
//!   `Bᵀ`'s panels straight from the rows of `B`, then runs as [`gemm`];
//!   `gemm_tn` packs `Aᵀ` straight from `A` through
//!   [`gemm_with_a_panels`], on the calling thread;
//! * [`matmul_naive`] — the unblocked reference kernel: the correctness
//!   tests' ground truth, the benchmark baseline, and the route [`gemm`]
//!   takes for products of fewer than `MR` rows (the batch-of-one FC and
//!   head layers), where packing B would cost more than the product.
//!
//! ## Packed layouts
//!
//! Packing happens once per [`gemm`] call, into arena-recycled buffers
//! ([`crate::arena`]), and the packed images are what crosses the pool
//! boundary (read-only, behind `Arc`) — the old dispatcher's per-chunk A
//! copies and remainder bookkeeping are gone:
//!
//! * **A** (`m×k` row-major) becomes `k`-block-major micro-panels of `MR`
//!   interleaved rows: within block `kb` (height `kc`), the panel for rows
//!   `[i, i+r)` stores `a[i+rr][kb+p]` at `m·kb + kc·i + p·r + rr`. The
//!   micro-kernel reads its `r` row values for step `p` contiguously.
//! * **B** (`k×n` row-major) becomes `k`-block-major `NR`-wide column
//!   panels, zero-padded to full `NR` width: within block `kb`, the panel
//!   for columns `[j, j+nr)` stores `b[kb+p][j+l]` at
//!   `n_pad·kb + kc·j + p·NR + l` with `n_pad = n` rounded up to `NR`.
//!   Pad lanes only feed accumulator lanes that are never written back.
//!
//! ## NaN semantics
//!
//! None of these kernels skip zero operands: `0 · NaN` and `0 · ∞`
//! contribute `NaN` to the accumulator exactly as IEEE 754 demands. The
//! seed kernel's `if a == 0.0 { continue }` "sparsity" shortcut silently
//! laundered non-finite values into zeros, defeating the NaN-quarantine
//! machinery in the training chief; the regression tests in
//! `crates/nn/tests/gemm_kernels.rs` and `gemm_simd_nan.rs` pin the
//! corrected behavior through both the scalar and SIMD tile paths.
//!
//! ## Determinism
//!
//! Each output element is accumulated strictly in ascending-`k` order by a
//! single accumulation chain: the micro-kernel starts its accumulator tile
//! at literal zero for the first `k`-block (so callers never pre-zero `C`
//! — that memset was ~3% of a 256³ multiply) and *reloads* it from `C` at
//! every later `k`-block boundary instead of summing per-block partials, so
//! blocking does not reassociate the floating-point sum. Lane `j` of the
//! AVX2 FMA tile computes exactly the scalar `mul_add` chain (fused
//! multiply-add is deterministic per lane), so SIMD does not reassociate it
//! either. Parallel dispatch partitions the *output* into disjoint
//! row-chunk × column-panel cells, each computed by exactly one thread as
//! the same chain. Consequently results are bit-identical to
//! [`matmul_naive`] for every thread count and for every kernel flavor —
//! checkpoint-resume determinism survives the fast path. Products of fewer
//! than `MR` rows skip the packing and run [`matmul_naive`] itself, which
//! is that same chain by definition.

use crate::arena;
use crate::ops::pool;
use crate::ops::simd;
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use simd::{MR, NR};

/// `k`-block height: one packed `KC × NR` B-panel is 16 KiB, comfortably
/// inside L1 while the packed A micro-panels stream through.
const KC: usize = 256;
/// Column-panel width for cache blocking and parallel partitioning: one
/// `KC × NC` packed B block is 128 KiB — about half an L2 slice — so a
/// worker chewing through its panel keeps B resident while A streams.
/// A multiple of `NR`, so panel boundaries always align with packed B
/// micro-panels.
const NC: usize = 128;
/// Row-block height inside a panel: bounds the `C` working set per
/// (`k`-block, row-block) sweep. A multiple of `MR`, so block boundaries
/// always align with packed A micro-panels.
const MC: usize = 128;
/// Below this `m·k·n` volume a matmul runs sequentially: parallel dispatch
/// (job boxing, packed-operand sharing, result hand-back) is a net loss for
/// small shapes. Re-measured for the SIMD + shared-packing dispatcher on
/// the bench host: end-to-end dispatch overhead is ~5 µs per pooled call
/// (128³ t2 vs t1 delta), while the SIMD kernel finishes 64³ (262,144) in
/// ~9 µs sequentially — same order as the dispatch itself, so 64³-class
/// shapes must never fan out. Shapes from 128³ (2.1 M, ~73 µs sequential)
/// up amortize the overhead to a few percent, so the gate stays at
/// 2 MiFLOP-volume even though the SIMD kernel moved the single-thread
/// numbers. The old scoped-spawn dispatcher put this at `1 << 18`, which
/// let 64³ fan out at a 15× loss (46.5 → 3.0 GFLOP/s in the committed
/// bench trajectory).
pub const PAR_THRESHOLD: usize = 1 << 21;

/// Global kernel thread budget, set once per process by the trainer (sized
/// to the cores left over after employee threads are accounted for).
static KERNEL_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the number of pool threads dense kernels may fan out across.
/// Clamped to at least 1. Results are bit-identical for every setting, so
/// this is purely a throughput knob.
pub fn set_kernel_threads(n: usize) {
    // ordering: standalone tuning knob; readers act on whatever value they
    // see and no other memory is published through it.
    KERNEL_THREADS.store(n.max(1), Ordering::Relaxed);
}

/// The current kernel thread budget (≥ 1).
pub fn kernel_threads() -> usize {
    KERNEL_THREADS.load(Ordering::Relaxed).max(1) // ordering: tuning knob (see setter)
}

/// When set, [`gemm`] routes every tile through the scalar fallback even on
/// SIMD-capable builds. The two paths are bit-identical by construction
/// (see [`crate::ops::simd`]); this knob exists so equivalence tests and
/// the dispatch-threshold calibration can run both flavors on one host.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces (or un-forces) the scalar micro-kernel on SIMD-capable builds.
/// Purely a test/calibration knob — results are bit-identical either way.
pub fn set_force_scalar(on: bool) {
    // ordering: standalone test knob; a dispatch racing the toggle picks
    // either kernel flavor, which agree bitwise.
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Whether the scalar micro-kernel is currently forced.
pub fn force_scalar() -> bool {
    FORCE_SCALAR.load(Ordering::Relaxed) // ordering: test knob (see setter)
}

/// Whether the next [`gemm`] dispatch will use the SIMD tile: compiled in
/// and not overridden by [`set_force_scalar`]. Benchmarks record this next
/// to the detected target features.
pub fn simd_kernel_active() -> bool {
    simd::compiled() && !force_scalar()
}

/// Gate for kernel telemetry. When off (the default) every instrumented
/// kernel pays exactly one relaxed atomic load; when on, [`gemm`] tallies
/// call counts and multiply-add FLOPs into process-wide counters that the
/// trainer scrapes into its telemetry registry.
static KERNEL_TELEMETRY: AtomicBool = AtomicBool::new(false);
/// Number of blocked-GEMM dispatches (includes [`gemm_nt`], which routes
/// through [`gemm`], and [`gemm_tn`], which routes through
/// [`gemm_with_a_panels`]).
static GEMM_CALLS: AtomicU64 = AtomicU64::new(0);
/// Cumulative `2·m·k·n` FLOPs across those dispatches.
static GEMM_FLOPS: AtomicU64 = AtomicU64::new(0);

/// Enables or disables kernel call/FLOP tallying.
pub fn set_kernel_telemetry(on: bool) {
    // ordering: standalone on/off flag; a dispatch racing the toggle may
    // tally or not, both acceptable — nothing else is published through it.
    KERNEL_TELEMETRY.store(on, Ordering::Relaxed);
}

/// Whether kernel call/FLOP tallying is currently enabled.
pub fn kernel_telemetry_enabled() -> bool {
    KERNEL_TELEMETRY.load(Ordering::Relaxed) // ordering: on/off flag (see setter)
}

/// A snapshot of the kernel telemetry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Blocked-GEMM dispatches since the last reset.
    pub gemm_calls: u64,
    /// Cumulative `2·m·k·n` FLOPs across those dispatches.
    pub gemm_flops: u64,
}

/// Reads the kernel telemetry counters.
pub fn kernel_counters() -> KernelCounters {
    KernelCounters {
        gemm_calls: GEMM_CALLS.load(Ordering::Relaxed), // ordering: telemetry counter
        gemm_flops: GEMM_FLOPS.load(Ordering::Relaxed), // ordering: telemetry counter
    }
}

/// Zeroes the kernel telemetry counters (e.g. at the start of a run).
pub fn reset_kernel_counters() {
    GEMM_CALLS.store(0, Ordering::Relaxed); // ordering: telemetry counter
    GEMM_FLOPS.store(0, Ordering::Relaxed); // ordering: telemetry counter
}

/// Unblocked reference matmul: `out = A·B` with `A: [m,k]`, `B: [k,n]`,
/// `out: [m,n]`, all row-major. `ikj` loop order, no zero-skip — this is
/// the semantic ground truth the blocked kernel must match bit-for-bit.
///
/// # Panics
///
/// If a slice length disagrees with its shape.
pub fn matmul_naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "naive gemm lhs length");
    assert_eq!(b.len(), k * n, "naive gemm rhs length");
    assert_eq!(out.len(), m * n, "naive gemm out length");
    out.fill(0.0);
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o = av.mul_add(bv, *o);
            }
        }
    }
}

/// Blocked GEMM: `out = A·B` with `A: [m,k]`, `B: [k,n]`, `out: [m,n]`,
/// row-major. Packs both operands once, then fans row-chunk × column-panel
/// cells across up to `threads` persistent pool workers when the problem is
/// large enough; bit-identical to [`matmul_naive`] for every thread count.
/// Below `MR` rows it runs [`matmul_naive`] itself, unpacked.
///
/// # Panics
///
/// If a slice length disagrees with its shape, or if a pool worker dies
/// while holding one of this call's cells (a job panic — mirrors the panic
/// propagation of the old scoped-spawn dispatcher).
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, threads: usize) {
    assert_eq!(a.len(), m * k, "gemm lhs length");
    assert_eq!(b.len(), k * n, "gemm rhs length");
    assert_eq!(out.len(), m * n, "gemm out length");
    tally(m, k, n);
    if m < MR {
        // Fewer rows than one register tile: packing all of B would cost
        // more than the product, and the tile would run its scalar tail
        // path anyway. The reference chain is the same ascending-`k`
        // `mul_add` sequence per element, so the result is bitwise equal.
        matmul_naive(a, b, out, m, k, n);
        return;
    }
    gemm_packing_b(a, out, m, k, n, threads, |bp| pack_b(b, k, n, bp));
}

/// The packed route of [`gemm`] and [`gemm_nt`]: `pack` writes B's packed
/// panels into a zeroed `k · n_pad` buffer, then the product runs on the
/// calling thread or, when large enough, across the pool.
fn gemm_packing_b(
    a: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    pack: impl FnOnce(&mut [f32]),
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // Empty sum: the product is all zeros and the tile loop would
        // never write `out`.
        out.fill(0.0);
        return;
    }
    // Zeroed: the packers rely on pad lanes reading as zero.
    let mut bp = arena::take_f32_zeroed(k * n.div_ceil(NR) * NR);
    pack(&mut bp);
    let threads = threads.max(1);
    if threads <= 1 || m * n * k < PAR_THRESHOLD {
        gemm_rows(a, &bp, out, m, k, n);
        arena::put_f32(bp);
    } else {
        gemm_pooled(a, bp, out, m, k, n, threads);
    }
}

/// Counts one GEMM dispatch of `2·m·k·n` FLOPs when telemetry is on. The
/// direct convolution kernels ([`crate::ops::conv`]) tally their products
/// here too.
pub(crate) fn tally(m: usize, k: usize, n: usize) {
    // ordering: telemetry gate + monotonic counters; dispatches racing a
    // toggle may miss a tally, which telemetry tolerates.
    if KERNEL_TELEMETRY.load(Ordering::Relaxed) {
        GEMM_CALLS.fetch_add(1, Ordering::Relaxed); // ordering: telemetry counter
                                                    // ordering: telemetry counter (see the gate comment above).
        GEMM_FLOPS.fetch_add(2 * (m as u64) * (k as u64) * (n as u64), Ordering::Relaxed);
    }
}

/// Sequential GEMM `out = A·B` (`A: [m,k]`, `B: [k,n]`, `out: [m,n]`,
/// row-major) whose A operand is never stored: `produce` writes it one
/// packed block at a time, and each block is consumed while it is still in
/// cache.
///
/// B is packed once. Then, for each `MC`-row block `[i0, i0 + rows)` and,
/// inside it, each `KC` k-block `[kb, kb + kc)` in ascending order, the
/// entry calls `produce(i0, rows, kb, kc, panel)` with `panel` of length
/// `rows·kc`, and runs the register tile over it. The producer must write
/// every element of `panel` in the `MR`-interleaved layout of `pack_a`,
/// block-relative: for each micro-panel `[i, i + r)` of the block
/// (`i = 0, MR, 2·MR, …`, `r = MR.min(rows - i)`), it stores
/// `a[i0 + i + rr][kb + p]` at `panel[kc·i + p·r + rr]`. `i0` is always a
/// multiple of `MR`. The panel is one arena scratch of at most `MC·KC`
/// floats reused across blocks, so it holds the previous block's values on
/// entry.
///
/// The result is bitwise equal to [`gemm`] on the materialised A, row
/// tails with `r < MR` included: the tiles see the same packed values, and
/// each output element is the same single chain in ascending `k`, started
/// from zero at `kb = 0` and reloaded from `out` at every later k-block.
/// Where [`gemm`] takes the unpacked [`matmul_naive`] route (`m < MR`),
/// the tile computes that same chain.
///
/// Convolution does not use this entry: a producer gathering conv taps
/// into the interleaved panels measured slower than the packed GEMM on a
/// stored column matrix, so conv gathers inside the register tile instead
/// ([`crate::ops::simd::gather_tile`]).
///
/// # Panics
///
/// If `b` or `out` disagrees with its shape.
pub fn gemm_with_a_panels(
    mut produce: impl FnMut(usize, usize, usize, usize, &mut [f32]),
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(b.len(), k * n, "gemm_with_a_panels rhs length");
    assert_eq!(out.len(), m * n, "gemm_with_a_panels out length");
    tally(m, k, n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let use_simd = simd_kernel_active();
    let n_pad = n.div_ceil(NR) * NR;
    // Zeroed: `pack_b` relies on pad lanes reading as zero.
    let mut bp = arena::take_f32_zeroed(k * n_pad);
    pack_b(b, k, n, &mut bp);
    let mut scratch = arena::take_f32_zeroed(MC.min(m) * KC.min(k));
    let mut i0 = 0;
    while i0 < m {
        let rows = MC.min(m - i0);
        let mut kb = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            let panel = &mut scratch[..rows * kc];
            produce(i0, rows, kb, kc, panel);
            let mut j = 0;
            while j < n {
                let nr = NR.min(n - j);
                let pb = n_pad * kb + kc * j;
                let bpanel = &bp[pb..pb + kc * NR];
                let mut i = 0;
                while i < rows {
                    let r = MR.min(rows - i);
                    let apanel = &panel[kc * i..kc * (i + r)];
                    let ob = (i0 + i) * n + j;
                    simd::tile(r, apanel, bpanel, &mut out[ob..], n, kc, nr, kb == 0, use_simd);
                    i += r;
                }
                j += NR;
            }
            kb += kc;
        }
        i0 += rows;
    }
    arena::put_f32(scratch);
    arena::put_f32(bp);
}

/// The pooled dispatcher, bitwise identical to [`matmul_naive`] regardless
/// of which thread computes what.
///
/// A and B are packed once on the dispatching thread and shared with the
/// workers read-only behind `Arc` — packing replaces the old dispatcher's
/// per-chunk A copies and whole-B clone with work the kernel needs anyway,
/// and read-only sharing means workers never bounce dirty cache lines. The
/// output is partitioned into a 2-D grid of (`MR`-aligned row chunk) ×
/// (`NC` column panel) cells — disjoint, so no two threads ever write the
/// same `C` line. The caller keeps cell (0,0), computing it in place on the
/// original `out` borrow; every other cell becomes a pool job that fills an
/// arena-recycled dense panel and hands it back over a per-call channel for
/// the dispatcher to copy into `out` (jobs must be `'static`; the workspace
/// denies `unsafe`, so `out` borrows cannot cross the pool boundary). While
/// waiting, the caller drains queued jobs inline ([`pool::try_run_one`]),
/// so the call completes even on a pool with zero workers.
fn gemm_pooled(
    a: &[f32],
    bp: Vec<f32>,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    pool::ensure_workers(threads - 1);
    let use_simd = simd_kernel_active();

    // Zeroed only to materialize the length: `pack_a` overwrites every
    // element.
    let mut ap = arena::take_f32_zeroed(m * k);
    pack_a(a, m, k, &mut ap);
    let ap = Arc::new(ap);
    let bp = Arc::new(bp);

    // Cell grain: aim for ~2 cells per thread so the caller's helping loop
    // can absorb whatever the OS scheduler does not hand to the workers.
    // Row chunks are multiples of MR so every cell starts on a packed A
    // micro-panel boundary; column panels are NC-wide (a multiple of NR) so
    // every cell starts on a packed B panel boundary. Cell shape is purely
    // a load-balancing knob — each output element is one ascending-`k`
    // chain no matter which cell contains it.
    let col_panels = n.div_ceil(NC);
    let row_chunks = (threads * 2).div_ceil(col_panels).max(1);
    let rows_per = m.div_ceil(row_chunks).next_multiple_of(MR);

    let (tx, rx) = mpsc::channel::<(usize, usize, usize, usize, Vec<f32>)>();
    let mut jobs: Vec<pool::Job> = Vec::new();
    let mut i0 = 0;
    while i0 < m {
        let rows = rows_per.min(m - i0);
        let mut j0 = 0;
        while j0 < n {
            let nc = NC.min(n - j0);
            if i0 == 0 && j0 == 0 {
                // The caller's cell, computed in place below.
                j0 += NC;
                continue;
            }
            // Zeroed only to materialize the length — the kernel overwrites
            // every element (safe Rust has no uninitialized-len Vec).
            let mut c_cell = arena::take_f32_zeroed(rows * nc);
            let ap = Arc::clone(&ap);
            let bp = Arc::clone(&bp);
            let tx = tx.clone();
            jobs.push(Box::new(move || {
                gemm_packed(&ap, &bp, &mut c_cell, nc, m, k, n, i0, rows, j0, nc, use_simd);
                let _ = tx.send((i0, j0, rows, nc, c_cell));
            }));
            j0 += NC;
        }
        i0 += rows;
    }
    drop(tx);
    let mut pending = jobs.len();
    pool::submit(jobs);

    gemm_packed(&ap, &bp, out, n, m, k, n, 0, rows_per.min(m), 0, NC.min(n), use_simd);

    let mut spins = 0u32;
    while pending > 0 {
        match rx.try_recv() {
            Ok((i0, j0, rows, nc, c_cell)) => {
                for rr in 0..rows {
                    out[(i0 + rr) * n + j0..(i0 + rr) * n + j0 + nc]
                        .copy_from_slice(&c_cell[rr * nc..rr * nc + nc]);
                }
                arena::put_f32(c_cell);
                pending -= 1;
            }
            Err(mpsc::TryRecvError::Empty) => {
                if pool::try_run_one() {
                    continue;
                }
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    // Let a worker holding our last cell onto the core.
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => {
                panic!("kernel pool job panicked mid-GEMM ({pending} cell(s) lost)");
            }
        }
    }
    if let Ok(buf) = Arc::try_unwrap(ap) {
        arena::put_f32(buf);
    }
    if let Ok(buf) = Arc::try_unwrap(bp) {
        arena::put_f32(buf);
    }
}

/// `out = A·Bᵀ` with `A: [m,k]`, `B: [n,k]`, `out: [m,n]`.
///
/// `Bᵀ`'s `NR`-wide panels are packed straight from `B`: panel `j` reads
/// rows `j..j + NR` of `B`, each contiguous in `k`, so nothing is
/// transposed first. The product then runs as [`gemm`] runs it, so the
/// result is the bits of [`matmul_naive`] on the materialised `Bᵀ`. Below
/// `MR` rows each output is that same chain, read straight from `B`.
///
/// # Panics
///
/// If a slice length disagrees with its shape, or as [`gemm`].
pub fn gemm_nt(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "gemm_nt lhs length");
    assert_eq!(b.len(), n * k, "gemm_nt rhs length");
    assert_eq!(out.len(), m * n, "gemm_nt out length");
    tally(m, k, n);
    if m < MR {
        if k == 0 || n == 0 {
            out.fill(0.0);
            return;
        }
        for (a_row, o_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            // `NR` columns at a time, so their chains overlap.
            for (b_rows, o) in b.chunks(NR * k).zip(o_row.chunks_mut(NR)) {
                let mut acc = [0.0f32; NR];
                for (p, &av) in a_row.iter().enumerate() {
                    for (c, b_row) in acc.iter_mut().zip(b_rows.chunks_exact(k)) {
                        *c = av.mul_add(b_row[p], *c);
                    }
                }
                o.copy_from_slice(&acc[..o.len()]);
            }
        }
        return;
    }
    gemm_packing_b(a, out, m, k, n, threads, |bp| pack_bt(b, k, n, bp));
}

/// `out = Aᵀ·B` with `A: [k,m]`, `B: [k,n]`, `out: [m,n]`, on the calling
/// thread.
///
/// `Aᵀ` is packed straight from `A` through [`gemm_with_a_panels`]: step
/// `p` of a micro-panel is `r` contiguous floats of row `kb + p` of `A`,
/// so nothing is transposed first. The result is the bits of [`gemm`] on
/// the materialised `Aᵀ`. There is no pooled route: transposing `A` and
/// fanning the product out at 2 threads was slower than this sequential
/// producer on the PPO `dW` shapes at B = 100 (DESIGN §10).
///
/// # Panics
///
/// If a slice length disagrees with its shape.
pub fn gemm_tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "gemm_tn lhs length");
    let pack = |i0: usize, _rows: usize, kb: usize, kc: usize, panel: &mut [f32]| {
        let a_rows = a[kb * m..(kb + kc) * m].chunks_exact(m);
        for (t, micro) in panel.chunks_mut(kc * MR).enumerate() {
            let c = i0 + t * MR;
            if micro.len() == kc * MR {
                // Full tiles copy a constant `MR` floats, which compiles to
                // one vector move instead of a `memcpy` call.
                for (d, row) in micro.chunks_exact_mut(MR).zip(a_rows.clone()) {
                    d.copy_from_slice(&row[c..c + MR]);
                }
            } else {
                let r = micro.len() / kc;
                for (d, row) in micro.chunks_exact_mut(r).zip(a_rows.clone()) {
                    d.copy_from_slice(&row[c..c + r]);
                }
            }
        }
    };
    gemm_with_a_panels(pack, b, out, m, k, n);
}

/// Writes the transpose of row-major `src: [rows, cols]` into `dst`
/// (`[cols, rows]`), resizing `dst` but keeping its allocation when large
/// enough.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut Vec<f32>) {
    assert_eq!(src.len(), rows * cols, "transpose_into length");
    dst.clear();
    dst.resize(rows * cols, 0.0);
    if cols == 0 {
        return;
    }
    for (i, row) in src.chunks_exact(cols).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

/// Packs row-major `a: [m,k]` into the `k`-block-major `MR`-interleaved
/// micro-panel layout (see module docs). `dst` must hold exactly `m·k`
/// elements; every one is overwritten. Pure reshuffle — every source
/// element appears exactly once, so no rounding or NaN behavior is
/// introduced. The full-height case is a bounds-check-free 4-row
/// interleave that LLVM vectorizes; packing cost showed up at 64³-class
/// shapes when this was a per-element `push` loop.
fn pack_a(a: &[f32], m: usize, k: usize, dst: &mut [f32]) {
    debug_assert_eq!(dst.len(), m * k);
    let mut kb = 0;
    while kb < k {
        let kc = KC.min(k - kb);
        let mut i = 0;
        while i < m {
            let r = MR.min(m - i);
            let base = m * kb + kc * i;
            let dpan = &mut dst[base..base + kc * r];
            if r == MR {
                let r0 = &a[i * k + kb..i * k + kb + kc];
                let r1 = &a[(i + 1) * k + kb..(i + 1) * k + kb + kc];
                let r2 = &a[(i + 2) * k + kb..(i + 2) * k + kb + kc];
                let r3 = &a[(i + 3) * k + kb..(i + 3) * k + kb + kc];
                for ((((d, &x0), &x1), &x2), &x3) in
                    dpan.chunks_exact_mut(MR).zip(r0).zip(r1).zip(r2).zip(r3)
                {
                    d[0] = x0;
                    d[1] = x1;
                    d[2] = x2;
                    d[3] = x3;
                }
            } else {
                for (p, d) in dpan.chunks_exact_mut(r).enumerate() {
                    for (rr, v) in d.iter_mut().enumerate() {
                        *v = a[(i + rr) * k + kb + p];
                    }
                }
            }
            i += r;
        }
        kb += kc;
    }
}

/// Packs row-major `b: [k,n]` into the `k`-block-major `NR`-wide
/// column-panel layout (see module docs). `dst` must hold exactly
/// `k · n_pad` elements (`n_pad` = `n` rounded up to `NR`) **and arrive
/// zeroed** — pad lanes beyond `nr` are left untouched and must read as
/// zero. The dispatchers take `dst` from [`arena::take_f32_zeroed`], which
/// guarantees this. Pad lanes only ever feed accumulator lanes that are
/// never written back, so `NaN` operands in `A` cannot leak through them.
fn pack_b(b: &[f32], k: usize, n: usize, dst: &mut [f32]) {
    let n_pad = n.div_ceil(NR) * NR;
    debug_assert_eq!(dst.len(), k * n_pad);
    let mut kb = 0;
    while kb < k {
        let kc = KC.min(k - kb);
        let mut j = 0;
        while j < n {
            let nr = NR.min(n - j);
            let base = n_pad * kb + kc * j;
            let dpan = &mut dst[base..base + kc * NR];
            for (p, d) in dpan.chunks_exact_mut(NR).enumerate() {
                d[..nr].copy_from_slice(&b[(kb + p) * n + j..(kb + p) * n + j + nr]);
            }
            j += NR;
        }
        kb += kc;
    }
}

/// Packs row-major `b: [n,k]` as [`pack_b`] packs its transpose `[k,n]`:
/// panel `[j, j + nr)` of block `kb` stores `b[j + l][kb + p]` at
/// `n_pad·kb + kc·j + p·NR + l`. Each of a panel's `nr` rows is read
/// contiguously. `dst` must arrive zeroed, as for [`pack_b`].
fn pack_bt(b: &[f32], k: usize, n: usize, dst: &mut [f32]) {
    let n_pad = n.div_ceil(NR) * NR;
    debug_assert_eq!(dst.len(), k * n_pad);
    let mut kb = 0;
    while kb < k {
        let kc = KC.min(k - kb);
        let mut j = 0;
        while j < n {
            let nr = NR.min(n - j);
            let base = n_pad * kb + kc * j;
            let dpan = &mut dst[base..base + kc * NR];
            for (l, row) in b[j * k..(j + nr) * k].chunks_exact(k).enumerate() {
                for (d, &v) in dpan[l..].iter_mut().step_by(NR).zip(&row[kb..kb + kc]) {
                    *d = v;
                }
            }
            j += NR;
        }
        kb += kc;
    }
}

/// Computes the output cell `rows × nc` at `(i0, j0)` of the full `m×k×n`
/// product from packed operands `ap` / `bp` (layouts in the module docs).
/// The cell's top-left element is `out[0]` and rows are `ldc` apart, so the
/// same kernel serves in-place computation on the full `C` (`ldc = n`) and
/// dense per-job panels (`ldc = nc`).
///
/// `i0` must be a multiple of `MR` and `j0` a multiple of `NR` (cell
/// boundaries align with packed micro-panels); `i0 + rows` must either be a
/// multiple of `MR` or equal `m`, which the dispatchers guarantee by
/// construction.
///
/// Loop order is `k`-block → row-block (`MC`) → column (`NR`) → row tile:
/// every tile sees its `k`-blocks in ascending order with a reload in
/// between, keeping each output element a single ascending-`k` chain.
#[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
fn gemm_packed(
    ap: &[f32],
    bp: &[f32],
    out: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
    i0: usize,
    rows: usize,
    j0: usize,
    nc: usize,
    use_simd: bool,
) {
    debug_assert!(i0.is_multiple_of(MR) && j0.is_multiple_of(NR));
    debug_assert!(i0 + rows <= m && j0 + nc <= n);
    let n_pad = n.div_ceil(NR) * NR;
    let mut kb = 0;
    while kb < k {
        let kc = KC.min(k - kb);
        let first = kb == 0;
        let mut ic = i0;
        while ic < i0 + rows {
            let mc = MC.min(i0 + rows - ic);
            let mut j = j0;
            while j < j0 + nc {
                let nr = NR.min(j0 + nc - j);
                let pb = n_pad * kb + kc * j;
                let bpanel = &bp[pb..pb + kc * NR];
                let mut i = ic;
                while i < ic + mc {
                    let r = MR.min(ic + mc - i);
                    let pa = m * kb + kc * i;
                    let apanel = &ap[pa..pa + kc * r];
                    let ob = (i - i0) * ldc + (j - j0);
                    simd::tile(r, apanel, bpanel, &mut out[ob..], ldc, kc, nr, first, use_simd);
                    i += r;
                }
                j += NR;
            }
            ic += mc;
        }
        kb += kc;
    }
}

/// Single-threaded packed GEMM over a full row range, with B already
/// packed into `bp`: packs A into thread-local arena scratch, then sweeps
/// L2-sized `NC` column panels. Prior `out` contents are ignored — the
/// first `k`-block pass overwrites every element before any later block
/// reloads it, so callers need not (and do not) zero `out` first.
fn gemm_rows(a: &[f32], bp: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let use_simd = simd_kernel_active();
    // Zeroed only to materialize the length: `pack_a` overwrites every
    // element.
    let mut ap = arena::take_f32_zeroed(m * k);
    pack_a(a, m, k, &mut ap);
    let mut j0 = 0;
    while j0 < n {
        let nc = NC.min(n - j0);
        // `gemm_packed` writes cell-relative: its `out[0]` is the cell's
        // top-left element, so each panel starts at column `j0`.
        gemm_packed(&ap, bp, &mut out[j0..], n, m, k, n, 0, m, j0, nc, use_simd);
        j0 += NC;
    }
    arena::put_f32(ap);
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill.
    fn lcg_fill(seed: u32, len: usize) -> Vec<f32> {
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(1664525).wrapping_add(1013904223);
                (s >> 9) as f32 / (1u32 << 23) as f32 - 0.5
            })
            .collect()
    }

    #[test]
    fn blocked_matches_naive_bitwise() {
        for (case, &(m, k, n)) in
            [(1, 1, 1), (3, 5, 7), (17, 19, 23), (4, 600, 9), (33, 2, 65), (40, 40, 40)]
                .iter()
                .enumerate()
        {
            let a = lcg_fill(case as u32, m * k);
            let b = lcg_fill(case as u32 + 100, k * n);
            let mut want = vec![0.0; m * n];
            matmul_naive(&a, &b, &mut want, m, k, n);
            for threads in [1usize, 2, 3] {
                let mut got = vec![0.0; m * n];
                gemm(&a, &b, &mut got, m, k, n, threads);
                assert_eq!(got, want, "m={m} k={k} n={n} threads={threads}");
            }
        }
    }

    #[test]
    // 40 M interpreted mul_adds plus persistent pool threads: far beyond
    // Miri's budget. The packing offsets and tile dispatch it shares with
    // the sequential path stay Miri-covered via the other tests here.
    #[cfg_attr(miri, ignore)]
    fn pooled_dispatch_matches_naive_bitwise_above_threshold() {
        // 160³ volume (4.1 M) clears PAR_THRESHOLD, so threads ≥ 2 route
        // through the persistent pool; every thread count must agree with
        // the reference bit-for-bit.
        let (m, k, n) = (160usize, 160, 160);
        assert!(m * k * n >= PAR_THRESHOLD, "shape must exercise the pooled path");
        let a = lcg_fill(7, m * k);
        let b = lcg_fill(8, k * n);
        let mut want = vec![0.0; m * n];
        matmul_naive(&a, &b, &mut want, m, k, n);
        for threads in [1usize, 2, 3, 4, 8] {
            let mut got = vec![0.0; m * n];
            gemm(&a, &b, &mut got, m, k, n, threads);
            assert_eq!(got, want, "pooled threads={threads}");
        }
    }

    #[test]
    fn packed_layouts_roundtrip_every_element() {
        // Awkward shapes: k crossing a KC boundary, ragged MR/NR tails.
        let (m, k, n) = (7usize, 300usize, 21usize);
        let a = lcg_fill(11, m * k);
        let b = lcg_fill(12, k * n);
        let mut ap = vec![0.0f32; m * k];
        pack_a(&a, m, k, &mut ap);
        let n_pad = n.div_ceil(NR) * NR;
        let mut bp = vec![0.0f32; k * n_pad];
        pack_b(&b, k, n, &mut bp);
        // Check the documented offset formulas directly.
        let mut kb = 0;
        while kb < k {
            let kc = KC.min(k - kb);
            for p in 0..kc {
                let mut i = 0;
                while i < m {
                    let r = MR.min(m - i);
                    for rr in 0..r {
                        assert_eq!(
                            ap[m * kb + kc * i + p * r + rr].to_bits(),
                            a[(i + rr) * k + kb + p].to_bits(),
                            "A pack mismatch at kb={kb} p={p} i={i} rr={rr}"
                        );
                    }
                    i += r;
                }
                let mut j = 0;
                while j < n {
                    let nr = NR.min(n - j);
                    for l in 0..NR {
                        let got = bp[n_pad * kb + kc * j + p * NR + l];
                        let want = if l < nr { b[(kb + p) * n + j + l] } else { 0.0 };
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "B pack mismatch at kb={kb} p={p} j={j} l={l}"
                        );
                    }
                    j += NR;
                }
            }
            kb += kc;
        }
    }

    #[test]
    fn forced_scalar_matches_simd_bitwise() {
        let (m, k, n) = (23usize, 37, 41);
        let a = lcg_fill(21, m * k);
        let b = lcg_fill(22, k * n);
        let mut fast = vec![0.0; m * n];
        gemm(&a, &b, &mut fast, m, k, n, 1);
        set_force_scalar(true);
        assert!(!simd_kernel_active());
        let mut slow = vec![0.0; m * n];
        gemm(&a, &b, &mut slow, m, k, n, 1);
        set_force_scalar(false);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast), bits(&slow));
    }

    #[test]
    fn nt_and_tn_match_materialized_transpose() {
        let (m, k, n) = (7, 11, 5);
        let a = lcg_fill(1, m * k);
        let bt = lcg_fill(2, n * k); // B stored [n, k]
        let at = lcg_fill(3, k * m); // A stored [k, m]
        let b = lcg_fill(4, k * n);

        let mut got = vec![0.0; m * n];
        gemm_nt(&a, &bt, &mut got, m, k, n, 1);
        let mut b_mat = Vec::new();
        transpose_into(&bt, n, k, &mut b_mat);
        let mut want = vec![0.0; m * n];
        matmul_naive(&a, &b_mat, &mut want, m, k, n);
        assert_eq!(got, want);

        gemm_tn(&at, &b, &mut got, m, k, n);
        let mut a_mat = Vec::new();
        transpose_into(&at, k, m, &mut a_mat);
        matmul_naive(&a_mat, &b, &mut want, m, k, n);
        assert_eq!(got, want);
    }

    #[test]
    fn zero_times_nonfinite_is_nan() {
        // A = [0, 1], B column 0 row 0 = NaN: 0·NaN must poison the output.
        let a = [0.0f32, 1.0];
        let b = [f32::NAN, 2.0, 3.0, 4.0];
        let mut out = [0.0f32; 2];
        gemm(&a, &b, &mut out, 1, 2, 2, 1);
        assert!(out[0].is_nan(), "0·NaN must propagate, got {}", out[0]);
        let b_inf = [f32::INFINITY, 2.0, 3.0, 4.0];
        gemm(&a, &b_inf, &mut out, 1, 2, 2, 1);
        assert!(out[0].is_nan(), "0·∞ must propagate as NaN, got {}", out[0]);
        // The naive reference agrees.
        matmul_naive(&a, &b, &mut out, 1, 2, 2);
        assert!(out[0].is_nan());
    }

    #[test]
    fn empty_dims_are_fine() {
        let mut out = vec![1.0f32; 3];
        gemm(&[], &[], &mut out, 3, 0, 1, 1);
        assert_eq!(out, vec![0.0; 3]);
        let mut empty: Vec<f32> = Vec::new();
        gemm(&[], &[1.0, 2.0], &mut empty, 0, 1, 2, 1);
        gemm(&[1.0], &[], &mut empty, 1, 1, 0, 1);
    }

    #[test]
    fn thread_knob_clamps_to_one() {
        set_kernel_threads(0);
        assert_eq!(kernel_threads(), 1);
        set_kernel_threads(2);
        assert_eq!(kernel_threads(), 2);
        set_kernel_threads(1);
    }

    #[test]
    fn kernel_counters_tally_calls_and_flops() {
        // Counters are process-wide, so this test tolerates concurrent
        // growth from other tests: it checks the *delta* is at least what
        // its own calls contribute.
        let (m, k, n) = (3usize, 4usize, 5usize);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];
        set_kernel_telemetry(true);
        assert!(kernel_telemetry_enabled());
        let before = kernel_counters();
        gemm(&a, &b, &mut c, m, k, n, 1);
        gemm(&a, &b, &mut c, m, k, n, 1);
        let after = kernel_counters();
        set_kernel_telemetry(false);
        assert!(after.gemm_calls >= before.gemm_calls + 2);
        assert!(after.gemm_flops >= before.gemm_flops + 2 * 2 * (m * k * n) as u64);
        // With telemetry back off, counters stop moving from this thread.
        let frozen = kernel_counters();
        gemm(&a, &b, &mut c, m, k, n, 1);
        assert_eq!(kernel_counters().gemm_calls, frozen.gemm_calls);
    }
}
