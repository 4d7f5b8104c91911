//! Explicit SIMD micro-kernels for the blocked GEMM — the workspace's one
//! sanctioned `unsafe` module.
//!
//! The dense hot path ([`crate::ops::gemm`]) bottoms out in the register
//! tile computed here: an `MR×NR = 4×16` output tile accumulated over one
//! `k`-block from *packed* operand panels. The convolution
//! ([`crate::ops::conv`]) runs the same tile with its A operand gathered
//! instead of packed ([`gather_tile`]): row `r`, step `k` reads
//! `src[row_off[r] + col_off[k]]` straight from the zero-bordered input.
//! On x86-64 with AVX2+FMA (the
//! `.cargo/config.toml` baseline is x86-64-v3) the tile runs on explicit
//! `core::arch` intrinsics — eight `__m256` accumulators, two panel loads
//! and four broadcasts per `k` step, all `_mm256_fmadd_ps`. Everywhere else
//! (non-x86 targets, Miri, `--cfg loom` model builds, or when
//! [`gemm::set_force_scalar`](crate::ops::gemm::set_force_scalar) is on)
//! the same tile runs the scalar fallback below.
//!
//! Two more kernels live here for the same reason: [`tap_sum_tile`], the
//! convolution's input gradient (per-tap `C_out` chains summed into each
//! input pixel), and [`row_sums`], LayerNorm's row statistics eight rows
//! at a time. Each keeps the chains of the scalar loop it stands for.
//!
//! ## Bit compatibility
//!
//! The two paths are bit-identical by construction. Each output element is
//! one accumulation chain in strictly ascending `k`:
//!
//! ```text
//! acc = fma(a[i][p], b[p][j], acc)        // p = kb, kb+1, …, kb+kc-1
//! ```
//!
//! The scalar path expresses each link as `f32::mul_add` (one `vfmadd`
//! instruction on this baseline); the SIMD path expresses sixteen chains at
//! a time as two `_mm256_fmadd_ps` lanes. IEEE 754 fused multiply-add is
//! deterministic per lane — same inputs, same single rounding — so lane `j`
//! of the vector chain computes exactly the scalar chain, `NaN`/`∞`
//! propagation included. The equivalence tests
//! (`crates/nn/tests/pool_equivalence.rs`, `gemm_simd_nan.rs`) pin this
//! bitwise on every shape and thread count, and the scalar fallback is what
//! the Miri/loom `cargo xtask analyze` jobs exercise.
//!
//! ## Padded tail lanes
//!
//! B panels are zero-padded to the full `NR` width, so tail tiles
//! (`nr < NR`) accumulate `a·0` in the pad lanes. Those lanes are never
//! written back — stores go through an `nr`-bounded copy — so a non-finite
//! `a` poisoning a pad lane (`NaN·0 = NaN`) cannot leak into `C`. The NaN
//! regression suite covers exactly this window.
//!
//! ## Safety policy
//!
//! The workspace denies `unsafe_code` (`DESIGN.md` §8); this module holds
//! the single exemption, granted because the intrinsics' preconditions are
//! mechanical and locally checkable. Every `unsafe` block sits behind slice
//! length asserts that establish the pointed-to ranges, target-feature
//! availability is a compile-time `cfg` (no runtime dispatch to get wrong),
//! and the `unsafe-allow` lint in `cargo xtask lint` fails any *other*
//! module that tries to opt out of the deny.
#![allow(unsafe_code)]

/// Rows per register tile of the micro-kernel.
pub(crate) const MR: usize = 4;
/// Columns per register tile: two AVX2 vectors per row, giving the eight
/// independent FMA chains needed to hide FMA latency.
pub(crate) const NR: usize = 16;

/// Whether this build carries the AVX2/FMA micro-kernel. False on non-x86
/// targets and under Miri or loom, where the scalar fallback (bit-identical
/// by construction) runs instead.
pub(crate) const fn compiled() -> bool {
    cfg!(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(miri),
        not(loom)
    ))
}

/// Computes one `r×nr` output tile (`r ≤ MR`, `nr ≤ NR`) over one `k`-block
/// of length `kc`.
///
/// * `ap` — packed A micro-panel: `kc` steps of `r` row values
///   (`ap[p*r + row]`).
/// * `bp` — packed B panel: `kc` steps of `NR` lanes (`bp[p*NR + col]`),
///   zero-padded beyond `nr`.
/// * `out` — the tile's top-left element is `out[0]`; row `row` spans
///   `out[row*ldc .. row*ldc + nr]`.
/// * `first` — when true this is the first `k`-block: accumulators start at
///   literal zero and prior `out` contents are ignored. Otherwise the tile
///   is reloaded from `out`, keeping each element's accumulation chain
///   strictly ascending in `k` across blocks.
/// * `use_simd` — selects the AVX2 path when it is compiled in; callers
///   resolve [`compiled`] and the force-scalar knob once per GEMM call.
///
/// # Panics
///
/// If a slice is shorter than the ranges described above.
#[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
pub(crate) fn tile(
    r: usize,
    ap: &[f32],
    bp: &[f32],
    out: &mut [f32],
    ldc: usize,
    kc: usize,
    nr: usize,
    first: bool,
    use_simd: bool,
) {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(miri),
        not(loom)
    ))]
    if use_simd && r == MR {
        avx::tile_mr(ap, bp, out, ldc, kc, nr, first);
        return;
    }
    let _ = use_simd;
    scalar_tile(r, ap, bp, out, ldc, kc, nr, first);
}

/// Computes `out[i·ldc + l]` for every row `i < row_off.len()` and lane
/// `l < nr`, with the A operand gathered from `src`:
///
/// ```text
/// acc = fma(src[row_off[i] + col_off[p]], bp[p*NR + l], acc)   // p = 0, 1, …, kc-1
/// ```
///
/// where `kc = col_off.len()`. Rows run in register tiles of `MR` (the
/// last one may be shorter).
///
/// * `bp` — one B panel: `kc` steps of `NR` lanes, zero-padded beyond `nr`.
///   Pad lanes are computed but never stored, as in [`tile`].
/// * `first` — when true the accumulators start at literal zero and prior
///   `out` contents are ignored; otherwise they are reloaded from `out`, so
///   a caller splitting `k` into blocks keeps one ascending chain per output.
/// * `use_simd` — selects the AVX2 path when it is compiled in.
///
/// Each output is the chain [`tile`] computes on the materialised A, so the
/// two flavors, and the packed and gathered routes, agree bit for bit.
///
/// # Panics
///
/// If `bp` or `out` is shorter than the ranges above, `nr` is not in
/// `1..=NR`, or some `row_off[i] + col_off[p]` falls outside `src`.
#[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
pub(crate) fn gather_tile(
    src: &[f32],
    row_off: &[usize],
    col_off: &[usize],
    bp: &[f32],
    out: &mut [f32],
    ldc: usize,
    nr: usize,
    first: bool,
    use_simd: bool,
) {
    let (rows, kc) = (row_off.len(), col_off.len());
    assert!((1..=NR).contains(&nr) && ldc >= nr, "tile width out of range");
    assert!(bp.len() >= kc * NR, "B panel too short");
    if rows == 0 {
        return;
    }
    assert!(out.len() >= (rows - 1) * ldc + nr, "output rows out of bounds");
    if let (Some(&rmax), Some(&cmax)) = (row_off.iter().max(), col_off.iter().max()) {
        assert!(
            rmax.checked_add(cmax).is_some_and(|end| end < src.len()),
            "gather offset {rmax} + {cmax} outside a source of {}",
            src.len()
        );
    }
    for (t, rt) in row_off.chunks(MR).enumerate() {
        let out = &mut out[t * MR * ldc..];
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma",
            not(miri),
            not(loom)
        ))]
        if use_simd {
            // SAFETY: the asserts above bound every `rt[i] + col_off[p]`
            // inside `src`, `bp[..kc*NR]`, and `out[..(rt.len()-1)*ldc+nr]`.
            let (s, c, o) = (src, col_off, &mut *out);
            unsafe {
                match *rt {
                    [r0] => avx::gather_rows([r0], s, c, bp, o, ldc, nr, first),
                    [r0, r1] => avx::gather_rows([r0, r1], s, c, bp, o, ldc, nr, first),
                    [r0, r1, r2] => avx::gather_rows([r0, r1, r2], s, c, bp, o, ldc, nr, first),
                    [r0, r1, r2, r3] => {
                        avx::gather_rows([r0, r1, r2, r3], s, c, bp, o, ldc, nr, first);
                    }
                    _ => unreachable!("row tiles hold 1..=MR rows"),
                }
            }
            continue;
        }
        let _ = use_simd;
        scalar_gather(src, rt, col_off, bp, out, ldc, nr, first);
    }
}

/// Computes, for every row `i < rows.len()` and lane `l < nr`,
///
/// ```text
/// sum = +0.0
/// for (q, off) in taps:                      // in the order given
///     acc = 0
///     for o in 0..co:
///         acc = fma(src[rows[i] + off + o·ostride], wp[(q·co + o)·NR + l], acc)
///     sum = sum + acc
/// out[outs[i] + l·lstride] = sum
/// ```
///
/// Each tap's chain starts from zero and is added into the row's sum in
/// tap order, so the result is the sum of the per-tap products a GEMM
/// would have stored, folded exactly as a gather over them would fold it.
/// The convolution's input gradient runs it with rows = input pixels that
/// read the same taps, `k` = `C_out` and lanes = `C_in`
/// ([`crate::ops::conv`]). Rows run in register tiles of 8 (lanes ≤ 8) or
/// 4; a short last tile repeats its last row and stores only its own.
///
/// * `wp` — one lane panel: for tap `q`, `co` steps of `NR` lanes,
///   zero-padded beyond `nr`. Pad lanes are computed but never stored.
/// * `use_simd` — selects the AVX2 path when it is compiled in.
///
/// # Panics
///
/// If `rows` and `outs` differ in length, `nr` is not in `1..=NR`, or an
/// index described above falls outside `src`, `wp` or `out`.
#[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
pub(crate) fn tap_sum_tile(
    src: &[f32],
    rows: &[usize],
    taps: &[(usize, usize)],
    wp: &[f32],
    co: usize,
    ostride: usize,
    out: &mut [f32],
    outs: &[usize],
    lstride: usize,
    nr: usize,
    use_simd: bool,
) {
    assert_eq!(rows.len(), outs.len(), "one output offset per row");
    assert!((1..=NR).contains(&nr), "tile width out of range");
    let (Some(&rmax), Some(&omax)) = (rows.iter().max(), outs.iter().max()) else { return };
    assert!(
        omax.checked_add((nr - 1) * lstride).is_some_and(|end| end < out.len()),
        "output offset {omax} outside an output of {}",
        out.len()
    );
    for &(q, off) in taps {
        assert!((q + 1) * co * NR <= wp.len(), "tap {q} outside the lane panel");
        if co > 0 {
            let end = rmax.checked_add(off).and_then(|v| v.checked_add((co - 1) * ostride));
            assert!(end.is_some_and(|end| end < src.len()), "tap offset {off} outside the source");
        }
    }
    let dims = TapSums { src, taps, wp, co, ostride, lstride, nr };
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(miri),
        not(loom)
    ))]
    if use_simd {
        // SAFETY: the asserts above bound every source read, lane-panel
        // read and output store the tiles make.
        unsafe {
            if nr <= NR / 2 {
                avx::tap_sum_rows::<8, 1>(&dims, rows, out, outs);
            } else {
                avx::tap_sum_rows::<4, 2>(&dims, rows, out, outs);
            }
        }
        return;
    }
    let _ = use_simd;
    scalar_tap_sums(&dims, rows, out, outs);
}

/// The scalar flavor of [`tap_sum_tile`]: identical chains via
/// `f32::mul_add`, one row at a time.
fn scalar_tap_sums(d: &TapSums<'_>, rows: &[usize], out: &mut [f32], outs: &[usize]) {
    for (&r, &o) in rows.iter().zip(outs) {
        let mut sum = [0.0f32; NR];
        for &(q, off) in d.taps {
            let mut acc = [0.0f32; NR];
            for (k, wl) in d.wp[q * d.co * NR..(q + 1) * d.co * NR].chunks_exact(NR).enumerate() {
                let av = d.src[r + off + k * d.ostride];
                for (a, &wv) in acc.iter_mut().zip(wl) {
                    *a = av.mul_add(wv, *a);
                }
            }
            for (s, &a) in sum.iter_mut().zip(&acc) {
                *s += a;
            }
        }
        for (l, &s) in sum.iter().enumerate().take(d.nr) {
            out[o + l * d.lstride] = s;
        }
    }
}

/// Rows per [`row_sums`] group: one AVX2 vector of per-row sums.
pub(crate) const SUM_ROWS: usize = 8;

/// Per-row sums of `N` row-major `[SUM_ROWS, feat]` blocks: for each block
/// `s` and row `r`, `out[s][r] = (((start + b[r][0]) + b[r][1]) + …)` over
/// ascending `j`, one left fold per row, exactly `Iterator::fold` order.
///
/// The SIMD path transposes `8×8` tiles in registers and keeps the eight
/// row chains in the lanes of one vector per block, so the rows' adds
/// overlap and the `N` blocks' chains overlap each other.
///
/// # Panics
///
/// If a block is not `SUM_ROWS · feat` floats long.
pub(crate) fn row_sums<const N: usize>(
    blocks: [&[f32]; N],
    feat: usize,
    start: f32,
    use_simd: bool,
) -> [[f32; SUM_ROWS]; N] {
    for b in &blocks {
        assert_eq!(b.len(), SUM_ROWS * feat, "row_sums block length");
    }
    let done = if use_simd && compiled() { feat - feat % 8 } else { 0 };
    let mut out = [[start; SUM_ROWS]; N];
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(miri),
        not(loom)
    ))]
    if done > 0 {
        // SAFETY: every block holds `SUM_ROWS · feat` floats (asserted
        // above), and the tiles read columns `< done ≤ feat` of each row.
        out = unsafe { avx::row_sums_tiles(&blocks, feat, done, start) };
    }
    for (o, b) in out.iter_mut().zip(&blocks) {
        for (acc, row) in o.iter_mut().zip(b.chunks_exact(feat.max(1))) {
            *acc = row[done..].iter().fold(*acc, |a, &v| a + v);
        }
    }
    out
}

/// The shared operands of one [`tap_sum_tile`] call.
struct TapSums<'a> {
    src: &'a [f32],
    taps: &'a [(usize, usize)],
    wp: &'a [f32],
    co: usize,
    ostride: usize,
    lstride: usize,
    nr: usize,
}

/// The scalar flavor of one [`gather_tile`] register tile: identical
/// chains via `f32::mul_add`.
#[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
fn scalar_gather(
    src: &[f32],
    rt: &[usize],
    col_off: &[usize],
    bp: &[f32],
    out: &mut [f32],
    ldc: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (row, accr) in acc.iter_mut().enumerate().take(rt.len()) {
            accr[..nr].copy_from_slice(&out[row * ldc..row * ldc + nr]);
        }
    }
    for (&c, bl) in col_off.iter().zip(bp.chunks_exact(NR)) {
        for (accr, &r) in acc.iter_mut().zip(rt) {
            let av = src[r + c];
            for (lane, &bv) in accr.iter_mut().zip(bl) {
                *lane = av.mul_add(bv, *lane);
            }
        }
    }
    for (row, accr) in acc.iter().enumerate().take(rt.len()) {
        out[row * ldc..row * ldc + nr].copy_from_slice(&accr[..nr]);
    }
}

/// The scalar reference tile: identical chains via `f32::mul_add`. Handles
/// every row count `1..=MR`; also the tail-row path on SIMD builds (scalar
/// and vector chains are bit-identical, so tiles may mix freely).
#[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
fn scalar_tile(
    r: usize,
    ap: &[f32],
    bp: &[f32],
    out: &mut [f32],
    ldc: usize,
    kc: usize,
    nr: usize,
    first: bool,
) {
    debug_assert!((1..=MR).contains(&r) && (1..=NR).contains(&nr));
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (row, accr) in acc.iter_mut().enumerate().take(r) {
            accr[..nr].copy_from_slice(&out[row * ldc..row * ldc + nr]);
        }
    }
    for (p, bl) in bp.chunks_exact(NR).enumerate().take(kc) {
        let astep = &ap[p * r..p * r + r];
        for (accr, &av) in acc.iter_mut().zip(astep) {
            for (lane, &bv) in accr.iter_mut().zip(bl) {
                *lane = av.mul_add(bv, *lane);
            }
        }
    }
    for (row, accr) in acc.iter().enumerate().take(r) {
        out[row * ldc..row * ldc + nr].copy_from_slice(&accr[..nr]);
    }
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(miri),
    not(loom)
))]
mod avx {
    use super::{TapSums, MR, NR, SUM_ROWS};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_permute2f128_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_ps, _mm256_unpackhi_ps,
        _mm256_unpacklo_ps,
    };

    /// [`super::row_sums`] over columns `0..cols` (a multiple of 8): each
    /// block's eight row chains run in the lanes of one vector.
    ///
    /// # Safety
    ///
    /// Every block must hold `SUM_ROWS · feat` floats, with `cols ≤ feat`.
    pub(super) unsafe fn row_sums_tiles<const N: usize>(
        blocks: &[&[f32]; N],
        feat: usize,
        cols: usize,
        start: f32,
    ) -> [[f32; SUM_ROWS]; N] {
        // SAFETY: each load reads 8 floats at `r·feat + j` with
        // `r < SUM_ROWS` and `j + 8 ≤ cols ≤ feat`, inside its block.
        unsafe {
            let mut acc = [_mm256_set1_ps(start); N];
            let mut j = 0;
            while j < cols {
                for (a, b) in acc.iter_mut().zip(blocks) {
                    let p = b.as_ptr().add(j);
                    let rows: [__m256; 8] =
                        std::array::from_fn(|r| _mm256_loadu_ps(p.add(r * feat)));
                    for col in transpose8(rows) {
                        *a = _mm256_add_ps(*a, col);
                    }
                }
                j += 8;
            }
            let mut out = [[0.0f32; SUM_ROWS]; N];
            for (o, a) in out.iter_mut().zip(&acc) {
                _mm256_storeu_ps(o.as_mut_ptr(), *a);
            }
            out
        }
    }

    /// The 8×8 transpose: lane `r` of output `t` is lane `t` of input `r`.
    #[inline(always)]
    fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        // SAFETY: register-only shuffles; AVX is enabled at compile time.
        unsafe {
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                _mm256_permute2f128_ps::<0x20>(s0, s4),
                _mm256_permute2f128_ps::<0x20>(s1, s5),
                _mm256_permute2f128_ps::<0x20>(s2, s6),
                _mm256_permute2f128_ps::<0x20>(s3, s7),
                _mm256_permute2f128_ps::<0x31>(s0, s4),
                _mm256_permute2f128_ps::<0x31>(s1, s5),
                _mm256_permute2f128_ps::<0x31>(s2, s6),
                _mm256_permute2f128_ps::<0x31>(s3, s7),
            ]
        }
    }

    /// [`super::tap_sum_tile`] in tiles of `R` rows with `V` eight-lane
    /// vectors per row (`nr ≤ 8·V`).
    ///
    /// # Safety
    ///
    /// Every index `tap_sum_tile` describes must be in bounds, as its
    /// asserts establish before calling.
    pub(super) unsafe fn tap_sum_rows<const R: usize, const V: usize>(
        d: &TapSums<'_>,
        rows: &[usize],
        out: &mut [f32],
        outs: &[usize],
    ) {
        for (rt, ot) in rows.chunks(R).zip(outs.chunks(R)) {
            // A short tile repeats its last row; only live rows are stored.
            let at = |i: usize| rt[i.min(rt.len() - 1)];
            let base: [usize; R] = std::array::from_fn(at);
            // SAFETY: forwarded from this function's own contract.
            let sum = unsafe { tap_sum_regs::<R, V>(d, base) };
            for (s, &o) in sum.iter().zip(ot) {
                let mut stage = [0.0f32; NR];
                for (v, &x) in s.iter().enumerate() {
                    // SAFETY: `stage` holds `NR ≥ 8·V` floats.
                    unsafe { _mm256_storeu_ps(stage.as_mut_ptr().add(8 * v), x) };
                }
                for (l, &x) in stage.iter().enumerate().take(d.nr) {
                    out[o + l * d.lstride] = x;
                }
            }
        }
    }

    /// The `R×V` register sums of one [`tap_sum_rows`] tile.
    ///
    /// # Safety
    ///
    /// As [`tap_sum_rows`], for the rows `base`.
    #[inline(always)]
    unsafe fn tap_sum_regs<const R: usize, const V: usize>(
        d: &TapSums<'_>,
        base: [usize; R],
    ) -> [[__m256; V]; R] {
        // SAFETY: the caller's contract bounds every read below.
        unsafe {
            let mut sum = [[_mm256_setzero_ps(); V]; R];
            let s = d.src.as_ptr();
            for &(q, off) in d.taps {
                let mut acc = [[_mm256_setzero_ps(); V]; R];
                let mut w = d.wp.as_ptr().add(q * d.co * NR);
                for k in 0..d.co {
                    let step = off + k * d.ostride;
                    let mut wv = [_mm256_setzero_ps(); V];
                    for (v, x) in wv.iter_mut().enumerate() {
                        *x = _mm256_loadu_ps(w.add(8 * v));
                    }
                    for (accr, &r) in acc.iter_mut().zip(&base) {
                        let av = _mm256_set1_ps(*s.add(r + step));
                        for (a, &x) in accr.iter_mut().zip(&wv) {
                            *a = _mm256_fmadd_ps(av, x, *a);
                        }
                    }
                    w = w.add(NR);
                }
                for (sr, ar) in sum.iter_mut().zip(&acc) {
                    for (x, &a) in sr.iter_mut().zip(ar) {
                        *x = _mm256_add_ps(*x, a);
                    }
                }
            }
            sum
        }
    }

    /// The full `MR×nr` AVX2/FMA tile; see [`super::tile`] for the operand
    /// contract. Bounds for every raw load/store are established by the
    /// asserts up front, so the `unsafe` here is exactly "these pointers
    /// stay inside their slices".
    pub(super) fn tile_mr(
        ap: &[f32],
        bp: &[f32],
        out: &mut [f32],
        ldc: usize,
        kc: usize,
        nr: usize,
        first: bool,
    ) {
        assert!(ap.len() >= kc * MR, "packed A panel too short");
        assert!(bp.len() >= kc * NR, "packed B panel too short");
        assert!((1..=NR).contains(&nr), "tile width out of range");
        assert!(
            out.len() >= (MR - 1) * ldc + nr && ldc >= nr,
            "output tile out of bounds (len {}, ldc {ldc}, nr {nr})",
            out.len()
        );
        // SAFETY: all pointer arithmetic below stays inside `ap[..kc*MR]`,
        // `bp[..kc*NR]` and `out[..(MR-1)*ldc+nr]`, which the asserts above
        // establish; loads/stores are unaligned-tolerant (`loadu`/`storeu`),
        // and partial rows go through a stack staging buffer instead of
        // touching memory past `nr`.
        unsafe {
            let mut acc: [[__m256; 2]; MR] = [[_mm256_setzero_ps(); 2]; MR];
            if !first {
                for (row, accr) in acc.iter_mut().enumerate() {
                    if nr == NR {
                        accr[0] = _mm256_loadu_ps(out.as_ptr().add(row * ldc));
                        accr[1] = _mm256_loadu_ps(out.as_ptr().add(row * ldc + 8));
                    } else {
                        // Pad lanes start at zero and are never stored back.
                        let mut stage = [0.0f32; NR];
                        stage[..nr].copy_from_slice(&out[row * ldc..row * ldc + nr]);
                        accr[0] = _mm256_loadu_ps(stage.as_ptr());
                        accr[1] = _mm256_loadu_ps(stage.as_ptr().add(8));
                    }
                }
            }
            let mut a = ap.as_ptr();
            let mut b = bp.as_ptr();
            for _ in 0..kc {
                let b0 = _mm256_loadu_ps(b);
                let b1 = _mm256_loadu_ps(b.add(8));
                for accr in &mut acc {
                    let av = _mm256_set1_ps(*a);
                    accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                    accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
                    a = a.add(1);
                }
                b = b.add(NR);
            }
            for (row, accr) in acc.iter().enumerate() {
                if nr == NR {
                    _mm256_storeu_ps(out.as_mut_ptr().add(row * ldc), accr[0]);
                    _mm256_storeu_ps(out.as_mut_ptr().add(row * ldc + 8), accr[1]);
                } else {
                    let mut stage = [0.0f32; NR];
                    _mm256_storeu_ps(stage.as_mut_ptr(), accr[0]);
                    _mm256_storeu_ps(stage.as_mut_ptr().add(8), accr[1]);
                    out[row * ldc..row * ldc + nr].copy_from_slice(&stage[..nr]);
                }
            }
        }
    }

    /// One `R×nr` tile of [`super::gather_tile`] (`1 ≤ R ≤ MR`), rows at
    /// offsets `rows` into `src`. Tiles at most 8 lanes wide run one
    /// vector per row; their pad lanes are never computed.
    ///
    /// # Safety
    ///
    /// Every `rows[i] + col_off[p]` must index `src`, `bp` must hold
    /// `col_off.len()·NR` floats, `nr` must lie in `1..=NR`, and `out` must
    /// hold `(R-1)·ldc + nr` floats with `ldc ≥ nr`; `gather_tile` asserts
    /// all of it before calling.
    #[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
    pub(super) unsafe fn gather_rows<const R: usize>(
        rows: [usize; R],
        src: &[f32],
        col_off: &[usize],
        bp: &[f32],
        out: &mut [f32],
        ldc: usize,
        nr: usize,
        first: bool,
    ) {
        // SAFETY: forwarded from this function's own contract.
        unsafe {
            if nr <= NR / 2 {
                gather_vecs::<R, 1>(rows, src, col_off, bp, out, ldc, nr, first);
            } else {
                gather_vecs::<R, 2>(rows, src, col_off, bp, out, ldc, nr, first);
            }
        }
    }

    /// [`gather_rows`] with `V` eight-lane vectors per row (`nr ≤ 8·V`).
    ///
    /// # Safety
    ///
    /// As [`gather_rows`], with `nr ≤ 8·V`.
    #[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
    unsafe fn gather_vecs<const R: usize, const V: usize>(
        rows: [usize; R],
        src: &[f32],
        col_off: &[usize],
        bp: &[f32],
        out: &mut [f32],
        ldc: usize,
        nr: usize,
        first: bool,
    ) {
        // SAFETY: the caller's contract bounds every access below; partial
        // rows go through a stack staging buffer instead of touching `out`
        // past `nr`.
        unsafe {
            let mut acc: [[__m256; V]; R] = [[_mm256_setzero_ps(); V]; R];
            if !first {
                for (row, accr) in acc.iter_mut().enumerate() {
                    let mut stage = [0.0f32; NR];
                    stage[..nr].copy_from_slice(&out[row * ldc..row * ldc + nr]);
                    for (v, a) in accr.iter_mut().enumerate() {
                        *a = _mm256_loadu_ps(stage.as_ptr().add(8 * v));
                    }
                }
            }
            let s = src.as_ptr();
            let mut b = bp.as_ptr();
            for &c in col_off {
                let mut bv = [_mm256_setzero_ps(); V];
                for (v, x) in bv.iter_mut().enumerate() {
                    *x = _mm256_loadu_ps(b.add(8 * v));
                }
                for (accr, &r) in acc.iter_mut().zip(&rows) {
                    let av = _mm256_set1_ps(*s.add(r + c));
                    for (a, &x) in accr.iter_mut().zip(&bv) {
                        *a = _mm256_fmadd_ps(av, x, *a);
                    }
                }
                b = b.add(NR);
            }
            for (row, accr) in acc.iter().enumerate() {
                if nr == 8 * V {
                    for (v, &a) in accr.iter().enumerate() {
                        _mm256_storeu_ps(out.as_mut_ptr().add(row * ldc + 8 * v), a);
                    }
                } else {
                    let mut stage = [0.0f32; NR];
                    for (v, &a) in accr.iter().enumerate() {
                        _mm256_storeu_ps(stage.as_mut_ptr().add(8 * v), a);
                    }
                    out[row * ldc..row * ldc + nr].copy_from_slice(&stage[..nr]);
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Packs one k-step-major micro-panel pair from row-major `a`/`b` and
    /// runs `tile` both ways, asserting bitwise agreement with a direct
    /// mul_add chain.
    fn check_tile(r: usize, kc: usize, nr: usize, poison: Option<(usize, usize)>) {
        let mut a = vec![0.0f32; kc * r];
        let mut b = vec![0.0f32; kc * NR];
        for (i, v) in a.iter_mut().enumerate() {
            *v = (i as f32).sin();
        }
        for p in 0..kc {
            for l in 0..nr {
                b[p * NR + l] = ((p * 31 + l) as f32).cos();
            }
        }
        if let Some((p, l)) = poison {
            b[p * NR + l] = f32::NAN;
            a[p * r] = 0.0; // 0·NaN must still poison lane l of row 0
        }
        let mut want = vec![0.0f32; r * NR];
        for p in 0..kc {
            for row in 0..r {
                for lane in 0..nr {
                    let w = &mut want[row * NR + lane];
                    *w = a[p * r + row].mul_add(b[p * NR + lane], *w);
                }
            }
        }
        for use_simd in [false, true] {
            let mut out = vec![0.0f32; r * NR];
            tile(r, &a, &b, &mut out, NR, kc, nr, true, use_simd);
            for row in 0..r {
                for lane in 0..nr {
                    assert_eq!(
                        out[row * NR + lane].to_bits(),
                        want[row * NR + lane].to_bits(),
                        "r={r} kc={kc} nr={nr} simd={use_simd} row={row} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_and_tail_tiles_match_reference_chains() {
        for r in 1..=MR {
            for nr in [1, 7, 8, 9, NR] {
                check_tile(r, 5, nr, None);
            }
        }
        check_tile(MR, 256, NR, None);
    }

    #[test]
    fn zero_times_nan_poisons_only_its_lane() {
        check_tile(MR, 3, NR, Some((1, 2)));
        // Tail tile: the poisoned lane sits inside nr, pad lanes beyond.
        check_tile(MR, 3, 5, Some((0, 4)));
    }

    /// Runs `gather_tile` both ways, in one k-block and split in two with
    /// a reload, over `rows` gathered rows. Every stored lane must equal a
    /// direct `mul_add` chain over the gathered values, and nothing past
    /// `nr` in a row may be written, although the B pad lanes hold NaN.
    fn check_gather(rows: usize, kc: usize, nr: usize) {
        let src: Vec<f32> = (0..600).map(|i| (i as f32 * 0.37).sin()).collect();
        let row_off: Vec<usize> = (0..rows).map(|i| (i * 37) % 250).collect();
        // Not monotone, and repeating: the tile may not assume either.
        let col_off: Vec<usize> = (0..kc).map(|p| (p * 13) % 340).collect();
        let mut bp = vec![f32::NAN; kc * NR];
        for p in 0..kc {
            for l in 0..nr {
                bp[p * NR + l] = ((p * 31 + l) as f32).cos();
            }
        }
        let ldc = nr + 3;
        let mut want = vec![7.0f32; rows * ldc];
        for (i, &r) in row_off.iter().enumerate() {
            for l in 0..nr {
                let mut acc = 0.0f32;
                for (p, &c) in col_off.iter().enumerate() {
                    acc = src[r + c].mul_add(bp[p * NR + l], acc);
                }
                want[i * ldc + l] = acc;
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let half = kc / 2;
        for use_simd in [false, true] {
            let mut once = vec![7.0f32; rows * ldc];
            gather_tile(&src, &row_off, &col_off, &bp, &mut once, ldc, nr, true, use_simd);
            assert_eq!(bits(&once), bits(&want), "rows={rows} kc={kc} nr={nr} simd={use_simd}");

            let mut split = vec![7.0f32; rows * ldc];
            let (c0, c1) = col_off.split_at(half);
            gather_tile(&src, &row_off, c0, &bp, &mut split, ldc, nr, true, use_simd);
            gather_tile(&src, &row_off, c1, &bp[half * NR..], &mut split, ldc, nr, false, use_simd);
            assert_eq!(bits(&split), bits(&want), "split rows={rows} kc={kc} nr={nr}");
        }
    }

    #[test]
    fn gather_tile_matches_reference_chains() {
        for rows in [1, 2, 3, MR, 5, 7, 9] {
            for nr in [1, 7, 8, 9, NR] {
                check_gather(rows, 11, nr);
            }
        }
        check_gather(MR, 300, NR);
        check_gather(6, 0, 5);
    }

    #[test]
    #[should_panic(expected = "gather offset")]
    fn gather_tile_rejects_offsets_outside_the_source() {
        let src = [1.0f32; 10];
        let bp = [1.0f32; 2 * NR];
        let mut out = [0.0f32; NR];
        gather_tile(&src, &[4], &[0, 6], &bp, &mut out, NR, NR, true, true);
    }

    #[test]
    fn reload_continues_the_chain() {
        let kc = 4;
        let a = vec![1.5f32; 2 * kc * MR];
        let b = vec![0.25f32; 2 * kc * NR];
        for use_simd in [false, true] {
            let mut once = vec![0.0f32; MR * NR];
            tile(MR, &a, &b, &mut once, NR, 2 * kc, NR, true, use_simd);

            let mut split = vec![0.0f32; MR * NR];
            tile(MR, &a[..kc * MR], &b[..kc * NR], &mut split, NR, kc, NR, true, use_simd);
            tile(MR, &a[..kc * MR], &b[..kc * NR], &mut split, NR, kc, NR, false, use_simd);
            // 2·kc identical steps in one block ≡ kc steps + reloaded kc steps.
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&once), bits(&split), "simd={use_simd}");
        }
    }
}
