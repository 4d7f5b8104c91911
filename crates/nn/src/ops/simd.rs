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
    use super::{MR, NR};
    use core::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

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
