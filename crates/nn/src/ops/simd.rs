//! Explicit SIMD micro-kernels for the blocked GEMM and the direct
//! convolution — the workspace's one sanctioned `unsafe` module.
//!
//! The dense hot path ([`crate::ops::gemm`]) bottoms out in the register
//! tile computed here: up to `ROWS = 8` output rows by `NR = 16` lanes,
//! accumulated over one `k`-block from *packed* operand panels (one or two
//! adjacent `MR = 4` micro-panels of A). The convolution
//! ([`crate::ops::conv`]) runs the same tile with its A operand gathered
//! instead of packed ([`gather_tile`]): row `r`, step `k` reads
//! `src[row_off[r] + col_off[k]]` straight from the zero-bordered input.
//! Two more kernels live here for the same reason: [`tap_sum_tile`], the
//! convolution's input gradient (per-tap `C_out` chains summed into each
//! input pixel), and [`row_sums`], LayerNorm's row statistics eight rows
//! at a time. Each keeps the chains of the scalar loop it stands for.
//!
//! ## Flavors
//!
//! The tiles come in three [`KernelFlavor`]s:
//!
//! * `Avx512` — one 16-lane `__m512` per row and 8 rows: per `k` step one
//!   panel load, eight broadcasts and eight independent `_mm512_fmadd_ps`
//!   chains;
//! * `Avx2` — two 8-lane `__m256` per row and 4 rows, eight chains again;
//! * `Scalar` — the same chains through `f32::mul_add`, on non-x86
//!   targets, under Miri and in `--cfg loom` builds.
//!
//! Both SIMD flavors run a tile at most 8 lanes wide (conv1's `C_out = 8`)
//! as 8 rows of one 8-lane `__m256`: eight chains rather than four, and no
//! pad lanes. (A 16-lane vector there measured slower.)
//!
//! [`row_sums`] has no 512-bit form: both SIMD flavors run its AVX2 tiles.
//! Callers resolve one [`Flavor`] per kernel call
//! ([`crate::ops::gemm::kernel_flavor`]) and pass it down.
//!
//! ## Bit compatibility
//!
//! The flavors are bit-identical by construction. Each output element is
//! one accumulation chain in strictly ascending `k`:
//!
//! ```text
//! acc = fma(a[i][p], b[p][j], acc)        // p = kb, kb+1, …, kb+kc-1
//! ```
//!
//! The scalar flavor expresses each link as `f32::mul_add` (one `vfmadd`
//! instruction on this baseline); the SIMD flavors express sixteen chains
//! at a time as one 16-lane or two 8-lane fused multiply-adds. IEEE 754
//! fused multiply-add is deterministic per lane — same inputs, same single
//! rounding — so lane `j` of any vector chain computes exactly the scalar
//! chain, `NaN`/`∞` propagation included, and the row count of a tile only
//! decides which chains run side by side. The equivalence tests
//! (`crates/nn/tests/kernel_flavors.rs`, `pool_equivalence.rs`,
//! `gemm_simd_nan.rs`) pin this bitwise for every flavor the host has, and
//! the scalar fallback is what the Miri/loom `cargo xtask analyze` jobs
//! exercise.
//!
//! ## Padded tail lanes
//!
//! B panels are zero-padded to the full `NR` width, so tail tiles
//! (`nr < NR`) accumulate `a·0` in the pad lanes. Those lanes are never
//! written back — stores are masked to `nr` lanes or go through an
//! `nr`-bounded copy — so a non-finite `a` poisoning a pad lane
//! (`NaN·0 = NaN`) cannot leak into `C`. The NaN regression suite covers
//! exactly this window.
//!
//! ## Safety policy
//!
//! The workspace denies `unsafe_code` (`DESIGN.md` §8); this module holds
//! the single exemption, granted because the intrinsics' preconditions are
//! mechanical and locally checkable:
//!
//! * memory — every `unsafe` block sits behind slice length asserts that
//!   establish the pointed-to ranges;
//! * instruction set — the AVX2 tiles are compiled only under
//!   `cfg(target_feature = "avx2", target_feature = "fma")` (the
//!   `.cargo/config.toml` x86-64-v3 baseline), so every host the binary
//!   starts on runs them. The AVX-512 tiles are
//!   `#[target_feature(enable = "avx512f")]` functions, reached only
//!   through a [`Flavor`]; its one constructor, [`Flavor::capped`], yields
//!   `Avx512` only when `is_x86_feature_detected!("avx512f")` reports that
//!   CPUID has the feature and the OS saves the 512-bit state. No
//!   workload, setting or input can pick it on a host without it.
//!
//! The `unsafe-allow` lint in `cargo xtask lint` fails any *other* module
//! that tries to opt out of the deny.
#![allow(unsafe_code)]

use crate::ops::gemm::KernelFlavor;

/// Rows per packed A micro-panel.
pub(crate) const MR: usize = 4;
/// Columns per register tile: one 16-lane or two 8-lane vectors per row.
pub(crate) const NR: usize = 16;
/// Rows per register tile: two packed micro-panels, enough independent
/// FMA chains to hide FMA latency with one vector per row.
pub(crate) const ROWS: usize = 2 * MR;

/// A kernel flavor this host runs. [`Flavor::capped`] is the only
/// constructor, so holding one is the proof the module's SIMD dispatch
/// relies on (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Flavor(KernelFlavor);

impl Flavor {
    /// The best flavor this build runs on this host, but none above `cap`.
    pub(crate) fn capped(cap: KernelFlavor) -> Self {
        Self(cap.min(host_flavor()))
    }

    /// The flavor as the public enum.
    pub(crate) fn get(self) -> KernelFlavor {
        self.0
    }
}

/// The best flavor of this build on this host: the SIMD flavors need the
/// x86-64-v3 build, and `Avx512` needs CPUID's `avx512f` too.
pub(crate) fn host_flavor() -> KernelFlavor {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(miri),
        not(loom)
    ))]
    let best = if std::arch::is_x86_feature_detected!("avx512f") {
        KernelFlavor::Avx512
    } else {
        KernelFlavor::Avx2
    };
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(miri),
        not(loom)
    )))]
    let best = KernelFlavor::Scalar;
    best
}

/// Calls `$m::$f::<R, $v>($args)` with `R` the constant equal to `$r`
/// (`1..=ROWS`).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(miri),
    not(loom)
))]
macro_rules! with_rows {
    ($r:expr, $m:ident::$f:ident::<_, $v:literal>($($arg:expr),* $(,)?)) => {
        match $r {
            1 => $m::$f::<1, $v>($($arg),*),
            2 => $m::$f::<2, $v>($($arg),*),
            3 => $m::$f::<3, $v>($($arg),*),
            4 => $m::$f::<4, $v>($($arg),*),
            5 => $m::$f::<5, $v>($($arg),*),
            6 => $m::$f::<6, $v>($($arg),*),
            7 => $m::$f::<7, $v>($($arg),*),
            8 => $m::$f::<8, $v>($($arg),*),
            r => unreachable!("no register tile of {r} rows"),
        }
    };
}

/// Computes one `r×nr` output tile (`r ≤ ROWS`, `nr ≤ NR`) over one
/// `k`-block of length `kc`.
///
/// * `ap` — one or two packed A micro-panels: rows `..min(r, MR)` as `kc`
///   steps of `min(r, MR)` values (`ap[p*min(r, MR) + row]`), then, when
///   `r > MR`, rows `MR..r` laid out the same way from `ap[kc*MR]`.
/// * `bp` — packed B panel: `kc` steps of `NR` lanes (`bp[p*NR + col]`),
///   zero-padded beyond `nr`.
/// * `out` — the tile's top-left element is `out[0]`; row `row` spans
///   `out[row*ldc .. row*ldc + nr]`.
/// * `first` — when true this is the first `k`-block: accumulators start at
///   literal zero and prior `out` contents are ignored. Otherwise the tile
///   is reloaded from `out`, keeping each element's accumulation chain
///   strictly ascending in `k` across blocks.
///
/// # Panics
///
/// If `r` or `nr` is out of range, or a slice is shorter than the ranges
/// described above.
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
    flavor: Flavor,
) {
    assert!((1..=ROWS).contains(&r) && (1..=NR).contains(&nr), "tile shape out of range");
    assert!(ap.len() >= kc * r && bp.len() >= kc * NR, "packed panels too short");
    assert!(
        ldc >= nr && out.len() >= (r - 1) * ldc + nr,
        "output tile out of bounds (len {}, ldc {ldc}, nr {nr})",
        out.len()
    );
    let (r0, r1) = (r.min(MR), r.saturating_sub(MR));
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(miri),
        not(loom)
    ))]
    if flavor.0 != KernelFlavor::Scalar {
        // SAFETY: the asserts above bound each panel read and output store
        // of the tiles, and `flavor` is one this host runs.
        unsafe {
            if nr <= NR / 2 {
                with_rows!(r, avx2::tile::<_, 1>(ap, bp, out, ldc, kc, nr, first));
            } else if flavor.0 == KernelFlavor::Avx512 {
                with_rows!(r, avx512::tile::<_, 1>(ap, bp, out, ldc, kc, nr, first));
            } else {
                with_rows!(r0, avx2::tile::<_, 2>(ap, bp, out, ldc, kc, nr, first));
                if r1 > 0 {
                    let (ap, out) = (&ap[kc * MR..], &mut out[MR * ldc..]);
                    with_rows!(r1, avx2::tile::<_, 2>(ap, bp, out, ldc, kc, nr, first));
                }
            }
        }
        return;
    }
    scalar_tile(r0, ap, bp, out, ldc, kc, nr, first);
    if r1 > 0 {
        scalar_tile(r1, &ap[kc * MR..], bp, &mut out[MR * ldc..], ldc, kc, nr, first);
    }
}

/// Computes `out[i·ldc + l]` for every row `i < row_off.len()` and lane
/// `l < nr`, with the A operand gathered from `src`:
///
/// ```text
/// acc = fma(src[row_off[i] + col_off[p]], bp[p*NR + l], acc)   // p = 0, 1, …, kc-1
/// ```
///
/// where `kc = col_off.len()`. Rows run in register tiles of the flavor's
/// height (the last one may be shorter).
///
/// * `bp` — one B panel: `kc` steps of `NR` lanes, zero-padded beyond `nr`.
///   Pad lanes are computed but never stored, as in [`tile`].
/// * `first` — when true the accumulators start at literal zero and prior
///   `out` contents are ignored; otherwise they are reloaded from `out`, so
///   a caller splitting `k` into blocks keeps one ascending chain per output.
///
/// Each output is the chain [`tile`] computes on the materialised A, so the
/// flavors, and the packed and gathered routes, agree bit for bit.
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
    flavor: Flavor,
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
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        not(miri),
        not(loom)
    ))]
    if flavor.0 != KernelFlavor::Scalar {
        // SAFETY: the asserts above bound every `rt[i] + col_off[p]` inside
        // `src`, `bp[..kc*NR]` and `o[..(rt.len()-1)*ldc+nr]`, and `flavor`
        // is one this host runs.
        unsafe {
            if nr <= NR / 2 {
                for (t, rt) in row_off.chunks(ROWS).enumerate() {
                    let o = &mut out[t * ROWS * ldc..];
                    with_rows!(
                        rt.len(),
                        avx2::gather::<_, 1>(rt, src, col_off, bp, o, ldc, nr, first)
                    );
                }
            } else if flavor.0 == KernelFlavor::Avx512 {
                for (t, rt) in row_off.chunks(ROWS).enumerate() {
                    let o = &mut out[t * ROWS * ldc..];
                    with_rows!(
                        rt.len(),
                        avx512::gather::<_, 1>(rt, src, col_off, bp, o, ldc, nr, first)
                    );
                }
            } else {
                for (t, rt) in row_off.chunks(MR).enumerate() {
                    let o = &mut out[t * MR * ldc..];
                    with_rows!(
                        rt.len(),
                        avx2::gather::<_, 2>(rt, src, col_off, bp, o, ldc, nr, first)
                    );
                }
            }
        }
        return;
    }
    scalar_gather(src, row_off, col_off, bp, out, ldc, nr, first);
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
/// ([`crate::ops::conv`]). Rows run in register tiles of the flavor's
/// height; a short last tile repeats its last row and stores only its own.
///
/// * `wp` — one lane panel: for tap `q`, `co` steps of `NR` lanes,
///   zero-padded beyond `nr`. Pad lanes are computed but never stored.
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
    flavor: Flavor,
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
    if flavor.0 != KernelFlavor::Scalar {
        // SAFETY: the asserts above bound every source read, lane-panel
        // read and output store the tiles make, and `flavor` is one this
        // host runs.
        unsafe {
            if nr <= NR / 2 {
                avx2::tap_sums::<ROWS, 1>(&dims, rows, out, outs);
            } else if flavor.0 == KernelFlavor::Avx512 {
                avx512::tap_sums::<ROWS, 1>(&dims, rows, out, outs);
            } else {
                avx2::tap_sums::<MR, 2>(&dims, rows, out, outs);
            }
        }
        return;
    }
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
/// The SIMD flavors transpose `8×8` tiles in registers and keep the eight
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
    flavor: Flavor,
) -> [[f32; SUM_ROWS]; N] {
    for b in &blocks {
        assert_eq!(b.len(), SUM_ROWS * feat, "row_sums block length");
    }
    let done = if flavor.0 == KernelFlavor::Scalar { 0 } else { feat - feat % 8 };
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
        out = unsafe { avx2::row_sums_tiles(&blocks, feat, done, start) };
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

/// The scalar flavor of [`gather_tile`]: identical chains via
/// `f32::mul_add`, one row at a time.
#[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
fn scalar_gather(
    src: &[f32],
    row_off: &[usize],
    col_off: &[usize],
    bp: &[f32],
    out: &mut [f32],
    ldc: usize,
    nr: usize,
    first: bool,
) {
    for (i, &r) in row_off.iter().enumerate() {
        let row = &mut out[i * ldc..i * ldc + nr];
        let mut acc = [0.0f32; NR];
        if !first {
            acc[..nr].copy_from_slice(row);
        }
        for (&c, bl) in col_off.iter().zip(bp.chunks_exact(NR)) {
            let av = src[r + c];
            for (lane, &bv) in acc.iter_mut().zip(bl) {
                *lane = av.mul_add(bv, *lane);
            }
        }
        row.copy_from_slice(&acc[..nr]);
    }
}

/// The scalar reference tile over one packed micro-panel of `r ≤ MR` rows:
/// identical chains via `f32::mul_add`.
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

/// The register tiles of one SIMD flavor, written once over its vector
/// type `$v` of `$w` lanes and its intrinsics. `$feature` is the flavor's
/// `#[target_feature]` attribute, when the build baseline lacks it. The
/// module invoking it supplies `load_row` and `store_row`, which move lanes
/// `..nr` of one tile row between `out` and `V` vectors.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(miri),
    not(loom)
))]
macro_rules! register_tiles {
    (
        $(#[$feature:meta])*
        $v:ident, $w:literal, $zero:ident, $set1:ident, $load:ident, $store:ident, $fmadd:ident,
        $add:ident
    ) => {
        use super::{TapSums, MR, NR};
        use core::arch::x86_64::{$add, $fmadd, $load, $set1, $store, $v, $zero};

        /// Lanes per vector.
        const W: usize = $w;

        /// [`super::tile`] on `R` rows of `V` vectors (`nr ≤ W·V`): rows
        /// `..min(R, MR)` from the first packed micro-panel, the rest from
        /// the second, which follows it at `kc·MR`.
        ///
        /// # Safety
        ///
        /// The bounds `tile` asserts, and a host that runs this flavor.
        #[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
        $(#[$feature])*
        pub(super) unsafe fn tile<const R: usize, const V: usize>(
            ap: &[f32],
            bp: &[f32],
            out: &mut [f32],
            ldc: usize,
            kc: usize,
            nr: usize,
            first: bool,
        ) {
            let r0 = R.min(MR);
            // SAFETY: the caller's contract keeps every pointer below
            // inside `ap[..kc·R]`, `bp[..kc·NR]` and `out[..(R-1)·ldc+nr]`.
            unsafe {
                let mut acc = [[$zero(); V]; R];
                if !first {
                    for (row, accr) in acc.iter_mut().enumerate() {
                        *accr = load_row::<V>(&out[row * ldc..], nr);
                    }
                }
                let (mut a0, mut a1) = (ap.as_ptr(), ap.as_ptr().add(kc * r0));
                let mut b = bp.as_ptr();
                for _ in 0..kc {
                    let mut bv = [$zero(); V];
                    for (v, x) in bv.iter_mut().enumerate() {
                        *x = $load(b.add(W * v));
                    }
                    for (i, accr) in acc.iter_mut().enumerate() {
                        let av = $set1(if i < r0 { *a0.add(i) } else { *a1.add(i - r0) });
                        for (a, &x) in accr.iter_mut().zip(&bv) {
                            *a = $fmadd(av, x, *a);
                        }
                    }
                    a0 = a0.add(r0);
                    a1 = a1.add(R - r0);
                    b = b.add(NR);
                }
                for (row, accr) in acc.iter().enumerate() {
                    store_row(accr, &mut out[row * ldc..], nr);
                }
            }
        }

        /// One `R`-row tile of [`super::gather_tile`] with `V` vectors per
        /// row (`nr ≤ W·V`), rows at offsets `rt` (`rt.len() == R`) into
        /// `src`.
        ///
        /// # Safety
        ///
        /// The bounds `gather_tile` asserts, and a host that runs this
        /// flavor.
        #[allow(clippy::too_many_arguments)] // index soup is the kernel's nature
        $(#[$feature])*
        pub(super) unsafe fn gather<const R: usize, const V: usize>(
            rt: &[usize],
            src: &[f32],
            col_off: &[usize],
            bp: &[f32],
            out: &mut [f32],
            ldc: usize,
            nr: usize,
            first: bool,
        ) {
            let rows: [usize; R] = std::array::from_fn(|i| rt[i]);
            // SAFETY: the caller's contract bounds every access below.
            unsafe {
                let mut acc = [[$zero(); V]; R];
                if !first {
                    for (row, accr) in acc.iter_mut().enumerate() {
                        *accr = load_row::<V>(&out[row * ldc..], nr);
                    }
                }
                let s = src.as_ptr();
                let mut b = bp.as_ptr();
                for &c in col_off {
                    let mut bv = [$zero(); V];
                    for (v, x) in bv.iter_mut().enumerate() {
                        *x = $load(b.add(W * v));
                    }
                    for (accr, &r) in acc.iter_mut().zip(&rows) {
                        let av = $set1(*s.add(r + c));
                        for (a, &x) in accr.iter_mut().zip(&bv) {
                            *a = $fmadd(av, x, *a);
                        }
                    }
                    b = b.add(NR);
                }
                for (row, accr) in acc.iter().enumerate() {
                    store_row(accr, &mut out[row * ldc..], nr);
                }
            }
        }

        /// [`super::tap_sum_tile`] in tiles of `R` rows with `V` vectors
        /// per row (`nr ≤ W·V`).
        ///
        /// # Safety
        ///
        /// The bounds `tap_sum_tile` asserts, and a host that runs this
        /// flavor.
        $(#[$feature])*
        pub(super) unsafe fn tap_sums<const R: usize, const V: usize>(
            d: &TapSums<'_>,
            rows: &[usize],
            out: &mut [f32],
            outs: &[usize],
        ) {
            for (rt, ot) in rows.chunks(R).zip(outs.chunks(R)) {
                // A short tile repeats its last row; only live rows are stored.
                let base: [usize; R] = std::array::from_fn(|i| rt[i.min(rt.len() - 1)]);
                // SAFETY: the caller's contract bounds every read below.
                unsafe {
                    let mut sum = [[$zero(); V]; R];
                    let s = d.src.as_ptr();
                    for &(q, off) in d.taps {
                        let mut acc = [[$zero(); V]; R];
                        let mut w = d.wp.as_ptr().add(q * d.co * NR);
                        for k in 0..d.co {
                            let step = off + k * d.ostride;
                            let mut wv = [$zero(); V];
                            for (v, x) in wv.iter_mut().enumerate() {
                                *x = $load(w.add(W * v));
                            }
                            for (accr, &r) in acc.iter_mut().zip(&base) {
                                let av = $set1(*s.add(r + step));
                                for (a, &x) in accr.iter_mut().zip(&wv) {
                                    *a = $fmadd(av, x, *a);
                                }
                            }
                            w = w.add(NR);
                        }
                        for (sr, ar) in sum.iter_mut().zip(&acc) {
                            for (x, &a) in sr.iter_mut().zip(ar) {
                                *x = $add(*x, a);
                            }
                        }
                    }
                    for (sr, &o) in sum.iter().zip(ot) {
                        let mut stage = [0.0f32; NR];
                        for (v, &x) in sr.iter().enumerate() {
                            $store(stage.as_mut_ptr().add(W * v), x);
                        }
                        for (l, &x) in stage.iter().enumerate().take(d.nr) {
                            out[o + l * d.lstride] = x;
                        }
                    }
                }
            }
        }
    };
}

/// The AVX2/FMA tiles, and [`super::row_sums`]'s transposing sums.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(miri),
    not(loom)
))]
mod avx2 {
    use super::SUM_ROWS;
    use core::arch::x86_64::{_mm256_permute2f128_ps, _mm256_shuffle_ps};
    use core::arch::x86_64::{_mm256_unpackhi_ps, _mm256_unpacklo_ps};

    register_tiles!(
        __m256,
        8,
        _mm256_setzero_ps,
        _mm256_set1_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_fmadd_ps,
        _mm256_add_ps
    );

    /// Lanes `..nr` of `row` in `V` vectors (`nr ≤ 8·V`), zero beyond.
    #[inline(always)]
    fn load_row<const V: usize>(row: &[f32], nr: usize) -> [__m256; V] {
        let mut stage = [0.0f32; NR];
        stage[..nr].copy_from_slice(&row[..nr]);
        // SAFETY: `stage` holds `NR ≥ 8·V` floats.
        unsafe { std::array::from_fn(|i| _mm256_loadu_ps(stage.as_ptr().add(W * i))) }
    }

    /// Stores lanes `..nr` of `v` (`nr ≤ 8·V`) to `row`; pad lanes are
    /// dropped.
    #[inline(always)]
    fn store_row<const V: usize>(v: &[__m256; V], row: &mut [f32], nr: usize) {
        let row = &mut row[..nr];
        // SAFETY: the stores write `8·V` floats, into `row` only when it
        // holds that many, else into `stage` (`NR ≥ 8·V` floats).
        unsafe {
            if nr == W * V {
                for (i, &x) in v.iter().enumerate() {
                    _mm256_storeu_ps(row.as_mut_ptr().add(W * i), x);
                }
            } else {
                let mut stage = [0.0f32; NR];
                for (i, &x) in v.iter().enumerate() {
                    _mm256_storeu_ps(stage.as_mut_ptr().add(W * i), x);
                }
                row.copy_from_slice(&stage[..nr]);
            }
        }
    }

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
}

/// The AVX-512F tiles: one 16-lane vector per row, with tail lanes masked
/// on load and store.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(miri),
    not(loom)
))]
mod avx512 {
    use core::arch::x86_64::{__mmask16, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps};

    register_tiles!(
        #[target_feature(enable = "avx512f")]
        __m512,
        16,
        _mm512_setzero_ps,
        _mm512_set1_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_fmadd_ps,
        _mm512_add_ps
    );

    /// The mask of lanes `..nr`.
    fn lanes(nr: usize) -> __mmask16 {
        ((1u32 << nr) - 1) as __mmask16
    }

    /// Lanes `..nr` of `row` in one vector (`V == 1`, `nr ≤ 16`), zero
    /// beyond.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_row<const V: usize>(row: &[f32], nr: usize) -> [__m512; V] {
        const { assert!(V == 1, "one 16-lane vector per row") };
        let row = &row[..nr];
        // SAFETY: the mask selects lanes `..nr`, inside `row`; masked-off
        // lanes are not read.
        [unsafe { _mm512_maskz_loadu_ps(lanes(nr), row.as_ptr()) }; V]
    }

    /// Stores lanes `..nr` of `v` (`V == 1`, `nr ≤ 16`) to `row`; pad
    /// lanes are not written.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store_row<const V: usize>(v: &[__m512; V], row: &mut [f32], nr: usize) {
        const { assert!(V == 1, "one 16-lane vector per row") };
        let row = &mut row[..nr];
        // SAFETY: the mask selects lanes `..nr`, inside `row`; masked-off
        // lanes are not written.
        unsafe { _mm512_mask_storeu_ps(row.as_mut_ptr(), lanes(nr), v[0]) };
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Every flavor this host runs; a flavor the host lacks repeats the
    /// best one below it.
    fn flavors() -> impl Iterator<Item = Flavor> {
        KernelFlavor::ALL.into_iter().map(Flavor::capped)
    }

    /// Packs row-major `a: [r, kc]` into `tile`'s one- or two-panel layout.
    fn pack(a: &[f32], r: usize, kc: usize) -> Vec<f32> {
        let mut ap = Vec::with_capacity(r * kc);
        for (start, rows) in [(0, r.min(MR)), (MR, r.saturating_sub(MR))] {
            for p in 0..kc {
                ap.extend((start..start + rows).map(|row| a[row * kc + p]));
            }
        }
        ap
    }

    /// Runs `tile` over row-major `r×kc` values in every flavor, asserting
    /// bitwise agreement with a direct mul_add chain.
    fn check_tile(r: usize, kc: usize, nr: usize, poison: Option<(usize, usize)>) {
        let mut a: Vec<f32> = (0..r * kc).map(|i| (i as f32).sin()).collect();
        let mut b = vec![0.0f32; kc * NR];
        for p in 0..kc {
            for l in 0..nr {
                b[p * NR + l] = ((p * 31 + l) as f32).cos();
            }
        }
        if let Some((p, l)) = poison {
            b[p * NR + l] = f32::NAN;
            a[p] = 0.0; // 0·NaN must still poison lane l of row 0
        }
        let mut want = vec![0.0f32; r * NR];
        for p in 0..kc {
            for row in 0..r {
                for lane in 0..nr {
                    let w = &mut want[row * NR + lane];
                    *w = a[row * kc + p].mul_add(b[p * NR + lane], *w);
                }
            }
        }
        let ap = pack(&a, r, kc);
        for flavor in flavors() {
            let mut out = vec![0.0f32; r * NR];
            tile(r, &ap, &b, &mut out, NR, kc, nr, true, flavor);
            for row in 0..r {
                for lane in 0..nr {
                    assert_eq!(
                        out[row * NR + lane].to_bits(),
                        want[row * NR + lane].to_bits(),
                        "r={r} kc={kc} nr={nr} {flavor:?} row={row} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_and_tail_tiles_match_reference_chains() {
        for r in 1..=ROWS {
            for nr in [1, 7, 8, 9, NR] {
                check_tile(r, 5, nr, None);
            }
        }
        check_tile(MR, 256, NR, None);
        check_tile(ROWS, 256, NR, None);
    }

    #[test]
    fn zero_times_nan_poisons_only_its_lane() {
        check_tile(MR, 3, NR, Some((1, 2)));
        check_tile(ROWS, 3, NR, Some((1, 2)));
        // Tail tile: the poisoned lane sits inside nr, pad lanes beyond.
        check_tile(MR, 3, 5, Some((0, 4)));
        check_tile(ROWS - 1, 3, 5, Some((0, 4)));
    }

    /// Runs `gather_tile` in every flavor, in one k-block and split in two
    /// with a reload, over `rows` gathered rows. Every stored lane must
    /// equal a direct `mul_add` chain over the gathered values, and nothing
    /// past `nr` in a row may be written, although the B pad lanes hold NaN.
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
        for flavor in flavors() {
            let mut once = vec![7.0f32; rows * ldc];
            gather_tile(&src, &row_off, &col_off, &bp, &mut once, ldc, nr, true, flavor);
            assert_eq!(bits(&once), bits(&want), "rows={rows} kc={kc} nr={nr} {flavor:?}");

            let mut split = vec![7.0f32; rows * ldc];
            let (c0, c1) = col_off.split_at(half);
            gather_tile(&src, &row_off, c0, &bp, &mut split, ldc, nr, true, flavor);
            gather_tile(&src, &row_off, c1, &bp[half * NR..], &mut split, ldc, nr, false, flavor);
            assert_eq!(bits(&split), bits(&want), "split rows={rows} kc={kc} nr={nr} {flavor:?}");
        }
    }

    #[test]
    fn gather_tile_matches_reference_chains() {
        for rows in [1, 2, 3, MR, 5, 7, ROWS, 9, 17] {
            for nr in [1, 7, 8, 9, NR] {
                check_gather(rows, 11, nr);
            }
        }
        check_gather(MR, 300, NR);
        check_gather(ROWS, 300, NR);
        check_gather(6, 0, 5);
    }

    #[test]
    #[should_panic(expected = "gather offset")]
    fn gather_tile_rejects_offsets_outside_the_source() {
        let src = [1.0f32; 10];
        let bp = [1.0f32; 2 * NR];
        let mut out = [0.0f32; NR];
        let flavor = Flavor::capped(KernelFlavor::Avx512);
        gather_tile(&src, &[4], &[0, 6], &bp, &mut out, NR, NR, true, flavor);
    }

    #[test]
    fn reload_continues_the_chain() {
        let kc = 4;
        for r in [MR, ROWS] {
            let a = vec![1.5f32; 2 * kc * r];
            let b = vec![0.25f32; 2 * kc * NR];
            for flavor in flavors() {
                let mut once = vec![0.0f32; r * NR];
                tile(r, &a, &b, &mut once, NR, 2 * kc, NR, true, flavor);

                let mut split = vec![0.0f32; r * NR];
                tile(r, &a[..kc * r], &b[..kc * NR], &mut split, NR, kc, NR, true, flavor);
                tile(r, &a[..kc * r], &b[..kc * NR], &mut split, NR, kc, NR, false, flavor);
                // 2·kc identical steps in one block ≡ kc steps + reloaded kc steps.
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&once), bits(&split), "r={r} {flavor:?}");
            }
        }
    }
}
