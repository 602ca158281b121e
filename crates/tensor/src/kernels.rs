//! The f32 kernel bodies behind `Matrix::matmul` and
//! `Matrix::matmul_transpose_b`.
//!
//! There is one production path: register-tiled SIMD bodies. They are
//! **bitwise identical** to the naive scalar loops, which survive only
//! as test oracles (`tests/kernels.rs` pins every product against them)
//! — the same contract `par_matmul` established for worker counts,
//! extended to lane widths and tiling:
//!
//! * both products run one register-tile microkernel: an `MR×NR` block
//!   of outputs held in accumulators across the *whole* reduction, the
//!   way a systolic-array PE holds its partial sum;
//! * each output element starts at `+0.0` and accumulates its terms in
//!   exactly the scalar order (ascending `k`), so no reduction is ever
//!   split across lanes — vectorization happens across *independent
//!   output elements* (the `j` axis), where f32 multiply/add per lane is
//!   IEEE-identical to the scalar instruction;
//! * the zero-skip in `matmul` (`a[i][k] == 0.0` skips the whole `k`
//!   term, because `0.0 * NaN` or `0.0 * ∞` would otherwise change bits)
//!   becomes a predicated add or a product mask inside the tile (see
//!   [`tile_f32`]);
//! * no FMA is ever emitted from these kernels (`mul` then `add` only):
//!   a fused multiply-add rounds once where the scalar kernel rounds
//!   twice, which would break the pin.
//!
//! Tiling reorders *which* element is worked on when, never the term
//! order *within* an element, so it is bit-exact for free. The tile is
//! 4×32 over one panel layout, with three bodies picked at run time:
//! AVX-512 (two 16-lane vectors per row), AVX2 (the panel as two
//! 16-column halves) and a portable one; tests pin each against the
//! others.

use crate::Matrix;

/// The kernel path the products run. There is one: the register-tiled
/// SIMD bodies (AVX-512 or AVX2 where the CPU has it, a portable
/// spelling otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelPolicy {
    /// Register-blocked tiles with lane-parallel arithmetic across
    /// independent output elements.
    Simd,
}

impl KernelPolicy {
    /// The policy the products run: always [`KernelPolicy::Simd`].
    #[must_use]
    pub const fn current() -> Self {
        Self::Simd
    }

    /// The lower-case name, `simd`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Simd => "simd",
        }
    }
}

/// Output rows per register tile.
const MR: usize = 4;

/// Output columns per register tile: two 16-lane f32 vectors (four
/// 8-lane ones on the AVX2 body, which walks the panel as two halves).
const NR: usize = 32;

/// One `MR×NR` block of outputs.
type Tile = [[f32; NR]; MR];

/// One `MR×NR` tile of `A·B`: `a` holds the tile's `MR` rows of `A`
/// (each at least `k` long), `b` the `NR`-wide panel of `B` whose row `p`
/// starts at `p * ldb`. Every element starts at `+0.0` and adds its `k`
/// terms in ascending order. Dispatches at run time to the widest body
/// the CPU runs — AVX-512, then AVX2, then the portable one (detected
/// once, cached by `std`).
///
/// With `SKIP_ZERO`, a term whose `a[r][p]` is `±0.0` is left out, as
/// the scalar `matmul` does. The AVX-512 body predicates the add on
/// `a != 0` (`NEQ_UQ`, so a NaN `a` keeps its term): a masked-off lane
/// keeps its accumulator, which *is* the skip. The AVX2 body spells it as
/// a product mask: the same compare ANDed onto the product turns a
/// skipped term into `+0.0`. Adding `+0.0` is the identity on every value
/// except `−0.0`, and an accumulator that starts at `+0.0` can never
/// *become* `−0.0`: under round-to-nearest a sum is `−0.0` only when
/// both addends are, and exact cancellation gives `+0.0`. So the masked
/// sum equals the skipping sum bit for bit.
///
/// # Panics
///
/// Panics if a row of `a` is shorter than `k` or `b` is shorter than
/// `(k - 1) * ldb + NR`.
fn tile_f32<const SKIP_ZERO: bool>(k: usize, a: [&[f32]; MR], b: &[f32], ldb: usize) -> Tile {
    assert!(a.iter().all(|row| row.len() >= k), "tile A rows shorter than k");
    assert!(k == 0 || (k - 1) * ldb + NR <= b.len(), "tile B panel shorter than k rows");
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F support was just verified at runtime, and
            // the asserts above bound every load.
            return unsafe { tile_f32_avx512::<SKIP_ZERO>(k, a, b, ldb) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: as above, for AVX2.
            return unsafe { tile_f32_avx2::<SKIP_ZERO>(k, a, b, ldb) };
        }
    }
    tile_f32_portable::<SKIP_ZERO>(k, a, b, ldb)
}

/// The portable body of [`tile_f32`]: the scalar term order and skip,
/// `MR×NR` elements in flight.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
fn tile_f32_portable<const SKIP_ZERO: bool>(
    k: usize,
    a: [&[f32]; MR],
    b: &[f32],
    ldb: usize,
) -> Tile {
    let mut acc = [[0.0f32; NR]; MR];
    for p in 0..k {
        let b_row = &b[p * ldb..p * ldb + NR];
        for (acc_row, a_row) in acc.iter_mut().zip(a) {
            let x = a_row[p];
            if SKIP_ZERO && x == 0.0 {
                continue;
            }
            for (o, &y) in acc_row.iter_mut().zip(b_row) {
                *o += x * y;
            }
        }
    }
    acc
}

/// The AVX-512 body of [`tile_f32`]: eight `__m512` accumulators live
/// across all of `k`, `vmulps` + `vaddps` (never FMA), the zero-skip as
/// a `vcmpps` mask predicating the add.
///
/// # Safety
///
/// The caller must have verified AVX-512F support at runtime and that
/// every row of `a` holds `k` values and `b` holds `(k - 1) * ldb + NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_f32_avx512<const SKIP_ZERO: bool>(
    k: usize,
    a: [&[f32]; MR],
    b: &[f32],
    ldb: usize,
) -> Tile {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_cmp_ps_mask, _mm512_loadu_ps, _mm512_mask_add_ps, _mm512_mul_ps,
        _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps, _CMP_NEQ_UQ,
    };
    let zero = _mm512_setzero_ps();
    let mut acc = [[zero; 2]; MR];
    for p in 0..k {
        let b_row = b.as_ptr().add(p * ldb);
        let b_lo = _mm512_loadu_ps(b_row);
        let b_hi = _mm512_loadu_ps(b_row.add(16));
        for (acc_row, a_row) in acc.iter_mut().zip(a) {
            let x = _mm512_set1_ps(*a_row.get_unchecked(p));
            let lo = _mm512_mul_ps(x, b_lo);
            let hi = _mm512_mul_ps(x, b_hi);
            if SKIP_ZERO {
                let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(x, zero);
                acc_row[0] = _mm512_mask_add_ps(acc_row[0], keep, acc_row[0], lo);
                acc_row[1] = _mm512_mask_add_ps(acc_row[1], keep, acc_row[1], hi);
            } else {
                acc_row[0] = _mm512_add_ps(acc_row[0], lo);
                acc_row[1] = _mm512_add_ps(acc_row[1], hi);
            }
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (o, v) in out.iter_mut().zip(acc) {
        _mm512_storeu_ps(o.as_mut_ptr(), v[0]);
        _mm512_storeu_ps(o.as_mut_ptr().add(16), v[1]);
    }
    out
}

/// The AVX2 body of [`tile_f32`]: the panel as two 16-column halves,
/// each with eight `__m256` accumulators live across all of `k`,
/// `vmulps` + `vaddps` (never FMA), the zero-skip as a `cmp NEQ_UQ` +
/// `and` product mask.
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime and that every
/// row of `a` holds `k` values and `b` holds `(k - 1) * ldb + NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_f32_avx2<const SKIP_ZERO: bool>(
    k: usize,
    a: [&[f32]; MR],
    b: &[f32],
    ldb: usize,
) -> Tile {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_and_ps, _mm256_cmp_ps, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _CMP_NEQ_UQ,
    };
    let zero = _mm256_setzero_ps();
    let mut out = [[0.0f32; NR]; MR];
    for half in [0, NR / 2] {
        let mut acc = [[zero; 2]; MR];
        for p in 0..k {
            let b_row = b.as_ptr().add(p * ldb + half);
            let b_lo = _mm256_loadu_ps(b_row);
            let b_hi = _mm256_loadu_ps(b_row.add(8));
            for (acc_row, a_row) in acc.iter_mut().zip(a) {
                let x = _mm256_set1_ps(*a_row.get_unchecked(p));
                let mut lo = _mm256_mul_ps(x, b_lo);
                let mut hi = _mm256_mul_ps(x, b_hi);
                if SKIP_ZERO {
                    let keep = _mm256_cmp_ps::<_CMP_NEQ_UQ>(x, zero);
                    lo = _mm256_and_ps(lo, keep);
                    hi = _mm256_and_ps(hi, keep);
                }
                acc_row[0] = _mm256_add_ps(acc_row[0], lo);
                acc_row[1] = _mm256_add_ps(acc_row[1], hi);
            }
        }
        for (o, v) in out.iter_mut().zip(acc) {
            _mm256_storeu_ps(o.as_mut_ptr().add(half), v[0]);
            _mm256_storeu_ps(o.as_mut_ptr().add(half + 8), v[1]);
        }
    }
    out
}

/// Packs columns `j0..j0 + NR` of a `k`-deep operand, `at(p, j)`, into
/// the `[k][NR]` panel `packed`, zero past the last column `n - 1`.
fn pack_panel(packed: &mut [f32], j0: usize, n: usize, at: impl Fn(usize, usize) -> f32) {
    for (p, row) in packed.chunks_exact_mut(NR).enumerate() {
        for (c, x) in row.iter_mut().enumerate() {
            *x = if j0 + c < n { at(p, j0 + c) } else { 0.0 };
        }
    }
}

/// Runs the tiles of output columns `j0..` (at most `NR`) of a `rows×n`
/// output panel whose row `r` is `A` row `row0 + r`, against the
/// `NR`-wide `B` panel `b` with row stride `ldb`. The last row block
/// points its missing rows at the panel's last row and drops their
/// outputs.
fn column_tiles<const SKIP_ZERO: bool>(
    a: &Matrix,
    row0: usize,
    panel: &mut [f32],
    n: usize,
    j0: usize,
    b: &[f32],
    ldb: usize,
) {
    let rows = panel.len() / n;
    let width = NR.min(n - j0);
    for i0 in (0..rows).step_by(MR) {
        let a_rows = std::array::from_fn(|r| a.row(row0 + (i0 + r).min(rows - 1)));
        let tile = tile_f32::<SKIP_ZERO>(a.cols(), a_rows, b, ldb);
        for (r, t) in tile.iter().enumerate().take(rows - i0) {
            let at = (i0 + r) * n + j0;
            panel[at..at + width].copy_from_slice(&t[..width]);
        }
    }
}

/// Computes rows `row0..` of `a · b` into the zeroed `panel`
/// (`panel.len()` must be a multiple of `b.cols()`). Shared by the
/// serial entry points and the `par_matmul` row-panel tasks so every
/// path uses the same kernels.
pub(crate) fn matmul_panel(a: &Matrix, b: &Matrix, row0: usize, panel: &mut [f32]) {
    let (k, n) = (a.cols(), b.cols());
    if n == 0 || k == 0 {
        return;
    }
    for j0 in (0..n).step_by(NR) {
        if j0 + NR <= n {
            // A full-width tile reads `B` in place (row stride `n`).
            column_tiles::<true>(a, row0, panel, n, j0, &b.as_slice()[j0..], n);
        } else {
            // The ragged last columns are packed, zero-padded.
            let mut tail = vec![0.0f32; k * NR];
            pack_panel(&mut tail, j0, n, |p, j| b.row(p)[j]);
            column_tiles::<true>(a, row0, panel, n, j0, &tail, NR);
        }
    }
}

/// Computes rows `row0..` of `a · bᵀ` into the zeroed `panel`
/// (`panel.len()` must be a multiple of `b.rows()`). Shared by the
/// serial entry points and the `par_matmul_transpose_b` row-panel tasks.
pub(crate) fn matmul_tb_panel(a: &Matrix, b: &Matrix, row0: usize, panel: &mut [f32]) {
    let (k, n) = (a.cols(), b.rows());
    if n == 0 || k == 0 {
        return;
    }
    // `Bᵀ` is packed once per call, one `[k][NR]` panel at a time; the
    // dot product has no zero-skip, so the tile runs unmasked.
    let mut bt = vec![0.0f32; k * NR];
    for j0 in (0..n).step_by(NR) {
        pack_panel(&mut bt, j0, n, |p, j| b.row(j)[p]);
        column_tiles::<false>(a, row0, panel, n, j0, &bt, NR);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn production_policy_is_simd() {
        assert_eq!(KernelPolicy::current(), KernelPolicy::Simd);
        assert_eq!(KernelPolicy::current().label(), "simd");
    }

    /// One body of [`tile_f32`].
    type TileBody = fn(usize, [&[f32]; MR], &[f32], usize) -> Tile;

    /// Every tile body this host can run, by name; the portable body
    /// first.
    fn tile_bodies<const SKIP_ZERO: bool>() -> Vec<(&'static str, TileBody)> {
        let mut bodies: Vec<(&'static str, TileBody)> =
            vec![("portable", tile_f32_portable::<SKIP_ZERO>)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified; the callers
                // below size every operand as `tile_f32` asserts.
                bodies.push(("avx2", |k, a, b, ldb| unsafe {
                    tile_f32_avx2::<SKIP_ZERO>(k, a, b, ldb)
                }));
            }
            if is_x86_feature_detected!("avx512f") {
                // SAFETY: as above, for AVX-512F.
                bodies.push(("avx512", |k, a, b, ldb| unsafe {
                    tile_f32_avx512::<SKIP_ZERO>(k, a, b, ldb)
                }));
            }
        }
        bodies.push(("dispatched", tile_f32::<SKIP_ZERO>));
        bodies
    }

    #[test]
    fn every_tile_body_matches_the_portable_body_bitwise() {
        // Each body the host runs — so an AVX-512 host still checks the
        // AVX2 body — against the portable one, masked and unmasked, at
        // every depth up to 40. `A` mixes ±0.0 with finite values; each
        // `B` column holds one ±∞ or NaN (at row `c % k`) among finite
        // values, ±0.0 and subnormals, so every output meets at most one
        // non-finite term.
        const A: [f32; 5] = [0.0, -0.0, 1.25, -3.5, 2.0e-39];
        const B: [f32; 6] = [0.0, -0.0, 1.5, -2.25, 1.0e-40, 3.0e7];
        const NON_FINITE: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let bits = |t: Tile| t.map(|row| row.map(f32::to_bits));
        for k in 0..40 {
            let rows: Vec<Vec<f32>> =
                (0..MR).map(|r| (0..k).map(|p| A[(p * 3 + r) % A.len()]).collect()).collect();
            let a = std::array::from_fn(|r| rows[r].as_slice());
            let ldb = NR + 3;
            let b: Vec<f32> = (0..k * ldb)
                .map(|i| {
                    let (p, c) = (i / ldb, i % ldb);
                    if p == c % k.max(1) {
                        NON_FINITE[c % NON_FINITE.len()]
                    } else {
                        B[(i * 5 + p) % B.len()]
                    }
                })
                .collect();
            let masked = bits(tile_f32_portable::<true>(k, a, &b, ldb));
            let unmasked = bits(tile_f32_portable::<false>(k, a, &b, ldb));
            for (name, body) in tile_bodies::<true>() {
                assert_eq!(bits(body(k, a, &b, ldb)), masked, "{name} masked k={k}");
            }
            for (name, body) in tile_bodies::<false>() {
                assert_eq!(bits(body(k, a, &b, ldb)), unmasked, "{name} unmasked k={k}");
            }
        }
    }
}
