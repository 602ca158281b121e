//! Attention probability aggregation (paper Fig. 6 and eq. 6/7).

use cta_lsh::ClusterTable;
use cta_tensor::{exp_in_place, Matrix};

/// Compressed queries per strip of the token-outer PAG, one lane each —
/// the paper's parallel ADD_EXP units (§IV-B(4)).
const STRIP: usize = 16;

/// Tokens per batch whose exponents one call of the exponent evaluates.
const BLOCK: usize = 64;

/// Computes the aggregated attention probabilities `AP` from the compressed
/// score matrix (paper Fig. 6).
///
/// `scores_bar` is the `k₀ × (k₁+k₂)` compressed score matrix `S̄`; `ct1`,
/// `ct2` are the two key/value cluster tables; `k1` is the level-1 cluster
/// count (the column offset of the level-2 block inside `S̄`).
///
/// For every compressed query `i` and every *original* key position `j`,
/// the approximated score is `S̄[i][CT₁[j]] + S̄[i][k₁+CT₂[j]]` (eq. 6);
/// its exponent is accumulated into **both** contributing columns of `AP`
/// (Fig. 6 lines 9-10), which is why each row of `AP` sums to twice the
/// softmax denominator.
///
/// `exp` is the exponent, a pure function — `f32::exp` for the
/// reference path, an [`ExpLut`](cta_fixed::ExpLut) lookup for the
/// hardware-faithful path. It is called once per `(query, token)` pair,
/// plus once per padding lane of the last strip (see
/// `aggregate_strips`); the result is bit for bit the per-pair loop's.
///
/// # Panics
///
/// Panics if the tables have different lengths, or if `scores_bar` does not
/// have `k1 + ct2.cluster_count()` columns, or `ct1.cluster_count() != k1`.
pub fn aggregate_probabilities_with(
    scores_bar: &Matrix,
    ct1: &ClusterTable,
    ct2: &ClusterTable,
    k1: usize,
    exp: impl Fn(f32) -> f32,
) -> Matrix {
    aggregate_strips(scores_bar, ct1, ct2, k1, |xs| xs.iter_mut().for_each(|x| *x = exp(*x))).0
}

/// [`aggregate_probabilities_with`] with the exact exponent, `f32::exp`,
/// evaluated by [`exp_in_place`]: eight lanes at a time where that is
/// bit for bit the host's `f32::exp`.
///
/// # Panics
///
/// Same conditions as [`aggregate_probabilities_with`].
pub fn aggregate_probabilities(
    scores_bar: &Matrix,
    ct1: &ClusterTable,
    ct2: &ClusterTable,
    k1: usize,
) -> Matrix {
    aggregate_strips(scores_bar, ct1, ct2, k1, exp_in_place).0
}

/// The token-outer PAG behind every entry point; `exp` replaces each
/// value of a slice with its exponent. Returns `AP` and each of its rows'
/// sums, the softmax denominators' doubles.
///
/// The queries run in strips of [`STRIP`]. A strip's `S̄` rows are held
/// column-major — `[k₁+k₂][STRIP]`, so the strip's scores against one
/// cluster are one contiguous lane vector — and its `APᵀ` accumulates in
/// the same layout. Tokens `j` then run in ascending order: the sums
/// `S̄[·][CT₁[j]] + S̄[·][k₁+CT₂[j]]` of a [`BLOCK`] of tokens are formed
/// lane by lane, `exp` evaluates the block at once, and each token's
/// exponents are added to column `CT₁[j]`, then to column `k₁+CT₂[j]`,
/// of every lane. The columns are distinct (`CT₁[j] < k₁`), so every
/// `AP` element still receives exactly the per-pair loop's adds, starting
/// from `+0.0` in ascending `j` — the same f32 operations in the same
/// order — and the result is bit for bit that loop's. The last strip
/// fills its missing lanes with copies of its last query and drops them.
/// Moving rows into and out of the column-major layout are plain copies
/// ([`load_strip`], [`store_strip`]).
///
/// **Row sums.** Each row's sum is formed from the strip's `APᵀ` before
/// it is stored: the columns are added lane by lane in ascending column
/// order, starting from `-0.0` — per lane exactly the adds, in the order,
/// of `Iterator::sum::<f32>` over the stored row, so each sum is bit for
/// bit `ap.row(c).iter().sum::<f32>()`, with no serial pass over `AP`.
///
/// Scratch is `O((k₁+k₂)·STRIP)` plus the `n` token pairs; the gather
/// and scatter are contiguous lane arithmetic.
pub(crate) fn aggregate_strips(
    scores_bar: &Matrix,
    ct1: &ClusterTable,
    ct2: &ClusterTable,
    k1: usize,
    exp: impl Fn(&mut [f32]),
) -> (Matrix, Vec<f32>) {
    strips_on(true, scores_bar, ct1, ct2, k1, exp)
}

/// [`aggregate_strips`] on the AVX-512 build of [`strip_block`] when
/// `allow_avx512` is set and the CPU has AVX-512F, on the portable one
/// otherwise — so a test can run every body the host has.
fn strips_on(
    allow_avx512: bool,
    scores_bar: &Matrix,
    ct1: &ClusterTable,
    ct2: &ClusterTable,
    k1: usize,
    exp: impl Fn(&mut [f32]),
) -> (Matrix, Vec<f32>) {
    assert_eq!(ct1.len(), ct2.len(), "CT₁ and CT₂ cover different token counts");
    assert_eq!(ct1.cluster_count(), k1, "k₁ mismatch: table has {} clusters", ct1.cluster_count());
    assert_eq!(
        scores_bar.cols(),
        k1 + ct2.cluster_count(),
        "S̄ has {} columns but k₁+k₂ = {}",
        scores_bar.cols(),
        k1 + ct2.cluster_count()
    );
    let (k0, cols) = scores_bar.shape();
    let pairs: Vec<(usize, usize)> =
        ct1.indices().iter().zip(ct2.indices()).map(|(&x1, &x2)| (x1, k1 + x2)).collect();
    let mut s_t = vec![[0.0f32; STRIP]; cols];
    let mut ap_t = vec![[0.0f32; STRIP]; cols];
    let mut block = [[0.0f32; STRIP]; BLOCK];
    let mut ap = Matrix::zeros(k0, cols);
    let mut sums = Vec::with_capacity(k0);
    #[cfg(target_arch = "x86_64")]
    let avx512 = allow_avx512 && is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    let _ = allow_avx512;
    for i0 in (0..k0).step_by(STRIP) {
        let lanes = STRIP.min(k0 - i0);
        let rows: [&[f32]; STRIP] = std::array::from_fn(|l| scores_bar.row(i0 + l.min(lanes - 1)));
        load_strip(rows, &mut s_t);
        ap_t.fill([0.0; STRIP]);
        for tokens in pairs.chunks(BLOCK) {
            let p = &mut block[..tokens.len()];
            #[cfg(target_arch = "x86_64")]
            if avx512 {
                // SAFETY: AVX-512F support was verified above.
                unsafe { strip_block_avx512(tokens, &s_t, &mut ap_t, p, &exp) };
                continue;
            }
            strip_block(tokens, &s_t, &mut ap_t, p, &exp);
        }
        let mut rows: Vec<&mut [f32]> = ap.as_mut_slice()[i0 * cols..(i0 + lanes) * cols]
            .chunks_exact_mut(cols.max(1))
            .collect();
        store_strip(&ap_t, &mut rows);
        let mut lane_sums = [-0.0f32; STRIP];
        for col in &ap_t {
            for (s, &x) in lane_sums.iter_mut().zip(col) {
                *s += x;
            }
        }
        sums.extend_from_slice(&lane_sums[..lanes]);
    }
    (ap, sums)
}

/// One block of tokens against a strip: `p[b]` gets the lane sums
/// `s_t[x1] + s_t[x2]` of token `b = (x1, x2)`, `exp` replaces them with
/// their exponents, and each token's exponents are added to `ap_t[x1]`,
/// then to `ap_t[x2]`, in token order.
#[inline(always)]
fn strip_block(
    tokens: &[(usize, usize)],
    s_t: &[[f32; STRIP]],
    ap_t: &mut [[f32; STRIP]],
    p: &mut [[f32; STRIP]],
    exp: &impl Fn(&mut [f32]),
) {
    for (p_j, &(x1, x2)) in p.iter_mut().zip(tokens) {
        let (a, b) = (&s_t[x1], &s_t[x2]);
        for l in 0..STRIP {
            p_j[l] = a[l] + b[l];
        }
    }
    exp(p.as_flattened_mut());
    for (p_j, &(x1, x2)) in p.iter().zip(tokens) {
        for (o, &x) in ap_t[x1].iter_mut().zip(p_j) {
            *o += x;
        }
        for (o, &x) in ap_t[x2].iter_mut().zip(p_j) {
            *o += x;
        }
    }
}

/// [`strip_block`] compiled for AVX-512, where a strip's sixteen lanes
/// are one register.
///
/// # Safety
///
/// The caller must have verified AVX-512F support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn strip_block_avx512(
    tokens: &[(usize, usize)],
    s_t: &[[f32; STRIP]],
    ap_t: &mut [[f32; STRIP]],
    p: &mut [[f32; STRIP]],
    exp: &impl Fn(&mut [f32]),
) {
    strip_block(tokens, s_t, ap_t, p, exp);
}

/// `s_t[c][l] = rows[l][c]`: a strip's rows into its column-major
/// layout. Runs 8×8 AVX transposes where the CPU has AVX (detected
/// once, cached by `std`), element copies otherwise; a copy either way.
fn load_strip(rows: [&[f32]; STRIP], s_t: &mut [[f32; STRIP]]) {
    assert!(rows.iter().all(|row| row.len() == s_t.len()), "strip rows and columns differ");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified, and the assert above
        // bounds every access.
        done = unsafe { transpose_avx::load_strip(&rows, s_t) };
    }
    for (c, col) in s_t.iter_mut().enumerate().skip(done) {
        for (o, row) in col.iter_mut().zip(rows) {
            *o = row[c];
        }
    }
}

/// `rows[l][c] = ap_t[c][l]` for the strip's `rows.len()` live lanes:
/// the inverse of [`load_strip`], dropping the padding lanes.
fn store_strip(ap_t: &[[f32; STRIP]], rows: &mut [&mut [f32]]) {
    assert!(rows.len() <= STRIP, "more rows than lanes");
    assert!(rows.iter().all(|row| row.len() == ap_t.len()), "strip rows and columns differ");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just verified, and the asserts above
        // bound every access.
        done = unsafe { transpose_avx::store_strip(ap_t, rows) };
    }
    for (c, col) in ap_t.iter().enumerate().skip(done) {
        for (row, &x) in rows.iter_mut().zip(col) {
            row[c] = x;
        }
    }
}

/// The AVX bodies of [`load_strip`] and [`store_strip`]: whole 8-column
/// blocks as two 8×8 transposes each (one per half of the lanes). Each
/// returns how many leading columns it handled.
#[cfg(target_arch = "x86_64")]
mod transpose_avx {
    use super::STRIP;
    use std::arch::x86_64::{
        __m256, _mm256_loadu_ps, _mm256_permute2f128_ps, _mm256_shuffle_ps, _mm256_storeu_ps,
        _mm256_unpackhi_ps, _mm256_unpacklo_ps,
    };

    /// The transpose of the 8×8 block whose row `k` is `r[k]`.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t = [
            _mm256_unpacklo_ps(r[0], r[1]),
            _mm256_unpackhi_ps(r[0], r[1]),
            _mm256_unpacklo_ps(r[2], r[3]),
            _mm256_unpackhi_ps(r[2], r[3]),
            _mm256_unpacklo_ps(r[4], r[5]),
            _mm256_unpackhi_ps(r[4], r[5]),
            _mm256_unpacklo_ps(r[6], r[7]),
            _mm256_unpackhi_ps(r[6], r[7]),
        ];
        let u = [
            _mm256_shuffle_ps::<0x44>(t[0], t[2]),
            _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
            _mm256_shuffle_ps::<0x44>(t[1], t[3]),
            _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
            _mm256_shuffle_ps::<0x44>(t[4], t[6]),
            _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
            _mm256_shuffle_ps::<0x44>(t[5], t[7]),
            _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
        ];
        [
            _mm256_permute2f128_ps::<0x20>(u[0], u[4]),
            _mm256_permute2f128_ps::<0x20>(u[1], u[5]),
            _mm256_permute2f128_ps::<0x20>(u[2], u[6]),
            _mm256_permute2f128_ps::<0x20>(u[3], u[7]),
            _mm256_permute2f128_ps::<0x31>(u[0], u[4]),
            _mm256_permute2f128_ps::<0x31>(u[1], u[5]),
            _mm256_permute2f128_ps::<0x31>(u[2], u[6]),
            _mm256_permute2f128_ps::<0x31>(u[3], u[7]),
        ]
    }

    /// # Safety
    ///
    /// The caller must have verified AVX support and that every row is
    /// `s_t.len()` long.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn load_strip(rows: &[&[f32]; STRIP], s_t: &mut [[f32; STRIP]]) -> usize {
        let blocks = s_t.len() / 8;
        for c0 in (0..blocks * 8).step_by(8) {
            for half in [0, 8] {
                let r = std::array::from_fn(|k| _mm256_loadu_ps(rows[half + k].as_ptr().add(c0)));
                for (k, v) in transpose8(r).into_iter().enumerate() {
                    _mm256_storeu_ps(s_t[c0 + k].as_mut_ptr().add(half), v);
                }
            }
        }
        blocks * 8
    }

    /// # Safety
    ///
    /// The caller must have verified AVX support, that `rows` holds at
    /// most `STRIP` rows and that every row is `ap_t.len()` long.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn store_strip(ap_t: &[[f32; STRIP]], rows: &mut [&mut [f32]]) -> usize {
        let blocks = ap_t.len() / 8;
        for c0 in (0..blocks * 8).step_by(8) {
            for half in [0, 8] {
                if half >= rows.len() {
                    break;
                }
                let r = std::array::from_fn(|k| _mm256_loadu_ps(ap_t[c0 + k].as_ptr().add(half)));
                for (row, v) in rows[half..].iter_mut().zip(transpose8(r)) {
                    _mm256_storeu_ps(row.as_mut_ptr().add(c0), v);
                }
            }
        }
        blocks * 8
    }
}

/// The per-pair loop of Fig. 6, `(i, j)` in row-major order: the test
/// oracle of [`aggregate_strips`].
#[cfg(test)]
pub(crate) fn aggregate_probabilities_reference(
    scores_bar: &Matrix,
    ct1: &ClusterTable,
    ct2: &ClusterTable,
    k1: usize,
    exp: impl Fn(f32) -> f32,
) -> Matrix {
    let mut ap = Matrix::zeros(scores_bar.rows(), scores_bar.cols());
    for i in 0..scores_bar.rows() {
        let cs_row = scores_bar.row(i);
        let ap_row = ap.row_mut(i);
        for j in 0..ct1.len() {
            let x1 = ct1.cluster_of(j);
            let x2 = k1 + ct2.cluster_of(j);
            let p = exp(cs_row[x1] + cs_row[x2]);
            ap_row[x1] += p;
            ap_row[x2] += p;
        }
    }
    ap
}

/// Reconstructs the full `m × n` approximated score matrix from compressed
/// scores (paper eq. 6): `S[i][j] ≈ S̄[CT₀[i]][CT₁[j]] + S̄[CT₀[i]][k₁+CT₂[j]]`.
///
/// Quadratic in sequence length — this exists for validation and accuracy
/// metrics, never on the fast path.
///
/// # Panics
///
/// Panics if `ct0` indexes rows outside `scores_bar`, or the KV tables are
/// inconsistent with `scores_bar`'s columns.
pub fn reconstruct_full_scores(
    scores_bar: &Matrix,
    ct0: &ClusterTable,
    ct1: &ClusterTable,
    ct2: &ClusterTable,
    k1: usize,
) -> Matrix {
    assert_eq!(ct0.cluster_count(), scores_bar.rows(), "CT₀ cluster count mismatch");
    assert_eq!(ct1.len(), ct2.len(), "CT₁ and CT₂ cover different token counts");
    assert_eq!(scores_bar.cols(), k1 + ct2.cluster_count(), "S̄ column count mismatch");
    let m = ct0.len();
    let n = ct1.len();
    Matrix::from_fn(m, n, |i, j| {
        let row = ct0.cluster_of(i);
        scores_bar[(row, ct1.cluster_of(j))] + scores_bar[(row, k1 + ct2.cluster_of(j))]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_fixed::{ExpLut, QFormat};
    use cta_tensor::{softmax_rows, MatrixRng};
    use proptest::prelude::*;

    fn tables(n: usize, k1: usize, k2: usize, seed: u64) -> (ClusterTable, ClusterTable) {
        let mut rng = MatrixRng::new(seed);
        let mut i1: Vec<usize> = (0..k1).collect();
        let mut i2: Vec<usize> = (0..k2).collect();
        for _ in k1..n {
            i1.push(rng.index(k1));
        }
        for _ in k2..n {
            i2.push(rng.index(k2));
        }
        (ClusterTable::new(i1, k1), ClusterTable::new(i2, k2))
    }

    #[test]
    fn ap_row_sums_are_twice_softmax_numerator_sums() {
        let (k0, k1, k2, n) = (3usize, 4usize, 2usize, 10usize);
        let mut rng = MatrixRng::new(5);
        let s_bar = rng.normal_matrix(k0, k1 + k2, 0.0, 1.0);
        let (ct1, ct2) = tables(n, k1, k2, 6);
        let ap = aggregate_probabilities(&s_bar, &ct1, &ct2, k1);
        for i in 0..k0 {
            let ap_sum: f32 = ap.row(i).iter().sum();
            let direct: f32 = (0..n)
                .map(|j| (s_bar[(i, ct1.cluster_of(j))] + s_bar[(i, k1 + ct2.cluster_of(j))]).exp())
                .sum();
            assert!(
                (ap_sum - 2.0 * direct).abs() < 1e-3 * direct.max(1.0),
                "row {i}: {ap_sum} vs 2*{direct}"
            );
        }
    }

    #[test]
    fn aggregation_matches_reconstructed_softmax() {
        // O_bar / (sum(AP)/2) must equal softmax(reconstructed S) · V_tilde.
        let (k0, k1, k2, n, d) = (2usize, 3usize, 2usize, 8usize, 4usize);
        let mut rng = MatrixRng::new(9);
        let s_bar = rng.normal_matrix(k0, k1 + k2, 0.0, 1.0);
        let v_bar = rng.normal_matrix(k1 + k2, d, 0.0, 1.0);
        let (ct1, ct2) = tables(n, k1, k2, 10);
        let ct0 = ClusterTable::new(vec![0, 1, 0, 1, 0, 1], 2);

        // CTA path.
        let ap = aggregate_probabilities(&s_bar, &ct1, &ct2, k1);
        let o_bar = ap.matmul(&v_bar);
        let mut cta_out = Matrix::zeros(ct0.len(), d);
        for i in 0..ct0.len() {
            let c = ct0.cluster_of(i);
            let den: f32 = ap.row(c).iter().sum::<f32>() / 2.0;
            for (jj, o) in cta_out.row_mut(i).iter_mut().enumerate() {
                *o = o_bar[(c, jj)] / den;
            }
        }

        // Reference path: full reconstruction then ordinary softmax.
        let s_full = reconstruct_full_scores(&s_bar, &ct0, &ct1, &ct2, k1);
        let p = softmax_rows(&s_full);
        let v_tilde = Matrix::from_fn(n, d, |j, jj| {
            v_bar[(ct1.cluster_of(j), jj)] + v_bar[(k1 + ct2.cluster_of(j), jj)]
        });
        let ref_out = p.matmul(&v_tilde);

        assert!(cta_out.approx_eq(&ref_out, 1e-4), "cta={cta_out:?} ref={ref_out:?}");
    }

    #[test]
    fn merged_accumulation_when_tables_coincide() {
        // If CT1[j] is the same for two js, their probabilities merge into
        // one AP entry — the case the PAG merge unit handles in hardware.
        let s_bar = Matrix::from_rows(&[&[0.0, 0.0, 0.0]]); // k0=1, k1=2, k2=1
        let ct1 = ClusterTable::new(vec![0, 0, 1], 2);
        let ct2 = ClusterTable::new(vec![0, 0, 0], 1);
        let ap = aggregate_probabilities(&s_bar, &ct1, &ct2, 2);
        // exp(0+0)=1 for each of 3 tokens; tokens 0,1 hit x1=0, token 2 hits x1=1;
        // all three hit x2=2.
        assert_eq!(ap.row(0), &[2.0, 1.0, 3.0]);
    }

    /// Every element's bits, with every NaN as the canonical NaN: Rust
    /// leaves the payload and sign of a NaN result unspecified (an
    /// optimizing build may commute `NaN₁ + NaN₂`), so only NaN-ness is
    /// compared for those.
    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits()).collect()
    }

    /// A `k0 × cols` score matrix mixing ordinary scores with NaN, ±∞ and
    /// magnitudes whose pair sums land in `[−104, −88)` (where `f32::exp`
    /// underflows through glibc's special branch) and above 88 (where
    /// it overflows), so every lane path and the scalar fallback run.
    fn wild_scores(rng: &mut MatrixRng, k0: usize, cols: usize) -> Matrix {
        Matrix::from_fn(k0, cols, |_, _| match rng.index(24) {
            0 => f32::NAN,
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3..=6 => rng.uniform(-52.0, -44.0),
            7..=8 => rng.uniform(44.0, 48.0),
            _ => 3.0 * rng.normal(),
        })
    }

    #[test]
    fn strip_pag_matches_the_oracle_at_the_paper_long_sequence() {
        // n = 1024 tokens with k0 = k1 = 256, k2 = 64, both f32::exp
        // sources.
        let (k0, k1, k2, n) = (256usize, 256usize, 64usize, 1024usize);
        let mut rng = MatrixRng::new(29);
        let s_bar = rng.normal_matrix(k0, k1 + k2, 0.0, 1.0);
        let (ct1, ct2) = tables(n, k1, k2, 30);
        let oracle = bits(&aggregate_probabilities_reference(&s_bar, &ct1, &ct2, k1, f32::exp));
        assert_eq!(bits(&aggregate_probabilities(&s_bar, &ct1, &ct2, k1)), oracle);
        assert_eq!(bits(&aggregate_probabilities_with(&s_bar, &ct1, &ct2, k1, f32::exp)), oracle);
    }

    proptest! {
        /// The strip PAG against the per-pair oracle via `to_bits`, for
        /// every exponent source: the closure entry with `f32::exp`, the
        /// lane exponent, the score-word table's gather, and
        /// `ExpLut::lookup` — the fallback of a Q16.16 score format,
        /// whose word table would pass the cap. `k0` runs across and off
        /// multiples of 8 and 16 (ragged last strips); scores include
        /// NaN, ±∞ and sums below −88 and above 88.
        #[test]
        fn strip_pag_matches_the_per_pair_oracle_bitwise(
            k0 in 1usize..50,
            k1 in 1usize..12,
            k2 in 1usize..8,
            extra in 0usize..150,
            source in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = MatrixRng::new(seed);
            let n = k1.max(k2) + extra;
            let s_bar = wild_scores(&mut rng, k0, k1 + k2);
            let (ct1, ct2) = tables(n, k1, k2, seed ^ 0x5eed);
            let lut = ExpLut::pag_default();
            let (strips, oracle) = match source {
                0 => (
                    aggregate_probabilities_with(&s_bar, &ct1, &ct2, k1, f32::exp),
                    aggregate_probabilities_reference(&s_bar, &ct1, &ct2, k1, f32::exp),
                ),
                1 => (
                    aggregate_probabilities(&s_bar, &ct1, &ct2, k1),
                    aggregate_probabilities_reference(&s_bar, &ct1, &ct2, k1, f32::exp),
                ),
                2 => {
                    let table = lut.indexed_by(QFormat::new(16, 8)).expect("Q8.8 fits the cap");
                    (
                        aggregate_strips(&s_bar, &ct1, &ct2, k1, |xs| table.lookup_in_place(xs)).0,
                        aggregate_probabilities_reference(&s_bar, &ct1, &ct2, k1, |x| {
                            table.lookup(x)
                        }),
                    )
                }
                _ => {
                    assert!(lut.indexed_by(QFormat::new(32, 16)).is_none());
                    (
                        aggregate_probabilities_with(&s_bar, &ct1, &ct2, k1, |x| lut.lookup(x)),
                        aggregate_probabilities_reference(&s_bar, &ct1, &ct2, k1, |x| {
                            lut.lookup(x)
                        }),
                    )
                }
            };
            prop_assert_eq!(bits(&strips), bits(&oracle));
        }
    }

    /// Every strip body this host runs, by whether it may take AVX-512.
    fn strip_bodies() -> Vec<bool> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            return vec![false, true];
        }
        vec![false]
    }

    proptest! {
        /// The row sums `aggregate_strips` returns are the serial
        /// `Iterator::sum::<f32>` over each stored `AP` row, bit for bit,
        /// on every strip body: `k0` below, at and off multiples of the
        /// 16-lane strip (padding lanes dropped); the lane exponent on
        /// wild scores (NaN, ±∞, overflowing and underflowing sums),
        /// with `zero_rows` rows whose exponents all underflow to an `AP`
        /// row of exact zeros; and the score-word table on grid scores,
        /// with `zero_rows` `S̄` rows of exact zeros, whose exponents are
        /// all exactly 1.
        #[test]
        fn strip_row_sums_are_the_serial_row_sums(
            k0 in (0usize..3, 1usize..16, 1usize..3)
                .prop_map(|(kind, lanes, strips)| [lanes, 16, 16 * strips + lanes][kind]),
            k1 in 1usize..12,
            k2 in 1usize..8,
            extra in 0usize..150,
            word_table in (0u8..2).prop_map(|x| x == 1),
            zero_rows in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = MatrixRng::new(seed);
            let n = k1.max(k2) + extra;
            let (ct1, ct2) = tables(n, k1, k2, seed ^ 0x5eed);
            let score = QFormat::new(16, 8);
            let table = ExpLut::pag_default().indexed_by(score).expect("Q8.8 fits the cap");
            let mut s_bar = if word_table {
                Matrix::from_fn(k0, k1 + k2, |_, _| score.round_trip(4.0 * rng.normal()))
            } else {
                wild_scores(&mut rng, k0, k1 + k2)
            };
            let zero_rows = zero_rows.min(k0);
            for r in 0..zero_rows {
                s_bar.row_mut(r).fill(if word_table { 0.0 } else { -60.0 });
            }
            for allow_avx512 in strip_bodies() {
                let (ap, sums) = if word_table {
                    strips_on(allow_avx512, &s_bar, &ct1, &ct2, k1, |xs| table.lookup_in_place(xs))
                } else {
                    strips_on(allow_avx512, &s_bar, &ct1, &ct2, k1, exp_in_place)
                };
                for r in 0..zero_rows {
                    let want = |x: f32| if word_table { x == x.trunc() } else { x == 0.0 };
                    prop_assert!(ap.row(r).iter().all(|&x| want(x)), "row {}", r);
                }
                // NaN sums compare as NaN (see `bits`).
                let serial = Matrix::from_fn(k0, 1, |c, _| ap.row(c).iter().sum::<f32>());
                let sums = Matrix::from_vec(k0, 1, sums);
                prop_assert_eq!(bits(&sums), bits(&serial), "allow_avx512 = {}", allow_avx512);
            }
        }
    }

    #[test]
    fn strip_copies_move_every_element_and_touch_nothing_else() {
        // Column counts around the 8-column transpose blocks and every
        // live-lane count of a strip.
        for cols in [0usize, 1, 7, 8, 9, 16, 17, 290] {
            let source: Vec<Vec<f32>> =
                (0..STRIP).map(|l| (0..cols).map(|c| (l * 1000 + c) as f32).collect()).collect();
            let rows: [&[f32]; STRIP] = std::array::from_fn(|l| source[l].as_slice());
            let mut s_t = vec![[f32::NAN; STRIP]; cols];
            load_strip(rows, &mut s_t);
            for (c, col) in s_t.iter().enumerate() {
                assert_eq!(*col, std::array::from_fn(|l| source[l][c]), "load cols={cols} c={c}");
            }
            for lanes in 1..=STRIP {
                let mut out = vec![vec![-1.0f32; cols]; STRIP];
                let mut live: Vec<&mut [f32]> =
                    out.iter_mut().take(lanes).map(|row| row.as_mut_slice()).collect();
                store_strip(&s_t, &mut live);
                for (l, row) in out.iter().enumerate() {
                    let want = if l < lanes { source[l].clone() } else { vec![-1.0; cols] };
                    assert_eq!(*row, want, "store cols={cols} lanes={lanes} l={l}");
                }
            }
        }
    }

    #[test]
    fn custom_exp_is_used() {
        let s_bar = Matrix::from_rows(&[&[1.0, 2.0]]); // k1=1, k2=1
        let ct1 = ClusterTable::new(vec![0], 1);
        let ct2 = ClusterTable::new(vec![0], 1);
        // A fake exponent that returns 10 regardless.
        let ap = aggregate_probabilities_with(&s_bar, &ct1, &ct2, 1, |_| 10.0);
        assert_eq!(ap.row(0), &[10.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "k₁ mismatch")]
    fn wrong_k1_is_rejected() {
        let s_bar = Matrix::zeros(1, 3);
        let ct1 = ClusterTable::new(vec![0], 1);
        let ct2 = ClusterTable::new(vec![0], 1);
        let _ = aggregate_probabilities(&s_bar, &ct1, &ct2, 2);
    }

    #[test]
    fn reconstruct_full_scores_shape() {
        let s_bar = Matrix::zeros(2, 3);
        let ct0 = ClusterTable::new(vec![0, 1, 1], 2);
        let ct1 = ClusterTable::new(vec![0, 1, 0, 1], 2);
        let ct2 = ClusterTable::new(vec![0, 0, 0, 0], 1);
        let s = reconstruct_full_scores(&s_bar, &ct0, &ct1, &ct2, 2);
        assert_eq!(s.shape(), (3, 4));
    }
}
