//! Attention probability aggregation (paper Fig. 6 and eq. 6/7).

use cta_lsh::ClusterTable;
use cta_tensor::{KernelPolicy, Matrix};

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
/// `exp` is the exponent implementation — `f32::exp` for the reference
/// path, an [`ExpLut`](cta_fixed::ExpLut) lookup for the hardware-faithful
/// path.
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
    exp: impl FnMut(f32) -> f32,
) -> Matrix {
    aggregate_probabilities_kernel(scores_bar, ct1, ct2, k1, exp, KernelPolicy::Simd)
}

/// [`aggregate_probabilities_with`] under an explicit [`KernelPolicy`].
///
/// The scalar path looks both cluster tables up per `(i, j)` pair; the
/// SIMD path hoists the table lookups out of the row loop (`2·n`
/// lookups instead of `2·k₀·n`) and gathers the score sums into a
/// scratch row, 8-wide, before exponentiating. Bitwise identical: the `exp`
/// closure is invoked in exactly the scalar order (ascending `j` within
/// ascending `i` — it may be stateful), each sum is the same two-term
/// f32 addition, and the `AP` scatter accumulates in the same order.
///
/// # Panics
///
/// Same conditions as [`aggregate_probabilities_with`].
pub fn aggregate_probabilities_kernel(
    scores_bar: &Matrix,
    ct1: &ClusterTable,
    ct2: &ClusterTable,
    k1: usize,
    mut exp: impl FnMut(f32) -> f32,
    policy: KernelPolicy,
) -> Matrix {
    assert_eq!(ct1.len(), ct2.len(), "CT₁ and CT₂ cover different token counts");
    assert_eq!(ct1.cluster_count(), k1, "k₁ mismatch: table has {} clusters", ct1.cluster_count());
    assert_eq!(
        scores_bar.cols(),
        k1 + ct2.cluster_count(),
        "S̄ has {} columns but k₁+k₂ = {}",
        scores_bar.cols(),
        k1 + ct2.cluster_count()
    );
    let k0 = scores_bar.rows();
    let n = ct1.len();
    let mut ap = Matrix::zeros(k0, scores_bar.cols());
    match policy {
        KernelPolicy::Scalar => {
            for i in 0..k0 {
                let cs_row = scores_bar.row(i);
                // Split borrows: we read from scores_bar and write to ap.
                let ap_row = ap.row_mut(i);
                for j in 0..n {
                    let x1 = ct1.cluster_of(j);
                    let x2 = k1 + ct2.cluster_of(j);
                    let p = exp(cs_row[x1] + cs_row[x2]);
                    ap_row[x1] += p;
                    ap_row[x2] += p;
                }
            }
        }
        KernelPolicy::Simd => {
            let x1s: Vec<usize> = (0..n).map(|j| ct1.cluster_of(j)).collect();
            let x2s: Vec<usize> = (0..n).map(|j| k1 + ct2.cluster_of(j)).collect();
            let mut sums = vec![0.0f32; n];
            for i in 0..k0 {
                let cs_row = scores_bar.row(i);
                // Gather in 8-wide chunks of independent elements.
                let mut sc = sums.chunks_exact_mut(8);
                let mut c1 = x1s.chunks_exact(8);
                let mut c2 = x2s.chunks_exact(8);
                for ((s8, i8), j8) in (&mut sc).zip(&mut c1).zip(&mut c2) {
                    for l in 0..8 {
                        s8[l] = cs_row[i8[l]] + cs_row[j8[l]];
                    }
                }
                for ((s, &x1), &x2) in
                    sc.into_remainder().iter_mut().zip(c1.remainder()).zip(c2.remainder())
                {
                    *s = cs_row[x1] + cs_row[x2];
                }
                let ap_row = ap.row_mut(i);
                for j in 0..n {
                    let p = exp(sums[j]);
                    ap_row[x1s[j]] += p;
                    ap_row[x2s[j]] += p;
                }
            }
        }
    }
    ap
}

/// [`aggregate_probabilities_with`] specialised to the exact exponent.
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
    aggregate_probabilities_with(scores_bar, ct1, ct2, k1, f32::exp)
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
    use cta_tensor::{softmax_rows, MatrixRng};

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

    #[test]
    fn aggregation_policies_are_bitwise_identical_with_stateful_exp() {
        // A small ragged shape, then the paper's long sequence: n = 1024
        // tokens with k0 = k1 = 256, k2 = 64.
        for (k0, k1, k2, n) in [(4usize, 5usize, 3usize, 37usize), (256, 256, 64, 1024)] {
            let mut rng = MatrixRng::new(17);
            let s_bar = rng.normal_matrix(k0, k1 + k2, 0.0, 1.0);
            let (ct1, ct2) = tables(n, k1, k2, 18);
            // A stateful exponent: the result depends on the call
            // sequence, so any reordering of exp calls would show up as
            // a diff.
            let run = |policy| {
                let mut calls = 0u32;
                aggregate_probabilities_kernel(
                    &s_bar,
                    &ct1,
                    &ct2,
                    k1,
                    |x| {
                        calls = calls.wrapping_add(1);
                        x.exp() + calls as f32 * 1e-3
                    },
                    policy,
                )
            };
            assert_eq!(
                run(cta_tensor::KernelPolicy::Simd),
                run(cta_tensor::KernelPolicy::Scalar),
                "k0={k0} n={n}"
            );
        }
    }

    #[test]
    fn entry_point_matches_the_scalar_reference() {
        // `aggregate_probabilities_with` takes no policy: it runs the
        // gathered SIMD body. Pin it to the per-pair scalar loop at the
        // paper's long sequence (n = 1024, k0 = k1 = 256, k2 = 64).
        let (k0, k1, k2, n) = (256usize, 256usize, 64usize, 1024usize);
        let mut rng = MatrixRng::new(29);
        let s_bar = rng.normal_matrix(k0, k1 + k2, 0.0, 1.0);
        let (ct1, ct2) = tables(n, k1, k2, 30);
        assert_eq!(
            aggregate_probabilities_with(&s_bar, &ct1, &ct2, k1, f32::exp),
            aggregate_probabilities_kernel(
                &s_bar,
                &ct1,
                &ct2,
                k1,
                f32::exp,
                cta_tensor::KernelPolicy::Scalar
            )
        );
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
