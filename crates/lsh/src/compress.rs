//! Token compression (paper §III-B): one-level for queries, two-level
//! residual for key/value tokens.

use cta_tensor::Matrix;

use crate::{aggregate_centroids, cluster_by_code_map, ClusterTable, LshFamily};

/// The result of one level of LSH-based token compression: centroids, the
/// cluster table, and per-cluster populations.
///
/// `reconstruct()` expands centroids back to sequence length via the table,
/// giving the approximation `X_i ≈ C_{CT[i]}` (paper eq. 2, query side).
#[derive(Debug, Clone, PartialEq)]
pub struct Compression {
    /// `k × d` centroid matrix.
    pub centroids: Matrix,
    /// Token → cluster mapping.
    pub table: ClusterTable,
    /// Per-cluster populations.
    pub counts: Vec<usize>,
}

impl Compression {
    /// Number of clusters `k`.
    pub fn k(&self) -> usize {
        self.centroids.rows()
    }

    /// Expands the centroids back to one row per token.
    pub fn reconstruct(&self) -> Matrix {
        self.centroids.gather_rows(self.table.indices())
    }

    /// Relative Frobenius error of approximating `original` by the
    /// reconstruction.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn approximation_error(&self, original: &Matrix) -> f64 {
        cta_tensor::relative_error(&self.reconstruct(), original)
    }
}

/// Hashes every token with `family` and numbers the codes by first
/// appearance: the hash-and-cluster step every batch compression runs
/// (paper eq. 1, then the cluster table of Fig. 4a), through the token
/// lanes of [`LshFamily::hash_matrix`] and the flat
/// [`cluster_by_code_map`].
///
/// # Panics
///
/// Panics if `tokens.cols() != family.dim()`, or a projection is not
/// finite.
pub fn cluster_tokens(tokens: &Matrix, family: &LshFamily) -> ClusterTable {
    cluster_by_code_map(&family.hash_matrix(tokens))
}

/// Compresses a token matrix with a single LSH level (used for query tokens,
/// `LSH₀` in the paper).
///
/// # Panics
///
/// Panics if `tokens.cols() != family.dim()`.
pub fn compress(tokens: &Matrix, family: &LshFamily) -> Compression {
    let table = cluster_tokens(tokens, family);
    let cents = aggregate_centroids(tokens, &table);
    Compression { centroids: cents.matrix, counts: cents.counts, table }
}

/// Two-level residual compression for key/value tokens (paper Fig. 3b).
///
/// Level 1 clusters the tokens themselves; level 2 clusters the *residuals*
/// `X_i − C¹_{CT₁[i]}`, so a token is approximated as the sum of its two
/// centroids: `X_i ≈ C¹_{CT₁[i]} + C²_{CT₂[i]}` (paper eq. 2, KV side).
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelCompression {
    /// Level-1 compression of the raw tokens (`C¹`, `CT₁`).
    pub level1: Compression,
    /// Level-2 compression of the residual tokens (`C²`, `CT₂`).
    pub level2: Compression,
}

impl TwoLevelCompression {
    /// `k₁` — level-1 cluster count.
    pub fn k1(&self) -> usize {
        self.level1.k()
    }

    /// `k₂` — level-2 cluster count.
    pub fn k2(&self) -> usize {
        self.level2.k()
    }

    /// Number of tokens compressed.
    pub fn len(&self) -> usize {
        self.level1.table.len()
    }

    /// Whether the compressed sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.level1.table.is_empty()
    }

    /// The concatenated centroid matrix `C^cat = [C¹; C²]`
    /// (`(k₁+k₂) × d`), the operand of the CTA key/value linears
    /// (paper eq. 3).
    pub fn concatenated_centroids(&self) -> Matrix {
        self.level1.centroids.vstack(&self.level2.centroids)
    }

    /// Expands back to one row per token: `C¹_{CT₁[i]} + C²_{CT₂[i]}`.
    pub fn reconstruct(&self) -> Matrix {
        self.level1.reconstruct().add(&self.level2.reconstruct())
    }

    /// Relative Frobenius error of the two-level approximation.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn approximation_error(&self, original: &Matrix) -> f64 {
        cta_tensor::relative_error(&self.reconstruct(), original)
    }
}

/// Runs two-level residual compression: `family1` on the tokens, `family2`
/// on the residuals.
///
/// # Panics
///
/// Panics if the family dimensions do not match the token dimension.
pub fn compress_two_level(
    tokens: &Matrix,
    family1: &LshFamily,
    family2: &LshFamily,
) -> TwoLevelCompression {
    let level1 = compress(tokens, family1);
    let residuals = tokens.sub(&level1.reconstruct());
    let level2 = compress(&residuals, family2);
    TwoLevelCompression { level1, level2 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LshParams;
    use cta_tensor::MatrixRng;
    use proptest::prelude::*;

    fn clustered_tokens(
        seed: u64,
        clusters: usize,
        per_cluster: usize,
        d: usize,
        noise: f32,
    ) -> Matrix {
        let mut rng = MatrixRng::new(seed);
        let centers = rng.normal_matrix(clusters, d, 0.0, 4.0);
        let mut rows = Vec::new();
        for c in 0..clusters {
            for _ in 0..per_cluster {
                let jitter = rng.normal_matrix(1, d, 0.0, noise);
                rows.push(
                    centers
                        .row(c)
                        .iter()
                        .zip(jitter.row(0))
                        .map(|(&a, &b)| a + b)
                        .collect::<Vec<f32>>(),
                );
            }
        }
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }

    #[test]
    fn clustered_data_compresses_well() {
        let tokens = clustered_tokens(5, 4, 16, 8, 0.01);
        let fam = LshFamily::sample(8, LshParams::new(6, 2.0), 11);
        let comp = compress(&tokens, &fam);
        assert!(comp.k() < tokens.rows() / 2, "k = {} of n = {}", comp.k(), tokens.rows());
        assert!(comp.approximation_error(&tokens) < 0.05);
    }

    #[test]
    fn tiny_buckets_give_singletons_and_exact_reconstruction() {
        let tokens = clustered_tokens(6, 3, 4, 6, 0.5);
        let fam = LshFamily::sample(6, LshParams::new(6, 1e-4), 13);
        let comp = compress(&tokens, &fam);
        assert_eq!(comp.k(), tokens.rows());
        assert!(comp.reconstruct().approx_eq(&tokens, 1e-6));
        assert_eq!(comp.approximation_error(&tokens), 0.0);
    }

    #[test]
    fn huge_buckets_give_single_cluster() {
        let tokens = clustered_tokens(7, 3, 4, 6, 0.5);
        let fam = LshFamily::sample(6, LshParams::new(6, 1e6), 17);
        let comp = compress(&tokens, &fam);
        assert_eq!(comp.k(), 1);
        assert_eq!(comp.counts, vec![tokens.rows()]);
    }

    #[test]
    fn two_level_reduces_error_over_one_level() {
        let tokens = clustered_tokens(8, 4, 16, 8, 0.3);
        let params = LshParams::new(6, 3.0);
        let fam1 = LshFamily::sample(8, params, 21);
        let fam2 = LshFamily::sample(8, params, 22);
        let one = compress(&tokens, &fam1);
        let two = compress_two_level(&tokens, &fam1, &fam2);
        assert!(
            two.approximation_error(&tokens) <= one.approximation_error(&tokens) + 1e-9,
            "two-level {} should not exceed one-level {}",
            two.approximation_error(&tokens),
            one.approximation_error(&tokens)
        );
    }

    #[test]
    fn concatenated_centroids_stack_k1_then_k2() {
        let tokens = clustered_tokens(9, 2, 8, 4, 0.2);
        let params = LshParams::new(4, 2.0);
        let two = compress_two_level(
            &tokens,
            &LshFamily::sample(4, params, 31),
            &LshFamily::sample(4, params, 32),
        );
        let cat = two.concatenated_centroids();
        assert_eq!(cat.rows(), two.k1() + two.k2());
        assert_eq!(cat.slice_rows(0, two.k1()), two.level1.centroids);
        assert_eq!(cat.slice_rows(two.k1(), cat.rows()), two.level2.centroids);
    }

    #[test]
    fn identical_tokens_collapse_to_one_cluster_with_zero_error() {
        let tokens = Matrix::from_fn(10, 4, |_, c| c as f32 * 0.5);
        let fam = LshFamily::sample(4, LshParams::new(6, 1.0), 41);
        let comp = compress(&tokens, &fam);
        assert_eq!(comp.k(), 1);
        assert_eq!(comp.approximation_error(&tokens), 0.0);
    }

    proptest! {
        /// Two-level residual approximation error never exceeds level-1
        /// error alone: level 2 approximates the residual, and even the
        /// degenerate single-cluster level-2 subtracts the residual mean.
        #[test]
        fn residual_level_never_hurts(seed in 0u64..200) {
            let mut rng = MatrixRng::new(seed);
            let n = 12 + rng.index(20);
            let tokens = rng.normal_matrix(n, 4, 0.0, 1.0);
            let params = LshParams::new(3, 1.5);
            let fam1 = LshFamily::sample(4, params, seed.wrapping_mul(3) + 1);
            let fam2 = LshFamily::sample(4, params, seed.wrapping_mul(5) + 2);
            let one = compress(&tokens, &fam1);
            let two = compress_two_level(&tokens, &fam1, &fam2);
            prop_assert!(two.approximation_error(&tokens)
                <= one.approximation_error(&tokens) + 1e-5);
        }

        /// Extreme (but finite) token magnitudes survive the hash path:
        /// the p-stable projections are signed, and the float→i32 bucket
        /// conversion saturates at the rails instead of wrapping, so
        /// compression keeps its structural invariants all the way to
        /// magnitudes that floor far past the i32 range. (Non-finite
        /// tokens are rejected by `hash_value` with an explicit panic —
        /// pinned in the family tests.)
        #[test]
        fn extreme_token_magnitudes_keep_compression_well_formed(
            seed in 0u64..100,
            exponent in 0i32..16,
            sign in 0u8..2,
        ) {
            let mut rng = MatrixRng::new(seed);
            let n = 4 + rng.index(12);
            let scale = if sign == 1 { -1.0f32 } else { 1.0 } * 10f32.powi(exponent);
            let base = rng.normal_matrix(n, 4, 0.0, 1.0);
            let tokens = Matrix::from_fn(n, 4, |r, c| base.row(r)[c] * scale);
            let fam = LshFamily::sample(4, LshParams::new(3, 1.5), seed + 7);

            let comp = compress(&tokens, &fam);
            prop_assert!(comp.k() >= 1 && comp.k() <= n);
            prop_assert_eq!(comp.counts.iter().sum::<usize>(), n);
            prop_assert_eq!(comp.reconstruct().shape(), tokens.shape());
            // The hash path is deterministic even at the saturation rails.
            prop_assert_eq!(&compress(&tokens, &fam), &comp);
            // Centroids are population means of finite tokens: finite.
            for r in 0..comp.k() {
                for &v in comp.centroids.row(r) {
                    prop_assert!(v.is_finite(), "centroid entry {v} not finite");
                }
            }
        }

        /// Reconstruction always has the original shape and k <= n at both
        /// levels.
        #[test]
        fn shape_and_cardinality_invariants(seed in 0u64..200, n in 1usize..40) {
            let mut rng = MatrixRng::new(seed);
            let tokens = rng.normal_matrix(n, 6, 0.0, 2.0);
            let params = LshParams::new(4, 2.0);
            let two = compress_two_level(
                &tokens,
                &LshFamily::sample(6, params, seed + 100),
                &LshFamily::sample(6, params, seed + 200),
            );
            prop_assert_eq!(two.reconstruct().shape(), tokens.shape());
            prop_assert!(two.k1() <= n && two.k2() <= n);
            prop_assert_eq!(two.len(), n);
        }
    }
}
