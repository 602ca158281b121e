//! The end-to-end CTA approximation scheme (paper §III).

use cta_lsh::{
    compress, compress_two_level, Compression, LshFamily, LshParams, TwoLevelCompression,
};
use cta_tensor::{exp_in_place, Matrix, MatrixRng};

use crate::aggregate::aggregate_strips;
use crate::{AttentionWeights, CtaConfig};

/// Every artifact of a CTA forward pass, from compressions through the
/// final per-query output.
///
/// The simulator consumes the shapes (`k₀`, `k₁`, `k₂`, populations) to
/// derive cycle counts; the accuracy metrics consume the matrices.
#[derive(Debug, Clone)]
pub struct CtaAttention {
    /// One-level compression of the query tokens (`C⁰`, `CT₀`).
    pub query_compression: Compression,
    /// Two-level residual compression of the key/value tokens.
    pub kv_compression: TwoLevelCompression,
    /// Compressed queries `Q̄ = C⁰·W^Q` (`k₀ × d`).
    pub q_bar: Matrix,
    /// Compressed keys `K̄ = C^cat·W^K` (`(k₁+k₂) × d`).
    pub k_bar: Matrix,
    /// Compressed values `V̄ = C^cat·W^V` (`(k₁+k₂) × d`).
    pub v_bar: Matrix,
    /// Compressed scores `S̄ = Q̄K̄ᵀ/√d` **after** the PPE max-subtraction
    /// (`k₀ × (k₁+k₂)`).
    pub scores_bar: Matrix,
    /// Aggregated attention probabilities (`k₀ × (k₁+k₂)`).
    pub ap: Matrix,
    /// Unnormalised compressed outputs `Ō = AP·V̄` (`k₀ × d`).
    pub output_bar: Matrix,
    /// Final per-query outputs (`m × d`): `Ō_{CT₀[i]}` divided by the
    /// row's softmax denominator `ΣAP/2`.
    pub output: Matrix,
}

impl CtaAttention {
    /// `k₀` — compressed query count.
    pub fn k0(&self) -> usize {
        self.query_compression.k()
    }

    /// `k₁` — level-1 KV cluster count.
    pub fn k1(&self) -> usize {
        self.kv_compression.k1()
    }

    /// `k₂` — level-2 (residual) KV cluster count.
    pub fn k2(&self) -> usize {
        self.kv_compression.k2()
    }

    /// Number of query tokens `m`.
    pub fn num_queries(&self) -> usize {
        self.query_compression.table.len()
    }

    /// Number of key/value tokens `n`.
    pub fn num_keys(&self) -> usize {
        self.kv_compression.len()
    }

    /// The proportion of effective relations, `k₀(k₁+k₂) / (m·n)` — the
    /// quantity plotted in paper Fig. 2.
    pub fn effective_relations(&self) -> f64 {
        let full = self.num_queries() as f64 * self.num_keys() as f64;
        if full == 0.0 {
            return 0.0;
        }
        self.k0() as f64 * (self.k1() + self.k2()) as f64 / full
    }
}

/// Samples the three LSH families (`LSH₀`, `LSH₁`, `LSH₂`) a config
/// describes, deterministically from its seed.
///
/// Exposed so the quantized path and the hardware simulator can reuse the
/// exact same families.
pub fn sample_families(config: &CtaConfig, token_dim: usize) -> [LshFamily; 3] {
    let mut rng = MatrixRng::new(config.seed);
    let f0 = LshFamily::sample_with(
        token_dim,
        LshParams::new(config.hash_length, config.query_bucket_width),
        &mut rng,
    );
    let f1 = LshFamily::sample_with(
        token_dim,
        LshParams::new(config.hash_length, config.kv_bucket_width),
        &mut rng,
    );
    let f2 = LshFamily::sample_with(
        token_dim,
        LshParams::new(config.hash_length, config.residual_bucket_width),
        &mut rng,
    );
    [f0, f1, f2]
}

/// Runs the full CTA approximation scheme (paper §III) in `f32`.
///
/// The pipeline, stage by stage:
///
/// 1. **Token compression** — `LSH₀` on `X^Q`; two-level residual
///    compression (`LSH₁`, `LSH₂`) on `X^KV` (§III-B).
/// 2. **Linears on compressed tokens** — `Q̄ = C⁰W^Q`, `K̄ = C^catW^K`,
///    `V̄ = C^catW^V` (eq. 3).
/// 3. **Compressed scores** — `S̄ = Q̄K̄ᵀ/√d` (eq. 5), then the PPE trick:
///    the row-wise maximum of the first `k₁` columns is subtracted from
///    the remaining `k₂` columns, shifting every reconstructed score by a
///    per-row constant (softmax-invariant) while keeping exponent inputs
///    small (§IV-B(1), score phase).
/// 4. **Probability aggregation** — `AP` from `S̄` and the cluster tables
///    (Fig. 6).
/// 5. **Output** — `Ō = AP·V̄` (eq. 8); query `i` reads row `CT₀[i]`
///    divided by that row's `ΣAP/2`.
///
/// # Panics
///
/// Panics if token dimensions do not match `weights.token_dim()`, or if
/// either token matrix is empty.
pub fn cta_forward(
    queries: &Matrix,
    keys_values: &Matrix,
    weights: &AttentionWeights,
    config: &CtaConfig,
) -> CtaAttention {
    assert!(queries.rows() > 0 && keys_values.rows() > 0, "CTA requires non-empty token matrices");
    assert_eq!(queries.cols(), weights.token_dim(), "query token dim mismatch");
    assert_eq!(keys_values.cols(), weights.token_dim(), "kv token dim mismatch");

    let [f0, f1, f2] = sample_families(config, weights.token_dim());

    // Stage 1: token compression.
    let query_compression = compress(queries, &f0);
    let kv_compression = compress_two_level(keys_values, &f1, &f2);
    cta_forward_compressed(query_compression, kv_compression, weights)
}

/// Stages 2-5 of [`cta_forward`] on compressions made elsewhere, such as
/// a [`StreamingCompressor`](cta_lsh::StreamingCompressor)'s two-level
/// snapshot. On the compressions `cta_forward` itself makes it is
/// `cta_forward`, bit for bit.
///
/// # Panics
///
/// Panics if the compressions' token dimension is not
/// `weights.token_dim()`.
pub fn cta_forward_compressed(
    query_compression: Compression,
    kv_compression: TwoLevelCompression,
    weights: &AttentionWeights,
) -> CtaAttention {
    // Stage 2: linears on compressed tokens (eq. 3).
    let c_cat = kv_compression.concatenated_centroids();
    let q_bar = query_compression.centroids.matmul(weights.wq());
    let k_bar = c_cat.matmul(weights.wk());
    let v_bar = c_cat.matmul(weights.wv());

    finish_forward(query_compression, kv_compression, q_bar, k_bar, v_bar, weights.head_dim())
}

/// Stages 3-5 of the float scheme: compressed scores with
/// max-subtraction, probability aggregation, output calculation and
/// per-query recovery. (The fixed-point head spells its own stages 3-5 on
/// the score grid; see `cta_forward_quantized`.)
fn finish_forward(
    query_compression: Compression,
    kv_compression: TwoLevelCompression,
    q_bar: Matrix,
    k_bar: Matrix,
    v_bar: Matrix,
    head_dim: usize,
) -> CtaAttention {
    let k1 = kv_compression.k1();

    // Stage 3: compressed scores (eq. 5) + PPE max-subtraction.
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut scores_bar = q_bar.matmul_transpose_b(&k_bar).scale(scale);
    subtract_level1_row_max(&mut scores_bar, k1);

    // Stage 4: probability aggregation (Fig. 6), with each AP row's sum.
    let (ap, ap_sums) = aggregate_strips(
        &scores_bar,
        &kv_compression.level1.table,
        &kv_compression.level2.table,
        k1,
        exp_in_place,
    );

    // Stage 5: output calculation (eq. 8) and per-query recovery.
    let output_bar = ap.matmul(&v_bar);
    let m = query_compression.table.len();
    let mut output = Matrix::zeros(m, v_bar.cols());
    // Per-compressed-query softmax denominators ΣAP/2.
    for i in 0..m {
        let c = query_compression.table.cluster_of(i);
        let den = ap_sums[c] / 2.0;
        let src = output_bar.row(c);
        for (o, &x) in output.row_mut(i).iter_mut().zip(src) {
            *o = x / den;
        }
    }

    CtaAttention {
        query_compression,
        kv_compression,
        q_bar,
        k_bar,
        v_bar,
        scores_bar,
        ap,
        output_bar,
        output,
    }
}

/// Subtracts, per row, the maximum of the first `k1` columns from the
/// remaining columns (the PPE behaviour in the score-calculation phase).
/// Every reconstructed score `S̄[i][x1] + S̄[i][x2]` is shifted by the same
/// per-row constant, so softmax results are unchanged while exponent inputs
/// stay small for the PAG look-up table.
fn subtract_level1_row_max(scores_bar: &mut Matrix, k1: usize) {
    for r in 0..scores_bar.rows() {
        let row = scores_bar.row_mut(r);
        let max = row[..k1].iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        for x in &mut row[k1..] {
            *x -= max;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention_exact;
    use cta_tensor::{relative_error, standard_normal_matrix, MatrixRng};
    use proptest::prelude::*;

    fn clustered_tokens(seed: u64, clusters: usize, per: usize, d: usize, noise: f32) -> Matrix {
        let mut rng = MatrixRng::new(seed);
        let centers = rng.normal_matrix(clusters, d, 0.0, 2.0);
        let mut idx = Vec::new();
        for c in 0..clusters {
            idx.extend(std::iter::repeat_n(c, per));
        }
        let base = centers.gather_rows(&idx);
        let jitter = rng.normal_matrix(base.rows(), d, 0.0, noise);
        base.add(&jitter)
    }

    /// Singleton limit: with microscopic buckets every token becomes its
    /// own cluster, level-2 centroids vanish, and CTA must reproduce exact
    /// attention to floating-point tolerance.
    #[test]
    fn singleton_clusters_reproduce_exact_attention() {
        let x = standard_normal_matrix(3, 24, 8);
        let w = AttentionWeights::random(8, 4, 4);
        let cfg = CtaConfig::new(6, 1e-5, 1e-5, 1e-5, 11);
        let cta = cta_forward(&x, &x, &w, &cfg);
        assert_eq!(cta.k0(), 24);
        assert_eq!(cta.k1(), 24);
        let exact = attention_exact(&x, &x, &w);
        assert!(
            relative_error(&cta.output, &exact.output) < 1e-4,
            "relative error {}",
            relative_error(&cta.output, &exact.output)
        );
    }

    /// Identical-token limit: one cluster, and the output equals exact
    /// attention exactly (every query attends uniformly anyway).
    #[test]
    fn identical_tokens_reproduce_exact_attention() {
        let row = standard_normal_matrix(5, 1, 8);
        let x = row.gather_rows(&[0; 16]);
        let w = AttentionWeights::random(8, 4, 6);
        let cta = cta_forward(&x, &x, &w, &CtaConfig::uniform(1.0, 3));
        assert_eq!(cta.k0(), 1);
        assert_eq!(cta.k1(), 1);
        let exact = attention_exact(&x, &x, &w);
        assert!(relative_error(&cta.output, &exact.output) < 1e-4);
    }

    /// On well-clustered inputs CTA compresses strongly and stays accurate.
    #[test]
    fn clustered_inputs_compress_and_stay_accurate() {
        let x = clustered_tokens(7, 6, 16, 16, 0.02);
        let w = AttentionWeights::random(16, 8, 8);
        let cta = cta_forward(&x, &x, &w, &CtaConfig::uniform(2.0, 5));
        assert!(cta.k0() < x.rows() / 2, "k0 = {}", cta.k0());
        let exact = attention_exact(&x, &x, &w);
        let err = relative_error(&cta.output, &exact.output);
        assert!(err < 0.05, "relative error {err}");
        assert!(cta.effective_relations() < 0.5);
    }

    /// The max-subtraction is softmax-invariant: outputs with and without
    /// it agree (run the private helper both ways through the pipeline).
    #[test]
    fn max_subtraction_does_not_change_output() {
        let x = clustered_tokens(9, 4, 8, 8, 0.1);
        let w = AttentionWeights::random(8, 4, 10);
        let cfg = CtaConfig::uniform(1.5, 7);
        let with = cta_forward(&x, &x, &w, &cfg);

        // Re-run stages manually without subtraction.
        let [f0, f1, f2] = sample_families(&cfg, 8);
        let qc = cta_lsh::compress(&x, &f0);
        let kvc = cta_lsh::compress_two_level(&x, &f1, &f2);
        let c_cat = kvc.concatenated_centroids();
        let q_bar = qc.centroids.matmul(w.wq());
        let k_bar = c_cat.matmul(w.wk());
        let v_bar = c_cat.matmul(w.wv());
        let scores = q_bar.matmul_transpose_b(&k_bar).scale(1.0 / 2.0);
        let ap =
            crate::aggregate_probabilities(&scores, &kvc.level1.table, &kvc.level2.table, kvc.k1());
        let o_bar = ap.matmul(&v_bar);
        let mut out = Matrix::zeros(x.rows(), 4);
        for i in 0..x.rows() {
            let c = qc.table.cluster_of(i);
            let den: f32 = ap.row(c).iter().sum::<f32>() / 2.0;
            for (o, &v) in out.row_mut(i).iter_mut().zip(o_bar.row(c)) {
                *o = v / den;
            }
        }
        assert!(with.output.approx_eq(&out, 1e-4));
    }

    /// Cross-attention with different query and key counts works and has
    /// the right shapes.
    #[test]
    fn cross_attention_shapes() {
        let xq = standard_normal_matrix(1, 10, 8);
        let xkv = standard_normal_matrix(2, 30, 8);
        let w = AttentionWeights::random(8, 4, 3);
        let cta = cta_forward(&xq, &xkv, &w, &CtaConfig::uniform(2.0, 4));
        assert_eq!(cta.output.shape(), (10, 4));
        assert_eq!(cta.num_queries(), 10);
        assert_eq!(cta.num_keys(), 30);
        assert_eq!(cta.scores_bar.shape(), (cta.k0(), cta.k1() + cta.k2()));
    }

    /// Same config + same inputs = bit-identical results (seeded families).
    #[test]
    fn forward_is_deterministic() {
        let x = standard_normal_matrix(5, 12, 8);
        let w = AttentionWeights::random(8, 4, 6);
        let cfg = CtaConfig::uniform(1.0, 99);
        let a = cta_forward(&x, &x, &w, &cfg);
        let b = cta_forward(&x, &x, &w, &cfg);
        assert_eq!(a.output, b.output);
        assert_eq!(a.k0(), b.k0());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_input_rejected() {
        let x = Matrix::zeros(0, 8);
        let w = AttentionWeights::random(8, 4, 1);
        let _ = cta_forward(&x, &x, &w, &CtaConfig::uniform(1.0, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Wider buckets never increase the number of effective relations
        /// ... not strictly monotone per-seed, so we assert the weaker
        /// invariant: effective relations always lie in (0, 1] and the
        /// output is finite.
        #[test]
        fn outputs_always_finite(seed in 0u64..200, wexp in -2i32..4) {
            let x = standard_normal_matrix(seed, 12, 6);
            let w = AttentionWeights::random(6, 4, seed + 1);
            let width = 2f32.powi(wexp);
            let cta = cta_forward(&x, &x, &w, &CtaConfig::uniform(width, seed + 2));
            prop_assert!(cta.output.as_slice().iter().all(|v| v.is_finite()));
            let er = cta.effective_relations();
            prop_assert!(er > 0.0 && er <= 2.0 + 1e-9, "er = {er}");
        }

        /// CTA error shrinks to zero as buckets shrink (compare a coarse
        /// and a fine configuration on the same input).
        #[test]
        fn finer_buckets_no_worse_at_the_extremes(seed in 0u64..100) {
            let x = standard_normal_matrix(seed, 16, 6);
            let w = AttentionWeights::random(6, 4, seed + 1);
            let exact = attention_exact(&x, &x, &w).output;
            let fine = cta_forward(&x, &x, &w, &CtaConfig::new(6, 1e-5, 1e-5, 1e-5, seed));
            let fine_err = relative_error(&fine.output, &exact);
            prop_assert!(fine_err < 1e-4, "fine error {fine_err}");
        }
    }
}
