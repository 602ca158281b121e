//! Fidelity metrics: how close is a CTA output to exact attention?

use cta_tensor::{cosine_similarity, relative_error, Matrix};

use crate::{CtaAttention, ExactAttention};

/// All fidelity numbers for one (input, config) pair.
///
/// These are the raw signals the workload crate converts into task-level
/// proxy accuracy; the paper's 0% / 0.5% / 1% accuracy-loss operating
/// points are found by sweeping bucket widths against such metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FidelityReport {
    /// Relative Frobenius error of the output matrix.
    pub output_relative_error: f64,
    /// Mean per-query cosine similarity between CTA and exact outputs.
    pub mean_output_cosine: f64,
    /// Fraction of queries whose strongest attended key (arg-max of the
    /// attention probability row) is preserved by the approximation.
    pub top1_agreement: f64,
}

/// Compares a CTA forward pass against exact attention on the same inputs.
///
/// # Panics
///
/// Panics if the two outputs have different shapes (different inputs).
pub fn fidelity(cta: &CtaAttention, exact: &ExactAttention) -> FidelityReport {
    fidelity_against(cta, &exact.output, &top1_keys(&exact.probabilities))
}

/// [`fidelity`] against the two things it reads of exact attention: the
/// output and the [`top1_keys`]. A sweep scoring many configurations
/// against one exact pass reads the keys once.
///
/// # Panics
///
/// Panics if the outputs have different shapes, or `exact_top1` does not
/// hold one key per query.
pub fn fidelity_against(
    cta: &CtaAttention,
    exact_output: &Matrix,
    exact_top1: &[usize],
) -> FidelityReport {
    let output_relative_error = relative_error(&cta.output, exact_output);
    let m = exact_output.rows();
    let mut cos_sum = 0.0f64;
    for i in 0..m {
        cos_sum += cosine_similarity(cta.output.row(i), exact_output.row(i));
    }
    let mean_output_cosine = cos_sum / m as f64;
    let top1_agreement = top1_agreement_with_keys(cta, exact_top1);
    FidelityReport { output_relative_error, mean_output_cosine, top1_agreement }
}

/// The most-attended key of every query: the first arg-max of each row
/// of `probabilities`.
pub fn top1_keys(probabilities: &Matrix) -> Vec<usize> {
    (0..probabilities.rows()).map(|i| argmax(probabilities.row(i))).collect()
}

/// Fraction of queries for which the approximated attention distribution
/// and the exact one agree on the most-attended key.
///
/// # Panics
///
/// Panics if `exact_probabilities` has a different shape from the
/// reconstruction implied by `cta`'s cluster tables.
pub fn top1_agreement(cta: &CtaAttention, exact_probabilities: &Matrix) -> f64 {
    assert_eq!(
        (cta.query_compression.table.len(), cta.kv_compression.level1.table.len()),
        exact_probabilities.shape(),
        "shape mismatch between reconstruction and exact probabilities"
    );
    top1_agreement_with_keys(cta, &top1_keys(exact_probabilities))
}

/// [`top1_agreement`] against the exact keys. The approximated scores
/// follow paper eq. 6: query `i`'s row is `S̄[c₀(i), c₁(j)] + S̄[c₀(i),
/// k₁ + c₂(j)]` over keys `j`. Every query of one CT₀ cluster shares that
/// row, so its arg-max is read once per query cluster (`k₀ · n` sums)
/// rather than from the full `m × n` reconstruction, bit for bit the
/// same answer.
fn top1_agreement_with_keys(cta: &CtaAttention, exact_top1: &[usize]) -> f64 {
    let scores_bar = &cta.scores_bar;
    let ct0 = &cta.query_compression.table;
    let ct1 = &cta.kv_compression.level1.table;
    let ct2 = &cta.kv_compression.level2.table;
    let k1 = cta.k1();
    assert_eq!(ct0.cluster_count(), scores_bar.rows(), "CT₀ cluster count mismatch");
    assert_eq!(ct1.len(), ct2.len(), "CT₁ and CT₂ cover different token counts");
    assert_eq!(scores_bar.cols(), k1 + ct2.cluster_count(), "S̄ column count mismatch");
    assert_eq!(ct0.len(), exact_top1.len(), "one exact top-1 key per query");
    let mut scores = vec![0.0f32; ct1.len()];
    let cluster_top: Vec<usize> = (0..scores_bar.rows())
        .map(|c| {
            let row = scores_bar.row(c);
            for ((s, &x1), &x2) in scores.iter_mut().zip(ct1.indices()).zip(ct2.indices()) {
                *s = row[x1] + row[k1 + x2];
            }
            argmax(&scores)
        })
        .collect();
    let agree = exact_top1
        .iter()
        .enumerate()
        .filter(|&(i, &key)| cluster_top[ct0.cluster_of(i)] == key)
        .count();
    agree as f64 / exact_top1.len() as f64
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attention_exact, cta_forward, AttentionWeights, CtaConfig};
    use cta_tensor::standard_normal_matrix;

    #[test]
    fn perfect_fidelity_in_the_singleton_limit() {
        let x = standard_normal_matrix(3, 20, 8);
        let w = AttentionWeights::random(8, 4, 4);
        let cta = cta_forward(&x, &x, &w, &CtaConfig::new(6, 1e-5, 1e-5, 1e-5, 9));
        let exact = attention_exact(&x, &x, &w);
        let f = fidelity(&cta, &exact);
        assert!(f.output_relative_error < 1e-4);
        assert!(f.mean_output_cosine > 0.99999);
        assert_eq!(f.top1_agreement, 1.0);
    }

    #[test]
    fn fidelity_degrades_with_aggressive_compression() {
        let x = standard_normal_matrix(5, 32, 8);
        let w = AttentionWeights::random(8, 4, 6);
        let exact = attention_exact(&x, &x, &w);
        let fine =
            fidelity(&cta_forward(&x, &x, &w, &CtaConfig::new(6, 0.01, 0.01, 0.005, 7)), &exact);
        let coarse = fidelity(&cta_forward(&x, &x, &w, &CtaConfig::uniform(100.0, 7)), &exact);
        assert!(fine.output_relative_error <= coarse.output_relative_error);
        assert!(fine.mean_output_cosine >= coarse.mean_output_cosine - 1e-9);
    }

    #[test]
    fn top1_agreement_bounded() {
        let x = standard_normal_matrix(8, 16, 6);
        let w = AttentionWeights::random(6, 4, 2);
        let cta = cta_forward(&x, &x, &w, &CtaConfig::uniform(2.0, 3));
        let exact = attention_exact(&x, &x, &w);
        let a = top1_agreement(&cta, &exact.probabilities);
        assert!((0.0..=1.0).contains(&a));
    }

    /// The arg-max read off the full eq. 6 reconstruction, one row per
    /// query: the oracle of the per-cluster reading.
    fn top1_agreement_from_full_scores(cta: &CtaAttention, exact_probabilities: &Matrix) -> f64 {
        let approx_scores = crate::reconstruct_full_scores(
            &cta.scores_bar,
            &cta.query_compression.table,
            &cta.kv_compression.level1.table,
            &cta.kv_compression.level2.table,
            cta.k1(),
        );
        let m = approx_scores.rows();
        let agree = (0..m)
            .filter(|&i| argmax(approx_scores.row(i)) == argmax(exact_probabilities.row(i)))
            .count();
        agree as f64 / m as f64
    }

    #[test]
    fn top1_agreement_per_cluster_is_the_full_reconstruction_bitwise() {
        // Singleton clusters through heavy merging, square and not.
        for (seed, m, n, width) in [
            (1, 24, 24, 1e-5),
            (2, 40, 40, 0.5),
            (3, 33, 57, 2.0),
            (4, 64, 64, 8.0),
            (5, 9, 30, 100.0),
        ] {
            let q = standard_normal_matrix(seed, m, 8);
            let x = standard_normal_matrix(seed + 100, n, 8);
            let w = AttentionWeights::random(8, 4, seed);
            let cta = cta_forward(&q, &x, &w, &CtaConfig::uniform(width, seed));
            let exact = attention_exact(&q, &x, &w);
            assert_eq!(
                top1_agreement(&cta, &exact.probabilities).to_bits(),
                top1_agreement_from_full_scores(&cta, &exact.probabilities).to_bits(),
                "seed {seed}, width {width}"
            );
        }
    }

    #[test]
    fn argmax_picks_first_of_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
