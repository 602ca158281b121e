//! Reference (exact) scaled-dot-product attention (paper §II-A).

use cta_tensor::{softmax_rows, Matrix, MatrixRng};

/// The projection weights of one attention head: `W^Q`, `W^K`, `W^V`, each
/// `d_w × d` (token dimension × head dimension).
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionWeights {
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
}

impl AttentionWeights {
    /// Builds weights from explicit matrices.
    ///
    /// # Panics
    ///
    /// Panics if the three matrices do not share the same shape.
    pub fn new(wq: Matrix, wk: Matrix, wv: Matrix) -> Self {
        assert_eq!(wq.shape(), wk.shape(), "W^Q and W^K shapes differ");
        assert_eq!(wq.shape(), wv.shape(), "W^Q and W^V shapes differ");
        Self { wq, wk, wv }
    }

    /// Samples random weights with the usual `1/sqrt(d_w)` scale, as a
    /// stand-in for trained projections.
    pub fn random(token_dim: usize, head_dim: usize, seed: u64) -> Self {
        let mut rng = MatrixRng::new(seed);
        let std = 1.0 / (token_dim as f32).sqrt();
        Self {
            wq: rng.normal_matrix(token_dim, head_dim, 0.0, std),
            wk: rng.normal_matrix(token_dim, head_dim, 0.0, std),
            wv: rng.normal_matrix(token_dim, head_dim, 0.0, std),
        }
    }

    /// Token dimension `d_w` (input rows of each weight matrix).
    pub fn token_dim(&self) -> usize {
        self.wq.rows()
    }

    /// Head dimension `d` (output columns of each weight matrix).
    pub fn head_dim(&self) -> usize {
        self.wq.cols()
    }

    /// The query projection `W^Q`.
    pub fn wq(&self) -> &Matrix {
        &self.wq
    }

    /// The key projection `W^K`.
    pub fn wk(&self) -> &Matrix {
        &self.wk
    }

    /// The value projection `W^V`.
    pub fn wv(&self) -> &Matrix {
        &self.wv
    }
}

/// Everything exact attention computes on the way to its output; exposed so
/// tests and accuracy metrics can compare intermediates, not only outputs.
#[derive(Debug, Clone)]
pub struct ExactAttention {
    /// Projected queries, `m × d`.
    pub q: Matrix,
    /// Projected keys, `n × d`.
    pub k: Matrix,
    /// Projected values, `n × d`.
    pub v: Matrix,
    /// Scaled scores `QKᵀ/√d`, `m × n`.
    pub scores: Matrix,
    /// Row-wise softmax of the scores, `m × n`.
    pub probabilities: Matrix,
    /// Attention output `P·V`, `m × d`.
    pub output: Matrix,
}

/// Runs exact attention, keeping intermediates.
///
/// `queries` is the query-token matrix `X^Q` (`m × d_w`); `keys_values` is
/// the key/value-token matrix `X^KV` (`n × d_w`). For self-attention pass
/// the same matrix twice.
///
/// # Panics
///
/// Panics if the token dimensions do not match `weights.token_dim()`.
pub fn attention_exact(
    queries: &Matrix,
    keys_values: &Matrix,
    weights: &AttentionWeights,
) -> ExactAttention {
    assert_eq!(
        queries.cols(),
        weights.token_dim(),
        "query token dim {} != weight token dim {}",
        queries.cols(),
        weights.token_dim()
    );
    assert_eq!(
        keys_values.cols(),
        weights.token_dim(),
        "kv token dim {} != weight token dim {}",
        keys_values.cols(),
        weights.token_dim()
    );
    let q = queries.matmul(weights.wq());
    let k = keys_values.matmul(weights.wk());
    let v = keys_values.matmul(weights.wv());
    let scale = 1.0 / (weights.head_dim() as f32).sqrt();
    let mut scores = q.matmul_transpose_b(&k);
    for x in scores.as_mut_slice() {
        *x *= scale;
    }
    let probabilities = softmax_rows(&scores);
    let output = probabilities.matmul(&v);
    ExactAttention { q, k, v, scores, probabilities, output }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_tensor::standard_normal_matrix;

    #[test]
    fn output_shape_is_queries_by_head_dim() {
        let xq = standard_normal_matrix(1, 5, 8);
        let xkv = standard_normal_matrix(2, 7, 8);
        let w = AttentionWeights::random(8, 4, 3);
        let att = attention_exact(&xq, &xkv, &w);
        assert_eq!(att.output.shape(), (5, 4));
        assert_eq!(att.scores.shape(), (5, 7));
    }

    #[test]
    fn probabilities_rows_sum_to_one() {
        let x = standard_normal_matrix(4, 6, 8);
        let w = AttentionWeights::random(8, 4, 5);
        let att = attention_exact(&x, &x, &w);
        for r in 0..att.probabilities.rows() {
            let s: f32 = att.probabilities.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn single_key_attention_returns_that_value() {
        // With one key/value pair the softmax is 1 and O = V.
        let xq = standard_normal_matrix(6, 3, 8);
        let xkv = standard_normal_matrix(7, 1, 8);
        let w = AttentionWeights::random(8, 4, 9);
        let att = attention_exact(&xq, &xkv, &w);
        for r in 0..att.output.rows() {
            assert_eq!(att.output.row(r), att.v.row(0));
        }
    }

    #[test]
    fn identical_queries_produce_identical_outputs() {
        let row = standard_normal_matrix(10, 1, 8);
        let xq = row.gather_rows(&[0, 0, 0]);
        let xkv = standard_normal_matrix(11, 5, 8);
        let w = AttentionWeights::random(8, 4, 12);
        let att = attention_exact(&xq, &xkv, &w);
        assert_eq!(att.output.row(0), att.output.row(1));
        assert_eq!(att.output.row(0), att.output.row(2));
    }

    #[test]
    fn attention_output_is_convex_combination_of_values() {
        // Each output coordinate lies within the min/max of the value rows.
        let x = standard_normal_matrix(13, 8, 6);
        let w = AttentionWeights::random(6, 3, 14);
        let att = attention_exact(&x, &x, &w);
        for j in 0..att.v.cols() {
            let vmin = (0..att.v.rows()).map(|r| att.v[(r, j)]).fold(f32::INFINITY, f32::min);
            let vmax = (0..att.v.rows()).map(|r| att.v[(r, j)]).fold(f32::NEG_INFINITY, f32::max);
            for i in 0..att.output.rows() {
                let o = att.output[(i, j)];
                assert!(o >= vmin - 1e-5 && o <= vmax + 1e-5, "output {o} outside [{vmin},{vmax}]");
            }
        }
    }

    #[test]
    #[should_panic(expected = "token dim")]
    fn dimension_mismatch_panics() {
        let xq = standard_normal_matrix(1, 2, 4);
        let w = AttentionWeights::random(8, 4, 3);
        let _ = attention_exact(&xq, &xq, &w);
    }

    #[test]
    fn weights_accessors_expose_dims() {
        let w = AttentionWeights::random(16, 4, 1);
        assert_eq!(w.token_dim(), 16);
        assert_eq!(w.head_dim(), 4);
        assert_eq!(w.wq().shape(), (16, 4));
    }
}
