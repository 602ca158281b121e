//! Hardware-faithful fixed-point CTA forward pass (paper §IV-C number
//! quantization).

use cta_fixed::{formats, ExpLut, QFormat, QuantizedMatrix, ReciprocalLut};
use cta_lsh::{aggregate_centroids, ClusterTree, Compression, LshFamily, TwoLevelCompression};
use cta_tensor::Matrix;

use crate::aggregate::aggregate_probabilities_with;
use crate::scheme::sample_families;
use crate::{AttentionWeights, CtaAttention, CtaConfig};

/// The number formats and LUT sizes of the fixed-point datapath.
///
/// Defaults reproduce the paper's scheme: 13-bit Q6.7 tokens, 12-bit
/// weights (Q3.9 for LSH parameters, Q2.10 for linear weights), 12-bit
/// Q6.6 centroids and compressed Q/K/V, plus the shared PAG exponent LUT
/// and the CAVG reciprocal LUT.
#[derive(Debug, Clone)]
pub struct QuantizationConfig {
    /// Token format (paper: Q6.7, 13 bits).
    pub token: QFormat,
    /// LSH parameter format (paper: Q3.9, 12 bits).
    pub lsh_param: QFormat,
    /// Linear weight format (paper: 12 bits, minimal integer bits).
    pub weight: QFormat,
    /// Centroid / compressed-QKV format (paper: Q6.6, 12 bits).
    pub centroid: QFormat,
    /// Score format at the PAG interface.
    pub score: QFormat,
    /// Entries of the shared PAG exponent LUT.
    pub exp_lut_entries: usize,
    /// Lower edge of the exponent LUT domain.
    pub exp_lut_min: f32,
    /// Maximum cluster population the CAVG reciprocal LUT covers (the
    /// maximum sequence length).
    pub reciprocal_lut_max: usize,
}

impl Default for QuantizationConfig {
    fn default() -> Self {
        Self {
            token: formats::TOKEN,
            lsh_param: formats::LSH_PARAM,
            weight: formats::LINEAR_WEIGHT,
            centroid: formats::CENTROID,
            score: formats::SCORE,
            exp_lut_entries: 1024,
            exp_lut_min: -16.0,
            reciprocal_lut_max: 512,
        }
    }
}

/// Runs the CTA scheme on the fixed-point datapath.
///
/// Differences from [`cta_forward`](crate::cta_forward), mirroring the
/// hardware:
///
/// * tokens, LSH parameters, weights and centroids are quantized to their
///   paper formats before use;
/// * matrix products are integer products with wide accumulators,
///   requantised at write-back ([`QuantizedMatrix::matmul`]);
/// * centroid averaging multiplies by a [`ReciprocalLut`] entry instead of
///   dividing;
/// * the probability aggregation exponent comes from the shared
///   [`ExpLut`].
///
/// Words stay integer from entry to the score write-back, as in the
/// accelerator: the tokens are quantized once (self-attention, where
/// `queries` and `keys_values` are the same matrix, shares one copy),
/// the residual subtracts centroid words from token words, and the
/// linears' outputs feed the score product directly. When `√d` is a
/// power of two (`d = 4^m`, e.g. the paper's `d = 64`) the `1/√d` scale
/// is a right shift of the wide product; otherwise it is an f32
/// multiply between the wide write-back and the score write-back.
/// `cta_sim::run_quantized_datapath` spells the same head on the hardware
/// block models, dequantizing to f32 between stages; the two agree bit
/// for bit when every format is at most 24 bits wide, so that every raw
/// word is exact in f32.
///
/// The returned artifacts carry *dequantized* matrices so every accuracy
/// metric applies unchanged.
///
/// # Panics
///
/// Panics under the same conditions as [`cta_forward`](crate::cta_forward).
/// The reciprocal LUT covers `max(reciprocal_lut_max, rows)` counts, so
/// no cluster population can overflow it.
pub fn cta_forward_quantized(
    queries: &Matrix,
    keys_values: &Matrix,
    weights: &AttentionWeights,
    config: &CtaConfig,
    qcfg: &QuantizationConfig,
) -> CtaAttention {
    assert!(queries.rows() > 0 && keys_values.rows() > 0, "CTA requires non-empty token matrices");
    assert_eq!(queries.cols(), weights.token_dim(), "query token dim mismatch");
    assert_eq!(keys_values.cols(), weights.token_dim(), "kv token dim mismatch");

    let recip =
        ReciprocalLut::new(qcfg.reciprocal_lut_max.max(queries.rows()).max(keys_values.rows()));
    let exp_lut = ExpLut::new(qcfg.exp_lut_entries, qcfg.exp_lut_min);

    // Quantize the inputs once as they enter token/weight memory. The
    // LSH units and the centroid accumulators read the token words'
    // values, which are exact in f32.
    let xkv_words = QuantizedMatrix::quantize(keys_values, qcfg.token);
    let xkv = xkv_words.dequantize();
    let xq_cross;
    let xq = if std::ptr::eq(queries, keys_values) {
        &xkv
    } else {
        xq_cross = QuantizedMatrix::quantize(queries, qcfg.token).dequantize();
        &xq_cross
    };
    let [f0, f1, f2] = sample_families(config, weights.token_dim());
    let f0 = quantize_family(&f0, qcfg.lsh_param);
    let f1 = quantize_family(&f1, qcfg.lsh_param);
    let f2 = quantize_family(&f2, qcfg.lsh_param);

    // Stage 1: compression on the fixed-point datapath.
    let (query_compression, c0) = compress_quantized(xq, &f0, qcfg, &recip);
    let (level1, c1) = compress_quantized(&xkv, &f1, qcfg, &recip);
    // Residual tokens: saturating subtraction in token format (the adder
    // column on the SA's left edge) of each token's level-1 centroid.
    let residual = xkv_words.sub(&c1.convert(qcfg.token).gather_rows(level1.table.indices()));
    let (level2, c2) = compress_quantized(&residual.dequantize(), &f2, qcfg, &recip);
    let kv_compression = TwoLevelCompression { level1, level2 };

    // Stage 2: linears as integer products into the centroid format.
    let c_cat = c1.vstack(&c2);
    let linear = |c: &QuantizedMatrix, w: &Matrix| {
        c.matmul(&QuantizedMatrix::quantize(w, qcfg.weight), qcfg.centroid)
    };
    let q_words = linear(&c0, weights.wq());
    let k_words = linear(&c_cat, weights.wk());
    let v_words = linear(&c_cat, weights.wv());

    // Stage 3: integer score product with a wide accumulator view (24-bit
    // — PE accumulators are wider than the memory word), then the 1/√d
    // scale and requantisation to the PAG-interface score format, then
    // the PPE max-subtraction.
    let wide = q_words.matmul_transpose_b(&k_words, QFormat::new(24, qcfg.score.frac_bits()));
    let mut scores_bar = scale_scores(&wide, weights.head_dim(), qcfg.score).dequantize();
    let k1 = kv_compression.k1();
    for r in 0..scores_bar.rows() {
        let row = scores_bar.row_mut(r);
        let max = row[..k1].iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        for x in &mut row[k1..] {
            *x -= max;
        }
    }
    let (q_bar, k_bar, v_bar) = (q_words.dequantize(), k_words.dequantize(), v_words.dequantize());

    // Stage 4: probability aggregation through the exponent LUT.
    let ap = aggregate_probabilities_with(
        &scores_bar,
        &kv_compression.level1.table,
        &kv_compression.level2.table,
        k1,
        |x| exp_lut.lookup(x),
    );

    // Stage 5: output calculation. The Ō accumulation lives in the PEs'
    // wide result registers; only the *divided* outputs are written back
    // to 12-bit result memory, so quantisation applies after the PPE's
    // softmax-denominator division.
    let output_bar = ap.matmul(&v_bar);
    let m = query_compression.table.len();
    let denominators: Vec<f32> =
        (0..ap.rows()).map(|c| ap.row(c).iter().sum::<f32>() / 2.0).collect();
    let mut normalized = Matrix::zeros(ap.rows(), v_bar.cols());
    for (c, &den) in denominators.iter().enumerate() {
        for (o, &x) in normalized.row_mut(c).iter_mut().zip(output_bar.row(c)) {
            *o = x / den;
        }
    }
    let normalized = QuantizedMatrix::quantize(&normalized, qcfg.centroid).dequantize();
    let output = normalized.gather_rows(query_compression.table.indices());
    assert_eq!(output.rows(), m);

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

/// Applies the `1/√d` score scale to the wide product and writes it back
/// in the `score` format.
///
/// For `d = 4^m` the scale is exactly `2^-m`, so it folds into the
/// write-back as an `m`-bit right shift. The shift must start from the
/// *rounded* wide words, not the raw product: the hardware rounds into
/// the wide accumulator view first and into the score format second,
/// and a product just below a score-format tie rounds onto the tie in
/// the wide view, then away from zero — one rounding from the product
/// would round it down. Any other `d` scales in f32, where `1/√d` is
/// inexact.
fn scale_scores(wide: &QuantizedMatrix, head_dim: usize, score: QFormat) -> QuantizedMatrix {
    let log2_d = head_dim.trailing_zeros();
    if head_dim.is_power_of_two() && log2_d.is_multiple_of(2) {
        wide.convert_shifted(log2_d / 2, score)
    } else {
        let scale = 1.0 / (head_dim as f32).sqrt();
        QuantizedMatrix::quantize(&wide.dequantize().scale(scale), score)
    }
}

/// Quantizes a sampled LSH family's direction matrix and biases to the
/// hardware parameter format.
fn quantize_family(family: &LshFamily, format: QFormat) -> LshFamily {
    let a = QuantizedMatrix::quantize(family.directions(), format).dequantize();
    let b = family.biases().iter().map(|&x| format.round_trip(x)).collect();
    LshFamily::from_parts(a, b, family.bucket_width())
}

/// One level of compression on quantized tokens: hash, cluster-tree
/// assignment, centroid accumulation, reciprocal-LUT averaging, centroid
/// quantisation. Returns the compression (dequantized centroids) and the
/// centroid words.
fn compress_quantized(
    tokens: &Matrix,
    family: &LshFamily,
    qcfg: &QuantizationConfig,
    recip: &ReciprocalLut,
) -> (Compression, QuantizedMatrix) {
    let codes = family.hash_matrix(tokens);
    let mut tree = ClusterTree::new(family.hash_length());
    let table = tree.assign_all(&codes);
    // Fig. 4(b) with CAVG's multiply-by-reciprocal: recompute the average
    // as sum * LUT(count), then quantise to the centroid format.
    let cents = aggregate_centroids(tokens, &table);
    let mut avg = Matrix::zeros(cents.matrix.rows(), cents.matrix.cols());
    for c in 0..cents.matrix.rows() {
        // aggregate_centroids already divided; undo to the raw sum and
        // apply the LUT reciprocal so rounding matches hardware.
        let count = cents.counts[c];
        let r = recip.lookup(count);
        for (o, &mean) in avg.row_mut(c).iter_mut().zip(cents.matrix.row(c)) {
            *o = (mean * count as f32) * r;
        }
    }
    let words = QuantizedMatrix::quantize(&avg, qcfg.centroid);
    (Compression { centroids: words.dequantize(), counts: cents.counts, table }, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attention_exact, cta_forward};
    use cta_tensor::{relative_error, standard_normal_matrix};

    fn setup(seed: u64, n: usize, dw: usize, d: usize) -> (Matrix, AttentionWeights) {
        (standard_normal_matrix(seed, n, dw), AttentionWeights::random(dw, d, seed + 1))
    }

    #[test]
    fn quantized_path_close_to_float_path() {
        let (x, w) = setup(11, 32, 8, 4);
        let cfg = CtaConfig::uniform(2.0, 5);
        let float = cta_forward(&x, &x, &w, &cfg);
        let fixed = cta_forward_quantized(&x, &x, &w, &cfg, &QuantizationConfig::default());
        // The paper reports <0.1% accuracy loss from quantisation; the raw
        // output perturbation stays small.
        let err = relative_error(&fixed.output, &float.output);
        assert!(err < 0.05, "quantisation-induced error {err}");
    }

    #[test]
    fn quantized_path_close_to_exact_attention_in_singleton_limit() {
        let (x, w) = setup(13, 16, 8, 4);
        let cfg = CtaConfig::new(6, 1e-4, 1e-4, 1e-4, 3);
        let fixed = cta_forward_quantized(&x, &x, &w, &cfg, &QuantizationConfig::default());
        let exact = attention_exact(&x, &x, &w);
        let err = relative_error(&fixed.output, &exact.output);
        assert!(err < 0.05, "singleton-limit fixed-point error {err}");
    }

    #[test]
    fn coarser_formats_hurt_more() {
        let (x, w) = setup(17, 24, 8, 4);
        let cfg = CtaConfig::uniform(1.5, 9);
        let float = cta_forward(&x, &x, &w, &cfg);
        let fine = cta_forward_quantized(&x, &x, &w, &cfg, &QuantizationConfig::default());
        let coarse_cfg = QuantizationConfig {
            token: QFormat::new(7, 3),
            centroid: QFormat::new(7, 3),
            weight: QFormat::new(7, 5),
            ..QuantizationConfig::default()
        };
        let coarse = cta_forward_quantized(&x, &x, &w, &cfg, &coarse_cfg);
        let fine_err = relative_error(&fine.output, &float.output);
        let coarse_err = relative_error(&coarse.output, &float.output);
        assert!(fine_err < coarse_err, "fine {fine_err} vs coarse {coarse_err}");
    }

    #[test]
    fn quantized_outputs_are_finite_and_shaped() {
        let (x, w) = setup(19, 20, 6, 4);
        let out = cta_forward_quantized(
            &x,
            &x,
            &w,
            &CtaConfig::uniform(1.0, 2),
            &QuantizationConfig::default(),
        );
        assert_eq!(out.output.shape(), (20, 4));
        assert!(out.output.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_across_runs() {
        let (x, w) = setup(23, 12, 6, 4);
        let cfg = CtaConfig::uniform(1.0, 8);
        let a = cta_forward_quantized(&x, &x, &w, &cfg, &QuantizationConfig::default());
        let b = cta_forward_quantized(&x, &x, &w, &cfg, &QuantizationConfig::default());
        assert_eq!(a.output, b.output);
    }
}
