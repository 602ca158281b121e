//! Hardware-faithful fixed-point CTA forward pass (paper §IV-C number
//! quantization).

use cta_fixed::{formats, ExpLut, QFormat, QuantizedMatrix, ReciprocalLut};
use cta_lsh::{
    aggregate_centroids, cluster_tokens, ClusterTable, Compression, LshFamily, TwoLevelCompression,
};
use cta_tensor::Matrix;

use crate::aggregate::aggregate_strips;
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

    // Stages 3-4: score product, score write-back with the PPE
    // max-subtraction, probability aggregation through the exponent LUT.
    let (ct1, ct2) = (&kv_compression.level1.table, &kv_compression.level2.table);
    let (scores_bar, ap) =
        scores_and_probabilities(&q_words, &k_words, ct1, ct2, weights.head_dim(), qcfg);
    let (q_bar, k_bar, v_bar) = (q_words.dequantize(), k_words.dequantize(), v_words.dequantize());

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

/// Stages 3-4 of the fixed-point head: the integer score product into a
/// 24-bit wide accumulator view (PE accumulators are wider than the memory
/// word), one write-back pass to `S̄`, and the PAG aggregation over the
/// cluster tables `CT₁`, `CT₂`. Returns `(S̄, AP)`.
///
/// **The write-back pass.** Each row of wide words goes to the score
/// format and has the PPE max-subtraction applied in one pass. For
/// `d = 4^m` the `1/√d` scale is exactly `2^-m` and folds into the
/// write-back as an `m`-bit shift-round of the *rounded* wide words, not
/// of the raw product: the hardware rounds into the wide view first and
/// into the score format second, and a product just below a score-format
/// tie rounds onto the tie in the wide view, then away from zero — one
/// rounding from the product would round it down. Any other `d` scales
/// in f32, where `1/√d` is inexact. The row max of the level-1 block is
/// taken over the words, and `S̄` holds `word × 2^-f` minus
/// `max × 2^-f` on the level-2 block: each term is the word's value
/// rounded once to f32 (exact up to 24 bits), so this is bit for bit the
/// dequantize-then-subtract spelling, and for scores of at most 24 bits
/// it is the integer difference times `2^-f`, exact.
///
/// **The exponent.** Every entry of `S̄`, and every f32 sum of two of
/// them, lies on the `2^-f` grid, so the PAG reads the exponent through
/// [`ExpLut::indexed_by`]'s word table, which returns
/// [`ExpLut::lookup`]'s bits there (see [`cta_fixed::ScoreExpLut`]). A
/// score format whose table would pass [`ExpLut::MAX_WORD_ENTRIES`]
/// keeps `lookup`.
fn scores_and_probabilities(
    q_words: &QuantizedMatrix,
    k_words: &QuantizedMatrix,
    ct1: &ClusterTable,
    ct2: &ClusterTable,
    head_dim: usize,
    qcfg: &QuantizationConfig,
) -> (Matrix, Matrix) {
    let score = qcfg.score;
    let wide = q_words.matmul_transpose_b(k_words, QFormat::new(24, score.frac_bits()));
    let log2_d = head_dim.trailing_zeros();
    let shift = (head_dim.is_power_of_two() && log2_d.is_multiple_of(2)).then_some(log2_d / 2);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let resolution = score.resolution();
    let k1 = ct1.cluster_count();
    let mut scores_bar = Matrix::zeros(wide.rows(), wide.cols());
    let mut words = vec![0i32; wide.cols()];
    for r in 0..wide.rows() {
        match shift {
            Some(m) => wide.convert_shifted_row(r, m, score, &mut words),
            None => {
                let row = &wide.raw()[r * wide.cols()..(r + 1) * wide.cols()];
                for (w, &x) in words.iter_mut().zip(row) {
                    *w = score.quantize(wide.format().dequantize(x) * scale) as i32;
                }
            }
        }
        let max = words[..k1].iter().max().map_or(f32::NEG_INFINITY, |&m| m as f32 * resolution);
        let (level1, level2) = scores_bar.row_mut(r).split_at_mut(k1);
        for (o, &w) in level1.iter_mut().zip(&words) {
            *o = w as f32 * resolution;
        }
        for (o, &w) in level2.iter_mut().zip(&words[k1..]) {
            *o = w as f32 * resolution - max;
        }
    }

    let exp_lut = ExpLut::new(qcfg.exp_lut_entries, qcfg.exp_lut_min);
    let ap = match exp_lut.indexed_by(score) {
        Some(table) => aggregate_strips(&scores_bar, ct1, ct2, k1, |xs| table.lookup_in_place(xs)),
        None => aggregate_strips(&scores_bar, ct1, ct2, k1, |xs| {
            xs.iter_mut().for_each(|x| *x = exp_lut.lookup(*x))
        }),
    };
    (scores_bar, ap)
}

/// Quantizes a sampled LSH family's direction matrix and biases to the
/// hardware parameter format.
fn quantize_family(family: &LshFamily, format: QFormat) -> LshFamily {
    let a = QuantizedMatrix::quantize(family.directions(), format).dequantize();
    let b = family.biases().iter().map(|&x| format.round_trip(x)).collect();
    LshFamily::from_parts(a, b, family.bucket_width())
}

/// One level of compression on quantized tokens: hash and cluster
/// ([`cluster_tokens`]), centroid accumulation, reciprocal-LUT
/// averaging, centroid quantisation. Returns the compression
/// (dequantized centroids) and the centroid words.
fn compress_quantized(
    tokens: &Matrix,
    family: &LshFamily,
    qcfg: &QuantizationConfig,
    recip: &ReciprocalLut,
) -> (Compression, QuantizedMatrix) {
    let table = cluster_tokens(tokens, family);
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

/// Stages 3-4 as they were spelled before the one-pass write-back and
/// the word-indexed exponent table: the test oracle of
/// [`scores_and_probabilities`].
#[cfg(test)]
fn scores_and_probabilities_reference(
    q_words: &QuantizedMatrix,
    k_words: &QuantizedMatrix,
    ct1: &ClusterTable,
    ct2: &ClusterTable,
    head_dim: usize,
    qcfg: &QuantizationConfig,
) -> (Matrix, Matrix) {
    let exp_lut = ExpLut::new(qcfg.exp_lut_entries, qcfg.exp_lut_min);
    let wide = q_words.matmul_transpose_b(k_words, QFormat::new(24, qcfg.score.frac_bits()));
    let log2_d = head_dim.trailing_zeros();
    let scores = if head_dim.is_power_of_two() && log2_d.is_multiple_of(2) {
        wide.convert_shifted(log2_d / 2, qcfg.score)
    } else {
        let scale = 1.0 / (head_dim as f32).sqrt();
        QuantizedMatrix::quantize(&wide.dequantize().scale(scale), qcfg.score)
    };
    let mut scores_bar = scores.dequantize();
    let k1 = ct1.cluster_count();
    for r in 0..scores_bar.rows() {
        let row = scores_bar.row_mut(r);
        let max = row[..k1].iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        for x in &mut row[k1..] {
            *x -= max;
        }
    }
    let ap = crate::aggregate::aggregate_probabilities_reference(&scores_bar, ct1, ct2, k1, |x| {
        exp_lut.lookup(x)
    });
    (scores_bar, ap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attention_exact, cta_forward};
    use cta_tensor::{relative_error, standard_normal_matrix, MatrixRng};
    use proptest::prelude::*;

    /// A dense `n`-token table over `k` clusters.
    fn table(rng: &mut MatrixRng, n: usize, k: usize) -> ClusterTable {
        let indices = (0..n).map(|j| if j < k { j } else { rng.index(k) }).collect();
        ClusterTable::new(indices, k)
    }

    /// `rows × d` words uniform over `±2^bits`, clamped to `format`.
    fn words(
        rng: &mut MatrixRng,
        rows: usize,
        d: usize,
        bits: u32,
        format: QFormat,
    ) -> QuantizedMatrix {
        let span = 1usize << (bits + 1);
        let raw = (0..rows * d)
            .map(|_| {
                (rng.index(span + 1) as i64 - (1i64 << bits))
                    .clamp(format.min_raw(), format.max_raw())
            })
            .collect();
        QuantizedMatrix::from_raw(rows, d, raw, format)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The score formats the pin runs: the paper's Q8.8, a coarse, a
    /// fine and a 24-bit one, and Q16.16, whose table over `[-16, 0]`
    /// would pass the 64 Ki cap and keeps `ExpLut::lookup`.
    const SCORE_FORMATS: [QFormat; 5] = [
        formats::SCORE,
        QFormat::new(12, 6),
        QFormat::new(20, 10),
        QFormat::new(24, 12),
        QFormat::new(32, 16),
    ];

    #[test]
    fn the_pinned_score_formats_straddle_the_table_cap() {
        let lut = ExpLut::new(1024, -16.0);
        let tabled: Vec<bool> =
            SCORE_FORMATS.iter().map(|&f| lut.indexed_by(f).is_some()).collect();
        assert_eq!(tabled, [true, true, true, false, false]);
    }

    #[test]
    fn pinned_stages_reach_both_lut_clamps() {
        // Full-range words at the paper's d = 64: the PAG sums land below
        // the LUT domain and at or above 0 in every pinned format, and
        // both spellings agree on every bit there.
        let mut rng = MatrixRng::new(7);
        let (k0, k1, k2, n, d) = (12, 9, 5, 40, 64);
        let (ct1, ct2) = (table(&mut rng, n, k1), table(&mut rng, n, k2));
        let q = words(&mut rng, k0, d, 11, formats::CENTROID);
        let k = words(&mut rng, k1 + k2, d, 11, formats::CENTROID);
        for score in SCORE_FORMATS {
            for exp_lut_min in [-16.0, -15.99] {
                let qcfg =
                    QuantizationConfig { score, exp_lut_min, ..QuantizationConfig::default() };
                let (s, ap) = scores_and_probabilities(&q, &k, &ct1, &ct2, d, &qcfg);
                let sums: Vec<f32> = (0..k0)
                    .flat_map(|i| {
                        let row = s.row(i);
                        (0..n).map(|j| row[ct1.cluster_of(j)] + row[k1 + ct2.cluster_of(j)])
                    })
                    .collect();
                assert!(sums.iter().any(|&x| x >= 0.0), "{score}: no sum at or above 0");
                assert!(sums.iter().any(|&x| x < exp_lut_min), "{score}: no sum below the domain");
                let (s_ref, ap_ref) =
                    scores_and_probabilities_reference(&q, &k, &ct1, &ct2, d, &qcfg);
                assert_eq!(bits(&s), bits(&s_ref), "{score}");
                assert_eq!(bits(&ap), bits(&ap_ref), "{score}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one-pass write-back and the word-indexed exponent against
        /// the old spelling, bit for bit: `d` from 4 to 64 (both scale
        /// branches), every pinned score format, on- and off-grid LUT
        /// edges, narrow words (scores inside the LUT domain) and
        /// full-range words (saturated scores, sums far below the domain
        /// and, in the un-subtracted level-1 block, at or above 0).
        #[test]
        fn scores_and_probabilities_match_the_reference_bitwise(
            d in (2u32..7).prop_map(|log2| 1usize << log2),
            k0 in 1usize..20,
            k1 in 1usize..12,
            k2 in 1usize..8,
            extra in 0usize..24,
            word_bits in (0usize..3).prop_map(|i| [3u32, 6, 11][i]),
            score in 0usize..SCORE_FORMATS.len(),
            lut in (0usize..3).prop_map(|i| [(1024usize, -16.0f32), (1024, -15.99), (777, -4.0)][i]),
            seed in 0u64..1_000_000,
        ) {
            let mut rng = MatrixRng::new(seed);
            let n = k1.max(k2) + extra;
            let (ct1, ct2) = (table(&mut rng, n, k1), table(&mut rng, n, k2));
            let q = words(&mut rng, k0, d, word_bits, formats::CENTROID);
            let k = words(&mut rng, k1 + k2, d, word_bits, formats::CENTROID);
            let qcfg = QuantizationConfig {
                score: SCORE_FORMATS[score],
                exp_lut_entries: lut.0,
                exp_lut_min: lut.1,
                ..QuantizationConfig::default()
            };
            let (s, ap) = scores_and_probabilities(&q, &k, &ct1, &ct2, d, &qcfg);
            let (s_ref, ap_ref) = scores_and_probabilities_reference(&q, &k, &ct1, &ct2, d, &qcfg);
            prop_assert_eq!(bits(&s), bits(&s_ref));
            prop_assert_eq!(bits(&ap), bits(&ap_ref));
        }
    }

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
