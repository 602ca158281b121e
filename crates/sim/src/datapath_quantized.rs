//! Fixed-point functional datapath: the full head through the hardware
//! block models *with the paper's number formats* (§IV-C).
//!
//! [`run_functional_datapath`](crate::run_functional_datapath) validates
//! the dataflow in f32; this variant additionally models the datapath
//! widths — quantized tokens/weights/centroids, integer products with
//! wide accumulators, the CAVG reciprocal LUT and the PAG exponent LUT —
//! and is checked bit for bit against
//! [`cta_forward_quantized`](cta_attention::cta_forward_quantized), the
//! algorithm-level fixed-point head. The two spell the stages
//! differently: this model dequantizes to f32 between stages and
//! quantizes again, while `cta_forward_quantized` keeps integer words
//! from entry to the score write-back, so this model is its test oracle.

use cta_attention::{sample_families, AttentionWeights, CtaConfig, QuantizationConfig};
use cta_fixed::{ExpLut, QFormat, QuantizedMatrix, ReciprocalLut};
use cta_lsh::{Compression, HashCodes, LshFamily, TwoLevelCompression};
use cta_tensor::Matrix;

use crate::{simulate_cacc, simulate_cavg, simulate_cim, simulate_pag, HwConfig};

/// Result of the fixed-point functional head execution.
#[derive(Debug, Clone)]
pub struct QuantizedDatapathRun {
    /// Final per-query output (`m × d`), in dequantized form.
    pub output: Matrix,
    /// Measured cluster counts `(k₀, k₁, k₂)`.
    pub cluster_counts: (usize, usize, usize),
    /// PAG cycles of the run.
    pub pag_cycles: u64,
}

/// Runs one head through the functional blocks on the fixed-point
/// datapath.
///
/// # Panics
///
/// Panics if inputs are empty, dimensions mismatch, or the head does not
/// fit the hardware.
pub fn run_quantized_datapath(
    queries: &Matrix,
    keys_values: &Matrix,
    weights: &AttentionWeights,
    config: &CtaConfig,
    qcfg: &QuantizationConfig,
    hw: &HwConfig,
) -> QuantizedDatapathRun {
    assert!(queries.rows() > 0 && keys_values.rows() > 0, "empty token matrices");
    let d = weights.token_dim();
    assert_eq!(weights.head_dim(), d, "this hardware assumes token dim == head dim");
    assert!(d <= hw.sa_height, "token dim {d} exceeds SA height {}", hw.sa_height);

    let recip =
        ReciprocalLut::new(qcfg.reciprocal_lut_max.max(queries.rows()).max(keys_values.rows()));
    let exp_lut = ExpLut::new(qcfg.exp_lut_entries, qcfg.exp_lut_min);

    // Token/weight memory contents (quantized on entry).
    let xq = QuantizedMatrix::quantize(queries, qcfg.token).dequantize();
    let xkv = QuantizedMatrix::quantize(keys_values, qcfg.token).dequantize();
    let [f0, f1, f2] = sample_families(config, d);
    let quantize_family = |f: &LshFamily| {
        LshFamily::from_parts(
            QuantizedMatrix::quantize(f.directions(), qcfg.lsh_param).dequantize(),
            f.biases().iter().map(|&b| qcfg.lsh_param.round_trip(b)).collect(),
            f.bucket_width(),
        )
    };
    let f0 = quantize_family(&f0);
    let f1 = quantize_family(&f1);
    let f2 = quantize_family(&f2);

    // One compression level on the blocks: SA hashing (exact integer
    // products — f32 on quantized values is exact at these widths), CIM,
    // CACC with exact accumulation, CAVG via the reciprocal LUT, centroid
    // quantisation on write-back.
    let level = |tokens: &Matrix, family: &LshFamily| -> Compression {
        let codes: HashCodes = family.hash_matrix(tokens);
        let cim = simulate_cim(&codes);
        let acc = simulate_cacc(tokens, &cim.table);
        let avg = simulate_cavg(&acc.sums, &acc.counts, &recip);
        let centroids = QuantizedMatrix::quantize(&avg.centroids, qcfg.centroid).dequantize();
        Compression { centroids, counts: acc.counts, table: cim.table }
    };

    let query_compression = level(&xq, &f0);
    let level1 = level(&xkv, &f1);
    let residual = QuantizedMatrix::quantize(&xkv, qcfg.token)
        .sub(&QuantizedMatrix::quantize(
            &level1.centroids.gather_rows(level1.table.indices()),
            qcfg.token,
        ))
        .dequantize();
    let level2 = level(&residual, &f2);
    let kv = TwoLevelCompression { level1, level2 };
    let k1 = kv.k1();

    // Linears: integer products on the SA.
    let c_cat = kv.concatenated_centroids();
    let qw = |m: &Matrix| QuantizedMatrix::quantize(m, qcfg.weight);
    let qc = |m: &Matrix| QuantizedMatrix::quantize(m, qcfg.centroid);
    let q_bar =
        qc(&query_compression.centroids).matmul(&qw(weights.wq()), qcfg.centroid).dequantize();
    let k_bar = qc(&c_cat).matmul(&qw(weights.wk()), qcfg.centroid).dequantize();
    let v_bar = qc(&c_cat).matmul(&qw(weights.wv()), qcfg.centroid).dequantize();

    // Scores: wide accumulator, power-of-two scale, score-format
    // write-back, PPE max subtraction.
    let wide = QFormat::new(24, qcfg.score.frac_bits());
    let scale = 1.0 / (d as f32).sqrt();
    // Q̄ · K̄ᵀ without materialising the transpose: quantization is
    // element-wise, so quantize(K̄)ᵀ ≡ quantize(K̄ᵀ) and the integer
    // product is bit-identical to the old transpose-then-multiply.
    let mut scores_bar = QuantizedMatrix::quantize(
        &qc(&q_bar).matmul_transpose_b(&qc(&k_bar), wide).dequantize().scale(scale),
        qcfg.score,
    )
    .dequantize();
    for r in 0..scores_bar.rows() {
        let row = scores_bar.row_mut(r);
        let max = row[..k1].iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        for x in &mut row[k1..] {
            *x -= max;
        }
    }

    // PAG with the LUT exponent.
    let pag = simulate_pag(
        &scores_bar,
        &kv.level1.table,
        &kv.level2.table,
        k1,
        hw.pag_tiles,
        hw.pag_iters_per_tile,
        |x| exp_lut.lookup(x),
    );

    // Output phase: wide result registers, division in the PPE, quantized
    // write-back of the normalised rows.
    let output_bar = pag.ap.matmul(&v_bar);
    let mut normalized = Matrix::zeros(pag.ap.rows(), d);
    for c in 0..pag.ap.rows() {
        let den: f32 = pag.ap.row(c).iter().sum::<f32>() / 2.0;
        for (o, &x) in normalized.row_mut(c).iter_mut().zip(output_bar.row(c)) {
            *o = x / den;
        }
    }
    let normalized = QuantizedMatrix::quantize(&normalized, qcfg.centroid).dequantize();
    let output = normalized.gather_rows(query_compression.table.indices());

    QuantizedDatapathRun {
        output,
        cluster_counts: (query_compression.k(), kv.k1(), kv.k2()),
        pag_cycles: pag.cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cta_attention::cta_forward_quantized;
    use cta_tensor::{relative_error, standard_normal_matrix};
    use proptest::prelude::*;

    fn hw() -> HwConfig {
        HwConfig { sa_height: 8, ..HwConfig::paper() }
    }

    /// Output bits and cluster counts of the datapath against
    /// `cta_forward_quantized` on the same inputs.
    fn assert_bitwise_match(
        queries: &Matrix,
        keys_values: &Matrix,
        w: &AttentionWeights,
        cfg: &CtaConfig,
        qcfg: &QuantizationConfig,
    ) {
        let hw = HwConfig::paper();
        let dp = run_quantized_datapath(queries, keys_values, w, cfg, qcfg, &hw);
        let sw = cta_forward_quantized(queries, keys_values, w, cfg, qcfg);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(dp.output.shape(), sw.output.shape());
        assert_eq!(bits(&dp.output), bits(&sw.output));
        assert_eq!(dp.cluster_counts, (sw.k0(), sw.k1(), sw.k2()));
    }

    /// The paper's formats and the two coarse schemes `ablation_quantization`
    /// reports (10-bit and 8-bit tokens).
    fn quantization_configs() -> [QuantizationConfig; 3] {
        [
            QuantizationConfig::default(),
            QuantizationConfig {
                token: QFormat::new(10, 4),
                centroid: QFormat::new(10, 4),
                ..QuantizationConfig::default()
            },
            QuantizationConfig {
                token: QFormat::new(8, 2),
                centroid: QFormat::new(8, 2),
                weight: QFormat::new(8, 6),
                ..QuantizationConfig::default()
            },
        ]
    }

    #[test]
    fn quantized_datapath_matches_quantized_algorithm() {
        let x = standard_normal_matrix(5, 24, 8);
        let w = AttentionWeights::random(8, 8, 6);
        let cfg = CtaConfig::uniform(2.0, 7);
        assert_bitwise_match(&x, &x, &w, &cfg, &QuantizationConfig::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `cta_forward_quantized` keeps its words integer from entry to
        /// the score write-back; the datapath keeps the f32 round trips
        /// between stages. Every output bit must agree, for both scale
        /// spellings (`d = 4, 16` shift, `d = 8, 32` multiply), self- and
        /// cross-attention, every bucket width and all three formats.
        #[test]
        fn quantized_datapath_matches_quantized_algorithm_bitwise(
            n in 1usize..=64,
            m in 1usize..=64,
            d in (2u32..6).prop_map(|log2| 1usize << log2),
            width in 0.05f32..8.0,
            amplitude in (0usize..3).prop_map(|i| [1.0f32, 4.0, 24.0][i]),
            cross in (0u8..2).prop_map(|c| c == 1),
            qcfg in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            // Amplitude 24 pushes tokens past the ±32 token rails.
            let kv = standard_normal_matrix(seed, n, d).scale(amplitude);
            let q = standard_normal_matrix(seed ^ 0x5eed, m, d).scale(amplitude);
            let w = AttentionWeights::random(d, d, seed.wrapping_add(1));
            let cfg = CtaConfig::uniform(width, seed.wrapping_add(2));
            let qcfg = &quantization_configs()[qcfg];
            let queries = if cross { &q } else { &kv };
            assert_bitwise_match(queries, &kv, &w, &cfg, qcfg);
        }
    }

    /// The paper's shape, past the proptest's `d <= 32`, `n <= 64`: `d = 64`
    /// (the shift branch), `n = 512` tokens, self- and cross-attention at
    /// a fine and a coarse bucket width, with tokens at 24σ, so the score
    /// write-back saturates.
    #[test]
    fn quantized_datapath_matches_at_the_paper_shape_with_saturated_scores() {
        let (n, d) = (512, 64);
        let qcfg = QuantizationConfig::default();
        let rails = [qcfg.score.min_value(), qcfg.score.max_value()];
        for (seed, width, cross) in [(31u64, 2.0f32, false), (32, 12.0, true)] {
            let kv = standard_normal_matrix(seed, n, d).scale(24.0);
            let q = standard_normal_matrix(seed ^ 0x5eed, n, d).scale(24.0);
            let w = AttentionWeights::random(d, d, seed + 1);
            let cfg = CtaConfig::uniform(width, seed + 2);
            let queries = if cross { &q } else { &kv };
            // The level-1 block of S̄ holds the score words before the
            // max-subtraction: a saturated word shows as a rail value.
            let sw = cta_forward_quantized(queries, &kv, &w, &cfg, &qcfg);
            let k1 = sw.k1();
            let saturated = (0..sw.scores_bar.rows())
                .flat_map(|r| sw.scores_bar.row(r)[..k1].to_vec())
                .filter(|x| rails.contains(x))
                .count();
            assert!(saturated > 0, "seed {seed}: no score word saturated");
            assert_bitwise_match(queries, &kv, &w, &cfg, &qcfg);
        }
    }

    #[test]
    fn quantized_datapath_close_to_float_datapath() {
        let x = standard_normal_matrix(9, 20, 8);
        let w = AttentionWeights::random(8, 8, 2);
        let cfg = CtaConfig::uniform(1.5, 3);
        let fixed = run_quantized_datapath(&x, &x, &w, &cfg, &QuantizationConfig::default(), &hw());
        let float = crate::run_functional_datapath(&x, &x, &w, &cfg, &hw());
        let err = relative_error(&fixed.output, &float.output);
        assert!(err < 0.05, "fixed vs float datapath error {err}");
    }

    #[test]
    fn outputs_finite_and_shaped() {
        let x = standard_normal_matrix(13, 16, 8);
        let w = AttentionWeights::random(8, 8, 14);
        let dp = run_quantized_datapath(
            &x,
            &x,
            &w,
            &CtaConfig::uniform(2.0, 15),
            &QuantizationConfig::default(),
            &hw(),
        );
        assert_eq!(dp.output.shape(), (16, 8));
        assert!(dp.output.as_slice().iter().all(|v| v.is_finite()));
        assert!(dp.pag_cycles > 0);
    }
}
