//! The clustered synthetic token generator.
//!
//! Per-head token matrices are drawn from a mixture model that reproduces
//! the property the CTA paper exploits (§II-B): attention-layer token
//! representations contain large numbers of *semantic feature repetitions*
//! — synonyms and recurring expressions map to nearly identical per-head
//! features. A sequence is generated as:
//!
//! 1. sample a few **topic** vectors, then `c` cluster centers around the
//!    topics with per-center spreads drawn from a range — this gives a
//!    *continuum* of pairwise center distances (some features are close
//!    paraphrases, some unrelated), so compression aggressiveness trades
//!    off smoothly against accuracy instead of falling off a cliff;
//! 2. assign each position a center with a Zipf-skewed distribution
//!    (frequent features recur more often, as word frequencies do);
//! 3. emit `center + jitter` where the jitter is small relative to center
//!    separation — repeated features are *near*-duplicates, which is what
//!    makes merging them nearly lossless;
//! 4. replace an `outlier_fraction` of positions with unclustered draws
//!    (rare words that cluster with nothing).

use cta_tensor::{Matrix, MatrixRng};

use crate::{DatasetSpec, ModelSpec, TestCase};

/// Spread of the topic/center distribution; together with the 13-bit Q6.7
/// token format (range ±32) this keeps generated tokens representable.
const CENTER_STD: f32 = 2.0;

/// Upper end of the per-token jitter range as a fraction of
/// [`CENTER_STD`], scaled by the model's `noise_scale`. Repetitions range
/// from exact duplicates (tiny jitter) to loose paraphrases (large
/// jitter), log-uniformly — so compression aggressiveness trades off
/// *smoothly* against accuracy as wider buckets absorb looser paraphrases.
const JITTER_MAX: f32 = 1.2;

/// Lower end of the per-token jitter range relative to [`JITTER_MAX`].
const JITTER_RANGE: f32 = 0.02;

/// Generates one per-head token matrix (`seq_len × head_dim`) for a
/// model/dataset pair.
///
/// Deterministic in `(model, dataset, seq_len, seed)`.
///
/// # Panics
///
/// Panics if `seq_len == 0`.
pub fn generate_tokens(
    model: &ModelSpec,
    dataset: &DatasetSpec,
    seq_len: usize,
    seed: u64,
) -> Matrix {
    assert!(seq_len > 0, "sequence length must be positive");
    let d = model.head_dim;
    let clusters = dataset.semantic_clusters(seq_len);
    let mut rng = MatrixRng::new(seed);

    // Topics, then centers scattered around topics at varying spreads.
    let topics = (clusters / 8).max(2);
    let topic_matrix = rng.normal_matrix(topics, d, 0.0, CENTER_STD);
    let mut centers = Matrix::zeros(clusters, d);
    for c in 0..clusters {
        let spread = CENTER_STD * rng.uniform(0.08, 1.2);
        let center = centers.row_mut(c);
        rng.fill_normal(center, 0.0, spread);
        for (x, &t) in center.iter_mut().zip(topic_matrix.row(c % topics)) {
            *x += t;
        }
    }

    // Skewed cluster popularity: cluster c gets weight 1/(c+1) (Zipf-ish),
    // mirroring natural token-frequency skew.
    let weights: Vec<f64> = (0..clusters).map(|c| 1.0 / (c + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut assignment = Vec::with_capacity(seq_len);
    for _ in 0..seq_len {
        let mut u = rng.uniform(0.0, 1.0) as f64 * total;
        let mut chosen = clusters - 1;
        for (c, w) in weights.iter().enumerate() {
            if u < *w {
                chosen = c;
                break;
            }
            u -= w;
        }
        assignment.push(chosen);
    }

    let mut tokens = centers.gather_rows(&assignment);
    let max_jitter = model.noise_scale * JITTER_MAX * CENTER_STD;
    let mut jitter = vec![0.0; d];
    for t in 0..seq_len {
        // Most repetitions are tight duplicates (near-lossless to merge);
        // a log-uniform tail of looser paraphrases stretches the
        // merge/accuracy curve so the 0/0.5/1% budgets map to distinct
        // compression levels.
        let u = if rng.uniform(0.0, 1.0) < 0.72 {
            rng.uniform(JITTER_RANGE, 0.06)
        } else {
            (rng.uniform(0.06f32.ln(), 0.0f32)).exp()
        };
        rng.fill_normal(&mut jitter, 0.0, max_jitter * u);
        for (x, &j) in tokens.row_mut(t).iter_mut().zip(&jitter) {
            *x += j;
        }
    }

    // Outliers: unclustered draws at the topic scale.
    let outliers = (dataset.outlier_fraction * seq_len as f64).round() as usize;
    for _ in 0..outliers {
        let pos = rng.index(seq_len);
        rng.fill_normal(tokens.row_mut(pos), 0.0, CENTER_STD);
    }
    tokens
}

/// Convenience wrapper generating tokens for a [`TestCase`] at its
/// dataset's native sequence length.
pub fn generate_case_tokens(case: &TestCase, seed: u64) -> Matrix {
    generate_tokens(&case.model, &case.dataset, case.dataset.seq_len, seed)
}

/// Generates the token matrix seen by layer `layer` of a `total_layers`
/// stack.
///
/// Deeper attention layers see *more* redundant representations: each
/// layer extracts a narrower span of structure (the Tenney et al. finding
/// the paper's motivation cites, §II-B), so token clusters tighten with
/// depth. This variant interpolates the dataset's redundancy from
/// `0.8 × redundancy` at the first layer up to
/// `redundancy + 0.6 × (1 − redundancy)` at the last.
///
/// # Panics
///
/// Panics if `layer >= total_layers` or `total_layers == 0`.
pub fn generate_layer_tokens(
    model: &ModelSpec,
    dataset: &DatasetSpec,
    layer: usize,
    total_layers: usize,
    seed: u64,
) -> Matrix {
    assert!(total_layers > 0, "at least one layer");
    assert!(layer < total_layers, "layer {layer} out of range 0..{total_layers}");
    let t = if total_layers == 1 { 0.0 } else { layer as f64 / (total_layers - 1) as f64 };
    let low = 0.8 * dataset.redundancy;
    let high = dataset.redundancy + 0.6 * (1.0 - dataset.redundancy);
    let layered = DatasetSpec { redundancy: low + t * (high - low), ..*dataset };
    generate_tokens(model, &layered, dataset.seq_len, seed.wrapping_add((layer as u64) << 24))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bert_large, gpt2_large, imdb, squad11};

    #[test]
    fn shape_and_determinism() {
        let a = generate_tokens(&bert_large(), &squad11(), 128, 7);
        let b = generate_tokens(&bert_large(), &squad11(), 128, 7);
        assert_eq!(a.shape(), (128, 64));
        assert_eq!(a, b);
        let c = generate_tokens(&bert_large(), &squad11(), 128, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn tokens_fit_the_q67_range() {
        let t = generate_tokens(&gpt2_large(), &imdb(), 512, 3);
        assert!(t.max_abs() < 31.0, "max |token| = {}", t.max_abs());
    }

    #[test]
    fn tokens_compress_losslessly_at_moderate_widths() {
        // The defining property for CTA: a large fraction of tokens merge
        // with near-zero reconstruction error.
        use cta_lsh::{compress, LshFamily, LshParams};
        let t = generate_tokens(&bert_large(), &squad11(), 384, 11);
        let fam = LshFamily::sample(64, LshParams::with_paper_length(8.0), 42);
        let comp = compress(&t, &fam);
        assert!(comp.k() < 300, "k = {} of 384", comp.k());
        assert!(comp.approximation_error(&t) < 0.08, "err {}", comp.approximation_error(&t));
    }

    #[test]
    fn higher_redundancy_means_fewer_distinct_clusters() {
        use cta_lsh::{compress, LshFamily, LshParams};
        let fam = LshFamily::sample(64, LshParams::with_paper_length(8.0), 42);
        let redundant = generate_tokens(&bert_large(), &imdb().with_seq_len(256), 256, 5);
        let diverse_ds = crate::DatasetSpec { redundancy: 0.3, ..imdb() }.with_seq_len(256);
        let diverse = generate_tokens(&bert_large(), &diverse_ds, 256, 5);
        let k_red = compress(&redundant, &fam).k();
        let k_div = compress(&diverse, &fam).k();
        assert!(k_red < k_div, "redundant k={k_red}, diverse k={k_div}");
    }

    #[test]
    fn noise_scale_controls_cluster_tightness() {
        use cta_lsh::{compress, LshFamily, LshParams};
        let fam = LshFamily::sample(64, LshParams::with_paper_length(1.0), 43);
        let tight_model = ModelSpec { noise_scale: 0.05, ..bert_large() };
        let loose_model = ModelSpec { noise_scale: 0.6, ..bert_large() };
        let tight = generate_tokens(&tight_model, &squad11(), 256, 9);
        let loose = generate_tokens(&loose_model, &squad11(), 256, 9);
        // Tighter clusters ⇒ more tokens merge per LSH bucket ⇒ fewer
        // centroids at the same bucket width.
        let k_tight = compress(&tight, &fam).k();
        let k_loose = compress(&loose, &fam).k();
        assert!(k_tight < k_loose, "tight k={k_tight} loose k={k_loose}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_rejected() {
        let _ = generate_tokens(&bert_large(), &squad11(), 0, 1);
    }

    #[test]
    fn deeper_layers_compress_better() {
        use cta_lsh::{compress, LshFamily, LshParams};
        let fam = LshFamily::sample(64, LshParams::with_paper_length(4.0), 55);
        let shallow = generate_layer_tokens(&bert_large(), &squad11(), 0, 24, 7);
        let deep = generate_layer_tokens(&bert_large(), &squad11(), 23, 24, 7);
        let k_shallow = compress(&shallow, &fam).k();
        let k_deep = compress(&deep, &fam).k();
        assert!(k_deep < k_shallow, "deep k={k_deep}, shallow k={k_shallow}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn layer_index_bounds_checked() {
        let _ = generate_layer_tokens(&bert_large(), &squad11(), 24, 24, 1);
    }

    #[test]
    fn paper_case_normals_are_pinned_bit_for_bit() {
        // FNV-1a over the bits of every paper case's tokens, weights and
        // LSH families, recorded from the per-pair Box–Muller generator:
        // the batched, lane-transformed draws must reproduce it exactly.
        use cta_attention::{sample_families, AttentionWeights, CtaConfig};
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |xs: &[f32]| {
            for x in xs {
                h = (h ^ u64::from(x.to_bits())).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for case in crate::paper_cases() {
            let (seed, d) = (case.seed(), case.model.head_dim);
            fold(generate_case_tokens(&case, seed).as_slice());
            let w = AttentionWeights::random(d, d, seed);
            for m in [w.wq(), w.wk(), w.wv()] {
                fold(m.as_slice());
            }
            for f in sample_families(&CtaConfig::uniform(1.0, seed), d) {
                fold(f.directions().as_slice());
                fold(f.biases());
            }
        }
        assert_eq!(h, 0x96d2_4d24_c888_8f47);
    }
}
