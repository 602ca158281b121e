//! `StreamingCompressor::drift` checked against what it estimates, on
//! sampled prefixes of generated tokens.
//!
//! A two-level streaming compressor takes each token's residual against
//! its level-1 centroid as of that push. The drift estimate accumulates
//! `(n_c − 1)·‖δ‖` for every push that moves a centroid by `δ`, over the
//! accumulated `Σ‖x‖`. Two quantities say what it estimates:
//!
//! * the **staleness** `Σᵢ ‖C_now(cᵢ) − C_at push i(cᵢ)‖ / Σᵢ ‖xᵢ‖` of
//!   the stored residuals, which the estimate bounds from above (each
//!   token's centroid moved by at most the sum of the later pushes'
//!   displacements into its cluster: the triangle inequality);
//! * the **output error** of `cta_forward` on the stale two-level snapshot
//!   against a fresh `compress_two_level` of the same prefix, which a
//!   useful re-cluster trigger would rank the same way. The estimate
//!   does so only weakly (see the test's docs).

use cta_attention::{cta_forward_compressed, sample_families, AttentionWeights, CtaConfig};
use cta_lsh::{compress, compress_two_level, StreamingCompressor};
use cta_tensor::relative_error;
use cta_workloads::{bert_large, generate_tokens, gpt2_large, squad11, wikitext2};

/// One sampled prefix of one stream.
#[derive(Debug, Clone, Copy)]
struct Prefix {
    drift: f64,
    staleness: f64,
    error: f64,
}

/// Streams `n` generated tokens through a two-level compressor (no
/// re-cluster) and measures every `step`-th prefix.
fn sampled_prefixes(seed: u64, n: usize, step: usize, width: f32, gpt: bool) -> Vec<Prefix> {
    let (model, dataset) =
        if gpt { (gpt2_large(), wikitext2()) } else { (bert_large(), squad11()) };
    let tokens = generate_tokens(&model, &dataset, n, seed);
    let d = tokens.cols();
    let [f0, f1, f2] = sample_families(&CtaConfig::uniform(width, seed), d);
    let weights = AttentionWeights::random(d, d, seed ^ 0x9e37_79b9);
    let mut stream = StreamingCompressor::two_level(f1.clone(), f2.clone(), f64::INFINITY);
    // Each token's level-1 centroid right after its push: the base of
    // its stored residual.
    let mut bases: Vec<Vec<f32>> = Vec::with_capacity(n);
    let mut norm = 0.0f64;
    let mut prefixes = Vec::new();
    for t in 0..n {
        let token = tokens.row(t);
        let cluster = stream.push(token);
        bases.push(stream.as_compression().centroid(cluster).to_vec());
        norm += token.iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>().sqrt();
        if (t + 1) % step != 0 {
            continue;
        }
        let view = stream.as_compression();
        let moved: f64 = view
            .assignments()
            .iter()
            .zip(&bases)
            .map(|(&c, base)| {
                let now = view.centroid(c);
                now.iter()
                    .zip(base)
                    .map(|(&a, &b)| (f64::from(a) - f64::from(b)).powi(2))
                    .sum::<f64>()
                    .sqrt()
            })
            .sum();
        let prefix = tokens.slice_rows(0, t + 1);
        let queries = compress(&prefix, &f0);
        let (stale, fresh) = (stream.two_level_snapshot(), compress_two_level(&prefix, &f1, &f2));
        if stream.drift() == 0.0 {
            // No stored residual's base has moved: the stale snapshot is
            // the fresh one.
            assert_eq!(stale, fresh, "seed {seed}, width {width}, prefix {}", t + 1);
        }
        let stale = cta_forward_compressed(queries.clone(), stale, &weights);
        let fresh = cta_forward_compressed(queries, fresh, &weights);
        prefixes.push(Prefix {
            drift: stream.drift(),
            staleness: moved / norm,
            error: relative_error(&stale.output, &fresh.output),
        });
    }
    prefixes
}

/// Average ranks (ties share the mean rank).
fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    let mut ranks = vec![0.0; xs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && xs[order[j + 1]] == xs[order[i]] {
            j += 1;
        }
        for &k in &order[i..=j] {
            ranks[k] = (i + j) as f64 / 2.0;
        }
        i = j + 1;
    }
    ranks
}

/// Spearman's rank correlation of `xs` and `ys`.
fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    let (rx, ry) = (ranks(xs), ranks(ys));
    let n = xs.len() as f64;
    let (mx, my) = (rx.iter().sum::<f64>() / n, ry.iter().sum::<f64>() / n);
    let cov: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - mx) * (b - my)).sum();
    let vx: f64 = rx.iter().map(|a| (a - mx).powi(2)).sum();
    let vy: f64 = ry.iter().map(|b| (b - my).powi(2)).sum();
    cov / (vx * vy).sqrt()
}

/// The two paper cases streamed, each at its three perfbench operating
/// widths (CTA-0, CTA-0.5, CTA-1).
const CASES: [(bool, [f32; 3]); 2] =
    [(false, [0.32833555, 2.678333, 4.5263824]), (true, [0.25256583, 0.32833555, 0.7213531])];

/// Over three seeds and the three widths of each case, every sampled
/// prefix's staleness is at most the estimate. Within each width, pooled
/// over the seeds and the prefixes, the estimate and the output error are
/// positively rank-correlated, but weakly: Spearman's ρ was 0.58, 0.36
/// and 0.64 for BERT-large and 0.76, 0.50 and 0.23 for GPT-2 when this
/// was written, and both quantities grow with the prefix. That is not
/// tracking: at a fixed prefix length, across eight seeds, ρ is near zero
/// or negative at most widths, so the estimate does not rank streams by
/// their error (ROADMAP item 9). Pooling across widths would read much
/// higher (0.87 and 0.79) only because both grow with the bucket width.
#[test]
fn drift_bounds_staleness_and_correlates_positively_with_output_error_per_width() {
    for (gpt, widths) in CASES {
        for width in widths {
            let mut pooled = Vec::new();
            for seed in [1, 2, 3] {
                let prefixes = sampled_prefixes(seed, 192, 24, width, gpt);
                for p in &prefixes {
                    // Rounding the f32 displacements may shave the
                    // estimate by an ulp; nothing more.
                    assert!(
                        p.staleness <= p.drift * (1.0 + 1e-6),
                        "gpt {gpt} width {width} seed {seed}: {p:?}"
                    );
                }
                pooled.extend(prefixes);
            }
            let (d, e): (Vec<f64>, Vec<f64>) = pooled.iter().map(|p| (p.drift, p.error)).unzip();
            let rho = spearman(&d, &e);
            assert!(rho > 0.0, "gpt {gpt} width {width}: drift and output error have rho {rho:.3}");
        }
    }
}
