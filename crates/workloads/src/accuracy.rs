//! The proxy accuracy task and per-case evaluation.
//!
//! The paper measures end-to-end task metrics (F1, accuracy, perplexity)
//! on finetuned checkpoints; without models we measure the same *signal* —
//! "how much task-relevant information does the approximation destroy?" —
//! with a linear-probe classification task on the attention outputs: a
//! fixed random readout maps each query's output vector to one of `C`
//! classes; the exact attention output defines the label; the approximate
//! output scores the fraction of labels preserved. `accuracy loss` is the
//! disagreement percentage, playing the role of the paper's 0% / 0.5% /
//! 1% accuracy-loss budgets.

use cta_attention::{
    attention_exact, cta_forward, fidelity_against, report_from_counts, top1_keys, AttentionDims,
    AttentionWeights, ComplexityReport, CtaConfig, FidelityReport,
};
use cta_tensor::{Matrix, MatrixRng};

use crate::{generate_tokens, TestCase};

/// The linear-probe readout of a test case.
#[derive(Debug, Clone)]
pub struct ProxyTask {
    readout: Matrix,
}

impl ProxyTask {
    /// Builds the (deterministic) readout for a case: `head_dim × classes`.
    ///
    /// # Panics
    ///
    /// Panics if `classes < 2`.
    pub fn for_case(case: &TestCase, classes: usize) -> Self {
        assert!(classes >= 2, "a classification probe needs at least 2 classes");
        let mut rng = MatrixRng::new(case.seed() ^ 0x5EED_CAFE);
        Self { readout: rng.normal_matrix(case.model.head_dim, classes, 0.0, 1.0) }
    }

    /// Class labels of an output matrix: per row, the arg-max of
    /// `output · readout`.
    ///
    /// # Panics
    ///
    /// Panics if `outputs.cols() != head_dim`.
    pub fn labels(&self, outputs: &Matrix) -> Vec<usize> {
        let logits = outputs.matmul(&self.readout);
        (0..logits.rows())
            .map(|r| {
                let row = logits.row(r);
                let mut best = 0usize;
                for (i, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Fraction of rows whose labels agree between two output matrices.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn agreement(&self, exact: &Matrix, approx: &Matrix) -> f64 {
        assert_eq!(exact.shape(), approx.shape(), "output shape mismatch");
        self.agreement_with_labels(&self.labels(exact), approx)
    }

    /// [`agreement`](Self::agreement) against labels already read off the
    /// exact output.
    fn agreement_with_labels(&self, exact_labels: &[usize], approx: &Matrix) -> f64 {
        let approx_labels = self.labels(approx);
        let agree = exact_labels.iter().zip(&approx_labels).filter(|(x, y)| x == y).count();
        agree as f64 / exact_labels.len().max(1) as f64
    }
}

/// Aggregated measurement of one (case, config) pair over several sampled
/// sequences.
#[derive(Debug, Clone)]
pub struct CaseEvaluation {
    /// `"model/dataset"`.
    pub case_name: String,
    /// Proxy accuracy loss, percent (0 = lossless).
    pub accuracy_loss_pct: f64,
    /// Mean output-fidelity metrics.
    pub fidelity: FidelityReport,
    /// Complexity report at the mean cluster counts (RL, RA, effective
    /// relations).
    pub complexity: ComplexityReport,
    /// Per-sample accuracy losses (percent), for spread diagnostics.
    pub sample_losses: Vec<f64>,
    /// Mean cluster counts across samples.
    pub mean_k0: f64,
    /// Mean level-1 KV cluster count.
    pub mean_k1: f64,
    /// Mean level-2 KV cluster count.
    pub mean_k2: f64,
}

/// The exact side of a case's evaluation over `samples` generated
/// sequences: per sample, the tokens and what the metrics read of exact
/// attention (its output, its top-1 keys and the probe labels of the
/// output). It depends on the case and the sample count only, so a
/// search that evaluates many configurations of one case builds it once
/// and runs only `cta_forward` and the metrics per configuration
/// ([`CaseReference::evaluate`]).
#[derive(Debug, Clone)]
pub struct CaseReference {
    case_name: String,
    dims: AttentionDims,
    weights: AttentionWeights,
    probe: ProxyTask,
    samples: Vec<SampleReference>,
}

/// One generated sequence of a [`CaseReference`].
#[derive(Debug, Clone)]
struct SampleReference {
    tokens: Matrix,
    output: Matrix,
    top1: Vec<usize>,
    labels: Vec<usize>,
}

impl CaseReference {
    /// Generates `samples` sequences of `case` and computes their exact
    /// attention and probe labels.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`.
    pub fn new(case: &TestCase, samples: usize) -> Self {
        assert!(samples > 0, "at least one sample");
        let weights = AttentionWeights::random(
            case.model.head_dim,
            case.model.head_dim,
            case.seed() ^ 0xBEEF,
        );
        let probe = ProxyTask::for_case(case, 8);
        let samples = (0..samples)
            .map(|s| {
                let tokens = generate_tokens(
                    &case.model,
                    &case.dataset,
                    case.dataset.seq_len,
                    case.seed().wrapping_add(s as u64),
                );
                let exact = attention_exact(&tokens, &tokens, &weights);
                let labels = probe.labels(&exact.output);
                let top1 = top1_keys(&exact.probabilities);
                SampleReference { tokens, output: exact.output, top1, labels }
            })
            .collect();
        Self { case_name: case.name(), dims: case.dims(), weights, probe, samples }
    }

    /// Evaluates a CTA configuration against the reference: `cta_forward`
    /// and the metrics per sample, averaged in sample order.
    pub fn evaluate(&self, config: &CtaConfig) -> CaseEvaluation {
        let mut sample_losses = Vec::with_capacity(self.samples.len());
        let mut err_sum = 0.0;
        let mut cos_sum = 0.0;
        let mut top1_sum = 0.0;
        let (mut k0_sum, mut k1_sum, mut k2_sum) = (0usize, 0usize, 0usize);

        for sample in &self.samples {
            let cta = cta_forward(&sample.tokens, &sample.tokens, &self.weights, config);
            let fid = fidelity_against(&cta, &sample.output, &sample.top1);
            let agreement = self.probe.agreement_with_labels(&sample.labels, &cta.output);
            sample_losses.push((1.0 - agreement) * 100.0);
            err_sum += fid.output_relative_error;
            cos_sum += fid.mean_output_cosine;
            top1_sum += fid.top1_agreement;
            k0_sum += cta.k0();
            k1_sum += cta.k1();
            k2_sum += cta.k2();
        }

        let nf = self.samples.len() as f64;
        let mean_k0 = k0_sum as f64 / nf;
        let mean_k1 = k1_sum as f64 / nf;
        let mean_k2 = k2_sum as f64 / nf;
        let complexity = report_from_counts(
            &self.dims,
            mean_k0.round().max(1.0) as usize,
            mean_k1.round().max(1.0) as usize,
            mean_k2.round().max(1.0) as usize,
            config.hash_length,
        );
        CaseEvaluation {
            case_name: self.case_name.clone(),
            accuracy_loss_pct: sample_losses.iter().sum::<f64>() / nf,
            fidelity: FidelityReport {
                output_relative_error: err_sum / nf,
                mean_output_cosine: cos_sum / nf,
                top1_agreement: top1_sum / nf,
            },
            complexity,
            sample_losses,
            mean_k0,
            mean_k1,
            mean_k2,
        }
    }
}

/// Evaluates a CTA configuration on a test case over `samples` generated
/// sequences: [`CaseReference::new`] then [`CaseReference::evaluate`].
/// Callers evaluating several configurations of one case should build
/// the reference once instead.
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn evaluate_case(case: &TestCase, config: &CtaConfig, samples: usize) -> CaseEvaluation {
    CaseReference::new(case, samples).evaluate(config)
}

impl CaseEvaluation {
    /// Standard deviation of the per-sample accuracy losses (0 for a
    /// single sample).
    pub fn loss_stddev(&self) -> f64 {
        let n = self.sample_losses.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.accuracy_loss_pct;
        let var = self.sample_losses.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mini_case;
    use cta_attention::fidelity;

    /// The evaluation spelled in one pass, regenerating the tokens and
    /// recomputing exact attention per call: the oracle the split
    /// reference/evaluation must reproduce bit for bit.
    fn evaluate_case_in_one_pass(
        case: &TestCase,
        config: &CtaConfig,
        samples: usize,
    ) -> CaseEvaluation {
        assert!(samples > 0, "at least one sample");
        let dims = case.dims();
        let weights = AttentionWeights::random(
            case.model.head_dim,
            case.model.head_dim,
            case.seed() ^ 0xBEEF,
        );
        let probe = ProxyTask::for_case(case, 8);

        let mut sample_losses = Vec::with_capacity(samples);
        let mut err_sum = 0.0;
        let mut cos_sum = 0.0;
        let mut top1_sum = 0.0;
        let (mut k0_sum, mut k1_sum, mut k2_sum) = (0usize, 0usize, 0usize);

        for s in 0..samples {
            let tokens = generate_tokens(
                &case.model,
                &case.dataset,
                case.dataset.seq_len,
                case.seed().wrapping_add(s as u64),
            );
            let exact = attention_exact(&tokens, &tokens, &weights);
            let cta = cta_forward(&tokens, &tokens, &weights, config);
            let fid = fidelity(&cta, &exact);
            sample_losses.push((1.0 - probe.agreement(&exact.output, &cta.output)) * 100.0);
            err_sum += fid.output_relative_error;
            cos_sum += fid.mean_output_cosine;
            top1_sum += fid.top1_agreement;
            k0_sum += cta.k0();
            k1_sum += cta.k1();
            k2_sum += cta.k2();
        }

        let nf = samples as f64;
        let mean_k0 = k0_sum as f64 / nf;
        let mean_k1 = k1_sum as f64 / nf;
        let mean_k2 = k2_sum as f64 / nf;
        let complexity = report_from_counts(
            &dims,
            mean_k0.round().max(1.0) as usize,
            mean_k1.round().max(1.0) as usize,
            mean_k2.round().max(1.0) as usize,
            config.hash_length,
        );
        CaseEvaluation {
            case_name: case.name(),
            accuracy_loss_pct: sample_losses.iter().sum::<f64>() / nf,
            fidelity: FidelityReport {
                output_relative_error: err_sum / nf,
                mean_output_cosine: cos_sum / nf,
                top1_agreement: top1_sum / nf,
            },
            complexity,
            sample_losses,
            mean_k0,
            mean_k1,
            mean_k2,
        }
    }

    /// Every field of an evaluation, floats as bit patterns.
    pub(crate) fn evaluation_bits(e: &CaseEvaluation) -> String {
        let c = &e.complexity;
        let f = &e.fidelity;
        let floats = [
            e.accuracy_loss_pct,
            f.output_relative_error,
            f.mean_output_cosine,
            f.top1_agreement,
            c.rl,
            c.ra,
            c.effective_relations,
            e.mean_k0,
            e.mean_k1,
            e.mean_k2,
        ]
        .map(f64::to_bits);
        let losses: Vec<u64> = e.sample_losses.iter().map(|x| x.to_bits()).collect();
        format!("{} {floats:?} {losses:?} {:?} {:?}", e.case_name, c.normal, c.cta)
    }

    #[test]
    fn reference_evaluation_is_the_one_pass_spelling_bitwise() {
        let case = mini_case();
        for samples in [1, 2, 3] {
            let reference = CaseReference::new(&case, samples);
            for width in [0.3, 1.0, 2.5, 8.0, 40.0] {
                for config in [
                    CtaConfig::uniform(width, case.seed()),
                    CtaConfig::uniform(width, 7).with_hash_length(4),
                ] {
                    let want = evaluation_bits(&evaluate_case_in_one_pass(&case, &config, samples));
                    assert_eq!(
                        evaluation_bits(&reference.evaluate(&config)),
                        want,
                        "width {width}, {samples} samples"
                    );
                    assert_eq!(evaluation_bits(&evaluate_case(&case, &config, samples)), want);
                }
            }
        }
    }

    #[test]
    fn lossless_in_the_singleton_limit() {
        let case = mini_case();
        let cfg = CtaConfig::new(6, 1e-4, 1e-4, 1e-4, 1);
        let eval = evaluate_case(&case, &cfg, 2);
        assert!(eval.accuracy_loss_pct < 1e-9, "loss {}", eval.accuracy_loss_pct);
        assert!(eval.fidelity.output_relative_error < 1e-4);
        assert!((eval.complexity.rl - 1.0).abs() < 0.5); // near-uncompressed
    }

    #[test]
    fn aggressive_compression_loses_accuracy_but_gains_reduction() {
        let case = mini_case();
        let fine = evaluate_case(&case, &CtaConfig::uniform(0.5, 1), 2);
        let coarse = evaluate_case(&case, &CtaConfig::uniform(50.0, 1), 2);
        assert!(coarse.complexity.ra < fine.complexity.ra);
        assert!(coarse.accuracy_loss_pct >= fine.accuracy_loss_pct);
        assert!(coarse.mean_k0 < fine.mean_k0);
    }

    #[test]
    fn loss_spread_is_reported() {
        let case = mini_case();
        let e = evaluate_case(&case, &CtaConfig::uniform(8.0, 1), 3);
        assert_eq!(e.sample_losses.len(), 3);
        assert!(e.loss_stddev() >= 0.0);
        let single = evaluate_case(&case, &CtaConfig::uniform(8.0, 1), 1);
        assert_eq!(single.loss_stddev(), 0.0);
    }

    #[test]
    fn probe_is_deterministic_per_case() {
        let case = mini_case();
        let a = ProxyTask::for_case(&case, 4);
        let b = ProxyTask::for_case(&case, 4);
        let outputs = cta_tensor::standard_normal_matrix(3, 10, case.model.head_dim);
        assert_eq!(a.labels(&outputs), b.labels(&outputs));
    }

    #[test]
    fn agreement_is_one_for_identical_outputs() {
        let case = mini_case();
        let probe = ProxyTask::for_case(&case, 8);
        let o = cta_tensor::standard_normal_matrix(5, 12, case.model.head_dim);
        assert_eq!(probe.agreement(&o, &o), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 classes")]
    fn probe_rejects_single_class() {
        let _ = ProxyTask::for_case(&mini_case(), 1);
    }
}
