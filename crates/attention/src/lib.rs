#![deny(missing_docs)]

//! The CTA algorithm: exact attention and the compressed-token
//! approximation scheme (paper §II-III).
//!
//! The crate has four layers:
//!
//! * [`attention_exact`] — the reference scaled-dot-product attention the
//!   approximation is judged against;
//! * [`cta_forward`] — the full CTA scheme: LSH token compression,
//!   linears on centroids, compressed scores, probability aggregation and
//!   output recovery (with [`cta_forward_quantized`] as the
//!   hardware-faithful fixed-point variant);
//! * [`complexity_report`] — the §III-D operation-count model behind the
//!   paper's RL/RA metrics and Fig. 2's effective-relations curve;
//! * [`fidelity`] — output-level accuracy metrics comparing CTA to exact
//!   attention, and [`output_error_bound`] — a provable per-query bound
//!   on the approximation error in terms of the score/value
//!   perturbations the compression introduces.
//!
//! # Example
//!
//! ```
//! use cta_attention::{attention_exact, cta_forward, fidelity, AttentionWeights, CtaConfig};
//! use cta_tensor::standard_normal_matrix;
//!
//! let tokens = standard_normal_matrix(0, 64, 16);
//! let weights = AttentionWeights::random(16, 8, 1);
//! let exact = attention_exact(&tokens, &tokens, &weights);
//! let cta = cta_forward(&tokens, &tokens, &weights, &CtaConfig::uniform(2.0, 2));
//! let report = fidelity(&cta, &exact);
//! assert!(report.output_relative_error < 1.0);
//! ```

mod aggregate;
mod bound;
mod causal;
mod complexity;
mod config;
mod exact;
mod metrics;
mod quantized;
mod scheme;

pub use aggregate::{
    aggregate_probabilities, aggregate_probabilities_with, reconstruct_full_scores,
};
pub use bound::{output_error_bound, reconstruct_values, ErrorBound};
pub use causal::{attention_exact_causal, cta_forward_causal, CausalCtaAttention, CausalCtaConfig};
pub use complexity::{
    complexity_report, cta_ops, normal_ops, report_from_counts, AttentionDims, ComplexityReport,
    CtaOps, NormalOps, OpCounts,
};
pub use config::{CtaConfig, DEFAULT_RESIDUAL_RATIO};
pub use exact::{attention_exact, AttentionWeights, ExactAttention};
pub use metrics::{fidelity, fidelity_against, top1_agreement, top1_keys, FidelityReport};
pub use quantized::{cta_forward_quantized, QuantizationConfig};
pub use scheme::{cta_forward, cta_forward_compressed, sample_families, CtaAttention};
