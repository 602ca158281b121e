#![deny(missing_docs)]

//! Synthetic transformer workloads for the CTA evaluation (paper §VI-A).
//!
//! Real finetuned checkpoints and datasets are out of reach for this
//! reproduction (see `DESIGN.md`); this crate supplies their statistical
//! stand-ins:
//!
//! * the **model zoo** ([`model_zoo`]) — BERT-large, RoBERTa-large,
//!   ALBERT-large, GPT-2-large as dimension + clustering descriptors;
//! * the **dataset proxies** ([`all_datasets`]) — SQuAD 1.1/2.0, IMDB,
//!   WikiText-2 as sequence-length + redundancy descriptors;
//! * the **generator** ([`generate_tokens`]) — clustered per-head token
//!   matrices with the redundancy structure the paper's motivation
//!   describes;
//! * the **proxy accuracy task** ([`ProxyTask`], [`evaluate_case`]) — a
//!   linear-probe classification agreement score playing the role of the
//!   paper's task metrics. An evaluation splits in two: a
//!   [`CaseReference`] per case and sample count (the generated tokens,
//!   the exact output, its top-1 keys and probe labels, built once) and
//!   [`CaseReference::evaluate`] per configuration (only `cta_forward`
//!   and the metrics), so sweeps over many configurations of one case
//!   price the exact reference once;
//! * the **operating-point table** ([`OperatingTable`]) — the CTA-0 /
//!   CTA-0.5 / CTA-1 configurations of §VI-B for a list of cases, all
//!   three from one walk of the width grid per case
//!   ([`find_all_operating_points`]), searched on the `cta-parallel` pool
//!   at one sample count: 2 sequences per candidate, or 1 above 1024
//!   tokens. Every figure and the CLI read their points from it.
//!
//! # Example
//!
//! ```
//! use cta_workloads::{generate_case_tokens, mini_case};
//!
//! let case = mini_case();
//! let tokens = generate_case_tokens(&case, 1);
//! assert_eq!(tokens.rows(), case.dataset.seq_len);
//! ```

mod accuracy;
mod adaptive;
mod arrivals;
mod brownout;
mod cases;
mod datasets;
mod diurnal;
mod generator;
mod models;
mod operating;
mod sessions;
mod stats;
mod tenants;
mod vision;

pub use accuracy::{evaluate_case, CaseEvaluation, CaseReference, ProxyTask};
pub use adaptive::{adapt_per_head, AdaptiveResult};
pub use arrivals::{case_arrival_trace, case_task};
pub use brownout::{calibrate_brownout_ladder, BrownoutCalibration, BrownoutRung};
pub use cases::{mini_case, paper_cases, TestCase};
pub use datasets::{all_datasets, imdb, squad11, squad20, wikitext2, DatasetSpec};
pub use diurnal::{DiurnalSpec, FlashCrowd};
pub use generator::{generate_case_tokens, generate_layer_tokens, generate_tokens};
pub use models::{albert_large, bert_large, gpt2_large, model_zoo, roberta_large, ModelSpec};
pub use operating::{find_all_operating_points, CtaClass, OperatingPoint, OperatingTable};
pub use sessions::{session_trace, SessionSpec, SessionTurnEvent};
pub use stats::{workload_stats, WorkloadStats};
pub use tenants::{SloTier, TenantMix};
pub use vision::{generate_patch_tokens, VisionCase};
