#![deny(missing_docs)]

//! # CTA — Compressed Token Attention
//!
//! A from-scratch Rust reproduction of *"CTA: Hardware-Software Co-design
//! for Compressed Token Attention Mechanism"* (HPCA 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense matrix substrate;
//! * [`fixed`] — fixed-point formats, quantized matrices, hardware LUTs;
//! * [`lsh`] — p-stable LSH, the cluster tree, token compression;
//! * [`attention`] — exact attention and the CTA approximation scheme;
//! * [`model`] — transformer encoder layers with CTA in every head;
//! * [`sim`] — the cycle-level CTA accelerator model;
//! * [`baselines`] — V100 GPU, ELSA and ideal-accelerator models;
//! * [`workloads`] — synthetic transformer workloads and the model zoo;
//! * [`serve`] — the fleet serving runtime: continuous batching,
//!   multi-replica routing, SLO-aware admission, fault injection and the
//!   phi-accrual failure detector, and the seeded SplitMix64 generator
//!   behind the chaos engine and the fault model; plus the shared sweep harness
//!   ([`SweepSpec`]) behind the sweep binaries;
//! * [`tenancy`] — multi-tenant fair scheduling, quotas and autoscaling;
//! * [`chaos`] — the deterministic chaos engine: seeded scenario
//!   sampling, the invariant library and the delta-debugging shrinker;
//! * [`telemetry`] — zero-cost tracing: span/counter events, ring-buffer
//!   sink, Chrome Trace Format export and aggregation reports;
//! * [`parallel`] — the deterministic work-stealing thread pool behind
//!   `--jobs` everywhere ([`Parallelism`], ordered `par_map`,
//!   row-panel `par_chunks_mut`).
//!
//! One process-wide knob tunes execution without changing a single
//! output bit: [`Parallelism`] (`--jobs` / `CTA_JOBS`). The hot inner
//! loops run one SIMD path; the naive scalar loops survive only as test
//! oracles that pin it bitwise. There is one serving model, the [`serve`]
//! fleet runtime.
//!
//! Streaming decode sessions thread through the whole stack:
//! [`StreamingCompressor`] maintains the two-level compression
//! incrementally per generated token, [`SessionSpec`] generates
//! multi-turn conversation traces, and [`SessionPolicy`] gives the fleet
//! sticky routing plus per-session state accounting (see the
//! `decode_sweep` binary and `examples/generative_decode.rs`).
//!
//! See `examples/quickstart.rs` for an end-to-end tour and `DESIGN.md` /
//! `EXPERIMENTS.md` for the paper-reproduction map.

pub use cta_attention as attention;
pub use cta_baselines as baselines;
pub use cta_chaos as chaos;
pub use cta_fixed as fixed;
pub use cta_lsh as lsh;
pub use cta_model as model;
pub use cta_parallel as parallel;
pub use cta_serve as serve;
pub use cta_sim as sim;
pub use cta_telemetry as telemetry;
pub use cta_tenancy as tenancy;
pub use cta_tensor as tensor;
pub use cta_workloads as workloads;

pub use cta_parallel::Parallelism;
pub use cta_serve::SweepSpec;

pub use cta_lsh::{CompressionView, StreamingCompressor};
pub use cta_serve::{ConfigError, FleetConfig, FleetConfigBuilder, SessionPolicy, SessionTurn};
pub use cta_workloads::SessionSpec;
