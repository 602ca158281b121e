#![deny(missing_docs)]

//! Cycle-level model of the CTA accelerator (paper §IV-V).
//!
//! Two layers:
//!
//! * **Functional hardware models** — cycle-level models of each block in
//!   Fig. 7 that compute real data and are tested for equivalence against
//!   the algorithm crate: the systolic array's two dataflows
//!   ([`SystolicArray`]), the Cluster Index Module ([`simulate_cim`]),
//!   Centroid Aggregation ([`simulate_cacc`]/[`simulate_cavg`]),
//!   Probability Aggregation ([`simulate_pag`]) and the composed datapath
//!   ([`run_functional_datapath`]).
//! * **The mapping-schedule simulator** — the Table-I cycle model
//!   ([`schedule`], [`CtaAccelerator`]) that the paper's performance
//!   results come from: per-step latencies with Fig. 10 bubble removal,
//!   auxiliary-module overlap, SRAM access counting ([`MemorySubsystem`]),
//!   40 nm energy ([`EnergyModel`]) and area ([`AreaModel`]) models, and
//!   the design-space sweep of Fig. 13 ([`sweep`]).
//!
//! # Example
//!
//! ```
//! use cta_sim::{AttentionTask, CtaAccelerator, HwConfig};
//!
//! let acc = CtaAccelerator::new(HwConfig::paper());
//! let task = AttentionTask::from_counts(512, 512, 64, 128, 96, 48, 6);
//! let report = acc.simulate_head(&task);
//! println!("one head in {} cycles, {:.1} nJ", report.cycles, report.energy.total_pj() / 1e3);
//! # assert!(report.cycles > 0);
//! ```

mod accelerator;
mod analysis;
mod area;
mod cag;
mod cag_rtl;
mod cim;
mod cim_rtl;
mod config;
mod datapath;
mod datapath_quantized;
mod decode;
mod dse;
mod energy;
mod ffn;
mod mapping;
mod memory;
mod pag;
mod pag_rtl;
mod power;
mod rtl;
mod rtl_datapath;
mod serving;
mod system;
mod systolic;
mod task;
mod trace;

pub use accelerator::{CtaAccelerator, SimReport};
pub use analysis::{analyze, utilization, UtilizationReport};
pub use area::{area_breakdown, AreaModel, AreaReport};
pub use cag::{simulate_cacc, simulate_cavg, CaccRun, CavgRun};
pub use cag_rtl::{simulate_cacc_rtl, CaccRtlRun};
pub use cim::{simulate_cim, CimRun};
pub use cim_rtl::{simulate_cim_rtl, CimRtlRun};
pub use config::{HwConfig, HwConfigError, MAX_SA_WIDTH};
pub use datapath::{run_functional_datapath, DatapathRun};
pub use datapath_quantized::{run_quantized_datapath, QuantizedDatapathRun};
pub use decode::{reclusters_for, schedule_decode, DecodeSchedule};
pub use dse::{best_pag_parallelism, sweep, DsePoint};
pub use energy::{EnergyModel, EnergyReport};
pub use ffn::{schedule_ffn, schedule_gemm, FfnSchedule, GemmSchedule};
pub use mapping::{schedule, MappingSchedule, OpTally, PhaseKind, PhaseSplit, StepKind, StepTrace};
pub use memory::{MemorySubsystem, Sram};
pub use pag::{simulate_pag, PagRun};
pub use pag_rtl::{simulate_pag_rtl, PagPortStats, PagRtlRun};
pub use power::{power_trace, PowerSample, PowerTrace};
pub use rtl::{RtlArray, RtlRun};
pub use rtl_datapath::{run_rtl_datapath, RtlDatapathRun};
pub use serving::{latency_percentile, poisson_trace, ServingMetrics, ServingRequest};
pub use system::{CtaSystem, LayerStep, SystemConfig, SystemRun, TaskCost};
pub use systolic::{Dataflow1Run, Dataflow2Run, SystolicArray};
pub use task::AttentionTask;
pub use trace::trace_schedule;
