//! # cta-telemetry — zero-cost tracing for the CTA simulator and fleet
//!
//! A small observability layer shared by `cta-sim` and `cta-serve`:
//!
//! - an allocation-free **event model** ([`Event`], [`TrackId`],
//!   [`SpanClass`]) where a track is one `(replica, module)` lane — SA,
//!   CIM, CAG, PAG, the host link, or the serving runtime;
//! - a [`TraceSink`] trait whose disabled implementation ([`NullSink`])
//!   compiles away entirely, so instrumented simulation paths are
//!   bit-for-bit identical with tracing on or off;
//! - a preallocated [`RingBufferSink`] that caps memory and degrades to
//!   "most recent window" on overflow;
//! - two exporters: [`chrome_trace_json`] (Chrome Trace Format, loadable
//!   in `chrome://tracing` / Perfetto) and [`AggregateReport`] (per-phase
//!   totals, bubble attribution, SA occupancy);
//! - a structural validator, [`validate_chrome_trace`], used by CI and by
//!   `cta trace --check`;
//! - the workspace's one JSON value type and reader, [`JsonValue`] and
//!   [`parse_json`]: the validator reads traces through it, `cta-bench`
//!   writes its reports with it and `chaos_sweep --replay` loads repro
//!   files through it;
//! - a pool-occupancy bridge, [`pool_occupancy_events`], that turns
//!   `cta-parallel` task spans into per-worker tracks for `--pool-trace`
//!   exports.

#![deny(missing_docs)]

mod aggregate;
mod chrome;
mod event;
mod json;
mod pool;
mod sink;

pub use aggregate::{AggregateReport, ReplicaStats};
pub use chrome::{chrome_trace_json, validate_chrome_trace, TraceStats};
pub use event::{Event, EventKind, Module, SpanClass, TrackId};
pub use json::{parse_json, JsonValue, MAX_JSON_DEPTH};
pub use pool::pool_occupancy_events;
pub use sink::{NullSink, RingBufferSink, TraceSink};
