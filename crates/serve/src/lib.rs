#![deny(missing_docs)]

//! `cta-serve`: a request-level serving runtime over the CTA system model.
//!
//! `cta-sim` answers "how fast does one request run on the pool?"
//! (`CtaSystem::run_layers`). This crate is the workspace's one serving
//! model and answers the deployment question — what does a *fleet* of
//! CTA pools sustain under an open-loop arrival process? — with
//! mechanisms a one-request-at-a-time FIFO queue lacks:
//!
//! * **continuous batching** ([`BatchPolicy`]) — replicas advance in
//!   layer steps and merge the current layers of all active requests into
//!   one dispatch, so short requests are never stuck behind long ones for
//!   more than a layer;
//! * **multi-replica sharding** ([`RoutingPolicy`]) — N independent
//!   `CtaSystem` instances behind round-robin, join-shortest-queue, or
//!   least-outstanding-work routing;
//! * **SLO-aware admission** ([`AdmissionPolicy`]) — queue-depth shedding
//!   with priority exemptions plus deadline shedding driven by the
//!   memoised [`CostModel`];
//! * **closed-loop overload control** ([`OverloadControl`]) — per-replica
//!   quality brownout over a calibrated ladder of cluster-budget
//!   operating points ([`BrownoutLadder`]), circuit breakers over the
//!   fault model ([`CircuitBreaker`]), and hedged dispatch for
//!   deadline-critical classes ([`HedgePolicy`]). Entirely off by
//!   default ([`OverloadControl::off`]); the disabled path is bitwise
//!   identical to the pre-overload runtime.
//! * **multi-tenant isolation** ([`TenancyConfig`]) — a deficit-round-
//!   robin / weighted-fair queue stage in front of admission, per-tenant
//!   token-bucket quotas ([`ShedReason::QuotaExceeded`]), and a
//!   deterministic autoscaler with warmup-charged scale-ups. Off by
//!   default (`tenancy: None` is bitwise the single-tenant fleet, and a
//!   one-tenant equal-weight DRR configuration is pinned bitwise against
//!   it); per-tenant goodput/latency/fairness lands in
//!   [`FleetMetrics::tenancy`].
//!
//! Everything is deterministic: seeded load generators
//! ([`poisson_requests`], [`mmpp_requests`], [`replay_trace`]),
//! tie-broken event ordering ([`simulate_fleet`]), and exact (not
//! sampled) percentile metrics ([`FleetMetrics`]). Configured down to one replica
//! with batching off and admission disabled ([`FleetConfig::single_fifo`]),
//! [`simulate_fleet`] is that FIFO queue, bit for bit — the `equivalence`
//! integration test pins it to the golden metrics of the standalone FIFO
//! model it replaced.
//!
//! The sweep binaries (`serve_sweep`, `degradation_sweep`,
//! `brownout_sweep`) are thin adapters over [`sweeps`], which in turn
//! builds on the shared [`harness`] API: one [`harness::SweepSpec`]
//! declaration per experiment, parallel grid evaluation on the
//! `cta-parallel` pool (`--jobs`), and an ordered reduction that keeps
//! every output byte independent of the worker count.
//!
//! # Example
//!
//! ```
//! use cta_serve::{simulate_fleet, FleetConfig, LoadSpec, poisson_requests};
//! use cta_sim::{AttentionTask, SystemConfig};
//!
//! let spec = LoadSpec::standard(
//!     AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 2, 4);
//! let requests = poisson_requests(&spec, 20, 500.0, 1);
//! let report = simulate_fleet(&FleetConfig::sharded(SystemConfig::paper(), 2), &requests);
//! assert_eq!(report.metrics.completed + report.metrics.shed, 20);
//! ```

mod admission;
mod cost;
mod detector;
mod engine;
mod fault;
mod fx;
pub mod harness;
mod loadgen;
mod metrics;
mod overload;
mod replica;
mod request;
mod rng;
mod routing;
mod runtime;
mod step_tree;
pub mod sweeps;

pub use admission::{AdmissionPolicy, ShedReason};
pub use cost::CostModel;
pub use detector::{DetectorPolicy, DetectorStats};
pub use fault::{
    CrashWindow, FaultPlan, FaultPlanError, GrayFailure, LinkStall, Partition, RetryPolicy,
    Slowdown, ZoneOutage,
};
pub use harness::{Harness, PointOutput, SweepSpec};
pub use loadgen::{
    mmpp_requests, poisson_requests, replay_trace, session_requests, LoadSpec, MmppParams,
    TraceError,
};
pub use metrics::{FleetMetrics, OverloadStats, SessionStats};
pub use overload::{
    BreakerEvent, BreakerPolicy, BreakerState, BrownoutConfig, BrownoutController, BrownoutLadder,
    BrownoutLevel, CircuitBreaker, ControllerPolicy, HedgePolicy, OverloadControl, Transition,
    MAX_BROWNOUT_LEVELS,
};
pub use replica::{BatchPolicy, Completion};
pub use request::{QosClass, ServeRequest, SessionTurn};
pub use rng::{mix64, DetRng};
pub use routing::RoutingPolicy;
pub use runtime::{
    simulate_fleet, simulate_fleet_traced, ConfigError, FleetConfig, FleetConfigBuilder,
    FleetReport, SessionPolicy, Shed,
};

/// `Err(reason)` unless `ok`: one structural rule of a `try_validate`.
pub(crate) fn ensure(ok: bool, reason: &'static str) -> Result<(), &'static str> {
    if ok {
        Ok(())
    } else {
        Err(reason)
    }
}

/// The step-granular reference scan: the oracle the equivalence suites
/// and the chaos `Equivalence` invariant compare [`simulate_fleet`]
/// against. It scans every replica per event (O(replicas)) for the
/// earliest step, where the production driver reads a tournament tree,
/// and runs the same cascade and handlers, so its reports and traces are
/// bitwise identical to the driver's, except that it leaves
/// [`FleetReport::event_queue_samples`] empty. Test use only.
#[doc(hidden)]
pub mod reference {
    use cta_telemetry::{NullSink, TraceSink};

    use crate::{FleetConfig, FleetReport, ServeRequest};

    /// [`crate::simulate_fleet`] on the reference scan.
    pub fn simulate_fleet(cfg: &FleetConfig, requests: &[ServeRequest]) -> FleetReport {
        simulate_fleet_traced(cfg, requests, &mut NullSink)
    }

    /// [`crate::simulate_fleet_traced`] on the reference scan.
    pub fn simulate_fleet_traced<S: TraceSink>(
        cfg: &FleetConfig,
        requests: &[ServeRequest],
        sink: &mut S,
    ) -> FleetReport {
        crate::engine::run_reference(cfg, requests, sink)
    }
}

pub use cta_tenancy::{
    AutoscalePolicy, Backpressure, QuotaPolicy, SchedulerPolicy, TenancyConfig, TenancyStats,
    TenantBreakdown,
};
