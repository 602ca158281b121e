//! The discrete-event fleet runtime: configuration, report, and the
//! public simulation entry points.
//!
//! A run interleaves five event sources in time order: fault transitions
//! from the [`FaultPlan`], request arrivals (routed and admission-checked
//! the instant they occur), retry requeues of crash-evicted requests,
//! hedge timers (see [`crate::OverloadControl`]), and per-replica layer
//! steps (see [`crate::replica`]). All state evolution is pure `f64`
//! arithmetic over the trace, so a fixed trace, configuration and fault
//! plan always reproduce the same report, and every mechanism left off
//! ([`FaultPlan::none`], [`OverloadControl::off`], no tenancy, detector
//! or sessions) stays fully dormant (pinned bitwise by the goldens). The
//! staged engine and its event order are described in [`crate::engine`].

use cta_telemetry::{NullSink, TraceSink};

use crate::replica::Completion;
use crate::{
    AdmissionPolicy, BatchPolicy, FaultPlan, FaultPlanError, FleetMetrics, OverloadControl,
    RetryPolicy, RoutingPolicy, ServeRequest, ShedReason,
};

/// A request rejected by admission control or orphaned by a crash.
#[derive(Debug, Clone, PartialEq)]
pub struct Shed {
    /// The request id.
    pub id: u64,
    /// Class name of the request.
    pub class: &'static str,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Why it was shed.
    pub reason: ShedReason,
    /// Crash-eviction requeues the request survived before being shed
    /// (0 for arrival-time sheds).
    pub retries: u32,
    /// Owning tenant id (0 in single-tenant configurations).
    pub tenant: u32,
}

/// How the fleet treats long-lived decode sessions (requests tagged
/// with a [`SessionTurn`](crate::SessionTurn)).
///
/// The policy only governs *scheduler* behaviour — decode pricing is
/// intrinsic to the tagged request. `None` in [`FleetConfig::sessions`]
/// is the pre-session fleet, bitwise (and session-tagged requests are
/// rejected up front).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionPolicy {
    /// Route each turn back to the replica holding its session state
    /// whenever that replica is routable. Off: every turn routes by the
    /// configured [`RoutingPolicy`] and pays a state rebuild on each
    /// replica move.
    pub sticky: bool,
    /// Fold resident session state into replica occupancy
    /// (least-outstanding-work routing then sees held state as load).
    pub account_state: bool,
}

impl SessionPolicy {
    /// The production default: sticky routing with state accounting.
    pub fn sticky() -> Self {
        Self { sticky: true, account_state: true }
    }

    /// Sessions priced but not pinned: every turn re-routes freely (the
    /// ablation baseline sticky routing is measured against).
    pub fn stateless() -> Self {
        Self { sticky: false, account_state: false }
    }
}

/// Why [`FleetConfig::try_validate`] (and so [`FleetConfigBuilder::build`])
/// refused a configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The fleet was configured with zero replicas.
    NoReplicas,
    /// The fault plan is malformed for the configured fleet width.
    Faults(FaultPlanError),
    /// The per-replica unit pool is malformed (no units, or a host link
    /// bandwidth that is not positive).
    System(&'static str),
    /// The per-unit hardware configuration is malformed.
    Hardware(cta_sim::HwConfigError),
    /// The batch width is zero: no request could ever join a step.
    NoBatch,
    /// The brownout controller's thresholds are malformed.
    Brownout(&'static str),
    /// The circuit-breaker policy is malformed.
    Breaker(&'static str),
    /// The hedge policy is malformed.
    Hedge(&'static str),
    /// The tenancy configuration (weights, quota or autoscaler) is
    /// malformed for the fleet width.
    Tenancy(&'static str),
    /// The failure-detector policy is malformed.
    Detector(&'static str),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoReplicas => write!(f, "at least one replica"),
            ConfigError::Faults(e) => write!(f, "invalid fault plan: {e}"),
            ConfigError::System(why) => write!(f, "invalid system: {why}"),
            ConfigError::Hardware(e) => write!(f, "invalid hardware: {e}"),
            ConfigError::NoBatch => write!(f, "batch width must be positive"),
            ConfigError::Brownout(why) => write!(f, "invalid brownout controller: {why}"),
            ConfigError::Breaker(why) => write!(f, "invalid breaker policy: {why}"),
            ConfigError::Hedge(why) => write!(f, "invalid hedge policy: {why}"),
            ConfigError::Tenancy(why) => write!(f, "invalid tenancy: {why}"),
            ConfigError::Detector(why) => write!(f, "invalid detector policy: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Faults(e) => Some(e),
            ConfigError::Hardware(e) => Some(e),
            _ => None,
        }
    }
}

/// Full fleet configuration.
///
/// Construct one with [`FleetConfig::builder`] (or the
/// [`single_fifo`](FleetConfig::single_fifo) /
/// [`sharded`](FleetConfig::sharded) presets, which are builder
/// shorthands) and adjust the public fields afterwards if needed. The
/// struct is `#[non_exhaustive]`: new subsystems add fields without
/// breaking downstream construction sites.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Per-replica system (all replicas share one configuration, so task
    /// costs are memoised fleet-wide).
    pub system: cta_sim::SystemConfig,
    /// Number of independent replicas.
    pub replicas: usize,
    /// Arrival routing policy.
    pub routing: RoutingPolicy,
    /// Admission control.
    pub admission: AdmissionPolicy,
    /// Continuous-batching width.
    pub batch: BatchPolicy,
    /// Deterministic fault schedule ([`FaultPlan::none`] = healthy run).
    pub faults: FaultPlan,
    /// Retry budget for requests evicted by a crash.
    pub retry: RetryPolicy,
    /// Closed-loop overload control ([`OverloadControl::off`] = the plain
    /// fleet, bitwise).
    pub overload: OverloadControl,
    /// Multi-tenant fair scheduling, quotas, and autoscaling (`None` =
    /// the single-tenant fleet, bitwise; a one-tenant equal-weight DRR
    /// configuration with shed backpressure is also pinned bitwise
    /// against `None`).
    pub tenancy: Option<cta_tenancy::TenancyConfig>,
    /// Phi-accrual failure detection and quarantine (`None` = routing
    /// trusts `up` alone — the pre-detector fleet, bitwise; pinned).
    pub detector: Option<crate::DetectorPolicy>,
    /// Long-lived decode sessions: sticky routing and state accounting
    /// for session-tagged requests (`None` = the pre-session fleet,
    /// bitwise; session-tagged requests are then rejected up front).
    pub sessions: Option<SessionPolicy>,
}

impl FleetConfig {
    /// Starts a builder whose defaults are the
    /// [`single_fifo`](FleetConfig::single_fifo) baseline: one replica,
    /// round-robin routing, batching off, admit everything, no faults, no
    /// overload control, no tenancy, no detector, no sessions.
    pub fn builder(system: cta_sim::SystemConfig) -> FleetConfigBuilder {
        FleetConfigBuilder {
            cfg: FleetConfig {
                system,
                replicas: 1,
                routing: RoutingPolicy::RoundRobin,
                admission: AdmissionPolicy::admit_all(),
                batch: BatchPolicy::off(),
                faults: FaultPlan::none(),
                retry: RetryPolicy::standard(),
                overload: OverloadControl::off(),
                tenancy: None,
                detector: None,
                sessions: None,
            },
        }
    }

    /// The compatibility configuration: one replica, round-robin (trivial)
    /// routing, batching off, admit everything, no faults — a FIFO queue
    /// serving one request at a time. In this configuration
    /// [`simulate_fleet`] reproduces the retired standalone FIFO model
    /// exactly (pinned to its golden metrics).
    pub fn single_fifo(system: cta_sim::SystemConfig) -> Self {
        Self::builder(system).build().expect("the single-replica baseline is always valid")
    }

    /// The one list of structural rules both [`FleetConfigBuilder::build`]
    /// and [`simulate_fleet`] apply; returns the first violation.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.replicas == 0 {
            return Err(ConfigError::NoReplicas);
        }
        self.faults.try_validate(self.replicas).map_err(ConfigError::Faults)?;
        self.system.try_validate().map_err(ConfigError::System)?;
        self.system.hw.try_validate().map_err(ConfigError::Hardware)?;
        if self.batch.max_active_requests == 0 {
            return Err(ConfigError::NoBatch);
        }
        if let Some(b) = &self.overload.brownout {
            b.policy.try_validate().map_err(ConfigError::Brownout)?;
        }
        if let Some(b) = &self.overload.breaker {
            b.try_validate().map_err(ConfigError::Breaker)?;
        }
        if let Some(h) = &self.overload.hedge {
            h.try_validate().map_err(ConfigError::Hedge)?;
        }
        if let Some(t) = &self.tenancy {
            t.try_validate(self.replicas).map_err(ConfigError::Tenancy)?;
        }
        if let Some(d) = &self.detector {
            d.try_validate().map_err(ConfigError::Detector)?;
        }
        Ok(())
    }

    /// A sharded fleet at the given width with sensible production
    /// defaults: least-outstanding-work routing, bounded queues, batching
    /// up to 4 requests.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn sharded(system: cta_sim::SystemConfig, replicas: usize) -> Self {
        assert!(replicas > 0, "at least one replica");
        Self::builder(system)
            .replicas(replicas)
            .routing(RoutingPolicy::LeastOutstandingWork)
            .admission(AdmissionPolicy::bounded(64))
            .batch(BatchPolicy::up_to(4))
            .build()
            .expect("the sharded preset is always valid")
    }
}

/// Builder for [`FleetConfig`]: starts from the pinned single-replica
/// baseline and layers subsystems on. [`build`](Self::build) runs the
/// validation that used to be scattered across `simulate_fleet`
/// preconditions, returning [`ConfigError`] instead of panicking.
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    cfg: FleetConfig,
}

impl FleetConfigBuilder {
    /// Fleet width.
    pub fn replicas(mut self, n: usize) -> Self {
        self.cfg.replicas = n;
        self
    }

    /// Arrival routing policy.
    pub fn routing(mut self, routing: RoutingPolicy) -> Self {
        self.cfg.routing = routing;
        self
    }

    /// Admission control.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.cfg.admission = admission;
        self
    }

    /// Continuous-batching width.
    pub fn batch(mut self, batch: BatchPolicy) -> Self {
        self.cfg.batch = batch;
        self
    }

    /// Deterministic fault schedule.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Retry budget for crash-evicted requests.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.cfg.retry = retry;
        self
    }

    /// Closed-loop overload control.
    pub fn overload(mut self, overload: OverloadControl) -> Self {
        self.cfg.overload = overload;
        self
    }

    /// Multi-tenant fair scheduling, quotas, and autoscaling.
    pub fn tenancy(mut self, tenancy: cta_tenancy::TenancyConfig) -> Self {
        self.cfg.tenancy = Some(tenancy);
        self
    }

    /// Phi-accrual failure detection and quarantine.
    pub fn detector(mut self, detector: crate::DetectorPolicy) -> Self {
        self.cfg.detector = Some(detector);
        self
    }

    /// Long-lived decode sessions.
    pub fn sessions(mut self, sessions: SessionPolicy) -> Self {
        self.cfg.sessions = Some(sessions);
        self
    }

    /// Validates and produces the configuration: every part
    /// [`simulate_fleet`] would otherwise reject with a panic is checked
    /// here and reported as the first [`ConfigError`] found
    /// ([`FleetConfig::try_validate`]).
    pub fn build(self) -> Result<FleetConfig, ConfigError> {
        self.cfg.try_validate()?;
        Ok(self.cfg)
    }
}

/// Everything a fleet simulation produced.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Aggregate metrics.
    pub metrics: FleetMetrics,
    /// Every completion, in completion order.
    pub completions: Vec<Completion>,
    /// Every shed request, in arrival order.
    pub shed: Vec<Shed>,
    /// Simulated events processed (handler invocations); equal to the
    /// reference scan's count — the equivalence tests assert it.
    pub events_processed: u64,
    /// Pending-event samples `(time_s, pending_events)` taken after
    /// every 64th event: the event's instant and how many events were
    /// then still pending — the next fault and the next arrival, every
    /// retry backoff and hedge timer, and one step per replica that has
    /// one scheduled ([`crate::reference`] leaves it empty: the scan
    /// keeps no step index to count). It feeds the telemetry `events`
    /// lane in `planet_sweep` without touching the traced handler path,
    /// so trace bytes match the reference scan's.
    pub event_queue_samples: Vec<(f64, usize)>,
}

/// Plays `requests` (sorted by arrival) through the fleet.
///
/// # Panics
///
/// Panics if `cfg` fails [`FleetConfig::try_validate`] (with that
/// error's message), if `requests` is empty or not sorted by arrival
/// time (a NaN arrival counts as unsorted), if a request carries a
/// session turn while `cfg.sessions` is `None`, or if a request's tenant
/// id is out of range for `cfg.tenancy`.
pub fn simulate_fleet(cfg: &FleetConfig, requests: &[ServeRequest]) -> FleetReport {
    simulate_fleet_traced(cfg, requests, &mut NullSink)
}

/// [`simulate_fleet`] with telemetry: every replica's layer steps, host
/// transfers, request lifecycle intervals and queue-depth counters are
/// emitted to `sink`.
///
/// The sink is generic over [`TraceSink`], and instrumentation is guarded
/// by its `ENABLED` constant, so with [`NullSink`] this *is*
/// [`simulate_fleet`] — same instructions, bitwise-identical report (the
/// determinism-guard integration test pins this). The trace bytes also
/// match [`crate::reference`]'s: both drivers run the same instrumented
/// handlers in the same order.
///
/// # Panics
///
/// Panics under the same conditions as [`simulate_fleet`]: a `cfg` that
/// fails [`FleetConfig::try_validate`], empty or unsorted `requests`,
/// session-tagged requests without a session policy, or a tenant id out
/// of range for the tenancy configuration.
pub fn simulate_fleet_traced<S: TraceSink>(
    cfg: &FleetConfig,
    requests: &[ServeRequest],
    sink: &mut S,
) -> FleetReport {
    crate::engine::run(cfg, requests, sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QosClass;
    use cta_sim::{AttentionTask, SystemConfig};

    fn task() -> AttentionTask {
        AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6)
    }

    fn trace(n: usize, gap_s: f64) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                ServeRequest::uniform(
                    i as u64,
                    i as f64 * gap_s,
                    QosClass::standard(),
                    task(),
                    2,
                    4,
                )
            })
            .collect()
    }

    #[test]
    fn conservation_holds() {
        let cfg = FleetConfig::sharded(SystemConfig::paper(), 3);
        let report = simulate_fleet(&cfg, &trace(40, 1e-5));
        assert_eq!(report.metrics.completed + report.metrics.shed, 40);
        assert_eq!(report.completions.len() + report.shed.len(), 40);
    }

    #[test]
    fn more_replicas_cut_tail_latency_under_load() {
        let requests = trace(60, 1e-5); // heavy burst
        let one = simulate_fleet(&FleetConfig::single_fifo(SystemConfig::paper()), &requests);
        let mut cfg4 = FleetConfig::single_fifo(SystemConfig::paper());
        cfg4.replicas = 4;
        cfg4.routing = RoutingPolicy::JoinShortestQueue;
        let four = simulate_fleet(&cfg4, &requests);
        let p99_1 = one.metrics.latency.as_ref().expect("completions").p99_s;
        let p99_4 = four.metrics.latency.as_ref().expect("completions").p99_s;
        assert!(p99_4 < p99_1 / 2.0, "4 replicas p99 {p99_4} vs 1 replica {p99_1}");
    }

    #[test]
    fn deadline_shedding_caps_tail_and_reports_shed() {
        let mut requests = trace(50, 1e-5);
        for r in &mut requests {
            r.class = QosClass { name: "tight", priority: 100, deadline_s: Some(5e-4) };
        }
        let mut cfg = FleetConfig::single_fifo(SystemConfig::paper());
        cfg.admission.enforce_deadlines = true;
        let report = simulate_fleet(&cfg, &requests);
        assert!(report.metrics.shed > 0, "overload with tight deadline must shed");
        // Everything that did complete met the deadline (admission only
        // admits meetable work, and estimates are solo lower bounds that
        // are exact when batching is off and queue estimates are exact).
        for c in &report.completions {
            assert_eq!(c.deadline_met, Some(true), "completion {} missed", c.id);
        }
    }

    #[test]
    fn queue_depth_shedding_triggers_under_burst() {
        let mut cfg = FleetConfig::single_fifo(SystemConfig::paper());
        cfg.admission = AdmissionPolicy::bounded(2);
        let report = simulate_fleet(&cfg, &trace(30, 1e-6));
        assert!(report.metrics.shed > 0);
        assert!(report.shed.iter().all(|s| s.reason == ShedReason::QueueFull));
    }

    #[test]
    fn interactive_class_overtakes_batch_backlog() {
        // 10 batch requests arrive at t=0; an interactive one arrives
        // just after. With priorities it should complete far earlier than
        // the batch tail.
        let mut requests: Vec<ServeRequest> = (0..10)
            .map(|i| ServeRequest::uniform(i, 0.0, QosClass::batch(), task(), 2, 4))
            .collect();
        requests.push(ServeRequest::uniform(10, 1e-6, QosClass::interactive(10.0), task(), 2, 4));
        requests.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite"));
        let cfg = FleetConfig::single_fifo(SystemConfig::paper());
        let report = simulate_fleet(&cfg, &requests);
        let finish =
            |id: u64| report.completions.iter().find(|c| c.id == id).expect("completed").finish_s;
        let batch_last = (0..10).map(finish).fold(0.0, f64::max);
        assert!(finish(10) < batch_last, "interactive must not wait out the batch backlog");
    }

    #[test]
    fn deterministic_for_identical_inputs() {
        let cfg = FleetConfig::sharded(SystemConfig::paper(), 2);
        let requests = trace(25, 1e-4);
        let a = simulate_fleet(&cfg, &requests);
        let b = simulate_fleet(&cfg, &requests);
        assert_eq!(a, b);
    }

    #[test]
    fn event_engine_matches_step_engine_on_a_sharded_fleet() {
        let requests = trace(40, 1e-5);
        let cfg = FleetConfig::sharded(SystemConfig::paper(), 3);
        let event = simulate_fleet(&cfg, &requests);
        let step = crate::reference::simulate_fleet(&cfg, &requests);
        assert_eq!(step.metrics, event.metrics);
        assert_eq!(step.completions, event.completions);
        assert_eq!(step.shed, event.shed);
        assert_eq!(step.events_processed, event.events_processed);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_requests_rejected() {
        let cfg = FleetConfig::single_fifo(SystemConfig::paper());
        let a = ServeRequest::uniform(0, 1.0, QosClass::standard(), task(), 1, 1);
        let b = ServeRequest::uniform(1, 0.0, QosClass::standard(), task(), 1, 1);
        let _ = simulate_fleet(&cfg, &[a, b]);
    }

    #[test]
    fn builder_defaults_reproduce_the_single_fifo_baseline() {
        let built = FleetConfig::builder(SystemConfig::paper()).build().expect("valid");
        assert_eq!(built, FleetConfig::single_fifo(SystemConfig::paper()));
        assert_eq!(built.replicas, 1);
        assert!(built.faults.is_empty());
        assert!(built.tenancy.is_none() && built.detector.is_none() && built.sessions.is_none());
        // And the sharded preset is the builder shorthand it documents.
        let sharded = FleetConfig::sharded(SystemConfig::paper(), 3);
        assert_eq!(sharded.replicas, 3);
        assert_eq!(sharded.routing, RoutingPolicy::LeastOutstandingWork);
    }

    #[test]
    fn builder_rejects_zero_replicas_and_malformed_fault_plans() {
        let err = FleetConfig::builder(SystemConfig::paper()).replicas(0).build().unwrap_err();
        assert_eq!(err, ConfigError::NoReplicas);
        assert_eq!(err.to_string(), "at least one replica");

        // A crash window naming a replica the fleet does not have.
        let bad = FaultPlan {
            crashes: vec![crate::CrashWindow { replica: 5, down_s: 1.0, up_s: Some(2.0) }],
            ..FaultPlan::none()
        };
        let err = FleetConfig::builder(SystemConfig::paper())
            .replicas(2)
            .faults(bad)
            .build()
            .unwrap_err();
        match &err {
            ConfigError::Faults(FaultPlanError::ReplicaOutOfRange { what, replica }) => {
                assert_eq!((*what, *replica), ("crash", 5));
            }
            other => panic!("expected a fault-plan error, got {other:?}"),
        }
        assert!(err.to_string().starts_with("invalid fault plan:"));
        assert!(std::error::Error::source(&err).is_some(), "Faults keeps its cause");
    }

    #[test]
    fn simulate_fleet_panics_with_the_config_error_build_returns() {
        // A config edited after `build` meets the same check list in
        // `simulate_fleet`, which panics with that error's message.
        let mut cfg = FleetConfig::sharded(SystemConfig::paper(), 2);
        cfg.detector = Some(crate::DetectorPolicy {
            phi_threshold: -1.0,
            ..crate::DetectorPolicy::standard()
        });
        let err = cfg.try_validate().unwrap_err();
        let payload = std::panic::catch_unwind(|| simulate_fleet(&cfg, &trace(4, 1e-4)))
            .expect_err("a malformed config must be rejected");
        assert_eq!(payload.downcast_ref::<String>(), Some(&err.to_string()));
    }

    #[test]
    fn builder_rejects_each_malformed_subsystem_with_its_variant() {
        let base = || FleetConfig::builder(SystemConfig::paper()).replicas(2);
        // A negative phi threshold used to pass `build` and then panic
        // inside `simulate_fleet`.
        let detector =
            crate::DetectorPolicy { phi_threshold: -1.0, ..crate::DetectorPolicy::standard() };
        let err = base().detector(detector).build().unwrap_err();
        assert_eq!(err, ConfigError::Detector("phi threshold must be positive and finite"));
        assert_eq!(
            err.to_string(),
            "invalid detector policy: phi threshold must be positive and finite"
        );

        let hedge = crate::HedgePolicy { quantile: f64::NAN, ..crate::HedgePolicy::standard() };
        let overload = OverloadControl { hedge: Some(hedge), ..OverloadControl::off() };
        assert!(matches!(base().overload(overload).build(), Err(ConfigError::Hedge(_))));

        let breaker = crate::BreakerPolicy { failure_threshold: 0, cooldown_s: 1.0 };
        let overload = OverloadControl { breaker: Some(breaker), ..OverloadControl::off() };
        assert!(matches!(base().overload(overload).build(), Err(ConfigError::Breaker(_))));

        let mut brownout = crate::BrownoutConfig::standard();
        brownout.policy.depth_down = brownout.policy.depth_up;
        let overload = OverloadControl { brownout: Some(brownout), ..OverloadControl::off() };
        assert!(matches!(base().overload(overload).build(), Err(ConfigError::Brownout(_))));

        let mut tenancy =
            cta_tenancy::TenancyConfig::equal_weight(2, cta_tenancy::SchedulerPolicy::Drr);
        tenancy.autoscale = Some(cta_tenancy::AutoscalePolicy::reactive(1, 3, 0.0));
        assert_eq!(
            base().tenancy(tenancy).build().unwrap_err(),
            ConfigError::Tenancy("autoscaler ceiling exceeds the fleet")
        );

        assert_eq!(
            base().batch(BatchPolicy { max_active_requests: 0 }).build().unwrap_err(),
            ConfigError::NoBatch
        );
        let system = SystemConfig { host_link_gbs: f64::NAN, ..SystemConfig::paper() };
        assert!(matches!(
            FleetConfig::builder(system).build(),
            Err(ConfigError::System("host link bandwidth must be positive"))
        ));
        let hw = cta_sim::HwConfig { pag_tiles: 0, ..cta_sim::HwConfig::paper() };
        let err = FleetConfig::builder(SystemConfig::paper().with_hw(hw)).build().unwrap_err();
        assert!(matches!(err, ConfigError::Hardware(_)));
        assert!(std::error::Error::source(&err).is_some(), "Hardware keeps its cause");
    }

    #[test]
    fn builder_layers_subsystems_without_disturbing_defaults() {
        let cfg = FleetConfig::builder(SystemConfig::paper())
            .replicas(4)
            .routing(RoutingPolicy::JoinShortestQueue)
            .batch(BatchPolicy::up_to(2))
            .sessions(SessionPolicy::sticky())
            .build()
            .expect("valid");
        assert_eq!(cfg.replicas, 4);
        assert_eq!(cfg.sessions, Some(SessionPolicy::sticky()));
        // Untouched knobs keep the baseline values.
        assert_eq!(cfg.admission, AdmissionPolicy::admit_all());
        assert_eq!(cfg.overload, OverloadControl::off());
        assert!(cfg.tenancy.is_none() && cfg.detector.is_none());
    }

    #[test]
    fn session_policy_presets_differ_only_in_scheduling() {
        assert_eq!(SessionPolicy::sticky(), SessionPolicy { sticky: true, account_state: true });
        assert_eq!(
            SessionPolicy::stateless(),
            SessionPolicy { sticky: false, account_state: false }
        );
    }

    #[test]
    #[should_panic(expected = "session-tagged requests require a session policy")]
    fn session_requests_without_a_policy_are_rejected() {
        let cfg = FleetConfig::single_fifo(SystemConfig::paper());
        let turn =
            crate::SessionTurn { session: 0, turn: 0, decode_tokens: 8, reclusters: 0, last: true };
        let r =
            ServeRequest::uniform(0, 0.0, QosClass::standard(), task(), 2, 4).with_session(turn);
        let _ = simulate_fleet(&cfg, &[r]);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn nan_arrival_rejected_up_front_rather_than_livelocking() {
        // A NaN timestamp defeats every `<=` the event loop orders by;
        // the sortedness precondition must reject it before the loop
        // starts (NaN makes the windows comparison false).
        let cfg = FleetConfig::single_fifo(SystemConfig::paper());
        let a = ServeRequest::uniform(0, 0.0, QosClass::standard(), task(), 1, 1);
        let mut b = ServeRequest::uniform(1, 1.0, QosClass::standard(), task(), 1, 1);
        b.arrival_s = f64::NAN;
        let _ = simulate_fleet(&cfg, &[a, b]);
    }
}
