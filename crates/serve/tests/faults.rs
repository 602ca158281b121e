//! Fault-injection integration tests: the guarantees that make the
//! failure model trustworthy.
//!
//! * **Healthy-path preservation** — `FaultPlan::none()` reproduces the
//!   fault-free fleet bitwise, traced or untraced, and changing the
//!   [`RetryPolicy`] cannot perturb a run that never crashes.
//! * **Conservation under faults** — across randomly drawn fault
//!   schedules, every arrival is accounted for exactly once: completed,
//!   retried-then-completed, or shed with a reason; the retry counters
//!   reconcile against the per-outcome retry counts.
//! * **Determinism** — any (plan, seed) pair reproduces the identical
//!   [`FleetReport`], including the shed set, bit for bit.
//! * **Degradation semantics** — a crash makes the victim's availability
//!   drop below 1, orphaned work is requeued (or shed as `ReplicaLost`
//!   under `RetryPolicy::never()`), and the fault lane shows up in the
//!   trace exactly when the plan is non-empty.

use cta_serve::{
    poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, BatchPolicy,
    CrashWindow, FaultPlan, FleetConfig, LoadSpec, RetryPolicy, RoutingPolicy, ShedReason,
};
use cta_sim::{AttentionTask, SystemConfig};
use cta_telemetry::{chrome_trace_json, validate_chrome_trace, Module, RingBufferSink};
use proptest::prelude::*;

fn spec() -> LoadSpec {
    LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 3, 4)
}

fn config(replicas: usize, route: u8, batch: usize, depth: usize) -> FleetConfig {
    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), replicas);
    cfg.routing = match route % 3 {
        0 => RoutingPolicy::RoundRobin,
        1 => RoutingPolicy::JoinShortestQueue,
        _ => RoutingPolicy::LeastOutstandingWork,
    };
    cfg.batch = BatchPolicy::up_to(batch);
    cfg.admission = AdmissionPolicy::bounded(depth);
    cfg
}

/// A seeded plan scaled to the trace: MTBF of half the span, MTTR of a
/// twentieth, so a typical run sees a handful of crashes per replica.
fn scaled_plan(replicas: usize, span_s: f64, seed: u64) -> FaultPlan {
    FaultPlan::seeded(replicas, 2.0 * span_s, 0.5 * span_s, 0.05 * span_s, seed)
}

// --- healthy-path preservation -------------------------------------------

#[test]
fn empty_plan_reproduces_the_fault_free_fleet_bitwise() {
    for (replicas, batch) in [(1usize, 1usize), (2, 4), (4, 2)] {
        let requests = poisson_requests(&spec(), 48, 30_000.0, 11);
        let baseline_cfg = config(replicas, 1, batch, 8);
        assert!(baseline_cfg.faults.is_empty(), "constructors default to the healthy plan");
        let baseline = simulate_fleet(&baseline_cfg, &requests);

        // Explicit FaultPlan::none() and an arbitrary retry policy: the
        // retry machinery must be unreachable without a crash.
        let mut cfg = baseline_cfg.clone();
        cfg.faults = FaultPlan::none();
        cfg.retry = RetryPolicy { max_attempts: 17, backoff_s: 0.5, multiplier: 3.0 };
        assert_eq!(simulate_fleet(&cfg, &requests), baseline);

        // Traced healthy run: same report, and nothing on the fault lane.
        let mut sink = RingBufferSink::with_capacity(1 << 16);
        let traced = simulate_fleet_traced(&cfg, &requests, &mut sink);
        assert_eq!(traced, baseline);
        assert!(
            sink.events().iter().all(|e| e.track.module != Module::Fault),
            "healthy runs must not emit fault-lane events"
        );

        assert_eq!(baseline.metrics.retried, 0);
        assert_eq!(baseline.metrics.retry_events, 0);
        assert!(baseline.metrics.per_replica_availability.iter().all(|&a| a == 1.0));
    }
}

// --- degradation semantics ------------------------------------------------

#[test]
fn a_crash_degrades_availability_and_requeues_orphans() {
    let requests = poisson_requests(&spec(), 40, 20_000.0, 3);
    let span = requests.last().expect("non-empty").arrival_s;
    let mut cfg = config(2, 1, 2, 64);
    // Knock replica 0 out for the middle half of the trace.
    cfg.faults = FaultPlan {
        crashes: vec![CrashWindow { replica: 0, down_s: span * 0.25, up_s: Some(span * 0.75) }],
        ..FaultPlan::none()
    };
    let report = simulate_fleet(&cfg, &requests);
    let m = &report.metrics;

    assert_eq!(m.completed + m.shed, 40, "conservation under faults");
    assert!(
        m.per_replica_availability[0] < 1.0,
        "crashed replica availability {} must drop below 1",
        m.per_replica_availability[0]
    );
    assert_eq!(m.per_replica_availability[1], 1.0, "survivor stays fully available");
    // The outage lands mid-trace on a loaded replica: something must have
    // been evicted and either requeued or shed as ReplicaLost.
    let lost = report.shed.iter().filter(|s| s.reason == ShedReason::ReplicaLost).count();
    assert!(
        m.retry_events > 0 || lost > 0,
        "a mid-trace outage must orphan work (retries {}, lost {})",
        m.retry_events,
        lost
    );
    // Retried requests still complete under the standard budget unless the
    // fleet sheds them with an explicit reason — never silently.
    for s in &report.shed {
        assert!(
            s.reason == ShedReason::ReplicaLost || s.retries == 0,
            "retried requests can only be shed as ReplicaLost"
        );
    }
}

#[test]
fn retry_never_sheds_every_orphan_as_replica_lost() {
    let requests = poisson_requests(&spec(), 40, 20_000.0, 3);
    let span = requests.last().expect("non-empty").arrival_s;
    let mut cfg = config(2, 1, 2, 64);
    cfg.faults = FaultPlan {
        crashes: vec![CrashWindow { replica: 0, down_s: span * 0.25, up_s: Some(span * 0.75) }],
        ..FaultPlan::none()
    };
    cfg.retry = RetryPolicy::never();
    let report = simulate_fleet(&cfg, &requests);

    assert_eq!(report.metrics.retry_events, 0, "never() forbids requeues");
    let lost = report.shed.iter().filter(|s| s.reason == ShedReason::ReplicaLost).count();
    assert!(lost > 0, "orphans must be shed when the retry budget is zero");

    // The same schedule under the standard budget sheds fewer (or equal)
    // requests: retries are graceful degradation, not churn.
    let mut retry_cfg = cfg.clone();
    retry_cfg.retry = RetryPolicy::standard();
    let retried = simulate_fleet(&retry_cfg, &requests);
    assert!(
        retried.metrics.completed >= report.metrics.completed,
        "a retry budget must not lose completions ({} vs {})",
        retried.metrics.completed,
        report.metrics.completed
    );
}

#[test]
fn fault_lane_appears_in_traces_exactly_when_faults_fire() {
    let requests = poisson_requests(&spec(), 40, 25_000.0, 5);
    let span = requests.last().expect("non-empty").arrival_s;
    let mut cfg = config(2, 2, 2, 64);
    cfg.faults = scaled_plan(2, span, 21);
    assert!(!cfg.faults.is_empty());

    let mut sink = RingBufferSink::with_capacity(1 << 16);
    let traced = simulate_fleet_traced(&cfg, &requests, &mut sink);
    assert_eq!(traced, simulate_fleet(&cfg, &requests), "tracing never changes a faulty run");

    let events = sink.events();
    assert!(
        events.iter().any(|e| e.track.module == Module::Fault),
        "a crashing run must emit fault-lane events"
    );
    // The export — fault lane included — still passes the Chrome validator.
    validate_chrome_trace(&chrome_trace_json(&events)).expect("faulty trace validates");
}

// --- conservation + determinism across random schedules (property) --------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn faults_conserve_requests_and_reconcile_retry_counters(
        replicas in 1usize..5,
        route in 0u8..3,
        batch in 1usize..5,
        depth in 1usize..8,
        count in 1usize..60,
        rate in 1_000.0f64..40_000.0,
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        max_attempts in 0u32..5,
    ) {
        let requests = poisson_requests(&spec(), count, rate, seed);
        let span = requests.last().expect("non-empty").arrival_s.max(1e-9);
        let mut cfg = config(replicas, route, batch, depth);
        cfg.faults = scaled_plan(replicas, span, fault_seed);
        cfg.retry = RetryPolicy { max_attempts, backoff_s: 1e-5, multiplier: 2.0 };
        let report = simulate_fleet(&cfg, &requests);

        // Every arrival exactly once across completions ∪ shed.
        prop_assert_eq!(report.metrics.completed + report.metrics.shed, count);
        let mut ids: Vec<u64> = report
            .completions.iter().map(|c| c.id)
            .chain(report.shed.iter().map(|s| s.id))
            .collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..count as u64).collect::<Vec<_>>());

        // Retry counters reconcile against the per-outcome counts.
        let retries: Vec<u32> = report
            .completions.iter().map(|c| c.retries)
            .chain(report.shed.iter().map(|s| s.retries))
            .collect();
        prop_assert_eq!(
            report.metrics.retry_events as u64,
            retries.iter().map(|&r| r as u64).sum::<u64>()
        );
        prop_assert_eq!(
            report.metrics.retried,
            retries.iter().filter(|&&r| r > 0).count()
        );
        // The budget is a hard bound.
        prop_assert!(retries.iter().all(|&r| r <= max_attempts));
        // Availability is a fraction.
        prop_assert!(report
            .metrics.per_replica_availability.iter()
            .all(|a| (0.0..=1.0).contains(a)));
    }

    #[test]
    fn any_fault_plan_and_seed_reproduce_the_report_bitwise(
        replicas in 1usize..4,
        route in 0u8..3,
        batch in 1usize..4,
        depth in 1usize..6,
        count in 1usize..40,
        seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
    ) {
        let requests = poisson_requests(&spec(), count, 20_000.0, seed);
        let span = requests.last().expect("non-empty").arrival_s.max(1e-9);
        let mut cfg = config(replicas, route, batch, depth);
        cfg.faults = scaled_plan(replicas, span, fault_seed);
        prop_assert_eq!(&cfg.faults, &scaled_plan(replicas, span, fault_seed));

        let a = simulate_fleet(&cfg, &requests);
        let b = simulate_fleet(&cfg, &requests);
        prop_assert_eq!(&a, &b, "identical plan + trace must reproduce bitwise");

        // The shed set — ids, reasons, retry counts — is part of that
        // guarantee.
        let sheds: Vec<(u64, ShedReason, u32)> =
            a.shed.iter().map(|s| (s.id, s.reason, s.retries)).collect();
        let sheds_b: Vec<(u64, ShedReason, u32)> =
            b.shed.iter().map(|s| (s.id, s.reason, s.retries)).collect();
        prop_assert_eq!(sheds, sheds_b);
    }
}
