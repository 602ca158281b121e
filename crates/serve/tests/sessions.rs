//! Streaming decode sessions: the scheduler-level guarantees.
//!
//! * **Sticky routing** — with [`SessionPolicy::sticky`] every completed
//!   turn of a healthy session lands on one replica and pays no state
//!   rebuild (`re_prefills == 0` without faults); the stateless ablation
//!   on the same trace re-prefills whenever routing moves a session.
//! * **Crash semantics** — evicting a replica kills the sessions resident
//!   on it: in-flight turns shed as [`ShedReason::SessionLost`] (never
//!   `ReplicaLost`), later turns of a lost session shed at arrival, and
//!   conservation still holds turn-for-turn.
//! * **Driver independence** — session bookkeeping lives in the shared
//!   handlers, so the step-tree driver reproduces the reference
//!   scan (`cta_serve::reference`) bitwise, faults included.
//! * **Sessions-off preservation** — a builder fleet without a session
//!   policy is bitwise the pre-session fleet on ordinary traffic (the
//!   golden suite pins the same property across every preset).

use cta_serve::{
    poisson_requests, reference, session_requests, simulate_fleet, AdmissionPolicy, BatchPolicy,
    CrashWindow, FaultPlan, FleetConfig, FleetReport, LoadSpec, RetryPolicy, RoutingPolicy,
    ServeRequest, SessionPolicy, ShedReason,
};
use cta_sim::{AttentionTask, SystemConfig};
use cta_workloads::SessionSpec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn spec() -> LoadSpec {
    LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 3, 4)
}

fn session_load(sessions: usize, seed: u64) -> Vec<ServeRequest> {
    let turns = SessionSpec::new(sessions, 2_000.0, 3.0, 1e-3);
    session_requests(&spec(), &turns, 0.02, 0.5, seed)
}

fn fleet(replicas: usize, policy: SessionPolicy) -> FleetConfig {
    FleetConfig::builder(SystemConfig::paper())
        .replicas(replicas)
        .routing(RoutingPolicy::LeastOutstandingWork)
        .admission(AdmissionPolicy::bounded(64))
        .batch(BatchPolicy::up_to(4))
        .sessions(policy)
        .build()
        .expect("valid session fleet")
}

/// Runs the same (config, trace) on the reference scan and the fleet
/// driver and returns the pair with the driver-only pending-event
/// samples cleared for full comparison.
fn with_reference(cfg: &FleetConfig, requests: &[ServeRequest]) -> (FleetReport, FleetReport) {
    let step = reference::simulate_fleet(cfg, requests);
    let mut event = simulate_fleet(cfg, requests);
    event.event_queue_samples.clear();
    (step, event)
}

#[test]
fn sticky_sessions_stay_on_one_replica_and_never_re_prefill_without_faults() {
    let requests = session_load(12, 7);
    let report = simulate_fleet(&fleet(3, SessionPolicy::sticky()), &requests);
    let stats = report.metrics.sessions.as_ref().expect("session fleet reports session stats");
    assert_eq!(stats.re_prefills, 0, "healthy sticky sessions never rebuild state");
    assert_eq!(stats.sessions_lost, 0);
    assert!(stats.turns_completed > 0);
    assert!(stats.mean_itl_s > 0.0 && stats.p99_itl_s >= stats.mean_itl_s);

    // Every completed turn of a session was served by the same replica.
    let mut home: BTreeMap<u64, usize> = BTreeMap::new();
    for c in &report.completions {
        let turn = c.session.expect("session trace completions carry their turn");
        let prev = home.insert(turn.session, c.replica);
        if let Some(p) = prev {
            assert_eq!(p, c.replica, "session {} moved replicas", turn.session);
        }
    }
}

#[test]
fn stateless_ablation_re_prefills_when_routing_moves_a_session() {
    // Round-robin + stateless: consecutive turns of the same session are
    // all but guaranteed to land on different replicas of a 3-wide fleet.
    let requests = session_load(12, 7);
    let mut cfg = fleet(3, SessionPolicy::stateless());
    cfg.routing = RoutingPolicy::RoundRobin;
    let report = simulate_fleet(&cfg, &requests);
    let stats = report.metrics.sessions.as_ref().expect("stats");
    assert!(stats.re_prefills > 0, "free routing must pay state rebuilds");
    assert!(stats.re_prefill_rate > 0.0);

    // Sticky on the identical trace completes at least as many turns and
    // rebuilds strictly less.
    let sticky = simulate_fleet(&fleet(3, SessionPolicy::sticky()), &requests);
    let sticky_stats = sticky.metrics.sessions.as_ref().expect("stats");
    assert!(sticky_stats.re_prefills < stats.re_prefills);
}

#[test]
fn a_crash_with_retries_moves_sessions_and_charges_re_prefills() {
    let requests = session_load(16, 3);
    let span = requests.last().expect("nonempty").arrival_s;
    let mut cfg = fleet(2, SessionPolicy::sticky());
    cfg.faults = FaultPlan {
        crashes: vec![CrashWindow { replica: 0, down_s: span * 0.3, up_s: Some(span * 0.9) }],
        ..FaultPlan::none()
    };
    let report = simulate_fleet(&cfg, &requests);
    let stats = report.metrics.sessions.as_ref().expect("stats");
    // Evicted state is rebuilt on the survivor: turns that follow a
    // moved session pay re-prefills instead of being lost.
    assert!(stats.re_prefills > 0, "a mid-trace crash must move at least one session");
    assert_eq!(report.metrics.completed + report.metrics.shed, requests.len());
}

#[test]
fn a_crash_sheds_resident_sessions_as_session_lost() {
    // Arrivals far outpace decode service, so replica 0 carries a deep
    // backlog when it dies; with no retry budget every orphaned turn
    // loses its session outright.
    let turns = SessionSpec::new(40, 400_000.0, 3.0, 1e-4);
    let requests = session_requests(&spec(), &turns, 0.02, 0.5, 3);
    let span = requests.last().expect("nonempty").arrival_s;
    let mut cfg = fleet(2, SessionPolicy::sticky());
    cfg.admission = AdmissionPolicy::admit_all();
    cfg.retry = RetryPolicy::never();
    // Knock replica 0 out mid-trace and never bring it back: every
    // session resident there loses its state.
    cfg.faults = FaultPlan {
        crashes: vec![CrashWindow { replica: 0, down_s: span * 0.4, up_s: None }],
        ..FaultPlan::none()
    };
    let report = simulate_fleet(&cfg, &requests);
    let stats = report.metrics.sessions.as_ref().expect("stats");

    let lost: Vec<_> = report.shed.iter().filter(|s| s.reason == ShedReason::SessionLost).collect();
    assert!(!lost.is_empty(), "a permanent mid-trace outage must lose sessions");
    assert_eq!(stats.turns_shed, lost.len(), "every session shed carries SessionLost");
    assert!(stats.sessions_lost > 0);
    // Session turns are never shed under the generic replica-loss reason.
    assert!(
        report.shed.iter().all(|s| s.reason != ShedReason::ReplicaLost),
        "session turns shed as SessionLost, not ReplicaLost"
    );
    // Conservation: every generated turn completes or sheds exactly once.
    assert_eq!(report.metrics.completed + report.metrics.shed, requests.len());
    // Once a session is lost, no later turn of it completes.
    let lost_ids: BTreeSet<u64> = lost.iter().map(|s| s.id).collect();
    let lost_sessions: BTreeSet<u64> = requests
        .iter()
        .filter(|r| lost_ids.contains(&r.id))
        .map(|r| r.session.expect("session trace").session)
        .collect();
    for c in &report.completions {
        let turn = c.session.expect("turn");
        if lost_sessions.contains(&turn.session) {
            let shed_arrivals: Vec<f64> = requests
                .iter()
                .filter(|r| {
                    lost_ids.contains(&r.id) && r.session.expect("turn").session == turn.session
                })
                .map(|r| r.arrival_s)
                .collect();
            let first_shed = shed_arrivals.iter().fold(f64::INFINITY, |a, &b| a.min(b));
            assert!(
                c.arrival_s < first_shed,
                "turn of session {} completed after the session was lost",
                turn.session
            );
        }
    }
}

#[test]
fn session_bookkeeping_is_engine_independent() {
    for seed in [1u64, 9, 42] {
        let requests = session_load(14, seed);
        let span = requests.last().expect("nonempty").arrival_s;
        let mut cfg = fleet(3, SessionPolicy::sticky());
        cfg.faults = FaultPlan::seeded(3, 2.0 * span, span / 2.0, span / 20.0, seed);
        let (step, event) = with_reference(&cfg, &requests);
        assert_eq!(step, event, "seed {seed}");
    }
}

#[test]
fn sessions_off_builder_fleet_is_bitwise_the_pre_session_fleet() {
    // The config the builder produces without .sessions() must drive
    // ordinary traffic exactly like the preset it documents.
    let requests = poisson_requests(&spec(), 40, 20_000.0, 5);
    let preset = simulate_fleet(&FleetConfig::sharded(SystemConfig::paper(), 3), &requests);
    let built = FleetConfig::builder(SystemConfig::paper())
        .replicas(3)
        .routing(RoutingPolicy::LeastOutstandingWork)
        .admission(AdmissionPolicy::bounded(64))
        .batch(BatchPolicy::up_to(4))
        .build()
        .expect("valid");
    let report = simulate_fleet(&built, &requests);
    assert_eq!(report, preset);
    assert!(report.metrics.sessions.is_none(), "no policy, no session stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sessions_conserve_turns_across_fleet_shapes(
        replicas in 1usize..4,
        sessions in 1usize..12,
        sticky in 0u8..2,
        seed in 0u64..500,
        faulty in 0u8..2,
    ) {
        let requests = session_load(sessions, seed);
        let policy =
            if sticky == 1 { SessionPolicy::sticky() } else { SessionPolicy::stateless() };
        let mut cfg = fleet(replicas, policy);
        if faulty == 1 {
            let span = requests.last().expect("nonempty").arrival_s.max(1e-6);
            cfg.faults = FaultPlan::seeded(replicas, 2.0 * span, span / 2.0, span / 10.0, seed);
        }
        let report = simulate_fleet(&cfg, &requests);
        prop_assert_eq!(report.metrics.completed + report.metrics.shed, requests.len());
        let stats = report.metrics.sessions.as_ref().expect("stats");
        prop_assert_eq!(stats.turns_completed, report.completions.len());
        prop_assert_eq!(stats.turns_shed, report.shed.len());
        // Distinct sessions observed never exceed those generated, and
        // lost sessions never exceed observed.
        prop_assert!(stats.sessions <= sessions);
        prop_assert!(stats.sessions_lost <= sessions);
        // The driver and the reference scan agree on every byte.
        let (step, event) = with_reference(&cfg, &requests);
        prop_assert_eq!(step, event);
    }
}
