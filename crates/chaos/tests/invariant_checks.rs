//! Each check of the invariant library fires on the corruption it names.
//!
//! The sweep suites show that honest runs pass every check and that one
//! injected bookkeeping bug (a dropped shed record) is caught. These
//! tests pin the rest of the net: one clean fleet run with tenancy, the
//! failure detector and sessions armed is corrupted in exactly one place
//! per test, the way a bookkeeping bug in the engine or the metrics layer
//! would corrupt it, and [`check_report`] / [`check_equivalence`] must
//! report a violation of the named kind with the check's own message.

use cta_chaos::{
    check_equivalence, check_report, ChaosParams, ChaosScenario, InvariantKind, Toggle, Violation,
};
use cta_serve::{simulate_fleet, FleetReport, ServeRequest, ShedReason};

/// One clean run to corrupt: the scenario, the trace it served and the
/// fleet driver's report.
struct Fixture {
    sc: ChaosScenario,
    trace: Vec<ServeRequest>,
    report: FleetReport,
}

/// Seed 27 with tenancy, detector and sessions forced on: two replicas,
/// a zone outage on one of them only, sheds (some `SessionLost`),
/// retried requests, a quarantine with a positive detection latency and
/// more than 20 completions, so every guarded check is live.
fn fixture() -> Fixture {
    let params = ChaosParams {
        tenancy: Toggle::On,
        detector: Toggle::On,
        sessions: Toggle::On,
        ..ChaosParams::default()
    };
    let sc = ChaosScenario::sample(27, &params);
    let trace = sc.trace();
    let report = simulate_fleet(&sc.fleet_config(), &trace);
    let m = &report.metrics;
    assert_eq!(sc.tenants, 2);
    assert!(sc.detector && sc.sessions);
    assert!(m.completed >= 20, "fairness needs 20 completions, got {}", m.completed);
    assert!(report.completions.len() >= 2 && !report.shed.is_empty());
    assert!(report.shed.iter().any(|s| s.reason == ShedReason::SessionLost));
    assert!(report.shed.iter().any(|s| s.retries > 0));
    let d = m.detector.as_ref().expect("detector stats");
    assert!(d.quarantines > 0 && d.max_detection_latency_s > 0.0);
    let s = m.sessions.as_ref().expect("session stats");
    assert!(s.sessions_lost > 0 && s.turns_shed > 0 && s.re_prefills > 0);
    untouched_replica(&sc);
    Fixture { sc, trace, report }
}

/// A replica no crash or zone-outage window covers, so its availability
/// must stay exactly 1.
fn untouched_replica(sc: &ChaosScenario) -> usize {
    let p = &sc.plan;
    (0..sc.replicas)
        .find(|&r| {
            !p.crashes.iter().any(|c| c.replica == r)
                && !p.zone_outages.iter().any(|z| p.zones.get(r) == Some(&z.zone))
        })
        .expect("the fixture keeps one replica free of crash and zone windows")
}

fn violations(f: &Fixture) -> Vec<Violation> {
    check_report(&f.sc, &f.trace, &f.report)
}

/// Asserts that `found` holds a `kind` violation whose detail contains
/// `fragment`, the message of the one check under test.
fn assert_fires(found: &[Violation], kind: InvariantKind, fragment: &str) {
    assert!(
        found.iter().any(|v| v.kind == kind && v.detail.contains(fragment)),
        "expected a {} violation containing {fragment:?}, got {found:?}",
        kind.label()
    );
}

/// Corrupts the fixture's report with `corrupt` and asserts the check.
fn corrupted(kind: InvariantKind, fragment: &str, corrupt: impl FnOnce(&mut Fixture)) {
    let mut f = fixture();
    corrupt(&mut f);
    assert_fires(&violations(&f), kind, fragment);
}

#[test]
fn the_clean_fixture_passes_every_check() {
    let f = fixture();
    assert_eq!(violations(&f), vec![]);
    assert_eq!(check_equivalence(&f.report, &f.report.clone()), None);
}

// --- Conservation ---

#[test]
fn a_completion_of_an_unknown_id_is_a_conservation_violation() {
    corrupted(InvariantKind::Conservation, "completion of unknown id 999999", |f| {
        f.report.completions[0].id = 999_999;
    });
}

#[test]
fn an_id_completed_twice_is_a_conservation_violation() {
    corrupted(InvariantKind::Conservation, "resolved twice", |f| {
        let twin = f.report.completions[0].clone();
        f.report.completions.push(twin);
    });
}

#[test]
fn a_shed_of_an_unknown_id_is_a_conservation_violation() {
    corrupted(InvariantKind::Conservation, "shed of unknown id 999999", |f| {
        f.report.shed[0].id = 999_999;
    });
}

#[test]
fn an_id_both_completed_and_shed_is_a_conservation_violation() {
    corrupted(InvariantKind::Conservation, "resolved twice", |f| {
        f.report.shed[0].id = f.report.completions[0].id;
    });
}

#[test]
fn a_vanished_request_is_a_conservation_violation() {
    corrupted(InvariantKind::Conservation, "1 of 91 requests vanished", |f| {
        f.report.completions.pop();
    });
}

// --- Liveness ---

#[test]
fn a_non_finite_finish_time_is_a_liveness_violation() {
    corrupted(InvariantKind::Liveness, "finish NaN invalid", |f| {
        f.report.completions[0].finish_s = f64::NAN;
    });
}

#[test]
fn a_finish_before_arrival_is_a_liveness_violation() {
    corrupted(InvariantKind::Liveness, "invalid", |f| {
        let c = &mut f.report.completions[0];
        c.finish_s = c.arrival_s - 1.0;
    });
}

#[test]
fn a_finish_past_the_drain_bound_is_a_liveness_violation() {
    corrupted(InvariantKind::Liveness, "stuck: finished 1000000000.000s", |f| {
        f.report.completions[0].finish_s = 1e9;
    });
}

// --- Reconciliation ---

#[test]
fn an_offered_count_off_the_trace_is_a_reconciliation_violation() {
    corrupted(InvariantKind::Reconciliation, "offered 92 != trace 91", |f| {
        f.report.metrics.offered += 1;
    });
}

#[test]
fn outcome_counts_off_the_records_are_a_reconciliation_violation() {
    corrupted(InvariantKind::Reconciliation, "counts: metrics say", |f| {
        f.report.metrics.completed += 1;
    });
    corrupted(InvariantKind::Reconciliation, "counts: metrics say", |f| {
        f.report.metrics.shed -= 1;
    });
}

#[test]
fn a_shed_rate_off_the_records_is_a_reconciliation_violation() {
    corrupted(InvariantKind::Reconciliation, "shed_rate", |f| {
        f.report.metrics.shed_rate *= 1.01;
    });
}

#[test]
fn a_makespan_off_the_last_finish_is_a_reconciliation_violation() {
    corrupted(InvariantKind::Reconciliation, "makespan", |f| {
        f.report.metrics.makespan_s += 1.0;
    });
}

#[test]
fn a_goodput_off_the_recount_is_a_reconciliation_violation() {
    corrupted(InvariantKind::Reconciliation, "goodput", |f| {
        f.report.metrics.goodput_rps *= 1.01;
    });
}

#[test]
fn a_completion_on_a_replica_outside_the_fleet_is_a_reconciliation_violation() {
    corrupted(InvariantKind::Reconciliation, "completion on replica 7", |f| {
        f.report.completions[0].replica = 7;
    });
}

#[test]
fn per_replica_completions_off_the_records_are_a_reconciliation_violation() {
    corrupted(InvariantKind::Reconciliation, "per-replica completions", |f| {
        let c = &mut f.report.completions[0];
        c.replica = 1 - c.replica;
    });
}

#[test]
fn a_retried_count_off_the_records_is_a_reconciliation_violation() {
    corrupted(InvariantKind::Reconciliation, "retries: metrics", |f| {
        f.report.metrics.retried += 1;
    });
}

#[test]
fn a_retry_event_count_off_the_records_is_a_reconciliation_violation() {
    corrupted(InvariantKind::Reconciliation, "retries: metrics", |f| {
        let s = f.report.shed.iter_mut().find(|s| s.retries > 0).expect("a retried shed");
        s.retries += 1;
    });
}

// --- Availability ---

#[test]
fn an_availability_vector_of_the_wrong_length_is_an_availability_violation() {
    corrupted(InvariantKind::Availability, "availability vector length", |f| {
        f.report.metrics.per_replica_availability.push(1.0);
    });
}

#[test]
fn an_availability_outside_the_unit_interval_is_an_availability_violation() {
    corrupted(InvariantKind::Availability, "replica 0 availability -0.5", |f| {
        f.report.metrics.per_replica_availability[0] = -0.5;
    });
}

#[test]
fn downtime_on_a_replica_no_crash_or_zone_window_covers_is_an_availability_violation() {
    let mut f = fixture();
    let replica = untouched_replica(&f.sc);
    f.report.metrics.per_replica_availability[replica] = 0.9;
    assert_fires(
        &violations(&f),
        InvariantKind::Availability,
        &format!("replica {replica} has no crash/zone window yet availability 0.9"),
    );
}

// --- Fairness ---

#[test]
fn missing_tenancy_stats_for_two_tenants_are_a_fairness_violation() {
    corrupted(InvariantKind::Fairness, "tenancy armed but no stats", |f| {
        f.report.metrics.tenancy = None;
    });
}

#[test]
fn jain_fairness_below_the_floor_is_a_fairness_violation() {
    corrupted(InvariantKind::Fairness, "Jain fairness 0.400 < 0.5", |f| {
        f.report.metrics.tenancy.as_mut().expect("tenancy stats").fairness_index = 0.4;
    });
}

#[test]
fn fairness_is_checked_only_for_two_tenants() {
    let mut f = fixture();
    f.sc.tenants = 0;
    f.report.metrics.tenancy.as_mut().expect("tenancy stats").fairness_index = 0.1;
    assert!(violations(&f).iter().all(|v| v.kind != InvariantKind::Fairness));
}

// --- Detector ---

#[test]
fn detector_stats_without_a_detector_are_a_detector_violation() {
    corrupted(InvariantKind::Detector, "detector stats without a detector", |f| {
        f.sc.detector = false;
    });
}

#[test]
fn an_armed_detector_without_stats_is_a_detector_violation() {
    corrupted(InvariantKind::Detector, "detector armed but no stats", |f| {
        f.report.metrics.detector = None;
    });
}

#[test]
fn more_false_quarantines_than_quarantines_is_a_detector_violation() {
    corrupted(InvariantKind::Detector, "false quarantines", |f| {
        let d = f.report.metrics.detector.as_mut().expect("detector stats");
        d.false_quarantines = d.quarantines + 1;
    });
}

#[test]
fn a_mean_detection_latency_above_the_max_is_a_detector_violation() {
    corrupted(InvariantKind::Detector, "detection latencies inconsistent", |f| {
        let d = f.report.metrics.detector.as_mut().expect("detector stats");
        d.mean_detection_latency_s = d.max_detection_latency_s * 2.0;
    });
}

#[test]
fn a_negative_or_non_finite_detection_latency_is_a_detector_violation() {
    corrupted(InvariantKind::Detector, "detection latencies inconsistent", |f| {
        f.report.metrics.detector.as_mut().expect("detector stats").max_detection_latency_s =
            f64::INFINITY;
    });
    corrupted(InvariantKind::Detector, "detection latencies inconsistent", |f| {
        f.report.metrics.detector.as_mut().expect("detector stats").mean_detection_latency_s = -1.0;
    });
}

// --- Sessions ---

#[test]
fn session_stats_without_sessions_are_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "session stats without sessions", |f| {
        f.sc.sessions = false;
    });
}

#[test]
fn armed_sessions_without_stats_are_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "sessions armed but no stats", |f| {
        f.report.metrics.sessions = None;
    });
}

#[test]
fn a_session_count_off_the_trace_is_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "sessions reported, trace holds", |f| {
        f.report.metrics.sessions.as_mut().expect("session stats").sessions += 1;
    });
}

#[test]
fn a_completion_without_its_session_tag_is_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "1 completions lost their session tag", |f| {
        f.report.completions[0].session = None;
    });
}

#[test]
fn turn_counts_off_the_records_are_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "turns: stats say", |f| {
        f.report.metrics.sessions.as_mut().expect("session stats").turns_completed += 1;
    });
    corrupted(InvariantKind::Sessions, "turns: stats say", |f| {
        f.report.metrics.sessions.as_mut().expect("session stats").turns_shed += 1;
    });
}

#[test]
fn more_sessions_lost_than_sessions_is_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "sessions lost out of", |f| {
        let s = f.report.metrics.sessions.as_mut().expect("session stats");
        s.sessions_lost = s.sessions + 1;
    });
}

#[test]
fn sessions_lost_without_a_shed_turn_are_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "sessions lost without a shed turn", |f| {
        f.report.metrics.sessions.as_mut().expect("session stats").turns_shed = 0;
    });
}

#[test]
fn a_re_prefill_rate_off_the_recount_is_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "re_prefill_rate", |f| {
        f.report.metrics.sessions.as_mut().expect("session stats").re_prefills += 1;
    });
}

#[test]
fn a_negative_or_non_finite_inter_token_latency_is_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "inter-token latencies insane", |f| {
        f.report.metrics.sessions.as_mut().expect("session stats").p99_itl_s = f64::NAN;
    });
    corrupted(InvariantKind::Sessions, "inter-token latencies insane", |f| {
        f.report.metrics.sessions.as_mut().expect("session stats").mean_itl_s = -1.0;
    });
}

#[test]
fn a_session_lost_shed_with_sessions_off_is_a_sessions_violation() {
    corrupted(InvariantKind::Sessions, "shed SessionLost with sessions off", |f| {
        f.sc.sessions = false;
        f.report.metrics.sessions = None;
    });
}

// --- Equivalence ---

#[test]
fn pending_event_samples_are_outside_the_equivalence_check() {
    let f = fixture();
    let mut event = f.report.clone();
    event.event_queue_samples.push((0.0, 1));
    assert_eq!(check_equivalence(&f.report, &event), None);
}

/// Asserts that corrupting a copy of the fixture's report makes it
/// diverge from the original with `detail` at the head of the message.
fn diverges(detail: &str, corrupt: impl FnOnce(&mut FleetReport)) {
    let f = fixture();
    let mut event = f.report.clone();
    corrupt(&mut event);
    let v = check_equivalence(&f.report, &event).expect("the copies differ");
    assert_eq!(v.kind, InvariantKind::Equivalence);
    assert!(v.detail.starts_with(detail), "{detail:?} expected, got {:?}", v.detail);
}

#[test]
fn diverging_metrics_break_equivalence() {
    diverges("metrics diverge", |r| r.metrics.makespan_s = r.metrics.makespan_s.next_up());
}

#[test]
fn diverging_completions_break_equivalence() {
    diverges("completions diverge", |r| {
        r.completions[0].finish_s = r.completions[0].finish_s.next_up();
    });
}

#[test]
fn diverging_shed_records_break_equivalence() {
    diverges("shed records diverge", |r| r.shed[0].retries += 1);
}

#[test]
fn diverging_event_counts_break_equivalence() {
    diverges("event counts diverge", |r| r.events_processed += 1);
}

#[test]
fn a_violation_displays_its_label_and_detail() {
    let v = Violation { kind: InvariantKind::Liveness, detail: "id 3 stuck".into() };
    assert_eq!(v.to_string(), "liveness: id 3 stuck");
}
