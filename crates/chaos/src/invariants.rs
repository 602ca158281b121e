//! The invariant library: properties every fleet run must satisfy
//! regardless of which faults were composed. Each check recomputes its
//! claim from the raw completion/shed records rather than trusting the
//! aggregate, so a bookkeeping bug in either layer trips a violation.

use std::collections::HashSet;

use cta_serve::{FleetReport, ServeRequest, ShedReason};

use crate::ChaosScenario;

/// Which invariant a [`Violation`] broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantKind {
    /// Completions + sheds must partition the offered request ids.
    Conservation,
    /// Every request resolves in finite time, bounded by the last
    /// disturbance plus a generous serialized-service slack.
    Liveness,
    /// Aggregate metrics must reconcile with the raw outcome records.
    Reconciliation,
    /// Per-replica availability reflects crash/zone downtime only —
    /// partitions and gray failures must never register as downtime.
    Availability,
    /// Equal-weight tenants with symmetric traffic keep Jain fairness
    /// above a floor even while replicas are quarantined.
    Fairness,
    /// Detector stats are present exactly when the detector is armed,
    /// and internally consistent.
    Detector,
    /// Session stats are present exactly when sessions are armed, and
    /// reconcile with a recount of the tagged outcome records.
    Sessions,
    /// The fleet driver must agree bitwise with the reference scan.
    Equivalence,
}

impl InvariantKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            InvariantKind::Conservation => "conservation",
            InvariantKind::Liveness => "liveness",
            InvariantKind::Reconciliation => "reconciliation",
            InvariantKind::Availability => "availability",
            InvariantKind::Fairness => "fairness",
            InvariantKind::Detector => "detector",
            InvariantKind::Sessions => "sessions",
            InvariantKind::Equivalence => "equivalence",
        }
    }
}

/// One broken invariant, with enough detail to start debugging.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant failed.
    pub kind: InvariantKind,
    /// Human-readable specifics (counts, ids, bounds).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.label(), self.detail)
    }
}

fn violation(out: &mut Vec<Violation>, kind: InvariantKind, detail: String) {
    out.push(Violation { kind, detail });
}

/// Near-equality for reconciling recomputed aggregates: the recompute
/// follows the same formulas, so only representation noise is tolerated.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Checks every single-run invariant of `report` against the scenario
/// and the trace it served. Returns all violations found (empty = pass).
pub fn check_report(
    sc: &ChaosScenario,
    trace: &[ServeRequest],
    report: &FleetReport,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let m = &report.metrics;

    // --- Conservation: outcome ids partition the offered ids. ---
    let offered_ids: HashSet<u64> = trace.iter().map(|r| r.id).collect();
    let mut seen = HashSet::with_capacity(trace.len());
    for c in &report.completions {
        if !offered_ids.contains(&c.id) {
            violation(
                &mut out,
                InvariantKind::Conservation,
                format!("completion of unknown id {}", c.id),
            );
        }
        if !seen.insert(c.id) {
            violation(&mut out, InvariantKind::Conservation, format!("id {} resolved twice", c.id));
        }
    }
    for s in &report.shed {
        if !offered_ids.contains(&s.id) {
            violation(
                &mut out,
                InvariantKind::Conservation,
                format!("shed of unknown id {}", s.id),
            );
        }
        if !seen.insert(s.id) {
            violation(&mut out, InvariantKind::Conservation, format!("id {} resolved twice", s.id));
        }
    }
    if seen.len() != offered_ids.len() {
        let lost: Vec<u64> = offered_ids.difference(&seen).take(4).copied().collect();
        violation(
            &mut out,
            InvariantKind::Conservation,
            format!(
                "{} of {} requests vanished (e.g. ids {:?}): completed {} + shed {} != offered",
                offered_ids.len() - seen.len(),
                offered_ids.len(),
                lost,
                report.completions.len(),
                report.shed.len()
            ),
        );
    }

    // --- Liveness: everything resolves in finite, bounded time. ---
    let last_arrival = trace.last().map_or(0.0, |r| r.arrival_s);
    let last_fault_end = plan_window_ends(sc).fold(0.0f64, f64::max);
    let total_solo = trace.len() as f64 * crate::solo_service_s();
    // Disturbances over, the whole backlog drains even fully serialized
    // through one replica. The stretch cap compounds the worst factor of
    // every slow class (they can overlap on one replica), and the
    // constant absorbs retry backoffs. Generous by design: this catches
    // requests stuck *forever* (infinite backoff, never-healing state),
    // not mere slowness.
    let stretch = (1.0 + sc.plan.gray.iter().map(|g| g.severity).fold(0.0, f64::max))
        * sc.plan.slowdowns.iter().map(|s| s.factor).fold(1.0, f64::max)
        * sc.plan.link_stalls.iter().map(|l| l.factor).fold(1.0, f64::max);
    let bound = last_arrival.max(last_fault_end) + 4.0 * stretch.max(4.0) * total_solo + 10.0;
    for c in &report.completions {
        if !c.finish_s.is_finite() || c.finish_s < c.arrival_s {
            violation(
                &mut out,
                InvariantKind::Liveness,
                format!("id {} finish {} invalid", c.id, c.finish_s),
            );
        } else if c.finish_s > bound {
            violation(
                &mut out,
                InvariantKind::Liveness,
                format!("id {} stuck: finished {:.3}s, bound {:.3}s", c.id, c.finish_s, bound),
            );
        }
    }

    // --- Reconciliation: aggregates match a recount of the records. ---
    if m.offered != trace.len() {
        violation(
            &mut out,
            InvariantKind::Reconciliation,
            format!("offered {} != trace {}", m.offered, trace.len()),
        );
    }
    if m.completed != report.completions.len() || m.shed != report.shed.len() {
        violation(
            &mut out,
            InvariantKind::Reconciliation,
            format!(
                "counts: metrics say {}/{}, records hold {}/{}",
                m.completed,
                m.shed,
                report.completions.len(),
                report.shed.len()
            ),
        );
    }
    let shed_rate = report.shed.len() as f64 / m.offered.max(1) as f64;
    if !close(m.shed_rate, shed_rate) {
        violation(
            &mut out,
            InvariantKind::Reconciliation,
            format!("shed_rate {} != {}", m.shed_rate, shed_rate),
        );
    }
    let makespan = report.completions.iter().map(|c| c.finish_s).fold(0.0, f64::max);
    if !close(m.makespan_s, makespan) {
        violation(
            &mut out,
            InvariantKind::Reconciliation,
            format!("makespan {} != {}", m.makespan_s, makespan),
        );
    }
    let good = report.completions.iter().filter(|c| c.deadline_met.unwrap_or(true)).count();
    if !close(m.goodput_rps, good as f64 / makespan.max(f64::EPSILON)) {
        violation(
            &mut out,
            InvariantKind::Reconciliation,
            format!("goodput {} != recount", m.goodput_rps),
        );
    }
    let mut per_replica = vec![0usize; sc.replicas];
    for c in &report.completions {
        if c.replica < sc.replicas {
            per_replica[c.replica] += 1;
        } else {
            violation(
                &mut out,
                InvariantKind::Reconciliation,
                format!("completion on replica {}", c.replica),
            );
        }
    }
    if m.per_replica_completed != per_replica {
        violation(
            &mut out,
            InvariantKind::Reconciliation,
            format!("per-replica completions {:?} != {:?}", m.per_replica_completed, per_replica),
        );
    }
    let retried = report.completions.iter().filter(|c| c.retries > 0).count()
        + report.shed.iter().filter(|s| s.retries > 0).count();
    let retry_events = report.completions.iter().map(|c| c.retries as usize).sum::<usize>()
        + report.shed.iter().map(|s| s.retries as usize).sum::<usize>();
    if m.retried != retried || m.retry_events != retry_events {
        violation(
            &mut out,
            InvariantKind::Reconciliation,
            format!(
                "retries: metrics {}/{}, recount {retried}/{retry_events}",
                m.retried, m.retry_events
            ),
        );
    }

    // --- Availability: only crash/zone downtime counts. ---
    if m.per_replica_availability.len() != sc.replicas {
        violation(&mut out, InvariantKind::Availability, "availability vector length".into());
    }
    for (replica, &a) in m.per_replica_availability.iter().enumerate() {
        if !(0.0..=1.0).contains(&a) {
            violation(
                &mut out,
                InvariantKind::Availability,
                format!("replica {replica} availability {a}"),
            );
        }
        if !crashes_touch(sc, replica) && a != 1.0 {
            violation(
                &mut out,
                InvariantKind::Availability,
                format!(
                    "replica {replica} has no crash/zone window yet availability {a} < 1 \
                     (partitions and gray failures must not register as downtime)"
                ),
            );
        }
    }

    // --- Fairness: symmetric tenants stay near-equal under DRR. ---
    if sc.tenants == 2 && m.completed >= 20 {
        match &m.tenancy {
            None => {
                violation(&mut out, InvariantKind::Fairness, "tenancy armed but no stats".into())
            }
            Some(t) => {
                if t.fairness_index < 0.5 {
                    violation(
                        &mut out,
                        InvariantKind::Fairness,
                        format!(
                            "Jain fairness {:.3} < 0.5 for equal-weight symmetric tenants",
                            t.fairness_index
                        ),
                    );
                }
            }
        }
    }

    // --- Detector: stats present iff armed, and self-consistent. ---
    match (&m.detector, sc.detector) {
        (Some(_), false) => {
            violation(&mut out, InvariantKind::Detector, "detector stats without a detector".into())
        }
        (None, true) => {
            violation(&mut out, InvariantKind::Detector, "detector armed but no stats".into())
        }
        (Some(d), true) => {
            if d.false_quarantines > d.quarantines {
                violation(
                    &mut out,
                    InvariantKind::Detector,
                    format!("false quarantines {} > total {}", d.false_quarantines, d.quarantines),
                );
            }
            let sane = |x: f64| x.is_finite() && x >= 0.0;
            if !sane(d.mean_detection_latency_s)
                || !sane(d.max_detection_latency_s)
                || d.mean_detection_latency_s > d.max_detection_latency_s + 1e-12
            {
                violation(
                    &mut out,
                    InvariantKind::Detector,
                    format!(
                        "detection latencies inconsistent: mean {} max {}",
                        d.mean_detection_latency_s, d.max_detection_latency_s
                    ),
                );
            }
        }
        (None, false) => {}
    }

    // --- Sessions: stats present iff armed, reconciled by recount. ---
    // When armed, the scenario tags *every* request with a session turn,
    // so completed/shed turn counts must recount to the full record sets.
    match (&m.sessions, sc.sessions) {
        (Some(_), false) => {
            violation(&mut out, InvariantKind::Sessions, "session stats without sessions".into())
        }
        (None, true) => {
            violation(&mut out, InvariantKind::Sessions, "sessions armed but no stats".into())
        }
        (Some(s), true) => {
            let distinct: HashSet<u64> =
                trace.iter().filter_map(|r| r.session.as_ref().map(|t| t.session)).collect();
            if s.sessions != distinct.len() {
                violation(
                    &mut out,
                    InvariantKind::Sessions,
                    format!("{} sessions reported, trace holds {}", s.sessions, distinct.len()),
                );
            }
            let untagged = report.completions.iter().filter(|c| c.session.is_none()).count();
            if untagged > 0 {
                violation(
                    &mut out,
                    InvariantKind::Sessions,
                    format!("{untagged} completions lost their session tag"),
                );
            }
            if s.turns_completed != report.completions.len() || s.turns_shed != report.shed.len() {
                violation(
                    &mut out,
                    InvariantKind::Sessions,
                    format!(
                        "turns: stats say {}/{}, records hold {}/{}",
                        s.turns_completed,
                        s.turns_shed,
                        report.completions.len(),
                        report.shed.len()
                    ),
                );
            }
            if s.sessions_lost > s.sessions {
                violation(
                    &mut out,
                    InvariantKind::Sessions,
                    format!("{} sessions lost out of {}", s.sessions_lost, s.sessions),
                );
            }
            if s.turns_shed == 0 && s.sessions_lost > 0 {
                violation(
                    &mut out,
                    InvariantKind::Sessions,
                    format!("{} sessions lost without a shed turn", s.sessions_lost),
                );
            }
            let rate = if s.turns_completed > 0 {
                s.re_prefills as f64 / s.turns_completed as f64
            } else {
                0.0
            };
            if !close(s.re_prefill_rate, rate) {
                violation(
                    &mut out,
                    InvariantKind::Sessions,
                    format!("re_prefill_rate {} != {rate}", s.re_prefill_rate),
                );
            }
            let sane = |x: f64| x.is_finite() && x >= 0.0;
            if !sane(s.mean_itl_s) || !sane(s.p99_itl_s) {
                violation(
                    &mut out,
                    InvariantKind::Sessions,
                    format!(
                        "inter-token latencies insane: mean {} p99 {}",
                        s.mean_itl_s, s.p99_itl_s
                    ),
                );
            }
        }
        (None, false) => {
            if let Some(shed) = report.shed.iter().find(|x| x.reason == ShedReason::SessionLost) {
                violation(
                    &mut out,
                    InvariantKind::Sessions,
                    format!("id {} shed SessionLost with sessions off", shed.id),
                );
            }
        }
    }

    out
}

/// Bitwise agreement between the reference scan's report (`step`) and
/// the fleet driver's (`event`): everything except the pending-event
/// samples (the scan takes none) must match exactly.
pub fn check_equivalence(step: &FleetReport, event: &FleetReport) -> Option<Violation> {
    let detail = if step.metrics != event.metrics {
        "metrics diverge"
    } else if step.completions != event.completions {
        "completions diverge"
    } else if step.shed != event.shed {
        "shed records diverge"
    } else if step.events_processed != event.events_processed {
        "event counts diverge"
    } else {
        return None;
    };
    Some(Violation {
        kind: InvariantKind::Equivalence,
        detail: format!(
            "{detail} (step: {} completions / {} shed / {} events; event: {} / {} / {})",
            step.completions.len(),
            step.shed.len(),
            step.events_processed,
            event.completions.len(),
            event.shed.len(),
            event.events_processed
        ),
    })
}

/// Finite end times of every fault window in the plan, for the liveness
/// bound.
fn plan_window_ends(sc: &ChaosScenario) -> impl Iterator<Item = f64> + '_ {
    let p = &sc.plan;
    p.crashes
        .iter()
        .filter_map(|c| c.up_s)
        .chain(p.zone_outages.iter().filter_map(|z| z.up_s))
        .chain(p.partitions.iter().map(|x| x.until_s))
        .chain(p.gray.iter().map(|g| g.until_s))
        .chain(p.slowdowns.iter().map(|s| s.until_s))
        .chain(p.link_stalls.iter().map(|l| l.until_s))
}

/// Whether any crash or zone-outage window covers `replica` — the only
/// fault classes that may reduce its availability.
fn crashes_touch(sc: &ChaosScenario, replica: usize) -> bool {
    sc.plan.crashes.iter().any(|c| c.replica == replica)
        || sc
            .plan
            .zone_outages
            .iter()
            .any(|z| sc.plan.zones.get(replica).is_some_and(|&zone| zone == z.zone))
}
