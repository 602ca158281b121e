#![deny(missing_docs)]

//! `cta-chaos`: deterministic chaos testing for the CTA serving fleet.
//!
//! The fleet runtime composes many interacting mechanisms — routing,
//! admission, batching, crash/retry, partitions, gray failures,
//! brownout, tenancy, failure detection — and each is unit-tested in
//! isolation. What unit tests cannot cover is the *composition*: a zone
//! outage while a tenant is backlogged while the detector holds a
//! replica in probation. This crate closes
//! that gap with seeded randomized testing:
//!
//! * [`ChaosScenario::sample`] expands one `u64` into a full draw —
//!   fleet width, routing policy, offered load, tenancy/brownout/
//!   detector switches, and a fault composition across all six classes
//!   (crashes, zone outages, partitions, gray failures, slowdowns,
//!   link stalls) — valid by construction;
//! * [`check_report`] is the invariant library: request conservation,
//!   bounded liveness, metrics reconciliation, availability semantics
//!   (partitions must *not* count as downtime), tenant-fairness floors
//!   and detector sanity, each recomputed from the raw records;
//! * [`check_equivalence`] pins the fleet driver bitwise against the
//!   step-granular reference scan (`cta_serve::reference`, the test
//!   oracle) on every draw;
//! * [`shrink`] is a delta-debugging minimizer: given a failing
//!   scenario it drops fault events (ddmin), halves windows, shrinks
//!   the fleet and truncates the trace until the failure is down to a
//!   handful of events — then the scenario's JSON form
//!   ([`ChaosScenario::to_json`]) is a replayable repro.
//!
//! The `chaos_sweep` binary runs seed blocks through all of the above
//! (and `--inject-bug` mutates outcomes to prove the invariants would
//! actually catch a conservation bug — a self-test of the net).

mod invariants;
mod json;
mod scenario;
mod shrink;

pub use invariants::{check_equivalence, check_report, InvariantKind, Violation};
pub use scenario::{
    load_spec, solo_service_s, ChaosParams, ChaosScenario, Toggle, MAX_REPLICAS, MAX_REQUESTS,
};
pub use shrink::{plan_events, plan_from_events, shrink, PlanEvent};

use cta_serve::{reference, simulate_fleet, FleetMetrics, FleetReport};

/// Deliberate outcome corruption for self-testing the invariant net
/// (`chaos_sweep --inject-bug`): the mutation is applied to the report
/// *after* simulation, exactly where a bookkeeping bug would sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// No corruption — the honest run.
    None,
    /// Drop the last shed record, breaking request conservation (and the
    /// count reconciliation) whenever the run shed anything.
    DropShed,
}

impl Mutation {
    fn apply(self, report: &mut FleetReport) {
        match self {
            Mutation::None => {}
            Mutation::DropShed => {
                report.shed.pop();
            }
        }
    }
}

/// Everything one chaos run produced: the fleet driver's aggregate
/// metrics plus every invariant violation found.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Aggregates of the fleet driver's report.
    pub metrics: FleetMetrics,
    /// Simulated events processed by the fleet driver.
    pub events_processed: u64,
    /// All violations across the invariant library (empty = pass).
    pub violations: Vec<Violation>,
}

impl ChaosOutcome {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one scenario on the fleet driver and on the reference scan,
/// applies `mutation` to both reports, and checks the full invariant
/// library on the driver's report plus its bitwise equivalence with the
/// reference. This is the oracle the sweep and the shrinker share.
pub fn run_chaos(sc: &ChaosScenario, mutation: Mutation) -> ChaosOutcome {
    let trace = sc.trace();
    let cfg = sc.fleet_config();
    let mut report = simulate_fleet(&cfg, &trace);
    mutation.apply(&mut report);
    let mut oracle = reference::simulate_fleet(&cfg, &trace);
    mutation.apply(&mut oracle);
    let mut violations = check_report(sc, &trace, &report);
    violations.extend(check_equivalence(&oracle, &report));
    ChaosOutcome { metrics: report.metrics, events_processed: report.events_processed, violations }
}
