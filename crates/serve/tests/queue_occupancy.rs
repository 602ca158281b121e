//! Pins the fleet driver's pending-event samples
//! ([`FleetReport::event_queue_samples`]) bit for bit.
//!
//! `tests/golden/event_queue_samples.txt` holds, for four scenarios, every
//! `(time, depth)` sample as the f64 bit pattern of the time and the
//! pending-event count. A sample is taken after every 64th event and
//! counts the pending fault, the pending arrival, every retry backoff,
//! every hedge timer and every replica with a scheduled step. The
//! scenarios cover the sources that move that count: seeded crashes with
//! requeues, the full overload stack with hedges, sticky decode sessions
//! across a crash, and tenancy Hold backpressure. `planet_sweep`'s peak
//! queue depth and its Events lane are drawn from these samples, so any
//! change here is a change to those outputs.

use cta_serve::{
    mmpp_requests, poisson_requests, session_requests, simulate_fleet, simulate_fleet_traced,
    AdmissionPolicy, Backpressure, BatchPolicy, CrashWindow, FaultPlan, FleetConfig, LoadSpec,
    MmppParams, OverloadControl, QosClass, RoutingPolicy, SchedulerPolicy, ServeRequest,
    SessionPolicy, ShedReason, TenancyConfig,
};
use cta_sim::{AttentionTask, SystemConfig};
use cta_telemetry::RingBufferSink;
use cta_workloads::{SessionSpec, TenantMix};

fn spec() -> LoadSpec {
    LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 3, 4)
}

fn config(replicas: usize, routing: RoutingPolicy, batch: usize, depth: usize) -> FleetConfig {
    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), replicas);
    cfg.routing = routing;
    cfg.batch = BatchPolicy::up_to(batch);
    cfg.admission = AdmissionPolicy::bounded(depth);
    cfg
}

/// Seeded crash/recovery schedules on a jsq fleet: back-dated requeues
/// and retry backoffs.
fn crashes() -> (FleetConfig, Vec<ServeRequest>) {
    let mut cfg = config(5, RoutingPolicy::JoinShortestQueue, 4, 16);
    let requests = poisson_requests(&spec(), 600, 60_000.0, 9);
    let span = requests.last().expect("nonempty").arrival_s;
    cfg.faults = FaultPlan::seeded(5, 2.0 * span, span / 4.0, span / 20.0, 9);
    (cfg, requests)
}

/// Brownout, breakers and hedged dispatch under bursty load and faults.
fn overload() -> (FleetConfig, Vec<ServeRequest>) {
    let mut cfg = config(4, RoutingPolicy::JoinShortestQueue, 4, 12);
    let mut load = spec();
    load.class = QosClass::interactive(0.05);
    let requests = mmpp_requests(&load, 600, MmppParams::new(10_000.0, 80_000.0, 0.1), 7);
    let span = requests.last().expect("nonempty").arrival_s;
    cfg.faults = FaultPlan::seeded(4, 2.0 * span, span, span / 10.0, 7);
    cfg.overload = OverloadControl::standard();
    (cfg, requests)
}

/// Sticky decode sessions on least-outstanding-work routing, with one
/// replica crashing mid-trace.
fn sessions() -> (FleetConfig, Vec<ServeRequest>) {
    let turns = SessionSpec::new(120, 2_000.0, 3.0, 1e-3);
    let requests = session_requests(&spec(), &turns, 0.02, 0.5, 3);
    let span = requests.last().expect("nonempty").arrival_s;
    let mut cfg = FleetConfig::builder(SystemConfig::paper())
        .replicas(3)
        .routing(RoutingPolicy::LeastOutstandingWork)
        .admission(AdmissionPolicy::bounded(64))
        .batch(BatchPolicy::up_to(4))
        .sessions(SessionPolicy::sticky())
        .build()
        .expect("valid session fleet");
    cfg.faults = FaultPlan {
        crashes: vec![CrashWindow { replica: 0, down_s: span * 0.3, up_s: Some(span * 0.7) }],
        ..FaultPlan::none()
    };
    (cfg, requests)
}

/// Six skewed tenants behind a WFQ fair queue with Hold backpressure on
/// shallow replica queues, with faults.
fn tenancy_hold() -> (FleetConfig, Vec<ServeRequest>) {
    let mut cfg = config(4, RoutingPolicy::JoinShortestQueue, 4, 4);
    let owners = TenantMix::new(6, 1.2).assign(600, 5);
    let requests: Vec<ServeRequest> = poisson_requests(&spec(), 600, 60_000.0, 5)
        .into_iter()
        .zip(owners)
        .map(|(r, t)| r.with_tenant(t))
        .collect();
    let span = requests.last().expect("nonempty").arrival_s;
    cfg.faults = FaultPlan::seeded(4, 2.0 * span, span, span / 10.0, 5);
    let mut tenancy = TenancyConfig::equal_weight(6, SchedulerPolicy::Wfq);
    tenancy.backpressure = Backpressure::Hold;
    cfg.tenancy = Some(tenancy);
    (cfg, requests)
}

type Scenario = (&'static str, fn() -> (FleetConfig, Vec<ServeRequest>));

const SCENARIOS: [Scenario; 4] = [
    ("crashes", crashes),
    ("overload", overload),
    ("sessions", sessions),
    ("tenancy-hold", tenancy_hold),
];

/// The golden text: one `scenario <name> <samples>` header per scenario,
/// then one `<time bits hex> <depth>` line per sample.
fn render() -> String {
    let mut out = String::new();
    for (name, build) in SCENARIOS {
        let (cfg, requests) = build();
        let report = simulate_fleet(&cfg, &requests);
        out.push_str(&format!("scenario {name} {}\n", report.event_queue_samples.len()));
        for (t, depth) in &report.event_queue_samples {
            out.push_str(&format!("{:016x} {depth}\n", t.to_bits()));
        }
    }
    out
}

#[test]
fn pending_event_samples_match_the_golden_bit_for_bit() {
    let golden = include_str!("golden/event_queue_samples.txt");
    let expected: String =
        golden.lines().filter(|l| !l.starts_with('#')).map(|l| format!("{l}\n")).collect();
    let got = render();
    for (name, _) in SCENARIOS {
        assert!(got.contains(&format!("scenario {name} ")), "scenario {name} rendered");
    }
    if let Some((line, (g, e))) =
        got.lines().zip(expected.lines()).enumerate().find(|(_, (g, e))| g != e)
    {
        panic!("sample line {} differs: got {g:?}, golden {e:?}", line + 1);
    }
    assert_eq!(got.lines().count(), expected.lines().count(), "sample count");
}

#[test]
fn every_scenario_moves_the_sources_it_names() {
    // The golden only pins what the scenarios exercise: make sure each
    // actually drives its source (requeues, hedges, sessions across a
    // crash, held tenancy work) and samples more than a handful of times.
    for (name, build) in SCENARIOS {
        let (cfg, requests) = build();
        let report = simulate_fleet(&cfg, &requests);
        assert!(report.event_queue_samples.len() >= 10, "{name}: too few samples");
        let m = &report.metrics;
        match name {
            "crashes" => assert!(m.retried > 0, "{name}: no requeue"),
            "overload" => assert!(m.overload.hedged > 0, "{name}: no hedge"),
            "sessions" => {
                let s = m.sessions.as_ref().expect("session stats");
                assert!(s.re_prefills > 0, "{name}: the crash must move a session");
            }
            _ => {
                // Hold parks what Shed would drop: the same fleet under
                // Shed backpressure fills a queue, so Hold really blocked.
                let full = |r: &cta_serve::FleetReport| {
                    r.shed.iter().filter(|s| s.reason == ShedReason::QueueFull).count()
                };
                assert_eq!(full(&report), 0, "{name}: Hold never sheds on a full queue");
                let mut shed_cfg = cfg.clone();
                shed_cfg.tenancy.as_mut().expect("tenancy on").backpressure = Backpressure::Shed;
                assert!(full(&simulate_fleet(&shed_cfg, &requests)) > 0, "{name}: no full queue");
            }
        }
    }
}

#[test]
fn tracing_does_not_move_the_samples() {
    // The samples are taken outside the traced handler path: a traced
    // run reports the same ones as an untraced run.
    for (name, build) in SCENARIOS {
        let (cfg, requests) = build();
        let plain = simulate_fleet(&cfg, &requests);
        let mut sink = RingBufferSink::with_capacity(1 << 12);
        let traced = simulate_fleet_traced(&cfg, &requests, &mut sink);
        assert!(!sink.events().is_empty(), "{name}: the run must emit a trace");
        assert_eq!(plain.event_queue_samples, traced.event_queue_samples, "{name}");
    }
}
