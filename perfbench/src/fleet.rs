//! The two fleet workloads.
//!
//! * `fleet-low`: an open-loop diurnal + flash-crowd trace at load 0.7
//!   into 128 replicas under least-outstanding-work routing. Routing
//!   rescans every replica's queued work on each arrival, so it carries
//!   the host time here.
//! * `fleet-sessions`: multi-turn decode sessions over 256 sticky
//!   replicas with round-robin first turns and seeded crash faults.
//!   Routing is trivial; the engine's handlers, the session table,
//!   retries and re-prefills carry the host time.
//!
//! Fleets are built with `FleetConfig::builder`, setting only the knobs
//! that define the workload; the engine and everything else come from the
//! defaults. One item is one whole replay (`simulate_fleet`).

use cta_serve::{
    session_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, BatchPolicy,
    CostModel, FaultPlan, FleetConfig, FleetReport, LoadSpec, RoutingPolicy, ServeRequest,
    SessionPolicy,
};
use cta_sim::{latency_percentile, CtaSystem, SystemConfig};
use cta_telemetry::{AggregateReport, RingBufferSink};
use cta_workloads::{case_task, mini_case, DiurnalSpec, FlashCrowd, SessionSpec, TestCase};

use crate::trace::Tracer;
use crate::{fastest, measure, mix, timed, Args, Outcome, SetupTimes};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Low,
    Sessions,
}

/// fleet-low: replicas, requests per replica and offered load.
const LOW_REPLICAS: usize = 128;
const LOW_REQUESTS_PER_REPLICA: usize = 10;
const LOW_LOAD: f64 = 0.7;

/// fleet-low: prompt lengths, drawn uniformly per request. Mixed sizes are
/// what separates least-outstanding-work routing from queue-length
/// routing, and they keep the modeled percentiles from collapsing onto one
/// service time.
const LOW_PROMPTS: std::ops::RangeInclusive<usize> = 32..=128;

/// fleet-sessions: replicas, layers per turn and the session trace shape
/// (about 48k turns).
const SESSION_REPLICAS: usize = 256;
const SESSION_LAYERS: usize = 4;
const SESSIONS: usize = 12_000;
const SESSION_RATE: f64 = 40_000.0;
const SESSION_TURNS: f64 = 4.0;
const SESSION_THINK_S: f64 = 1e-3;
const DRIFT_PER_TOKEN: f64 = 0.02;
const RECLUSTER_THRESHOLD: f64 = 0.25;

/// Both fleets: admission queue depth and batch width.
const QUEUE_DEPTH: usize = 64;
const BATCH: usize = 4;

/// Telemetry ring capacity of a traced replay.
const TRACE_CAPACITY: usize = 1 << 22;

/// Replays of each kind in the traced run; the fastest is used.
const TRACED_REPEATS: u64 = 3;

struct Inputs {
    requests: Vec<ServeRequest>,
    cfg: FleetConfig,
}

/// A request of the mini case (16-dim heads) with `prompt` tokens over
/// `layers` layers of one head each. A request holds one task per layer
/// and head, so the mini case's 24×16 shape would put 22 KB in every
/// request (1 GB for a 48k-turn session trace) and make each replay's
/// host time track memory traffic that other tenants of the machine
/// contend for; one head keeps the traces small and leaves routing
/// (fleet-low) and the engine's per-event bookkeeping (fleet-sessions) as
/// the host cost.
fn spec(prompt: usize, layers: usize) -> LoadSpec {
    let case = mini_case();
    let case = TestCase::new(case.model, case.dataset.with_seq_len(prompt));
    LoadSpec::standard(case_task(&case), layers, 1)
}

fn setup(w: Workload, seed: u64, t: &mut Tracer) -> Inputs {
    let layers = mini_case().model.layers;
    match w {
        Workload::Low => {
            let system = CtaSystem::new(SystemConfig::paper());
            let specs: Vec<LoadSpec> = LOW_PROMPTS.map(|n| spec(n, layers)).collect();
            let mut cost = CostModel::new();
            let mean_solo = specs
                .iter()
                .map(|s| {
                    let probe = ServeRequest::uniform(0, 0.0, s.class, s.task, s.layers, s.heads);
                    cost.request_service_s(&system, &probe)
                })
                .sum::<f64>()
                / specs.len() as f64;
            let count = LOW_REPLICAS * LOW_REQUESTS_PER_REPLICA;
            let rate = LOW_LOAD * LOW_REPLICAS as f64 / mean_solo;
            // Four day/night cycles (night at 0.25x) with a 4x flash crowd
            // early in the second, as in planet_sweep.
            let period = count as f64 / rate / 4.0;
            let diurnal = DiurnalSpec::new(rate, period, 0.6, 0.25).with_flash(FlashCrowd::new(
                1.1 * period,
                0.2 * period,
                4.0,
            ));
            let arrivals =
                t.call("workloads.arrival_times", seed, || diurnal.arrival_times(count, seed));
            let requests = arrivals
                .into_iter()
                .enumerate()
                .map(|(id, at)| {
                    let s = specs[(mix(seed ^ mix(id as u64)) % specs.len() as u64) as usize];
                    ServeRequest::uniform(id as u64, at, s.class, s.task, s.layers, s.heads)
                })
                .collect();
            let cfg = t.call("serve.FleetConfig::builder", seed, || {
                FleetConfig::builder(SystemConfig::paper())
                    .replicas(LOW_REPLICAS)
                    .routing(RoutingPolicy::LeastOutstandingWork)
                    .admission(AdmissionPolicy::bounded(QUEUE_DEPTH))
                    .batch(BatchPolicy::up_to(BATCH))
                    .build()
                    .expect("fleet-low configuration is valid")
            });
            Inputs { requests, cfg }
        }
        Workload::Sessions => {
            let spec = spec(mini_case().dataset.seq_len, SESSION_LAYERS);
            let turns = SessionSpec::new(SESSIONS, SESSION_RATE, SESSION_TURNS, SESSION_THINK_S);
            let requests = t.call("serve.session_requests", seed, || {
                session_requests(&spec, &turns, DRIFT_PER_TOKEN, RECLUSTER_THRESHOLD, seed)
            });
            let span = requests.last().map_or(1e-6, |r: &ServeRequest| r.arrival_s.max(1e-6));
            // Crashes with MTBF equal to the trace span, each down for 2%
            // of it, over a horizon of twice the span.
            let faults = t.call("serve.FaultPlan::seeded", seed, || {
                FaultPlan::seeded(SESSION_REPLICAS, 2.0 * span, span, 0.02 * span, seed)
            });
            let cfg = t.call("serve.FleetConfig::builder", seed, || {
                FleetConfig::builder(SystemConfig::paper())
                    .replicas(SESSION_REPLICAS)
                    .routing(RoutingPolicy::RoundRobin)
                    .admission(AdmissionPolicy::bounded(QUEUE_DEPTH))
                    .batch(BatchPolicy::up_to(BATCH))
                    .sessions(SessionPolicy::sticky())
                    .faults(faults)
                    .build()
                    .expect("fleet-sessions configuration is valid")
            });
            Inputs { requests, cfg }
        }
    }
}

/// The modeled outputs of one replay that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
struct Modeled {
    events: u64,
    p50_ms: f64,
    p99_ms: f64,
    goodput_rps: f64,
    itl_p99_ms: f64,
    shed: usize,
}

fn modeled(w: Workload, inputs: &Inputs, report: &FleetReport) -> Modeled {
    let m = &report.metrics;
    let (p50, p99) = m.latency.as_ref().map_or((f64::NAN, f64::NAN), |l| (l.p50_s, l.p99_s));
    // Per-token latency: a decode turn's latency over its decode length
    // (the session statistics' inter-token latency); a prefill request's
    // over its prompt length.
    let itl_p99_s = match (w, &m.sessions) {
        (Workload::Sessions, Some(s)) => s.p99_itl_s,
        (Workload::Sessions, None) => f64::NAN,
        (Workload::Low, _) => {
            let mut per_token: Vec<f64> = report
                .completions
                .iter()
                .map(|c| {
                    let prompt = inputs.requests[c.id as usize].layer_tasks[0][0].num_queries;
                    c.latency_s() / prompt as f64
                })
                .collect();
            per_token.sort_by(f64::total_cmp);
            latency_percentile(&per_token, 0.99)
        }
    };
    Modeled {
        events: report.events_processed,
        p50_ms: p50 * 1e3,
        p99_ms: p99 * 1e3,
        goodput_rps: m.goodput_rps,
        itl_p99_ms: itl_p99_s * 1e3,
        shed: m.shed,
    }
}

/// Accounting checks of one replay; returns whether all hold.
fn accounting(w: Workload, inputs: &Inputs, report: &FleetReport, out: &mut Outcome) -> bool {
    let m = &report.metrics;
    let offered = inputs.requests.len();
    let mut ok = m.offered == offered && m.completed + m.shed == offered;
    ok &= report.completions.len() == m.completed && report.shed.len() == m.shed;
    if w == Workload::Sessions {
        let mut ids: Vec<u64> =
            inputs.requests.iter().filter_map(|r| r.session.map(|s| s.session)).collect();
        ids.sort_unstable();
        ids.dedup();
        ok &= match &m.sessions {
            Some(s) => s.turns_completed + s.turns_shed == offered && s.sessions == ids.len(),
            None => false,
        };
    }
    out.check(ok, offered as u64, "replay accounting (completed + shed == offered, session turns)");
    ok
}

pub fn run(w: Workload, args: &Args, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::new();
    if t.enabled() {
        let inputs = setup(w, args.seed, t);
        traced(w, &inputs, t, &mut out);
        return out;
    }

    let mut setups = SetupTimes::default();
    let mut slot = None;
    let mut first: Option<Modeled> = None;
    let replays = measure(args.budget(), 3, |_| {
        // Every replay runs on inputs built afresh, so set-up is timed
        // across the whole run (see `SetupTimes`).
        let inputs = setups.rebuild(&mut slot, || setup(w, args.seed, t));
        let offered = inputs.requests.len();
        let (replay_s, report) = timed(|| simulate_fleet(&inputs.cfg, &inputs.requests));
        accounting(w, inputs, &report, &mut out);
        let m = modeled(w, inputs, &report);
        out.attempted += offered as u64;
        out.failed += m.shed as u64;
        match &first {
            None => first = Some(m),
            Some(f) => out.check(*f == m, offered as u64, "modeled metrics differ between replays"),
        }
        replay_s
    });
    let offered = slot.as_ref().expect("at least one replay").requests.len();
    let m = first.expect("at least one replay");
    println!(
        "{}: {} replays of {offered} requests ({} events, {} shed), requests/s per replay: {}",
        args.workload,
        replays.len(),
        m.events,
        m.shed,
        replays.iter().map(|s| format!("{:.0}", offered as f64 / s)).collect::<Vec<_>>().join(" ")
    );
    out.set("setup_s", setups.fastest());
    out.set("throughput", offered as f64 / fastest(&replays));
    out.set("model_p50_ms", m.p50_ms);
    out.set("model_p99_ms", m.p99_ms);
    out.set("model_goodput_rps", m.goodput_rps);
    out.set("model_itl_p99_ms", m.itl_p99_ms);
    out
}

/// The traced run: untraced replays, replays into a telemetry ring
/// aggregated into an `AggregateReport`, and on fleet-low the same trace
/// under round-robin routing, which prices the routing scan. Each kind
/// runs [`TRACED_REPEATS`] times and the fastest counts.
fn traced(w: Workload, inputs: &Inputs, t: &mut Tracer, out: &mut Outcome) {
    let offered = inputs.requests.len() as u64;
    let mut rr = inputs.cfg.clone();
    rr.routing = RoutingPolicy::RoundRobin;
    let mut last = None;
    for r in 0..TRACED_REPEATS {
        let plain =
            t.call("serve.simulate_fleet", r, || simulate_fleet(&inputs.cfg, &inputs.requests));
        let mut sink = RingBufferSink::with_capacity(TRACE_CAPACITY);
        let traced = t.call("serve.simulate_fleet_traced", r, || {
            simulate_fleet_traced(&inputs.cfg, &inputs.requests, &mut sink)
        });
        let agg = t.call("telemetry.AggregateReport::from_events", r, || {
            AggregateReport::from_events(&sink.events())
        });
        out.attempted += 2 * offered;
        accounting(w, inputs, &plain, out);
        out.check(plain == traced, offered, "traced replay differs from the untraced one");
        out.check(sink.dropped() == 0, offered, "telemetry ring overflowed");
        if w == Workload::Low {
            let report =
                t.call("serve.simulate_fleet[rr]", r, || simulate_fleet(&rr, &inputs.requests));
            out.attempted += offered;
            accounting(w, inputs, &report, out);
        }
        last = Some((plain, agg, sink.len()));
    }
    let (plain, agg, telemetry_events) = last.expect("at least one traced round");

    let min_s = |name: &str| t.get(name).min_ns as f64 / 1e9;
    let replay_s = min_s("serve.simulate_fleet");
    if w == Workload::Low {
        out.set("serve.routing_share", 1.0 - min_s("serve.simulate_fleet[rr]") / replay_s);
    }
    let trace_call =
        if w == Workload::Low { "workloads.arrival_times" } else { "serve.session_requests" };
    out.set("workloads.trace_ms", t.get(trace_call).mean_ms());
    out.set(
        "serve.config_ms",
        t.get("serve.FleetConfig::builder").mean_ms() + t.get("serve.FaultPlan::seeded").mean_ms(),
    );
    let m = &plain.metrics;
    out.set("serve.replay_s", replay_s);
    out.set("serve.events", plain.events_processed as f64);
    out.set("serve.host_us_per_event", replay_s * 1e6 / plain.events_processed as f64);
    out.set("serve.shed_rate", m.shed_rate);
    out.set("serve.retried", m.retried as f64);
    out.set(
        "serve.min_availability",
        m.per_replica_availability.iter().copied().fold(f64::INFINITY, f64::min),
    );
    out.set(
        "serve.utilization_mean",
        m.per_replica_utilization.iter().sum::<f64>() / m.per_replica_utilization.len() as f64,
    );
    if let Some(s) = &m.sessions {
        out.set("serve.re_prefill_rate", s.re_prefill_rate);
        out.set("serve.sessions_lost", s.sessions_lost as f64);
    }
    out.set("telemetry.compression_s", agg.compression_s);
    out.set("telemetry.linear_s", agg.linear_s);
    out.set("telemetry.attention_s", agg.attention_s);
    out.set("telemetry.transfer_s", agg.transfer_s);
    out.set("telemetry.upload_s", agg.upload_s);
    out.set("telemetry.bubble_s", agg.bubble_s());
    let (busy, extent) =
        agg.replicas.iter().fold((0.0, 0.0), |(b, e), r| (b + r.sa_busy_s, e + r.sa_extent_s));
    out.set("telemetry.sa_occupancy_pct", if extent > 0.0 { 100.0 * busy / extent } else { 0.0 });
    out.set("telemetry.overhead", min_s("serve.simulate_fleet_traced") / replay_s);
    println!(
        "{}: traced run, {telemetry_events} telemetry events, {} handler events",
        w.label(),
        plain.events_processed,
    );
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::Low => "fleet-low",
            Workload::Sessions => "fleet-sessions",
        }
    }
}
