//! Telemetry integration tests: the three guarantees that make tracing
//! trustworthy.
//!
//! * **Determinism guard** — attaching a [`RingBufferSink`] must not
//!   change the simulation: `simulate_fleet` (NullSink) and
//!   `simulate_fleet_traced` produce bitwise-identical [`FleetReport`]s.
//! * **Span well-formedness** — across randomly drawn fleet shapes, the
//!   spans on every (replica, module) track are non-overlapping and
//!   monotonically ordered, and the Chrome export round-trips through the
//!   validator with balanced begin/end pairs.
//! * **Reconciliation** — summed span seconds per phase equal the
//!   `SystemRun` totals of the same requests, so the trace is the
//!   schedule, not a sketch of it.

use cta_serve::{
    poisson_requests, simulate_fleet, simulate_fleet_traced, AdmissionPolicy, BatchPolicy,
    FleetConfig, LoadSpec, RoutingPolicy, ServeRequest,
};
use cta_sim::{AttentionTask, CtaSystem, SystemConfig};
use cta_telemetry::{
    chrome_trace_json, validate_chrome_trace, AggregateReport, Event, EventKind, RingBufferSink,
    TrackId,
};
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

fn traced(cfg: &FleetConfig, requests: &[ServeRequest]) -> (cta_serve::FleetReport, Vec<Event>) {
    let mut sink = RingBufferSink::with_capacity(1 << 16);
    let report = simulate_fleet_traced(cfg, requests, &mut sink);
    assert_eq!(sink.dropped(), 0, "test traces must fit the ring");
    (report, sink.events())
}

/// Groups the synchronous span events of a stream by track, preserving
/// recording order.
fn spans_by_track(events: &[Event]) -> Vec<(TrackId, Vec<(f64, f64)>)> {
    let mut tracks: Vec<(TrackId, Vec<(f64, f64)>)> = Vec::new();
    for e in events {
        if let EventKind::Span { end_s, .. } = e.kind {
            match tracks.iter_mut().find(|(t, _)| *t == e.track) {
                Some((_, spans)) => spans.push((e.t_s, end_s)),
                None => tracks.push((e.track, vec![(e.t_s, end_s)])),
            }
        }
    }
    tracks
}

// --- determinism guard (satellite: NullSink vs RingBufferSink) -----------

#[test]
fn tracing_never_changes_the_report() {
    for (replicas, batch) in [(1usize, 1usize), (2, 4), (4, 2)] {
        let cfg = config(replicas, 2, batch, 8);
        let requests = poisson_requests(&spec(), 48, 30_000.0, 11);
        let untraced = simulate_fleet(&cfg, &requests);
        let (traced_report, events) = traced(&cfg, &requests);
        // Exact PartialEq over the whole report: every completion time,
        // every metric, bit for bit.
        assert_eq!(untraced, traced_report, "{replicas} replicas, batch {batch}");
        assert!(!events.is_empty(), "traced run must record events");
    }
}

#[test]
fn single_fifo_equivalence_survives_tracing() {
    // The single-replica FIFO configuration is pinned elsewhere to the
    // golden FIFO metrics; attaching a sink must not break that chain.
    let cfg = FleetConfig::single_fifo(SystemConfig::paper());
    let requests = poisson_requests(&spec(), 32, 20_000.0, 3);
    let (traced_report, _) = traced(&cfg, &requests);
    assert_eq!(simulate_fleet(&cfg, &requests), traced_report);
}

// --- reconciliation with SystemRun totals --------------------------------

#[test]
fn fleet_trace_reconciles_with_system_run_totals() {
    // Batching off: every layer step executes exactly one request's layer,
    // so the trace must reproduce the per-request `SystemRun` totals.
    let mut cfg = FleetConfig::single_fifo(SystemConfig::paper());
    cfg.admission = AdmissionPolicy::admit_all();
    let requests = poisson_requests(&spec(), 24, 25_000.0, 5);
    let (report, events) = traced(&cfg, &requests);
    assert_eq!(report.completions.len(), requests.len(), "admit-all completes everything");

    let system = CtaSystem::new(SystemConfig::paper());
    let (mut compute, mut transfer, mut upload) = (0.0f64, 0.0f64, 0.0f64);
    let (mut comp, mut lin, mut att) = (0.0f64, 0.0f64, 0.0f64);
    for r in &requests {
        let run = system.run_layers(&r.layer_tasks);
        compute += run.compute_s;
        transfer += run.transfer_s;
        upload += run.weight_upload_s;
        // Per-phase expectation: the per-head schedule splits, renormalised
        // onto each layer step's LPT critical path — the same quantities
        // the SA-track spans are laid out from, computed here through the
        // sim-side API instead of the serve-side trace writer.
        for tasks in &r.layer_tasks {
            let step = system.step_layer(tasks);
            let (mut c, mut l, mut a) = (0.0f64, 0.0f64, 0.0f64);
            for t in tasks {
                let ps = system.head_phase_split(t);
                c += ps.compression_s;
                l += ps.linear_s;
                a += ps.attention_s;
            }
            let scale = step.critical_s / (c + l + a);
            comp += c * scale;
            lin += l * scale;
            att += a * scale;
        }
    }

    let agg = AggregateReport::from_events(&events);
    let close = |got: f64, want: f64, what: &str| {
        assert!((got - want).abs() <= want.abs() * 1e-9, "{what}: trace {got} vs SystemRun {want}");
    };
    close(agg.compute_s(), compute, "SA compute (bubbles included)");
    close(agg.compression_s, comp, "compression phase");
    close(agg.linear_s, lin, "linear phase");
    close(agg.attention_s, att, "attention phase (stalls included)");
    close(agg.transfer_s, transfer, "host activation transfer");
    close(agg.upload_s, upload, "host weight upload");
    // Occupancy accounting: busy + bubble partitions every SA span.
    for r in &agg.replicas {
        assert!(r.occupancy_pct().is_some());
        assert!(r.sa_busy_s + r.sa_bubble_s <= r.sa_extent_s * (1.0 + 1e-9));
    }
}

// --- span invariants across random fleets (property test) ----------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn exported_spans_are_ordered_balanced_and_non_overlapping(
        replicas in 1usize..4,
        route in 0u8..3,
        batch in 1usize..4,
        depth in 1usize..8,
        count in 1usize..40,
        rate in 1_000.0f64..40_000.0,
        seed in 0u64..1_000,
    ) {
        let cfg = config(replicas, route, batch, depth);
        let requests = poisson_requests(&spec(), count, rate, seed);
        let (_, events) = traced(&cfg, &requests);

        // Per-track synchronous spans: monotonically ordered, no overlap,
        // in recording order (no sorting — the writer must emit them
        // ordered).
        for (track, spans) in spans_by_track(&events) {
            for w in spans.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].1,
                    "track {track:?}: span [{}, {}) starts before [{}, {}) ended",
                    w[1].0, w[1].1, w[0].0, w[0].1
                );
            }
            for (start, end) in spans {
                prop_assert!(end > start, "track {track:?}: empty span recorded");
            }
        }

        // The Chrome export passes its own validator (stack-balanced B/E
        // per track, paired b/e per id, well-formed JSON) and the counts
        // agree with the event stream.
        let validated = validate_chrome_trace(&chrome_trace_json(&events));
        prop_assert!(validated.is_ok(), "export failed validation: {:?}", validated);
        let stats = validated.unwrap();
        prop_assert_eq!(stats.begins, stats.ends, "every B has its E");
        prop_assert_eq!(stats.async_begins, stats.async_ends, "every b has its e");
        let spans = events.iter()
            .filter(|e| matches!(e.kind, EventKind::Span { .. })).count();
        let asyncs = events.iter()
            .filter(|e| matches!(e.kind, EventKind::Async { .. })).count();
        prop_assert_eq!(stats.begins, spans);
        prop_assert_eq!(stats.async_begins, asyncs);
    }
}
