//! Driver equivalence: the step-tree fleet driver must be a drop-in
//! replacement for the step-granular reference scan
//! (`cta_serve::reference`, the test oracle).
//!
//! Both run the same cascade over the engine's ordered event sources;
//! the driver reads the earliest replica step from a tournament tree
//! updated only for the replicas a handler touched, where the scan looks
//! at every replica. Both call the *same* handler code in the same
//! order, so every float operation — and therefore every report byte and
//! every trace byte — must be identical. These tests pin that contract
//! where it is most likely to crack (a replica whose step time changes
//! without being marked touched would leave the tree stale):
//!
//! * randomly drawn fleet shapes (routing × batching × admission);
//! * seeded crash/recovery schedules (back-dated requeues, outage
//!   no-ops);
//! * the full overload-control stack (brownout ladder, breakers,
//!   hedged dispatch — including back-dated hedge-copy steps);
//! * coincident timestamps (equal arrivals resolved by request id);
//! * the telemetry stream: identical `RingBufferSink` bytes, so a
//!   trace from either driver is *the* trace.
//!
//! The only intentional difference: `event_queue_samples` is populated
//! by the driver alone (the scan keeps no step index to count), so
//! reports are compared with it cleared. `tests/queue_occupancy.rs` pins
//! the samples themselves.

use cta_serve::{
    mmpp_requests, poisson_requests, reference, simulate_fleet, simulate_fleet_traced,
    AdmissionPolicy, BatchPolicy, FaultPlan, FleetConfig, FleetReport, LoadSpec, MmppParams,
    OverloadControl, QosClass, RoutingPolicy, ServeRequest,
};
use cta_sim::{AttentionTask, SystemConfig};
use cta_telemetry::RingBufferSink;
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

/// Runs the same (config, trace) on the reference scan and the fleet
/// driver and returns the pair of reports with the driver-only
/// samples cleared, ready for full `PartialEq` comparison.
fn with_reference(cfg: &FleetConfig, requests: &[ServeRequest]) -> (FleetReport, FleetReport) {
    let step = reference::simulate_fleet(cfg, requests);
    let mut event = simulate_fleet(cfg, requests);
    assert!(!event.event_queue_samples.is_empty(), "the driver samples its pending events");
    assert!(step.event_queue_samples.is_empty(), "the reference scan takes no samples");
    event.event_queue_samples.clear();
    (step, event)
}

#[test]
fn single_fifo_reports_are_identical() {
    let cfg = FleetConfig::single_fifo(SystemConfig::paper());
    let requests = poisson_requests(&spec(), 40, 20_000.0, 3);
    let (step, event) = with_reference(&cfg, &requests);
    assert_eq!(step, event);
}

#[test]
fn seeded_fault_schedules_survive_the_engine_swap() {
    // Crashes evict work mid-flight, requeue it under the retry budget,
    // and recovery replays back-dated step times — the paths where a
    // step index most easily drifts from a rescan.
    for seed in [1u64, 9, 42] {
        let mut cfg = config(3, 1, 4, 16);
        let requests = poisson_requests(&spec(), 80, 40_000.0, seed);
        let span = requests.last().expect("nonempty").arrival_s;
        cfg.faults = FaultPlan::seeded(3, 2.0 * span, span / 2.0, span / 20.0, seed);
        let (step, event) = with_reference(&cfg, &requests);
        assert_eq!(step, event, "seed {seed}");
        assert_eq!(step.events_processed, event.events_processed, "seed {seed}");
    }
}

#[test]
fn full_overload_stack_is_engine_independent() {
    // Brownout + breakers + hedging under bursty MMPP load and faults:
    // hedge timers, hedge-win cancellations (which touch every replica
    // holding a losing copy) and breaker probes all feed the cascade.
    let mut cfg = config(3, 1, 4, 12);
    let mut load = spec();
    load.class = QosClass::interactive(0.05);
    let requests = mmpp_requests(&load, 120, MmppParams::new(10_000.0, 80_000.0, 0.1), 7);
    let span = requests.last().expect("nonempty").arrival_s;
    cfg.faults = FaultPlan::seeded(3, 2.0 * span, span, span / 10.0, 7);
    cfg.overload = OverloadControl::standard();
    let (step, event) = with_reference(&cfg, &requests);
    assert_eq!(step, event);
    assert!(step.metrics.overload.hedged > 0, "the scenario must actually hedge");
}

#[test]
fn non_uniform_layers_under_brownout_hedging_and_crashes_match_the_scan() {
    // Layers change shape in runs of three, so replicas meet run boundaries
    // mid-request; brownout moves, hedge copies, crash evictions and
    // retries all invalidate the replicas' step memos. The test profile
    // has debug assertions on, so every reused step is re-priced from
    // scratch and asserted bit-equal inside the run itself.
    let shapes = [
        AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6),
        AttentionTask::from_counts(64, 64, 64, 30, 25, 10, 6),
        AttentionTask::from_counts(16, 512, 64, 8, 180, 40, 6),
    ];
    let mut load = spec();
    load.class = QosClass::interactive(0.05);
    let requests: Vec<ServeRequest> =
        mmpp_requests(&load, 400, MmppParams::new(10_000.0, 80_000.0, 0.1), 11)
            .iter()
            .map(|r| {
                let i = r.id as usize;
                let layers = (0..4 + i % 6).map(|l| vec![shapes[(i + l / 3) % 3]; 1 + i % 3]);
                ServeRequest::new(r.id, r.arrival_s, r.class, layers.collect())
            })
            .collect();
    let mut cfg = config(3, 2, 4, 12);
    let span = requests.last().expect("nonempty").arrival_s;
    cfg.faults = FaultPlan::seeded(3, 2.0 * span, span / 2.0, span / 10.0, 11);
    cfg.overload = OverloadControl::standard();
    let (step, event) = with_reference(&cfg, &requests);
    assert_eq!(step, event);
    let m = &step.metrics;
    assert!(m.overload.hedged > 0, "the scenario must hedge: {:?}", m.overload);
    assert!(m.overload.brownout_transitions > 0, "the ladder must move: {:?}", m.overload);
    assert!(m.retried > 0, "crashes must requeue work");
}

#[test]
fn coincident_arrivals_resolve_by_request_id_in_both_engines() {
    // Equal timestamps are legal in replayed traces (`replay_trace`
    // accepts them); both drivers must serve them in id order. Two
    // bursts of four simultaneous arrivals, one at t=0.
    let s = spec();
    let mk = |id: u64, t: f64| ServeRequest::uniform(id, t, s.class, s.task, s.layers, s.heads);
    let requests: Vec<ServeRequest> =
        (0..4u64).map(|id| mk(id, 0.0)).chain((4..8u64).map(|id| mk(id, 1e-3))).collect();
    let cfg = config(2, 0, 2, 4);
    let (step, event) = with_reference(&cfg, &requests);
    assert_eq!(step, event);
    // The admitted prefix is deterministic: ids route in order.
    assert_eq!(step.metrics.completed + step.metrics.shed, 8);
}

#[test]
fn both_drivers_reject_invalid_inputs_with_the_same_message() {
    // The driver and the reference scan share one precondition block,
    // so a bad input fails the same way whichever of them runs it.
    fn panic_message(run: impl FnOnce() -> FleetReport) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("an invalid input must be rejected");
        payload
            .downcast_ref::<&str>()
            .map(|m| m.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a string panic message")
    }
    let requests = poisson_requests(&spec(), 8, 10_000.0, 3);
    let mut no_replicas = config(2, 0, 2, 4);
    no_replicas.replicas = 0;
    let mut unsorted = requests.clone();
    unsorted.reverse();
    let cases: [(&str, FleetConfig, Vec<ServeRequest>); 3] = [
        ("at least one replica", no_replicas, requests.clone()),
        ("at least one request", config(2, 0, 2, 4), Vec::new()),
        ("sorted by arrival time", config(2, 0, 2, 4), unsorted),
    ];
    for (expect, cfg, reqs) in cases {
        let driver = panic_message(|| simulate_fleet(&cfg, &reqs));
        let oracle = panic_message(|| reference::simulate_fleet(&cfg, &reqs));
        assert!(driver.contains(expect), "{expect:?}: driver said {driver:?}");
        assert_eq!(driver, oracle, "{expect:?}");
    }
}

#[test]
fn trace_bytes_are_engine_independent() {
    // The telemetry stream is written from inside the shared handlers,
    // so the two drivers must emit byte-identical event streams — the
    // property the golden trace-SHA pins rely on.
    let mut cfg = config(2, 2, 3, 8);
    let requests = poisson_requests(&spec(), 60, 30_000.0, 13);
    let span = requests.last().expect("nonempty").arrival_s;
    cfg.faults = FaultPlan::seeded(2, 2.0 * span, span, span / 10.0, 13);

    let mut step_sink = RingBufferSink::with_capacity(1 << 16);
    let step = reference::simulate_fleet_traced(&cfg, &requests, &mut step_sink);

    let mut event_sink = RingBufferSink::with_capacity(1 << 16);
    let mut event = simulate_fleet_traced(&cfg, &requests, &mut event_sink);

    assert_eq!(step_sink.dropped(), 0);
    assert_eq!(event_sink.dropped(), 0);
    assert_eq!(step_sink.events(), event_sink.events(), "trace streams diverged");
    event.event_queue_samples.clear();
    assert_eq!(step, event);
}

#[test]
fn wide_fleets_with_padded_step_trees_match_the_scan() {
    // Fleet sizes that are not powers of two pad the step tree; many
    // replicas sharing step instants exercise its lowest-index ties, and
    // hedge-win cancellations touch replicas other than the one stepping.
    for (replicas, seed) in [(33usize, 3u64), (70, 5)] {
        let mut cfg = config(replicas, 1, 4, 8);
        let mut load = spec();
        load.class = QosClass::interactive(0.05);
        let rate = 8_000.0 * replicas as f64;
        let requests =
            mmpp_requests(&load, 6 * replicas, MmppParams::new(rate, 4.0 * rate, 0.1), seed);
        let span = requests.last().expect("nonempty").arrival_s;
        cfg.faults = FaultPlan::seeded(replicas, 2.0 * span, span, span / 10.0, seed);
        cfg.overload = OverloadControl::standard();
        let (step, event) = with_reference(&cfg, &requests);
        assert_eq!(step, event, "{replicas} replicas");
        assert!(step.metrics.retried > 0, "{replicas} replicas: the faults must requeue");
        assert!(step.metrics.overload.hedged > 0, "{replicas} replicas: the load must hedge");
    }
}

#[test]
fn queue_samples_are_ordered_and_bounded() {
    let cfg = config(4, 1, 4, 16);
    let requests = poisson_requests(&spec(), 100, 50_000.0, 21);
    let report = simulate_fleet(&cfg, &requests);
    assert!(!report.event_queue_samples.is_empty());
    for w in report.event_queue_samples.windows(2) {
        assert!(w[0].0 <= w[1].0, "samples follow the virtual clock");
    }
    for &(t, depth) in &report.event_queue_samples {
        assert!(t.is_finite() && t >= 0.0);
        // At most one step per replica plus the next arrival and fault
        // plus live retry/hedge timers; a loose sanity ceiling catches
        // leaks.
        assert!(depth <= 4 + 2 * requests.len(), "queue depth {depth} leaks events");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_random_fleet_shapes(
        replicas in 1usize..5,
        route in 0u8..3,
        batch in 1usize..4,
        depth in 1usize..10,
        count in 1usize..60,
        rate in 1_000.0f64..60_000.0,
        seed in 0u64..1_000,
        faulty in 0u8..2,
    ) {
        let mut cfg = config(replicas, route, batch, depth);
        let requests = poisson_requests(&spec(), count, rate, seed);
        if faulty == 1 {
            let span = requests.last().expect("nonempty").arrival_s.max(1e-6);
            cfg.faults = FaultPlan::seeded(replicas, 2.0 * span, span, span / 10.0, seed);
        }
        let (step, event) = with_reference(&cfg, &requests);
        prop_assert_eq!(step, event);
    }
}
