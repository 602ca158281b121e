//! Pins the single-replica FIFO configuration of the fleet runtime
//! ([`FleetConfig::single_fifo`]: one replica, batching off, everything
//! admitted) to the classic one-request-at-a-time queue.
//!
//! `tests/golden/single_fifo_metrics.txt` holds the f64 bit patterns of
//! that queue's `ServingMetrics` on three Poisson traces, recorded from
//! the standalone FIFO model this configuration replaced. `simulate_fleet`
//! must reproduce them **bit for bit**: any divergence is a scheduler
//! change, not round-off.

use cta_serve::{replay_trace, simulate_fleet, FleetConfig, QosClass};
use cta_sim::{
    poisson_trace, AttentionTask, CtaSystem, ServingMetrics, ServingRequest, SystemConfig,
};

fn task() -> AttentionTask {
    AttentionTask::from_counts(256, 256, 64, 100, 90, 20, 6)
}

/// The paper-shaped head of the queueing tests.
fn paper_task() -> AttentionTask {
    AttentionTask::from_counts(512, 512, 64, 200, 180, 40, 6)
}

/// `trace` served by the single-replica FIFO fleet on the paper system.
fn single_fifo(trace: &[ServingRequest]) -> ServingMetrics {
    let requests = replay_trace(trace, QosClass::standard()).expect("valid trace");
    let report = simulate_fleet(&FleetConfig::single_fifo(SystemConfig::paper()), &requests);
    assert_eq!(report.metrics.shed, 0, "single_fifo admits everything");
    report.metrics.latency.expect("has completions")
}

/// One time per request through the pool: the one-time weight upload
/// plus every layer step.
fn service_s(layers: usize, heads: usize) -> f64 {
    let sys = CtaSystem::new(SystemConfig::paper());
    sys.run_layers(&vec![vec![paper_task(); heads]; layers]).total_s
}

#[test]
fn single_fifo_fleet_matches_the_golden_fifo_metrics_bitwise() {
    let golden = include_str!("golden/single_fifo_metrics.txt");
    let rows: Vec<Vec<&str>> = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), 3, "one golden row per trace");
    for (row, (rate, seed)) in rows.iter().zip([(50.0, 1u64), (2_000.0, 2), (20_000.0, 3)]) {
        assert_eq!((row[0].parse::<f64>().unwrap(), row[1].parse::<u64>().unwrap()), (rate, seed));
        let m = single_fifo(&poisson_trace(40, rate, task(), 3, 8, seed));
        let got = [m.throughput_rps, m.mean_latency_s, m.p50_s, m.p95_s, m.p99_s, m.busy_fraction]
            .map(|x| format!("{:016x}", x.to_bits()));
        assert_eq!(m.completed.to_string(), row[2], "rate {rate}: completed");
        assert_eq!(got.as_slice(), &row[3..], "rate {rate}: metrics must match bit for bit");
    }
}

#[test]
fn single_fifo_serves_in_arrival_order() {
    let trace = poisson_trace(30, 5_000.0, task(), 2, 4, 9);
    let requests = replay_trace(&trace, QosClass::standard()).expect("valid trace");
    let report = simulate_fleet(&FleetConfig::single_fifo(SystemConfig::paper()), &requests);
    let ids: Vec<u64> = report.completions.iter().map(|c| c.id).collect();
    let expected: Vec<u64> = (0..30).collect();
    assert_eq!(ids, expected, "FIFO completion order is arrival order");
}

#[test]
fn single_request_latency_is_pure_service() {
    let r = ServingRequest::uniform(0.0, paper_task(), 4, 12);
    let m = single_fifo(&[r]);
    assert!((m.mean_latency_s - service_s(4, 12)).abs() < 1e-12);
    assert_eq!(m.completed, 1);
    assert!((m.busy_fraction - 1.0).abs() < 1e-9);
}

#[test]
fn overload_grows_tail_latency() {
    let service = service_s(4, 12);
    // Arrivals at 3x the service rate: queue builds, p99 >> p50 of a
    // light load.
    let mh = single_fifo(&poisson_trace(60, 3.0 / service, paper_task(), 4, 12, 1));
    let ml = single_fifo(&poisson_trace(60, 0.2 / service, paper_task(), 4, 12, 2));
    assert!(mh.p99_s > ml.p99_s * 2.0, "heavy p99 {} vs light p99 {}", mh.p99_s, ml.p99_s);
    assert!(mh.busy_fraction > ml.busy_fraction);
}

#[test]
fn throughput_saturates_at_service_rate() {
    let service = service_s(4, 12);
    let m = single_fifo(&poisson_trace(80, 10.0 / service, paper_task(), 4, 12, 3));
    assert!(m.throughput_rps <= 1.0 / service * 1.01);
    assert!(m.throughput_rps > 1.0 / service * 0.9);
}

#[test]
fn percentiles_are_ordered() {
    let m = single_fifo(&poisson_trace(50, 1000.0, paper_task(), 2, 12, 4));
    assert!(m.p50_s <= m.p95_s && m.p95_s <= m.p99_s);
    assert!(m.mean_latency_s > 0.0);
}
