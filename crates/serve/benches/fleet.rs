//! Fleet simulation wall-clock on the step-tree driver.
//!
//! Tracks what one `simulate_fleet` replay costs as the fleet grows.
//! Each event costs a five-way comparison plus an O(log replicas) step
//! tree update per replica it touched, and round-robin routing does not
//! scan the fleet, so the three sizes should differ mostly by their
//! event counts (four requests per replica).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use cta_serve::{
    poisson_requests, simulate_fleet, AdmissionPolicy, BatchPolicy, FleetConfig, LoadSpec,
    RoutingPolicy,
};
use cta_sim::{AttentionTask, SystemConfig};

fn config(replicas: usize) -> FleetConfig {
    FleetConfig::builder(SystemConfig::paper())
        .replicas(replicas)
        .routing(RoutingPolicy::RoundRobin)
        .batch(BatchPolicy::up_to(4))
        .admission(AdmissionPolicy::bounded(32))
        .build()
        .expect("valid bench fleet")
}

fn bench_fleet(c: &mut Criterion) {
    let spec = LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 2, 4);
    for replicas in [8usize, 64, 1024] {
        let requests = poisson_requests(&spec, 4 * replicas, 6_000.0 * replicas as f64, 7);
        let cfg = config(replicas);
        c.bench_function(&format!("fleet/{replicas}rep"), |b| {
            b.iter(|| black_box(simulate_fleet(&cfg, black_box(&requests))));
        });
    }
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
