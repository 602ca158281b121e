//! Tenancy integration: the fair-queue front end, quotas, and the
//! autoscaler composed with the full fleet runtime.
//!
//! The contract under test, in order of importance:
//!
//! * **transparency** — `tenancy: None` is the pre-tenancy runtime by
//!   construction; a *one-tenant equal-weight DRR* configuration with
//!   shed backpressure must also reproduce it byte-for-byte (reports
//!   and trace bytes), on the fleet driver and the reference scan. This is the pin that lets
//!   the golden sweep outputs survive the subsystem's introduction.
//! * **driver independence** — the full tenancy stack (multi-tenant
//!   skew, hold backpressure, quotas, autoscaling, faults) produces
//!   identical reports on the fleet driver and the reference scan
//!   (`cta_serve::reference`, the test oracle).
//! * **isolation** — at 16:1 tenant skew and sustained overload, DRR
//!   holds the Jain fairness index of per-tenant goodput at ≥ 0.95
//!   while FIFO collapses below 0.7 (goodput follows offered share).
//! * **accounting** — quota sheds carry `ShedReason::QuotaExceeded`,
//!   roll up per tenant, and conservation (`offered = completed +
//!   shed`) holds per tenant and fleet-wide.

use cta_serve::{
    poisson_requests, reference, simulate_fleet, simulate_fleet_traced, AdmissionPolicy,
    AutoscalePolicy, Backpressure, BatchPolicy, CostModel, FaultPlan, FleetConfig, FleetReport,
    LoadSpec, QosClass, QuotaPolicy, RoutingPolicy, SchedulerPolicy, ServeRequest, ShedReason,
    TenancyConfig,
};
use cta_sim::{latency_percentile, AttentionTask, CtaSystem, SystemConfig};
use cta_telemetry::RingBufferSink;
use cta_tenancy::{TenancyStats, TenantOutcome};
use cta_workloads::TenantMix;

fn spec() -> LoadSpec {
    LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 3, 4)
}

fn config(replicas: usize, batch: usize, depth: usize) -> FleetConfig {
    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), replicas);
    cfg.routing = RoutingPolicy::JoinShortestQueue;
    cfg.batch = BatchPolicy::up_to(batch);
    cfg.admission = AdmissionPolicy::bounded(depth);
    cfg
}

/// Stamps tenant owners onto a trace from a Zipf popularity mix.
fn stamp(requests: Vec<ServeRequest>, mix: &TenantMix, seed: u64) -> Vec<ServeRequest> {
    let owners = mix.assign(requests.len(), seed);
    requests.into_iter().zip(owners).map(|(r, t)| r.with_tenant(t)).collect()
}

/// One replica's zero-queue service time for the standard request shape.
fn solo_service_s() -> f64 {
    let system = CtaSystem::new(SystemConfig::paper());
    let mut cost = CostModel::new();
    let probe = poisson_requests(&spec(), 1, 1.0, 0);
    cost.request_service_s(&system, &probe[0])
}

/// Runs the same (config, trace) on the reference scan and the fleet
/// driver and returns the pair of reports with the driver-only
/// samples cleared, ready for full `PartialEq` comparison.
fn with_reference(cfg: &FleetConfig, requests: &[ServeRequest]) -> (FleetReport, FleetReport) {
    let step = reference::simulate_fleet(cfg, requests);
    let mut event = simulate_fleet(cfg, requests);
    event.event_queue_samples.clear();
    (step, event)
}

/// A traced fleet entry point: the driver's or the reference scan's.
type Traced = fn(&FleetConfig, &[ServeRequest], &mut RingBufferSink) -> FleetReport;

#[test]
fn single_tenant_equal_weight_drr_is_bitwise_transparent() {
    // The satellite pin: one tenant, equal weights, DRR, shed
    // backpressure — every report byte and every trace byte must match
    // the tenancy-off fleet, faults included, on both drivers.
    let drivers: [(&str, Traced); 2] =
        [("reference", reference::simulate_fleet_traced), ("event", simulate_fleet_traced)];
    for (engine, run) in drivers {
        let mut cfg = config(3, 4, 8);
        let requests = poisson_requests(&spec(), 80, 40_000.0, 11);
        let span = requests.last().expect("nonempty").arrival_s;
        cfg.faults = FaultPlan::seeded(3, 2.0 * span, span, span / 10.0, 11);

        let mut off_sink = RingBufferSink::with_capacity(1 << 16);
        let off = run(&cfg, &requests, &mut off_sink);

        let mut on_cfg = cfg.clone();
        on_cfg.tenancy = Some(TenancyConfig::equal_weight(1, SchedulerPolicy::Drr));
        let mut on_sink = RingBufferSink::with_capacity(1 << 16);
        let mut on = run(&on_cfg, &requests, &mut on_sink);

        assert_eq!(off_sink.dropped(), 0);
        assert_eq!(on_sink.dropped(), 0);
        assert_eq!(off_sink.events(), on_sink.events(), "trace bytes diverged ({engine})");

        let stats = on.metrics.tenancy.take().expect("tenancy stats reported");
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.fairness_index, 1.0, "one tenant is trivially fair");
        assert_eq!(stats.tenants[0].offered, requests.len());
        assert_eq!(off, on, "reports diverged ({engine})");
    }
}

#[test]
fn full_tenancy_stack_is_engine_independent() {
    // Multi-tenant skew + hold backpressure + quotas + autoscaling +
    // faults: every tenancy code path active at once, both drivers.
    let mut cfg = config(4, 4, 4);
    let mix = TenantMix::new(6, 1.2);
    let requests = stamp(poisson_requests(&spec(), 150, 60_000.0, 5), &mix, 5);
    let span = requests.last().expect("nonempty").arrival_s;
    cfg.faults = FaultPlan::seeded(4, 2.0 * span, span, span / 10.0, 5);
    let mut tenancy = TenancyConfig::equal_weight(6, SchedulerPolicy::Wfq);
    tenancy.backpressure = Backpressure::Hold;
    tenancy.quota = Some(QuotaPolicy::new(8_000.0, 4.0));
    tenancy.autoscale = Some(AutoscalePolicy::reactive(2, 4, span / 20.0));
    cfg.tenancy = Some(tenancy);

    let (step, event) = with_reference(&cfg, &requests);
    assert_eq!(step, event);
    let stats = step.metrics.tenancy.as_ref().expect("tenancy stats reported");
    assert_eq!(stats.tenants.len(), 6);
    assert_eq!(
        stats.tenants.iter().map(|t| t.offered).sum::<usize>(),
        requests.len(),
        "every request is attributed to a tenant"
    );
    for t in &stats.tenants {
        assert_eq!(
            t.offered,
            t.completed + t.shed,
            "per-tenant conservation (tenant {})",
            t.tenant
        );
    }
    assert!(stats.quota_shed > 0, "the 8k rps quota must bite at 60k rps offered");
}

#[test]
fn drr_isolates_goodput_where_fifo_follows_offered_share() {
    // The acceptance scenario: 16 tenants under a Zipf(1.0) popularity
    // mix (16:1 hot/cold offered ratio), offered load ~6x fleet
    // capacity, a deadline-bearing non-exempt class, tiny replica
    // queues, and hold backpressure so contention lives in the fair
    // queue. DRR serves backlogged tenants evenly, so per-tenant
    // goodput equalizes; FIFO serves in arrival order, so goodput
    // tracks the skewed offered shares and Jain's index collapses.
    let solo = solo_service_s();
    let replicas = 2;
    let mix = TenantMix::new(16, 1.0);
    let rate = 6.0 * replicas as f64 / solo;
    let base = poisson_requests(&spec(), 1200, rate, 17);
    let deadline_s = 40.0 * solo;
    let class = QosClass { name: "tenant-slo", priority: 100, deadline_s: Some(deadline_s) };
    let requests: Vec<ServeRequest> = stamp(base, &mix, 17)
        .into_iter()
        .map(|mut r| {
            r.class = class;
            r
        })
        .collect();

    let fairness = |scheduler: SchedulerPolicy| {
        let mut cfg = config(replicas, 2, 2);
        let mut tenancy = TenancyConfig::equal_weight(16, scheduler);
        tenancy.backpressure = Backpressure::Hold;
        cfg.tenancy = Some(tenancy);
        let report = simulate_fleet(&cfg, &requests);
        let stats = report.metrics.tenancy.expect("tenancy stats reported");
        assert_eq!(
            stats.tenants.iter().map(|t| t.offered).sum::<usize>(),
            requests.len(),
            "conservation under {scheduler:?}"
        );
        stats.fairness_index
    };

    let drr = fairness(SchedulerPolicy::Drr);
    let fifo = fairness(SchedulerPolicy::Fifo);
    assert!(drr >= 0.95, "DRR fairness {drr:.3} < 0.95 at 16:1 skew");
    assert!(fifo < 0.7, "FIFO fairness {fifo:.3} should collapse under skew");
    assert!(drr > fifo, "DRR must beat FIFO ({drr:.3} vs {fifo:.3})");
}

#[test]
fn quota_exhaustion_sheds_at_arrival_with_full_accounting() {
    let mut cfg = config(2, 4, 16);
    let mut tenancy = TenancyConfig::equal_weight(2, SchedulerPolicy::Drr);
    // ~1 admitted request per tenant per 2ms at a 50k rps offered rate:
    // almost everything quota-sheds.
    tenancy.quota = Some(QuotaPolicy::new(500.0, 2.0));
    cfg.tenancy = Some(tenancy);
    let requests = stamp(poisson_requests(&spec(), 60, 50_000.0, 3), &TenantMix::new(2, 0.0), 3);
    let report = simulate_fleet(&cfg, &requests);

    let quota_sheds: Vec<_> =
        report.shed.iter().filter(|s| s.reason == ShedReason::QuotaExceeded).collect();
    assert!(!quota_sheds.is_empty(), "the quota must bite");
    let stats = report.metrics.tenancy.as_ref().expect("tenancy stats reported");
    assert_eq!(stats.quota_shed, quota_sheds.len());
    for t in &stats.tenants {
        assert_eq!(
            t.quota_shed,
            quota_sheds.iter().filter(|s| s.tenant == t.tenant).count(),
            "per-tenant quota attribution (tenant {})",
            t.tenant
        );
        assert!(t.quota_shed <= t.shed, "quota sheds are a subset of sheds");
    }
    // Burst tokens admit the first arrivals: the fleet still completes work.
    assert!(report.metrics.completed > 0);
    assert_eq!(report.metrics.completed + report.metrics.shed, requests.len());
}

#[test]
fn autoscaler_scales_up_under_burst_and_down_when_calm() {
    // A hot burst followed by a calm tail: the scaler must grow the
    // active prefix during the burst and drain it once the signal
    // drops, never leaving the [min, max] band.
    let mut burst = poisson_requests(&spec(), 100, 80_000.0, 9);
    let t_end = burst.last().expect("nonempty").arrival_s;
    let tail = poisson_requests(&spec(), 40, 2_000.0, 10);
    for (i, mut r) in tail.into_iter().enumerate() {
        r.id = 100 + i as u64;
        r.arrival_s += t_end;
        burst.push(r);
    }
    let requests = burst;

    let mut cfg = config(4, 4, 4);
    let mut tenancy = TenancyConfig::equal_weight(1, SchedulerPolicy::Drr);
    tenancy.backpressure = Backpressure::Hold;
    tenancy.autoscale = Some(AutoscalePolicy::reactive(1, 4, t_end / 10.0));
    cfg.tenancy = Some(tenancy);

    let (step, event) = with_reference(&cfg, &requests);
    assert_eq!(step, event);
    let stats = step.metrics.tenancy.as_ref().expect("tenancy stats reported");
    assert!(stats.scale_ups >= 1, "the burst must trigger a scale-up");
    assert!(stats.scale_downs >= 1, "the calm tail must trigger a scale-down");
    assert!((1..=4).contains(&stats.final_active), "active prefix stays in band");
    // Hold backpressure + no deadline: nothing is lost, only delayed.
    assert_eq!(step.metrics.completed, requests.len());
    assert_eq!(step.metrics.shed, 0);
}

#[test]
fn hold_backpressure_trades_sheds_for_latency() {
    // Same overloaded single-tenant trace, shed vs hold: hold with a
    // deadline-free class completes everything; shed drops the excess
    // at the bounded replica queues.
    let requests = poisson_requests(&spec(), 80, 60_000.0, 21);
    let run = |backpressure: Backpressure| {
        let mut cfg = config(2, 2, 2);
        let mut tenancy = TenancyConfig::equal_weight(1, SchedulerPolicy::Drr);
        tenancy.backpressure = backpressure;
        cfg.tenancy = Some(tenancy);
        simulate_fleet(&cfg, &requests)
    };
    let held = run(Backpressure::Hold);
    let shed = run(Backpressure::Shed);
    assert_eq!(held.metrics.completed, requests.len(), "hold completes everything");
    assert_eq!(held.metrics.shed, 0);
    assert!(shed.metrics.shed > 0, "shed backpressure drops the overload excess");
    let p99 = |r: &FleetReport| r.metrics.latency.as_ref().expect("completions").p99_s;
    assert!(p99(&held) > p99(&shed), "holding queues work instead of dropping it");
}

#[test]
#[should_panic(expected = "request tenant id out of range")]
fn out_of_range_tenant_ids_are_rejected() {
    let mut cfg = config(2, 2, 4);
    cfg.tenancy = Some(TenancyConfig::equal_weight(2, SchedulerPolicy::Drr));
    let requests: Vec<ServeRequest> =
        poisson_requests(&spec(), 4, 10_000.0, 1).into_iter().map(|r| r.with_tenant(7)).collect();
    let _ = simulate_fleet(&cfg, &requests);
}

/// `cta-tenancy` has no dependencies, so it keeps a private copy of the
/// percentile rule: its per-tenant p50/p99 must be exactly what
/// `cta_sim::latency_percentile` reports, at the small-sample edges and
/// on a seeded sample.
#[test]
fn tenant_percentiles_are_latency_percentile() {
    let mut rng = cta_serve::DetRng::seeded(7);
    let seeded: Vec<f64> = (0..201).map(|_| rng.next_f64() * 0.2).collect();
    let samples = [vec![0.3], vec![0.3, 0.1], vec![0.2, 0.3, 0.1], seeded];
    let outcomes: Vec<TenantOutcome> = samples
        .iter()
        .enumerate()
        .map(|(t, latencies)| TenantOutcome {
            latencies_s: latencies.clone(),
            ..TenantOutcome::new(t as u32)
        })
        .collect();
    let stats = TenancyStats::from_outcomes(&outcomes, 1.0);
    for (row, latencies) in stats.tenants.iter().zip(&samples) {
        let mut sorted = latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        assert_eq!(row.p50_s, latency_percentile(&sorted, 0.50), "p50 at n = {n}");
        assert_eq!(row.p99_s, latency_percentile(&sorted, 0.99), "p99 at n = {n}");
    }
}
