//! Property tests of the fleet runtime's scheduler invariants.
//!
//! Across randomly drawn fleet shapes, load levels and policies:
//!
//! * **conservation** — every offered request is accounted for exactly
//!   once (completed + shed == offered), with no duplicated ids;
//! * **causality** — a completion never precedes its own arrival plus its
//!   solo service time (the cost model's admissibility lower bound);
//! * **determinism** — a fixed seed reproduces the full report bitwise;
//! * **typed configuration errors** — a configuration the builder accepts
//!   never panics the replay; a malformed one is refused with an error.

use cta_serve::{
    mmpp_requests, poisson_requests, simulate_fleet, AdmissionPolicy, AutoscalePolicy,
    Backpressure, BatchPolicy, BreakerPolicy, BrownoutConfig, BrownoutLadder, ControllerPolicy,
    CostModel, CrashWindow, DetectorPolicy, FaultPlan, FleetConfig, GrayFailure, HedgePolicy,
    LinkStall, LoadSpec, MmppParams, OverloadControl, Partition, QosClass, QuotaPolicy,
    RoutingPolicy, SchedulerPolicy, ServeRequest, Slowdown, TenancyConfig, ZoneOutage,
};
use cta_sim::{AttentionTask, CtaSystem, SystemConfig};
use proptest::prelude::*;

fn spec() -> LoadSpec {
    LoadSpec::standard(AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6), 3, 4)
}

fn routing(choice: u8) -> RoutingPolicy {
    match choice % 3 {
        0 => RoutingPolicy::RoundRobin,
        1 => RoutingPolicy::JoinShortestQueue,
        _ => RoutingPolicy::LeastOutstandingWork,
    }
}

fn config(replicas: usize, route: u8, batch: usize, depth: usize) -> FleetConfig {
    let mut cfg = FleetConfig::sharded(SystemConfig::paper(), replicas);
    cfg.routing = routing(route);
    cfg.batch = BatchPolicy::up_to(batch);
    cfg.admission = AdmissionPolicy::bounded(depth);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_request_is_lost_or_duplicated(
        replicas in 1usize..5,
        route in 0u8..3,
        batch in 1usize..5,
        depth in 1usize..8,
        count in 1usize..60,
        rate in 100.0f64..40_000.0,
        seed in 0u64..1_000,
    ) {
        let requests = poisson_requests(&spec(), count, rate, seed);
        let report = simulate_fleet(&config(replicas, route, batch, depth), &requests);

        prop_assert_eq!(report.completions.len() + report.shed.len(), count);
        prop_assert_eq!(report.metrics.completed + report.metrics.shed, count);
        prop_assert_eq!(
            report.metrics.per_replica_completed.iter().sum::<usize>(),
            report.metrics.completed
        );

        let mut ids: Vec<u64> = report
            .completions.iter().map(|c| c.id)
            .chain(report.shed.iter().map(|s| s.id))
            .collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..count as u64).collect();
        prop_assert_eq!(ids, expected, "every id exactly once across outcomes");
    }

    #[test]
    fn completions_respect_causality_and_solo_lower_bound(
        replicas in 1usize..4,
        route in 0u8..3,
        batch in 1usize..4,
        count in 1usize..40,
        rate in 100.0f64..20_000.0,
        seed in 0u64..1_000,
    ) {
        let s = spec();
        let requests = poisson_requests(&s, count, rate, seed);
        // Unbounded admission: everything completes, so the bound is
        // checked on every request.
        let mut cfg = config(replicas, route, batch, 1);
        cfg.admission = AdmissionPolicy::admit_all();
        let report = simulate_fleet(&cfg, &requests);
        prop_assert_eq!(report.completions.len(), count);

        let system = CtaSystem::new(SystemConfig::paper());
        let mut cost = CostModel::new();
        let solo = cost.request_service_s(&system, &requests[0]);
        for c in &report.completions {
            prop_assert!(c.finish_s >= c.arrival_s, "finish before arrival");
            // Merging never shortens a layer's critical path, so realised
            // latency is at least the solo service time (tolerance for
            // step-granular float accumulation).
            prop_assert!(
                c.latency_s() >= solo * (1.0 - 1e-9),
                "request {} latency {} below solo service {}",
                c.id, c.latency_s(), solo
            );
        }
        // Completion times are non-decreasing in report order per replica.
        for r in 0..replicas {
            let finishes: Vec<f64> = report
                .completions.iter().filter(|c| c.replica == r).map(|c| c.finish_s).collect();
            prop_assert!(
                finishes.windows(2).all(|w| w[0] <= w[1]),
                "replica {} completions out of order", r
            );
        }
    }

    #[test]
    fn fixed_seed_reproduces_the_report_bitwise(
        replicas in 1usize..4,
        route in 0u8..3,
        batch in 1usize..4,
        depth in 1usize..6,
        count in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let s = spec();
        let params = MmppParams::new(2_000.0, 50_000.0, 0.1);
        let requests = mmpp_requests(&s, count, params, seed);
        prop_assert_eq!(&requests, &mmpp_requests(&s, count, params, seed));

        let cfg = config(replicas, route, batch, depth);
        let a = simulate_fleet(&cfg, &requests);
        let b = simulate_fleet(&cfg, &requests);
        prop_assert_eq!(a, b);
    }
}

/// Splitmix64 step: one property seed expands into a whole configuration.
fn draw(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `sensible` seven times in eight, otherwise a value from a palette of
/// boundaries: NaN, ±∞, ±0, negatives and a spread of magnitudes.
fn edgy_f64(state: &mut u64, sensible: f64) -> f64 {
    const PALETTE: [f64; 12] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        -1.0,
        1e-9,
        1e-4,
        0.5,
        1.0,
        4.0,
        1e300,
    ];
    if !draw(state).is_multiple_of(8) {
        return sensible;
    }
    PALETTE[(draw(state) % PALETTE.len() as u64) as usize]
}

/// `sensible` seven times in eight, otherwise a small count (zero
/// included).
fn edgy_usize(state: &mut u64, sensible: usize) -> usize {
    if !draw(state).is_multiple_of(8) {
        return sensible;
    }
    [0, 1, 2, 3, 5, 40][(draw(state) % 6) as usize]
}

/// Half the time `None`, otherwise `make`'s value.
fn maybe<T>(state: &mut u64, make: impl FnOnce(&mut u64) -> T) -> Option<T> {
    if draw(state).is_multiple_of(2) {
        None
    } else {
        Some(make(state))
    }
}

/// A fault plan over a trace of about a millisecond: windows are mostly
/// well formed, but any time, factor or replica index may come from the
/// boundary palette or lie past the fleet, and windows may overlap or
/// arrive unsorted.
fn edgy_faults(state: &mut u64, replicas: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let replica = |s: &mut u64| {
        if draw(s).is_multiple_of(32) {
            replicas + (draw(s) % 2) as usize
        } else {
            (draw(s) % replicas as u64) as usize
        }
    };
    // The `slot`-th window: it starts in [400·slot, 400·slot + 100] µs
    // and lasts 100-300 µs, so windows of one kind come sorted and
    // disjoint unless a boundary value lands in them.
    let window = |s: &mut u64, slot: u64| {
        let (start, len) = (4 * slot + draw(s) % 2, 1 + draw(s) % 3);
        let from_s = edgy_f64(s, start as f64 * 1e-4);
        let until_s = edgy_f64(s, from_s + len as f64 * 1e-4);
        (from_s, until_s)
    };
    for slot in 0..draw(state) % 3 {
        let (replica, (down_s, up_s)) = (replica(state), window(state, slot));
        let up_s = if draw(state).is_multiple_of(4) { None } else { Some(up_s) };
        plan.crashes.push(CrashWindow { replica, down_s, up_s });
    }
    for _ in 0..draw(state) % 2 {
        let (replica, (from_s, until_s)) = (replica(state), window(state, 0));
        plan.partitions.push(Partition { replica, from_s, until_s });
    }
    for _ in 0..draw(state) % 2 {
        let (replica, (from_s, until_s)) = (replica(state), window(state, 0));
        let factor = edgy_f64(state, 3.0);
        plan.slowdowns.push(Slowdown { replica, from_s, until_s, factor });
    }
    for _ in 0..draw(state) % 2 {
        let (replica, (from_s, until_s)) = (replica(state), window(state, 0));
        let factor = edgy_f64(state, 2.0);
        plan.link_stalls.push(LinkStall { replica, from_s, until_s, factor });
    }
    for _ in 0..draw(state) % 2 {
        let (replica, (from_s, until_s)) = (replica(state), window(state, 0));
        let (severity, seed) = (edgy_f64(state, 0.5), draw(state));
        plan.gray.push(GrayFailure { replica, from_s, until_s, severity, seed });
    }
    if draw(state).is_multiple_of(8) {
        let mapped = edgy_usize(state, replicas);
        plan.zones = (0..mapped).map(|r| r % 2).collect();
        let (zone, (down_s, up_s)) = ((draw(state) % 2) as usize, window(state, 3));
        plan.zone_outages.push(ZoneOutage { zone, down_s, up_s: Some(up_s) });
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every configuration `FleetConfigBuilder::build` accepts runs to
    /// completion without a panic and accounts for every request; every
    /// other one is refused with a typed error. Fault plans, detector,
    /// hedge, breaker, brownout and tenancy values come from a boundary
    /// palette (NaN, ±∞, 0, out-of-range replicas, overlapping windows)
    /// on fleets of at most four replicas.
    #[test]
    fn malformed_fleet_configs_return_err_and_never_panic(
        seed in 0u64..u64::MAX,
        replicas in 1usize..5,
    ) {
        let mut draws = seed;
        let state = &mut draws;
        let mut builder = FleetConfig::builder(SystemConfig::paper())
            .replicas(edgy_usize(state, replicas))
            .routing(routing(draw(state) as u8))
            .admission(AdmissionPolicy::bounded(1 + (draw(state) % 6) as usize))
            .batch(BatchPolicy { max_active_requests: edgy_usize(state, 2) })
            .faults(edgy_faults(state, replicas));
        let mut overload = OverloadControl::off();
        if let Some(policy) = maybe(state, |s| ControllerPolicy {
            depth_window: edgy_usize(s, 4),
            miss_window: edgy_usize(s, 4),
            depth_up: edgy_f64(s, 1.0),
            depth_down: edgy_f64(s, 0.5),
            miss_up: edgy_f64(s, 0.3),
            miss_down: edgy_f64(s, 0.05),
            dwell: edgy_usize(s, 2),
        }) {
            overload.brownout = Some(BrownoutConfig { ladder: BrownoutLadder::standard(), policy });
        }
        overload.breaker = maybe(state, |s| BreakerPolicy {
            failure_threshold: edgy_usize(s, 2) as u32,
            cooldown_s: edgy_f64(s, 1e-4),
        });
        overload.hedge = maybe(state, |s| HedgePolicy {
            min_delay_s: edgy_f64(s, 1e-5),
            latency_window: edgy_usize(s, 4),
            quantile: edgy_f64(s, 0.9),
        });
        builder = builder.overload(overload);
        if let Some(d) = maybe(state, |s| DetectorPolicy {
            phi_threshold: edgy_f64(s, 2.0),
            window: edgy_usize(s, 8),
            min_samples: edgy_usize(s, 2),
            probation_s: edgy_f64(s, 1e-4),
            gray_ratio: maybe(s, |s| edgy_f64(s, 4.0)),
        }) {
            builder = builder.detector(d);
        }
        let tenants = 1 + (draw(state) % 3) as u32;
        if draw(state).is_multiple_of(2) {
            let weights = (0..edgy_usize(state, tenants as usize))
                .map(|t| edgy_f64(state, 1.0 + t as f64))
                .collect();
            let scheduler = [SchedulerPolicy::Fifo, SchedulerPolicy::Drr, SchedulerPolicy::Wfq]
                [(draw(state) % 3) as usize];
            let quota = maybe(state, |s| QuotaPolicy {
                rate_rps: edgy_f64(s, 5_000.0),
                burst: edgy_f64(s, 2.0),
            });
            let autoscale = maybe(state, |s| AutoscalePolicy {
                min_replicas: edgy_usize(s, 1),
                max_replicas: edgy_usize(s, replicas),
                scale_up_depth: edgy_f64(s, 2.0),
                scale_down_depth: edgy_f64(s, 0.25),
                step: edgy_usize(s, 1),
                warmup_s: edgy_f64(s, 1e-4),
                cooldown_s: edgy_f64(s, 2e-4),
            });
            let backpressure =
                if draw(state).is_multiple_of(2) { Backpressure::Shed } else { Backpressure::Hold };
            builder = builder.tenancy(TenancyConfig {
                tenants,
                scheduler,
                weights,
                backpressure,
                quota,
                autoscale,
            });
        }
        let Ok(cfg) = builder.build() else {
            // Refused with a typed error: nothing left to run.
            continue;
        };
        // Every other request carries a deadline, so hedging has work.
        let count = 12;
        let requests: Vec<ServeRequest> = poisson_requests(&spec(), count, 20_000.0, seed)
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                if i % 2 == 0 {
                    r.class = QosClass::interactive(1e-3);
                }
                r.with_tenant(i as u32 % tenants)
            })
            .collect();
        let report = simulate_fleet(&cfg, &requests);
        prop_assert_eq!(report.metrics.completed + report.metrics.shed, count);
    }
}
