//! Driver equivalence and bitwise-off pins for the chaos-era fault
//! classes: random zone-outage / partition / gray-failure schedules must
//! run byte-for-byte alike on the fleet driver and the reference scan
//! (`cta_serve::reference`, the test oracle), and an armed
//! detector must not perturb a healthy fleet (quarantine is the *only*
//! mechanism by which it may change routing).

use cta_serve::{
    poisson_requests, reference, simulate_fleet, AdmissionPolicy, BatchPolicy, CrashWindow,
    DetectorPolicy, FaultPlan, FleetConfig, FleetReport, GrayFailure, LoadSpec, Partition,
    RoutingPolicy, ServeRequest, Slowdown, ZoneOutage,
};
use cta_sim::{AttentionTask, SystemConfig};
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

/// A valid plan exercising every chaos-era class, laid out over the
/// trace span: crash early, zone outage late (disjoint by construction,
/// as the validator requires), partition and gray mid-run.
fn chaos_plan(replicas: usize, zones: usize, span: f64, seed: u64, severity: f64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.crashes.push(CrashWindow {
        replica: seed as usize % replicas,
        down_s: 0.10 * span,
        up_s: Some(0.20 * span),
    });
    if zones >= 2 && replicas >= zones {
        plan.zones = (0..replicas).map(|r| r % zones).collect();
        plan.zone_outages.push(ZoneOutage {
            zone: (seed / 7) as usize % zones,
            down_s: 0.60 * span,
            up_s: Some(0.75 * span),
        });
    }
    plan.partitions.push(Partition {
        replica: (seed / 3) as usize % replicas,
        from_s: 0.30 * span,
        until_s: 0.50 * span,
    });
    plan.gray.push(GrayFailure {
        replica: (seed / 5) as usize % replicas,
        from_s: 0.25 * span,
        until_s: 0.55 * span,
        severity,
        seed,
    });
    plan.slowdowns.push(Slowdown {
        replica: (seed / 11) as usize % replicas,
        from_s: 0.40 * span,
        until_s: 0.65 * span,
        factor: 2.5,
    });
    plan
}

/// Runs the same (config, trace) on the reference scan and the fleet
/// driver and returns the reports ready for full `PartialEq` comparison
/// (the driver-only pending-event samples cleared).
fn with_reference(cfg: &FleetConfig, requests: &[ServeRequest]) -> (FleetReport, FleetReport) {
    let step = reference::simulate_fleet(cfg, requests);
    let mut event = simulate_fleet(cfg, requests);
    event.event_queue_samples.clear();
    (step, event)
}

#[test]
fn sharded_default_leaves_the_detector_off() {
    // The bitwise-off contract starts here: no constructor arms the
    // detector, so every pre-existing golden runs the pre-detector path.
    assert!(FleetConfig::sharded(SystemConfig::paper(), 4).detector.is_none());
    assert!(FleetConfig::single_fifo(SystemConfig::paper()).detector.is_none());
}

#[test]
fn armed_detector_does_not_perturb_a_healthy_fleet() {
    // No faults -> no silence, no slow replica -> no quarantine -> the
    // routing mask stays all-true and every byte of the outcome matches
    // the detector-off fleet. (Only the stats field may differ.)
    for seed in [1u64, 7, 23] {
        let requests = poisson_requests(&spec(), 60, 30_000.0, seed);
        let off_cfg = config(3, seed as u8, 2, 8);
        let mut on_cfg = off_cfg.clone();
        on_cfg.detector = Some(DetectorPolicy::standard());
        let off = simulate_fleet(&off_cfg, &requests);
        let mut on = simulate_fleet(&on_cfg, &requests);
        let stats = on.metrics.detector.take().expect("armed detector reports stats");
        assert_eq!(stats.quarantines, 0, "seed {seed}: healthy fleet must not quarantine");
        assert_eq!(off.metrics.detector, None);
        assert_eq!(on, off, "seed {seed}: detector-on healthy run must be bitwise detector-off");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn engines_agree_on_zone_partition_gray_schedules(
        replicas in 2usize..5,
        zones in 2usize..4,
        route in 0u8..3,
        batch in 1usize..4,
        depth in 2usize..10,
        count in 8usize..60,
        rate in 1_000.0f64..60_000.0,
        seed in 0u64..1_000,
        severity in 0.5f64..8.0,
        detector_sel in 0u8..2,
    ) {
        let cfg0 = config(replicas, route, batch, depth);
        let requests = poisson_requests(&spec(), count, rate, seed);
        let span = requests.last().expect("nonempty").arrival_s.max(1e-6);
        let mut cfg = cfg0;
        cfg.faults = chaos_plan(replicas, zones, span, seed, severity);
        cfg.faults.validate(replicas);
        if detector_sel == 1 {
            let mut policy = DetectorPolicy::standard();
            policy.phi_threshold = 2.0;
            policy.window = 8;
            policy.min_samples = 3;
            policy.probation_s = (0.05 * span).max(1e-6);
            cfg.detector = Some(policy);
        }
        let (step, event) = with_reference(&cfg, &requests);
        prop_assert_eq!(step, event);
    }
}
