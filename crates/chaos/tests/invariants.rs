//! End-to-end chaos: seed blocks through the fleet driver and the
//! reference scan with the full invariant library, the mutation
//! self-test, and shrinker guarantees.

use cta_chaos::{run_chaos, shrink, ChaosParams, ChaosScenario, InvariantKind, Mutation, Toggle};
use cta_telemetry::parse_json;

#[test]
fn seed_block_passes_every_invariant_on_both_engines() {
    let params = ChaosParams::default();
    for seed in 1..=40 {
        let sc = ChaosScenario::sample(seed, &params);
        let outcome = run_chaos(&sc, Mutation::None);
        assert!(
            outcome.ok(),
            "seed {seed} ({} replicas, {} events): {:?}",
            sc.replicas,
            sc.plan_events(),
            outcome.violations
        );
    }
}

#[test]
fn forced_feature_combinations_hold_too() {
    // Deliberately arm everything at once: tenancy + brownout + detector
    // over the full fault mix is the composition unit tests never see.
    let params = ChaosParams {
        tenancy: Toggle::On,
        brownout: Toggle::On,
        detector: Toggle::On,
        ..ChaosParams::default()
    };
    for seed in 1..=12 {
        let sc = ChaosScenario::sample(seed, &params);
        let outcome = run_chaos(&sc, Mutation::None);
        assert!(outcome.ok(), "seed {seed}: {:?}", outcome.violations);
    }
}

#[test]
fn injected_conservation_bug_is_caught_and_shrinks_small() {
    let params = ChaosParams::default();
    // Find a seed whose run actually sheds something: DropShed is only
    // observable then (just like a real bookkeeping bug).
    let caught = (1..=32).find_map(|seed| {
        let sc = ChaosScenario::sample(seed, &params);
        let outcome = run_chaos(&sc, Mutation::DropShed);
        (!outcome.ok()).then_some((sc, outcome))
    });
    let (sc, outcome) = caught.expect("some seed in 1..=32 must shed at least one request");
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| matches!(v.kind, InvariantKind::Conservation | InvariantKind::Reconciliation)),
        "DropShed must trip conservation/reconciliation: {:?}",
        outcome.violations
    );

    let min = shrink(&sc, |cand| !run_chaos(cand, Mutation::DropShed).ok());
    assert!(!run_chaos(&min, Mutation::DropShed).ok(), "repro must still fail");
    min.plan.validate(min.replicas);
    assert!(
        min.plan_events() <= 5,
        "minimized repro should be tiny: {} events left",
        min.plan_events()
    );
    assert!(min.requests <= sc.requests && min.replicas <= sc.replicas);

    // The minimized scenario must survive its own repro format.
    let text = min.to_json().to_json();
    let back = ChaosScenario::from_json(&parse_json(&text).expect("parse")).expect("round-trip");
    assert_eq!(back, min);
    assert!(!run_chaos(&back, Mutation::DropShed).ok());
}

#[test]
fn detector_off_scenarios_report_no_detector_stats() {
    let params = ChaosParams { detector: Toggle::Off, ..ChaosParams::default() };
    for seed in 1..=8 {
        let sc = ChaosScenario::sample(seed, &params);
        let outcome = run_chaos(&sc, Mutation::None);
        assert!(outcome.ok(), "seed {seed}: {:?}", outcome.violations);
        assert!(outcome.metrics.detector.is_none());
    }
}

#[test]
fn detector_on_scenarios_report_stats() {
    let params = ChaosParams { detector: Toggle::On, ..ChaosParams::default() };
    let sc = ChaosScenario::sample(2, &params);
    let outcome = run_chaos(&sc, Mutation::None);
    assert!(outcome.ok(), "{:?}", outcome.violations);
    assert!(outcome.metrics.detector.is_some());
}
