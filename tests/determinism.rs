//! Integration: everything is reproducible from explicit seeds — no
//! hidden global state, no wall-clock, no platform-dependent iteration
//! order anywhere in the pipeline.

use cta::attention::{
    cta_forward, cta_forward_quantized, AttentionWeights, CtaConfig, QuantizationConfig,
};
use cta::serve::{replay_trace, simulate_fleet, FleetConfig, QosClass};
use cta::sim::{
    poisson_trace, AttentionTask, CtaAccelerator, HwConfig, ServingRequest, SystemConfig,
};
use cta::workloads::{
    adapt_per_head, evaluate_case, generate_case_tokens, generate_patch_tokens, mini_case,
    VisionCase,
};

#[test]
fn workload_generation_is_seed_deterministic() {
    let case = mini_case();
    assert_eq!(generate_case_tokens(&case, 42), generate_case_tokens(&case, 42));
    let vision = VisionCase::vit_base();
    assert_eq!(generate_patch_tokens(&vision, 7), generate_patch_tokens(&vision, 7));
}

#[test]
fn forward_paths_are_bit_deterministic() {
    let case = mini_case();
    let tokens = generate_case_tokens(&case, 1);
    let weights = AttentionWeights::random(case.model.head_dim, case.model.head_dim, 2);
    let cfg = CtaConfig::uniform(2.0, 3);
    assert_eq!(
        cta_forward(&tokens, &tokens, &weights, &cfg).output,
        cta_forward(&tokens, &tokens, &weights, &cfg).output
    );
    let qcfg = QuantizationConfig::default();
    assert_eq!(
        cta_forward_quantized(&tokens, &tokens, &weights, &cfg, &qcfg).output,
        cta_forward_quantized(&tokens, &tokens, &weights, &cfg, &qcfg).output
    );
}

#[test]
fn evaluations_and_adaptation_are_deterministic() {
    let case = mini_case();
    let cfg = CtaConfig::uniform(4.0, case.seed());
    let a = evaluate_case(&case, &cfg, 2);
    let b = evaluate_case(&case, &cfg, 2);
    assert_eq!(a.accuracy_loss_pct, b.accuracy_loss_pct);
    assert_eq!(a.sample_losses, b.sample_losses);
    assert_eq!(a.mean_k0, b.mean_k0);

    let x = adapt_per_head(&case, 2, 1.0);
    let y = adapt_per_head(&case, 2, 1.0);
    assert_eq!(x.widths, y.widths);
    assert_eq!(x.losses, y.losses);
}

#[test]
fn simulator_reports_are_deterministic() {
    let task = AttentionTask::from_counts(256, 256, 64, 100, 90, 30, 6);
    let acc = CtaAccelerator::new(HwConfig::paper());
    let a = acc.simulate_head(&task);
    let b = acc.simulate_head(&task);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.energy.total_pj(), b.energy.total_pj());
    assert_eq!(
        a.schedule.memory.total_reads() + a.schedule.memory.total_writes(),
        b.schedule.memory.total_reads() + b.schedule.memory.total_writes()
    );
}

#[test]
fn serving_traces_are_deterministic() {
    let task = AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6);
    let serve = |trace: &[ServingRequest]| {
        let requests = replay_trace(trace, QosClass::standard()).expect("valid trace");
        let report = simulate_fleet(&FleetConfig::single_fifo(SystemConfig::paper()), &requests);
        report.metrics.latency.expect("every request completes")
    };
    let t1 = poisson_trace(30, 500.0, task, 2, 12, 9);
    let t2 = poisson_trace(30, 500.0, task, 2, 12, 9);
    assert_eq!(t1.len(), t2.len());
    for (a, b) in t1.iter().zip(&t2) {
        assert_eq!(a.arrival_s, b.arrival_s);
    }
    assert_eq!(serve(&t1), serve(&t2));
}
