//! Integration: the extension features working together across crates.

use cta::attention::{
    attention_exact, attention_exact_causal, cta_forward, cta_forward_causal, output_error_bound,
    AttentionWeights, CausalCtaConfig, CtaConfig,
};
use cta::lsh::{kmeans, StreamingCompressor};
use cta::model::{AttentionMode, DecoderLayer, TransformerStack};
use cta::serve::{replay_trace, simulate_fleet, FleetConfig, QosClass};
use cta::sim::{poisson_trace, schedule_ffn, AttentionTask, CtaSystem, HwConfig, SystemConfig};
use cta::tensor::{relative_error, MatrixRng};
use cta::workloads::{
    adapt_per_head, generate_case_tokens, generate_patch_tokens, mini_case, workload_stats,
    VisionCase,
};

#[test]
fn streaming_compressor_feeds_causal_attention_consistently() {
    // The causal scheme's compressed past is a StreamingCompressor; its
    // batch-equivalence guarantees the whole pass is deterministic.
    let case = mini_case();
    let tokens = generate_case_tokens(&case, 3);
    let weights = AttentionWeights::random(case.model.head_dim, case.model.head_dim, 4);
    let cfg = CausalCtaConfig { block: 8, inner: CtaConfig::uniform(2.0, 5) };
    let a = cta_forward_causal(&tokens, &weights, &cfg);
    let b = cta_forward_causal(&tokens, &weights, &cfg);
    assert_eq!(a.output, b.output);
    let exact = attention_exact_causal(&tokens, &weights);
    assert!(relative_error(&a.output, &exact) < 0.2);
}

#[test]
fn vision_tokens_flow_through_the_whole_pipeline() {
    let case = VisionCase::vit_base();
    let tokens = generate_patch_tokens(&case, 7);
    let stats = workload_stats(&tokens, 0.10);
    assert!(stats.measured_redundancy > 0.5, "vision redundancy {}", stats.measured_redundancy);

    let weights = AttentionWeights::random(64, 64, 8);
    let cta = cta_forward(&tokens, &tokens, &weights, &CtaConfig::uniform(5.0, 9));
    let exact = attention_exact(&tokens, &tokens, &weights);
    let bound = output_error_bound(&cta, &exact);
    assert!(bound.holds());

    let task = AttentionTask::from_cta(&cta, 6);
    let hw = HwConfig { max_seq_len: 256, ..HwConfig::paper() };
    let sys = CtaSystem::new(SystemConfig { hw, ..SystemConfig::paper() });
    let run = sys.run_layers(&[vec![task; 12]]);
    assert!(run.total_s > 0.0);
}

#[test]
fn ffn_extension_composes_with_serving() {
    // A "full layer on CTA" service: attention + FFN cycles per request.
    let hw = HwConfig::paper();
    let ffn = schedule_ffn(&hw, 128, 512, 2048);
    assert!(ffn.up.utilization(&hw) > 0.8);

    let task = AttentionTask::from_counts(128, 128, 64, 50, 40, 20, 6);
    let trace = poisson_trace(40, 1000.0, task, 2, 12, 11);
    let requests = replay_trace(&trace, QosClass::standard()).expect("valid trace");
    let report = simulate_fleet(&FleetConfig::single_fifo(SystemConfig::paper()), &requests);
    let metrics = report.metrics.latency.expect("every request completes");
    assert_eq!(metrics.completed, 40);
    assert!(metrics.p99_s >= metrics.p50_s);
}

#[test]
fn per_head_adaptation_feeds_the_decoder_layer() {
    let case = mini_case();
    let adapted = adapt_per_head(&case, 2, 2.0);
    // Use the first adapted width inside a decoder layer's CTA mode.
    let cfg = CtaConfig::uniform(adapted.widths[0], 13);
    let mut rng = MatrixRng::new(14);
    let layer = DecoderLayer::random(4, case.model.head_dim, 64, &mut rng);
    let x = cta::tensor::standard_normal_matrix(15, 12, 4 * case.model.head_dim);
    let memory = cta::tensor::standard_normal_matrix(16, 32, 4 * case.model.head_dim);
    let out = layer.forward(&x, &memory, AttentionMode::Cta(cfg));
    assert_eq!(out.output.shape(), (12, 4 * case.model.head_dim));
    assert_eq!(out.cross_stats.len(), 4);
}

#[test]
fn kmeans_bounds_lsh_quality_on_real_workload_tokens() {
    let case = mini_case();
    let tokens = generate_case_tokens(&case, 17);
    let cfg = CtaConfig::uniform(2.0, 18);
    let [_, f1, _] = cta::attention::sample_families(&cfg, case.model.head_dim);
    let lsh = cta::lsh::compress(&tokens, &f1);
    let km = kmeans(&tokens, lsh.k(), 20, 19);
    assert!(km.compression.approximation_error(&tokens) <= lsh.approximation_error(&tokens) + 1e-6);
}

#[test]
fn stack_comparison_tasks_schedule_on_the_system() {
    let stack = TransformerStack::random(2, 4, 16, 128, 21);
    let x = cta::tensor::standard_normal_matrix(22, 24, 64);
    let cmp = stack.compare(&x, &CtaConfig::uniform(2.0, 23));
    let tasks = cmp.attention_tasks(24, 16, 6);
    let hw = HwConfig { sa_height: 16, max_seq_len: 24, ..HwConfig::paper() };
    let sys = CtaSystem::new(SystemConfig { hw, ..SystemConfig::paper() });
    let layers: Vec<Vec<AttentionTask>> = tasks.chunks(4).map(|c| c.to_vec()).collect();
    let run = sys.run_layers(&layers);
    assert_eq!(run.per_layer_s.len(), 2);
    assert!(run.utilization > 0.0);
}

#[test]
fn incremental_and_batch_compression_agree_on_workload_data() {
    let case = mini_case();
    let tokens = generate_case_tokens(&case, 25);
    let cfg = CtaConfig::uniform(2.0, 26);
    let [_, f1, _] = cta::attention::sample_families(&cfg, case.model.head_dim);
    let mut stream = StreamingCompressor::new(f1.clone());
    for t in 0..tokens.rows() {
        stream.push(tokens.row(t));
    }
    assert_eq!(stream.snapshot(), cta::lsh::compress(&tokens, &f1));
}
