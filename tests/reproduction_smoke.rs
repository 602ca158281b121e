//! Integration: scaled-down versions of every figure pipeline, asserting
//! the *shape* each paper figure reports. The full-scale numbers live in
//! the `cta-bench` binaries and `EXPERIMENTS.md`.

use cta::baselines::{ElsaApproximation, ElsaModel, GpuModel};
use cta::sim::{area_breakdown, sweep, AreaModel, AttentionTask, CtaAccelerator, HwConfig};
use cta::workloads::{
    find_all_operating_points, mini_case, paper_cases, squad11, CtaClass, OperatingPoint,
    OperatingTable, TestCase,
};
use cta::Parallelism;

/// The three operating points of `case`, read from a one-row table.
fn points(case: TestCase) -> [OperatingPoint; 3] {
    let table = OperatingTable::build(&[case], Parallelism::serial());
    table.rows()[0].1.clone()
}

#[test]
fn fig2_effective_relations_below_half_at_budget() {
    // Mini-scale Fig. 2: at the <1% loss budget, effective relations fall
    // well below 100% (the paper reports < 50% at n >= 256).
    let [.., op] = points(mini_case());
    assert!(
        op.evaluation.complexity.effective_relations < 0.6,
        "effective relations {}",
        op.evaluation.complexity.effective_relations
    );
}

#[test]
fn fig11_class_ordering_on_mini_case() {
    // RL/RA shrink as the accuracy budget loosens.
    let [cta0, _, cta1] = points(mini_case());
    assert!(cta1.evaluation.complexity.ra <= cta0.evaluation.complexity.ra + 1e-9);
    assert!(cta1.evaluation.accuracy_loss_pct <= CtaClass::Cta1.target_loss_pct() + 1e-9);
}

#[test]
fn fig12_cta_beats_gpu_at_every_class() {
    let case = mini_case();
    // Mini case has head_dim 16; simulate with a matching SA height.
    let hw = HwConfig { sa_height: 16, max_seq_len: 64, ..HwConfig::paper() };
    let acc = CtaAccelerator::new(hw);
    let gpu = GpuModel::v100();
    let dims = case.dims();
    for op in points(case) {
        let sim = acc.simulate_head(&op.task(&case));
        let speedup = gpu.attention_latency_s(&dims, 12) / sim.latency_s;
        assert!(speedup > 1.0, "{}: speedup {speedup}", op.class.label());
    }
}

#[test]
fn fig13_pag_knee_at_twice_width() {
    let task = AttentionTask::from_counts(512, 512, 64, 220, 210, 40, 6);
    let points = sweep(&HwConfig::paper(), &task, &[8, 16], &[4, 8, 16, 32, 64]);
    assert_eq!(cta::sim::best_pag_parallelism(&points, 8, 0.01), 16);
    assert_eq!(cta::sim::best_pag_parallelism(&points, 16, 0.01), 32);
}

#[test]
fn fig14_energy_breakdown_shape() {
    let acc = CtaAccelerator::new(HwConfig::paper());
    let r = acc.simulate_head(&AttentionTask::from_counts(512, 512, 64, 220, 210, 40, 6));
    assert!(r.energy.sa_fraction() > r.energy.memory_fraction());
    assert!(r.energy.memory_fraction() > r.energy.aux_fraction());
}

#[test]
fn fig15_area_totals() {
    let report = area_breakdown(&HwConfig::paper(), &AreaModel::default());
    assert!((report.total_mm2() - 2.15).abs() / 2.15 < 0.10);
    assert!((report.sa_fraction() - 0.746).abs() < 0.05);
}

#[test]
fn fig16_elsa_traffic_diverges_with_length() {
    let elsa = ElsaModel::new(ElsaApproximation::Aggressive);
    let acc = HwConfig::paper();
    let ratio_at = |n: usize, k: usize| {
        let task = AttentionTask::from_counts(n, n, 64, k, k, k / 4, 6);
        let sched = cta::sim::schedule(&acc, &task);
        let dims = cta::attention::AttentionDims::self_attention(n, 64, 64);
        elsa.memory_accesses(&dims) as f64 / sched.memory.data_accesses() as f64
    };
    // Compression scales sub-linearly with n on redundant data.
    let short = ratio_at(128, 60);
    let long = ratio_at(512, 150);
    assert!(long > short, "ELSA/CTA ratio should grow: {short} -> {long}");
}

#[test]
fn ten_paper_cases_enumerate() {
    assert_eq!(paper_cases().len(), 10);
}

#[test]
fn operating_point_search_is_deterministic() {
    let case = TestCase::new(cta::workloads::bert_large(), squad11().with_seq_len(96));
    let a = find_all_operating_points(&case, 1);
    let b = find_all_operating_points(&case, 1);
    for (a, b) in a.iter().zip(&b) {
        assert_eq!(a.config.kv_bucket_width, b.config.kv_bucket_width);
        assert_eq!(a.evaluation.mean_k0, b.evaluation.mean_k0);
    }
}
