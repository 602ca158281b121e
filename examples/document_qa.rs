//! Document question answering: the paper's headline discriminative
//! scenario (BERT-large on SQuAD).
//!
//! Finds the CTA-1 operating point (≤1% accuracy loss), then compares
//! serving latency and energy across the GPU baseline, ELSA+GPU, and
//! 12×CTA — the Fig. 12/14 story for one workload.
//!
//! ```text
//! cargo run --release --example document_qa
//! ```

use cta::baselines::{ElsaApproximation, ElsaGpuSystem, GpuModel};
use cta::sim::{CtaAccelerator, HwConfig};
use cta::workloads::{bert_large, squad11, OperatingTable, TestCase};
use cta::Parallelism;

fn main() {
    let case = TestCase::new(bert_large(), squad11());
    println!(
        "workload: {} (n = {}, {} heads/layer)",
        case.name(),
        case.dataset.seq_len,
        case.model.heads
    );

    // Calibrate the approximation to the 1%-loss budget, like the paper's
    // CTA-1 configuration.
    println!("searching for the CTA-1 operating point...");
    let table = OperatingTable::build(&[case], Parallelism::serial());
    let (_, [.., op]) = &table.rows()[0];
    let e = &op.evaluation;
    println!(
        "found: bucket width {:.2}, measured loss {:.2}%, RL {:.0}%, RA {:.0}%",
        op.config.kv_bucket_width,
        e.accuracy_loss_pct,
        e.complexity.rl * 100.0,
        e.complexity.ra * 100.0
    );

    // Serve 12 heads of one layer on each platform.
    let dims = case.dims();
    let heads = 12;
    let gpu = GpuModel::v100();
    let elsa = ElsaGpuSystem::paper(ElsaApproximation::Aggressive);
    let cta = CtaAccelerator::new(HwConfig::paper());
    let sim = cta.simulate_head(&op.task(&case));

    let gpu_t = gpu.attention_latency_s(&dims, heads);
    let elsa_t = elsa.attention_latency_s(&dims, heads);
    let cta_t = sim.latency_s; // 12 units, heads in parallel

    println!();
    println!("attention latency for {heads} heads:");
    println!("  V100 GPU       {:8.1} us   (1.0x)", gpu_t * 1e6);
    println!("  ELSA-aggr+GPU  {:8.1} us   ({:.1}x)", elsa_t * 1e6, gpu_t / elsa_t);
    println!("  12xCTA         {:8.1} us   ({:.1}x)", cta_t * 1e6, gpu_t / cta_t);

    let gpu_e = gpu.attention_energy_j(&dims, heads);
    let elsa_e = elsa.attention_energy_j(&dims, heads);
    let cta_e = sim.energy.total_j() * heads as f64;
    println!();
    println!("attention energy for {heads} heads:");
    println!("  V100 GPU       {:8.2} mJ   (1.0x)", gpu_e * 1e3);
    println!("  ELSA-aggr+GPU  {:8.2} mJ   ({:.1}x)", elsa_e * 1e3, gpu_e / elsa_e);
    println!("  12xCTA         {:8.4} mJ   ({:.0}x)", cta_e * 1e3, gpu_e / cta_e);
}
