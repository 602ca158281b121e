//! Long-context language modelling: the paper's generative scenario
//! (GPT-2-large on WikiText-2).
//!
//! Sweeps the context length and shows the paper's motivation curve
//! (Fig. 2): the proportion of effective relations falls as contexts grow,
//! so CTA's advantage over the GPU *increases* with length.
//!
//! ```text
//! cargo run --release --example long_context_lm
//! ```

use cta::baselines::GpuModel;
use cta::sim::{CtaAccelerator, HwConfig};
use cta::workloads::{gpt2_large, wikitext2, OperatingTable, TestCase};
use cta::Parallelism;

fn main() {
    let model = gpt2_large();
    println!("model: {} ({} layers, {} heads)", model.name, model.layers, model.heads);
    println!();
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10}",
        "n", "eff. rel.", "GPU (us)", "CTA (us)", "speedup"
    );

    let gpu = GpuModel::v100();
    let acc = CtaAccelerator::new(HwConfig::paper());

    let cases =
        [128usize, 256, 384, 512].map(|n| TestCase::new(model, wikitext2().with_seq_len(n)));
    for (case, [.., op]) in OperatingTable::build(&cases, Parallelism::from_env()).rows() {
        let n = case.dataset.seq_len;
        let dims = case.dims();
        let gpu_t = gpu.attention_latency_s(&dims, 12);
        let cta_t = acc.simulate_head(&op.task(case)).latency_s;
        println!(
            "{:>6} {:>11.1}% {:>12.1} {:>12.1} {:>9.1}x",
            n,
            op.evaluation.complexity.effective_relations * 100.0,
            gpu_t * 1e6,
            cta_t * 1e6,
            gpu_t / cta_t
        );
    }
    println!();
    println!("longer contexts → fewer effective relations → larger CTA advantage");
}
