//! §VI-C end-to-end performance: attention mapped on 12×CTA, everything
//! else (output projection, FFN, norms) on the GPU.
//!
//! Paper result: 1.9–2.0× end-to-end speedup at sequence length 512,
//! rising to 2.9–3.0× at 4× longer sequences.

use std::process::ExitCode;

use cta_baselines::GpuModel;
use cta_bench::{banner, cli_main, row, UNITS};
use cta_parallel::Parallelism;
use cta_sim::{CtaAccelerator, HwConfig};
use cta_workloads::{model_zoo, squad11, OperatingTable, TestCase};

/// Achieved FLOP/s fraction on the non-attention parts of a layer: the
/// FFN GEMMs are large (n × d_model × 4·d_model) and run near cuBLAS peak
/// on V100, minus the layernorm/GELU/elementwise tail — unlike the small
/// per-head attention kernels. This value reproduces the paper's premise
/// of attention being ~50% of inference time at sequence length 512.
const REST_EFFICIENCY: f64 = 0.62;

fn main() -> ExitCode {
    cli_main("end_to_end", &[], std::env::args().skip(1), |_| {
        banner("End-to-end speedup (attention on 12xCTA at CTA-0, rest on GPU)");
        row(&["model".into(), "n".into(), "att frac".into(), "speedup".into()]);

        let gpu = GpuModel::v100();

        let cases: Vec<TestCase> = model_zoo()
            .into_iter()
            .flat_map(|model| [512, 2048].map(|n| TestCase::new(model, squad11().with_seq_len(n))))
            .collect();
        for (case, [op, ..]) in OperatingTable::build(&cases, Parallelism::from_env()).rows() {
            let (model, n) = (case.model, case.dataset.seq_len);
            let dims = case.dims();

            // GPU-only layer time: attention + rest-of-layer.
            let att_t = gpu.attention_latency_s(&dims, model.heads);
            let dm = model.d_model as f64;
            let rest_flops =
                2.0 * n as f64 * dm * dm + 2.0 * 2.0 * n as f64 * dm * model.ffn_dim as f64;
            let rest_t = rest_flops / (gpu.peak_fp32_tflops * 1e12 * REST_EFFICIENCY);
            let att_frac = att_t / (att_t + rest_t);

            // CTA time for all heads: 12 units, heads processed in rounds;
            // the accelerator is sized for the longer sequences here.
            let hw = HwConfig { max_seq_len: n, ..HwConfig::paper() };
            let acc = CtaAccelerator::new(hw);
            let head_t = acc.simulate_head(&op.task(case)).latency_s;
            let rounds = model.heads.div_ceil(UNITS) as f64;
            let cta_t = head_t * rounds;

            let speedup = (att_t + rest_t) / (cta_t + rest_t);
            row(&[
                model.name.into(),
                format!("{n}"),
                format!("{:.0}%", att_frac * 100.0),
                format!("{speedup:.2}x"),
            ]);
        }
        println!();
        println!("paper: 1.9-2.0x at n = 512, 2.9-3.0x at 4x longer sequences");
        Ok(())
    })
}
