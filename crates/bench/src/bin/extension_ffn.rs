//! Extension (§VI-C): mapping the FFN onto the CTA systolic array
//! "further promotes" the end-to-end speedup because nothing is left on
//! the GPU.
//!
//! Compares three deployments per model at n = 512: GPU-only, attention
//! on 12×CTA + FFN on GPU (the paper's end-to-end setting), and
//! attention + FFN both on 12×CTA.

use std::process::ExitCode;

use cta_baselines::GpuModel;
use cta_bench::{banner, cli_main, row, UNITS};
use cta_parallel::Parallelism;
use cta_sim::{schedule_ffn, CtaAccelerator, HwConfig};
use cta_workloads::{model_zoo, squad11, OperatingTable, TestCase};

/// FFN GEMM efficiency on the GPU (see `end_to_end.rs`).
const REST_EFFICIENCY: f64 = 0.62;

fn main() -> ExitCode {
    cli_main("extension_ffn", &[], std::env::args().skip(1), |_| {
        banner("Extension — FFN on the systolic array (end-to-end, n = 512)");
        row(&["model".into(), "att+GPU-FFN".into(), "all-on-CTA".into(), "FFN util".into()]);

        let gpu = GpuModel::v100();
        let hw = HwConfig::paper();
        let acc = CtaAccelerator::new(hw);
        let n = 512usize;

        let cases: Vec<TestCase> =
            model_zoo().into_iter().map(|m| TestCase::new(m, squad11().with_seq_len(n))).collect();
        for (case, [op, ..]) in OperatingTable::build(&cases, Parallelism::from_env()).rows() {
            let model = case.model;
            let dims = case.dims();

            // GPU-only layer time.
            let att_gpu = gpu.attention_latency_s(&dims, model.heads);
            let dm = model.d_model as f64;
            let rest_flops = 2.0 * n as f64 * dm * dm + 4.0 * n as f64 * dm * model.ffn_dim as f64;
            let rest_gpu = rest_flops / (gpu.peak_fp32_tflops * 1e12 * REST_EFFICIENCY);
            let gpu_total = att_gpu + rest_gpu;

            // CTA attention time (CTA-0 point, rounds of 12 units).
            let head_t = acc.simulate_head(&op.task(case)).latency_s;
            let att_cta = head_t * model.heads.div_ceil(UNITS) as f64;

            // FFN on the 12 units: the up/down GEMMs split across units by
            // output columns (embarrassingly parallel), so divide by UNITS.
            let ffn = schedule_ffn(&hw, n, model.d_model, model.ffn_dim);
            // Output projection is another GEMM of d_model x d_model.
            let proj = cta_sim::schedule_gemm(&hw, n, model.d_model, model.d_model);
            let rest_cta =
                (ffn.total_cycles + proj.cycles) as f64 * hw.cycle_time_s() / UNITS as f64;

            let hybrid = gpu_total / (att_cta + rest_gpu);
            let all_cta = gpu_total / (att_cta + rest_cta);
            row(&[
                model.name.into(),
                format!("{hybrid:.2}x"),
                format!("{all_cta:.2}x"),
                format!("{:.0}%", ffn.up.utilization(&hw) * 100.0),
            ]);
        }
        println!();
        println!("paper: FFN-on-SA further promotes the end-to-end speedup beyond the");
        println!("1.9-2.0x of the attention-only mapping (exact factor depends on the");
        println!("GPU's FFN efficiency; the SA runs the large FFN GEMMs near peak).");
        Ok(())
    })
}
