//! Sensitivity analysis: do the reproduction's conclusions survive
//! perturbations of the calibrated model constants?
//!
//! The energy/area constants and GPU efficiencies are calibrated (see
//! `DESIGN.md` §2). This binary perturbs each ±50% and checks the two
//! headline conclusions: CTA beats the GPU by an order of magnitude in
//! throughput, and by 2–3 orders in energy. Conclusions that flip under
//! mild perturbation would be artifacts of calibration; these do not.

use std::process::ExitCode;

use cta_attention::AttentionDims;
use cta_baselines::GpuModel;
use cta_bench::{banner, cli_main, row};
use cta_sim::{AttentionTask, CtaAccelerator, EnergyModel, HwConfig};

fn main() -> ExitCode {
    cli_main("sensitivity_models", &[], std::env::args().skip(1), |_| {
        banner("Sensitivity — headline ratios under +/-50% model-constant perturbation");

        let dims = AttentionDims::self_attention(512, 64, 64);
        let task = AttentionTask::from_counts(512, 512, 64, 220, 210, 40, 6);

        row(&["variant".into(), "speedup".into(), "energy eff".into()]);
        for (name, gpu_eff_scale, energy_scale) in [
            ("calibrated", 1.0f64, 1.0f64),
            ("GPU 50% faster", 1.5, 1.0),
            ("GPU 50% slower", 0.5, 1.0),
            ("CTA energy +50%", 1.0, 1.5),
            ("CTA energy -50%", 1.0, 0.5),
            ("both adverse", 1.5, 1.5),
        ] {
            let mut gpu = GpuModel::v100();
            gpu.gemm_efficiency *= gpu_eff_scale;
            gpu.elementwise_efficiency = (gpu.elementwise_efficiency * gpu_eff_scale).min(0.95);
            let base = EnergyModel::default();
            let energy = EnergyModel {
                pe_mac_pj: base.pe_mac_pj * energy_scale,
                ppe_op_pj: base.ppe_op_pj * energy_scale,
                add_pj: base.add_pj * energy_scale,
                lut_pj: base.lut_pj * energy_scale,
                cim_step_pj: base.cim_step_pj * energy_scale,
                pag_add_pj: base.pag_add_pj * energy_scale,
                static_w: base.static_w * energy_scale,
            };
            let acc = CtaAccelerator::new(HwConfig::paper()).with_energy_model(energy);
            let r = acc.simulate_head(&task);
            let speedup = gpu.attention_latency_s(&dims, 12) / r.latency_s;
            let eff = gpu.attention_energy_j(&dims, 12) / (r.energy.total_j() * 12.0);
            row(&[name.into(), format!("{speedup:.1}x"), format!("{eff:.0}x")]);
            assert!(speedup > 5.0, "throughput conclusion must survive: {speedup}");
            assert!(eff > 100.0, "energy conclusion must survive: {eff}");
        }
        println!();
        println!("both conclusions hold across every perturbation (the asserts enforce it).");
        Ok(())
    })
}
