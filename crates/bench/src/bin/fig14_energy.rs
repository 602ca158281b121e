//! Fig. 14: (left) normalized energy efficiency of the attention
//! mechanism across platforms; (right) CTA accelerator energy breakdown.
//!
//! Paper result: 634× / 756× / 950× energy efficiency over GPU and 399× /
//! 471× / 587× over ELSA+GPU for CTA-0/-0.5/-1; breakdown ≈ 62% SA / 29%
//! memory / 9% auxiliary.
//!
//! The operating-point table is searched on the `cta-parallel` pool
//! (`--jobs N`, default `CTA_JOBS` then available cores); its rows come
//! back in case order, so the table and geomeans are identical at any
//! worker count.

use std::process::ExitCode;

use cta_baselines::{ElsaApproximation, ElsaGpuSystem, GpuModel};
use cta_bench::{banner, cli_main, row, simulate, Table, PARALLEL_FLAGS, UNITS};
use cta_tensor::geometric_mean;
use cta_workloads::{paper_cases, OperatingTable};

fn main() -> ExitCode {
    cli_main("fig14_energy", &PARALLEL_FLAGS, std::env::args().skip(1), |flags| {
        let jobs = flags.parallelism()?;
        banner("Figure 14 (left) — normalized energy efficiency (GPU = 1.0)");
        let mut table = Table::new("fig14_energy", &["case", "elsa_aggr", "cta0", "cta05", "cta1"]);

        let gpu = GpuModel::v100();
        let elsa = ElsaGpuSystem::paper(ElsaApproximation::Aggressive);
        let mut over_gpu: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut over_elsa: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut breakdown = [0.0f64; 3]; // sa / memory / aux
        let mut point_count = 0usize;

        for (case, points) in OperatingTable::build(&paper_cases(), jobs).rows() {
            let dims = case.dims();
            let gpu_e = gpu.attention_energy_j(&dims, UNITS);
            let elsa_e = elsa.attention_energy_j(&dims, UNITS);
            let mut cells = vec![case.name(), format!("{:.1}x", gpu_e / elsa_e)];
            for (i, op) in points.iter().enumerate() {
                let r = simulate(&op.task(case));
                let cta_e = r.energy.total_j() * UNITS as f64;
                cells.push(format!("{:.0}x", gpu_e / cta_e));
                over_gpu[i].push(gpu_e / cta_e);
                over_elsa[i].push(elsa_e / cta_e);
                breakdown[0] += r.energy.sa_fraction();
                breakdown[1] += r.energy.memory_fraction();
                breakdown[2] += r.energy.aux_fraction();
                point_count += 1;
            }
            table.row(&cells);
        }
        table.save();

        println!();
        println!(
            "geomean over GPU:       CTA-0 {:.0}x  CTA-0.5 {:.0}x  CTA-1 {:.0}x   (paper: 634 / 756 / 950)",
            geometric_mean(&over_gpu[0]),
            geometric_mean(&over_gpu[1]),
            geometric_mean(&over_gpu[2])
        );
        println!(
            "geomean over ELSA+GPU:  CTA-0 {:.0}x  CTA-0.5 {:.0}x  CTA-1 {:.0}x   (paper: 399 / 471 / 587)",
            geometric_mean(&over_elsa[0]),
            geometric_mean(&over_elsa[1]),
            geometric_mean(&over_elsa[2])
        );

        banner("Figure 14 (right) — CTA energy breakdown");
        let nf = point_count as f64;
        row(&["module".into(), "share".into(), "paper".into()]);
        row(&["SA engine".into(), format!("{:.0}%", breakdown[0] / nf * 100.0), "62%".into()]);
        row(&["memory".into(), format!("{:.0}%", breakdown[1] / nf * 100.0), "29%".into()]);
        row(&["auxiliary".into(), format!("{:.0}%", breakdown[2] / nf * 100.0), "9%".into()]);
        Ok(())
    })
}
