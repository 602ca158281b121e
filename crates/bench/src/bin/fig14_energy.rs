//! Fig. 14: (left) normalized energy efficiency of the attention
//! mechanism across platforms; (right) CTA accelerator energy breakdown.
//!
//! Paper result: 634× / 756× / 950× energy efficiency over GPU and 399× /
//! 471× / 587× over ELSA+GPU for CTA-0/-0.5/-1; breakdown ≈ 62% SA / 29%
//! memory / 9% auxiliary.
//!
//! Cases are simulated on the `cta-parallel` pool (`--jobs N`, default
//! `CTA_JOBS` then available cores); the reduction is ordered, so the
//! table and geomeans are identical at any worker count.

use std::process::ExitCode;

use cta_baselines::{ElsaApproximation, ElsaGpuSystem, GpuModel};
use cta_bench::{
    banner, case_operating_points, cli_main, geomean, row, simulate, Table, PARALLEL_FLAGS, UNITS,
};
use cta_parallel::par_map;
use cta_workloads::paper_cases;

fn main() -> ExitCode {
    cli_main("fig14_energy", &PARALLEL_FLAGS, std::env::args().skip(1), |flags| {
        let jobs = flags.install_parallelism()?;
        banner("Figure 14 (left) — normalized energy efficiency (GPU = 1.0)");
        let mut table = Table::new("fig14_energy", &["case", "elsa_aggr", "cta0", "cta05", "cta1"]);

        let gpu = GpuModel::v100();
        let elsa = ElsaGpuSystem::paper(ElsaApproximation::Aggressive);
        let mut over_gpu: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut over_elsa: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut breakdown = [0.0f64; 3]; // sa / memory / aux
        let mut point_count = 0usize;

        let cases = paper_cases();
        let evaluated = par_map(jobs, &cases, |case| {
            let dims = case.dims();
            let gpu_e = gpu.attention_energy_j(&dims, UNITS);
            let elsa_e = elsa.attention_energy_j(&dims, UNITS);
            let points = case_operating_points(case);
            let mut cells = vec![case.name(), format!("{:.1}x", gpu_e / elsa_e)];
            let mut samples = Vec::new();
            for op in points.iter() {
                let r = simulate(&op.task(case));
                let cta_e = r.energy.total_j() * UNITS as f64;
                cells.push(format!("{:.0}x", gpu_e / cta_e));
                samples.push((
                    gpu_e / cta_e,
                    elsa_e / cta_e,
                    [r.energy.sa_fraction(), r.energy.memory_fraction(), r.energy.aux_fraction()],
                ));
            }
            (cells, samples)
        });
        for (cells, samples) in evaluated {
            for (i, (gpu_x, elsa_x, fracs)) in samples.iter().enumerate() {
                over_gpu[i].push(*gpu_x);
                over_elsa[i].push(*elsa_x);
                breakdown[0] += fracs[0];
                breakdown[1] += fracs[1];
                breakdown[2] += fracs[2];
                point_count += 1;
            }
            table.row(&cells);
        }
        table.save();

        println!();
        println!(
            "geomean over GPU:       CTA-0 {:.0}x  CTA-0.5 {:.0}x  CTA-1 {:.0}x   (paper: 634 / 756 / 950)",
            geomean(&over_gpu[0]),
            geomean(&over_gpu[1]),
            geomean(&over_gpu[2])
        );
        println!(
            "geomean over ELSA+GPU:  CTA-0 {:.0}x  CTA-0.5 {:.0}x  CTA-1 {:.0}x   (paper: 399 / 471 / 587)",
            geomean(&over_elsa[0]),
            geomean(&over_elsa[1]),
            geomean(&over_elsa[2])
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
