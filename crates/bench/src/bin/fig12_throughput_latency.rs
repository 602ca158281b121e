//! Fig. 12: (left) normalized attention throughput of GPU,
//! ELSA-conservative/aggressive + GPU, and 12×CTA at the three accuracy
//! classes; (right) CTA latency breakdown and latency relative to the
//! ideal accelerator.
//!
//! Paper result: 27.7× / 33.8× / 44.2× geomean speedup over GPU and
//! 18.3× / 22.1× / 28.7× over ELSA-Aggressive+GPU for CTA-0/-0.5/-1;
//! latency split ~59% attention / 34% linears / 7% compression; CTA
//! latency is 41% / 34% / 26% of the ideal accelerator's.
//!
//! The operating-point table is searched on the `cta-parallel` pool
//! (`--jobs N`, default `CTA_JOBS` then available cores); its rows come
//! back in case order, so the table and geomeans are identical at any
//! worker count.

use std::process::ExitCode;

use cta_baselines::{ElsaApproximation, ElsaGpuSystem, GpuModel, IdealAccelerator};
use cta_bench::{banner, cli_main, row, simulate, Table, PARALLEL_FLAGS, UNITS};
use cta_sim::HwConfig;
use cta_tensor::{geometric_mean, mean};
use cta_workloads::{paper_cases, OperatingTable};

fn main() -> ExitCode {
    cli_main("fig12_throughput_latency", &PARALLEL_FLAGS, std::env::args().skip(1), |flags| {
        let jobs = flags.parallelism()?;
        banner("Figure 12 (left) — normalized attention throughput (GPU = 1.0)");
        let mut table = Table::new(
            "fig12_throughput",
            &["case", "elsa_cons", "elsa_aggr", "cta0", "cta05", "cta1"],
        );

        let gpu = GpuModel::v100();
        let elsa_cons = ElsaGpuSystem::paper(ElsaApproximation::Conservative);
        let elsa_aggr = ElsaGpuSystem::paper(ElsaApproximation::Aggressive);
        let ideal = IdealAccelerator::matching(HwConfig::paper().num_multipliers());

        let mut speedups: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut over_elsa: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut fractions = [[0.0f64; 3]; 3]; // [class][comp/lin/att]
        let mut vs_ideal: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut case_count = 0usize;

        for (case, points) in OperatingTable::build(&paper_cases(), jobs).rows() {
            let dims = case.dims();
            let gpu_t = gpu.attention_latency_s(&dims, UNITS);
            let cons_t = elsa_cons.attention_latency_s(&dims, UNITS);
            let aggr_t = elsa_aggr.attention_latency_s(&dims, UNITS);
            let mut cells = vec![
                case.name(),
                format!("{:.2}x", gpu_t / cons_t),
                format!("{:.2}x", gpu_t / aggr_t),
            ];
            for (i, op) in points.iter().enumerate() {
                let r = simulate(&op.task(case));
                // 12 units process 12 heads in parallel: per-12-head latency is
                // one head's latency.
                let s = gpu_t / r.latency_s;
                cells.push(format!("{s:.1}x"));
                speedups[i].push(s);
                over_elsa[i].push(aggr_t / r.latency_s);
                let total = r.cycles as f64;
                fractions[i][0] += r.schedule.compression_cycles as f64 / total;
                fractions[i][1] += r.schedule.linear_cycles as f64 / total;
                fractions[i][2] += r.schedule.attention_cycles as f64 / total;
                vs_ideal[i].push(r.latency_s / ideal.head_latency_s(&dims));
            }
            case_count += 1;
            table.row(&cells);
        }
        table.save();

        println!();
        println!(
            "geomean speedup over GPU:        CTA-0 {:.1}x  CTA-0.5 {:.1}x  CTA-1 {:.1}x   (paper: 27.7 / 33.8 / 44.2)",
            geometric_mean(&speedups[0]),
            geometric_mean(&speedups[1]),
            geometric_mean(&speedups[2])
        );
        println!(
            "geomean over ELSA-aggr+GPU:      CTA-0 {:.1}x  CTA-0.5 {:.1}x  CTA-1 {:.1}x   (paper: 18.3 / 22.1 / 28.7)",
            geometric_mean(&over_elsa[0]),
            geometric_mean(&over_elsa[1]),
            geometric_mean(&over_elsa[2])
        );

        banner("Figure 12 (right) — CTA latency breakdown and vs ideal accelerator");
        row(&[
            "class".into(),
            "compress%".into(),
            "linear%".into(),
            "attention%".into(),
            "vs ideal%".into(),
        ]);
        for (i, label) in ["CTA-0", "CTA-0.5", "CTA-1"].iter().enumerate() {
            let nf = case_count as f64;
            row(&[
                (*label).into(),
                format!("{:.0}", fractions[i][0] / nf * 100.0),
                format!("{:.0}", fractions[i][1] / nf * 100.0),
                format!("{:.0}", fractions[i][2] / nf * 100.0),
                format!("{:.0}", mean(&vs_ideal[i]) * 100.0),
            ]);
        }
        println!();
        println!("paper: breakdown ~7/34/59 (compress/linear/attention); vs ideal 41/34/26%");
        Ok(())
    })
}
