//! Fig. 13: design-space exploration — normalized attention throughput
//! under SA widths {4, 8, 16, 32} × PAG parallelism {4, 8, 16, 32, 64,
//! 128}.
//!
//! Paper result: PAG parallelism = 2× SA width is the knee (more buys
//! nothing, less stalls the SA), and throughput grows *sub-linearly* with
//! SA width because LSH-phase columns idle and value-register updates
//! grow.
//!
//! The width rows of the design space are swept on the `cta-parallel`
//! pool (`--jobs N`, default `CTA_JOBS` then available cores); each
//! width's points come back in the same order `cta_sim::sweep` produces
//! serially, so the output is identical at any worker count.

use std::process::ExitCode;

use cta_bench::{banner, case_operating_points, cli_main, row, PARALLEL_FLAGS};
use cta_parallel::par_map;
use cta_sim::{best_pag_parallelism, sweep, HwConfig};
use cta_workloads::{bert_large, imdb, TestCase};

fn main() -> ExitCode {
    cli_main("fig13_dse", &PARALLEL_FLAGS, std::env::args().skip(1), |flags| {
        let jobs = flags.install_parallelism()?;
        banner("Figure 13 — throughput vs SA width x PAG parallelism");

        // Probe task: the CTA-0 operating point of BERT-large/IMDB (n = 512,
        // the hardware's design point).
        let case = TestCase::new(bert_large(), imdb());
        let op = &case_operating_points(&case)[0];
        let task = op.task(&case);
        println!(
            "probe task: {} at CTA-0, k = ({}, {}, {})",
            case.name(),
            task.k0,
            task.k1,
            task.k2
        );
        println!();

        let widths = [4usize, 8, 16, 32];
        let parallelisms = [4usize, 8, 16, 32, 64, 128];
        // One task per SA width; `sweep` iterates widths in the outer
        // loop, so concatenating per-width results reproduces the serial
        // point order exactly.
        let points: Vec<_> =
            par_map(jobs, &widths, |&b| sweep(&HwConfig::paper(), &task, &[b], &parallelisms))
                .into_iter()
                .flatten()
                .collect();

        // Normalize to the slowest configuration, as the paper's bars are.
        let base = points.iter().map(|p| p.heads_per_second).fold(f64::INFINITY, f64::min);

        let mut header = vec!["SA width".to_string()];
        header.extend(parallelisms.iter().map(|p| format!("PAG={p}")));
        header.push("knee".into());
        row(&header);
        for &b in &widths {
            let mut cells = vec![format!("b={b}")];
            for &p in &parallelisms {
                let pt = points
                    .iter()
                    .find(|x| x.sa_width == b && x.pag_parallelism == p)
                    .expect("swept point");
                cells.push(format!("{:.2}", pt.heads_per_second / base));
            }
            cells.push(format!("PAG={}", best_pag_parallelism(&points, b, 0.01)));
            row(&cells);
        }

        println!();
        println!("paper: knee at PAG = 2x SA width for every width; sub-linear width scaling");
        Ok(())
    })
}
