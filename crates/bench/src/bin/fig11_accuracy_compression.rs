//! Fig. 11: model accuracy (lines) and the RL / RA computation ratios
//! (bars) for CTA-0 / CTA-0.5 / CTA-1 over the 10 model-dataset
//! combinations.
//!
//! Paper result (averages): RL = 58.3% / 52.2% / 44.4% and
//! RA = 35.2% / 27.5% / 18.4% for CTA-0 / CTA-0.5 / CTA-1.
//!
//! The operating-point table is searched on the `cta-parallel` pool
//! (`--jobs N`, default `CTA_JOBS` then available cores); its rows come
//! back in case order, so the table and averages are identical at any
//! worker count.

use std::process::ExitCode;

use cta_bench::{banner, cli_main, row, Table, PARALLEL_FLAGS};
use cta_tensor::mean;
use cta_workloads::{paper_cases, CtaClass, OperatingTable};

fn main() -> ExitCode {
    cli_main("fig11_accuracy_compression", &PARALLEL_FLAGS, std::env::args().skip(1), |flags| {
        let jobs = flags.parallelism()?;
        banner("Figure 11 — accuracy and RL/RA per test case");
        let mut table = Table::new(
            "fig11_accuracy_compression",
            &["case", "class", "loss_pct", "rl_pct", "ra_pct", "k0", "k1", "k2"],
        );

        let mut rl: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut ra: [Vec<f64>; 3] = [vec![], vec![], vec![]];
        let mut loss: [Vec<f64>; 3] = [vec![], vec![], vec![]];

        for (case, points) in OperatingTable::build(&paper_cases(), jobs).rows() {
            for (i, op) in points.iter().enumerate() {
                let e = &op.evaluation;
                table.row(&[
                    case.name(),
                    op.class.label().into(),
                    format!("{:.2}", e.accuracy_loss_pct),
                    format!("{:.1}", e.complexity.rl * 100.0),
                    format!("{:.1}", e.complexity.ra * 100.0),
                    format!("{:.0}", e.mean_k0),
                    format!("{:.0}", e.mean_k1),
                    format!("{:.0}", e.mean_k2),
                ]);
                rl[i].push(e.complexity.rl * 100.0);
                ra[i].push(e.complexity.ra * 100.0);
                loss[i].push(e.accuracy_loss_pct);
            }
        }

        table.save();
        println!();
        row(&["average".into(), "class".into(), "loss%".into(), "RL%".into(), "RA%".into()]);
        for (i, class) in CtaClass::all().iter().enumerate() {
            row(&[
                "".into(),
                class.label().into(),
                format!("{:.2}", mean(&loss[i])),
                format!("{:.1}", mean(&rl[i])),
                format!("{:.1}", mean(&ra[i])),
            ]);
        }
        println!();
        println!("paper averages: RL 58.3/52.2/44.4%  RA 35.2/27.5/18.4% (CTA-0/-0.5/-1)");
        Ok(())
    })
}
