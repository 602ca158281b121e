//! Fig. 11: model accuracy (lines) and the RL / RA computation ratios
//! (bars) for CTA-0 / CTA-0.5 / CTA-1 over the 10 model-dataset
//! combinations.
//!
//! Paper result (averages): RL = 58.3% / 52.2% / 44.4% and
//! RA = 35.2% / 27.5% / 18.4% for CTA-0 / CTA-0.5 / CTA-1.
//!
//! Cases are evaluated on the `cta-parallel` pool (`--jobs N`, default
//! `CTA_JOBS` then available cores); the reduction is ordered, so the
//! table and averages are identical at any worker count.

use std::process::ExitCode;

use cta_bench::{banner, case_operating_points, cli_main, row, Table, PARALLEL_FLAGS};
use cta_parallel::par_map;
use cta_tensor::mean;
use cta_workloads::{paper_cases, CtaClass};

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

        // Per case: the rendered rows plus the (class, rl, ra, loss)
        // samples folded into the averages, in operating-point order.
        let cases = paper_cases();
        let evaluated = par_map(jobs, &cases, |case| {
            let points = case_operating_points(case);
            let mut rows = Vec::new();
            let mut samples = Vec::new();
            for (i, op) in points.iter().enumerate() {
                let e = &op.evaluation;
                rows.push(vec![
                    case.name(),
                    op.class.label().into(),
                    format!("{:.2}", e.accuracy_loss_pct),
                    format!("{:.1}", e.complexity.rl * 100.0),
                    format!("{:.1}", e.complexity.ra * 100.0),
                    format!("{:.0}", e.mean_k0),
                    format!("{:.0}", e.mean_k1),
                    format!("{:.0}", e.mean_k2),
                ]);
                samples.push((
                    i,
                    e.complexity.rl * 100.0,
                    e.complexity.ra * 100.0,
                    e.accuracy_loss_pct,
                ));
            }
            (rows, samples)
        });
        for (rows, samples) in evaluated {
            for cells in &rows {
                table.row(cells);
            }
            for (i, rl_pct, ra_pct, loss_pct) in samples {
                rl[i].push(rl_pct);
                ra[i].push(ra_pct);
                loss[i].push(loss_pct);
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
