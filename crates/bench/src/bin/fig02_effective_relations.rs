//! Fig. 2: proportion of effective relations in attention vs sequence
//! length (256 / 384 / 512) for the three discriminative models on SQuAD,
//! at a clustering strategy inducing < 1% accuracy loss.
//!
//! Paper result: over half the relations are redundant everywhere, and the
//! effective proportion *decreases* as sequences grow.
//!
//! The operating-point table is searched on the `cta-parallel` pool
//! (`CTA_JOBS` workers, default available cores); its rows come back in
//! case order, so the output is identical at any worker count.

use std::process::ExitCode;

use cta_bench::{banner, cli_main, row};
use cta_parallel::Parallelism;
use cta_workloads::{albert_large, bert_large, roberta_large, squad11, OperatingTable, TestCase};

const LENGTHS: [usize; 3] = [256, 384, 512];

fn main() -> ExitCode {
    cli_main("fig02_effective_relations", &[], std::env::args().skip(1), |_| {
        banner("Figure 2 — proportion of effective relations (CTA-1 clustering, <1% loss)");
        row(&["model".into(), "n=256".into(), "n=384".into(), "n=512".into()]);
        let cases: Vec<TestCase> = [bert_large(), roberta_large(), albert_large()]
            .into_iter()
            .flat_map(|model| LENGTHS.map(|n| TestCase::new(model, squad11().with_seq_len(n))))
            .collect();
        let table = OperatingTable::build(&cases, Parallelism::from_env());
        for model_rows in table.rows().chunks(LENGTHS.len()) {
            let mut cells = vec![model_rows[0].0.model.name.to_string()];
            for (_, [.., op]) in model_rows {
                cells.push(format!("{:.1}%", op.evaluation.complexity.effective_relations * 100.0));
            }
            row(&cells);
        }
        println!();
        println!("paper: all points below 50% and decreasing with sequence length");
        Ok(())
    })
}
