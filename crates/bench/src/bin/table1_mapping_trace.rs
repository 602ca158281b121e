//! Table I: the chronological mapping procedure of one CTA attention head
//! on the proposed hardware, with per-step cycle costs from the
//! cycle-level simulator.

use std::process::ExitCode;

use cta_bench::{banner, cli_main, row};
use cta_parallel::Parallelism;
use cta_sim::{schedule, HwConfig, PhaseKind};
use cta_workloads::{bert_large, imdb, OperatingTable, TestCase};

fn main() -> ExitCode {
    cli_main("table1_mapping_trace", &[], std::env::args().skip(1), |_| {
        banner("Table I — mapping procedure trace (one head, BERT-large/IMDB @ CTA-0)");

        let table =
            OperatingTable::build(&[TestCase::new(bert_large(), imdb())], Parallelism::serial());
        let (case, [op, ..]) = &table.rows()[0];
        let task = op.task(case);
        println!(
            "task: m = n = {}, d = {}, k = ({}, {}, {}), l = {}",
            task.num_keys, task.head_dim, task.k0, task.k1, task.k2, task.hash_length
        );
        println!();

        let sched = schedule(&HwConfig::paper(), &task);
        row(&["step".into(), "category".into(), "cycles".into(), "share".into()]);
        for step in &sched.steps {
            let cat = match step.category {
                PhaseKind::Compression => "compress",
                PhaseKind::Linear => "linear",
                PhaseKind::Attention => "attention",
            };
            row(&[
                step.name.clone(),
                cat.into(),
                format!("{}", step.cycles),
                format!("{:.1}%", step.cycles as f64 / sched.total_cycles as f64 * 100.0),
            ]);
        }
        println!();
        row(&["total".into(), "".into(), format!("{}", sched.total_cycles), "100%".into()]);
        println!(
            "category split: compression {} / linear {} / attention {} cycles (PAG stalls: {})",
            sched.compression_cycles,
            sched.linear_cycles,
            sched.attention_cycles,
            sched.pag_stall_cycles
        );
        println!("latency at 1 GHz: {:.1} us per head", sched.total_cycles as f64 / 1000.0);
        Ok(())
    })
}
