//! Ablation: the §V-B memory optimisations, one at a time.
//!
//! The paper lists three latency/traffic savers beyond bubble removal:
//! recycling token memory (always on — it is an allocation choice),
//! pairing each centroid batch's K and V linears (halves value-register
//! loads), and the query shortcut (queries never touch result memory).
//! This binary switches each off and reports the cycle and data-memory
//! traffic cost.

use std::process::ExitCode;

use cta_bench::{banner, cli_main, row};
use cta_parallel::Parallelism;
use cta_sim::{schedule, HwConfig};
use cta_workloads::{bert_large, imdb, OperatingTable, TestCase};

fn main() -> ExitCode {
    cli_main("ablation_memory_opts", &[], std::env::args().skip(1), |_| {
        banner("Ablation — the section V-B memory optimisations");

        let table =
            OperatingTable::build(&[TestCase::new(bert_large(), imdb())], Parallelism::serial());
        let (case, [op, ..]) = &table.rows()[0];
        let task = op.task(case);
        println!("task: {} @ CTA-0, k = ({}, {}, {})", case.name(), task.k0, task.k1, task.k2);
        println!();
        row(&["configuration".into(), "cycles".into(), "vs full".into(), "data accesses".into()]);

        let full = HwConfig::paper();
        let variants: [(&str, HwConfig); 4] = [
            ("all optimisations", full),
            ("no K/V pairing", HwConfig { kv_pairing: false, ..full }),
            ("no query shortcut", HwConfig { query_shortcut: false, ..full }),
            ("no bubble removal", HwConfig { bubble_removal: false, ..full }),
        ];

        let base = schedule(&full, &task);
        for (name, hw) in variants {
            let s = schedule(&hw, &task);
            row(&[
                name.into(),
                format!("{}", s.total_cycles),
                format!(
                    "+{:.1}%",
                    (s.total_cycles as f64 / base.total_cycles as f64 - 1.0) * 100.0
                ),
                format!("{}", s.memory.data_accesses()),
            ]);
        }
        println!();
        println!("each optimisation buys measurable cycles and/or result-memory traffic,");
        println!("matching the paper's rationale for the mapping order and shortcut.");
        Ok(())
    })
}
