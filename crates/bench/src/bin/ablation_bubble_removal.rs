//! Ablation: the Fig. 10 bubble-removal schedule. With it disabled, every
//! mapping step pays the full SA pipeline fill.

use std::process::ExitCode;

use cta_bench::{banner, cli_main, row};
use cta_parallel::Parallelism;
use cta_sim::{schedule, HwConfig};
use cta_workloads::{bert_large, imdb, squad11, OperatingTable, TestCase};

fn main() -> ExitCode {
    cli_main("ablation_bubble_removal", &[], std::env::args().skip(1), |_| {
        banner("Ablation — Fig. 10 bubble removal on/off");
        row(&["case".into(), "cycles (on)".into(), "cycles (off)".into(), "saved".into()]);

        let on = HwConfig::paper();
        let off = HwConfig { bubble_removal: false, ..HwConfig::paper() };

        let cases = [TestCase::new(bert_large(), squad11()), TestCase::new(bert_large(), imdb())];
        for (case, [op, ..]) in OperatingTable::build(&cases, Parallelism::from_env()).rows() {
            let task = op.task(case);
            let c_on = schedule(&on, &task).total_cycles;
            let c_off = schedule(&off, &task).total_cycles;
            row(&[
                case.name(),
                format!("{c_on}"),
                format!("{c_off}"),
                format!("{:.1}%", (1.0 - c_on as f64 / c_off as f64) * 100.0),
            ]);
        }
        println!();
        println!("expected: bubble removal recovers the per-step pipeline fills");
        Ok(())
    })
}
