//! Fig. 16: normalized memory accesses of CTA vs ELSA at sequence lengths
//! 128 / 256 / 384 / 512.
//!
//! Paper result: ELSA's query-serial processing re-reads keys/values per
//! query, so its traffic grows much faster than CTA's systolic-reuse
//! traffic as sequences lengthen.
//!
//! The operating-point table is searched on the `cta-parallel` pool
//! (`CTA_JOBS` workers, default available cores); its rows come back in
//! case order, so the output is identical at any worker count.

use std::process::ExitCode;

use cta_attention::AttentionDims;
use cta_baselines::{ElsaApproximation, ElsaModel};
use cta_bench::{banner, cli_main, Table};
use cta_parallel::Parallelism;
use cta_sim::{schedule, HwConfig};
use cta_workloads::{bert_large, squad11, OperatingTable, TestCase};

fn main() -> ExitCode {
    cli_main("fig16_memory_access", &[], std::env::args().skip(1), |_| {
        banner("Figure 16 — memory accesses vs sequence length (normalized to CTA @128)");
        let mut table =
            Table::new("fig16_memory_access", &["n", "cta", "elsa_aggr", "elsa_over_cta"]);

        let elsa = ElsaModel::new(ElsaApproximation::Aggressive);
        let hw = HwConfig::paper();
        let mut base: Option<f64> = None;

        let cases = [128usize, 256, 384, 512]
            .map(|n| TestCase::new(bert_large(), squad11().with_seq_len(n)));
        // Paper evaluates CTA at its accuracy-preserving operating point.
        for (case, [op, ..]) in OperatingTable::build(&cases, Parallelism::from_env()).rows() {
            let n = case.dataset.seq_len;
            let sched = schedule(&hw, &op.task(case));
            let cta = sched.memory.data_accesses() as f64;
            let dims = AttentionDims::self_attention(n, 64, 64);
            let elsa_acc = elsa.memory_accesses(&dims) as f64;
            let b = *base.get_or_insert(cta);
            table.row(&[
                format!("{n}"),
                format!("{:.2}", cta / b),
                format!("{:.2}", elsa_acc / b),
                format!("{:.1}x", elsa_acc / cta),
            ]);
        }
        table.save();
        println!();
        println!("paper: ELSA induces substantially more accesses, diverging as n grows");
        Ok(())
    })
}
