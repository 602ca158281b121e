//! Algorithmic comparison: CTA's token compression vs A³-style
//! query-specific top-k pruning (the paper's Fig. 1 framing).
//!
//! Both approximations are swept over their aggressiveness knob on the
//! same workload; for each we report accuracy (output error) against the
//! scalar operations spent. CTA's ops shrink *quadratically* with
//! compression while pruning saves only the score/output stage per query
//! and keeps the computation query-irregular.

use std::process::ExitCode;

use cta_attention::{attention_exact, cta_forward, normal_ops, AttentionWeights, CtaConfig};
use cta_baselines::{a3_attention, A3Config};
use cta_bench::{banner, cli_main, row};
use cta_tensor::relative_error;
use cta_workloads::{bert_large, generate_tokens, squad11, TestCase};

fn main() -> ExitCode {
    cli_main("baseline_a3", &[], std::env::args().skip(1), |_| {
        banner("Baseline comparison — CTA token compression vs A3-style top-k pruning");

        let case = TestCase::new(bert_large(), squad11());
        let n = case.dataset.seq_len;
        let tokens = generate_tokens(&case.model, &case.dataset, n, case.seed());
        let weights = AttentionWeights::random(64, 64, case.seed() ^ 0xBEEF);
        let exact = attention_exact(&tokens, &tokens, &weights);
        let exact_ops = {
            let o = normal_ops(&case.dims());
            o.linears.total() + o.attention.total()
        };

        row(&["scheme".into(), "knob".into(), "ops vs exact".into(), "output err".into()]);

        for w in [1.0f32, 2.0, 4.0, 8.0, 16.0] {
            let cfg = CtaConfig::uniform(w, case.seed());
            let cta = cta_forward(&tokens, &tokens, &weights, &cfg);
            let report = cta_attention::complexity_report(&case.dims(), &cta, cfg.hash_length);
            let ops = report.cta.total().total();
            row(&[
                "CTA".into(),
                format!("w={w:.0}"),
                format!("{:.1}%", ops as f64 / exact_ops as f64 * 100.0),
                format!("{:.4}", relative_error(&cta.output, &exact.output)),
            ]);
        }

        println!();
        for keep_div in [2usize, 4, 8, 16] {
            let cfg = A3Config { search_iterations: n, candidates: (n / keep_div).max(1) };
            let a3 = a3_attention(&tokens, &tokens, &weights, &cfg);
            row(&[
                "A3 top-k".into(),
                format!("keep n/{keep_div}"),
                format!("{:.1}%", a3.ops.total() as f64 / exact_ops as f64 * 100.0),
                format!("{:.4}", relative_error(&a3.output, &exact.output)),
            ]);
        }

        println!();
        println!("CTA reduces both linears and the quadratic part (and stays query-parallel);");
        println!("top-k pruning keeps full linears and processes queries one at a time.");
        Ok(())
    })
}
