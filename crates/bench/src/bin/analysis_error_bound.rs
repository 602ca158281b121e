//! Analysis: the provable output-error bound vs the realised error.
//!
//! For each compression level we report the worst score/value
//! perturbations, the analytical per-query bound (see
//! `cta_attention::output_error_bound`), and the realised error — the
//! bound is sound everywhere and tightens as compression loosens.

use std::process::ExitCode;

use cta_attention::{
    attention_exact, cta_forward, output_error_bound, AttentionWeights, CtaConfig,
};
use cta_bench::{banner, cli_main, row};
use cta_workloads::{bert_large, generate_tokens, squad11, TestCase};

fn main() -> ExitCode {
    cli_main("analysis_error_bound", &[], std::env::args().skip(1), |_| {
        banner("Analysis — provable error bound vs realised error");
        row(&[
            "width".into(),
            "max dS".into(),
            "max dV".into(),
            "worst bound".into(),
            "worst actual".into(),
            "sound".into(),
        ]);

        let case = TestCase::new(bert_large(), squad11().with_seq_len(256));
        let tokens = generate_tokens(&case.model, &case.dataset, 256, case.seed());
        let weights = AttentionWeights::random(64, 64, case.seed() ^ 0xBEEF);
        let exact = attention_exact(&tokens, &tokens, &weights);

        for w in [0.5f32, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let cta = cta_forward(&tokens, &tokens, &weights, &CtaConfig::uniform(w, case.seed()));
            let b = output_error_bound(&cta, &exact);
            let worst_bound = b.per_query_bound.iter().cloned().fold(0.0, f64::max);
            let worst_actual = b.per_query_actual.iter().cloned().fold(0.0, f64::max);
            row(&[
                format!("{w:.1}"),
                format!("{:.3}", b.max_score_perturbation),
                format!("{:.3}", b.max_value_perturbation),
                format!("{worst_bound:.3}"),
                format!("{worst_actual:.3}"),
                if b.holds() { "yes".into() } else { "NO".into() },
            ]);
            assert!(b.holds(), "the bound must be sound");
        }
        println!();
        println!("error is controlled by the score/value perturbations the centroids");
        println!("introduce — the quantities the two-level residual scheme minimises.");
        Ok(())
    })
}
