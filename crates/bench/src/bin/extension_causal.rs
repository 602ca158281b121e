//! Extension: blocked-causal CTA for autoregressive models.
//!
//! The paper evaluates GPT-2 without spelling out the causal-mask
//! interaction; `cta_attention::cta_forward_causal` supplies a
//! leakage-free construction (compress strictly-past blocks, attend the
//! current block exactly). This binary sweeps the block size on the
//! WikiText-2 workload and reports the score-work saved vs the output
//! error against exact causal attention.

use std::process::ExitCode;

use cta_attention::{
    attention_exact_causal, cta_forward_causal, AttentionWeights, CausalCtaConfig, CtaConfig,
};
use cta_bench::{banner, cli_main, row};
use cta_tensor::relative_error;
use cta_workloads::{generate_tokens, gpt2_large, wikitext2};

fn main() -> ExitCode {
    cli_main("extension_causal", &[], std::env::args().skip(1), |_| {
        banner("Extension — blocked-causal CTA (GPT-2/WikiText-2, n = 512)");
        row(&["block".into(), "centroids".into(), "score work".into(), "output err".into()]);

        let model = gpt2_large();
        let dataset = wikitext2();
        let tokens = generate_tokens(&model, &dataset, 512, 21);
        let weights = AttentionWeights::random(model.head_dim, model.head_dim, 22);
        let exact = attention_exact_causal(&tokens, &weights);
        let exact_evals = (512u64 * 513) / 2;

        for block in [512usize, 128, 64, 32, 16] {
            let cfg = CausalCtaConfig { block, inner: CtaConfig::uniform(4.0, 23) };
            let cta = cta_forward_causal(&tokens, &weights, &cfg);
            row(&[
                format!("{block}"),
                format!("{}", cta.final_centroids),
                format!("{:.1}%", cta.score_evals as f64 / exact_evals as f64 * 100.0),
                format!("{:.4}", relative_error(&cta.output, &exact)),
            ]);
        }
        println!();
        println!("block = n is exact causal attention; shrinking blocks moves more of");
        println!("the past behind centroids, cutting the quadratic score work while the");
        println!("construction guarantees no future token ever reaches a query.");
        Ok(())
    })
}
