//! Ablation: does CTA's approximation error *compound* across transformer
//! layers?
//!
//! The paper evaluates full 24/36-layer models and reports end-task
//! accuracy, which implicitly answers "no, after finetuning". Without
//! finetuning we can still measure the raw propagation: run an exact and a
//! CTA path through the same randomly-initialised stack and record the
//! activation divergence after every layer. Layer norms re-standardise
//! activations, so the divergence should grow sub-linearly, not
//! exponentially.

use std::process::ExitCode;

use cta_attention::CtaConfig;
use cta_bench::{banner, cli_main, row};
use cta_model::TransformerStack;
use cta_workloads::{bert_large, generate_tokens, squad11};

fn main() -> ExitCode {
    cli_main("ablation_depth", &[], std::env::args().skip(1), |_| {
        banner("Ablation — error propagation through a transformer stack");

        let model = bert_large();
        let dataset = squad11().with_seq_len(128);
        // An 8-layer, 8-head (512-wide) truncation keeps the run quick while
        // exercising real depth.
        let stack = TransformerStack::random(8, 8, model.head_dim, 1024, 77);
        let slice = generate_tokens(&model, &dataset, 128, 5);
        // Widen the generated 64-dim head slice to the stack's d_model by
        // tiling (the per-head statistics are what matters).
        let x = cta_tensor::Matrix::from_fn(128, stack.d_model(), |r, c| slice[(r, c % 64)]);

        for w in [1.0f32, 4.0] {
            println!("bucket width {w}:");
            row(&["layer".into(), "rel. error".into(), "growth".into()]);
            let cmp = stack.compare(&x, &CtaConfig::uniform(w, 3));
            let mut prev = 0.0f64;
            for (i, &err) in cmp.layer_errors.iter().enumerate() {
                row(&[
                    format!("{}", i + 1),
                    format!("{err:.4}"),
                    if prev > 0.0 { format!("{:.2}x", err / prev) } else { "-".into() },
                ]);
                prev = err;
            }
            println!();
        }
        println!("expected: per-layer growth factors fall toward ~1x (layer norms and");
        println!("residuals damp the approximation error instead of compounding it).");
        Ok(())
    })
}
