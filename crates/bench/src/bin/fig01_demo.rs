//! Fig. 1 walkthrough: normal attention vs query-specific pruning vs
//! CTA's relation compression, on a tiny hand-sized example.
//!
//! The paper's Fig. 1(c) shows 3×3 relations collapsing to 2×2 when two
//! tokens repeat a semantic feature. This binary reproduces that story
//! numerically on a 6-token sequence with two repeated features.

use std::process::ExitCode;

use cta_attention::{attention_exact, cta_forward, AttentionWeights, CtaConfig};
use cta_baselines::{a3_attention, A3Config};
use cta_bench::{banner, cli_main};
use cta_tensor::{relative_error, Matrix};

fn main() -> ExitCode {
    cli_main("fig01_demo", &[], std::env::args().skip(1), |_| {
        banner("Figure 1 — three ways to treat attention relations (6-token demo)");

        // Six tokens, two semantic features repeated three times each (with
        // tiny paraphrase jitter).
        let tokens = Matrix::from_rows(&[
            &[1.0, 0.0, 2.0, -1.0],
            &[1.01, 0.0, 2.0, -1.0],
            &[-2.0, 1.5, 0.0, 0.5],
            &[1.0, 0.01, 1.99, -1.0],
            &[-2.01, 1.5, 0.01, 0.5],
            &[-2.0, 1.49, 0.0, 0.51],
        ]);
        let weights = AttentionWeights::random(4, 4, 1);

        // (a) Normal attention: all 36 relations.
        let exact = attention_exact(&tokens, &tokens, &weights);
        println!("(a) normal attention computes {} x {} = 36 relations", 6, 6);

        // (b) Query-specific pruning: each query keeps its own top-3 keys.
        let a3 = a3_attention(
            &tokens,
            &tokens,
            &weights,
            &A3Config { search_iterations: 24, candidates: 3 },
        );
        println!("(b) per-query pruning keeps 6 x 3 = 18 relations, each query its own set:");
        for (q, c) in a3.candidates.iter().enumerate() {
            println!("      query {q} -> keys {c:?}");
        }
        println!(
            "      output error {:.4} (and the sets above break inter-query parallelism)",
            relative_error(&a3.output, &exact.output)
        );

        // (c) CTA: compress the two repeated features first.
        let cta = cta_forward(&tokens, &tokens, &weights, &CtaConfig::uniform(1.0, 2));
        println!(
            "(c) CTA compresses 6 tokens to k0 = {} queries and k1+k2 = {}+{} key/values:",
            cta.k0(),
            cta.k1(),
            cta.k2()
        );
        println!(
            "      {} x {} = {} compressed relations cover all 36 originals",
            cta.k0(),
            cta.k1() + cta.k2(),
            cta.k0() * (cta.k1() + cta.k2())
        );
        println!("      query clusters: {:?}", cta.query_compression.table.indices());
        println!("      kv clusters:    {:?}", cta.kv_compression.level1.table.indices());
        println!(
            "      output error {:.4}, with every stage still a dense matrix product",
            relative_error(&cta.output, &exact.output)
        );
        Ok(())
    })
}
