//! Ablation: two-level residual KV compression (paper Fig. 3b) vs plain
//! one-level compression.
//!
//! The design claim: clustering the residuals recovers approximation error
//! that one-level centroids leave behind, at small extra cost
//! (`k₂ ≪ n`).

use std::process::ExitCode;

use cta_bench::{banner, cli_main, row};
use cta_lsh::{compress, compress_two_level, LshFamily, LshParams};
use cta_workloads::{bert_large, generate_tokens, squad11};

fn main() -> ExitCode {
    cli_main("ablation_residual", &[], std::env::args().skip(1), |_| {
        banner("Ablation — one-level vs two-level (residual) KV compression");
        row(&[
            "bucket width".into(),
            "k (1-level)".into(),
            "err 1-level".into(),
            "k1+k2".into(),
            "err 2-level".into(),
        ]);

        let model = bert_large();
        let dataset = squad11();
        let tokens = generate_tokens(&model, &dataset, dataset.seq_len, 17);

        for w in [2.0f32, 4.0, 8.0, 16.0, 32.0] {
            let fam1 = LshFamily::sample(model.head_dim, LshParams::with_paper_length(w), 101);
            let fam2 =
                LshFamily::sample(model.head_dim, LshParams::with_paper_length(w * 0.5), 102);
            let one = compress(&tokens, &fam1);
            let two = compress_two_level(&tokens, &fam1, &fam2);
            row(&[
                format!("{w:.1}"),
                format!("{}", one.k()),
                format!("{:.4}", one.approximation_error(&tokens)),
                format!("{}+{}", two.k1(), two.k2()),
                format!("{:.4}", two.approximation_error(&tokens)),
            ]);
        }
        println!();
        println!("expected: the residual level cuts error, increasingly so at wide buckets");
        Ok(())
    })
}
