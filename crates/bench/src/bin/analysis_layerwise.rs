//! Analysis: per-layer compression through a deep model.
//!
//! The paper's motivation (§II-B, citing Tenney et al.) is that each
//! attention layer extracts a narrow span of structure, so token
//! representations cluster — increasingly with depth. This binary runs
//! the CTA compression on every layer's token statistics of a 24-layer
//! BERT-large and shows the per-layer k and effective relations: deeper
//! layers compress harder, so a whole-model deployment gets *better* than
//! the single-layer numbers suggest.

use std::process::ExitCode;

use cta_attention::CtaConfig;
use cta_bench::{banner, cli_main, Table};
use cta_lsh::compress_two_level;
use cta_workloads::{bert_large, generate_layer_tokens, squad11};

fn main() -> ExitCode {
    cli_main("analysis_layerwise", &[], std::env::args().skip(1), |_| {
        banner("Analysis — per-layer compression through BERT-large (24 layers)");
        let mut table = Table::new("analysis_layerwise", &["layer", "k1", "k2", "eff_rel_pct"]);

        let model = bert_large();
        let dataset = squad11();
        let cfg = CtaConfig::uniform(4.0, 9);
        let [_, f1, f2] = cta_attention::sample_families(&cfg, model.head_dim);

        let mut first = 0.0f64;
        let mut last = 0.0f64;
        for layer in 0..model.layers {
            let tokens = generate_layer_tokens(&model, &dataset, layer, model.layers, 5);
            let two = compress_two_level(&tokens, &f1, &f2);
            let n = tokens.rows() as f64;
            let eff = (two.k1() + two.k2()) as f64 * (two.k1() + two.k2()) as f64 / (n * n);
            if layer == 0 {
                first = eff;
            }
            last = eff;
            if layer % 3 == 0 || layer == model.layers - 1 {
                table.row(&[
                    format!("{layer}"),
                    format!("{}", two.k1()),
                    format!("{}", two.k2()),
                    format!("{:.1}", eff * 100.0),
                ]);
            }
        }
        table.save();
        println!();
        println!(
            "effective relations fall from {:.1}% (layer 0) to {:.1}% (layer 23):",
            first * 100.0,
            last * 100.0
        );
        println!("deeper layers cluster tighter, so whole-model speedups exceed the");
        println!("uniform-redundancy single-layer estimates used elsewhere.");
        Ok(())
    })
}
