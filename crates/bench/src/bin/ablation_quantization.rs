//! Ablation: the fixed-point number scheme (paper §IV-C claims < 0.1%
//! accuracy loss from the 13/12-bit quantization).
//!
//! Compares the f32 CTA forward pass against the hardware-faithful
//! fixed-point path at the paper's formats and at deliberately coarser
//! formats.

use std::process::ExitCode;

use cta_attention::{
    attention_exact, cta_forward, cta_forward_quantized, AttentionWeights, CtaConfig,
    QuantizationConfig,
};
use cta_bench::{banner, cli_main, row};
use cta_fixed::QFormat;
use cta_tensor::relative_error;
use cta_workloads::{bert_large, generate_tokens, squad11, ProxyTask, TestCase};

fn main() -> ExitCode {
    cli_main("ablation_quantization", &[], std::env::args().skip(1), |_| {
        banner("Ablation — fixed-point quantization scheme");
        row(&[
            "datapath".into(),
            "vs f32 err".into(),
            "vs exact err".into(),
            "label flips%".into(),
        ]);

        let case = TestCase::new(bert_large(), squad11());
        let tokens = generate_tokens(&case.model, &case.dataset, case.dataset.seq_len, case.seed());
        let weights = AttentionWeights::random(64, 64, case.seed() ^ 0xBEEF);
        let cfg = CtaConfig::uniform(4.0, case.seed());
        let probe = ProxyTask::for_case(&case, 8);

        let exact = attention_exact(&tokens, &tokens, &weights);
        let float = cta_forward(&tokens, &tokens, &weights, &cfg);

        let report = |name: &str, qcfg: &QuantizationConfig| {
            let fixed = cta_forward_quantized(&tokens, &tokens, &weights, &cfg, qcfg);
            row(&[
                name.into(),
                format!("{:.4}", relative_error(&fixed.output, &float.output)),
                format!("{:.4}", relative_error(&fixed.output, &exact.output)),
                format!("{:.2}", (1.0 - probe.agreement(&float.output, &fixed.output)) * 100.0),
            ]);
        };

        report("paper (13b/12b, Q6.7/Q6.6)", &QuantizationConfig::default());
        report(
            "coarse (10b tokens)",
            &QuantizationConfig {
                token: QFormat::new(10, 4),
                centroid: QFormat::new(10, 4),
                ..QuantizationConfig::default()
            },
        );
        report(
            "very coarse (8b tokens)",
            &QuantizationConfig {
                token: QFormat::new(8, 2),
                centroid: QFormat::new(8, 2),
                weight: QFormat::new(8, 6),
                ..QuantizationConfig::default()
            },
        );

        // The f32 path's own distance to exact attention, for scale.
        row(&[
            "f32 CTA (reference)".into(),
            "0.0000".into(),
            format!("{:.4}", relative_error(&float.output, &exact.output)),
            "0.00".into(),
        ]);
        println!();
        println!("paper: the 13/12-bit scheme introduces < 0.1% accuracy loss");
        Ok(())
    })
}
