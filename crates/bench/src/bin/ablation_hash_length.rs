//! Ablation: hash code length `l` (paper §IV-C: "long hash codes result
//! in less effective token compression, while short hash codes incur low
//! accuracy induced by aggressive clustering; l = 6 achieves \[a\] good
//! trade-off").
//!
//! For each `l` we find the operating point meeting the CTA-1 budget and
//! report the computation ratio it achieves — the best trade-off is the
//! `l` with the lowest RA at budget.

use cta_attention::CtaConfig;
use cta_bench::{banner, row, DEFAULT_SAMPLES};
use cta_workloads::{bert_large, evaluate_case, squad11, CtaClass, TestCase};

fn main() {
    banner("Ablation — hash code length l (compression at the CTA-1 budget)");
    row(&["l".into(), "width".into(), "loss%".into(), "RL%".into(), "RA%".into()]);

    let case = TestCase::new(bert_large(), squad11());
    let budget = CtaClass::Cta1.target_loss_pct();

    for l in [2usize, 4, 6, 8, 10] {
        // Walk widths from aggressive down; keep the first point meeting
        // the budget (mirrors the operating-point search at this l).
        let mut w = 48.0f32;
        let mut found = None;
        while w > 0.4 {
            let cfg = CtaConfig::uniform(w, case.seed()).with_hash_length(l);
            let eval = evaluate_case(&case, &cfg, DEFAULT_SAMPLES);
            let ok = eval.accuracy_loss_pct <= budget;
            found = Some((w, eval));
            if ok {
                break;
            }
            w /= 1.3;
        }
        let (w, eval) = found.expect("non-empty grid");
        row(&[
            format!("{l}"),
            format!("{w:.2}"),
            format!("{:.2}", eval.accuracy_loss_pct),
            format!("{:.1}", eval.complexity.rl * 100.0),
            format!("{:.1}", eval.complexity.ra * 100.0),
        ]);
    }
    println!();
    println!("paper: l = 6 balances compression ratio against accuracy");
}
