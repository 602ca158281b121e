//! Extension: per-head adaptive bucket widths vs the paper's one width
//! per test case.
//!
//! Heads cluster differently, so giving each head its own operating point
//! under the same per-head accuracy budget recovers extra compression on
//! insensitive heads.

use std::process::ExitCode;

use cta_bench::{banner, cli_main, row};
use cta_workloads::{adapt_per_head, bert_large, squad11, TestCase};

fn main() -> ExitCode {
    cli_main("extension_adaptive", &[], std::env::args().skip(1), |_| {
        banner("Extension — per-head adaptive operating points (budget 1% per head)");

        // A reduced case keeps the (heads × widths) search quick.
        let case = TestCase::new(bert_large(), squad11().with_seq_len(192));
        let heads = 8;
        let result = adapt_per_head(&case, heads, 1.0);

        row(&["head".into(), "width".into(), "loss%".into(), "RA%".into()]);
        for h in 0..heads {
            row(&[
                format!("{h}"),
                format!("{:.2}", result.widths[h]),
                format!("{:.2}", result.losses[h]),
                format!("{:.1}", result.head_ra[h] * 100.0),
            ]);
        }
        println!();
        let min = result.widths.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = result.widths.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        println!("adapted widths span {min:.2}..{max:.2}; mean RA {:.1}%", result.mean_ra * 100.0);
        println!("(one global width must satisfy the most sensitive head, i.e. RA at");
        println!("width {min:.2} for every head — per-head adaptation recovers the gap)");
        Ok(())
    })
}
