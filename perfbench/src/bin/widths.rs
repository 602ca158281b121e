//! Prints the CTA-0 / CTA-0.5 / CTA-1 LSH bucket widths of the ten Fig. 11
//! cases, as found by `find_operating_point` at the harness sample count.
//! `paper-heads` runs at these widths; its table in `src/paper_heads.rs`
//! was produced by
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin widths
//! ```

use cta_workloads::{find_all_operating_points, paper_cases};

/// Sequences per candidate width, as in the figure binaries.
const SAMPLES: usize = 2;

fn main() {
    println!(
        "// case, [CTA-0, CTA-0.5, CTA-1] bucket widths (find_operating_point, {SAMPLES} samples)"
    );
    for case in paper_cases() {
        let [a, b, c] = find_all_operating_points(&case, SAMPLES);
        println!(
            "(\"{}\", [{:?}, {:?}, {:?}]),",
            case.name(),
            a.config.kv_bucket_width,
            b.config.kv_bucket_width,
            c.config.kv_bucket_width
        );
    }
}
