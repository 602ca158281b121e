//! A bit digest of both attention heads on the paper's workloads.
//!
//! Every `CtaAttention` artifact of `cta_forward` and
//! `cta_forward_quantized` (centroids, counts, cluster tables, Q̄/K̄/V̄,
//! S̄, AP, Ō and the output) is hashed per head, and the ten
//! `paper_cases()` heads are folded into one digest per head kind and
//! bucket width. A change that claims to move no output bit of either
//! head must leave every digest as it is; one that moves them on purpose
//! re-records `DIGESTS` from the assertion message, which prints the new
//! values and each case's own digests.
//!
//! Tier 1 checks the middle width in a debug build;
//! `every_head_matches_its_digest` (ignored, run in release by CI)
//! checks all three widths.

use cta::attention::{
    cta_forward, cta_forward_quantized, AttentionWeights, CtaAttention, CtaConfig,
    QuantizationConfig,
};
use cta::lsh::Compression;
use cta::tensor::Matrix;
use cta::workloads::{generate_case_tokens, paper_cases, TestCase};

/// The bucket widths every case runs at: tight, middle and coarse
/// clusters across the ten cases' operating points.
const WIDTHS: [f32; 3] = [0.33, 2.68, 7.65];

/// `(float, fixed-point)` digests of the ten cases' heads, folded in
/// `paper_cases()` order, per width (in `WIDTHS` order).
const DIGESTS: [(u64, u64); 3] = [
    (0x9327_e0b7_8c40_fba2, 0x29c3_dfc7_979d_98f1),
    (0x4883_6ebc_0816_30fc, 0xec03_38e0_c68f_4ab6),
    (0xb5f0_1c4d_da66_8a2f, 0x874b_90c4_a45c_b7d2),
];

/// 64-bit FNV-1a, one step per 32- or 64-bit word.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        m.as_slice().iter().for_each(|x| self.word(u64::from(x.to_bits())));
    }

    fn compression(&mut self, c: &Compression) {
        self.matrix(&c.centroids);
        self.word(c.counts.len() as u64);
        c.counts.iter().for_each(|&n| self.word(n as u64));
        self.word(c.table.cluster_count() as u64);
        self.word(c.table.len() as u64);
        c.table.indices().iter().for_each(|&x| self.word(x as u64));
    }

    fn head(cta: &CtaAttention) -> u64 {
        let mut h = Self::new();
        h.compression(&cta.query_compression);
        h.compression(&cta.kv_compression.level1);
        h.compression(&cta.kv_compression.level2);
        for m in [&cta.q_bar, &cta.k_bar, &cta.v_bar, &cta.scores_bar, &cta.ap, &cta.output_bar] {
            h.matrix(m);
        }
        h.matrix(&cta.output);
        h.0
    }
}

/// Both heads' digests for `case` at `width`.
fn digests(case: &TestCase, width: f32) -> (u64, u64) {
    let d = case.model.head_dim;
    let tokens = generate_case_tokens(case, case.seed());
    let weights = AttentionWeights::random(d, d, case.seed() ^ 0x00d1_6e57);
    let cfg = CtaConfig::uniform(width, case.seed());
    let float = cta_forward(&tokens, &tokens, &weights, &cfg);
    let fixed =
        cta_forward_quantized(&tokens, &tokens, &weights, &cfg, &QuantizationConfig::default());
    (Digest::head(&float), Digest::head(&fixed))
}

/// Checks the folded heads at widths `widths` against [`DIGESTS`],
/// reporting every mismatch at once.
fn check(widths: &[usize]) {
    let cases = paper_cases();
    let mut wrong = Vec::new();
    for &w in widths {
        let heads: Vec<(u64, u64)> = cases.iter().map(|case| digests(case, WIDTHS[w])).collect();
        let fold = |pick: fn(&(u64, u64)) -> u64| {
            let mut h = Digest::new();
            heads.iter().for_each(|head| h.word(pick(head)));
            h.0
        };
        let got = (fold(|head| head.0), fold(|head| head.1));
        if got != DIGESTS[w] {
            wrong.push(format!(
                "width {}: got ({:#018x}, {:#018x}), pinned ({:#018x}, {:#018x}); per case:",
                WIDTHS[w], got.0, got.1, DIGESTS[w].0, DIGESTS[w].1
            ));
            for (case, head) in cases.iter().zip(&heads) {
                wrong.push(format!("  {}: ({:#018x}, {:#018x})", case.name(), head.0, head.1));
            }
        }
    }
    assert!(wrong.is_empty(), "head digests moved:\n{}", wrong.join("\n"));
}

#[test]
fn middle_width_heads_match_their_digests() {
    check(&[1]);
}

#[test]
#[ignore = "thirty full-size heads; run in release"]
fn every_head_matches_its_digest() {
    check(&[0, 1, 2]);
}
