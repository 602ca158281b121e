//! Integration: the batch LSH stage — token-lane hashing and the flat
//! first-appearance code map — against the token-by-token hash and the
//! cluster tree, on every compression of the paper heads.

use cta::attention::{sample_families, CtaConfig};
use cta::lsh::{cluster_by_code_map, cluster_tokens, compress, ClusterTree, HashCodes};
use cta::workloads::{generate_tokens, paper_cases};

/// CTA-0 / CTA-0.5 / CTA-1 bucket widths per paper case, in
/// `paper_cases()` order: the operating points the `paper-heads`
/// benchmark workload runs (recorded from `find_operating_point`).
const WIDTHS: [[f32; 3]; 10] = [
    [0.32833555, 2.678333, 4.5263824],
    [1.2190866, 5.884297, 9.944461],
    [0.08843033, 0.14944725, 0.32833555],
    [1.2190866, 3.4818327, 7.6495857],
    [0.55488706, 5.884297, 12.927798],
    [1.2190866, 2.678333, 5.884297],
    [0.25256583, 1.2190866, 1.5848125],
    [0.42683622, 1.5848125, 7.6495857],
    [0.25256583, 2.0602562, 9.944461],
    [0.25256583, 0.32833555, 0.7213531],
];

#[test]
fn every_paper_head_compression_hashes_and_clusters_as_the_scalar_loop_and_the_tree() {
    let mut compressions = 0;
    for (case, widths) in paper_cases().iter().zip(WIDTHS) {
        let d = case.model.head_dim;
        let tokens = generate_tokens(&case.model, &case.dataset, case.dataset.seq_len, case.seed());
        for width in widths {
            let [f0, f1, f2] = sample_families(&CtaConfig::uniform(width, case.seed()), d);
            let residuals = tokens.sub(&compress(&tokens, &f1).reconstruct());
            for (level, family, x) in [(0, &f0, &tokens), (1, &f1, &tokens), (2, &f2, &residuals)] {
                let what = format!("{} w={width} LSH{level}", case.name());
                let codes = family.hash_matrix(x);
                let l = family.hash_length();
                let scalar: Vec<i32> =
                    (0..x.rows()).flat_map(|t| family.hash_code(x.row(t))).collect();
                assert_eq!(codes, HashCodes::from_flat(x.rows(), l, scalar), "{what}");
                let table = cluster_by_code_map(&codes);
                assert_eq!(table, ClusterTree::new(l).assign_all(&codes), "{what}");
                assert_eq!(cluster_tokens(x, family), table, "{what}");
                compressions += 1;
            }
        }
    }
    assert_eq!(compressions, 90);
}
