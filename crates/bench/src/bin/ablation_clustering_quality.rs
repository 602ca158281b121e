//! Ablation: how good is LSH clustering, and what does its cheapness buy?
//!
//! At each compression level we compare three clusterings of the same
//! key/value tokens at the *same k*: the paper's LSH scheme, Lloyd's
//! k-means (the L2-quality reference), and a random assignment (the
//! floor). We report token-reconstruction error and the clustering cost
//! in distance/projection evaluations — the trade the paper makes
//! explicit: LSH is slightly worse than k-means but orders of magnitude
//! cheaper and streaming-friendly.

use std::process::ExitCode;

use cta_bench::{banner, cli_main, row};
use cta_lsh::{
    aggregate_centroids, compress, kmeans, ClusterTable, Compression, LshFamily, LshParams,
};
use cta_tensor::MatrixRng;
use cta_workloads::{bert_large, generate_tokens, imdb};

fn main() -> ExitCode {
    cli_main("ablation_clustering_quality", &[], std::env::args().skip(1), |_| {
        banner("Ablation — LSH vs k-means vs random clustering at equal k");
        row(&[
            "width".into(),
            "k".into(),
            "LSH err".into(),
            "k-means err".into(),
            "random err".into(),
            "LSH ops".into(),
            "km ops".into(),
        ]);

        let model = bert_large();
        let dataset = imdb();
        let tokens = generate_tokens(&model, &dataset, dataset.seq_len, 77);
        let n = tokens.rows();
        let mut rng = MatrixRng::new(5);

        for w in [2.0f32, 4.0, 8.0, 16.0] {
            let fam = LshFamily::sample(model.head_dim, LshParams::with_paper_length(w), 101);
            let lsh = compress(&tokens, &fam);
            let k = lsh.k();
            let km = kmeans(&tokens, k, 25, 9);

            // Random assignment floor at the same k.
            let mut idx: Vec<usize> = (0..k).collect();
            for _ in k..n {
                idx.push(rng.index(k));
            }
            let table = ClusterTable::new(idx, k);
            let cents = aggregate_centroids(&tokens, &table);
            let random = Compression { centroids: cents.matrix, counts: cents.counts, table };

            // LSH cost: l projections of d MACs per token.
            let lsh_ops = (n * fam.hash_length() * model.head_dim) as u64;
            row(&[
                format!("{w:.0}"),
                format!("{k}"),
                format!("{:.4}", lsh.approximation_error(&tokens)),
                format!("{:.4}", km.compression.approximation_error(&tokens)),
                format!("{:.4}", random.approximation_error(&tokens)),
                format!("{lsh_ops}"),
                format!("{}", km.distance_evals * model.head_dim as u64),
            ]);
        }
        println!();
        println!("expected: LSH sits between k-means (quality bound) and random (floor)");
        println!("at a tiny fraction of k-means' cost — and unlike k-means it is a");
        println!("single streaming pass, which is what makes the CIM hardware possible.");
        Ok(())
    })
}
