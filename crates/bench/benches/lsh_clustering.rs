//! Microbenchmarks of the token-compression substrate: hashing, the
//! flat code map beside the cluster tree, centroid aggregation, full
//! two-level compression.

use criterion::{criterion_group, criterion_main, Criterion};
use cta_lsh::{
    aggregate_centroids, cluster_by_code_map, compress_two_level, ClusterTree, LshFamily,
    LshParams, StreamingCompressor,
};
use cta_workloads::{bert_large, generate_tokens, imdb};
use std::hint::black_box;

fn bench_lsh(c: &mut Criterion) {
    let model = bert_large();
    let dataset = imdb();
    let tokens = generate_tokens(&model, &dataset, 512, 11);
    let fam = LshFamily::sample(64, LshParams::with_paper_length(4.0), 3);
    let fam2 = LshFamily::sample(64, LshParams::with_paper_length(2.0), 4);

    c.bench_function("lsh/hash_matrix_512x64", |b| {
        b.iter(|| black_box(fam.hash_matrix(black_box(&tokens))))
    });

    // The paper's SQuAD sequence length, 24 token blocks of 16.
    let squad = generate_tokens(&model, &dataset, 384, 11);
    c.bench_function("lsh/hash_matrix_384x64", |b| {
        b.iter(|| black_box(fam.hash_matrix(black_box(&squad))))
    });

    let codes = fam.hash_matrix(&tokens);
    c.bench_function("lsh/cluster_tree_assign_512", |b| {
        b.iter(|| {
            let mut tree = ClusterTree::new(fam.hash_length());
            black_box(tree.assign_all(black_box(&codes)))
        })
    });

    c.bench_function("lsh/code_map_512", |b| {
        b.iter(|| black_box(cluster_by_code_map(black_box(&codes))))
    });

    let table = cluster_by_code_map(&codes);
    c.bench_function("lsh/centroid_aggregation_512", |b| {
        b.iter(|| black_box(aggregate_centroids(black_box(&tokens), &table)))
    });

    c.bench_function("lsh/compress_two_level_512", |b| {
        b.iter(|| black_box(compress_two_level(black_box(&tokens), &fam, &fam2)))
    });

    c.bench_function("lsh/streaming_push_512", |b| {
        b.iter(|| {
            let mut s = StreamingCompressor::new(fam.clone());
            for t in 0..tokens.rows() {
                s.push(black_box(tokens.row(t)));
            }
            black_box(s.cluster_count())
        })
    });
}

criterion_group!(benches, bench_lsh);
criterion_main!(benches);
