#![deny(missing_docs)]

//! Locality-sensitive hashing and token compression for CTA.
//!
//! This crate implements the software side of the paper's §III-A/B:
//!
//! * [`LshFamily`] — p-stable LSH, `h(x) = ⌊(A·x + b)/w⌋` (eq. 1);
//! * [`ClusterTree`] — the streaming hash-code → cluster-index structure of
//!   Fig. 4(a), which the CIM model and [`StreamingCompressor`] walk;
//! * [`cluster_by_code_map`] — the same first-appearance numbering of a
//!   whole sequence through one flat map, and [`cluster_tokens`], the
//!   hash-and-cluster step every batch compression runs;
//! * [`aggregate_centroids`] — per-cluster means (Fig. 4b);
//! * [`compress`] / [`compress_two_level`] — one-level compression for
//!   query tokens and two-level *residual* compression for key/value
//!   tokens (Fig. 3b, eq. 2);
//! * [`StreamingCompressor`] — incremental compression for generative
//!   decoding (O(l + d) per appended token, batch-equivalent).
//!
//! # Example
//!
//! ```
//! use cta_lsh::{compress, LshFamily, LshParams};
//! use cta_tensor::standard_normal_matrix;
//!
//! let tokens = standard_normal_matrix(1, 64, 16);
//! let family = LshFamily::sample(16, LshParams::with_paper_length(8.0), 2);
//! let compressed = compress(&tokens, &family);
//! assert!(compressed.k() <= 64);
//! // The reconstruction expands centroids back to one row per token.
//! assert_eq!(compressed.reconstruct().shape(), tokens.shape());
//! ```

mod centroid;
mod cluster_tree;
mod code_map;
mod codes;
mod compress;
mod family;
mod hash_lanes;
mod kmeans;
mod streaming;
mod table;

pub use centroid::{aggregate_centroids, Centroids};
pub use cluster_tree::ClusterTree;
pub use code_map::cluster_by_code_map;
pub use codes::HashCodes;
pub use compress::{
    cluster_tokens, compress, compress_two_level, Compression, TwoLevelCompression,
};
pub use family::{LshFamily, LshParams};
pub use kmeans::{kmeans, KMeansRun};
pub use streaming::{CompressionView, StreamingCompressor};
pub use table::ClusterTable;
