//! The cluster tree (paper Fig. 4a): streaming hash-code → cluster-index
//! assignment.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{ClusterTable, HashCodes};

/// A deterministic multiplicative hasher for the tree's edge keys.
///
/// Each key is one `u64` (`node << 32 | hash value`); the hash is the
/// folded 128-bit product of the key with an odd constant, so every key
/// bit reaches both the low bits `HashMap` indexes its buckets with and
/// the high bits of its control bytes. It has no per-process seed, so
/// lookups cost the same on every run — and the tree's numbering never
/// depended on iteration order, only on insertion order. Without a seed,
/// tokens crafted so their bucket values collide can slow the walk
/// towards quadratic in the sequence length; they cannot change an index.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeHasher(u64);

impl Hasher for EdgeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Packs a tree edge — the internal node it leaves and the hash value it
/// is labelled with — into one key.
fn edge(node: usize, value: i32) -> u64 {
    ((node as u64) << 32) | u64::from(value as u32)
}

/// The dynamic cluster tree of paper Fig. 4(a).
///
/// A root plus `l` layers; each root-to-leaf path spells out one hash code,
/// and each leaf records the cluster index allocated when that code was
/// first seen. Feeding the codes of a token sequence through the tree in
/// order yields the cluster table `CT` with first-appearance numbering.
///
/// The hardware stores `(hash value, child address)` pairs in per-layer
/// memory blocks with linearly allocated addresses. Here one edge map
/// holds every pair of the tree, keyed by `(node, hash value)`: the child
/// is an internal node's index on layers `0..l-1` and a cluster index on
/// the last, and a node's layer says which. Internal nodes are numbered
/// in allocation order, root first, as the CIM allocates addresses.
///
/// The tree is the structure the hardware walks and the one that
/// streams: the cycle-level model of the Cluster Index Module in
/// `cta-sim` replays the same logic with `l` hardware threads and checks
/// itself against it, and [`StreamingCompressor`](crate::StreamingCompressor)
/// extends it one token at a time. Batch compression numbers a whole
/// sequence with the flat [`cluster_by_code_map`](crate::cluster_by_code_map)
/// instead, and this tree is that map's test oracle.
///
/// ```
/// use cta_lsh::ClusterTree;
///
/// let mut tree = ClusterTree::new(2);
/// assert_eq!(tree.assign(&[4, 7]), 0); // new code -> new cluster
/// assert_eq!(tree.assign(&[4, 8]), 1); // differs in last value
/// assert_eq!(tree.assign(&[4, 7]), 0); // existing leaf found again
/// assert_eq!(tree.cluster_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ClusterTree {
    hash_length: usize,
    /// Every edge: `(node, hash value)` → child node or cluster index.
    edges: HashMap<u64, usize, BuildHasherDefault<EdgeHasher>>,
    /// Internal nodes allocated so far, root included.
    internal_nodes: usize,
    cluster_count: usize,
}

impl ClusterTree {
    /// Creates an empty tree for codes of length `hash_length`.
    ///
    /// # Panics
    ///
    /// Panics if `hash_length == 0`.
    pub fn new(hash_length: usize) -> Self {
        assert!(hash_length > 0, "hash length must be positive");
        Self { hash_length, edges: HashMap::default(), internal_nodes: 1, cluster_count: 0 }
    }

    /// Code length `l` this tree consumes.
    pub fn hash_length(&self) -> usize {
        self.hash_length
    }

    /// Number of clusters allocated so far.
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Number of internal nodes (root included) — a hardware memory-budget
    /// proxy for the CIM layer memories.
    pub fn internal_node_count(&self) -> usize {
        self.internal_nodes
    }

    /// Walks (and extends) the tree along `code`, returning the cluster
    /// index — existing if the leaf was already present, freshly allocated
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `code.len() != self.hash_length()`, or if the tree
    /// outgrows 2^32 internal nodes.
    pub fn assign(&mut self, code: &[i32]) -> usize {
        assert_eq!(
            code.len(),
            self.hash_length,
            "hash code length mismatch: {} vs {}",
            code.len(),
            self.hash_length
        );
        let mut node = 0usize;
        // Layers 0..l-1: internal transitions (Fig. 4a lines 17-20).
        for &hv in &code[..self.hash_length - 1] {
            let next = self.internal_nodes;
            node = *self.edges.entry(edge(node, hv)).or_insert(next);
            if node == next {
                assert!(next < 1 << 32, "cluster tree outgrew 2^32 internal nodes");
                self.internal_nodes += 1;
            }
        }
        // Final layer: leaf lookup or creation (Fig. 4a lines 7-15).
        let next = self.cluster_count;
        let idx = *self.edges.entry(edge(node, code[self.hash_length - 1])).or_insert(next);
        if idx == next {
            self.cluster_count += 1;
        }
        idx
    }

    /// Assigns every code in sequence order and returns the cluster table.
    pub fn assign_all(&mut self, codes: &HashCodes) -> ClusterTable {
        assert_eq!(codes.hash_length(), self.hash_length, "hash length mismatch");
        // At most one new edge per code value: the map never rehashes.
        self.edges.reserve(codes.len() * self.hash_length);
        let indices: Vec<usize> = codes.iter().map(|c| self.assign(c)).collect();
        ClusterTable::new(indices, self.cluster_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_by_code_map;
    use cta_tensor::MatrixRng;
    use proptest::prelude::*;

    #[test]
    fn first_appearance_numbering() {
        let mut tree = ClusterTree::new(3);
        assert_eq!(tree.assign(&[1, 2, 3]), 0);
        assert_eq!(tree.assign(&[1, 2, 4]), 1);
        assert_eq!(tree.assign(&[0, 2, 3]), 2);
        assert_eq!(tree.assign(&[1, 2, 3]), 0);
        assert_eq!(tree.cluster_count(), 3);
    }

    #[test]
    fn shared_prefixes_share_internal_nodes() {
        let mut tree = ClusterTree::new(3);
        tree.assign(&[5, 5, 1]);
        let nodes_after_first = tree.internal_node_count();
        tree.assign(&[5, 5, 2]); // same prefix, only a new leaf
        assert_eq!(tree.internal_node_count(), nodes_after_first);
        tree.assign(&[6, 5, 1]); // new prefix from the root
        assert!(tree.internal_node_count() > nodes_after_first);
    }

    #[test]
    fn negative_hash_values_are_valid_edges() {
        let mut tree = ClusterTree::new(2);
        assert_eq!(tree.assign(&[-3, -7]), 0);
        assert_eq!(tree.assign(&[-3, -7]), 0);
        assert_eq!(tree.assign(&[-3, 7]), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn assign_rejects_wrong_length() {
        let mut tree = ClusterTree::new(2);
        let _ = tree.assign(&[1]);
    }

    #[test]
    fn assign_all_matches_reference_on_random_codes() {
        let mut rng = MatrixRng::new(77);
        for _ in 0..20 {
            let n = 1 + rng.index(64);
            let l = 1 + rng.index(6);
            let values: Vec<i32> = (0..n * l).map(|_| rng.index(4) as i32 - 2).collect();
            let codes = HashCodes::from_flat(n, l, values);
            let mut tree = ClusterTree::new(l);
            assert_eq!(tree.assign_all(&codes), cluster_by_code_map(&codes));
        }
    }

    #[test]
    fn hash_length_one_degenerates_to_value_map() {
        let codes = HashCodes::from_flat(4, 1, vec![9, 8, 9, 7]);
        let mut tree = ClusterTree::new(1);
        let ct = tree.assign_all(&codes);
        assert_eq!(ct.indices(), &[0, 1, 0, 2]);
    }

    #[test]
    fn long_shared_prefixes_and_rail_buckets_match_reference() {
        // 40-value codes that agree on their first 38 values, over an
        // alphabet holding both i32 rails and -1 (whose key bits are all
        // ones): each code walks one long shared chain and forks at the end.
        let alphabet = [i32::MIN, i32::MAX, -1, 0, 1];
        let l = 40;
        let codes: Vec<i32> =
            (0..25)
                .flat_map(|i| {
                    (0..l).map(move |p| {
                        if p < l - 2 {
                            alphabet[p % 5]
                        } else {
                            alphabet[(i / 5 + p * i) % 5]
                        }
                    })
                })
                .collect();
        let codes = HashCodes::from_flat(25, l, codes);
        let mut tree = ClusterTree::new(l);
        assert_eq!(tree.assign_all(&codes), cluster_by_code_map(&codes));
        // One chain of l - 2 shared internal nodes below the root, then
        // at most five forks and their leaves.
        assert!(tree.internal_node_count() <= (l - 1) + 5, "{}", tree.internal_node_count());
        assert_eq!(tree.cluster_count(), cluster_by_code_map(&codes).cluster_count());
    }

    proptest! {
        #[test]
        fn tree_equals_reference(
            n in 1usize..50,
            l in 1usize..14,
            shared in 0usize..14,
            rails in (0u8..2).prop_map(|r| r == 1),
            seed in 0u64..1000,
        ) {
            // Every code repeats a common prefix of up to `shared` values;
            // half the cases draw from an alphabet holding the i32 rails.
            let alphabet = if rails { [i32::MIN, i32::MAX, -1] } else { [0, 1, 2] };
            let mut rng = MatrixRng::new(seed);
            let prefix: Vec<i32> = (0..l).map(|_| alphabet[rng.index(3)]).collect();
            let values: Vec<i32> = (0..n * l)
                .map(|i| if i % l < shared { prefix[i % l] } else { alphabet[rng.index(3)] })
                .collect();
            let codes = HashCodes::from_flat(n, l, values);
            let mut tree = ClusterTree::new(l);
            prop_assert_eq!(tree.assign_all(&codes), cluster_by_code_map(&codes));
        }

        #[test]
        fn cluster_count_bounded_by_tokens(
            n in 1usize..40,
            seed in 0u64..1000,
        ) {
            let mut rng = MatrixRng::new(seed);
            let l = 3;
            let values: Vec<i32> = (0..n * l).map(|_| rng.index(5) as i32).collect();
            let codes = HashCodes::from_flat(n, l, values);
            let mut tree = ClusterTree::new(l);
            let ct = tree.assign_all(&codes);
            prop_assert!(ct.cluster_count() <= n);
            prop_assert!(ct.cluster_count() >= 1);
        }
    }
}
