//! Batch clustering: hash codes → first-appearance cluster table through
//! one flat open-addressed map.

use crate::{ClusterTable, HashCodes};

/// An empty slot of the map.
const EMPTY: u32 = u32::MAX;

/// Numbers the codes of a token sequence by first appearance: token `t`
/// gets the index of the first token whose code equals its own, and the
/// first token of each distinct code gets the next dense index. This is
/// the table [`ClusterTree::assign_all`](crate::ClusterTree::assign_all)
/// builds (the tree is this map's test oracle), found without walking
/// `l` edges per token.
///
/// The map is one flat array of `2n` slots (rounded up to a power of
/// two), so it is at most half full and never grows. A slot holds the
/// first token of one distinct code; a probe starts at the code's hash
/// and steps linearly, and compares the full code, so a hash collision
/// costs a probe, never a wrong index. The hash folds every value of the
/// code through the same multiplicative step as the tree's edge hasher:
/// deterministic and unseeded, so lookups cost the same on every run.
/// Without a seed, tokens crafted so their codes collide can slow the
/// pass towards quadratic in the sequence length; they cannot change an
/// index.
///
/// ```
/// use cta_lsh::{cluster_by_code_map, HashCodes};
///
/// let codes = HashCodes::from_flat(4, 2, vec![4, 7, 4, 8, 4, 7, 0, 0]);
/// assert_eq!(cluster_by_code_map(&codes).indices(), &[0, 1, 0, 2]);
/// ```
///
/// # Panics
///
/// Panics if there are `2³²` or more tokens.
pub fn cluster_by_code_map(codes: &HashCodes) -> ClusterTable {
    let n = codes.len();
    assert!(n < EMPTY as usize, "cluster_by_code_map: {n} tokens overflow the map");
    let l = codes.hash_length();
    let values = codes.as_flat();
    let mask = (2 * n).next_power_of_two() - 1;
    let mut slots = vec![EMPTY; mask + 1];
    let mut indices: Vec<usize> = Vec::with_capacity(n);
    let mut clusters = 0;
    for (t, code) in values.chunks_exact(l).enumerate() {
        let mut slot = code_hash(code) as usize & mask;
        let index = loop {
            let first = slots[slot];
            if first == EMPTY {
                slots[slot] = t as u32;
                clusters += 1;
                break clusters - 1;
            }
            let first = first as usize;
            if values[first * l..(first + 1) * l] == *code {
                break indices[first];
            }
            slot = (slot + 1) & mask;
        };
        indices.push(index);
    }
    ClusterTable::new(indices, clusters)
}

/// The hash of one code: each value folded into the state by the
/// folded 128-bit product with an odd constant, as the tree's
/// `EdgeHasher` folds an edge key.
fn code_hash(code: &[i32]) -> u64 {
    code.iter().fold(0, |state, &value| {
        let product = u128::from(state ^ u64::from(value as u32)) * 0x9E37_79B9_7F4A_7C15;
        (product as u64) ^ ((product >> 64) as u64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterTree;
    use cta_tensor::MatrixRng;
    use proptest::prelude::*;

    /// The tree's table for `codes`: the oracle.
    fn tree_table(codes: &HashCodes) -> ClusterTable {
        ClusterTree::new(codes.hash_length()).assign_all(codes)
    }

    #[test]
    fn empty_and_single_token_sequences() {
        for l in [1, 6, 13] {
            let empty = HashCodes::from_flat(0, l, vec![]);
            assert_eq!(cluster_by_code_map(&empty), tree_table(&empty));
            assert_eq!(cluster_by_code_map(&empty).cluster_count(), 0);
            let one = HashCodes::from_flat(1, l, vec![i32::MIN; l]);
            assert_eq!(cluster_by_code_map(&one), tree_table(&one));
            assert_eq!(cluster_by_code_map(&one).indices(), &[0]);
        }
    }

    #[test]
    fn codes_that_share_a_hash_slot_keep_their_own_index() {
        // A one-value alphabet over every length, then codes that differ
        // only in their last value or only by a permutation.
        for l in 1..=13 {
            let same = HashCodes::from_flat(5, l, vec![7; 5 * l]);
            assert_eq!(cluster_by_code_map(&same).indices(), &[0; 5]);
        }
        let codes = HashCodes::from_flat(4, 3, vec![1, 2, 3, 3, 2, 1, 1, 2, 4, 1, 2, 3]);
        assert_eq!(cluster_by_code_map(&codes).indices(), &[0, 1, 2, 0]);
    }

    proptest! {
        /// The flat map is the tree's first-appearance numbering on
        /// heavily duplicated codes (alphabets of 1-3 values, half of
        /// them holding the i32 rails), on all-distinct codes, and at
        /// every code length up to 13.
        #[test]
        fn code_map_equals_the_cluster_tree(
            n in 0usize..300,
            l in 1usize..=13,
            alphabet_size in 1usize..=4,
            rails in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let alphabet = if rails == 1 { [i32::MIN, i32::MAX, -1] } else { [0, 1, 2] };
            let mut rng = MatrixRng::new(seed);
            let values: Vec<i32> = (0..n * l)
                .map(|i| match alphabet_size {
                    // All distinct: the token index in the first value.
                    4 if i % l == 0 => (i / l) as i32 ^ alphabet[0],
                    4 => alphabet[rng.index(3)],
                    k => alphabet[rng.index(k)],
                })
                .collect();
            let codes = HashCodes::from_flat(n, l, values);
            let table = cluster_by_code_map(&codes);
            prop_assert_eq!(&table, &tree_table(&codes));
            if alphabet_size == 4 {
                prop_assert_eq!(table.cluster_count(), n);
            }
        }
    }
}
