//! The crate's hasher for lookup-only tables.
//!
//! The cost memo is looked up on every layer step and the session tables
//! on every session turn, so their hashing is kept cheap: an Fx-style
//! multiply-rotate rather than SipHash. Every table built on it is
//! lookup-only — never iterated, so no hash order can reach a result —
//! and its keys are shapes and ids the program builds itself, so
//! SipHash's flood resistance has nothing to defend.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An Fx-style multiply-rotate over machine words with fixed constants,
/// so a key hashes the same way on every run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// A lookup-only map on [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuild>;

/// A lookup-only set on [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, FxBuild>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's well-mixed high bits rotated down to where the
    /// table takes its bucket index.
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}
