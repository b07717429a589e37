//! `FxHashMap` / `FxHashSet`: the std collections over a fast,
//! non-cryptographic hasher, for the small integer-like keys (node and
//! channel ids, pairs of them, phase names) the workspace's hot paths
//! hash. Never use them for keys an outside party chooses.
//!
//! The hasher is the Fx scheme — one wrapping add and multiply per
//! 64-bit word, a rotate on finish so the well-mixed high bits land
//! where `HashMap` looks. Iteration order of these maps reaches some
//! outputs, so the constants are pinned by a known-answer test.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` keyed by [`FxHasher`].
pub type FxHashSet<V> = HashSet<V, FxBuildHasher>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A fast, non-cryptographic hasher for small integer-like keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        // Length-prefix-free inputs (str) stay distinguishable.
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`FxHasher`]s; the `S` parameter of the map aliases.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn hashes_are_pinned() {
        assert_eq!(hash_of(0u32), 0);
        assert_eq!(hash_of(1u32), K.rotate_left(26));
        assert_eq!(
            hash_of((1u32, 2u32)),
            K.wrapping_add(2).wrapping_mul(K).rotate_left(26)
        );
        // A str hashes its bytes, its length, then std's 0xff terminator.
        let mut h = FxHasher::default();
        h.write(b"sssp");
        h.write_u8(0xff);
        assert_eq!(hash_of("sssp"), h.finish());
        assert_ne!(hash_of("sssp"), hash_of("sssp\0"));
    }

    #[test]
    fn aliases_behave_like_the_std_collections() {
        let mut m: FxHashMap<(u32, u32), usize> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i ^ 1), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(7, 6)], 7);
        let s: FxHashSet<u64> = (0..100).collect();
        assert!(s.contains(&99) && !s.contains(&100));
    }
}
