//! An Fx-style fast hasher, implemented in-repo.
//!
//! Member-id keyed hash maps are the hottest data structure in cubing:
//! every cell visit is a map probe keyed by small integer tuples. The
//! default SipHash is needlessly defensive for those keys (they are
//! generated internally, not attacker-controlled), so we use the same
//! multiply-rotate scheme as rustc's `FxHasher`. The `rustc-hash` crate is
//! outside the allowed offline dependency set, hence this
//! ~60-line reimplementation.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative seed from splitmix64/fxhash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for small internally-generated keys.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk of 8"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&vec![1u32, 2, 3]), hash_of(&vec![1u32, 2, 3]));
    }

    #[test]
    fn nearby_keys_get_distinct_hashes() {
        let h: Vec<u64> = (0u32..1000).map(|i| hash_of(&i)).collect();
        let distinct: FxHashSet<u64> = h.iter().copied().collect();
        assert_eq!(distinct.len(), 1000, "collisions among 1000 small ints");
    }

    #[test]
    fn byte_stream_remainder_is_hashed() {
        // Strings of different short lengths must not collide trivially.
        let a = hash_of(&"abc");
        let b = hash_of(&"abd");
        let c = hash_of(&"ab");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn maps_and_sets_work_end_to_end() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        for i in 0..100 {
            m.insert((i, i * 2), u64::from(i) * 7);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m[&(3, 6)], 21);

        let s: FxHashSet<u32> = (0..50).collect();
        assert!(s.contains(&49));
        assert!(!s.contains(&50));
    }
}
