//! A deterministic, fast `BuildHasher` for simulation hot paths.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! lookup — pure overhead for a simulator whose keys (flow tuples, cache-set
//! indices, MAC addresses) are short and attacker-free. [`FxHasher`]
//! implements the FxHash algorithm (one wrapping multiply + rotate-xor per
//! word, as used by rustc itself): ~5× cheaper on the small keys the
//! substrates hash, and — unlike `RandomState` — *seed-free*, so iteration-
//! independent code paths hash identically across runs and across the
//! parallel sweep workers. Determinism here is a correctness requirement:
//! bit-identical replay is what the differential and sweep tests enforce.
//!
//! # Example
//! ```
//! use simcore::hash::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(42, "line");
//! assert_eq!(m.get(&42), Some(&"line"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx multiplier (the golden-ratio constant rustc uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash streaming hasher: `hash = (hash rotl 5 ^ word) * SEED` per
/// word. Not DoS-resistant — do not use for attacker-controlled keys.
#[derive(Debug, Clone, Copy, Default)]
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
    fn write(&mut self, mut bytes: &[u8]) {
        while bytes.len() >= 8 {
            let (word, rest) = bytes.split_at(8);
            self.add_to_hash(u64::from_le_bytes(word.try_into().expect("8 bytes")));
            bytes = rest;
        }
        if bytes.len() >= 4 {
            let (word, rest) = bytes.split_at(4);
            self.add_to_hash(u32::from_le_bytes(word.try_into().expect("4 bytes")) as u64);
            bytes = rest;
        }
        for &b in bytes {
            self.add_to_hash(b as u64);
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

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Seed-free `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the deterministic Fx hasher.
#[expect(
    clippy::disallowed_types,
    reason = "declares the seed-free alias the other crates use in its place"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the deterministic Fx hasher.
#[expect(
    clippy::disallowed_types,
    reason = "declares the seed-free alias the other crates use in its place"
)]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        // Same value, fresh builders (fresh "runs"): identical hashes.
        assert_eq!(hash_of(&0xdead_beefu64), hash_of(&0xdead_beefu64));
        assert_eq!(hash_of(&"flow"), hash_of(&"flow"));
        assert_eq!(hash_of(&(1u32, 2u16, 3u16)), hash_of(&(1u32, 2u16, 3u16)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Not a strength proof, just a sanity check against degenerate
        // implementations (e.g. ignoring input).
        let hashes: Vec<u64> = (0..1000u64).map(|i| hash_of(&i)).collect();
        let mut dedup = hashes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hashes.len(), "collisions on sequential keys");
    }

    #[test]
    fn mixed_width_writes() {
        let mut h = FxHasher::default();
        h.write_u8(1);
        h.write_u16(2);
        h.write_u32(3);
        h.write_u64(4);
        h.write_usize(5);
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
        assert_ne!(h.finish(), 0);
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<(u32, u16), u64> = FxHashMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m[&(1, 2)], 3);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }
}
