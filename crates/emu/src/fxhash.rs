//! A minimal deterministic hasher for the hot `u64`-keyed maps of the
//! emulator (memory pages) and the simulator (LSQ forwarding words).
//!
//! The standard library's default hasher is DoS-resistant SipHash,
//! which is overkill for maps keyed by page, cache-line and word
//! indices, and it shows up on both hot paths: one lookup per emulated
//! memory access, and per simulated store and load. This is the
//! classic multiply-xor-shift integer hash: two multiplies,
//! deterministic across runs (which the simulator wants anyway —
//! nothing may depend on iteration order, but determinism keeps any
//! accidental dependence reproducible). Every key is an address the
//! emulated program computes, so a program whose addresses collide
//! slows only its own run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`U64Hasher`]; for integer keys only.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<U64Hasher>>;

/// Multiply-xor-shift hasher for integer keys.
///
/// Only the fixed-width integer `write_*` methods are meaningfully
/// supported; hashing variable-length byte slices falls back to a
/// simple (deterministic) fold and should not be used on hot paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct U64Hasher(u64);

impl U64Hasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        // splitmix64 finalizer: full avalanche, two multiplies.
        let mut z = v.wrapping_add(self.0).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

impl Hasher for U64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::FastMap;

    #[test]
    fn behaves_like_a_map() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..1000u64 {
            m.insert(k * 7919, k);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(&(k * 7919)), Some(&k));
        }
        assert_eq!(m.remove(&(3 * 7919)), Some(3));
        assert_eq!(m.get(&(3 * 7919)), None);
    }

    #[test]
    fn deterministic_across_instances() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let b1: BuildHasherDefault<super::U64Hasher> = Default::default();
        let b2: BuildHasherDefault<super::U64Hasher> = Default::default();
        assert_eq!(b1.hash_one(42u64), b2.hash_one(42u64));
        assert_ne!(b1.hash_one(42u64), b1.hash_one(43u64));
    }
}
