//! Deterministic generation of workload data segments.
//!
//! Uses a small hand-rolled xoshiro256++ generator rather than the
//! `rand` crate so the workspace builds with no external dependencies
//! (the build environment resolves no registry crates). Workload bytes
//! are a fixed function of the workload name across platforms and
//! toolchains.

/// The fixed seed all workloads derive their data from, so every run of
/// every experiment sees byte-identical inputs.
pub const WORKLOAD_SEED: u64 = 0x5eed_c1a5;

/// A small deterministic PRNG (xoshiro256++ seeded via splitmix64).
///
/// Not cryptographic — statistical quality is ample for synthesising
/// workload inputs, which is all this crate needs.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// A generator whose whole state is derived from `seed`.
    pub fn seeded(seed: u64) -> Rng {
        // splitmix64: guarantees a non-zero, well-mixed initial state
        // even for adversarial seeds (e.g. 0).
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform byte.
    pub fn next_byte(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Uniform in `[0, bound)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Rejection sampling over the largest multiple of `bound`.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform double in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        // 53 uniform mantissa bits → [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Fisher–Yates shuffle of `xs`.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.index(i + 1));
        }
    }
}

/// A deterministic RNG for a given workload name, independent of the
/// order workloads are constructed in.
pub fn rng_for(name: &str) -> Rng {
    let mut h = WORKLOAD_SEED;
    for b in name.bytes() {
        h = h.wrapping_mul(0x100000001b3).wrapping_add(b as u64);
    }
    Rng::seeded(h)
}

/// `n` doubles uniform in `[lo, hi)`, as little-endian bytes.
pub fn f64_block(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(n * 8);
    for _ in 0..n {
        let v = rng.range_f64(lo, hi);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// `n` u64 values uniform in `[0, bound)`, as little-endian bytes.
pub fn u64_block(rng: &mut Rng, n: usize, bound: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(n * 8);
    for _ in 0..n {
        let v = rng.below(bound);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// `n` random bytes (incompressible input).
pub fn random_bytes(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.next_byte()).collect()
}

/// `n` bytes built by repeating a short random pattern with occasional
/// substitutions — highly compressible input with long LZ matches.
pub fn repetitive_bytes(rng: &mut Rng, n: usize, period: usize, noise_one_in: usize) -> Vec<u8> {
    let pattern: Vec<u8> = (0..period).map(|_| rng.next_byte()).collect();
    (0..n)
        .map(|i| {
            if noise_one_in > 0 && rng.below(noise_one_in as u64) == 0 {
                rng.next_byte()
            } else {
                pattern[i % period]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let a = rng_for("gzip").next_u64();
        let b = rng_for("gzip").next_u64();
        let c = rng_for("swim").next_u64();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_block_in_range() {
        let mut rng = rng_for("t");
        let bytes = f64_block(&mut rng, 100, -1.0, 1.0);
        assert_eq!(bytes.len(), 800);
        for chunk in bytes.chunks(8) {
            let v = f64::from_le_bytes(chunk.try_into().unwrap());
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn u64_block_bounded() {
        let mut rng = rng_for("t");
        let bytes = u64_block(&mut rng, 50, 10);
        for chunk in bytes.chunks(8) {
            let v = u64::from_le_bytes(chunk.try_into().unwrap());
            assert!(v < 10);
        }
    }

    #[test]
    fn repetitive_bytes_mostly_periodic() {
        let mut rng = rng_for("t");
        let bytes = repetitive_bytes(&mut rng, 1000, 16, 100);
        let matches = bytes.iter().enumerate().filter(|&(i, &b)| b == bytes[i % 16]).count();
        assert!(matches > 900, "expected mostly periodic data, got {matches}/1000");
    }

    #[test]
    fn below_is_unbiased_enough_and_in_range() {
        let mut rng = Rng::seeded(7);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "bucket {i} count {c} far from uniform");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seeded(3);
        let mut xs: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "a 100-element shuffle should move something");
    }
}
