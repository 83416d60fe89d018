//! A small deterministic random number generator.
//!
//! The engine embeds its own generator (xoshiro256**, seeded through
//! SplitMix64) rather than depending on `rand`'s thread-local entropy so
//! that a `(world, seed)` pair fully determines a run. Workload crates may
//! still use `rand` seeded from values drawn here.

/// Deterministic PRNG used for link jitter, loss draws, and workload noise.
///
/// This is xoshiro256** 1.0 (Blackman & Vigna, public domain reference
/// implementation), which is fast, passes BigCrush, and — unlike
/// cryptographic generators — is cheap enough to draw on every packet.
///
/// # Examples
///
/// ```
/// use mosquitonet_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

/// The SplitMix64 output finalizer (Steele, Lea & Flood): a bijection on
/// `u64` that avalanches every input bit. The one hash mixer of the
/// workspace — RNG seeding here, per-shard seed derivation, the fleet's
/// rendezvous weights, and the churn workload's private stream all go
/// through it, so pinned sidecars depend on these exact constants.
///
/// # Examples
///
/// ```
/// use mosquitonet_sim::rng::mix64;
///
/// assert_eq!(mix64(0), 0);
/// assert_ne!(mix64(1), mix64(2));
/// ```
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The hasher of [`IdHashMap`]: folds each word written into one `u64`
/// and finishes with [`mix64`]. Not keyed — the simulation makes these
/// keys itself (addresses, timer tokens, event ids), so SipHash's flood
/// resistance buys nothing and a run must not depend on `RandomState`.
#[derive(Clone, Copy, Default, Debug)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.0)
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
    // The fixed-width writes skip the chunk loop: an address lookup is
    // 5 ns with them and 23 ns through `write` alone.
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` over [`IdHasher`]; build one with `IdHashMap::default()`.
pub type IdHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// A `HashSet` over [`IdHasher`]; build one with `IdHashSet::default()`.
pub type IdHashSet<K> = std::collections::HashSet<K, std::hash::BuildHasherDefault<IdHasher>>;

/// One SplitMix64 step: advances `state` by the golden-ratio increment
/// and returns [`mix64`] of it. Seeds [`SimRng`], and drives streams that
/// must not draw from the engine's generator (the fleet churn workload).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in the half-open range `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn range_u64(&mut self, range: core::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let span = range.end - range.start;
        // Lemire's multiply-shift with rejection for unbiased sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                lo = m as u64;
            }
        }
        range.start + (m >> 64) as u64
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Forks a new, independently-seeded generator.
    ///
    /// Useful for giving each host or device its own stream so that adding
    /// draws in one component does not perturb another's sequence.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(1234);
        let mut b = SimRng::new(1234);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = SimRng::new(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds_and_hits_all_values() {
        let mut rng = SimRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.range_u64(5..15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range observed");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::new(0).range_u64(3..3);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut rng = SimRng::new(13);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.3).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SimRng::new(5);
        let mut child = parent.fork();
        // The child should not replay the parent's stream.
        let p: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }

    #[test]
    fn uniformity_chi_squared_smoke() {
        // 16 buckets, 160k draws: expected 10k per bucket. A very loose
        // bound guards against gross bias without flaking.
        let mut rng = SimRng::new(21);
        let mut buckets = [0u32; 16];
        for _ in 0..160_000 {
            buckets[(rng.next_u64() >> 60) as usize] += 1;
        }
        for &b in &buckets {
            assert!((9_500..10_500).contains(&b), "bucket count {b}");
        }
    }
}
