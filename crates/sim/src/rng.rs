//! Deterministic pseudo-random number generation for reproducible runs.
//!
//! The simulator ships its own small generator (SplitMix64 seeding a
//! xoshiro256**) so that simulation results are stable across platforms and
//! independent of external crate version bumps. The harness layer may still
//! use the `rand` crate for non-result-affecting conveniences.

/// A deterministic PRNG: xoshiro256** seeded via SplitMix64.
///
/// Streams are reproducible: the same seed always yields the same sequence.
/// Use [`SimRng::fork`] to derive independent sub-streams (e.g. one per
/// vehicle) without correlating them.
///
/// ```
/// use vc_sim::rng::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// Derives an independent sub-stream keyed by `key`.
    ///
    /// Forked streams do not overlap with the parent in practice: the child is
    /// reseeded through SplitMix64 from a draw of the parent mixed with `key`.
    pub fn fork(&mut self, key: u64) -> SimRng {
        let base = self.next_u64() ^ key.wrapping_mul(0x9E3779B97F4A7C15);
        SimRng::seed_from(base)
    }

    /// Derives a self-contained counter-style stream from two keys, without
    /// touching any parent generator state.
    ///
    /// This is the stream constructor the sharded hot loops use: a per-round
    /// `base` (one draw from the scenario RNG) combined with a canonical item
    /// index as `key` yields the same stream no matter which worker thread —
    /// or how many — ends up evaluating the item, so results are independent
    /// of the shard count by construction.
    pub fn stream(base: u64, key: u64) -> SimRng {
        let mut sm = base;
        let mixed = splitmix64(&mut sm) ^ key.wrapping_mul(0x9E3779B97F4A7C15);
        SimRng::seed_from(mixed)
    }

    /// Next raw 64 random bits.
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

    /// Next raw 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 mantissa bits of uniformity.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)` (empty ranges are rejected).
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Multiply-shift rejection-free mapping is fine for simulation use:
        // bias is < 2^-64 * span.
        lo + ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0, n as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + self.f64() * (hi - lo)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed draw with the given mean (`mean > 0`).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse CDF; 1 - f64() is in (0, 1] so ln is finite.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Normally distributed draw (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (reservoir sampling); returns
    /// fewer when `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut reservoir: Vec<usize> = (0..n.min(k)).collect();
        for i in k..n {
            let j = self.index(i + 1);
            if j < k {
                reservoir[j] = i;
            }
        }
        reservoir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_and_reproducible() {
        let mut parent1 = SimRng::seed_from(99);
        let mut parent2 = SimRng::seed_from(99);
        let mut c1 = parent1.fork(5);
        let mut c2 = parent2.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = parent1.fork(6);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn stream_is_pure_and_key_sensitive() {
        // Same (base, key) -> same stream; either key differing -> divergence.
        let mut a = SimRng::stream(7, 3);
        let mut b = SimRng::stream(7, 3);
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::stream(7, 4);
        let mut d = SimRng::stream(8, 3);
        let x = SimRng::stream(7, 3).next_u64();
        assert_ne!(x, c.next_u64());
        assert_ne!(x, d.next_u64());
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_roughly_half() {
        let mut rng = SimRng::seed_from(4);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn range_u64_covers_bounds() {
        let mut rng = SimRng::seed_from(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let x = rng.range_u64(10, 14);
            assert!((10..14).contains(&x));
            seen_lo |= x == 10;
            seen_hi |= x == 13;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        SimRng::seed_from(0).range_u64(5, 5);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(6);
        assert!((0..100).all(|_| rng.chance(1.0)));
        assert!((0..100).all(|_| !rng.chance(0.0)));
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::seed_from(8);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments_match() {
        let mut rng = SimRng::seed_from(9);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order (astronomically unlikely)");
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SimRng::seed_from(13);
        let sample = rng.sample_indices(100, 10);
        assert_eq!(sample.len(), 10);
        let mut sorted = sample.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(sample.iter().all(|&i| i < 100));
        assert_eq!(rng.sample_indices(3, 10).len(), 3);
    }
}
