//! Deterministic pseudo-random number generation.
//!
//! Implemented from scratch (SplitMix64 for seeding, xoshiro256++ for the
//! stream) rather than depending on an external crate so that every
//! experiment in this repository is **bit-reproducible** across platforms,
//! Rust versions, and dependency upgrades. Both algorithms are public
//! domain (Blackman & Vigna).

/// SplitMix64 step — used to expand a 64-bit seed into xoshiro state and as
/// a cheap stateless mixing function elsewhere in the workspace (signature
/// bit selection, attribute hashing).
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// The first `n` distinct values a draw sequence yields, sorted — what a
/// loop that draws until it holds `n` distinct values returns. Draws `n`
/// values and sorts them; only when two are equal does it go on drawing,
/// one value at a time, until `n` are distinct. Either way `draw` runs
/// exactly as often as in that loop, so a generator it advances is left
/// where the loop leaves it.
pub(crate) fn distinct_sorted<T: Ord>(n: usize, mut draw: impl FnMut() -> T) -> Vec<T> {
    let mut values: Vec<T> = (0..n).map(|_| draw()).collect();
    values.sort_unstable();
    if values.windows(2).all(|w| w[0] != w[1]) {
        return values;
    }
    let mut distinct: std::collections::BTreeSet<T> = values.into_iter().collect();
    while distinct.len() < n {
        distinct.insert(draw());
    }
    distinct.into_iter().collect()
}

/// Stateless mix of a single value through one SplitMix64 round — handy for
/// turning ids into well-distributed 64-bit hashes.
#[inline]
pub fn mix64(v: u64) -> u64 {
    let mut s = v;
    splitmix64(&mut s)
}

/// xoshiro256++ pseudo-random generator.
///
/// Fast, high-quality, and trivially portable. Not cryptographic — which is
/// fine: the testbed needs statistical quality and reproducibility, not
/// unpredictability.
#[derive(Debug, Clone)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Seed the generator. Any seed (including 0) is valid; SplitMix64
    /// expansion guarantees a non-zero internal state.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift with
    /// rejection (unbiased). `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `\[0, 1\]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed value with the given mean — the paper's
    /// request inter-arrival distribution (Table 1).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        // 1 - f64() is in (0, 1], so ln() is finite and ≤ 0.
        -mean * (1.0 - self.f64()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "choose from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Derive an independent generator (for splitting streams between the
    /// request generator, the dataset builder, etc. without correlation).
    pub fn fork(&mut self) -> Prng {
        Prng::new(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Prng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn f64_is_unit_interval_and_roughly_uniform() {
        let mut rng = Prng::new(11);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn exponential_has_requested_mean() {
        let mut rng = Prng::new(13);
        let n = 200_000;
        let mean = 40.0;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.exponential(mean);
            assert!(v >= 0.0);
            sum += v;
        }
        let got = sum / n as f64;
        assert!((got - mean).abs() < mean * 0.02, "got={got}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Prng::new(17);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "shuffle moved something");
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = Prng::new(19);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn fork_produces_uncorrelated_stream() {
        let mut a = Prng::new(23);
        let mut b = a.fork();
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn distinct_sorted_draws_past_repeats_as_the_loop_does() {
        // The loop keeps 5, 3, 9, 1 and stops after six draws.
        let mut seq = [5, 3, 5, 9, 3, 1, 7, 8].into_iter();
        let mut draws = 0;
        let values = distinct_sorted(4, || {
            draws += 1;
            seq.next().unwrap()
        });
        assert_eq!((values, draws), (vec![1, 3, 5, 9], 6));
        // Without a repeat it draws `n` values.
        let mut seq = [4, 2, 6].into_iter();
        assert_eq!(distinct_sorted(3, || seq.next().unwrap()), vec![2, 4, 6]);
        assert_eq!(seq.next(), None);
        assert!(distinct_sorted(0, || -> u64 { unreachable!() }).is_empty());
    }

    #[test]
    fn mix64_spreads_small_inputs() {
        let h1 = mix64(1);
        let h2 = mix64(2);
        assert_ne!(h1, h2);
        // Hamming distance should be substantial for adjacent inputs.
        assert!((h1 ^ h2).count_ones() > 16);
    }
}
