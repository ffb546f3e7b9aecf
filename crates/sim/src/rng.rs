//! Self-contained deterministic PRNG (xoshiro256++ with splitmix64
//! seeding).
//!
//! The simulation path must be bit-for-bit reproducible from a single
//! seed across platforms and dependency upgrades, so `fluctrace` ships
//! its own generator instead of depending on an external RNG crate whose
//! streams may change between versions. xoshiro256++ is the generator
//! recommended by its authors for general-purpose 64-bit use; splitmix64
//! is the standard way to expand a 64-bit seed into its 256-bit state.

/// Deterministic xoshiro256++ pseudo-random number generator.
///
/// Cloning an `Rng` duplicates its stream; use [`Rng::fork`] to derive a
/// statistically independent child stream (e.g. one per simulated core)
/// while keeping the parent reproducible.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro state must not be all-zero; splitmix64 never produces
        // four zeros from any seed, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Rng { s }
    }

    /// Derive an independent child stream. The child is seeded from the
    /// parent's output, so `fork` advances the parent stream by one.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    /// Panics if `bound == 0`.
    #[inline]
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_below(0)");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "gen_range: lo > hi");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        let n = items.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.gen_below(items.len() as u64) as usize]
    }

    /// Panic-free [`Rng::choose`]: `None` on an empty slice. Does not
    /// advance the stream when the slice is empty.
    pub fn choose_opt<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            items.get(self.gen_below(items.len() as u64) as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_independent_and_reproducible() {
        let mut parent1 = Rng::new(7);
        let mut parent2 = Rng::new(7);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        for _ in 0..100 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        // Child differs from parent continuation.
        assert_ne!(parent1.next_u64(), c1.next_u64());
    }

    #[test]
    fn gen_below_respects_bound() {
        let mut r = Rng::new(9);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..200 {
                assert!(r.gen_below(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_below_is_roughly_uniform() {
        let mut r = Rng::new(11);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.gen_below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn gen_range_inclusive_endpoints() {
        let mut r = Rng::new(3);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let v = r.gen_range(5, 8);
            assert!((5..=8).contains(&v));
            saw_lo |= v == 5;
            saw_hi |= v == 8;
        }
        assert!(saw_lo && saw_hi);
        assert_eq!(r.gen_range(4, 4), 4);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(19);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "identity shuffle is astronomically unlikely"
        );
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut r = Rng::new(23);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[*r.choose(&items) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
    }
}
