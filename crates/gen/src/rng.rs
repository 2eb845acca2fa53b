//! A tiny deterministic PRNG, std-only.
//!
//! Every generator in this crate (and the differential tests at the
//! workspace root) must be reproducible from a seed without external
//! dependencies. [`Lcg`] is the 64-bit linear congruential generator with
//! Knuth's MMIX constants that the `crates/core` tests already use inline;
//! the high 32 bits of each step feed the public methods, which mirror the
//! small slice of the `rand::Rng` API the workload generators need.

/// Deterministic 64-bit linear congruential generator.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Seeds the generator. Two `Lcg`s with equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        // Scramble the seed once so small seeds (0, 1, 2, …) do not start
        // with strongly correlated low-entropy states.
        let mut rng = Lcg {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        };
        rng.step();
        rng
    }

    fn step(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state
    }

    /// The next 64 pseudo-random bits (two LCG steps; the low half of a
    /// single step is too regular to expose).
    pub fn next_u64(&mut self) -> u64 {
        let hi = self.step() >> 32;
        let lo = self.step() >> 32;
        (hi << 32) | lo
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 bits of mantissa: uniform in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = Lcg::new(7);
        let mut b = Lcg::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Lcg::new(1);
        let mut b = Lcg::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut r = Lcg::new(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = r.gen_range(2..7);
            assert!((2..7).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes_and_balance() {
        let mut r = Lcg::new(9);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        let heads = (0..1000).filter(|_| r.gen_bool(0.5)).count();
        assert!((350..=650).contains(&heads), "heads = {heads}");
    }
}
