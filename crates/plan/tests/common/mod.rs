//! Shared by the property tests: a deterministic, std-only PRNG.

/// Knuth's MMIX linear congruential generator.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    /// A value in `0..n` (from the high bits: an LCG's low bits cycle).
    pub fn gen_range(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 16) % n.max(1)
    }
}
