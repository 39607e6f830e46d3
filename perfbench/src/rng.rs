//! Deterministic input generation: every input is a pure function of the
//! run seed, a stream id and an index, so the same seed gives the same
//! requests however threads interleave.

/// SplitMix64 stream keyed by `(seed, stream, index)`.
pub struct Rng(u64);

impl Rng {
    /// The generator for one keyed item.
    pub fn new(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ 0x005E_ED0F_FEA7_6A9D);
        let a = r.next() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut r = Rng(a);
        Rng(r.next() ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
    }

    /// Next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_streams_are_deterministic_and_distinct() {
        let draw = |s, st, i| Rng::new(s, st, i).next();
        assert_eq!(draw(1, 2, 3), draw(1, 2, 3));
        assert_ne!(draw(1, 2, 3), draw(1, 2, 4));
        assert_ne!(draw(1, 2, 3), draw(1, 3, 3));
        assert_ne!(draw(1, 2, 3), draw(2, 2, 3));
        let mut r = Rng::new(9, 0, 0);
        assert!((0..1000).all(|_| r.below(7) < 7 && (0.0..1.0).contains(&r.unit())));
    }
}
