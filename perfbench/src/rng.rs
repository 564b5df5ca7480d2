//! SplitMix64: the seeded stream every workload draws its operations from.
//! Local so the benchmark adds no dependency and its streams never change
//! when a library's generator does.

/// A SplitMix64 generator (Steele, Lea and Flood, 2014).
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`; `salt` separates the streams of one run.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut g = SplitMix64(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_salts_differ() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(7, 1);
            (0..4).map(|_| g.next_u64()).collect()
        };
        let mut g = SplitMix64::new(7, 1);
        assert_eq!(a, (0..4).map(|_| g.next_u64()).collect::<Vec<_>>());
        let mut h = SplitMix64::new(7, 2);
        assert_ne!(a[0], h.next_u64());
    }
}
