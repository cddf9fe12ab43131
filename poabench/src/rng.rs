//! The benchmark's own seeded generator, so inputs depend only on the
//! seed and this file, never on the program under test.

use alidrone_crypto::rng::Rng;

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x05EE_D0FA_11B1_D0E5)
    }

    /// An independent stream for `label`, so adding draws to one part
    /// of the generator never shifts another part's inputs.
    pub fn fork(seed: u64, label: &str) -> SplitMix {
        let h = label.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
        });
        SplitMix::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

impl Rng for SplitMix {
    fn next_u64(&mut self) -> u64 {
        SplitMix::next_u64(self)
    }
}
