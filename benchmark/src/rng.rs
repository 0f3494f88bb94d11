//! The benchmark's only source of randomness: SplitMix64, seeded from
//! `--seed`, so equal seeds generate equal inputs on every machine.

/// SplitMix64 (Steele, Lea & Flood): tiny, full-period, good enough to
/// shuffle goal orders and pick fault victims.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose: `stream` separates the sequences drawn
    /// from one `--seed` (goal order, victims, faults) so adding a draw to
    /// one does not shift the others.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these
    /// sizes.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// A shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_permutations_and_different_seeds_differ() {
        let a = Rng::new(7, 1).permutation(64);
        let b = Rng::new(7, 1).permutation(64);
        let c = Rng::new(8, 1).permutation(64);
        let d = Rng::new(7, 2).permutation(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }
}
