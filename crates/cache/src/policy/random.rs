//! Seeded pseudo-random replacement.

use super::ReplacementPolicy;
use crate::meta::AccessMeta;

/// Random replacement with a deterministic xorshift64* stream, so
/// simulations are reproducible bit-for-bit from the seed.
#[derive(Clone, Debug)]
pub struct RandomEvict {
    state: u64,
}

impl RandomEvict {
    /// Creates a random policy from a nonzero seed.
    pub fn with_seed(seed: u64) -> Self {
        RandomEvict {
            state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed },
        }
    }

    fn next(&mut self) -> u64 {
        // xorshift64* — adequate statistical quality for victim choice.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl Default for RandomEvict {
    fn default() -> Self {
        Self::with_seed(0xC0FFEE)
    }
}

impl ReplacementPolicy for RandomEvict {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn attach(&mut self, _num_sets: usize, _ways: usize) {}

    fn on_hit(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}

    fn on_fill(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}

    fn victim(&mut self, _set: usize, metas: &[AccessMeta]) -> usize {
        (self.next() % metas.len() as u64) as usize
    }

    fn set_local(&self) -> bool {
        // One xorshift stream feeds every set: each victim consumes a
        // draw, so any re-interleaving of sets re-deals the stream.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = RandomEvict::with_seed(42);
        let mut b = RandomEvict::with_seed(42);
        let metas = [AccessMeta::NONE; 8];
        for _ in 0..100 {
            assert_eq!(a.victim(0, &metas), b.victim(0, &metas));
        }
    }

    #[test]
    fn victims_cover_all_ways() {
        let mut p = RandomEvict::with_seed(7);
        let metas = [AccessMeta::NONE; 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[p.victim(0, &metas)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn zero_seed_is_replaced() {
        let mut p = RandomEvict::with_seed(0);
        let metas = [AccessMeta::NONE; 4];
        // Must not get stuck returning a constant because state == 0.
        let v: Vec<usize> = (0..16).map(|_| p.victim(0, &metas)).collect();
        assert!(v.iter().any(|&x| x != v[0]));
    }
}
