//! Recency-based policies: LRU (the paper's baseline) and MRU.

use super::ReplacementPolicy;
use crate::meta::AccessMeta;

/// Least-Recently-Used: evicts the way touched longest ago.
///
/// Implemented with a global monotonic clock and a per-line timestamp —
/// exact LRU, not an approximation.
#[derive(Clone, Debug, Default)]
pub struct Lru {
    clock: u64,
    last_touch: Vec<u64>,
    ways: usize,
}

impl Lru {
    /// Creates an LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.last_touch[set * self.ways + way] = self.clock;
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.ways = ways;
        self.last_touch = vec![0; num_sets * ways];
        self.clock = 0;
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.last_touch[set * self.ways + way] = 0;
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        let base = set * self.ways;
        let stamps = &self.last_touch[base..base + metas.len()];
        (0..stamps.len())
            .min_by_key(|&w| stamps[w])
            .expect("victim called on empty set")
    }

    fn set_local(&self) -> bool {
        // Victims compare strictly-increasing timestamps *within* one
        // set; only their relative order matters, never the magnitude.
        true
    }
}

/// Most-Recently-Used: evicts the way touched most recently. A known-bad
/// policy for this workload (Fig. 13's worst curve), kept as a comparison
/// point.
///
/// Each set remembers only its last touched way, which is the way with
/// the newest touch: a victim is asked only of a full set, and a set
/// with an invalidated way is full again only after a fill, which
/// touches the refilled way.
#[derive(Clone, Debug, Default)]
pub struct Mru {
    last: Vec<u32>,
}

impl Mru {
    /// Creates an MRU policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Mru {
    fn name(&self) -> &'static str {
        "MRU"
    }

    fn attach(&mut self, num_sets: usize, _ways: usize) {
        self.last = vec![0; num_sets];
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.last[set] = way as u32;
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.last[set] = way as u32;
    }

    fn victim(&mut self, set: usize, _metas: &[AccessMeta]) -> usize {
        self.last[set] as usize
    }

    fn set_local(&self) -> bool {
        // Each set's state is its own last touch.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::index::Indexing;
    use crate::meta::AccessKind;
    use tcor_common::{BlockAddr, CacheParams};

    fn run(policy_name: &str, seq: &[u64], lines: u64) -> Vec<Option<u64>> {
        // Returns the eviction (if any) after each access.
        let mut cache = Cache::new(
            CacheParams::new(lines * 64, 64, 0, 1),
            Indexing::Modulo,
            super::super::by_name(policy_name),
        );
        seq.iter()
            .map(|&b| {
                cache
                    .access(BlockAddr(b), AccessKind::Read, AccessMeta::NONE)
                    .evicted
                    .map(|e| e.addr.0)
            })
            .collect()
    }

    #[test]
    fn lru_classic_sequence() {
        // 2-line fully associative: A B A C -> C evicts B.
        let ev = run("lru", &[1, 2, 1, 3], 2);
        assert_eq!(ev, vec![None, None, None, Some(2)]);
    }

    #[test]
    fn mru_evicts_most_recent() {
        // 2-line: A B A C -> MRU evicts A (most recently touched).
        let ev = run("mru", &[1, 2, 1, 3], 2);
        assert_eq!(ev, vec![None, None, None, Some(1)]);
    }

    #[test]
    fn lru_cyclic_thrash_has_zero_hits() {
        // The pathological LRU case: cyclic access to N+1 blocks in an
        // N-line cache misses every time.
        let seq: Vec<u64> = (0..5u64).cycle().take(50).collect();
        let mut cache = Cache::new(
            CacheParams::new(4 * 64, 64, 0, 1),
            Indexing::Modulo,
            Lru::new(),
        );
        for &b in &seq {
            cache.access(BlockAddr(b), AccessKind::Read, AccessMeta::NONE);
        }
        assert_eq!(cache.stats().read_hits, 0);
        assert_eq!(cache.stats().read_misses, 50);
    }
}
