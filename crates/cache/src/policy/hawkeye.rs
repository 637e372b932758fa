//! A Hawkeye-style predictive policy (Jain & Lin, the paper's reference
//! \[21\]: "Back to the future: Leveraging Belady's algorithm for
//! improved cache replacement").
//!
//! Hawkeye reconstructs what Belady-OPT *would have done* on the recent
//! past (the **OPTgen** occupancy-vector algorithm) and trains a
//! predictor to classify accesses as cache-friendly (OPT would have hit)
//! or cache-averse (OPT would have missed). Friendly lines are inserted
//! with high priority, averse lines with low.
//!
//! The original trains per load PC; a trace-driven cache simulator has no
//! PCs, so this implementation trains per **address region** (block
//! address high bits) — the documented simplification. The paper's point
//! (Fig. 13) survives either way: history-based prediction cannot match
//! TCOR's *exact* future knowledge on the Parameter Buffer stream.

use super::ReplacementPolicy;
use crate::cache::Line;
use crate::meta::AccessMeta;
use tcor_common::{BlockAddr, FxHashMap};

/// Length of the per-set OPTgen history window (in set accesses).
const WINDOW: usize = 64;

/// 3-bit saturating training counters.
const COUNTER_MAX: i8 = 3;
const COUNTER_MIN: i8 = -4;

/// RRIP-style ages used for insertion/victimization.
const MAX_AGE: u8 = 7;

/// Per-set OPTgen state: an occupancy vector over the last [`WINDOW`]
/// accesses to the set, kept as a ring indexed by set time.
#[derive(Clone, Debug)]
struct OptGen {
    /// Occupancy of quantum `t` (the set's `t`-th access) at
    /// `occupancy[t % WINDOW]`, for the last `WINDOW` quanta.
    occupancy: [u8; WINDOW],
    /// Set time of each block's last access. An entry at least `WINDOW`
    /// accesses old has slid out of the window and counts as absent.
    last_access: FxHashMap<BlockAddr, usize>,
    /// Monotonic access count for this set.
    time: usize,
}

impl Default for OptGen {
    fn default() -> Self {
        OptGen {
            occupancy: [0; WINDOW],
            last_access: FxHashMap::default(),
            time: 0,
        }
    }
}

impl OptGen {
    /// Records an access and returns whether OPT (with `capacity` lines)
    /// would have hit it: true iff every quantum in the reuse interval
    /// had spare occupancy.
    fn access(&mut self, addr: BlockAddr, capacity: usize) -> bool {
        let now = self.time;
        self.time += 1;
        // The new quantum takes the slot of the one that slid out.
        self.occupancy[now % WINDOW] = 0;
        // Stale entries are skipped on lookup; dropping them once per
        // window bounds the map at two windows of blocks.
        if now.is_multiple_of(WINDOW) {
            self.last_access.retain(|_, t| now - *t < WINDOW);
        }
        let hit = match self.last_access.get(&addr) {
            Some(&prev) if now - prev < WINDOW => {
                let fits = (prev..now).all(|t| (self.occupancy[t % WINDOW] as usize) < capacity);
                if fits {
                    for t in prev..now {
                        self.occupancy[t % WINDOW] += 1;
                    }
                }
                fits
            }
            _ => false, // cold or out of the window: OPT misses it too
        };
        self.last_access.insert(addr, now);
        hit
    }
}

/// The Hawkeye-style policy.
#[derive(Clone, Debug, Default)]
pub struct Hawkeye {
    optgen: Vec<OptGen>,
    /// Region (addr >> 6) -> saturating friendliness counter.
    predictor: FxHashMap<u64, i8>,
    /// Per-line age (RRIP-like) and training region.
    age: Vec<u8>,
    region: Vec<u64>,
    ways: usize,
}

impl Hawkeye {
    /// Creates a Hawkeye policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn region_of(addr: BlockAddr) -> u64 {
        addr.0 >> 6
    }

    fn train(&mut self, addr: BlockAddr, set: usize) {
        let opt_hit = self.optgen[set].access(addr, self.ways);
        let counter = self.predictor.entry(Self::region_of(addr)).or_insert(0);
        if opt_hit {
            *counter = (*counter + 1).min(COUNTER_MAX);
        } else {
            *counter = (*counter - 1).max(COUNTER_MIN);
        }
    }

    fn friendly(&self, addr: BlockAddr) -> bool {
        self.predictor
            .get(&Self::region_of(addr))
            .copied()
            .unwrap_or(0)
            >= 0
    }
}

impl ReplacementPolicy for Hawkeye {
    fn name(&self) -> &'static str {
        "Hawkeye"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.ways = ways;
        self.optgen = vec![OptGen::default(); num_sets];
        self.age = vec![MAX_AGE; num_sets * ways];
        self.region = vec![0; num_sets * ways];
        self.predictor.clear();
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        // `user` carries the block address when driven through the engine
        // by `simulate_policy`; absent that, train on the stored region.
        let addr = BlockAddr(if meta.user != 0 {
            meta.user
        } else {
            self.region[set * self.ways + way] << 6
        });
        self.train(addr, set);
        self.age[set * self.ways + way] = if self.friendly(addr) { 0 } else { MAX_AGE };
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        let addr = BlockAddr(meta.user);
        self.train(addr, set);
        let idx = set * self.ways + way;
        self.region[idx] = Self::region_of(addr);
        self.age[idx] = if self.friendly(addr) { 0 } else { MAX_AGE };
    }

    fn victim(&mut self, set: usize, lines: &[Line]) -> usize {
        let base = set * self.ways;
        // Prefer cache-averse (age == MAX) lines; otherwise oldest.
        if let Some(w) = (0..lines.len()).find(|&w| self.age[base + w] >= MAX_AGE) {
            return w;
        }
        let w = (0..lines.len())
            .max_by_key(|&w| self.age[base + w])
            .expect("nonempty set");
        for i in 0..lines.len() {
            self.age[base + i] = self.age[base + i].saturating_add(1).min(MAX_AGE - 1);
        }
        w
    }

    fn set_local(&self) -> bool {
        // The region predictor is shared across sets: training in one
        // set changes insertion ages in every other.
        false
    }
}

/// Drives a trace through a cache running Hawkeye, passing each block
/// address in the metadata user word (the policy's training signal).
pub fn simulate_hawkeye(
    trace: &[crate::trace::Access],
    params: tcor_common::CacheParams,
) -> tcor_common::AccessStats {
    let mut cache =
        crate::cache::Cache::new(params, crate::index::Indexing::Modulo, Hawkeye::new());
    for a in trace {
        cache.access(a.addr, a.kind, AccessMeta::with_user(u64::MAX, a.addr.0));
    }
    *cache.stats()
}

/// Streams one trace through a bank of independent Hawkeye caches — one
/// per geometry — in a single pass, returning the stats in geometry
/// order. Each instance sees exactly the access sequence
/// [`simulate_hawkeye`] would feed it, so the results are bit-identical;
/// only the trace iteration is shared.
pub fn simulate_hawkeye_bank(
    trace: &[crate::trace::Access],
    geometries: &[tcor_common::CacheParams],
) -> Vec<tcor_common::AccessStats> {
    let mut caches: Vec<_> = geometries
        .iter()
        .map(|&p| crate::cache::Cache::new(p, crate::index::Indexing::Modulo, Hawkeye::new()))
        .collect();
    for a in trace {
        let meta = AccessMeta::with_user(u64::MAX, a.addr.0);
        for cache in &mut caches {
            cache.access(a.addr, a.kind, meta);
        }
    }
    caches.iter().map(|c| *c.stats()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Access;
    use tcor_common::CacheParams;

    fn reads(seq: &[u64]) -> Vec<Access> {
        seq.iter().map(|&b| Access::read(BlockAddr(b))).collect()
    }

    #[test]
    fn optgen_detects_fitting_reuse() {
        let mut g = OptGen::default();
        assert!(!g.access(BlockAddr(1), 2), "cold access");
        assert!(!g.access(BlockAddr(2), 2), "cold access");
        assert!(g.access(BlockAddr(1), 2), "reuse fits in 2 lines");
    }

    #[test]
    fn optgen_rejects_overcommitted_interval() {
        let mut g = OptGen::default();
        // Capacity 1: interleaved reuse cannot both fit.
        g.access(BlockAddr(1), 1);
        g.access(BlockAddr(2), 1);
        assert!(g.access(BlockAddr(1), 1), "first reuse claims the line");
        assert!(!g.access(BlockAddr(2), 1), "second reuse cannot fit");
    }

    #[test]
    fn optgen_window_edge() {
        // Reuse at distance 63 is inside the window and fits; at distance
        // 64 the previous access has slid out, so OPT counts it cold.
        let mut g = OptGen::default();
        let mut next_filler = 1000;
        let mut filler = |g: &mut OptGen, n: usize| {
            for _ in 0..n {
                assert!(!g.access(BlockAddr(next_filler), 64), "filler is cold");
                next_filler += 1;
            }
        };
        g.access(BlockAddr(1), 64);
        filler(&mut g, WINDOW - 2);
        assert!(g.access(BlockAddr(1), 64), "distance 63 reuses");
        filler(&mut g, WINDOW - 1);
        assert!(
            !g.access(BlockAddr(1), 64),
            "distance 64 is out of the window"
        );
        // Both distances keep their answers after many wraps of the ring.
        for _ in 0..10 {
            filler(&mut g, WINDOW - 2);
            assert!(g.access(BlockAddr(1), 64), "distance 63 reuses");
            filler(&mut g, WINDOW - 1);
            assert!(
                !g.access(BlockAddr(1), 64),
                "distance 64 is out of the window"
            );
        }
    }

    #[test]
    fn hawkeye_runs_and_beats_nothing_catastrophically() {
        // Sanity: on a loop that fits, Hawkeye behaves like any sane
        // policy (hits after the cold pass).
        let seq: Vec<u64> = (0..4u64).cycle().take(100).collect();
        let stats = simulate_hawkeye(&reads(&seq), CacheParams::new(8, 1, 4, 1));
        assert_eq!(stats.misses(), 4, "only cold misses on a fitting loop");
    }

    #[test]
    fn hawkeye_survives_thrash_better_than_plain_lru_shape() {
        // 6-block cycle in a 4-line cache: LRU gets 0 hits; a
        // prediction-based policy should retain something once trained.
        let seq: Vec<u64> = (0..6u64).cycle().take(600).collect();
        let hawkeye = simulate_hawkeye(&reads(&seq), CacheParams::new(4, 1, 0, 1));
        assert!(hawkeye.hits() > 0, "Hawkeye should not thrash to zero hits");
    }

    #[test]
    fn window_aging_does_not_leak() {
        let mut g = OptGen::default();
        for i in 0..10_000u64 {
            g.access(BlockAddr(i % 50), 4);
        }
        assert!(g.occupancy.len() <= WINDOW);
        assert!(g.last_access.len() <= WINDOW + 1);
        // Every block distinct: the once-per-window `retain` keeps the
        // map within two windows of blocks.
        for i in 0..10_000u64 {
            g.access(BlockAddr(1_000_000 + i), 4);
            assert!(g.last_access.len() < 2 * WINDOW);
        }
    }
}
