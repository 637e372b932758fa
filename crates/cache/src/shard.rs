//! Data-oriented per-set trace sharding.
//!
//! Cache sets never interact: victim selection sees only the lines of
//! one set, and a **set-local** policy (see
//! [`ReplacementPolicy::set_local`]) keeps no cross-set state that
//! could couple them. For such policies, simulating a geometry is
//! equivalent to simulating each set independently — and a trace
//! pre-bucketed by set index drives those simulations over *dense*
//! per-set streams instead of re-hashing every access and bouncing
//! across a whole cache's line array.
//!
//! [`ShardedTrace`] is the structure-of-arrays layout: one counting
//! sort on the set index turns a trace into CSR-style per-set runs of
//! `(addr, kind, next_use)` columns. [`simulate_policy_shard_range`]
//! replays a contiguous range of sets through single-set caches; ranges
//! are embarrassingly parallel and their statistics sum in any order
//! (the counters are additive), so a multi-worker dispatch is
//! bit-identical to the serial whole-cache simulation.
//!
//! [`ShardCache`] memoizes the layouts per set count so several
//! policies sweeping the same geometries pay for each bucketing exactly
//! once.

use crate::cache::Cache;
use crate::index::{Indexing, SetIndex};
use crate::meta::{AccessKind, AccessMeta};
use crate::policy::ReplacementPolicy;
use crate::trace::Access;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};
use tcor_common::{AccessStats, BlockAddr, CacheParams};

/// A trace bucketed by set index, in structure-of-arrays layout.
///
/// `starts` is a CSR offset table: set `s` owns the half-open column
/// range `starts[s]..starts[s + 1]`, holding that set's accesses in
/// trace order. `next_use` is gathered alongside when an annotation is
/// supplied (empty otherwise) — the values stay *global* trace
/// positions, which is all the OPT policy compares.
#[derive(Clone, Debug)]
pub struct ShardedTrace {
    num_sets: usize,
    starts: Vec<usize>,
    addrs: Vec<BlockAddr>,
    kinds: Vec<AccessKind>,
    next_use: Vec<u64>,
}

impl ShardedTrace {
    /// Buckets `trace` into `num_sets` per-set runs under `indexing`,
    /// gathering the optional next-use annotation into the same layout.
    /// One counting sort: O(trace + sets) time, no hashing.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0`, or (debug) on a length-mismatched
    /// annotation.
    pub fn build(
        trace: &[Access],
        next: Option<&[u64]>,
        num_sets: u64,
        indexing: Indexing,
    ) -> Self {
        if let Some(next) = next {
            debug_assert_eq!(trace.len(), next.len(), "annotation must match trace");
        }
        let index = SetIndex::new(indexing, num_sets);
        let sets = index.num_sets();
        let n = trace.len();
        let mut counts = vec![0usize; sets];
        for a in trace {
            counts[index.set_of(a.addr.0)] += 1;
        }
        let mut starts = Vec::with_capacity(sets + 1);
        let mut acc = 0usize;
        starts.push(0);
        for c in &counts {
            acc += c;
            starts.push(acc);
        }
        let mut cursor: Vec<usize> = starts[..sets].to_vec();
        let mut addrs = vec![BlockAddr(0); n];
        let mut kinds = vec![AccessKind::Read; n];
        let mut next_use = vec![0u64; if next.is_some() { n } else { 0 }];
        for (i, a) in trace.iter().enumerate() {
            let s = index.set_of(a.addr.0);
            let at = cursor[s];
            cursor[s] = at + 1;
            addrs[at] = a.addr;
            kinds[at] = a.kind;
            if let Some(next) = next {
                next_use[at] = next[i];
            }
        }
        ShardedTrace {
            num_sets: sets,
            starts,
            addrs,
            kinds,
            next_use,
        }
    }

    /// Number of set buckets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Total accesses across all sets.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Whether a next-use annotation was gathered at build time.
    pub fn annotated(&self) -> bool {
        self.next_use.len() == self.addrs.len()
    }

    /// Number of accesses bucketed into `set`.
    pub fn set_len(&self, set: usize) -> usize {
        self.starts[set + 1] - self.starts[set]
    }
}

/// Replays the sets in `sets` through independent single-set caches of
/// `params`' associativity, one fresh policy per set, and returns the
/// summed statistics.
///
/// For a [set-local](ReplacementPolicy::set_local) policy the result is
/// bit-identical to the whole-cache simulation restricted to those
/// sets: each set sees exactly its own access subsequence in trace
/// order, way assignment inside a set is position-based in both
/// layouts, and every statistic is a per-access/per-eviction counter
/// (order-independent under summation). When `oracle` is `true` the
/// gathered next-use column feeds the access metadata (the shard must
/// have been [built](ShardedTrace::build) with an annotation).
///
/// # Panics
///
/// Panics if `oracle` is requested on an unannotated shard, or if
/// `params` disagrees with the shard's set count.
pub fn simulate_policy_shard_range<P: ReplacementPolicy>(
    shard: &ShardedTrace,
    params: CacheParams,
    sets: Range<usize>,
    oracle: bool,
    mut make_policy: impl FnMut() -> P,
) -> AccessStats {
    assert_eq!(
        params.num_sets() as usize,
        shard.num_sets,
        "geometry and shard disagree on set count"
    );
    assert!(
        !oracle || shard.annotated(),
        "oracle replay needs an annotated shard"
    );
    // One set of this geometry, as its own (single-set) cache. Fully
    // associative params are already a single set; set-associative ones
    // shrink to `ways` lines in one set.
    let set_params = if params.is_fully_associative() {
        params
    } else {
        CacheParams::new(
            params.effective_ways() * params.line_bytes,
            params.line_bytes,
            params.ways,
            params.latency,
        )
    };
    let mut total = AccessStats::new();
    for s in sets {
        let run = shard.starts[s]..shard.starts[s + 1];
        if run.is_empty() {
            continue;
        }
        // `set_of` short-circuits to 0 for a single set, so the inner
        // cache never hashes; the indexing choice is immaterial here.
        let mut cache = Cache::new(set_params, Indexing::Modulo, make_policy());
        for i in run {
            let meta = if oracle {
                AccessMeta::next_use(shard.next_use[i])
            } else {
                AccessMeta::NONE
            };
            cache.access(shard.addrs[i], shard.kinds[i], meta);
        }
        total += *cache.stats();
    }
    total
}

/// [`simulate_policy_shard_range`] over every set: the full sharded
/// equivalent of one whole-cache simulation.
pub fn simulate_policy_sharded<P: ReplacementPolicy>(
    shard: &ShardedTrace,
    params: CacheParams,
    oracle: bool,
    make_policy: impl FnMut() -> P,
) -> AccessStats {
    simulate_policy_shard_range(shard, params, 0..shard.num_sets, oracle, make_policy)
}

/// How many [`ShardedTrace`] layouts a [`ShardCache`] retains.
///
/// Four slots give full reuse to a sweep of up to four set counts
/// (fig13x's four capacities), while a wider sweep (fig13's sixteen)
/// cycles through without accumulating the whole family in memory —
/// each layout holds about 17 bytes per trace access.
pub const SHARD_CACHE_SLOTS: usize = 4;

/// A small per-trace memo of sharded layouts, keyed by
/// `(set count, indexing)` with least-recently-used eviction at
/// [`SHARD_CACHE_SLOTS`] entries.
///
/// One instance rides along with each benchmark trace so every policy
/// sweeping the same geometry bank shares one bucketing pass.
#[derive(Debug, Default)]
pub struct ShardCache {
    // Small and short: linear scan beats a map at <= 4 entries.
    entries: Mutex<ShardEntries>,
}

/// LRU queue of memoized layouts: front is oldest, back most recent.
type ShardEntries = VecDeque<((u64, Indexing), Arc<ShardedTrace>)>;

impl ShardCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized layout for `(num_sets, indexing)`, building (and
    /// possibly evicting the least-recently-used entry) on a miss.
    pub fn get_or_build(
        &self,
        trace: &[Access],
        next: Option<&[u64]>,
        num_sets: u64,
        indexing: Indexing,
    ) -> Arc<ShardedTrace> {
        let key = (num_sets, indexing);
        {
            let mut entries = self.lock();
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                // Move to the back (most recently used) and reuse.
                let hit = entries.remove(pos).expect("position just found");
                let shard = Arc::clone(&hit.1);
                entries.push_back(hit);
                return shard;
            }
        }
        // Build outside the lock: bucketing is the expensive part, and
        // a racing duplicate build is benign (last one in wins a slot).
        let built = Arc::new(ShardedTrace::build(trace, next, num_sets, indexing));
        let mut entries = self.lock();
        if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
            let (_, existing) = &entries[pos];
            return Arc::clone(existing);
        }
        while entries.len() >= SHARD_CACHE_SLOTS {
            entries.pop_front();
        }
        entries.push_back((key, Arc::clone(&built)));
        built
    }

    /// Entries currently resident (for tests and budgeting).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardEntries> {
        // Entries are pushed/removed in single steps; a poisoned lock
        // cannot hold a half-updated queue.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::by_name;
    use crate::profile::simulate_policy;
    use crate::trace::annotate_next_use;
    use tcor_common::SmallRng;

    /// The policies whose victim decisions are provably per-set (see
    /// `ReplacementPolicy::set_local`); sharding must be bit-identical
    /// for exactly these.
    const SET_LOCAL: [&str; 7] = ["lru", "mru", "fifo", "nru", "plru", "srrip", "opt"];

    fn params(lines: u64, ways: u32) -> CacheParams {
        CacheParams::new(lines * 64, 64, ways, 1)
    }

    /// Seeded random traces with a ~1/4 write mix so hit/miss *and*
    /// writeback counters are exercised.
    fn random_traces(seed: u64, cases: usize, blocks: u64, max_len: usize) -> Vec<Vec<Access>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..cases)
            .map(|_| {
                let len = rng.random_range(1..max_len + 1);
                (0..len)
                    .map(|_| {
                        let addr = BlockAddr(rng.random_range(0..blocks));
                        if rng.random_range(0..4u32) == 0 {
                            Access::write(addr)
                        } else {
                            Access::read(addr)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn build_preserves_per_set_order_and_length() {
        for trace in random_traces(0x5A5A, 8, 32, 120) {
            for num_sets in [1u64, 2, 3, 8] {
                for indexing in [Indexing::Modulo, Indexing::Xor] {
                    let shard = ShardedTrace::build(&trace, None, num_sets, indexing);
                    assert_eq!(shard.len(), trace.len());
                    assert!(!shard.annotated());
                    let mut seen = 0usize;
                    for s in 0..shard.num_sets() {
                        let run = shard.starts[s]..shard.starts[s + 1];
                        let expect: Vec<&Access> = trace
                            .iter()
                            .filter(|a| indexing.set_of(a.addr.0, num_sets) == s as u64)
                            .collect();
                        assert_eq!(run.len(), expect.len());
                        assert_eq!(shard.set_len(s), expect.len());
                        for (i, a) in run.zip(&expect) {
                            assert_eq!(shard.addrs[i], a.addr, "order inside a set");
                            assert_eq!(shard.kinds[i], a.kind);
                        }
                        seen += expect.len();
                    }
                    assert_eq!(seen, trace.len());
                }
            }
        }
    }

    #[test]
    fn build_gathers_annotation_in_bucket_order() {
        let trace: Vec<Access> = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3]
            .iter()
            .map(|&b| Access::read(BlockAddr(b)))
            .collect();
        let next = annotate_next_use(&trace);
        let shard = ShardedTrace::build(&trace, Some(&next), 4, Indexing::Modulo);
        assert!(shard.annotated());
        // Reconstruct (addr, next_use) pairs per set and compare with a
        // filter of the original zip.
        for s in 0..4usize {
            let got: Vec<(BlockAddr, u64)> = (shard.starts[s]..shard.starts[s + 1])
                .map(|i| (shard.addrs[i], shard.next_use[i]))
                .collect();
            let expect: Vec<(BlockAddr, u64)> = trace
                .iter()
                .zip(&next)
                .filter(|(a, _)| Indexing::Modulo.set_of(a.addr.0, 4) == s as u64)
                .map(|(a, &n)| (a.addr, n))
                .collect();
            assert_eq!(got, expect, "set {s}");
        }
    }

    /// Tentpole property: per-set sharded replay is pointwise identical
    /// (full `AccessStats`, not just misses) to the unsharded
    /// whole-cache simulation for every set-local policy, across 100+
    /// seeded write-mixed traces, geometries and both index functions.
    #[test]
    fn prop_sharded_equals_unsharded() {
        let geoms: [(u64, u32); 5] = [(8, 1), (8, 2), (16, 4), (24, 4), (12, 2)];
        let mut checked = 0usize;
        for trace in random_traces(0x51AD, 112, 24, 160) {
            let next = annotate_next_use(&trace);
            for &(lines, ways) in &geoms {
                let p = params(lines, ways);
                for indexing in [Indexing::Modulo, Indexing::Xor] {
                    let shard = ShardedTrace::build(&trace, Some(&next), p.num_sets(), indexing);
                    for policy in SET_LOCAL {
                        let oracle = policy == "opt";
                        let sharded =
                            simulate_policy_sharded(&shard, p, oracle, || by_name(policy));
                        let whole = if oracle {
                            crate::profile::simulate_policy_annotated(
                                &trace,
                                &next,
                                p,
                                indexing,
                                by_name(policy),
                            )
                        } else {
                            simulate_policy(&trace, p, indexing, by_name(policy), false)
                        };
                        assert_eq!(
                            sharded, whole,
                            "policy={policy} lines={lines} ways={ways} indexing={indexing:?}"
                        );
                    }
                }
            }
            checked += 1;
        }
        assert!(checked >= 100, "property needs >= 100 randomized traces");
    }

    /// Boundary: a single-set geometry (fully associative, or capacity
    /// at/below the associativity) makes the shard one bucket holding
    /// the whole trace — and must still match exactly.
    #[test]
    fn single_set_boundary_matches() {
        for trace in random_traces(0x0001, 16, 10, 80) {
            let next = annotate_next_use(&trace);
            for p in [params(6, 0), params(3, 3), CacheParams::new(2, 1, 2, 1)] {
                assert_eq!(p.num_sets(), 1, "boundary case must be one set");
                for indexing in [Indexing::Modulo, Indexing::Xor] {
                    let shard = ShardedTrace::build(&trace, Some(&next), 1, indexing);
                    assert_eq!(shard.set_len(0), trace.len());
                    for policy in SET_LOCAL {
                        let oracle = policy == "opt";
                        let sharded =
                            simulate_policy_sharded(&shard, p, oracle, || by_name(policy));
                        let whole = if oracle {
                            crate::profile::simulate_policy_annotated(
                                &trace,
                                &next,
                                p,
                                indexing,
                                by_name(policy),
                            )
                        } else {
                            simulate_policy(&trace, p, indexing, by_name(policy), false)
                        };
                        assert_eq!(sharded, whole, "policy={policy}");
                    }
                }
            }
        }
    }

    /// Splitting the set range and summing the partials equals the full
    /// sharded run — the exact contract the parallel dispatch relies on.
    #[test]
    fn range_partials_sum_to_whole() {
        for trace in random_traces(0xD15C, 24, 32, 160) {
            let p = params(16, 2); // 8 sets
            let shard = ShardedTrace::build(&trace, None, p.num_sets(), Indexing::Modulo);
            let whole = simulate_policy_sharded(&shard, p, false, || by_name("lru"));
            for split in [1usize, 3, 5, 7] {
                let lo = simulate_policy_shard_range(&shard, p, 0..split, false, || by_name("lru"));
                let hi = simulate_policy_shard_range(&shard, p, split..8, false, || by_name("lru"));
                assert_eq!(lo + hi, whole, "split at {split}");
            }
        }
    }

    #[test]
    fn shard_cache_memoizes_and_evicts_lru() {
        let trace: Vec<Access> = (0..64u64)
            .map(|b| Access::read(BlockAddr(b % 16)))
            .collect();
        let cache = ShardCache::new();
        let a1 = cache.get_or_build(&trace, None, 4, Indexing::Modulo);
        let a2 = cache.get_or_build(&trace, None, 4, Indexing::Modulo);
        assert!(Arc::ptr_eq(&a1, &a2), "same key must be memoized");
        assert_eq!(cache.len(), 1);
        // Same set count, different indexing: a distinct layout.
        let b = cache.get_or_build(&trace, None, 4, Indexing::Xor);
        assert!(!Arc::ptr_eq(&a1, &b));
        // Fill the remaining slots, touch the first key, then overflow:
        // the least-recently-used key (8/Modulo) must fall out.
        cache.get_or_build(&trace, None, 8, Indexing::Modulo);
        cache.get_or_build(&trace, None, 2, Indexing::Modulo);
        assert_eq!(cache.len(), SHARD_CACHE_SLOTS);
        let a3 = cache.get_or_build(&trace, None, 4, Indexing::Modulo);
        assert!(Arc::ptr_eq(&a1, &a3), "touch refreshes recency");
        cache.get_or_build(&trace, None, 16, Indexing::Modulo);
        assert_eq!(cache.len(), SHARD_CACHE_SLOTS);
        let c = cache.get_or_build(&trace, None, 8, Indexing::Modulo);
        assert_eq!(c.num_sets(), 8, "evicted entry rebuilds correctly");
    }
}
