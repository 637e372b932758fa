//! Single-pass miss-curve profilers for the replacement-policy studies.
//!
//! * [`LruStackProfiler`] — Mattson's stack algorithm: one pass over the
//!   trace yields the LRU miss count for *every* capacity simultaneously.
//! * [`OptStackProfiler`] — the same single-pass trick for Belady-OPT
//!   (also a stack algorithm under its fixed priority order).
//! * [`StreamingProfiler`] — incremental driver over both stack
//!   profilers for traces that arrive as a stream: forward next-use
//!   resolution, exact snapshots at any prefix, bounded memory via
//!   run-compaction.
//! * [`opt_misses`] / [`opt_misses_annotated`] — exact fully-associative
//!   Belady-OPT replay, one capacity per pass (the retained reference
//!   implementation the profiler is tested against).
//! * [`simulate_policy`] / [`simulate_policy_annotated`] — direct
//!   simulation of any policy on any geometry.
//! * [`keyed_misses`] — LRU, MRU or Belady-OPT misses of one geometry
//!   on the least-key kernel ([`LruFilter`]), equal to
//!   [`simulate_policy`]'s with the matching policy.
//! * [`simulate_policy_bank`] — one trace pass through a bank of cache
//!   instances (all capacities of one policy per pass), bit-identical to
//!   one [`simulate_policy`] run per geometry. The miss-curve figures
//!   replay per geometry instead, which measured as fast or faster.

mod opt;
mod optstack;
mod stack;
mod streaming;

pub use opt::{opt_misses, opt_misses_annotated};
pub use optstack::OptStackProfiler;
pub use stack::LruStackProfiler;
pub use streaming::StreamingProfiler;

use crate::cache::Cache;
use crate::filter::LruFilter;
use crate::index::Indexing;
use crate::meta::AccessMeta;
use crate::policy::ReplacementPolicy;
use crate::trace::{annotate_next_use, Access};
use tcor_common::{AccessStats, CacheParams};

/// Simulates `trace` through a fresh cache of the given geometry under
/// `policy`, returning the statistics.
///
/// When `oracle` is `true`, every access carries its exact next-use
/// position (required for OPT; harmless for history-based policies). The
/// annotation is computed here; callers that already hold one should use
/// [`simulate_policy_annotated`].
pub fn simulate_policy<P: ReplacementPolicy>(
    trace: &[Access],
    params: CacheParams,
    indexing: Indexing,
    policy: P,
    oracle: bool,
) -> AccessStats {
    if oracle {
        simulate_policy_annotated(trace, &annotate_next_use(trace), params, indexing, policy)
    } else {
        let mut cache = Cache::new(params, indexing, policy);
        for a in trace {
            cache.access(a.addr, a.kind, AccessMeta::NONE);
        }
        *cache.stats()
    }
}

/// [`simulate_policy`] in oracle mode with a precomputed
/// [`annotate_next_use`] annotation — the per-capacity loops of the miss
/// curve experiments annotate each benchmark once and share it.
pub fn simulate_policy_annotated<P: ReplacementPolicy>(
    trace: &[Access],
    next: &[u64],
    params: CacheParams,
    indexing: Indexing,
    policy: P,
) -> AccessStats {
    debug_assert_eq!(trace.len(), next.len(), "annotation must match trace");
    let mut cache = Cache::new(params, indexing, policy);
    for (a, nu) in trace.iter().zip(next) {
        cache.access(a.addr, a.kind, AccessMeta::next_use(*nu));
    }
    *cache.stats()
}

/// How [`keyed_misses`] keys each access for the least-key kernel,
/// which replaces the way with the least key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyRule {
    /// The clock: the least recently used line has the least key.
    Lru,
    /// `1<<63 | ((1<<63) - 1 - clock)`: the most recently used line has
    /// the least key.
    Mru,
    /// Belady OPT, `1<<63 | ((1<<63) - 1 - next_use)`, with "never used
    /// again" (`u64::MAX`) at `1<<63`: the line used farthest in the
    /// future has the least live key, and ties go to the lowest way, as
    /// in [`Opt`](crate::policy::Opt).
    Opt,
}

/// The least live key of [`KeyRule::Mru`] and [`KeyRule::Opt`]; every
/// key of theirs is at least this, so none is 0 (an empty way).
const LIVE: u64 = 1 << 63;

impl KeyRule {
    /// The key of the access at `clock`, its 1-based position in the
    /// trace, whose next use (an [`annotate_next_use`] entry) is
    /// `next_use`. LRU and MRU ignore `next_use`, OPT ignores `clock`.
    #[inline]
    pub fn key(self, clock: u64, next_use: u64) -> u64 {
        match self {
            KeyRule::Lru => clock,
            KeyRule::Mru => LIVE | (LIVE - 1 - clock),
            // Trace positions stay below `LIVE - 1`, so only `u64::MAX`
            // saturates.
            KeyRule::Opt => LIVE | (LIVE - 1).saturating_sub(next_use),
        }
    }
}

/// Misses of `trace` through a fresh least-key kernel ([`LruFilter`])
/// of the given geometry, each access keyed by `rule`; `next` is the
/// trace's [`annotate_next_use`] annotation, read only by
/// [`KeyRule::Opt`].
///
/// Reads and writes count alike: under write-allocate a write misses
/// exactly when a read would, so this equals [`simulate_policy`]'s miss
/// count with `Lru`, `Mru` or (annotated) `Opt`.
pub fn keyed_misses(
    trace: &[Access],
    next: &[u64],
    params: CacheParams,
    indexing: Indexing,
    rule: KeyRule,
) -> u64 {
    let mut kernel = LruFilter::new(params, indexing);
    let blocks = trace.iter().map(|a| a.addr.0);
    let clocks = 1u64..;
    // One loop per rule, each with its key arithmetic inlined.
    match rule {
        KeyRule::Lru => kernel.misses(blocks.zip(clocks)),
        KeyRule::Mru => kernel.misses(blocks.zip(clocks.map(|c| KeyRule::Mru.key(c, 0)))),
        KeyRule::Opt => {
            debug_assert_eq!(trace.len(), next.len(), "annotation must match trace");
            kernel.misses(blocks.zip(next.iter().map(|&nu| KeyRule::Opt.key(0, nu))))
        }
    }
}

/// Streams one trace through a bank of independent caches — one per
/// geometry, each with a fresh policy from `make_policy` — in a single
/// pass, returning stats in geometry order.
///
/// Each instance sees exactly the access/metadata sequence
/// [`simulate_policy`] would feed it (`next = None` ≙ `oracle = false`),
/// so results are bit-identical; only the trace iteration and the
/// annotation are shared. This turns the per-(policy, capacity) replays
/// of `policy_curve` into one pass per policy.
pub fn simulate_policy_bank<P: ReplacementPolicy>(
    trace: &[Access],
    next: Option<&[u64]>,
    geometries: &[CacheParams],
    indexing: Indexing,
    mut make_policy: impl FnMut() -> P,
) -> Vec<AccessStats> {
    if let Some(next) = next {
        debug_assert_eq!(trace.len(), next.len(), "annotation must match trace");
    }
    let mut caches: Vec<_> = geometries
        .iter()
        .map(|&p| Cache::new(p, indexing, make_policy()))
        .collect();
    for (i, a) in trace.iter().enumerate() {
        let meta = match next {
            Some(next) => AccessMeta::next_use(next[i]),
            None => AccessMeta::NONE,
        };
        for cache in &mut caches {
            cache.access(a.addr, a.kind, meta);
        }
    }
    caches.iter().map(|c| *c.stats()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Lru, Opt};
    use tcor_common::{BlockAddr, SmallRng};

    fn params(lines: u64, ways: u32) -> CacheParams {
        CacheParams::new(lines * 64, 64, ways, 1)
    }

    /// Seeded random traces standing in for the retired proptest
    /// strategies: `cases` traces of up to `max_len` reads over a
    /// `blocks`-block footprint.
    fn random_traces(seed: u64, cases: usize, blocks: u64, max_len: usize) -> Vec<Vec<Access>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..cases)
            .map(|_| {
                let len = rng.random_range(1..max_len + 1);
                (0..len)
                    .map(|_| Access::read(BlockAddr(rng.random_range(0..blocks))))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn stack_profiler_matches_direct_lru_simulation() {
        let trace: Vec<Access> = [
            3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4,
        ]
        .iter()
        .map(|&b| Access::read(BlockAddr(b)))
        .collect();
        let mut prof = LruStackProfiler::new();
        for a in &trace {
            prof.record(a.addr);
        }
        for lines in 1..10u64 {
            let direct = simulate_policy(
                &trace,
                params(lines, 0),
                Indexing::Modulo,
                Lru::new(),
                false,
            );
            assert_eq!(
                prof.misses_at(lines as usize),
                direct.misses(),
                "capacity {lines}"
            );
        }
    }

    /// Mattson stack algorithm ≡ direct LRU simulation at every size.
    #[test]
    fn prop_stack_equals_direct() {
        for trace in random_traces(0xA11CE, 64, 24, 200) {
            let mut prof = LruStackProfiler::new();
            for a in &trace {
                prof.record(a.addr);
            }
            for lines in [1usize, 2, 3, 5, 8, 16, 32] {
                let direct = simulate_policy(
                    &trace,
                    params(lines as u64, 0),
                    Indexing::Modulo,
                    Lru::new(),
                    false,
                );
                assert_eq!(prof.misses_at(lines), direct.misses());
            }
        }
    }

    /// The dedicated Belady profiler ≡ the generic engine running the
    /// OPT policy with exact annotations, fully associative.
    #[test]
    fn prop_opt_profiler_equals_engine() {
        for trace in random_traces(0xB0B, 64, 16, 150) {
            for lines in [1usize, 2, 4, 8] {
                let fast = opt_misses(&trace, lines);
                let engine = simulate_policy(
                    &trace,
                    params(lines as u64, 0),
                    Indexing::Modulo,
                    Opt::new(),
                    true,
                );
                assert_eq!(fast, engine.misses());
            }
        }
    }

    /// Belady's optimality: OPT ≤ every other policy, fully associative.
    #[test]
    fn prop_opt_is_optimal() {
        for trace in random_traces(0xCAFE, 48, 12, 150) {
            for lines in [2usize, 4, 8] {
                let opt = opt_misses(&trace, lines);
                for name in [
                    "lru", "mru", "fifo", "random", "plru", "nru", "srrip", "drrip",
                ] {
                    let other = simulate_policy(
                        &trace,
                        params(lines as u64, 0),
                        Indexing::Modulo,
                        crate::policy::by_name(name),
                        false,
                    );
                    assert!(
                        opt <= other.misses(),
                        "OPT {} > {} {} at {} lines",
                        opt,
                        name,
                        other.misses(),
                        lines
                    );
                }
            }
        }
    }

    /// Miss counts are monotonically non-increasing in capacity for
    /// stack algorithms (LRU and OPT both are).
    #[test]
    fn prop_miss_curves_monotone() {
        for trace in random_traces(0xD00D, 64, 20, 150) {
            let mut prof = LruStackProfiler::new();
            for a in &trace {
                prof.record(a.addr);
            }
            let caps = [1usize, 2, 4, 8, 16, 32];
            let lru: Vec<u64> = caps.iter().map(|&c| prof.misses_at(c)).collect();
            let opt: Vec<u64> = caps.iter().map(|&c| opt_misses(&trace, c)).collect();
            for w in lru.windows(2) {
                assert!(w[0] >= w[1]);
            }
            for w in opt.windows(2) {
                assert!(w[0] >= w[1]);
            }
        }
    }

    /// Tentpole equivalence: the single-pass OPT stack profiler matches
    /// the retained per-capacity replay pointwise at *every* capacity,
    /// across ≥ 100 randomized traces (including write-mixed ones — OPT
    /// profiling is kind-blind under write-allocate).
    #[test]
    fn prop_opt_stack_profiler_equals_replay_everywhere() {
        let mut rng = SmallRng::seed_from_u64(0x0971);
        let mut checked = 0usize;
        for mut trace in random_traces(0x57ACC, 128, 24, 250) {
            // Flip ~1/4 of accesses to writes.
            for a in trace.iter_mut() {
                if rng.random_range(0..4u32) == 0 {
                    *a = Access::write(a.addr);
                }
            }
            let next = annotate_next_use(&trace);
            let prof = OptStackProfiler::profile(&trace, &next);
            let distinct = crate::trace::distinct_blocks(&trace);
            for c in 0..=(distinct + 2) {
                assert_eq!(
                    prof.misses_at(c),
                    opt::opt_misses_annotated(&trace, &next, c),
                    "capacity {c}"
                );
            }
            assert_eq!(prof.total_accesses(), trace.len() as u64);
            assert_eq!(prof.distinct_blocks(), distinct);
            checked += 1;
        }
        assert!(checked >= 100, "property needs >= 100 randomized traces");
    }

    /// Tentpole equivalence: the batched multi-geometry driver produces
    /// bit-identical stats to per-config [`simulate_policy`] for both
    /// oracle (OPT) and history (LRU/DRRIP) policies, across ≥ 100
    /// randomized traces.
    #[test]
    fn prop_bank_equals_per_config() {
        let geoms: Vec<CacheParams> = [(1u64, 1u32), (4, 2), (8, 4), (8, 0), (16, 4), (32, 0)]
            .iter()
            .map(|&(lines, ways)| params(lines, ways))
            .collect();
        let mut checked = 0usize;
        for trace in random_traces(0xBA2B, 112, 20, 200) {
            let next = annotate_next_use(&trace);
            let banked_opt =
                simulate_policy_bank(&trace, Some(&next), &geoms, Indexing::Modulo, Opt::new);
            let banked_lru = simulate_policy_bank(&trace, None, &geoms, Indexing::Modulo, Lru::new);
            let banked_drrip = simulate_policy_bank(&trace, None, &geoms, Indexing::Modulo, || {
                crate::policy::by_name("drrip")
            });
            for (g, &p) in geoms.iter().enumerate() {
                let solo_opt = simulate_policy(&trace, p, Indexing::Modulo, Opt::new(), true);
                let solo_lru = simulate_policy(&trace, p, Indexing::Modulo, Lru::new(), false);
                let solo_drrip = simulate_policy(
                    &trace,
                    p,
                    Indexing::Modulo,
                    crate::policy::by_name("drrip"),
                    false,
                );
                assert_eq!(banked_opt[g], solo_opt, "opt geometry {g}");
                assert_eq!(banked_lru[g], solo_lru, "lru geometry {g}");
                assert_eq!(banked_drrip[g], solo_drrip, "drrip geometry {g}");
            }
            checked += 1;
        }
        assert!(checked >= 100, "property needs >= 100 randomized traces");
    }

    /// Belady optimality through the new single-pass path: OPT ≤ LRU at
    /// every capacity, both sides read off their stack profilers.
    #[test]
    fn prop_profiler_opt_below_profiler_lru() {
        for trace in random_traces(0x0BE1ADE, 64, 18, 200) {
            let next = annotate_next_use(&trace);
            let opt = OptStackProfiler::profile(&trace, &next);
            let mut lru = LruStackProfiler::new();
            for a in &trace {
                lru.record(a.addr);
            }
            for c in 1..=20usize {
                assert!(
                    opt.misses_at(c) <= lru.misses_at(c),
                    "OPT {} > LRU {} at capacity {c}",
                    opt.misses_at(c),
                    lru.misses_at(c)
                );
            }
            let caps: Vec<usize> = (1..=20).collect();
            let curve: Vec<u64> = caps.iter().map(|&c| opt.misses_at(c)).collect();
            for w in curve.windows(2) {
                assert!(w[0] >= w[1], "OPT profiler curve must be non-increasing");
            }
        }
    }
}
