//! Differential testing: the set-associative engine against a naive,
//! obviously-correct reference model (a vector of (addr, dirty, ts)
//! tuples per set) under LRU, across random traces and geometries:
//! power-of-two and other set counts, Modulo and Xor indexing, and
//! addresses at both ends of the `u64` range. Every access's hit,
//! evicted address and dirty bit must agree, and so must each case's
//! hit, miss and write-back totals and the lines a final drain returns.
//! The engine is in turn the oracle of the least-key kernel,
//! [`LruFilter`]: of its LRU reads, and of its LRU, MRU and Belady-OPT
//! keyed replays against `Cache<Lru>`, `Cache<Mru>` and `Cache<Opt>`.

use tcor_cache::policy::{Lru, Mru, Opt};
use tcor_cache::profile::{keyed_misses, KeyRule};
use tcor_cache::{
    annotate_next_use, Access, AccessKind, AccessMeta, Cache, Indexing, LruFilter,
    ReplacementPolicy,
};
use tcor_common::{BlockAddr, CacheParams, SmallRng};

/// The reference: per-set Vec of (tag, dirty, last_touch), the set
/// picked by the definition, [`Indexing::set_of`]. A dirty line that
/// leaves by eviction or invalidation counts as a write-back.
struct RefCache {
    sets: Vec<Vec<(u64, bool, u64)>>,
    indexing: Indexing,
    ways: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(num_sets: usize, ways: usize, indexing: Indexing) -> Self {
        RefCache {
            sets: vec![Vec::new(); num_sets],
            indexing,
            ways,
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set(&mut self, addr: u64) -> &mut Vec<(u64, bool, u64)> {
        let set = self.indexing.set_of(addr, self.sets.len() as u64);
        &mut self.sets[set as usize]
    }

    /// Whether the access hit, and the (block, dirty) pair it evicted.
    fn access(&mut self, addr: u64, write: bool) -> (bool, Option<(u64, bool)>) {
        self.clock += 1;
        let (clock, ways) = (self.clock, self.ways);
        let lines = self.set(addr);
        if let Some(entry) = lines.iter_mut().find(|e| e.0 == addr) {
            entry.1 |= write;
            entry.2 = clock;
            self.hits += 1;
            return (true, None);
        }
        let mut evicted = None;
        if lines.len() == ways {
            let (idx, _) = lines
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.2)
                .expect("full set");
            let (tag, dirty, _) = lines.remove(idx);
            evicted = Some((tag, dirty));
        }
        lines.push((addr, write, clock));
        self.misses += 1;
        self.writebacks += u64::from(evicted.is_some_and(|(_, dirty)| dirty));
        (false, evicted)
    }

    /// Removes `addr`, returning its dirty bit if it was resident.
    fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let lines = self.set(addr);
        let idx = lines.iter().position(|e| e.0 == addr)?;
        let dirty = lines.remove(idx).1;
        self.writebacks += u64::from(dirty);
        Some(dirty)
    }
}

/// The set counts the differential test covers, each under both index
/// functions: powers of two (a mask, or the XOR fold) and other counts
/// (the `%` and SplitMix64 paths), up to the Attribute Cache's 192.
const GEOMETRIES: [u64; 12] = [1, 2, 4, 8, 16, 64, 3, 5, 6, 12, 48, 192];

/// `n` distinct addresses: both ends of the `u64` range, small block
/// numbers, and seeded 64-bit ones, which fill the high chunks an Xor
/// fold reads.
fn address_pool(rng: &mut SmallRng, n: usize) -> Vec<u64> {
    let mut pool = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
    while pool.len() < n {
        let addr = if rng.random_bool(0.5) {
            rng.random_range(0..4 * n as u64)
        } else {
            rng.next_u64()
        };
        if !pool.contains(&addr) {
            pool.push(addr);
        }
    }
    pool
}

#[test]
fn engine_matches_reference_lru() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0001);
    let mut evictions = 0u64;
    for num_sets in GEOMETRIES {
        for indexing in [Indexing::Modulo, Indexing::Xor] {
            for _case in 0..6 {
                let ways = rng.random_range(1..6u32);
                let lines = num_sets * ways as u64;
                // Twice the lines in distinct blocks, so full sets evict.
                let pool = address_pool(&mut rng, (2 * lines as usize).max(8));
                let params = CacheParams::new(lines * 64, 64, ways, 1);
                let mut engine = Cache::new(params, indexing, Lru::new());
                let mut reference = RefCache::new(num_sets as usize, ways as usize, indexing);
                for step in 0..rng.random_range(100..20 * lines as usize + 400) {
                    let addr = pool[rng.random_range(0..pool.len())];
                    let what =
                        || format!("{indexing:?}, {num_sets} x {ways}, step {step}, {addr:#x}");
                    if rng.random_range(0..16u32) == 0 {
                        // An invalidated line leaves its tag behind; it
                        // must never hit again.
                        let got = engine.invalidate(BlockAddr(addr)).map(|e| e.dirty);
                        assert_eq!(got, reference.invalidate(addr), "invalidate: {}", what());
                        continue;
                    }
                    let write = rng.random_bool(0.5);
                    let kind = if write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let out = engine.access(BlockAddr(addr), kind, AccessMeta::NONE);
                    let got = (out.hit, out.evicted.map(|e| (e.addr.0, e.dirty)));
                    assert_eq!(got, reference.access(addr, write), "access: {}", what());
                    evictions += u64::from(got.1.is_some());
                }
                let what = format!("{indexing:?}, {num_sets} x {ways}");
                let stats = engine.stats();
                assert_eq!(stats.hits(), reference.hits, "hits: {what}");
                assert_eq!(stats.misses(), reference.misses, "misses: {what}");
                assert_eq!(stats.writebacks, reference.writebacks, "writebacks: {what}");
                // Final contents agree.
                for set in &reference.sets {
                    for &(tag, _, _) in set {
                        assert!(engine.contains(BlockAddr(tag)), "missing {tag:#x}");
                    }
                }
                assert_eq!(
                    engine.occupancy(),
                    reference.sets.iter().map(Vec::len).sum::<usize>()
                );
                // A drain returns every line once with its dirty bit and
                // counts the dirty ones as write-backs.
                let mut drained: Vec<(u64, bool)> = Vec::new();
                engine.drain(|e| drained.push((e.addr.0, e.dirty)));
                let mut resident: Vec<(u64, bool)> = reference
                    .sets
                    .iter()
                    .flatten()
                    .map(|&(tag, dirty, _)| (tag, dirty))
                    .collect();
                drained.sort_unstable();
                resident.sort_unstable();
                assert_eq!(drained, resident, "drain: {what}");
                let dirty = resident.iter().filter(|&&(_, dirty)| dirty).count() as u64;
                assert_eq!(
                    engine.stats().writebacks,
                    reference.writebacks + dirty,
                    "drain writebacks: {what}"
                );
                assert_eq!(engine.occupancy(), 0);
            }
        }
    }
    assert!(evictions > 10_000, "only {evictions} evictions");
}

/// `fill_clean` (warm start) must leave statistics untouched and make
/// blocks resident.
#[test]
fn fill_clean_is_invisible_to_stats() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0002);
    for _case in 0..64 {
        let warm: Vec<u64> = (0..rng.random_range(1..40usize))
            .map(|_| rng.random_range(0..64u64))
            .collect();
        let params = CacheParams::new(32 * 64, 64, 4, 1);
        let mut cache = Cache::new(params, Indexing::Modulo, Lru::new());
        for &b in &warm {
            cache.fill_clean(BlockAddr(b), AccessMeta::NONE);
        }
        assert_eq!(cache.stats().accesses(), 0);
        assert_eq!(cache.stats().writebacks, 0);
        // The most recently warmed block is always resident.
        assert!(cache.contains(BlockAddr(*warm.last().unwrap())));
        // Warm lines are clean: draining produces no dirty blocks.
        cache.drain(|e| assert!(!e.dirty));
    }
}

/// The read-only kernel against the engine it replaces in the frame
/// plan: seeded read streams with reuse (a sliding hot window plus
/// jumps, like the texel sampler's) through 1-, 2-, 4-, 8- and 16-way
/// geometries, a fully associative one and non-power-of-two set
/// counts, under both index functions. Every read's outcome, the
/// statistics and the final resident lines must agree.
#[test]
fn lru_filter_matches_the_engine() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0003);
    let mut misses = 0u64;
    // (sets, ways); 0 ways is fully associative.
    let geometries = [
        (64, 1),
        (32, 2),
        (16, 4),
        (48, 4),
        (12, 8),
        (4, 16),
        (3, 5),
        (1, 0),
    ];
    for (num_sets, ways) in geometries {
        for indexing in [Indexing::Modulo, Indexing::Xor] {
            let lines = num_sets * u64::from(ways.max(1)) * if ways == 0 { 96 } else { 1 };
            let params = CacheParams::new(lines * 64, 64, ways, 1);
            let mut engine = Cache::new(params, indexing, Lru::new());
            let mut kernel = LruFilter::new(params, indexing);
            // Three times the lines in distinct blocks, so sets evict.
            let pool = address_pool(&mut rng, 3 * lines as usize);
            let mut window = 0usize;
            for step in 0..40 * lines as usize {
                let addr = if rng.random_bool(0.8) {
                    pool[(window + rng.random_range(0..lines as usize / 2 + 1)) % pool.len()]
                } else {
                    pool[rng.random_range(0..pool.len())]
                };
                if step % 64 == 63 {
                    window += 1;
                }
                let hit = kernel.read(BlockAddr(addr));
                let out = engine.access(BlockAddr(addr), AccessKind::Read, AccessMeta::NONE);
                assert_eq!(
                    hit, out.hit,
                    "{indexing:?}, {num_sets} x {ways}, step {step}, {addr:#x}"
                );
            }
            let what = format!("{indexing:?}, {num_sets} x {ways}");
            assert_eq!(kernel.stats(), engine.stats(), "stats: {what}");
            for &addr in &pool {
                let block = BlockAddr(addr);
                assert_eq!(
                    kernel.contains(block),
                    engine.contains(block),
                    "{what}: {addr:#x}"
                );
            }
            assert_eq!(kernel.occupancy(), engine.occupancy(), "{what}");
            misses += engine.stats().read_misses;
        }
    }
    assert!(misses > 10_000, "only {misses} misses");
}

/// A seeded trace of reads and writes: a sliding hot window over `pool`
/// with random jumps, and one access in eight to a block used only
/// once, so "never used again" lines tie under OPT all through the run.
fn mixed_trace(rng: &mut SmallRng, pool: &[u64], len: usize, window_len: usize) -> Vec<Access> {
    let mut window = 0usize;
    let mut once = 0u64;
    (0..len)
        .map(|step| {
            if step % 48 == 47 {
                window += 1;
            }
            let addr = match rng.random_range(0..8u32) {
                0 => {
                    once += 1;
                    (0xFEED << 40) + once
                }
                1 => pool[rng.random_range(0..pool.len())],
                _ => pool[(window + rng.random_range(0..window_len)) % pool.len()],
            };
            if rng.random_bool(0.3) {
                Access::write(BlockAddr(addr))
            } else {
                Access::read(BlockAddr(addr))
            }
        })
        .collect()
}

/// Replays `trace` through `engine` and through a kernel keyed by
/// `rule`, access by access, and returns the engine's misses. Every
/// access's hit must agree, and so must the resident lines at the end
/// and [`keyed_misses`]'s count.
fn keyed_against_engine<P: ReplacementPolicy>(
    mut engine: Cache<P>,
    rule: KeyRule,
    trace: &[Access],
    indexing: Indexing,
    what: &str,
) -> u64 {
    let params = *engine.params();
    let next = annotate_next_use(trace);
    let mut kernel = LruFilter::new(params, indexing);
    for (i, (a, &nu)) in trace.iter().zip(&next).enumerate() {
        let clock = i as u64 + 1;
        let hit = kernel.access(a.addr.0, rule.key(clock, nu));
        let out = engine.access(a.addr, a.kind, AccessMeta::next_use(nu));
        assert_eq!(hit, out.hit, "{what}: access {i}, {:#x}", a.addr.0);
    }
    for a in trace {
        assert_eq!(
            kernel.contains(a.addr),
            engine.contains(a.addr),
            "{what}: resident {:#x}",
            a.addr.0
        );
    }
    assert_eq!(kernel.occupancy(), engine.occupancy(), "{what}: occupancy");
    let misses = engine.stats().misses();
    assert_eq!(
        keyed_misses(trace, &next, params, indexing, rule),
        misses,
        "{what}: keyed_misses"
    );
    misses
}

/// The keyed replays against the engine they stand in for in the miss
/// curves: LRU, MRU and OPT (fed `annotate_next_use`'s positions) over
/// seeded read/write traces, at 1, 2, 3, 4, 8 and 16 ways, with
/// power-of-two and other set counts under both index functions.
#[test]
fn keyed_replays_match_the_engine() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_0004);
    let mut misses = [0u64; 3];
    for ways in [1u32, 2, 3, 4, 8, 16] {
        for num_sets in [1u64, 4, 16, 3, 6, 12] {
            for indexing in [Indexing::Modulo, Indexing::Xor] {
                let lines = num_sets * u64::from(ways);
                let params = CacheParams::new(lines * 64, 64, ways, 1);
                // Three times the lines in distinct blocks, so sets evict.
                let pool = address_pool(&mut rng, 3 * lines as usize);
                let trace = mixed_trace(
                    &mut rng,
                    &pool,
                    12 * lines as usize + 200,
                    lines as usize + 2,
                );
                let what = |rule| format!("{rule:?}, {indexing:?}, {num_sets} x {ways}");
                misses[0] += keyed_against_engine(
                    Cache::new(params, indexing, Lru::new()),
                    KeyRule::Lru,
                    &trace,
                    indexing,
                    &what(KeyRule::Lru),
                );
                misses[1] += keyed_against_engine(
                    Cache::new(params, indexing, Mru::new()),
                    KeyRule::Mru,
                    &trace,
                    indexing,
                    &what(KeyRule::Mru),
                );
                misses[2] += keyed_against_engine(
                    Cache::new(params, indexing, Opt::new()),
                    KeyRule::Opt,
                    &trace,
                    indexing,
                    &what(KeyRule::Opt),
                );
            }
        }
    }
    assert!(
        misses[2] < misses[0],
        "OPT {} not below LRU {}",
        misses[2],
        misses[0]
    );
    assert!(misses.iter().all(|&m| m > 10_000), "misses {misses:?}");
}
