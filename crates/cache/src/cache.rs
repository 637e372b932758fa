//! The set-associative cache engine.

use crate::index::Indexing;
use crate::meta::{AccessKind, AccessMeta, AccessOutcome};
use crate::policy::ReplacementPolicy;
use tcor_common::{AccessStats, BlockAddr, CacheParams, FxBuildHasher, FxHashMap};

/// One cache line's state, visible to replacement policies during victim
/// selection.
#[derive(Clone, Copy, Debug, Default)]
pub struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    meta: AccessMeta,
}

impl Line {
    /// Whether the line holds data.
    pub fn valid(&self) -> bool {
        self.valid
    }

    /// Whether the line has been written since fill.
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// The block address stored in the line (meaningful when valid).
    pub fn addr(&self) -> BlockAddr {
        BlockAddr(self.tag)
    }

    /// The metadata stored with the line (future-use priority, user word).
    pub fn meta(&self) -> &AccessMeta {
        &self.meta
    }
}

/// A line displaced from the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced block.
    pub addr: BlockAddr,
    /// Whether it must be written back (unless the owner decides it is
    /// dead — the TCOR L2 enhancement).
    pub dirty: bool,
    /// The metadata it carried.
    pub meta: AccessMeta,
}

/// A write-back, write-allocate, set-associative cache driven by a
/// [`ReplacementPolicy`].
///
/// The engine models state transitions and statistics only — it carries no
/// payload bytes. Fully-associative geometry is a single set
/// (`CacheParams::ways == 0`) of hundreds of ways, so it also keeps an
/// exact tag → way index: a lookup is one hash probe instead of a scan
/// of the set, and a full set needs no scan for a free way. A
/// set-associative cache keeps no index and scans its few ways.
#[derive(Clone, Debug)]
pub struct Cache<P> {
    params: CacheParams,
    indexing: Indexing,
    num_sets: usize,
    ways: usize,
    lines: Vec<Line>,
    /// The way of every valid line, by tag (fully associative only).
    /// A tag has at most one valid line, so a lookup returns the way a
    /// scan would.
    tags: Option<FxHashMap<u64, u32>>,
    policy: P,
    stats: AccessStats,
}

impl<P: ReplacementPolicy> Cache<P> {
    /// Creates an empty cache with the given geometry, index function and
    /// replacement policy.
    pub fn new(params: CacheParams, indexing: Indexing, mut policy: P) -> Self {
        let num_sets = params.num_sets() as usize;
        let ways = params.effective_ways() as usize;
        policy.attach(num_sets, ways);
        Cache {
            params,
            indexing,
            num_sets,
            ways,
            lines: vec![Line::default(); num_sets * ways],
            tags: params
                .is_fully_associative()
                .then(|| FxHashMap::with_capacity_and_hasher(ways, FxBuildHasher)),
            policy,
            stats: AccessStats::new(),
        }
    }

    /// The configured geometry.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Zeroes the statistics (cache contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::new();
    }

    /// The replacement policy (for inspecting dueling state etc.).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    fn set_of(&self, addr: BlockAddr) -> usize {
        self.indexing.set_of(addr.0, self.num_sets as u64) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// The way of `set` holding `addr`: from the tag index when there is
    /// one, else by a scan. `INDEXED = false` compiles the index check
    /// out, for `access`'s set-associative instance.
    #[inline(always)]
    fn find<const INDEXED: bool>(&self, set: usize, addr: BlockAddr) -> Option<usize> {
        if let (true, Some(tags)) = (INDEXED, &self.tags) {
            return tags.get(&addr.0).map(|&way| way as usize);
        }
        self.lines[self.set_range(set)]
            .iter()
            .position(|l| l.valid && l.tag == addr.0)
    }

    /// The first invalid way of `set`. An indexed cache that holds
    /// `ways` lines is full without a scan.
    #[inline(always)]
    fn free_way<const INDEXED: bool>(&self, set: usize) -> Option<usize> {
        if INDEXED && self.tags.as_ref().is_some_and(|t| t.len() == self.ways) {
            return None;
        }
        self.lines[self.set_range(set)]
            .iter()
            .position(|l| !l.valid)
    }

    /// Performs one access. On a miss in a full set, the policy selects a
    /// victim; the displaced line is returned in the outcome so the caller
    /// can model the write-back (or drop it as dead).
    #[inline]
    pub fn access(&mut self, addr: BlockAddr, kind: AccessKind, meta: AccessMeta) -> AccessOutcome {
        // The indexed instance stays out of line, so callers that inline
        // a set-associative cache's access get exactly the scanning code:
        // an index check inside every lookup and fill made a tight 4-way
        // access loop about 10% slower.
        if self.tags.is_some() {
            return self.access_indexed(addr, kind, meta);
        }
        self.access_in::<false>(addr, kind, meta)
    }

    #[inline(never)]
    fn access_indexed(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        meta: AccessMeta,
    ) -> AccessOutcome {
        self.access_in::<true>(addr, kind, meta)
    }

    #[inline(always)]
    fn access_in<const INDEXED: bool>(
        &mut self,
        addr: BlockAddr,
        kind: AccessKind,
        meta: AccessMeta,
    ) -> AccessOutcome {
        // Entry-site probe count, deliberately separate from the hit/miss
        // classification below: the audit layer cross-checks
        // probes == hits + misses.
        self.stats.probes += 1;
        let set = self.set_of(addr);
        if let Some(way) = self.find::<INDEXED>(set, addr) {
            match kind {
                AccessKind::Read => self.stats.record_read(true),
                AccessKind::Write => self.stats.record_write(true),
            }
            let line = &mut self.lines[set * self.ways + way];
            line.dirty |= kind.is_write();
            line.meta.merge(meta);
            let merged = line.meta;
            self.policy.on_hit(set, way, &merged);
            return AccessOutcome::hit();
        }

        match kind {
            AccessKind::Read => self.stats.record_read(false),
            AccessKind::Write => self.stats.record_write(false),
        }

        let way = match self.free_way::<INDEXED>(set) {
            Some(invalid) => invalid,
            None => {
                let range = self.set_range(set);
                let way = self.policy.victim(set, &self.lines[range]);
                debug_assert!(way < self.ways, "policy returned way out of range");
                way
            }
        };

        let idx = set * self.ways + way;
        let evicted = if self.lines[idx].valid {
            let old = self.lines[idx];
            if old.dirty {
                self.stats.writebacks += 1;
            }
            Some(Evicted {
                addr: BlockAddr(old.tag),
                dirty: old.dirty,
                meta: old.meta,
            })
        } else {
            None
        };

        if let (true, Some(tags)) = (INDEXED, &mut self.tags) {
            if let Some(old) = &evicted {
                tags.remove(&old.addr.0);
            }
            tags.insert(addr.0, way as u32);
        }
        self.lines[idx] = Line {
            valid: true,
            dirty: kind.is_write(),
            tag: addr.0,
            meta,
        };
        self.policy.on_fill(set, way, &meta);

        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Installs `addr` as a clean line without touching the statistics —
    /// warm-start support (e.g. pre-loading the L2 with the previous
    /// frame's Parameter Buffer). A full set silently drops the policy's
    /// victim; a resident line just has its metadata merged in.
    pub fn fill_clean(&mut self, addr: BlockAddr, meta: AccessMeta) {
        let set = self.set_of(addr);
        if let Some(way) = self.find::<true>(set, addr) {
            let line = &mut self.lines[set * self.ways + way];
            line.meta.merge(meta);
            let merged = line.meta;
            self.policy.on_hit(set, way, &merged);
            return;
        }
        let way = match self.free_way::<true>(set) {
            Some(invalid) => invalid,
            None => {
                let range = self.set_range(set);
                self.policy.victim(set, &self.lines[range])
            }
        };
        let idx = set * self.ways + way;
        if let Some(tags) = &mut self.tags {
            if self.lines[idx].valid {
                tags.remove(&self.lines[idx].tag);
            }
            tags.insert(addr.0, way as u32);
        }
        self.lines[idx] = Line {
            valid: true,
            dirty: false,
            tag: addr.0,
            meta,
        };
        self.policy.on_fill(set, way, &meta);
    }

    /// Whether `addr` is currently cached (no state change).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.find::<true>(self.set_of(addr), addr).is_some()
    }

    /// Reads a resident line's stored metadata (no state change).
    pub fn peek_meta(&self, addr: BlockAddr) -> Option<AccessMeta> {
        let set = self.set_of(addr);
        self.find::<true>(set, addr)
            .map(|way| self.lines[set * self.ways + way].meta)
    }

    /// Updates a resident line's metadata in place. Returns `false` when
    /// the block is not resident.
    pub fn update_meta(&mut self, addr: BlockAddr, f: impl FnOnce(&mut AccessMeta)) -> bool {
        let set = self.set_of(addr);
        if let Some(way) = self.find::<true>(set, addr) {
            f(&mut self.lines[set * self.ways + way].meta);
            true
        } else {
            false
        }
    }

    /// Removes `addr` from the cache, returning its state if present.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let set = self.set_of(addr);
        let way = self.find::<true>(set, addr)?;
        let idx = set * self.ways + way;
        let old = self.lines[idx];
        self.lines[idx] = Line::default();
        if let Some(tags) = &mut self.tags {
            tags.remove(&addr.0);
        }
        self.policy.on_invalidate(set, way);
        if old.dirty {
            self.stats.writebacks += 1;
        }
        Some(Evicted {
            addr: BlockAddr(old.tag),
            dirty: old.dirty,
            meta: old.meta,
        })
    }

    /// Drains every valid line (end-of-frame flush), returning them in
    /// arbitrary order. Statistics count the dirty ones as write-backs.
    pub fn drain(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for idx in 0..self.lines.len() {
            if self.lines[idx].valid {
                let old = self.lines[idx];
                if old.dirty {
                    self.stats.writebacks += 1;
                }
                out.push(Evicted {
                    addr: BlockAddr(old.tag),
                    dirty: old.dirty,
                    meta: old.meta,
                });
                self.lines[idx] = Line::default();
                self.policy.on_invalidate(idx / self.ways, idx % self.ways);
            }
        }
        if let Some(tags) = &mut self.tags {
            tags.clear();
        }
        out
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Lru;

    fn small() -> Cache<Lru> {
        // 4 lines, 2 ways, 2 sets.
        Cache::new(
            CacheParams::new(256, 64, 2, 1),
            Indexing::Modulo,
            Lru::new(),
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(
            !c.access(BlockAddr(0), AccessKind::Read, AccessMeta::NONE)
                .hit
        );
        assert!(
            c.access(BlockAddr(0), AccessKind::Read, AccessMeta::NONE)
                .hit
        );
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn none_meta_hit_preserves_stored_user_word() {
        // Regression: a hit carrying AccessMeta::NONE used to overwrite the
        // resident line's meta wholesale, erasing its PB tag (user word) and
        // misclassifying live PB lines. The user word must survive; the
        // future-use priority must still refresh.
        let mut c = small();
        c.access(
            BlockAddr(0),
            AccessKind::Write,
            AccessMeta::with_user(7, 0xABC),
        );
        assert!(
            c.access(BlockAddr(0), AccessKind::Read, AccessMeta::NONE)
                .hit
        );
        let m = c.peek_meta(BlockAddr(0)).unwrap();
        assert_eq!(m.user, 0xABC, "NONE-meta hit must not erase the PB tag");
        assert_eq!(m.next_use, u64::MAX, "priority refreshes from the request");
        // A request that does carry a tag replaces the stored one.
        c.access(
            BlockAddr(0),
            AccessKind::Read,
            AccessMeta::with_user(3, 0xDEF),
        );
        assert_eq!(c.peek_meta(BlockAddr(0)).unwrap().user, 0xDEF);
    }

    #[test]
    fn fill_clean_on_resident_line_preserves_user_word() {
        let mut c = small();
        c.access(
            BlockAddr(0),
            AccessKind::Read,
            AccessMeta::with_user(7, 0xABC),
        );
        c.fill_clean(BlockAddr(0), AccessMeta::NONE);
        assert_eq!(c.peek_meta(BlockAddr(0)).unwrap().user, 0xABC);
    }

    #[test]
    fn probes_match_hits_plus_misses() {
        let mut c = small();
        c.access(BlockAddr(0), AccessKind::Read, AccessMeta::NONE);
        c.access(BlockAddr(0), AccessKind::Read, AccessMeta::NONE);
        c.access(BlockAddr(2), AccessKind::Write, AccessMeta::NONE);
        let s = c.stats();
        assert_eq!(s.probes, 3);
        assert_eq!(s.probes, s.hits() + s.misses());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds even blocks; fill ways with 0 and 2, touch 0, insert 4.
        c.access(BlockAddr(0), AccessKind::Read, AccessMeta::NONE);
        c.access(BlockAddr(2), AccessKind::Read, AccessMeta::NONE);
        c.access(BlockAddr(0), AccessKind::Read, AccessMeta::NONE);
        let out = c.access(BlockAddr(4), AccessKind::Read, AccessMeta::NONE);
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(2));
        assert!(c.contains(BlockAddr(0)));
        assert!(!c.contains(BlockAddr(2)));
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c = small();
        c.access(BlockAddr(0), AccessKind::Write, AccessMeta::NONE);
        c.access(BlockAddr(2), AccessKind::Read, AccessMeta::NONE);
        let out = c.access(BlockAddr(4), AccessKind::Read, AccessMeta::NONE);
        let ev = out.evicted.unwrap();
        assert_eq!(ev.addr, BlockAddr(0));
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn read_fill_is_clean() {
        let mut c = small();
        c.access(BlockAddr(0), AccessKind::Read, AccessMeta::NONE);
        c.access(BlockAddr(2), AccessKind::Read, AccessMeta::NONE);
        let out = c.access(BlockAddr(4), AccessKind::Read, AccessMeta::NONE);
        assert!(!out.evicted.unwrap().dirty);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.access(BlockAddr(0), AccessKind::Write, AccessMeta::NONE);
        let ev = c.invalidate(BlockAddr(0)).unwrap();
        assert!(ev.dirty);
        assert!(!c.contains(BlockAddr(0)));
        assert!(c.invalidate(BlockAddr(0)).is_none());
    }

    #[test]
    fn drain_returns_everything_once() {
        let mut c = small();
        c.access(BlockAddr(0), AccessKind::Write, AccessMeta::NONE);
        c.access(BlockAddr(1), AccessKind::Read, AccessMeta::NONE);
        c.access(BlockAddr(2), AccessKind::Read, AccessMeta::NONE);
        let drained = c.drain();
        assert_eq!(drained.len(), 3);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(drained.iter().filter(|e| e.dirty).count(), 1);
    }

    #[test]
    fn meta_updates_in_place() {
        let mut c = small();
        c.access(BlockAddr(0), AccessKind::Read, AccessMeta::next_use(5));
        assert_eq!(c.peek_meta(BlockAddr(0)).unwrap().next_use, 5);
        assert!(c.update_meta(BlockAddr(0), |m| m.next_use = 9));
        assert_eq!(c.peek_meta(BlockAddr(0)).unwrap().next_use, 9);
        assert!(!c.update_meta(BlockAddr(99), |m| m.next_use = 1));
    }

    /// A fully associative cache answers lookups and free-way searches
    /// from its tag index; one explicit `n`-way set of the same capacity
    /// scans. Driven through the same seeded steps under every policy,
    /// the two must agree on every outcome, evicted line, statistic and
    /// occupancy.
    #[test]
    fn tag_index_matches_the_scan() {
        use crate::policy::{by_name, BoxedPolicy, Hawkeye};
        use tcor_common::SmallRng;
        let policies = [
            "lru", "mru", "fifo", "random", "plru", "nru", "lip", "bip", "dip", "srrip", "brrip",
            "drrip", "opt", "hawkeye",
        ];
        let policy = |name: &str| -> BoxedPolicy {
            match name {
                "hawkeye" => Box::new(Hawkeye::new()),
                _ => by_name(name),
            }
        };
        for n in [1u64, 2, 3, 17, 300] {
            for (seed, name) in policies.into_iter().enumerate() {
                let mut indexed =
                    Cache::new(CacheParams::new(n, 1, 0, 1), Indexing::Modulo, policy(name));
                let mut scanned = Cache::new(
                    CacheParams::new(n, 1, n as u32, 1),
                    Indexing::Modulo,
                    policy(name),
                );
                assert!(indexed.tags.is_some() && scanned.tags.is_none());
                let mut rng = SmallRng::seed_from_u64(seed as u64 ^ n << 8);
                let (mut evictions, mut drains) = (0, 0);
                for step in 0..1000 + 8 * n {
                    // Twice the capacity in blocks, so full sets evict.
                    let addr = BlockAddr(rng.random_range(0..2 * n + 3));
                    let meta = match rng.random_range(0..4u32) {
                        0 => AccessMeta::NONE,
                        1 => AccessMeta::next_use(rng.random_range(0..4 * n)),
                        2 => AccessMeta::with_user(rng.random_range(0..4 * n), addr.0),
                        _ => AccessMeta::with_user(u64::MAX, rng.random_range(1..64)),
                    };
                    let what = format!("{name}, n = {n}, step {step}");
                    // Drain about once per 4n steps, so the sets fill up
                    // between drains.
                    let op = if rng.random_range(0..4 * n + 20) == 0 {
                        200
                    } else {
                        rng.random_range(0..200u32)
                    };
                    match op {
                        0..=119 => {
                            let kind = if rng.random_bool(0.3) {
                                AccessKind::Write
                            } else {
                                AccessKind::Read
                            };
                            let a = indexed.access(addr, kind, meta);
                            assert_eq!(a, scanned.access(addr, kind, meta), "access: {what}");
                            evictions += u32::from(a.evicted.is_some());
                        }
                        120..=139 => {
                            indexed.fill_clean(addr, meta);
                            scanned.fill_clean(addr, meta);
                        }
                        140..=164 => {
                            let a = indexed.invalidate(addr);
                            assert_eq!(a, scanned.invalidate(addr), "invalidate: {what}");
                        }
                        165..=179 => {
                            let update = |m: &mut AccessMeta| m.next_use = step;
                            let a = indexed.update_meta(addr, update);
                            assert_eq!(a, scanned.update_meta(addr, update), "update: {what}");
                        }
                        180..=199 => {
                            assert_eq!(
                                indexed.contains(addr),
                                scanned.contains(addr),
                                "contains: {what}"
                            );
                            assert_eq!(
                                indexed.peek_meta(addr),
                                scanned.peek_meta(addr),
                                "peek: {what}"
                            );
                        }
                        _ => {
                            assert_eq!(indexed.drain(), scanned.drain(), "drain: {what}");
                            drains += 1;
                        }
                    }
                    assert_eq!(indexed.stats(), scanned.stats(), "stats: {what}");
                    assert_eq!(
                        indexed.occupancy(),
                        scanned.occupancy(),
                        "occupancy: {what}"
                    );
                }
                assert!(evictions > 50 && drains > 0, "{name}, n = {n}: too few");
            }
        }
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut c = Cache::new(
            CacheParams::new(256, 64, 0, 1),
            Indexing::Modulo,
            Lru::new(),
        );
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.ways(), 4);
        for b in 0..4u64 {
            c.access(BlockAddr(b * 17), AccessKind::Read, AccessMeta::NONE);
        }
        assert_eq!(c.occupancy(), 4);
        // A 5th distinct block evicts the oldest (block 0).
        let out = c.access(BlockAddr(1000), AccessKind::Read, AccessMeta::NONE);
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(0));
    }
}
