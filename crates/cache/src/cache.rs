//! The set-associative cache engine.

use crate::index::{Indexing, SetIndex};
use crate::meta::{AccessKind, AccessMeta, AccessOutcome};
use crate::policy::ReplacementPolicy;
use tcor_common::{AccessStats, BlockAddr, CacheParams, FxBuildHasher, FxHashMap};

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

/// One bit per line: each set's ways in `words` whole `u64`s, way `w`
/// at bit `w % 64` of word `w / 64`. Bits past the last way stay 0.
#[derive(Clone, Debug)]
struct WayBits {
    words: usize,
    bits: Vec<u64>,
}

impl WayBits {
    fn new(num_sets: usize, ways: usize) -> Self {
        let words = ways.div_ceil(64);
        WayBits {
            words,
            bits: vec![0; num_sets * words],
        }
    }

    #[inline(always)]
    fn word(&self, set: usize, way: usize) -> usize {
        set * self.words + way / 64
    }

    #[inline(always)]
    fn get(&self, set: usize, way: usize) -> bool {
        self.bits[self.word(set, way)] >> (way % 64) & 1 != 0
    }

    #[inline(always)]
    fn put(&mut self, set: usize, way: usize, on: bool) {
        let (word, bit) = (self.word(set, way), 1 << (way % 64));
        if on {
            self.bits[word] |= bit;
        } else {
            self.bits[word] &= !bit;
        }
    }

    /// The words of `set`.
    #[inline(always)]
    fn of(&self, set: usize) -> &[u64] {
        &self.bits[set * self.words..(set + 1) * self.words]
    }
}

/// A write-back, write-allocate, set-associative cache driven by a
/// [`ReplacementPolicy`].
///
/// The engine models state transitions and statistics only — it carries no
/// payload bytes. Its state is a structure of arrays, each in set order:
/// every set's tags are contiguous, its valid and dirty bits are bit
/// masks beside them, and the [`AccessMeta`]s sit in a parallel array
/// that every access writes (a hit merges into it, a miss fills it)
/// and only evictions and victim choice read.
/// There is no sentinel tag: a tag counts only under its valid bit, so
/// every `u64` block address is an ordinary address. The set index is
/// precomputed once ([`SetIndex`]).
///
/// Fully-associative geometry is a single set (`CacheParams::ways == 0`)
/// of hundreds of ways, so it also keeps an exact tag → way index: a
/// lookup is one hash probe instead of a scan of the set, and a full set
/// needs no scan for a free way. A set-associative cache keeps no index
/// and scans its few ways.
#[derive(Clone, Debug)]
pub struct Cache<P> {
    params: CacheParams,
    index: SetIndex,
    ways: usize,
    /// Every line's block address, meaningful under its valid bit.
    tags: Vec<u64>,
    metas: Vec<AccessMeta>,
    valid: WayBits,
    dirty: WayBits,
    /// The way of every valid line, by tag (fully associative only).
    /// A tag has at most one valid line, so a lookup returns the way a
    /// scan would.
    ways_by_tag: Option<FxHashMap<u64, u32>>,
    policy: P,
    stats: AccessStats,
}

impl<P: ReplacementPolicy> Cache<P> {
    /// Creates an empty cache with the given geometry, index function and
    /// replacement policy.
    pub fn new(params: CacheParams, indexing: Indexing, mut policy: P) -> Self {
        let index = SetIndex::new(indexing, params.num_sets());
        let num_sets = index.num_sets();
        let ways = params.effective_ways() as usize;
        policy.attach(num_sets, ways);
        Cache {
            params,
            index,
            ways,
            tags: vec![0; num_sets * ways],
            metas: vec![AccessMeta::default(); num_sets * ways],
            valid: WayBits::new(num_sets, ways),
            dirty: WayBits::new(num_sets, ways),
            ways_by_tag: params
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
        self.index.num_sets()
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

    /// The way of `set` holding `addr`: from the tag index when there is
    /// one, else by a scan of the set's tags. `INDEXED = false` compiles
    /// the index check out, for `access`'s set-associative instance.
    #[inline(always)]
    fn find<const INDEXED: bool>(&self, set: usize, addr: BlockAddr) -> Option<usize> {
        if let (true, Some(ways_by_tag)) = (INDEXED, &self.ways_by_tag) {
            return ways_by_tag.get(&addr.0).map(|&way| way as usize);
        }
        let tags = &self.tags[set * self.ways..(set + 1) * self.ways];
        let valid = self.valid.of(set);
        tags.iter()
            .enumerate()
            .find(|&(way, &tag)| tag == addr.0 && valid[way / 64] >> (way % 64) & 1 != 0)
            .map(|(way, _)| way)
    }

    /// The first invalid way of `set`: the lowest clear valid bit. An
    /// indexed cache that holds `ways` lines is full without a look.
    #[inline(always)]
    fn free_way<const INDEXED: bool>(&self, set: usize) -> Option<usize> {
        if INDEXED
            && self
                .ways_by_tag
                .as_ref()
                .is_some_and(|t| t.len() == self.ways)
        {
            return None;
        }
        let (i, word) = self
            .valid
            .of(set)
            .iter()
            .enumerate()
            .find(|(_, word)| **word != u64::MAX)?;
        let way = i * 64 + word.trailing_ones() as usize;
        (way < self.ways).then_some(way)
    }

    /// The line at `(set, way)` as it leaves the cache, counting a dirty
    /// one as a write-back. The caller clears or refills the line.
    #[inline(always)]
    fn take(&mut self, set: usize, way: usize) -> Evicted {
        let idx = set * self.ways + way;
        let dirty = self.dirty.get(set, way);
        if dirty {
            self.stats.writebacks += 1;
        }
        Evicted {
            addr: BlockAddr(self.tags[idx]),
            dirty,
            meta: self.metas[idx],
        }
    }

    /// Makes `(set, way)` hold `addr`. A valid line there is simply
    /// overwritten: the caller has taken it or drops it.
    #[inline(always)]
    fn fill<const INDEXED: bool>(
        &mut self,
        set: usize,
        way: usize,
        addr: BlockAddr,
        dirty: bool,
        meta: AccessMeta,
    ) {
        let idx = set * self.ways + way;
        if let (true, Some(ways_by_tag)) = (INDEXED, &mut self.ways_by_tag) {
            if self.valid.get(set, way) {
                ways_by_tag.remove(&self.tags[idx]);
            }
            ways_by_tag.insert(addr.0, way as u32);
        }
        self.tags[idx] = addr.0;
        self.metas[idx] = meta;
        self.valid.put(set, way, true);
        self.dirty.put(set, way, dirty);
        self.policy.on_fill(set, way, &meta);
    }

    /// The way a miss in `set` fills, and whether a line lives there:
    /// the first free way, else the policy's victim among the set's
    /// lines.
    #[inline(always)]
    fn fill_way<const INDEXED: bool>(&mut self, set: usize) -> (usize, bool) {
        match self.free_way::<INDEXED>(set) {
            Some(invalid) => (invalid, false),
            None => {
                let metas = &self.metas[set * self.ways..(set + 1) * self.ways];
                let way = self.policy.victim(set, metas);
                debug_assert!(way < self.ways, "policy returned way out of range");
                (way, true)
            }
        }
    }

    /// Merges `meta` into the resident line at `(set, way)` and tells
    /// the policy of the hit.
    #[inline(always)]
    fn merge(&mut self, set: usize, way: usize, meta: AccessMeta) {
        let stored = &mut self.metas[set * self.ways + way];
        stored.merge(meta);
        let merged = *stored;
        self.policy.on_hit(set, way, &merged);
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
        if self.ways_by_tag.is_some() {
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
        let set = self.index.set_of(addr.0);
        if let Some(way) = self.find::<INDEXED>(set, addr) {
            match kind {
                AccessKind::Read => self.stats.record_read(true),
                AccessKind::Write => {
                    self.stats.record_write(true);
                    self.dirty.put(set, way, true);
                }
            }
            self.merge(set, way, meta);
            return AccessOutcome::hit();
        }

        match kind {
            AccessKind::Read => self.stats.record_read(false),
            AccessKind::Write => self.stats.record_write(false),
        }
        let (way, full) = self.fill_way::<INDEXED>(set);
        let evicted = full.then(|| self.take(set, way));
        self.fill::<INDEXED>(set, way, addr, kind.is_write(), meta);
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
        let set = self.index.set_of(addr.0);
        if let Some(way) = self.find::<true>(set, addr) {
            return self.merge(set, way, meta);
        }
        let (way, _) = self.fill_way::<true>(set);
        self.fill::<true>(set, way, addr, false, meta);
    }

    /// Whether `addr` is currently cached (no state change).
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.find::<true>(self.index.set_of(addr.0), addr).is_some()
    }

    /// Reads a resident line's stored metadata (no state change).
    pub fn peek_meta(&self, addr: BlockAddr) -> Option<AccessMeta> {
        let set = self.index.set_of(addr.0);
        self.find::<true>(set, addr)
            .map(|way| self.metas[set * self.ways + way])
    }

    /// Updates a resident line's metadata in place. Returns `false` when
    /// the block is not resident.
    #[cfg(test)]
    pub fn update_meta(&mut self, addr: BlockAddr, f: impl FnOnce(&mut AccessMeta)) -> bool {
        let set = self.index.set_of(addr.0);
        if let Some(way) = self.find::<true>(set, addr) {
            f(&mut self.metas[set * self.ways + way]);
            true
        } else {
            false
        }
    }

    /// Clears the valid and dirty bits of `(set, way)`.
    fn clear(&mut self, set: usize, way: usize) {
        self.valid.put(set, way, false);
        self.dirty.put(set, way, false);
        self.policy.on_invalidate(set, way);
    }

    /// Removes `addr` from the cache, returning its state if present.
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Evicted> {
        let set = self.index.set_of(addr.0);
        let way = self.find::<true>(set, addr)?;
        let old = self.take(set, way);
        if let Some(ways_by_tag) = &mut self.ways_by_tag {
            ways_by_tag.remove(&addr.0);
        }
        self.clear(set, way);
        Some(old)
    }

    /// Drains every valid line (end-of-frame flush), handing each to
    /// `visit` in set then way order. Statistics count the dirty ones as
    /// write-backs.
    pub fn drain(&mut self, mut visit: impl FnMut(Evicted)) {
        for set in 0..self.num_sets() {
            for way in 0..self.ways {
                if self.valid.get(set, way) {
                    visit(self.take(set, way));
                    self.clear(set, way);
                }
            }
        }
        if let Some(ways_by_tag) = &mut self.ways_by_tag {
            ways_by_tag.clear();
        }
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.valid
            .bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
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
        assert_eq!(c.stats().writebacks, 1, "a dirty line leaves written back");
        assert!(!c.contains(BlockAddr(0)));
        assert!(c.invalidate(BlockAddr(0)).is_none());
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn drain_returns_everything_once() {
        let mut c = small();
        c.access(BlockAddr(0), AccessKind::Write, AccessMeta::NONE);
        c.access(BlockAddr(1), AccessKind::Read, AccessMeta::NONE);
        c.access(BlockAddr(2), AccessKind::Read, AccessMeta::NONE);
        let mut drained = Vec::new();
        c.drain(|e| drained.push(e));
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

    /// MRU and FIFO as the stamp scans they replaced: each way keeps the
    /// clock of its last fill (and, for MRU, hit), and the victim is the
    /// newest stamp (MRU) or the oldest (FIFO).
    #[derive(Clone, Debug)]
    struct ScanStamps {
        mru: bool,
        clock: u64,
        stamps: Vec<u64>,
        ways: usize,
    }

    impl ScanStamps {
        fn new(mru: bool) -> Self {
            ScanStamps {
                mru,
                clock: 0,
                stamps: Vec::new(),
                ways: 0,
            }
        }

        fn touch(&mut self, set: usize, way: usize) {
            self.clock += 1;
            self.stamps[set * self.ways + way] = self.clock;
        }
    }

    impl ReplacementPolicy for ScanStamps {
        fn name(&self) -> &'static str {
            if self.mru {
                "MRU"
            } else {
                "FIFO"
            }
        }

        fn attach(&mut self, num_sets: usize, ways: usize) {
            self.ways = ways;
            self.stamps = vec![0; num_sets * ways];
            self.clock = 0;
        }

        fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
            if self.mru {
                self.touch(set, way);
            }
        }

        fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
            self.touch(set, way);
        }

        fn on_invalidate(&mut self, set: usize, way: usize) {
            self.stamps[set * self.ways + way] = 0;
        }

        fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
            let stamps = &self.stamps[set * self.ways..];
            let ways = 0..metas.len();
            if self.mru {
                ways.max_by_key(|&w| stamps[w])
            } else {
                ways.min_by_key(|&w| stamps[w])
            }
            .expect("victim called on empty set")
        }
    }

    /// One operation on block `b`.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Access(u64, AccessKind, AccessMeta),
        FillClean(u64, AccessMeta),
        Invalidate(u64),
        UpdateMeta(u64, u64),
        Probe(u64),
        Drain,
    }

    /// Applies `step` to `one`, with `s` sets, fed block `b`, and to
    /// `two`, with `2s` sets of the same ways, fed block
    /// `b + s * (b / s)`. Under modulo indexing each of `two`'s first `s`
    /// sets then sees the history of the same set of `one`, and its
    /// other sets stay empty. Asserts that both give the same answers,
    /// evicted lines (addresses mapped back), statistics and occupancy,
    /// and returns whether `one` evicted a line.
    fn same_step<P: ReplacementPolicy, Q: ReplacementPolicy>(
        one: &mut Cache<P>,
        two: &mut Cache<Q>,
        step: Step,
        what: &dyn Fn() -> String,
    ) -> bool {
        let sets = one.num_sets() as u64;
        let at = |b: u64| BlockAddr(b + sets * (b / sets));
        let back = |e: Evicted| Evicted {
            addr: BlockAddr(e.addr.0 - sets * (e.addr.0 / (2 * sets))),
            ..e
        };
        let mut evicted = false;
        match step {
            Step::Access(b, kind, meta) => {
                let a = one.access(BlockAddr(b), kind, meta);
                let o = two.access(at(b), kind, meta);
                let o = AccessOutcome {
                    evicted: o.evicted.map(back),
                    ..o
                };
                assert_eq!(a, o, "access: {}", what());
                evicted = a.evicted.is_some();
            }
            Step::FillClean(b, meta) => {
                one.fill_clean(BlockAddr(b), meta);
                two.fill_clean(at(b), meta);
            }
            Step::Invalidate(b) => {
                let o = two.invalidate(at(b)).map(back);
                assert_eq!(one.invalidate(BlockAddr(b)), o, "invalidate: {}", what());
            }
            Step::UpdateMeta(b, next_use) => {
                let update = |m: &mut AccessMeta| m.next_use = next_use;
                let o = two.update_meta(at(b), update);
                assert_eq!(
                    one.update_meta(BlockAddr(b), update),
                    o,
                    "update: {}",
                    what()
                );
            }
            Step::Probe(b) => {
                let (a, o) = (BlockAddr(b), at(b));
                assert_eq!(one.contains(a), two.contains(o), "contains: {}", what());
                assert_eq!(one.peek_meta(a), two.peek_meta(o), "peek: {}", what());
            }
            Step::Drain => {
                let (mut o, mut want) = (Vec::new(), Vec::new());
                two.drain(|e| o.push(back(e)));
                one.drain(|e| want.push(e));
                assert_eq!(want, o, "drain: {}", what());
            }
        }
        assert_eq!(one.stats(), two.stats(), "stats: {}", what());
        assert_eq!(one.occupancy(), two.occupancy(), "occupancy: {}", what());
        evicted
    }

    /// A fully associative cache answers lookups and free-way searches
    /// from its tag index, and its LIP/BIP/DIP victims from a stamp
    /// order. The reference has twice the sets of `n` ways (`same_step`)
    /// and scans its lines and its LIP/BIP/DIP stamps; MRU and FIFO,
    /// which scan at no geometry, run there as `ScanStamps`. Four sets
    /// of four ways check that MRU's and FIFO's per-set state keeps the
    /// sets apart. Driven through the same seeded steps under every
    /// policy, the two must agree on every outcome, evicted line,
    /// statistic and occupancy.
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
        let reference = |name: &str| -> BoxedPolicy {
            match name {
                "mru" => Box::new(ScanStamps::new(true)),
                "fifo" => Box::new(ScanStamps::new(false)),
                _ => policy(name),
            }
        };
        // 64 and 65 ways cross a word of LIP/BIP/DIP's zero-stamp bitset.
        let fully = [1u64, 2, 3, 17, 63, 64, 65, 300].map(|n| (1, n));
        for (sets, ways) in fully.into_iter().chain([(4, 4)]) {
            let n = sets * ways;
            for (seed, name) in policies.into_iter().enumerate() {
                let one = match sets {
                    1 => CacheParams::new(n, 1, 0, 1),
                    _ => CacheParams::new(n, 1, ways as u32, 1),
                };
                let mut one = Cache::new(one, Indexing::Modulo, policy(name));
                let mut two = Cache::new(
                    CacheParams::new(2 * n, 1, ways as u32, 1),
                    Indexing::Modulo,
                    reference(name),
                );
                assert_eq!(one.num_sets() as u64, sets);
                assert!(one.ways_by_tag.is_some() == (sets == 1) && two.ways_by_tag.is_none());
                let mut rng = SmallRng::seed_from_u64(seed as u64 ^ n << 8);
                let (mut evictions, mut drains) = (0, 0);
                for i in 0..1000 + 16 * n {
                    // Twice the capacity in blocks, so full sets evict.
                    let b = rng.random_range(0..2 * n + 3);
                    let meta = match rng.random_range(0..4u32) {
                        0 => AccessMeta::NONE,
                        1 => AccessMeta::next_use(rng.random_range(0..4 * n)),
                        2 => AccessMeta::with_user(rng.random_range(0..4 * n), b),
                        _ => AccessMeta::with_user(u64::MAX, rng.random_range(1..64)),
                    };
                    // Drain about once per 4n steps, so the sets fill up
                    // between drains.
                    let op = if rng.random_range(0..4 * n + 20) == 0 {
                        200
                    } else {
                        rng.random_range(0..200u32)
                    };
                    let step = match op {
                        0..=119 if rng.random_bool(0.3) => Step::Access(b, AccessKind::Write, meta),
                        0..=119 => Step::Access(b, AccessKind::Read, meta),
                        120..=139 => Step::FillClean(b, meta),
                        140..=164 => Step::Invalidate(b),
                        165..=179 => Step::UpdateMeta(b, i),
                        180..=199 => Step::Probe(b),
                        _ => {
                            drains += 1;
                            Step::Drain
                        }
                    };
                    let what = || format!("{name}, {sets} x {ways}, step {i}: {step:?}");
                    evictions += u32::from(same_step(&mut one, &mut two, step, &what));
                }
                assert!(
                    evictions > 50 && drains > 0,
                    "{name}, {sets} x {ways}: too few"
                );
            }
        }
    }

    /// Every sequence of up to `left` more reads, invalidates and drains
    /// over four blocks.
    fn walk<P, Q>(one: &Cache<P>, two: &Cache<Q>, path: &mut Vec<Step>, left: usize)
    where
        P: ReplacementPolicy + Clone,
        Q: ReplacementPolicy + Clone,
    {
        if left == 0 {
            return;
        }
        let steps = (0..4)
            .map(|b| Step::Access(b, AccessKind::Read, AccessMeta::NONE))
            .chain((0..4).map(Step::Invalidate))
            .chain([Step::Drain]);
        let (name, ways) = (one.policy().name(), one.ways());
        for step in steps {
            let (mut one, mut two) = (one.clone(), two.clone());
            path.push(step);
            let what = || format!("{name}, {ways} ways: {path:?}");
            same_step(&mut one, &mut two, step, &what);
            walk(&one, &two, path, left - 1);
            path.pop();
        }
    }

    /// One set of one to three ways under MRU, FIFO and LIP/BIP/DIP
    /// gives the stamp scans' victims after every sequence of up to five
    /// steps.
    #[test]
    fn victim_orders_match_the_scan_exhaustively() {
        use crate::policy::{Bip, Dip, Fifo, Lip, Mru};
        fn check<P, Q>(policy: impl Fn() -> P, reference: impl Fn() -> Q)
        where
            P: ReplacementPolicy + Clone,
            Q: ReplacementPolicy + Clone,
        {
            for n in 1..=3 {
                let one = Cache::new(CacheParams::new(n, 1, 0, 1), Indexing::Modulo, policy());
                let two = Cache::new(
                    CacheParams::new(2 * n, 1, n as u32, 1),
                    Indexing::Modulo,
                    reference(),
                );
                walk(&one, &two, &mut Vec::new(), 5);
            }
        }
        check(Mru::new, || ScanStamps::new(true));
        check(Fifo::new, || ScanStamps::new(false));
        check(Lip::new, Lip::new);
        check(Bip::new, Bip::new);
        check(Dip::new, Dip::new);
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
