//! Insertion-policy family of Qureshi et al. (the paper's reference
//! \[30\], "Adaptive insertion policies for high performance caching"):
//! LIP, BIP and set-dueling DIP. Like DRRIP, these target thrashing
//! streams — included in the toolbox so the Fig. 13-style comparison can
//! be extended beyond the paper's four policies.

use super::order::WayOrder;
use super::ReplacementPolicy;
use crate::meta::AccessMeta;

/// BIP promotes an insertion to MRU once every `BIP_EPSILON` fills.
const BIP_EPSILON: u32 = 32;

/// Recency core shared by the family: exact LRU timestamps, with
/// insertions placed at either end of the stack.
#[derive(Clone, Debug, Default)]
struct InsertionLru {
    clock: u64,
    last_touch: Vec<u64>,
    ways: usize,
    /// A one-set cache's stamps in victim order, so neither the LRU
    /// insertion nor the victim scans the set.
    order: Option<StampOrder>,
}

/// The ways of one set by stamp: the ways with a nonzero stamp in stamp
/// order, least first, and a bitset of the ways stamped 0.
///
/// A nonzero stamp is unique within its set: `touch_mru` stamps the
/// clock, above every stamp, and `touch_lru` one below the least stamp.
/// Only `touch_lru`'s clamp at 0 ties ways, and the scan's `min_by_key`
/// then picks the lowest of them: the lowest set bit.
#[derive(Clone, Debug)]
struct StampOrder {
    nonzero: WayOrder,
    zero: Vec<u64>,
}

impl StampOrder {
    /// Every way starts stamped 0.
    fn new(ways: usize) -> Self {
        let mut zero = vec![0; ways.div_ceil(64)];
        for way in 0..ways {
            zero[way / 64] |= 1 << (way % 64);
        }
        StampOrder {
            nonzero: WayOrder::empty(1, ways),
            zero,
        }
    }

    fn lowest_zero(&self) -> Option<usize> {
        let (i, word) = self.zero.iter().enumerate().find(|(_, w)| **w != 0)?;
        Some(i * 64 + word.trailing_zeros() as usize)
    }

    fn set_zero(&mut self, way: usize, zero: bool) {
        let bit = 1 << (way % 64);
        if zero {
            self.zero[way / 64] |= bit;
        } else {
            self.zero[way / 64] &= !bit;
        }
    }

    /// The way with the least stamp, the lowest one among ties.
    fn least(&self) -> usize {
        self.lowest_zero().unwrap_or_else(|| self.nonzero.head(0))
    }

    /// `touch_mru` stamped `way` above every other way.
    fn promote(&mut self, way: usize) {
        self.set_zero(way, false);
        self.nonzero.push_back(0, way);
    }

    /// `touch_lru` for a one-set cache: stamps `way` one below the least
    /// stamp, clamped at 0, and moves it to the front or into the ties.
    /// Kept out of line so that `touch_lru` stays small enough to inline
    /// into the set-associative fill hooks, as the bare scan did.
    #[inline(never)]
    fn demote(&mut self, stamps: &mut [u64], way: usize) {
        let stamp = stamps[self.least()].saturating_sub(1);
        stamps[way] = stamp;
        if stamp == 0 {
            self.nonzero.remove(0, way);
            self.set_zero(way, true);
        } else {
            self.nonzero.push_front(0, way);
        }
    }
}

impl InsertionLru {
    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.ways = ways;
        self.last_touch = vec![0; num_sets * ways];
        self.clock = 0;
        self.order = (num_sets == 1).then(|| StampOrder::new(ways));
    }

    #[inline]
    fn touch_mru(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.last_touch[set * self.ways + way] = self.clock;
        if let Some(order) = &mut self.order {
            order.promote(way);
        }
    }

    /// Place at the LRU end: older than everything currently in the set.
    #[inline]
    fn touch_lru(&mut self, set: usize, way: usize) {
        if let Some(order) = &mut self.order {
            return order.demote(&mut self.last_touch, way);
        }
        let base = set * self.ways;
        let min = (0..self.ways)
            .map(|w| self.last_touch[base + w])
            .min()
            .unwrap_or(0);
        self.last_touch[base + way] = min.saturating_sub(1);
    }

    #[inline]
    fn victim(&self, set: usize, n: usize) -> usize {
        if let Some(order) = &self.order {
            return order.least();
        }
        let base = set * self.ways;
        (0..n)
            .min_by_key(|&w| self.last_touch[base + w])
            .expect("victim called on empty set")
    }
}

/// LIP: LRU Insertion Policy — fills land at the LRU position and are
/// promoted to MRU only on a subsequent hit. Thrash-resistant: a
/// streaming block is evicted immediately instead of walking the stack.
#[derive(Clone, Debug, Default)]
pub struct Lip {
    lru: InsertionLru,
}

impl Lip {
    /// Creates a LIP policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Lip {
    fn name(&self) -> &'static str {
        "LIP"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.lru.attach(num_sets, ways);
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.lru.touch_mru(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.lru.touch_lru(set, way);
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        self.lru.victim(set, metas.len())
    }

    fn set_local(&self) -> bool {
        // `touch_lru` clamps at 0 via saturating_sub: whether an LRU
        // insertion chain saturates (and then ties toward the lowest
        // way) depends on the absolute magnitude of the shared clock,
        // which differs between a whole-trace and a per-set replay.
        false
    }
}

/// BIP: Bimodal Insertion Policy — LIP, except one fill in
/// `BIP_EPSILON` (32) goes to MRU, letting the policy adapt when the
/// working set eventually fits.
#[derive(Clone, Debug, Default)]
pub struct Bip {
    lru: InsertionLru,
    fills: u32,
}

impl Bip {
    /// Creates a BIP policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Bip {
    fn name(&self) -> &'static str {
        "BIP"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.lru.attach(num_sets, ways);
        self.fills = 0;
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.lru.touch_mru(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.fills = self.fills.wrapping_add(1);
        if self.fills.is_multiple_of(BIP_EPSILON) {
            self.lru.touch_mru(set, way);
        } else {
            self.lru.touch_lru(set, way);
        }
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        self.lru.victim(set, metas.len())
    }

    fn set_local(&self) -> bool {
        // The epsilon promotion counts fills across ALL sets (and LIP's
        // clamp caveat applies too).
        false
    }
}

/// DIP: set-dueling between LRU insertion and BIP insertion with a
/// saturating PSEL counter (leader sets: one in 32 each way).
#[derive(Clone, Debug)]
pub struct Dip {
    lru: InsertionLru,
    fills: u32,
    psel: i32,
    psel_max: i32,
    duel_period: usize,
}

impl Dip {
    /// Creates a DIP policy with a 10-bit PSEL.
    pub fn new() -> Self {
        Dip {
            lru: InsertionLru::default(),
            fills: 0,
            psel: 0,
            psel_max: 512,
            duel_period: 32,
        }
    }

    /// `Some(true)` = LRU-insertion leader, `Some(false)` = BIP leader.
    fn leader(&self, set: usize) -> Option<bool> {
        match set % self.duel_period {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        }
    }

    /// Whether follower sets currently insert at MRU (plain LRU).
    pub fn followers_use_lru(&self) -> bool {
        self.psel <= 0
    }
}

impl Default for Dip {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementPolicy for Dip {
    fn name(&self) -> &'static str {
        "DIP"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.lru.attach(num_sets, ways);
        self.fills = 0;
        self.psel = 0;
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.lru.touch_mru(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        match self.leader(set) {
            Some(true) => self.psel = (self.psel + 1).min(self.psel_max),
            Some(false) => self.psel = (self.psel - 1).max(-self.psel_max),
            None => {}
        }
        let use_lru = match self.leader(set) {
            Some(l) => l,
            None => self.followers_use_lru(),
        };
        self.fills = self.fills.wrapping_add(1);
        if use_lru || self.fills.is_multiple_of(BIP_EPSILON) {
            self.lru.touch_mru(set, way);
        } else {
            self.lru.touch_lru(set, way);
        }
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        self.lru.victim(set, metas.len())
    }

    fn set_local(&self) -> bool {
        // Set dueling over a global PSEL plus a global fill counter.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::index::Indexing;
    use crate::meta::AccessKind;
    use crate::policy::Lru;
    use tcor_common::{BlockAddr, CacheParams};

    fn run_policy<P: ReplacementPolicy>(policy: P, seq: &[u64], lines: u64) -> u64 {
        let mut c = Cache::new(
            CacheParams::new(lines * 64, 64, 0, 1),
            Indexing::Modulo,
            policy,
        );
        for &b in seq {
            c.access(BlockAddr(b), AccessKind::Read, AccessMeta::NONE);
        }
        c.stats().hits()
    }

    #[test]
    fn lip_beats_lru_on_cyclic_thrash() {
        // 6-block cycle in 4 lines: LRU gets zero hits, LIP retains a
        // stable subset and hits on it.
        let seq: Vec<u64> = (0..6u64).cycle().take(120).collect();
        let lru_hits = run_policy(Lru::new(), &seq, 4);
        let lip_hits = run_policy(Lip::new(), &seq, 4);
        assert_eq!(lru_hits, 0);
        assert!(lip_hits > 40, "LIP only hit {lip_hits}");
    }

    #[test]
    fn lip_insertion_is_immediately_evictable() {
        let mut p = Lip::new();
        p.attach(1, 2);
        let metas = [AccessMeta::NONE; 2];
        p.on_fill(0, 0, &AccessMeta::NONE);
        p.on_hit(0, 0, &AccessMeta::NONE); // promote way 0
        p.on_fill(0, 1, &AccessMeta::NONE); // way 1 inserted at LRU
        assert_eq!(p.victim(0, &metas), 1);
    }

    /// LRU insertions clamp at stamp 0 and tie, and the scan evicts the
    /// lowest tied way: the oldest insert, not the newest.
    #[test]
    fn lip_zero_stamp_ties_evict_the_lowest_way() {
        let mut c = Cache::new(CacheParams::new(4, 1, 0, 1), Indexing::Modulo, Lip::new());
        for b in 0..4 {
            c.access(BlockAddr(b), AccessKind::Read, AccessMeta::NONE);
        }
        let out = c.access(BlockAddr(4), AccessKind::Read, AccessMeta::NONE);
        assert_eq!(out.evicted.map(|e| e.addr), Some(BlockAddr(0)));
    }

    #[test]
    fn bip_occasionally_promotes() {
        let mut p = Bip::new();
        p.attach(1, 4);
        // Drive exactly BIP_EPSILON fills into way 0; the last one hits
        // the epsilon slot and lands at MRU.
        for _ in 0..BIP_EPSILON {
            p.on_fill(0, 0, &AccessMeta::NONE);
        }
        let metas = [AccessMeta::NONE; 4];
        assert_ne!(p.victim(0, &metas), 0);
    }

    #[test]
    fn dip_tracks_the_better_insertion() {
        // Thrash pattern: BIP leaders miss less; PSEL should drift toward
        // BIP for followers.
        let seq: Vec<u64> = (0..2048u64).cycle().take(20_000).collect();
        let mut c = Cache::new(
            CacheParams::new(1024 * 64, 64, 8, 1), // 128 sets
            Indexing::Modulo,
            Dip::new(),
        );
        for &b in &seq {
            c.access(BlockAddr(b), AccessKind::Read, AccessMeta::NONE);
        }
        assert!(
            !c.policy().followers_use_lru(),
            "DIP should prefer BIP under thrash"
        );
    }

    #[test]
    fn on_friendly_workloads_all_match_lru() {
        // Working set fits: insertion placement is irrelevant to hits.
        let seq: Vec<u64> = (0..4u64).cycle().take(100).collect();
        let lru = run_policy(Lru::new(), &seq, 8);
        for hits in [
            run_policy(Lip::new(), &seq, 8),
            run_policy(Bip::new(), &seq, 8),
            run_policy(Dip::new(), &seq, 8),
        ] {
            assert_eq!(hits, lru);
        }
    }
}
