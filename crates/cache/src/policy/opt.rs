//! The OPT replacement policy (Mattson et al. \[27\]) — TCOR's centrepiece.
//!
//! OPT evicts, among the candidate lines of a set, the one whose **next
//! access lies farthest in the future**. It is provably optimal for miss
//! minimization but needs future knowledge; TCOR obtains that knowledge
//! for the Parameter Buffer because the Polygon List Builder knows, at
//! binning time, every tile that will later read each primitive
//! (§III.A).
//!
//! The same policy object serves two modes, distinguished only by what the
//! caller passes in [`AccessMeta::next_use`]:
//!
//! * **Exact Belady** — the absolute trace position of the next reference
//!   (from [`crate::trace::annotate_next_use`]); this is the offline
//!   yardstick of Figs. 1/11/12/13.
//! * **TCOR hardware OPT** — the 12-bit *OPT Number* (traversal rank of
//!   the next tile that uses the datum), updated on every hit with the
//!   rank carried by the request, exactly as the Primitive Buffer does.

use super::ReplacementPolicy;
use crate::meta::AccessMeta;

/// Greatest-next-use replacement. Stores each line's `next_use` priority
/// and evicts the maximum (ties broken toward the lowest way).
#[derive(Clone, Debug, Default)]
pub struct Opt {
    next_use: Vec<u64>,
    ways: usize,
}

impl Opt {
    /// Creates an OPT policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Opt {
    fn name(&self) -> &'static str {
        "OPT"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.ways = ways;
        self.next_use = vec![u64::MAX; num_sets * ways];
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        // §III.C.3 (Hit): "The OPT Number of that line is then updated
        // with the one provided by the request."
        self.next_use[set * self.ways + way] = meta.next_use;
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        self.next_use[set * self.ways + way] = meta.next_use;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.next_use[set * self.ways + way] = u64::MAX;
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        let base = set * self.ways;
        let mut best = 0usize;
        let mut best_nu = 0u64;
        for w in 0..metas.len() {
            let nu = self.next_use[base + w];
            if w == 0 || nu > best_nu {
                best = w;
                best_nu = nu;
            }
        }
        best
    }

    fn set_local(&self) -> bool {
        // Per-line next-use priorities supplied by the caller; ties
        // break to the lowest way regardless of any global state.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::index::Indexing;
    use crate::meta::AccessKind;
    use crate::policy::Lru;
    use crate::trace::{annotate_next_use, Access};
    use tcor_common::{BlockAddr, CacheParams};

    #[test]
    fn evicts_farthest_next_use() {
        let mut cache = Cache::new(
            CacheParams::new(128, 64, 0, 1),
            Indexing::Modulo,
            Opt::new(),
        );
        cache.access(BlockAddr(1), AccessKind::Write, AccessMeta::next_use(10));
        cache.access(BlockAddr(2), AccessKind::Write, AccessMeta::next_use(3));
        let out = cache.access(BlockAddr(3), AccessKind::Write, AccessMeta::next_use(5));
        // Block 1 (next use at 10) is farthest away.
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(1));
        assert!(cache.contains(BlockAddr(2)));
    }

    #[test]
    fn never_used_again_is_first_victim() {
        let mut cache = Cache::new(
            CacheParams::new(128, 64, 0, 1),
            Indexing::Modulo,
            Opt::new(),
        );
        cache.access(
            BlockAddr(1),
            AccessKind::Read,
            AccessMeta::next_use(u64::MAX),
        );
        cache.access(BlockAddr(2), AccessKind::Read, AccessMeta::next_use(50));
        let out = cache.access(BlockAddr(3), AccessKind::Read, AccessMeta::next_use(4));
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(1));
    }

    #[test]
    fn hit_refreshes_stored_next_use() {
        let mut cache = Cache::new(
            CacheParams::new(128, 64, 0, 1),
            Indexing::Modulo,
            Opt::new(),
        );
        cache.access(BlockAddr(1), AccessKind::Read, AccessMeta::next_use(5));
        cache.access(BlockAddr(2), AccessKind::Read, AccessMeta::next_use(7));
        // Re-access block 1: its *new* next use is far away (100).
        cache.access(BlockAddr(1), AccessKind::Read, AccessMeta::next_use(100));
        let out = cache.access(BlockAddr(3), AccessKind::Read, AccessMeta::next_use(8));
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(1));
    }

    /// Tie-break property: when several lines share the greatest next-use,
    /// the victim is always the **lowest way** holding it — deterministic
    /// selection is what makes replacement auditable. Swept over several
    /// fully-associative geometries, tie values, and positions of the
    /// tying group.
    #[test]
    fn equal_next_use_ties_break_to_lowest_way() {
        for ways in [2usize, 4, 8] {
            for tie in [100u64, 4096, u64::MAX] {
                for first_tying_way in 0..ways {
                    let mut cache = Cache::new(
                        CacheParams::new(ways as u64 * 64, 64, 0, 1),
                        Indexing::Modulo,
                        Opt::new(),
                    );
                    // Ways below `first_tying_way` get strictly nearer next
                    // uses (w < ways <= 8 < tie); the rest all tie at `tie`.
                    for w in 0..ways {
                        let nu = if w < first_tying_way { w as u64 } else { tie };
                        cache.access(
                            BlockAddr(w as u64),
                            AccessKind::Read,
                            AccessMeta::next_use(nu),
                        );
                    }
                    let out =
                        cache.access(BlockAddr(999), AccessKind::Read, AccessMeta::next_use(0));
                    assert_eq!(
                        out.evicted.unwrap().addr,
                        BlockAddr(first_tying_way as u64),
                        "ways={ways} tie={tie} first_tying_way={first_tying_way}"
                    );
                }
            }
        }
    }

    /// Belady's inequality: with exact next-use annotations, OPT never
    /// misses more than LRU on the same fully-associative geometry.
    #[test]
    fn opt_beats_or_ties_lru_on_looping_trace() {
        let blocks: Vec<u64> = (0..6u64).cycle().take(120).collect();
        let accesses: Vec<Access> = blocks.iter().map(|&b| Access::read(BlockAddr(b))).collect();
        let annotated = annotate_next_use(&accesses);

        let params = CacheParams::new(4 * 64, 64, 0, 1);
        let mut opt_cache = Cache::new(params, Indexing::Modulo, Opt::new());
        let mut lru_cache = Cache::new(params, Indexing::Modulo, Lru::new());
        for (a, nu) in accesses.iter().zip(&annotated) {
            opt_cache.access(a.addr, a.kind, AccessMeta::next_use(*nu));
            lru_cache.access(a.addr, a.kind, AccessMeta::NONE);
        }
        // LRU thrashes on a 6-block loop in a 4-line cache (0 hits);
        // OPT keeps 3 loop blocks resident.
        assert_eq!(lru_cache.stats().hits(), 0);
        assert!(opt_cache.stats().misses() < lru_cache.stats().misses());
        assert!(opt_cache.stats().hits() >= 3 * (120 / 6 - 2) as u64);
    }
}
