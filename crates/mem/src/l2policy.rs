//! The L2 replacement policy (§III.D.2).
//!
//! Baseline mode is plain LRU. TCOR mode prioritizes eviction classes:
//!
//! 1. **dead PB lines** — their last-use tile has completed; they will
//!    never be read again and need no write-back;
//! 2. **non-PB lines** — always clean (textures, vertices, instructions),
//!    so cheap to replace;
//! 3. **live PB lines** — may be dirty and will be read again.
//!
//! LRU orders victims within each class. The completed-tile watermark is
//! shared with the hierarchy through an `Rc<Cell<u64>>` — the hardware
//! equivalent is the Tile Fetcher's completion signal wire into the L2
//! control logic.

use crate::hierarchy::L2Mode;
use crate::pbtag::PbTag;
use std::cell::Cell;
use std::rc::Rc;
use tcor_cache::policy::ReplacementPolicy;
use tcor_cache::AccessMeta;

/// The L2 replacement policy, parameterized by the hierarchy's mode:
/// plain LRU for [`L2Mode::Baseline`], dead-line priority for
/// [`L2Mode::TcorEnhanced`].
#[derive(Clone, Debug)]
pub struct L2Policy {
    mode: L2Mode,
    watermark: Rc<Cell<u64>>,
    clock: u64,
    last_touch: Vec<u64>,
    ways: usize,
}

impl L2Policy {
    /// Creates the policy; `watermark` is the shared completed-tiles
    /// counter (advanced by the hierarchy on Tile Fetcher signals).
    pub fn new(mode: L2Mode, watermark: Rc<Cell<u64>>) -> Self {
        L2Policy {
            mode,
            watermark,
            clock: 0,
            last_touch: Vec::new(),
            ways: 0,
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.last_touch[set * self.ways + way] = self.clock;
    }

    /// Eviction class of a line once `completed` tiles have finished:
    /// lower is evicted first.
    fn class(meta: &AccessMeta, completed: u64) -> u8 {
        let tag = PbTag::decode(meta.user);
        if tag.is_dead(completed) {
            0
        } else if tag.kind == crate::pbtag::PbKind::None {
            1
        } else {
            2
        }
    }
}

impl ReplacementPolicy for L2Policy {
    fn name(&self) -> &'static str {
        match self.mode {
            L2Mode::Baseline => "L2-LRU",
            L2Mode::TcorEnhanced => "L2-TCOR",
        }
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
        // An empty candidate slice cannot happen (the engine only asks for
        // a victim in a full set), but way 0 is a safe infallible answer —
        // no panic path survives in victim selection.
        let base = set * self.ways;
        let stamps = &self.last_touch[base..base + metas.len()];
        match self.mode {
            L2Mode::Baseline => (0..stamps.len()).min_by_key(|&w| stamps[w]).unwrap_or(0),
            L2Mode::TcorEnhanced => {
                // One word per way orders as (class, stamp) does: a stamp
                // counts touches, so it stays below 2^62.
                let completed = self.watermark.get();
                (0..stamps.len())
                    .min_by_key(|&w| u64::from(Self::class(&metas[w], completed)) << 62 | stamps[w])
                    .unwrap_or(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_cache::{AccessKind, Cache, Indexing};
    use tcor_common::{BlockAddr, CacheParams, TileRank};

    fn tcor_l2(watermark: Rc<Cell<u64>>) -> Cache<L2Policy> {
        // 4 lines, fully associative, for policy micro-tests.
        Cache::new(
            CacheParams::new(256, 64, 0, 12),
            Indexing::Modulo,
            L2Policy::new(L2Mode::TcorEnhanced, watermark),
        )
    }

    fn meta(tag: PbTag) -> AccessMeta {
        AccessMeta::with_user(u64::MAX, tag.encode())
    }

    #[test]
    fn dead_lines_evicted_first_even_if_recent() {
        let wm = Rc::new(Cell::new(0));
        let mut l2 = tcor_l2(wm.clone());
        l2.access(
            BlockAddr(1),
            AccessKind::Write,
            meta(PbTag::attributes(TileRank(0))),
        );
        l2.access(BlockAddr(2), AccessKind::Read, meta(PbTag::NONE));
        l2.access(
            BlockAddr(3),
            AccessKind::Write,
            meta(PbTag::attributes(TileRank(9))),
        );
        l2.access(
            BlockAddr(1),
            AccessKind::Read,
            meta(PbTag::attributes(TileRank(0))),
        ); // refresh LRU
        l2.access(BlockAddr(4), AccessKind::Read, meta(PbTag::NONE));
        // Tile 0 completes -> block 1 is dead despite being recently used.
        wm.set(1);
        let out = l2.access(BlockAddr(5), AccessKind::Read, meta(PbTag::NONE));
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(1));
    }

    #[test]
    fn dead_line_boundary_at_watermark() {
        // A PB line with last_use == watermark is LIVE (its tile has not
        // completed yet); only last_use < watermark is dead. Guards the
        // audit's OPT/deadness invariants at the off-by-one boundary.
        let wm = Rc::new(Cell::new(0));
        let mut l2 = tcor_l2(wm.clone());
        l2.access(
            BlockAddr(1),
            AccessKind::Write,
            meta(PbTag::attributes(TileRank(3))),
        );
        l2.access(
            BlockAddr(2),
            AccessKind::Write,
            meta(PbTag::attributes(TileRank(4))),
        );
        l2.access(BlockAddr(3), AccessKind::Read, meta(PbTag::NONE));
        l2.access(BlockAddr(4), AccessKind::Read, meta(PbTag::NONE));
        // Tiles 0..=3 complete: rank 3 is below the watermark (dead), rank 4
        // sits exactly on it (live).
        wm.set(4);
        let out = l2.access(BlockAddr(5), AccessKind::Read, meta(PbTag::NONE));
        assert_eq!(
            out.evicted.unwrap().addr,
            BlockAddr(1),
            "rank 3 < 4 is dead"
        );
        // Next eviction must take a non-PB line, NOT the rank-4 line: if the
        // boundary were `<=`, block 2 would be class 0 and go first.
        let out = l2.access(BlockAddr(6), AccessKind::Read, meta(PbTag::NONE));
        assert_eq!(
            out.evicted.unwrap().addr,
            BlockAddr(3),
            "rank == watermark must be live"
        );
        assert!(l2.contains(BlockAddr(2)));
    }

    #[test]
    fn none_meta_hit_keeps_line_classified_as_pb() {
        // Regression for the hit-path meta clobber: a requester with no PB
        // knowledge (user word 0) hitting a tagged line must not strip its
        // tag; the line still turns dead when its tile completes.
        let wm = Rc::new(Cell::new(0));
        let mut l2 = tcor_l2(wm.clone());
        l2.access(
            BlockAddr(1),
            AccessKind::Write,
            meta(PbTag::attributes(TileRank(0))),
        );
        l2.access(BlockAddr(2), AccessKind::Read, meta(PbTag::NONE));
        l2.access(BlockAddr(3), AccessKind::Read, meta(PbTag::NONE));
        l2.access(BlockAddr(4), AccessKind::Read, meta(PbTag::NONE));
        // Tag-blind hit on the PB line (AccessMeta::NONE has user == 0).
        assert!(
            l2.access(BlockAddr(1), AccessKind::Read, AccessMeta::NONE)
                .hit
        );
        wm.set(1);
        let out = l2.access(BlockAddr(5), AccessKind::Read, meta(PbTag::NONE));
        assert_eq!(
            out.evicted.unwrap().addr,
            BlockAddr(1),
            "the line must still be a dead PB line, not recently-touched non-PB"
        );
    }

    #[test]
    fn non_pb_preferred_over_live_pb() {
        let wm = Rc::new(Cell::new(0));
        let mut l2 = tcor_l2(wm);
        l2.access(
            BlockAddr(1),
            AccessKind::Write,
            meta(PbTag::attributes(TileRank(9))),
        );
        l2.access(BlockAddr(2), AccessKind::Read, meta(PbTag::NONE));
        l2.access(
            BlockAddr(3),
            AccessKind::Write,
            meta(PbTag::lists(TileRank(5))),
        );
        l2.access(
            BlockAddr(4),
            AccessKind::Write,
            meta(PbTag::attributes(TileRank(7))),
        );
        // No dead lines; the single non-PB line (2) goes first even though
        // others are older or newer.
        let out = l2.access(BlockAddr(5), AccessKind::Read, meta(PbTag::NONE));
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(2));
    }

    #[test]
    fn lru_within_class() {
        let wm = Rc::new(Cell::new(0));
        let mut l2 = tcor_l2(wm);
        for b in 1..=4u64 {
            l2.access(BlockAddr(b), AccessKind::Read, meta(PbTag::NONE));
        }
        l2.access(BlockAddr(1), AccessKind::Read, meta(PbTag::NONE));
        let out = l2.access(BlockAddr(9), AccessKind::Read, meta(PbTag::NONE));
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(2));
    }

    #[test]
    fn baseline_mode_is_plain_lru_ignoring_tags() {
        let wm = Rc::new(Cell::new(100)); // everything PB would be dead
        let mut l2 = Cache::new(
            CacheParams::new(256, 64, 0, 12),
            Indexing::Modulo,
            L2Policy::new(L2Mode::Baseline, wm),
        );
        l2.access(BlockAddr(1), AccessKind::Read, meta(PbTag::NONE));
        l2.access(
            BlockAddr(2),
            AccessKind::Write,
            meta(PbTag::attributes(TileRank(0))),
        );
        l2.access(BlockAddr(3), AccessKind::Read, meta(PbTag::NONE));
        l2.access(BlockAddr(4), AccessKind::Read, meta(PbTag::NONE));
        let out = l2.access(BlockAddr(5), AccessKind::Read, meta(PbTag::NONE));
        // Pure LRU: block 1, not the dead PB block 2.
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(1));
    }
}
