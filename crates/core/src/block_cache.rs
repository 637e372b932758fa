//! The LRU block cache of both Tile Cache organisations.
//!
//! The baseline's unified Tile Cache (§II.C, Fig. 5) and TCOR's Primitive
//! List Cache (§III.C.1) are the same structure: a conventional LRU cache
//! at 64-byte-block granularity. They differ only in what they front. The
//! unified cache serves both Parameter Buffer sections over the strided
//! PB-Lists layout (Fig. 3), so reading a primitive means reading each of
//! its attribute blocks through it — the per-line tags and block
//! granularity TCOR's Attribute Cache does away with. The Primitive List
//! Cache serves PB-Lists alone: that traffic is small (a 4-byte PMD versus
//! ~192 bytes of attributes per primitive) and nearly streaming, so the
//! paper keeps plain LRU there and spends its cleverness on the layout
//! (interleaving, Fig. 6).
//!
//! The cache works on block addresses; the frame driver maps PMDs and
//! attributes to blocks through the frame's PB layouts.

use tcor_cache::policy::Lru;
use tcor_cache::{AccessKind, AccessMeta, Cache, Indexing};
use tcor_common::{AccessStats, BlockAddr, CacheParams};

/// One block access outcome the frame driver must act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BlockAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// A dirty block displaced toward the L2, if any.
    pub writeback: Option<BlockAddr>,
}

/// An LRU cache over Parameter Buffer blocks.
#[derive(Clone, Debug)]
pub(crate) struct BlockCache {
    cache: Cache<Lru>,
}

impl BlockCache {
    /// Creates an empty cache of the given geometry.
    pub fn new(params: CacheParams) -> Self {
        BlockCache {
            cache: Cache::new(params, Indexing::Modulo, Lru::new()),
        }
    }

    /// Reads or writes `block`.
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> BlockAccess {
        let out = self.cache.access(block, kind, AccessMeta::NONE);
        BlockAccess {
            hit: out.hit,
            writeback: out.evicted.and_then(|e| e.dirty.then_some(e.addr)),
        }
    }

    /// End of frame: flush, handing each dirty block to `write_back`.
    pub fn drain_dirty(&mut self, mut write_back: impl FnMut(BlockAddr)) {
        self.cache.drain(|e| {
            if e.dirty {
                write_back(e.addr);
            }
        });
    }

    /// Capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.cache.params().size_bytes
    }

    /// Hit/miss statistics.
    pub fn stats(&self) -> &AccessStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_common::TileId;
    use tcor_pbuf::{AttributesLayout, ListsLayout, ListsScheme};

    const READ: AccessKind = AccessKind::Read;
    const WRITE: AccessKind = AccessKind::Write;

    /// The unified organisation in miniature: 16 lines, 4-way, over the
    /// strided PB-Lists layout and four primitives' attributes.
    fn unified() -> (BlockCache, ListsLayout, AttributesLayout) {
        (
            BlockCache::new(CacheParams::new(1024, 64, 4, 1)),
            ListsLayout::new(ListsScheme::Baseline, 64),
            AttributesLayout::new(&[3, 3, 2, 5]),
        )
    }

    /// A list cache in miniature: 4 lines, 2-way.
    fn lists(scheme: ListsScheme) -> (BlockCache, ListsLayout) {
        (
            BlockCache::new(CacheParams::new(256, 64, 2, 1)),
            ListsLayout::new(scheme, 64),
        )
    }

    #[test]
    fn attr_write_then_read_hits() {
        let (mut c, _, attrs) = unified();
        assert!(!c.access(attrs.attr_block(0, 0), WRITE).hit);
        assert!(c.access(attrs.attr_block(0, 0), READ).hit);
        assert!(
            !c.access(attrs.attr_block(0, 1), READ).hit,
            "different block per attribute"
        );
    }

    #[test]
    fn primitive_read_is_per_block() {
        let (mut c, _, attrs) = unified();
        // Reading primitive 3 (5 attributes) misses 5 blocks cold.
        for k in 0..5 {
            assert!(!c.access(attrs.attr_block(3, k), READ).hit);
        }
        assert_eq!(c.stats().read_misses, 5);
    }

    #[test]
    fn lists_and_attrs_share_capacity() {
        let (mut c, lists, attrs) = unified();
        c.access(lists.pmd_block(TileId(0), 0), WRITE);
        c.access(attrs.attr_block(0, 0), WRITE);
        assert_eq!(c.stats().writes(), 2);
        assert!(c.access(lists.pmd_block(TileId(0), 0), READ).hit);
    }

    #[test]
    fn pmds_in_same_block_hit_after_first_write() {
        let (mut c, layout) = lists(ListsScheme::Interleaved);
        assert!(!c.access(layout.pmd_block(TileId(0), 0), WRITE).hit);
        for n in 1..16 {
            assert!(
                c.access(layout.pmd_block(TileId(0), n), WRITE).hit,
                "PMD {n} shares the block"
            );
        }
        assert!(
            !c.access(layout.pmd_block(TileId(0), 16), WRITE).hit,
            "next block"
        );
    }

    #[test]
    fn read_after_write_hits_if_resident() {
        let (mut c, layout) = lists(ListsScheme::Interleaved);
        c.access(layout.pmd_block(TileId(3), 0), WRITE);
        assert!(c.access(layout.pmd_block(TileId(3), 0), READ).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let (mut c, layout) = lists(ListsScheme::Baseline);
        // Baseline layout: consecutive tiles stride 64 blocks -> with 2
        // sets they all collide in one set (the §III.B pathology).
        c.access(layout.pmd_block(TileId(0), 0), WRITE);
        c.access(layout.pmd_block(TileId(1), 0), WRITE);
        let third = c.access(layout.pmd_block(TileId(2), 0), WRITE);
        assert_eq!(
            third.writeback,
            Some(layout.pmd_block(TileId(0), 0)),
            "dirty LRU block written back"
        );
    }

    #[test]
    fn interleaved_layout_avoids_that_conflict() {
        let (mut c, layout) = lists(ListsScheme::Interleaved);
        c.access(layout.pmd_block(TileId(0), 0), WRITE);
        c.access(layout.pmd_block(TileId(1), 0), WRITE);
        let third = c.access(layout.pmd_block(TileId(2), 0), WRITE);
        assert!(
            third.writeback.is_none(),
            "consecutive tiles spread over sets"
        );
    }

    #[test]
    fn drain_returns_only_dirty_blocks() {
        let (mut c, lists, attrs) = unified();
        c.access(lists.pmd_block(TileId(0), 0), WRITE);
        c.access(attrs.attr_block(0, 0), WRITE);
        c.access(attrs.attr_block(0, 1), WRITE);
        c.access(lists.pmd_block(TileId(1), 0), READ); // clean fill
        c.access(attrs.attr_block(2, 0), READ); // clean fill
        let mut dirty = Vec::new();
        c.drain_dirty(|b| dirty.push(b));
        dirty.sort();
        let mut want = [
            lists.pmd_block(TileId(0), 0),
            attrs.attr_block(0, 0),
            attrs.attr_block(0, 1),
        ];
        want.sort();
        assert_eq!(dirty, want);
    }
}
