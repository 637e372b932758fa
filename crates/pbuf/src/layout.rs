//! Address math for the two Parameter Buffer sections.

use crate::region::bases;
use tcor_common::{Address, BlockAddr, TileId, LINE_SIZE};

/// PMDs per 64-byte memory block (4-byte PMDs).
pub const PMDS_PER_BLOCK: u32 = 16;

/// Baseline list capacity: "each tile is allotted a maximum of 1024
/// primitives, the list for the next tile begins 64 blocks after the
/// current one" (§II.B).
pub const MAX_PRIMS_PER_TILE_BASELINE: u32 = 1024;

const BLOCKS_PER_TILE_BASELINE: u64 = (MAX_PRIMS_PER_TILE_BASELINE / PMDS_PER_BLOCK) as u64;

/// How PB-Lists places each tile's PMD list in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ListsScheme {
    /// Contiguous per-tile regions of 64 blocks (Fig. 3). The sparse,
    /// power-of-two-strided layout that causes the conflict-miss
    /// pathology §III.B describes.
    Baseline,
    /// TCOR's interleaving (Fig. 6): section *s* holds block *s* of every
    /// tile's list, one block per tile, so consecutive tiles' lists sit in
    /// consecutive blocks.
    Interleaved,
}

/// PB-Lists address calculator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ListsLayout {
    scheme: ListsScheme,
    base: Address,
    num_tiles: u32,
}

impl ListsLayout {
    /// Creates a layout over `num_tiles` tiles at the standard PB-Lists
    /// base address.
    ///
    /// # Panics
    ///
    /// Panics if `num_tiles` is zero.
    pub fn new(scheme: ListsScheme, num_tiles: u32) -> Self {
        assert!(num_tiles > 0, "a frame has at least one tile");
        ListsLayout {
            scheme,
            base: Address(bases::PB_LISTS),
            num_tiles,
        }
    }

    /// The layout scheme.
    pub fn scheme(&self) -> ListsScheme {
        self.scheme
    }

    /// The PB-Lists base pointer.
    pub fn base(&self) -> Address {
        self.base
    }

    /// Byte address of the `n`-th PMD in `tile`'s list.
    ///
    /// # Panics
    ///
    /// Panics if the tile is out of range, or (baseline only) if `n`
    /// exceeds the 1024-entry allotment.
    pub fn pmd_addr(&self, tile: TileId, n: u32) -> Address {
        assert!(tile.0 < self.num_tiles, "tile out of range");
        let within = (n % PMDS_PER_BLOCK) as u64 * 4;
        let block = match self.scheme {
            ListsScheme::Baseline => {
                assert!(
                    n < MAX_PRIMS_PER_TILE_BASELINE,
                    "baseline list overflow: PMD {n} in {tile:?}"
                );
                tile.0 as u64 * BLOCKS_PER_TILE_BASELINE + (n / PMDS_PER_BLOCK) as u64
            }
            ListsScheme::Interleaved => {
                let section = (n / PMDS_PER_BLOCK) as u64;
                section * self.num_tiles as u64 + tile.0 as u64
            }
        };
        Address(self.base.0 + block * LINE_SIZE + within)
    }

    /// Block containing the `n`-th PMD of `tile`'s list.
    pub fn pmd_block(&self, tile: TileId, n: u32) -> BlockAddr {
        self.pmd_addr(tile, n).block()
    }

    /// Which tile's list a PB-Lists block belongs to (every PB-Lists block
    /// belongs to exactly one tile in both schemes). Returns `None` for
    /// blocks outside this layout's address range.
    ///
    /// This is the derivation §III.D.1 performs in the L2 to tag PB-Lists
    /// lines with their (single, last-use) tile.
    pub fn tile_of_block(&self, block: BlockAddr) -> Option<TileId> {
        let byte = block.base().0;
        if byte < self.base.0 {
            return None;
        }
        let rel_block = (byte - self.base.0) / LINE_SIZE;
        let tile = match self.scheme {
            ListsScheme::Baseline => rel_block / BLOCKS_PER_TILE_BASELINE,
            ListsScheme::Interleaved => rel_block % self.num_tiles as u64,
        };
        (tile < self.num_tiles as u64
            && (self.scheme == ListsScheme::Interleaved || rel_block < self.footprint_blocks()))
        .then_some(TileId(tile as u32))
    }

    fn footprint_blocks(&self) -> u64 {
        self.num_tiles as u64 * BLOCKS_PER_TILE_BASELINE
    }

    /// Bytes the layout reserves when the longest list holds
    /// `max_list_len` PMDs (baseline reserves its full allotment
    /// regardless — that is exactly its sparsity problem).
    pub fn footprint_bytes(&self, max_list_len: u32) -> u64 {
        match self.scheme {
            ListsScheme::Baseline => self.footprint_blocks() * LINE_SIZE,
            ListsScheme::Interleaved => {
                let sections = max_list_len.div_ceil(PMDS_PER_BLOCK).max(1) as u64;
                sections * self.num_tiles as u64 * LINE_SIZE
            }
        }
    }
}

/// PB-Attributes address calculator (Fig. 4).
///
/// Each attribute occupies 48 bytes (16 per triangle vertex) and is
/// block-aligned, i.e. one 64-byte block per attribute; a primitive's
/// attributes are consecutive blocks. Built from the per-primitive
/// attribute counts of a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttributesLayout {
    base: Address,
    /// `prefix[p]` = number of attribute blocks before primitive `p`;
    /// has `num_prims + 1` entries.
    prefix: Vec<u32>,
}

impl AttributesLayout {
    /// Builds the layout from per-primitive attribute counts, at the
    /// standard PB-Attributes base address.
    ///
    /// # Panics
    ///
    /// Panics if any primitive has zero or more than 15 attributes (the
    /// PMD field is 4 bits).
    pub fn new(attr_counts: &[u8]) -> Self {
        let mut prefix = Vec::with_capacity(attr_counts.len() + 1);
        let mut acc = 0u32;
        prefix.push(0);
        for (p, &c) in attr_counts.iter().enumerate() {
            assert!(
                (1..=crate::pmd::MAX_ATTRS).contains(&c),
                "primitive {p} has invalid attribute count {c}"
            );
            acc += c as u32;
            prefix.push(acc);
        }
        AttributesLayout {
            base: Address(bases::PB_ATTRIBUTES),
            prefix,
        }
    }

    /// Number of primitives covered.
    pub fn num_primitives(&self) -> usize {
        self.prefix.len() - 1
    }

    /// Attribute count of primitive `p`.
    pub fn attr_count(&self, p: usize) -> u8 {
        (self.prefix[p + 1] - self.prefix[p]) as u8
    }

    /// Byte address of attribute `k` of primitive `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` or `k` is out of range.
    pub fn attr_addr(&self, p: usize, k: u8) -> Address {
        assert!(p < self.num_primitives(), "primitive out of range");
        assert!(k < self.attr_count(p), "attribute out of range");
        Address(self.base.0 + (self.prefix[p] as u64 + k as u64) * LINE_SIZE)
    }

    /// Block of attribute `k` of primitive `p` (one attribute per block).
    pub fn attr_block(&self, p: usize, k: u8) -> BlockAddr {
        self.attr_addr(p, k).block()
    }

    /// Which primitive an in-range PB-Attributes block belongs to.
    pub fn primitive_of_block(&self, block: BlockAddr) -> Option<usize> {
        let byte = block.base().0;
        if byte < self.base.0 {
            return None;
        }
        let rel = ((byte - self.base.0) / LINE_SIZE) as u32;
        if rel >= *self.prefix.last().unwrap() {
            return None;
        }
        // prefix is sorted; find p with prefix[p] <= rel < prefix[p+1].
        match self.prefix.binary_search(&rel) {
            Ok(mut i) => {
                // Skip possible equal runs (never happens: counts >= 1).
                while i + 1 < self.prefix.len() && self.prefix[i + 1] == rel {
                    i += 1;
                }
                Some(i)
            }
            Err(i) => Some(i - 1),
        }
    }

    /// Total footprint in bytes (one block per attribute).
    pub fn footprint_bytes(&self) -> u64 {
        *self.prefix.last().unwrap() as u64 * LINE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_stride_is_64_blocks_per_tile() {
        let l = ListsLayout::new(ListsScheme::Baseline, 100);
        let a0 = l.pmd_addr(TileId(0), 0);
        let a1 = l.pmd_addr(TileId(1), 0);
        assert_eq!(a1.0 - a0.0, 64 * LINE_SIZE);
        // 16 PMDs per block, then the next block.
        assert_eq!(l.pmd_addr(TileId(0), 15).block(), a0.block());
        assert_eq!(l.pmd_addr(TileId(0), 16).block().0, a0.block().0 + 1);
    }

    #[test]
    fn interleaved_consecutive_tiles_are_consecutive_blocks() {
        let l = ListsLayout::new(ListsScheme::Interleaved, 100);
        let a0 = l.pmd_addr(TileId(0), 0);
        let a1 = l.pmd_addr(TileId(1), 0);
        assert_eq!(a1.0 - a0.0, LINE_SIZE);
        // Section 1 of tile 0 comes after every tile's section 0.
        let s1 = l.pmd_addr(TileId(0), 16);
        assert_eq!(s1.0 - a0.0, 100 * LINE_SIZE);
    }

    #[test]
    fn pmd_offsets_within_block() {
        let l = ListsLayout::new(ListsScheme::Interleaved, 10);
        assert_eq!(l.pmd_addr(TileId(3), 0).block_offset(), 0);
        assert_eq!(l.pmd_addr(TileId(3), 1).block_offset(), 4);
        assert_eq!(l.pmd_addr(TileId(3), 15).block_offset(), 60);
    }

    #[test]
    fn tile_of_block_roundtrip_both_schemes() {
        for scheme in [ListsScheme::Baseline, ListsScheme::Interleaved] {
            let l = ListsLayout::new(scheme, 37);
            for t in [0u32, 1, 17, 36] {
                for n in [0u32, 15, 16, 40] {
                    let b = l.pmd_block(TileId(t), n);
                    assert_eq!(l.tile_of_block(b), Some(TileId(t)), "{scheme:?} t{t} n{n}");
                }
            }
            assert_eq!(l.tile_of_block(BlockAddr(0)), None);
        }
    }

    #[test]
    #[should_panic(expected = "baseline list overflow")]
    fn baseline_overflow_panics() {
        let l = ListsLayout::new(ListsScheme::Baseline, 4);
        l.pmd_addr(TileId(0), 1024);
    }

    #[test]
    fn interleaved_has_no_hard_list_limit() {
        let l = ListsLayout::new(ListsScheme::Interleaved, 4);
        // 5000 > 1024: interleaving appends more sections.
        let a = l.pmd_addr(TileId(2), 5000);
        assert!(a.0 > bases::PB_LISTS);
    }

    #[test]
    fn footprints() {
        let b = ListsLayout::new(ListsScheme::Baseline, 10);
        assert_eq!(b.footprint_bytes(3), 10 * 64 * LINE_SIZE);
        let i = ListsLayout::new(ListsScheme::Interleaved, 10);
        assert_eq!(i.footprint_bytes(3), 10 * LINE_SIZE); // one section
        assert_eq!(i.footprint_bytes(17), 2 * 10 * LINE_SIZE); // two sections
    }

    #[test]
    fn attributes_consecutive_blocks() {
        let l = AttributesLayout::new(&[3, 1, 2]);
        assert_eq!(l.num_primitives(), 3);
        assert_eq!(l.attr_count(0), 3);
        assert_eq!(l.attr_addr(0, 0).0, bases::PB_ATTRIBUTES);
        assert_eq!(l.attr_addr(0, 2).0, bases::PB_ATTRIBUTES + 2 * LINE_SIZE);
        assert_eq!(l.attr_addr(1, 0).0, bases::PB_ATTRIBUTES + 3 * LINE_SIZE);
        assert_eq!(l.attr_addr(2, 1).0, bases::PB_ATTRIBUTES + 5 * LINE_SIZE);
        assert_eq!(l.footprint_bytes(), 6 * LINE_SIZE);
    }

    #[test]
    fn attributes_block_to_primitive() {
        let l = AttributesLayout::new(&[3, 1, 2]);
        for p in 0..3 {
            for k in 0..l.attr_count(p) {
                assert_eq!(l.primitive_of_block(l.attr_block(p, k)), Some(p));
            }
        }
        assert_eq!(l.primitive_of_block(BlockAddr(0)), None);
        let past_end = BlockAddr(bases::PB_ATTRIBUTES / LINE_SIZE + 6);
        assert_eq!(l.primitive_of_block(past_end), None);
    }

    #[test]
    #[should_panic(expected = "invalid attribute count")]
    fn zero_attr_count_panics() {
        AttributesLayout::new(&[0]);
    }
}
