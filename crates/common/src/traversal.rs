//! Tile traversal orders.
//!
//! The Tile Fetcher processes tiles "in an order specified by the Tiling
//! Engine" (§II.A) which is *fixed and known beforehand* — the property
//! that makes OPT implementable. Table I uses **Z-order** (Morton order);
//! scanline order is provided as well (the paper's worked example of
//! Fig. 9/10 uses it) along with its reverse for experimentation.
//!
//! A [`TraversalOrder`] owns both directions of the mapping:
//! position-in-order → [`TileId`], and [`TileId`] → [`TileRank`].

use crate::grid::TileGrid;
use crate::ids::{TileId, TileRank};

/// The traversal orders supported by the Tiling Engine model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Traversal {
    /// Row-major, left-to-right, top-to-bottom (Fig. 9's example order).
    Scanline,
    /// Morton / Z-order curve over tile coordinates (Table I). Improves
    /// spatial locality between consecutively fetched tiles.
    #[default]
    ZOrder,
    /// Boustrophedon: scanline with every other row reversed. Keeps
    /// consecutive tiles spatially adjacent at row ends.
    Serpentine,
    /// Hilbert curve over tile coordinates: every consecutive pair of
    /// tiles is edge-adjacent (stronger locality than Z-order, which
    /// jumps at quadrant boundaries).
    Hilbert,
}

impl Traversal {
    /// Builds the concrete traversal order for `grid`.
    pub fn order(self, grid: &TileGrid) -> TraversalOrder {
        let (tx, ty) = (grid.tiles_x(), grid.tiles_y());
        let mut tiles: Vec<TileId> = Vec::with_capacity(grid.num_tiles());
        match self {
            Traversal::Scanline => {
                for y in 0..ty {
                    for x in 0..tx {
                        tiles.push(grid.tile_id(x, y));
                    }
                }
            }
            Traversal::Serpentine => {
                for y in 0..ty {
                    if y % 2 == 0 {
                        for x in 0..tx {
                            tiles.push(grid.tile_id(x, y));
                        }
                    } else {
                        for x in (0..tx).rev() {
                            tiles.push(grid.tile_id(x, y));
                        }
                    }
                }
            }
            Traversal::ZOrder => {
                // Enumerate Morton codes of the enclosing power-of-two
                // square and keep in-grid tiles; their relative Morton order
                // is the Z traversal of the (possibly non-square) grid.
                let side = tx.max(ty).next_power_of_two();
                let total = (side as u64) * (side as u64);
                for code in 0..total {
                    let (x, y) = morton_decode(code);
                    if x < tx && y < ty {
                        tiles.push(grid.tile_id(x, y));
                    }
                }
            }
            Traversal::Hilbert => {
                let side = tx.max(ty).next_power_of_two();
                let total = (side as u64) * (side as u64);
                for d in 0..total {
                    let (x, y) = hilbert_d2xy(side, d);
                    if x < tx && y < ty {
                        tiles.push(grid.tile_id(x, y));
                    }
                }
            }
        }
        TraversalOrder::from_tiles(tiles, grid.num_tiles())
    }
}

/// A concrete tile processing order with O(1) rank lookup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraversalOrder {
    tiles: Vec<TileId>,
    ranks: Vec<TileRank>,
}

impl TraversalOrder {
    /// Builds an order from an explicit permutation of tile ids.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is not a permutation of `0..num_tiles`.
    pub fn from_tiles(tiles: Vec<TileId>, num_tiles: usize) -> Self {
        assert_eq!(tiles.len(), num_tiles, "order must cover every tile");
        let mut ranks = vec![TileRank::NEVER; num_tiles];
        for (pos, t) in tiles.iter().enumerate() {
            assert!(t.index() < num_tiles, "tile id out of range");
            assert!(
                ranks[t.index()].is_never(),
                "tile {t:?} appears twice in traversal"
            );
            ranks[t.index()] = TileRank(pos as u32);
        }
        TraversalOrder { tiles, ranks }
    }

    /// Number of tiles in the order.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// True if the order is empty (never the case for a real grid).
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// The tile processed at position `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn tile_at(&self, rank: TileRank) -> TileId {
        self.tiles[rank.value() as usize]
    }

    /// The traversal position of `tile`.
    pub fn rank_of(&self, tile: TileId) -> TileRank {
        self.ranks[tile.index()]
    }

    /// Iterate over tiles in processing order.
    pub fn iter(&self) -> impl Iterator<Item = TileId> + '_ {
        self.tiles.iter().copied()
    }
}

/// Interleaves the low 16 bits of `x` and `y` into a Morton code
/// (`x` in even bit positions).
pub fn morton_encode(x: u32, y: u32) -> u64 {
    (spread_bits(x) | (spread_bits(y) << 1)) as u64
}

/// Inverse of [`morton_encode`] for codes produced from 16-bit coordinates
/// (codes fit in 32 bits).
pub fn morton_decode(code: u64) -> (u32, u32) {
    debug_assert!(code <= u32::MAX as u64, "morton code out of 16-bit range");
    (compact_bits(code as u32), compact_bits((code >> 1) as u32))
}

fn spread_bits(mut v: u32) -> u32 {
    v &= 0xFFFF;
    v = (v | (v << 8)) & 0x00FF_00FF;
    v = (v | (v << 4)) & 0x0F0F_0F0F;
    v = (v | (v << 2)) & 0x3333_3333;
    v = (v | (v << 1)) & 0x5555_5555;
    v
}

/// Converts a distance `d` along the Hilbert curve of an `n`×`n` grid
/// (`n` a power of two) to coordinates — the classic bit-twiddling walk.
pub fn hilbert_d2xy(n: u32, d: u64) -> (u32, u32) {
    debug_assert!(n.is_power_of_two());
    let (mut x, mut y) = (0u32, 0u32);
    let mut t = d;
    let mut s = 1u32;
    while s < n {
        let rx = ((t / 2) & 1) as u32;
        let ry = ((t ^ (rx as u64)) & 1) as u32;
        // Rotate quadrant.
        if ry == 0 {
            if rx == 1 {
                x = s.wrapping_sub(1).wrapping_sub(x);
                y = s.wrapping_sub(1).wrapping_sub(y);
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s *= 2;
    }
    (x, y)
}

fn compact_bits(mut v: u32) -> u32 {
    v &= 0x5555_5555;
    v = (v | (v >> 1)) & 0x3333_3333;
    v = (v | (v >> 2)) & 0x0F0F_0F0F;
    v = (v | (v >> 4)) & 0x00FF_00FF;
    v = (v | (v >> 8)) & 0x0000_FFFF;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::TileGrid;

    #[test]
    fn morton_roundtrip() {
        for x in 0..33 {
            for y in 0..33 {
                assert_eq!(morton_decode(morton_encode(x, y)), (x, y));
            }
        }
    }

    #[test]
    fn morton_first_codes() {
        // The canonical Z pattern: (0,0) (1,0) (0,1) (1,1) (2,0) ...
        assert_eq!(morton_encode(0, 0), 0);
        assert_eq!(morton_encode(1, 0), 1);
        assert_eq!(morton_encode(0, 1), 2);
        assert_eq!(morton_encode(1, 1), 3);
        assert_eq!(morton_encode(2, 0), 4);
    }

    #[test]
    fn scanline_order_is_row_major() {
        let g = TileGrid::new(96, 64, 32); // 3x2 tiles
        let o = Traversal::Scanline.order(&g);
        let ids: Vec<u32> = o.iter().map(|t| t.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn serpentine_reverses_odd_rows() {
        let g = TileGrid::new(96, 64, 32); // 3x2 tiles
        let o = Traversal::Serpentine.order(&g);
        let ids: Vec<u32> = o.iter().map(|t| t.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 5, 4, 3]);
    }

    #[test]
    fn zorder_on_square_grid_is_z_pattern() {
        let g = TileGrid::new(64, 64, 32); // 2x2 tiles
        let o = Traversal::ZOrder.order(&g);
        let coords: Vec<(u32, u32)> = o.iter().map(|t| g.tile_coords(t)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn every_order_is_a_permutation() {
        let g = TileGrid::new(1960, 768, 32);
        for t in [
            Traversal::Scanline,
            Traversal::ZOrder,
            Traversal::Serpentine,
            Traversal::Hilbert,
        ] {
            let o = t.order(&g);
            assert_eq!(o.len(), g.num_tiles());
            let mut seen = vec![false; g.num_tiles()];
            for tile in o.iter() {
                assert!(!seen[tile.index()], "{t:?} repeats {tile:?}");
                seen[tile.index()] = true;
            }
            assert!(seen.iter().all(|&s| s), "{t:?} misses tiles");
        }
    }

    #[test]
    fn rank_and_tile_are_inverse() {
        let g = TileGrid::new(1960, 768, 32);
        let o = Traversal::ZOrder.order(&g);
        for (pos, tile) in o.iter().enumerate() {
            assert_eq!(o.rank_of(tile), TileRank(pos as u32));
            assert_eq!(o.tile_at(TileRank(pos as u32)), tile);
        }
    }

    #[test]
    fn hilbert_consecutive_tiles_are_adjacent() {
        // The defining property: on a square power-of-two grid, each step
        // moves exactly one tile horizontally or vertically.
        let g = TileGrid::new(256, 256, 32); // 8x8
        let o = Traversal::Hilbert.order(&g);
        let coords: Vec<(u32, u32)> = o.iter().map(|t| g.tile_coords(t)).collect();
        for w in coords.windows(2) {
            let dx = w[0].0.abs_diff(w[1].0);
            let dy = w[0].1.abs_diff(w[1].1);
            assert_eq!(dx + dy, 1, "{:?} -> {:?} not adjacent", w[0], w[1]);
        }
    }

    #[test]
    fn hilbert_d2xy_covers_square() {
        let n = 8u32;
        let mut seen = std::collections::HashSet::new();
        for d in 0..(n as u64 * n as u64) {
            let (x, y) = hilbert_d2xy(n, d);
            assert!(x < n && y < n);
            assert!(seen.insert((x, y)), "repeat at d={d}");
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_tile_in_order_panics() {
        TraversalOrder::from_tiles(vec![TileId(0), TileId(0)], 2);
    }
}
