//! The Polygon List Builder (binner) and the Tiling Engine access streams.
//!
//! Binning turns a visible scene into a [`BinnedFrame`] (bounding-box
//! overlap test per primitive, Antochi-style \[2\]) and estimates the
//! fragment load each tile will put on the Raster Pipeline.
//!
//! The iterators [`PlbOps`] and [`FetchOps`] generate the exact logical
//! access streams of the two Tiling Engine stages ([`plb_ops`] and
//! [`fetch_ops`] collect them); the baseline and TCOR cache organizations
//! in `tcor` replay the *same* streams, so measured differences come only
//! from the memory hierarchy — the paper's experimental setup.

use crate::scene::Scene;
use tcor_common::{PrimitiveId, TileGrid, TileId, TileRank, TraversalOrder};
use tcor_pbuf::{BinnedFrame, PMDS_PER_BLOCK};

/// The tile-overlap test the Polygon List Builder uses.
///
/// The baseline (and the paper's related work \[2\]) bins by primitive
/// bounding box — fast but with false overlaps for thin diagonal
/// triangles. [`OverlapTest::Exact`] runs a separating-axis triangle/tile
/// test, eliminating false overlaps at extra binning compute (the
/// trade-off studied by Yang et al., the paper's reference \[39\]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OverlapTest {
    /// Conservative bounding-box binning (the baseline).
    #[default]
    BoundingBox,
    /// Exact triangle/tile intersection (SAT).
    Exact,
}

/// A binned frame plus raster-load estimates.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The Parameter Buffer content.
    pub binned: BinnedFrame,
    /// Estimated fragments per tile (triangle area spread uniformly over
    /// the tiles its bounding box overlaps — a coverage estimate for the
    /// raster traffic and energy models).
    pub fragments_per_tile: Vec<f64>,
}

impl Frame {
    /// Total estimated fragments in the frame.
    pub fn total_fragments(&self) -> f64 {
        self.fragments_per_tile.iter().sum()
    }
}

/// Bins `scene` over `grid` with bounding-box overlap (the baseline
/// test; see [`bin_scene_with`] for the exact variant).
///
/// Primitives whose bounding box misses the screen entirely are skipped
/// (the Geometry Pipeline should have culled them; skipping keeps the
/// binner total).
pub fn bin_scene(scene: &Scene, grid: &TileGrid, order: &TraversalOrder) -> Frame {
    bin_scene_with(scene, grid, order, OverlapTest::BoundingBox)
}

/// Bins `scene` with the chosen [`OverlapTest`].
pub fn bin_scene_with(
    scene: &Scene,
    grid: &TileGrid,
    order: &TraversalOrder,
    test: OverlapTest,
) -> Frame {
    let mut prim_tiles: Vec<(u8, Vec<TileId>)> = Vec::with_capacity(scene.len());
    let mut fragments_per_tile = vec![0.0f64; grid.num_tiles()];
    let ts = grid.tile_size() as f32;
    for prim in scene.primitives() {
        let mut tiles = grid.tiles_overlapping(&prim.tri.bbox());
        if test == OverlapTest::Exact {
            tiles.retain(|t| {
                let (tx, ty) = grid.tile_coords(*t);
                let rect = tcor_common::Rect::new(
                    tx as f32 * ts,
                    ty as f32 * ts,
                    (tx + 1) as f32 * ts,
                    (ty + 1) as f32 * ts,
                );
                prim.tri.overlaps_rect(&rect)
            });
        }
        if tiles.is_empty() {
            continue;
        }
        let frag_share = (prim.tri.area() as f64).max(1.0) / tiles.len() as f64;
        for t in &tiles {
            fragments_per_tile[t.index()] += frag_share;
        }
        prim_tiles.push((prim.attr_count, tiles));
    }
    Frame {
        binned: BinnedFrame::new(&prim_tiles, order),
        fragments_per_tile,
    }
}

/// One Polygon List Builder write (§II.C: "When a primitive is binned, a
/// write request to PB-Lists is generated to write its PMD for each tile
/// it overlaps. Then, a number of write requests to PB-Attributes are
/// generated…").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlbOp {
    /// Append `prim`'s PMD as entry `n` of `tile`'s list.
    PmdWrite {
        /// Target tile list.
        tile: TileId,
        /// Position within the list (0-based).
        n: u32,
        /// The primitive being appended.
        prim: PrimitiveId,
    },
    /// Write attribute `k` of `prim` into PB-Attributes.
    AttrWrite {
        /// The primitive whose attribute is written.
        prim: PrimitiveId,
        /// Attribute index within the primitive.
        k: u8,
    },
}

/// The Polygon List Builder write stream in program order: for each
/// primitive, its PMD appends (tiles in id order — the row-major order the
/// bounding-box walk discovers them) followed by its attribute writes.
/// Generated one primitive at a time into a reused buffer.
#[derive(Clone, Debug)]
pub struct PlbOps<'a> {
    frame: &'a BinnedFrame,
    order: &'a TraversalOrder,
    /// Entries appended so far to each tile's list.
    list_len: Vec<u32>,
    /// The next primitive to generate.
    next_prim: usize,
    /// The current primitive's tiles, sorted into discovery order.
    tiles: Vec<TileId>,
    /// The current primitive's ops, and the next one to yield.
    ops: Vec<PlbOp>,
    next_op: usize,
}

impl<'a> PlbOps<'a> {
    /// The stream of `frame` binned under `order`.
    pub fn new(frame: &'a BinnedFrame, order: &'a TraversalOrder) -> Self {
        PlbOps {
            frame,
            order,
            list_len: vec![0; frame.num_tiles()],
            next_prim: 0,
            tiles: Vec::new(),
            ops: Vec::new(),
            next_op: 0,
        }
    }
}

impl Iterator for PlbOps<'_> {
    type Item = PlbOp;

    fn next(&mut self) -> Option<PlbOp> {
        while self.next_op == self.ops.len() {
            let p = self.frame.primitives().get(self.next_prim)?;
            self.next_prim += 1;
            let order = self.order;
            self.tiles.clear();
            self.tiles
                .extend(p.tile_ranks.iter().map(|&r| order.tile_at(r)));
            self.tiles.sort_unstable(); // discovery (row-major) order
            self.ops.clear();
            self.next_op = 0;
            for &tile in &self.tiles {
                let n = self.list_len[tile.index()];
                self.list_len[tile.index()] += 1;
                self.ops.push(PlbOp::PmdWrite {
                    tile,
                    n,
                    prim: p.id,
                });
            }
            self.ops
                .extend((0..p.attr_count).map(|k| PlbOp::AttrWrite { prim: p.id, k }));
        }
        let op = self.ops[self.next_op];
        self.next_op += 1;
        Some(op)
    }
}

/// Collects the [`PlbOps`] stream.
pub fn plb_ops(frame: &BinnedFrame, order: &TraversalOrder) -> Vec<PlbOp> {
    let mut ops = Vec::with_capacity(frame.total_pmds() + frame.total_attrs());
    ops.extend(PlbOps::new(frame, order));
    ops
}

/// One Tile Fetcher operation (§II.C reads; §III.D.1 completion signal).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FetchOp {
    /// Read the PB-Lists block holding entries `first_n ..
    /// first_n + PMDS_PER_BLOCK` of `tile`'s list.
    ListRead {
        /// The tile whose list is read.
        tile: TileId,
        /// First PMD index covered by this block.
        first_n: u32,
    },
    /// Read all attributes of `prim` on behalf of `tile` (one
    /// primitive-granularity Attribute Cache request; `n` is the
    /// primitive's position in the tile list).
    PrimRead {
        /// The tile being rasterized.
        tile: TileId,
        /// Position in the tile's list (identifies the PMD consumed).
        n: u32,
        /// The primitive to fetch.
        prim: PrimitiveId,
    },
    /// The Tile Fetcher finished `tile` and signals the L2 (advances the
    /// dead-line watermark, §III.D.1).
    TileDone {
        /// The completed tile.
        tile: TileId,
    },
}

/// The Tile Fetcher read stream: tiles in traversal order; per tile, its
/// list blocks interleaved with the primitive reads they describe, then
/// the completion signal.
#[derive(Clone, Debug)]
pub struct FetchOps<'a> {
    frame: &'a BinnedFrame,
    order: &'a TraversalOrder,
    /// The current tile (`None` once every tile is done), its traversal
    /// rank and its list.
    tile: Option<TileId>,
    rank: u32,
    list: &'a [PrimitiveId],
    /// The current list's next entry.
    n: u32,
    /// Whether the list block holding entry `n` has been read.
    block_read: bool,
}

impl<'a> FetchOps<'a> {
    /// The stream of `frame` binned under `order`.
    pub fn new(frame: &'a BinnedFrame, order: &'a TraversalOrder) -> Self {
        let mut ops = FetchOps {
            frame,
            order,
            tile: None,
            rank: 0,
            list: &[],
            n: 0,
            block_read: false,
        };
        ops.start(0);
        ops
    }

    /// Makes the tile at `rank`, if any, the current one.
    fn start(&mut self, rank: u32) {
        self.rank = rank;
        self.tile =
            ((rank as usize) < self.order.len()).then(|| self.order.tile_at(TileRank(rank)));
        self.list = self.tile.map_or(&[], |t| self.frame.tile_list(t));
        self.n = 0;
    }
}

impl Iterator for FetchOps<'_> {
    type Item = FetchOp;

    fn next(&mut self) -> Option<FetchOp> {
        let tile = self.tile?;
        let n = self.n;
        let Some(&prim) = self.list.get(n as usize) else {
            self.start(self.rank + 1);
            return Some(FetchOp::TileDone { tile });
        };
        if n.is_multiple_of(PMDS_PER_BLOCK) && !self.block_read {
            self.block_read = true;
            return Some(FetchOp::ListRead { tile, first_n: n });
        }
        self.block_read = false;
        self.n += 1;
        Some(FetchOp::PrimRead { tile, n, prim })
    }
}

/// Collects the [`FetchOps`] stream.
pub fn fetch_ops(frame: &BinnedFrame, order: &TraversalOrder) -> Vec<FetchOp> {
    FetchOps::new(frame, order).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::ScenePrimitive;
    use tcor_common::{Traversal, Tri2};

    fn grid() -> TileGrid {
        TileGrid::new(96, 96, 32) // 3x3 tiles
    }

    fn scanline(grid: &TileGrid) -> TraversalOrder {
        Traversal::Scanline.order(grid)
    }

    fn tri_at(x: f32, y: f32, w: f32, h: f32) -> Tri2 {
        Tri2::new((x, y), (x + w, y), (x, y + h))
    }

    fn small_scene() -> Scene {
        Scene::from_primitives(vec![
            // Covers tiles 0 and 1 (straddles x=32).
            ScenePrimitive {
                tri: tri_at(16.0, 4.0, 32.0, 8.0),
                attr_count: 2,
            },
            // Inside tile 4.
            ScenePrimitive {
                tri: tri_at(40.0, 40.0, 8.0, 8.0),
                attr_count: 3,
            },
        ])
    }

    #[test]
    fn binning_produces_expected_lists() {
        let g = grid();
        let order = scanline(&g);
        let frame = bin_scene(&small_scene(), &g, &order);
        assert_eq!(frame.binned.num_primitives(), 2);
        assert_eq!(frame.binned.tile_list(TileId(0)), &[PrimitiveId(0)]);
        assert_eq!(frame.binned.tile_list(TileId(1)), &[PrimitiveId(0)]);
        assert_eq!(frame.binned.tile_list(TileId(4)), &[PrimitiveId(1)]);
        assert!(frame.binned.tile_list(TileId(8)).is_empty());
    }

    #[test]
    fn fragment_estimates_spread_over_tiles() {
        let g = grid();
        let order = scanline(&g);
        let frame = bin_scene(&small_scene(), &g, &order);
        // Prim 0 area = 128, split over two tiles.
        assert!((frame.fragments_per_tile[0] - 64.0).abs() < 1e-9);
        assert!((frame.fragments_per_tile[1] - 64.0).abs() < 1e-9);
        // Prim 1 area = 32, one tile.
        assert!((frame.fragments_per_tile[4] - 32.0).abs() < 1e-9);
        assert!((frame.total_fragments() - 160.0).abs() < 1e-9);
    }

    #[test]
    fn plb_stream_is_program_order_pmds_then_attrs() {
        let g = grid();
        let order = scanline(&g);
        let frame = bin_scene(&small_scene(), &g, &order);
        let ops = plb_ops(&frame.binned, &order);
        assert_eq!(
            ops,
            vec![
                PlbOp::PmdWrite {
                    tile: TileId(0),
                    n: 0,
                    prim: PrimitiveId(0)
                },
                PlbOp::PmdWrite {
                    tile: TileId(1),
                    n: 0,
                    prim: PrimitiveId(0)
                },
                PlbOp::AttrWrite {
                    prim: PrimitiveId(0),
                    k: 0
                },
                PlbOp::AttrWrite {
                    prim: PrimitiveId(0),
                    k: 1
                },
                PlbOp::PmdWrite {
                    tile: TileId(4),
                    n: 0,
                    prim: PrimitiveId(1)
                },
                PlbOp::AttrWrite {
                    prim: PrimitiveId(1),
                    k: 0
                },
                PlbOp::AttrWrite {
                    prim: PrimitiveId(1),
                    k: 1
                },
                PlbOp::AttrWrite {
                    prim: PrimitiveId(1),
                    k: 2
                },
            ]
        );
    }

    #[test]
    fn fetch_stream_visits_tiles_in_order_with_done_signals() {
        let g = grid();
        let order = scanline(&g);
        let frame = bin_scene(&small_scene(), &g, &order);
        let ops = fetch_ops(&frame.binned, &order);
        // 9 TileDone signals, one per tile, in order.
        let dones: Vec<TileId> = ops
            .iter()
            .filter_map(|op| match op {
                FetchOp::TileDone { tile } => Some(*tile),
                _ => None,
            })
            .collect();
        assert_eq!(dones, (0..9).map(TileId).collect::<Vec<_>>());
        // Tile 0: one list block read then the primitive read.
        assert_eq!(
            &ops[..3],
            &[
                FetchOp::ListRead {
                    tile: TileId(0),
                    first_n: 0
                },
                FetchOp::PrimRead {
                    tile: TileId(0),
                    n: 0,
                    prim: PrimitiveId(0)
                },
                FetchOp::TileDone { tile: TileId(0) },
            ]
        );
    }

    #[test]
    fn list_blocks_read_once_per_16_pmds() {
        let g = grid();
        let order = scanline(&g);
        // 20 primitives all in tile 0 -> 2 list blocks.
        let prims: Vec<ScenePrimitive> = (0..20)
            .map(|_| ScenePrimitive {
                tri: tri_at(2.0, 2.0, 4.0, 4.0),
                attr_count: 1,
            })
            .collect();
        let frame = bin_scene(&Scene::from_primitives(prims), &g, &order);
        let ops = fetch_ops(&frame.binned, &order);
        let list_reads = ops
            .iter()
            .filter(|op| matches!(op, FetchOp::ListRead { .. }))
            .count();
        assert_eq!(list_reads, 2);
    }

    #[test]
    fn exact_overlap_bins_fewer_tiles_for_thin_diagonals() {
        let g = grid();
        let order = scanline(&g);
        // A thin diagonal across the whole 96x96 screen: its bbox covers
        // all 9 tiles, but the triangle itself only touches the ones the
        // hypotenuse passes through.
        let scene = Scene::from_primitives(vec![ScenePrimitive {
            tri: Tri2::new((0.0, 0.0), (95.0, 0.0), (0.0, 95.0)),
            attr_count: 1,
        }]);
        let bbox = bin_scene_with(&scene, &g, &order, OverlapTest::BoundingBox);
        let exact = bin_scene_with(&scene, &g, &order, OverlapTest::Exact);
        assert_eq!(bbox.binned.total_pmds(), 9);
        assert!(exact.binned.total_pmds() < 9);
        // The far corner tile (2,2) is beyond the hypotenuse.
        assert!(exact.binned.tile_list(g.tile_id(2, 2)).is_empty());
        // Tiles along the diagonal stay binned.
        assert!(!exact.binned.tile_list(g.tile_id(0, 0)).is_empty());
        assert!(!exact.binned.tile_list(g.tile_id(2, 0)).is_empty());
    }

    #[test]
    fn exact_overlap_is_subset_of_bbox_overlap() {
        let g = grid();
        let order = scanline(&g);
        let prims: Vec<ScenePrimitive> = (0..40)
            .map(|i| {
                let x = (i as f32 * 13.0) % 80.0;
                let y = (i as f32 * 29.0) % 80.0;
                ScenePrimitive {
                    tri: Tri2::new((x, y), (x + 30.0, y + 5.0), (x + 3.0, y + 33.0)),
                    attr_count: 2,
                }
            })
            .collect();
        let scene = Scene::from_primitives(prims);
        let bbox = bin_scene_with(&scene, &g, &order, OverlapTest::BoundingBox);
        let exact = bin_scene_with(&scene, &g, &order, OverlapTest::Exact);
        assert!(exact.binned.total_pmds() <= bbox.binned.total_pmds());
        for t in 0..9u32 {
            let b = bbox.binned.tile_list(TileId(t));
            for p in exact.binned.tile_list(TileId(t)) {
                assert!(b.contains(p), "exact binned {p:?} in T{t} but bbox did not");
            }
        }
    }

    #[test]
    fn empty_scene_still_signals_all_tiles() {
        let g = grid();
        let order = scanline(&g);
        let frame = bin_scene(&Scene::new(), &g, &order);
        let ops = fetch_ops(&frame.binned, &order);
        assert_eq!(ops.len(), 9); // 9 TileDone, nothing else
    }
}
