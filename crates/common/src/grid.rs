//! The screen's tile grid.
//!
//! A TBR GPU partitions the frame into square tiles (32×32 pixels in
//! Table I). The grid maps between pixel coordinates, tile coordinates and
//! [`TileId`]s, and enumerates the tiles overlapped by screen-space
//! rectangles (the Polygon List Builder's bounding-box binning test).

use crate::geom::Rect;
use crate::ids::TileId;

/// Dimensions of the tile grid covering the screen.
///
/// ```
/// use tcor_common::TileGrid;
/// let grid = TileGrid::new(1960, 768, 32);
/// assert_eq!(grid.num_tiles(), 62 * 24);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TileGrid {
    screen_width: u32,
    screen_height: u32,
    tile_size: u32,
    tiles_x: u32,
    tiles_y: u32,
}

impl TileGrid {
    /// Creates a grid for a `screen_width` × `screen_height` screen with
    /// square tiles of `tile_size` pixels. Partially-covered edge tiles
    /// count as full tiles (ceil division).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(screen_width: u32, screen_height: u32, tile_size: u32) -> Self {
        assert!(
            screen_width > 0 && screen_height > 0 && tile_size > 0,
            "tile grid dimensions must be nonzero"
        );
        TileGrid {
            screen_width,
            screen_height,
            tile_size,
            tiles_x: screen_width.div_ceil(tile_size),
            tiles_y: screen_height.div_ceil(tile_size),
        }
    }

    /// Screen width in pixels.
    pub fn screen_width(&self) -> u32 {
        self.screen_width
    }

    /// Screen height in pixels.
    pub fn screen_height(&self) -> u32 {
        self.screen_height
    }

    /// Tile edge length in pixels.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Number of tile columns.
    pub fn tiles_x(&self) -> u32 {
        self.tiles_x
    }

    /// Number of tile rows.
    pub fn tiles_y(&self) -> u32 {
        self.tiles_y
    }

    /// Total number of tiles.
    pub fn num_tiles(&self) -> usize {
        (self.tiles_x * self.tiles_y) as usize
    }

    /// The row-major [`TileId`] of tile column `tx`, row `ty`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn tile_id(&self, tx: u32, ty: u32) -> TileId {
        assert!(tx < self.tiles_x && ty < self.tiles_y, "tile out of grid");
        TileId(ty * self.tiles_x + tx)
    }

    /// Tile coordinates `(tx, ty)` of a [`TileId`].
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the grid.
    pub fn tile_coords(&self, id: TileId) -> (u32, u32) {
        assert!((id.0 as usize) < self.num_tiles(), "tile id out of grid");
        (id.0 % self.tiles_x, id.0 / self.tiles_x)
    }

    /// The tile containing pixel `(px, py)`.
    ///
    /// # Panics
    ///
    /// Panics if the pixel is outside the screen.
    #[cfg(test)]
    pub fn tile_of_pixel(&self, px: u32, py: u32) -> TileId {
        assert!(
            px < self.screen_width && py < self.screen_height,
            "pixel outside screen"
        );
        self.tile_id(px / self.tile_size, py / self.tile_size)
    }

    /// Tiles overlapped by a screen-space rectangle, clamped to the screen.
    /// Returns an empty vector for rectangles fully outside the screen or
    /// with non-positive extent.
    ///
    /// This is the bounding-box overlap test used by the Polygon List
    /// Builder when binning a primitive.
    pub fn tiles_overlapping(&self, rect: &Rect) -> Vec<TileId> {
        let Some(clamped) = rect.clamp_to(self.screen_width as f32, self.screen_height as f32)
        else {
            return Vec::new();
        };
        let ts = self.tile_size as f32;
        let tx0 = (clamped.x0 / ts).floor() as u32;
        let ty0 = (clamped.y0 / ts).floor() as u32;
        // A rect touching x1 exactly on a tile boundary does not enter the
        // next tile, hence the epsilon-free exclusive handling via ceil - 1.
        let tx1 = (((clamped.x1 / ts).ceil() as u32).max(tx0 + 1) - 1).min(self.tiles_x - 1);
        let ty1 = (((clamped.y1 / ts).ceil() as u32).max(ty0 + 1) - 1).min(self.tiles_y - 1);
        let mut out = Vec::with_capacity(((tx1 - tx0 + 1) * (ty1 - ty0 + 1)) as usize);
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                out.push(self.tile_id(tx, ty));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> TileGrid {
        TileGrid::new(1960, 768, 32)
    }

    #[test]
    fn paper_screen_dimensions() {
        let g = grid();
        assert_eq!(g.tiles_x(), 62); // ceil(1960/32) = 61.25 -> 62
        assert_eq!(g.tiles_y(), 24);
        assert_eq!(g.num_tiles(), 1488);
    }

    #[test]
    fn id_coord_roundtrip() {
        let g = grid();
        for &(tx, ty) in &[(0, 0), (61, 23), (5, 7)] {
            let id = g.tile_id(tx, ty);
            assert_eq!(g.tile_coords(id), (tx, ty));
        }
    }

    #[test]
    fn pixel_to_tile() {
        let g = grid();
        assert_eq!(g.tile_of_pixel(0, 0), TileId(0));
        assert_eq!(g.tile_of_pixel(31, 31), TileId(0));
        assert_eq!(g.tile_of_pixel(32, 0), TileId(1));
        assert_eq!(g.tile_of_pixel(0, 32), g.tile_id(0, 1));
    }

    #[test]
    fn rect_overlap_single_tile() {
        let g = grid();
        let r = Rect::new(2.0, 2.0, 10.0, 10.0);
        assert_eq!(g.tiles_overlapping(&r), vec![TileId(0)]);
    }

    #[test]
    fn rect_overlap_straddles_boundary() {
        let g = grid();
        let r = Rect::new(30.0, 0.0, 40.0, 10.0);
        assert_eq!(g.tiles_overlapping(&r), vec![TileId(0), TileId(1)]);
    }

    #[test]
    fn rect_on_exact_boundary_stays_in_one_tile() {
        let g = grid();
        // Touching x = 32.0 exactly must not spill into tile 1.
        let r = Rect::new(0.0, 0.0, 32.0, 32.0);
        assert_eq!(g.tiles_overlapping(&r), vec![TileId(0)]);
    }

    #[test]
    fn rect_outside_screen_is_empty() {
        let g = grid();
        let r = Rect::new(-50.0, -50.0, -1.0, -1.0);
        assert!(g.tiles_overlapping(&r).is_empty());
        let r2 = Rect::new(3000.0, 10.0, 3100.0, 20.0);
        assert!(g.tiles_overlapping(&r2).is_empty());
    }

    #[test]
    fn rect_covering_screen_hits_all_tiles() {
        let g = TileGrid::new(64, 64, 32);
        let r = Rect::new(-10.0, -10.0, 1000.0, 1000.0);
        assert_eq!(g.tiles_overlapping(&r).len(), 4);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        TileGrid::new(0, 768, 32);
    }
}
