//! # tcor-gpu
//!
//! The Tile-Based Rendering pipeline substrate (Fig. 2 of the paper):
//! everything the TCOR memory hierarchy is embedded in, modeled at
//! transaction level.
//!
//! * [`scene`] — screen-space scenes (the Geometry Pipeline's output
//!   domain): triangles with attribute counts.
//! * [`geometry`] — the Geometry Pipeline: frustum/viewport culling and
//!   the vertex-fetch traffic stream it sends through the Vertex Cache.
//! * [`binner`] — the Polygon List Builder: bins a scene into a
//!   [`tcor_pbuf::BinnedFrame`], estimates per-tile fragment load, and
//!   materializes the two Tiling Engine access streams ([`PlbOp`] writes
//!   and [`FetchOp`] reads) that the cache hierarchies replay.
//! * [`raster`] — the Raster Pipeline's *other* memory traffic (textures,
//!   shader instructions, color-buffer flushes) that shares the L2 with
//!   the Parameter Buffer and feeds the energy model.
//! * [`timing`] — an MSHR-overlap timing model for the Tile Fetcher,
//!   producing the primitives-per-cycle metric of Figs. 23–24.
//!
//! The paper evaluated on TEAPOT running real Android games; this crate is
//! the substitution documented in `DESIGN.md`: the PB access stream is
//! *exactly* determined by binned geometry plus traversal order, both of
//! which are modeled faithfully.
//!
//! ```
//! use tcor_common::{TileGrid, Traversal, Tri2};
//! use tcor_gpu::{bin_scene, plb_ops, fetch_ops, Scene, ScenePrimitive};
//!
//! let grid = TileGrid::new(96, 96, 32);
//! let order = Traversal::ZOrder.order(&grid);
//! let mut scene = Scene::new();
//! scene.push(ScenePrimitive {
//!     tri: Tri2::new((4.0, 4.0), (60.0, 4.0), (4.0, 60.0)),
//!     attr_count: 3,
//! });
//! let frame = bin_scene(&scene, &grid, &order);
//! // The two Tiling Engine streams both systems replay:
//! assert!(!plb_ops(&frame.binned, &order).is_empty());
//! assert!(!fetch_ops(&frame.binned, &order).is_empty());
//! ```

pub mod binner;
pub mod geometry;
pub mod raster;
pub mod scene;
pub mod timing;
pub mod transform;

pub use binner::{
    bin_scene, bin_scene_with, fetch_ops, plb_ops, FetchOp, FetchOps, Frame, OverlapTest, PlbOp,
    PlbOps,
};
pub use geometry::{GeometryOutput, GeometryPipeline, PostTransformCache};
pub use raster::{RasterParams, RasterTraffic};
pub use scene::{Scene, ScenePrimitive};
pub use timing::MshrTiming;
pub use transform::{project_triangle, transform_scene, Mat4, Vec3, WorldPrimitive};
