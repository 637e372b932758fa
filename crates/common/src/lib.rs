//! # tcor-common
//!
//! Foundation types shared by every crate in the TCOR reproduction:
//! identifiers, the tile grid and its traversal orders, screen-space
//! geometry, simulation configuration (Table I of the paper) and
//! statistics counters.
//!
//! The paper models a Tile-Based Rendering (TBR) mobile GPU whose screen is
//! partitioned into 32×32-pixel tiles. The Tiling Engine bins primitives
//! into per-tile lists (the *Parameter Buffer*) and later fetches them tile
//! by tile in a fixed traversal order (Z-order in Table I). Everything in
//! TCOR derives from that fixed, known-in-advance traversal: the *OPT
//! Number* of a datum is the traversal rank of the next tile that will use
//! it, and the *last-use tile* drives the L2 dead-line policy.
//!
//! ```
//! use tcor_common::{GpuConfig, TileGrid, Traversal};
//!
//! let cfg = GpuConfig::paper_baseline();
//! let grid = TileGrid::new(cfg.screen_width, cfg.screen_height, cfg.tile_size);
//! assert_eq!(grid.tiles_x(), 62); // ceil(1960 / 32)
//! assert_eq!(grid.tiles_y(), 24); // 768 / 32
//! let order = Traversal::ZOrder.order(&grid);
//! assert_eq!(order.len(), grid.num_tiles());
//! ```

pub mod config;
pub mod error;
pub mod fault;
pub mod flight;
pub mod fsio;
pub mod geom;
pub mod grid;
pub mod hash;
pub mod ids;
pub mod metrics;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod traversal;

pub use config::{CacheParams, GpuConfig, MemoryParams, TileCacheOrg};
pub use error::{ErrorKind, TcorError, TcorResult};
pub use fault::FaultInjector;
pub use fsio::{write_atomic, write_atomic_unique};
pub use geom::{Rect, Tri2};
pub use grid::TileGrid;
pub use hash::{fxhash64, hash_hex, FxBuildHasher, FxHashMap, FxHashSet, FxHasher64};
pub use ids::{Address, BlockAddr, PrimitiveId, TileId, TileRank, LINE_SIZE};
pub use metrics::MetricRegistry;
pub use rng::{SmallRng, SplitMix64, Xoshiro256pp};
pub use stats::AccessStats;
pub use trace::{FrameTrace, TraceEvent, TracePhase};
pub use traversal::{Traversal, TraversalOrder};
