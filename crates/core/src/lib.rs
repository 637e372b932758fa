//! # tcor
//!
//! The paper's contribution: **TCOR — a Tile Cache with Optimal
//! Replacement** (§III), plus the baseline Tile Cache it is evaluated
//! against and full-system drivers that replay identical Tiling Engine
//! access streams through either organization.
//!
//! ## The TCOR organization (Fig. 7, Fig. 8)
//!
//! The unified baseline Tile Cache — one LRU block cache in front of both
//! Parameter Buffer sections — is split in two:
//!
//! * a **Primitive List Cache** — the same LRU block cache, in front of
//!   PB-Lists alone, laid out with TCOR's interleaved scheme (Fig. 6) so
//!   consecutive tiles map to consecutive sets.
//! * [`AttributeCache`] — a decoupled, primitive-granularity cache in
//!   front of PB-Attributes: a **Primitive Buffer** (tags, lock/dirty
//!   bits, the 12-bit OPT Number, and a pointer into the attribute
//!   storage) over an **Attribute Buffer** (a linked free-list pool of
//!   48-byte attribute entries). Replacement is OPT: evict the unlocked
//!   line whose next use (OPT Number) lies farthest in the tile
//!   traversal; Polygon List Builder writes that would evict
//!   nearer-future lines are **bypassed** to the L2 instead (§III.C.4).
//!
//! ## Systems
//!
//! [`System`] runs one frame end to end — geometry, binning, both Tiling
//! Engine phases, raster-side traffic — over a
//! [`tcor_mem::MemoryHierarchy`], and produces a [`FrameReport`] with
//! every counter the paper's Figures 14–24 plot. The Tile Cache
//! organisation comes from the configuration (`cfg.gpu.tile_cache`), so
//! the baseline and TCOR replay identical access streams through one
//! driver. [`Session`] runs a sequence of frames over a memory system
//! that persists between them (the steady state). The part of a frame
//! the organisation cannot change — geometry, binning and the other L1s'
//! miss streams — is a [`FramePlan`], which every configuration with the
//! same [`PlanKey`] can replay ([`System::replay`]).
//!
//! ```
//! use tcor::{System, SystemConfig};
//! use tcor_gpu::{Scene, ScenePrimitive};
//! use tcor_common::Tri2;
//!
//! let scene: Scene = (0..64)
//!     .map(|i| ScenePrimitive {
//!         tri: Tri2::new(
//!             (i as f32 * 7.0 % 600.0, i as f32 * 13.0 % 400.0),
//!             (i as f32 * 7.0 % 600.0 + 40.0, i as f32 * 13.0 % 400.0),
//!             (i as f32 * 7.0 % 600.0, i as f32 * 13.0 % 400.0 + 40.0),
//!         ),
//!         attr_count: 3,
//!     })
//!     .collect();
//! let report = System::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);
//! let base = System::new(SystemConfig::paper_baseline_64k()).run_frame(&scene);
//! assert_eq!((report.system, base.system), ("tcor", "baseline"));
//! assert!(report.pb_l2_accesses() <= base.pb_l2_accesses());
//! ```

pub mod attribute_cache;
mod block_cache;
pub mod report;
pub mod system;

pub use attribute_cache::{
    AttributeCache, AttributeCacheConfig, EvictedPrim, ReadResult, WriteResult,
};
pub use report::{FrameReport, StructureActivity};
pub use system::{BaselineSystem, FramePlan, PlanKey, Session, System, SystemConfig, TcorSystem};
