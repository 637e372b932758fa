//! # tcor-mem
//!
//! The shared memory hierarchy below the L1s (Fig. 5): the L2 cache with
//! TCOR's dead-line-aware replacement (§III.D), a bank-aware main-memory
//! model standing in for DRAMSim2, and per-region traffic accounting that
//! feeds Figures 14–19 directly.
//!
//! ## TCOR L2 enhancements (§III.D)
//!
//! Every L2 line carries a 2-bit Parameter-Buffer kind and a 12-bit
//! last-use tile (packed in the engine's per-line user word, see
//! [`PbTag`]). The Tile Fetcher signals tile completions; a PB line whose
//! last-use tile has completed is **dead**:
//!
//! * replacement priority: dead PB lines → non-PB lines → live PB lines,
//!   LRU within each class ([`L2Policy`]);
//! * dead dirty lines are dropped without a main-memory write-back.
//!
//! ```
//! use tcor_cache::AccessKind;
//! use tcor_common::{Address, CacheParams, MemoryParams, TileRank};
//! use tcor_mem::{L2Mode, MemoryHierarchy, PbTag};
//!
//! let mut h = MemoryHierarchy::new(
//!     CacheParams::new(1 << 20, 64, 8, 12),
//!     MemoryParams::default(),
//!     L2Mode::TcorEnhanced,
//! );
//! // A dirty PB-Attributes line whose last use is tile rank 0...
//! let block = Address(0x2000_0000).block();
//! h.access(block, AccessKind::Write, PbTag::attributes(TileRank(0)));
//! // ...becomes dead once the Tile Fetcher completes tile 0.
//! h.tile_done();
//! assert_eq!(h.completed_tiles(), 1);
//! ```

pub mod dram;
pub mod hierarchy;
pub mod l2policy;
pub mod pbtag;
pub mod traffic;

pub use dram::MainMemory;
pub use hierarchy::{L2Mode, MemoryHierarchy};
pub use l2policy::L2Policy;
pub use pbtag::{PbKind, PbTag};
pub use traffic::{RegionTraffic, TrafficMatrix};
