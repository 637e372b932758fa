//! # tcor-cache
//!
//! A trace-driven cache simulation engine with pluggable replacement
//! policies. This is the substrate under every cache in the TCOR
//! reproduction: the baseline unified Tile Cache, the Primitive List Cache,
//! the shared L2 (with TCOR's dead-line policy layered on top in
//! `tcor-mem`) and the replacement-policy studies of Figures 1 and 11–13.
//!
//! ## Engine
//!
//! [`Cache`] is a set-associative (or fully-associative) write-back,
//! write-allocate cache over 64-byte [`tcor_common::BlockAddr`]s. Victim
//! selection is delegated to a [`ReplacementPolicy`]; the engine carries a
//! small [`AccessMeta`] per line (a future-use priority and a free-form
//! user word) that policies may consult — this is how both exact
//! Belady-OPT (future timestamps) and TCOR's hardware OPT (12-bit OPT
//! Numbers) run on the same machinery.
//!
//! ## Policies
//!
//! LRU, MRU, FIFO, Random, tree-PLRU, NRU, SRRIP, BRRIP, DRRIP
//! (set-dueling, as compared in Fig. 13) and OPT (greatest-next-use, the
//! policy TCOR implements in hardware).
//!
//! ## Profilers
//!
//! [`profile::LruStackProfiler`] computes the *entire* LRU
//! miss-ratio-vs-size curve in one pass (Mattson et al. \[27\] — the very
//! paper that introduced OPT); [`profile::OptStackProfiler`] does the
//! same for fully-associative Belady-OPT. These regenerate the fully
//! associative curves of Figures 1, 11 and 12 without re-simulating per
//! point.
//!
//! ## Sharded replay
//!
//! Cache sets never interact, so for [set-local](ReplacementPolicy::set_local)
//! policies [`shard::ShardedTrace`] pre-buckets a trace by set index once
//! per geometry and [`shard::simulate_policy_shard_range`] replays dense
//! per-set streams through independent single-set caches —
//! bit-identical to the whole-cache run, friendlier to the memory
//! hierarchy, and embarrassingly parallel across set ranges.
//!
//! ```
//! use tcor_cache::{Cache, AccessKind, AccessMeta, Indexing, policy::Lru};
//! use tcor_common::{BlockAddr, CacheParams};
//!
//! let params = CacheParams::new(4096, 64, 4, 1);
//! let mut cache = Cache::new(params, Indexing::Modulo, Lru::new());
//! let out = cache.access(BlockAddr(42), AccessKind::Read, AccessMeta::NONE);
//! assert!(!out.hit); // cold miss
//! let out = cache.access(BlockAddr(42), AccessKind::Read, AccessMeta::NONE);
//! assert!(out.hit);
//! ```

pub mod cache;
pub mod index;
pub mod meta;
pub mod policy;
pub mod profile;
pub mod shard;
pub mod trace;

pub use cache::{Cache, Evicted};
pub use index::Indexing;
pub use meta::{AccessKind, AccessMeta, AccessOutcome};
pub use policy::ReplacementPolicy;
pub use shard::{simulate_policy_shard_range, simulate_policy_sharded, ShardCache, ShardedTrace};
pub use trace::{annotate_next_use, Access, Trace};
