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
//! write-allocate cache over 64-byte [`tcor_common::BlockAddr`]s, kept
//! as a structure of arrays: each set's tags are contiguous, its valid
//! and dirty bits are bit masks beside them, and a parallel array holds
//! one small [`AccessMeta`] per line (a future-use priority and a
//! free-form user word), which every access writes. The set count is
//! checked once per cache ([`SetIndex`]): a power-of-two Modulo cache
//! masks, every other cache calls [`Indexing::set_of`]'s function.
//! Victim selection is delegated to a
//! [`ReplacementPolicy`], which sees the full set's stored metadata —
//! this is how both exact Belady-OPT (future timestamps) and TCOR's
//! hardware OPT (12-bit OPT Numbers) run on the same machinery.
//!
//! ## Least-key kernel
//!
//! [`LruFilter`] keeps each set's tags and one key per line side by
//! side; an access takes the matching way or the way with the least
//! key and writes the caller's key there, with one branch-free way
//! choice at 1, 2, 4 and 8 ways. Keyed by its clock
//! ([`LruFilter::read`]) it is the exact LRU cache of a frame plan's
//! read-only vertex, texture and instruction L1s.
//! [`profile::keyed_misses`] keys a trace by LRU, MRU or Belady OPT for
//! the set-associative miss curves. It agrees with `Cache<Lru>`,
//! `Cache<Mru>` and `Cache<Opt>` access for access.
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
pub mod filter;
pub mod index;
pub mod meta;
pub mod policy;
pub mod profile;
pub mod shard;
pub mod trace;

pub use cache::{Cache, Evicted};
pub use filter::LruFilter;
pub use index::{Indexing, SetIndex};
pub use meta::{AccessKind, AccessMeta, AccessOutcome};
pub use policy::ReplacementPolicy;
pub use shard::{simulate_policy_shard_range, simulate_policy_sharded, ShardCache, ShardedTrace};
pub use trace::{annotate_next_use, Access, Trace};
