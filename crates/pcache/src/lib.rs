//! `tcor-pcache`: a persistent, content-addressed result cache.
//!
//! The serve plane's response cache keys a computed result by the
//! stable hash of what produced it and reuses it on repeat; held in
//! memory alone, it would die with the process. This crate is that
//! cache, split into the session-vs-cross-session tiers of the tigervnc
//! ContentCache/PersistentCache design:
//!
//! * [`MemTier`] — the in-process session tier: a fixed-capacity LRU
//!   over shared [`CachedBody`]s. Hits cost a map lookup.
//! * [`DiskTier`] — the cross-session tier: one self-validating object
//!   file per entry (magic, identity, version, integrity hash —
//!   [`body`]), written atomically via `tcor_common::write_atomic`,
//!   tracked by an index that tolerates crash-truncation (it is
//!   reconciled against a directory scan on open), and bounded by a
//!   byte budget with LRU-by-last-use eviction. Corrupt, truncated or
//!   version-mismatched entries are *evicted on load, never served*.
//! * [`TieredCache`] — the composition the daemon serves from:
//!   write-through on put, promote-on-hit from disk to memory, with
//!   per-tier counters.
//!
//! Everything is keyed by a [`CacheKey`]: the `fxhash64` identity of
//! the canonical computation (an `ApiCall` canonical string) plus a
//! *version* hash of the producing code, so a rebuilt simulator never
//! serves a previous build's bytes.
//!
//! Failure model: the cache is an accelerator, never an authority. A
//! disk failure on `get` or `put` is counted ([`CacheStats::io_errors`])
//! and reported as a miss — the caller recomputes cold. A validation
//! failure additionally deletes the offending file
//! ([`CacheStats::evicted_corrupt`] / [`CacheStats::evicted_version`]).
//! A *dying* disk — consecutive I/O errors — trips the tiered cache's
//! [`CircuitBreaker`], which skips disk operations outright until a
//! cooldown-gated probe succeeds; while it is open the cache reports
//! itself [`degraded`](ResultCache::degraded) and serves memory +
//! recompute only. All of this is exercised deterministically by
//! `tcor_common::fault` injection (see `DiskTier::with_fault_injector`
//! and the `tcor-sim chaos` harness).
//! Two processes may share one cache directory: object files are
//! atomic and self-validating, the index is rewritten atomically
//! (last-writer-wins) and re-validated on every load, and a reader
//! that misses in its own index probes the object path directly, so a
//! sibling's writes are visible without coordination.

pub mod body;
pub mod breaker;
pub mod disk;
pub mod key;
pub mod mem;
pub mod tier;

pub use body::CachedBody;
pub use breaker::{BreakerConfig, BreakerSnapshot, CircuitBreaker};
pub use disk::DiskTier;
pub use key::CacheKey;
pub use mem::MemTier;
pub use tier::TieredCache;

use std::sync::Arc;
use tcor_common::MetricRegistry;

/// Which tier satisfied a [`ResultCache::get`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// The in-process session tier.
    Mem,
    /// The cross-session disk tier.
    Disk,
}

impl Tier {
    /// Stable lowercase label ("mem" / "disk") — the `X-Tcor-Cache`
    /// header value.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Mem => "mem",
            Tier::Disk => "disk",
        }
    }
}

/// Counter snapshot across both tiers. All monotonic except the
/// `*_entries` / `disk_bytes` gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Gets answered by the memory tier.
    pub mem_hits: u64,
    /// Gets answered by the disk tier.
    pub disk_hits: u64,
    /// Gets answered by neither tier.
    pub misses: u64,
    /// Entries written (both tiers count once through a tiered put).
    pub puts: u64,
    /// Puts whose bytes were already on disk (content dedup, no write).
    pub dedup_puts: u64,
    /// Memory-tier entries evicted by capacity.
    pub mem_evictions: u64,
    /// Disk entries evicted to stay inside the byte budget.
    pub evicted_size: u64,
    /// Disk entries evicted because validation failed (bad magic,
    /// truncation, identity or integrity-hash mismatch).
    pub evicted_corrupt: u64,
    /// Disk entries evicted because their version hash is stale.
    pub evicted_version: u64,
    /// Disk I/O failures absorbed (the get/put degraded to a miss).
    pub io_errors: u64,
    /// Entries currently in the memory tier.
    pub mem_entries: u64,
    /// Entries currently tracked on disk.
    pub disk_entries: u64,
    /// Payload bytes currently tracked on disk.
    pub disk_bytes: u64,
    /// Disk breaker state: 0 closed, 1 half-open, 2 open.
    pub breaker_state: u64,
    /// Times the disk breaker tripped open.
    pub breaker_opens: u64,
    /// Times a successful probe closed the breaker.
    pub breaker_closes: u64,
    /// Half-open probe operations attempted.
    pub breaker_probes: u64,
    /// Disk operations skipped while the breaker was open.
    pub breaker_skipped: u64,
}

impl CacheStats {
    /// Renders the snapshot under `prefix` ("pcache") in the same
    /// `path = value` registry format as every other counter surface.
    pub fn registry(&self, prefix: &str) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        for (name, value) in [
            ("mem_hits", self.mem_hits),
            ("disk_hits", self.disk_hits),
            ("misses", self.misses),
            ("puts", self.puts),
            ("dedup_puts", self.dedup_puts),
            ("mem_evictions", self.mem_evictions),
            ("evicted_size", self.evicted_size),
            ("evicted_corrupt", self.evicted_corrupt),
            ("evicted_version", self.evicted_version),
            ("io_errors", self.io_errors),
            ("mem_entries", self.mem_entries),
            ("disk_entries", self.disk_entries),
            ("disk_bytes", self.disk_bytes),
            ("breaker_state", self.breaker_state),
            ("breaker_opens", self.breaker_opens),
            ("breaker_closes", self.breaker_closes),
            ("breaker_probes", self.breaker_probes),
            ("breaker_skipped", self.breaker_skipped),
        ] {
            reg.add(&format!("{prefix}/{name}"), value);
        }
        reg
    }
}

/// The one result-cache interface: get / put / stats. The serve plane
/// programs against it, so a test or benchmark can hand the daemon any
/// implementation.
///
/// Implementations are internally synchronized (`&self` methods,
/// callable from any worker), and infallible at the interface: storage
/// failures degrade to misses and are visible only in [`stats`].
///
/// [`stats`]: ResultCache::stats
pub trait ResultCache: Send + Sync {
    /// Looks up `key`; a hit reports which tier answered.
    fn get(&self, key: &CacheKey) -> Option<(Arc<CachedBody>, Tier)>;

    /// Stores `body` under `key` (write-through where tiered).
    fn put(&self, key: &CacheKey, body: &Arc<CachedBody>);

    /// Counter snapshot.
    fn stats(&self) -> CacheStats;

    /// Whether the cache is operating in a degraded mode (e.g. its
    /// disk-tier breaker is open or probing). Serving continues —
    /// degraded means slower, never wrong.
    fn degraded(&self) -> bool {
        false
    }

    /// Re-validates any persistent entries against `version`, evicting
    /// stale or corrupt ones, without promoting anything into faster
    /// tiers. Returns `(valid, evicted)`; the default (no persistence)
    /// is a no-op.
    fn warm_start(&self, version: u64) -> (usize, usize) {
        let _ = version;
        (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_labels_are_the_header_values() {
        assert_eq!(Tier::Mem.label(), "mem");
        assert_eq!(Tier::Disk.label(), "disk");
    }

    #[test]
    fn stats_render_as_registry_lines() {
        let stats = CacheStats {
            mem_hits: 3,
            disk_hits: 1,
            ..CacheStats::default()
        };
        let text = stats.registry("pcache").to_string();
        assert!(text.contains("pcache/mem_hits = 3"));
        assert!(text.contains("pcache/disk_hits = 1"));
        assert!(text.contains("pcache/io_errors = 0"));
    }
}
