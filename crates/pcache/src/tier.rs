//! The two-tier composition both consumers program against.
//!
//! `get` tries the session tier first (a map lookup), then the disk
//! tier; a disk hit is *promoted* into memory so the next request for
//! the same key answers at memory latency. `put` is write-through:
//! the body lands in both tiers, so a result computed once this
//! session is already durable for the next one. A cache opened with no
//! directory is memory-only — the serve plane without `--cache-dir`
//! behaves exactly as before this crate existed.

use crate::breaker::{BreakerConfig, BreakerSnapshot, CircuitBreaker};
use crate::disk::DiskTier;
use crate::key::CacheKey;
use crate::mem::MemTier;
use crate::{CacheStats, CachedBody, ResultCache, Tier};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tcor_common::{FaultInjector, TcorResult};

/// A session [`MemTier`] over an optional persistent [`DiskTier`],
/// guarded by a [`CircuitBreaker`]: N consecutive disk I/O errors
/// stop the cache from taxing every request with doomed syscalls
/// until a cooldown-gated probe proves the disk healthy again.
pub struct TieredCache {
    mem: Mutex<MemTier>,
    disk: Option<DiskTier>,
    breaker: Option<CircuitBreaker>,
    misses: Mutex<u64>,
}

impl TieredCache {
    /// A memory-only cache of `mem_entries` slots.
    #[cfg(test)]
    pub fn memory_only(mem_entries: usize) -> Self {
        TieredCache {
            mem: Mutex::new(MemTier::new(mem_entries)),
            disk: None,
            breaker: None,
            misses: Mutex::new(0),
        }
    }

    /// A cache of `mem_entries` memory slots over `disk` — pass
    /// `Some((dir, byte_budget))` to persist, `None` for memory-only.
    /// A disk tier gets a default-tuned breaker; see
    /// [`with_breaker_config`](TieredCache::with_breaker_config).
    ///
    /// # Errors
    ///
    /// An I/O error if the disk tier's directory cannot be opened.
    pub fn open(mem_entries: usize, disk: Option<(PathBuf, u64)>) -> TcorResult<Self> {
        let disk = match disk {
            Some((dir, budget)) => Some(DiskTier::open(dir, budget)?),
            None => None,
        };
        let breaker = disk
            .is_some()
            .then(|| CircuitBreaker::new(BreakerConfig::default()));
        Ok(TieredCache {
            mem: Mutex::new(MemTier::new(mem_entries)),
            disk,
            breaker,
            misses: Mutex::new(0),
        })
    }

    /// Retunes the disk-tier breaker; a no-op without a disk tier.
    pub fn with_breaker_config(mut self, cfg: BreakerConfig) -> Self {
        if self.disk.is_some() {
            self.breaker = Some(CircuitBreaker::new(cfg));
        }
        self
    }

    /// Attaches a hermetic fault injector to the disk tier (tests).
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.disk = self.disk.map(|d| d.with_fault_injector(injector));
        self
    }

    /// Whether a persistent tier is attached.
    #[cfg(test)]
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// The breaker's counter snapshot (zeros without a disk tier).
    pub fn breaker_snapshot(&self) -> BreakerSnapshot {
        self.breaker
            .as_ref()
            .map(|b| b.snapshot())
            .unwrap_or_default()
    }

    fn mem(&self) -> MutexGuard<'_, MemTier> {
        self.mem.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ResultCache for TieredCache {
    fn get(&self, key: &CacheKey) -> Option<(Arc<CachedBody>, Tier)> {
        if let Some(body) = self.mem().get(key) {
            return Some((body, Tier::Mem));
        }
        if let Some(disk) = &self.disk {
            let breaker = self.breaker.as_ref().expect("disk tier has a breaker");
            if breaker.allow() {
                let (body, io_error) = disk.get_checked(key);
                breaker.record(io_error);
                if let Some(body) = body {
                    // Promote: the *next* get for this key is a mem hit.
                    self.mem().put(key, Arc::clone(&body));
                    return Some((body, Tier::Disk));
                }
            }
        }
        *self.misses.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        None
    }

    fn put(&self, key: &CacheKey, body: &Arc<CachedBody>) {
        self.mem().put(key, Arc::clone(body));
        if let Some(disk) = &self.disk {
            let breaker = self.breaker.as_ref().expect("disk tier has a breaker");
            if breaker.allow() {
                breaker.record(disk.put_checked(key, body));
            }
        }
    }

    /// The daemon's warm-start pass: every persisted entry is read and
    /// re-validated (evicting stale or corrupt ones) *without*
    /// promotion into memory. Promotion is deliberately left to the
    /// first real request so the restart path is observable — it
    /// answers `disk`, then `mem`.
    fn warm_start(&self, version: u64) -> (usize, usize) {
        match &self.disk {
            Some(disk) => disk.warm_validate(version),
            None => (0, 0),
        }
    }

    fn degraded(&self) -> bool {
        self.breaker.as_ref().is_some_and(|b| b.degraded())
    }

    fn stats(&self) -> CacheStats {
        let (mem_hits, _, mem_evictions) = self.mem().counters();
        let mem_entries = self.mem().len() as u64;
        let misses = *self.misses.lock().unwrap_or_else(PoisonError::into_inner);
        let disk = self.disk.as_ref().map(|d| d.snapshot()).unwrap_or_default();
        let breaker = self.breaker_snapshot();
        CacheStats {
            mem_hits,
            disk_hits: disk.hits,
            misses,
            // Memory-only puts still count: fall back to the mem tier's
            // insert count when no disk tier exists.
            puts: if self.disk.is_some() {
                disk.puts
            } else {
                self.puts_mem_only()
            },
            dedup_puts: disk.dedup_puts,
            mem_evictions,
            evicted_size: disk.evicted_size,
            evicted_corrupt: disk.evicted_corrupt,
            evicted_version: disk.evicted_version,
            io_errors: disk.io_errors,
            mem_entries,
            disk_entries: disk.entries,
            disk_bytes: disk.bytes,
            breaker_state: breaker.state,
            breaker_opens: breaker.opens,
            breaker_closes: breaker.closes,
            breaker_probes: breaker.probes,
            breaker_skipped: breaker.skipped,
        }
    }
}

impl TieredCache {
    fn puts_mem_only(&self) -> u64 {
        // Without a disk tier the only put record is the mem tier's
        // population plus what it has evicted since.
        let mem = self.mem();
        mem.len() as u64 + mem.counters().2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcor-tiered-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn body(text: &str) -> Arc<CachedBody> {
        Arc::new(CachedBody::text("application/json", text))
    }

    #[test]
    fn memory_only_hits_and_misses() {
        let cache = TieredCache::memory_only(4);
        let key = CacheKey::new(1, 1);
        assert!(cache.get(&key).is_none());
        cache.put(&key, &body("x"));
        let (got, tier) = cache.get(&key).expect("hit");
        assert_eq!((got.bytes.as_slice(), tier), (b"x".as_slice(), Tier::Mem));
        let stats = cache.stats();
        assert_eq!(
            (stats.mem_hits, stats.misses, stats.puts, stats.disk_entries),
            (1, 1, 1, 0)
        );
        assert!(!cache.has_disk());
    }

    #[test]
    fn disk_hit_promotes_to_mem() {
        let dir = tmp("promote");
        let key = CacheKey::new(2, 1);
        {
            let cache = TieredCache::open(4, Some((dir.clone(), 1 << 20))).unwrap();
            cache.put(&key, &body("persisted"));
        }
        let cache = TieredCache::open(4, Some((dir.clone(), 1 << 20))).unwrap();
        assert!(cache.has_disk());
        let (_, first) = cache.get(&key).expect("disk hit");
        assert_eq!(first, Tier::Disk);
        let (got, second) = cache.get(&key).expect("mem hit");
        assert_eq!(second, Tier::Mem);
        assert_eq!(got.bytes, b"persisted");
        let stats = cache.stats();
        assert_eq!((stats.disk_hits, stats.mem_hits), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_validates_without_promoting() {
        let dir = tmp("warm");
        let key = CacheKey::new(3, 7);
        TieredCache::open(4, Some((dir.clone(), 1 << 20)))
            .unwrap()
            .put(&key, &body("warm"));
        let cache = TieredCache::open(4, Some((dir.clone(), 1 << 20))).unwrap();
        assert_eq!(cache.warm_start(7), (1, 0));
        // Warm start must NOT have promoted: first request is disk.
        let (_, tier) = cache.get(&key).expect("hit");
        assert_eq!(tier, Tier::Disk);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_evicts_stale_versions() {
        let dir = tmp("warmstale");
        TieredCache::open(4, Some((dir.clone(), 1 << 20)))
            .unwrap()
            .put(&CacheKey::new(4, 1), &body("old build"));
        let cache = TieredCache::open(4, Some((dir.clone(), 1 << 20))).unwrap();
        assert_eq!(cache.warm_start(2), (0, 1), "stale entry evicted");
        assert!(cache.get(&CacheKey::new(4, 2)).is_none());
        assert_eq!(cache.stats().evicted_version, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn breaker_opens_after_consecutive_io_errors_and_stops_taxing_disk() {
        let dir = tmp("breaker-open");
        let cache = TieredCache::open(0, Some((dir.clone(), 1 << 20)))
            .unwrap()
            .with_breaker_config(crate::BreakerConfig {
                threshold: 3,
                cooldown: std::time::Duration::from_secs(60),
            })
            .with_fault_injector(Arc::new(
                tcor_common::FaultInjector::parse(9, "pcache/read=100").unwrap(),
            ));
        // mem capacity 0: every get reaches the disk tier.
        for i in 0..10u64 {
            assert!(cache.get(&CacheKey::new(i, 1)).is_none());
        }
        let stats = cache.stats();
        assert_eq!(stats.io_errors, 3, "breaker capped the damage at N");
        assert_eq!(stats.breaker_state, 2);
        assert_eq!(stats.breaker_opens, 1);
        assert_eq!(stats.breaker_skipped, 7, "remaining gets skipped disk");
        assert!(cache.degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn breaker_recovers_through_a_half_open_probe() {
        let dir = tmp("breaker-recover");
        let cache = TieredCache::open(0, Some((dir.clone(), 1 << 20)))
            .unwrap()
            .with_breaker_config(crate::BreakerConfig {
                threshold: 2,
                cooldown: std::time::Duration::from_millis(10),
            })
            .with_fault_injector(Arc::new(
                tcor_common::FaultInjector::parse(9, "pcache/read=100#2").unwrap(),
            ));
        let key = CacheKey::new(6, 1);
        assert!(cache.get(&key).is_none());
        assert!(cache.get(&key).is_none());
        assert!(cache.degraded(), "two errors tripped the breaker");
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Fault budget is spent: the probe succeeds and closes.
        assert!(cache.get(&key).is_none(), "clean miss, healthy disk");
        let stats = cache.stats();
        assert_eq!((stats.breaker_state, stats.breaker_closes), (0, 1));
        assert!(stats.breaker_probes >= 1);
        assert!(!cache.degraded());
        // Disk service is restored end to end.
        cache.put(&key, &body("healed"));
        let cache2 = TieredCache::open(4, Some((dir.clone(), 1 << 20))).unwrap();
        assert_eq!(cache2.get(&key).unwrap().0.bytes, b"healed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_through_lands_in_both_tiers() {
        let dir = tmp("wt");
        let key = CacheKey::new(5, 1);
        let cache = TieredCache::open(4, Some((dir.clone(), 1 << 20))).unwrap();
        cache.put(&key, &body("both"));
        let stats = cache.stats();
        assert_eq!((stats.mem_entries, stats.disk_entries), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
