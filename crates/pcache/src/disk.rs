//! The cross-session disk tier.
//!
//! Layout: one self-validating object file per entry
//! (`<identity-hex>.tcpc`, the [`crate::body`] format) plus a
//! human-readable `index.tsv` caching sizes, recency and payload
//! hashes. The object files are the truth; the index is an
//! accelerator:
//!
//! * every object write goes through `tcor_common::write_atomic_unique`
//!   (per-process, per-call staging names), so a crash can strand a
//!   `*.tmp` sibling but never a half-written entry, and two processes
//!   staging the same object never interleave inside one tmp file;
//! * the index is itself rewritten atomically, and `open` *reconciles*
//!   it against a directory scan — entries on disk but missing from
//!   the index are adopted (validated on first use), index lines whose
//!   file is gone are dropped, and a malformed or truncated index (a
//!   torn copy, a sibling process's partial state) degrades to the
//!   scan, never to an error;
//! * a lookup that misses the in-memory index probes the object path
//!   directly, so entries written by a *concurrent* process sharing
//!   the directory are found without coordination.
//!
//! Sharing discipline is last-writer-wins with re-validation: two
//! daemons pointed at one `--cache-dir`
//! may interleave freely. Atomic renames keep every object either
//! whole-old or whole-new; whichever index lands last simply loses the
//! other writer's recency hints, which the next reconcile/probe
//! recovers. Nothing is ever *served* on trust — every load
//! re-validates magic, identity, version and integrity hash, and a
//! failed check evicts the file and reports a miss.
//!
//! Eviction: the byte budget counts whole object files; a put that
//! would exceed it evicts least-recently-used entries first (their
//! recency is a logical clock persisted in the index, bumped on every
//! hit). A payload larger than the entire budget is refused and
//! counted, not silently dropped.

use crate::body::{decode, CachedBody, DecodeError};
use crate::key::CacheKey;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tcor_common::{fault, write_atomic_unique, FaultInjector, TcorError, TcorResult};

/// Object file extension.
const OBJ_EXT: &str = "tcpc";
/// Index file name and its header line.
const INDEX_FILE: &str = "index.tsv";
const INDEX_HEADER: &str = "tcor-pcache-index v1";

/// What the index remembers about one object file.
#[derive(Clone, Copy, Debug)]
struct EntryMeta {
    /// Whole-file size in bytes (what the budget charges).
    size: u64,
    /// Logical last-use tick (higher = more recent).
    last_used: u64,
    /// Payload integrity hash; 0 = not yet validated (scan adoption).
    payload_hash: u64,
    /// Version hash the entry was written under; 0 = unknown.
    version: u64,
}

#[derive(Default)]
struct Counters {
    hits: u64,
    puts: u64,
    dedup_puts: u64,
    evicted_size: u64,
    evicted_corrupt: u64,
    evicted_version: u64,
    io_errors: u64,
    oversize_puts: u64,
}

struct DiskState {
    entries: HashMap<u64, EntryMeta>,
    clock: u64,
    total_bytes: u64,
    counters: Counters,
}

/// The persistent tier over one cache directory.
pub struct DiskTier {
    dir: PathBuf,
    budget: u64,
    /// Hermetic fault injector for tests; `None` defers to the
    /// process-wide `tcor_common::fault` injector (the chaos harness).
    injector: Option<Arc<FaultInjector>>,
    state: Mutex<DiskState>,
}

/// Outcome of a disk lookup, with eviction reasons surfaced so the
/// composition can count them.
enum Loaded {
    Hit(CachedBody),
    Miss,
}

impl DiskTier {
    /// Opens (creating if needed) the cache directory with `budget`
    /// bytes of object storage, loading and reconciling the index.
    ///
    /// # Errors
    ///
    /// An I/O error if the directory cannot be created or scanned; a
    /// malformed *index* is never an error (it is rebuilt from the
    /// scan).
    pub fn open(dir: impl AsRef<Path>, budget: u64) -> TcorResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        if fault::fire("pcache/open").is_some() {
            return Err(TcorError::io(
                format!("opening cache dir {}", dir.display()),
                std::io::Error::other("injected fault at pcache/open"),
            ));
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| TcorError::io(format!("creating cache dir {}", dir.display()), e))?;
        let mut entries = load_index(&dir.join(INDEX_FILE));
        reconcile(&dir, &mut entries)?;
        let clock = entries.values().map(|m| m.last_used).max().unwrap_or(0) + 1;
        let total_bytes = entries.values().map(|m| m.size).sum();
        Ok(DiskTier {
            dir,
            budget: budget.max(1),
            injector: None,
            state: Mutex::new(DiskState {
                entries,
                clock,
                total_bytes,
                counters: Counters::default(),
            }),
        })
    }

    /// Attaches a hermetic fault injector (tests); without one, the
    /// process-wide `tcor_common::fault` injector governs.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Asks the owning injector (instance, else global) about `point`.
    fn fault(&self, point: &str) -> Option<u64> {
        match &self.injector {
            Some(injector) => injector.fire(point),
            None => fault::fire(point),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    fn object_path(&self, identity: u64) -> PathBuf {
        self.dir.join(format!("{identity:016x}.{OBJ_EXT}"))
    }

    fn lock(&self) -> MutexGuard<'_, DiskState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn remove_entry(st: &mut DiskState, identity: u64) {
        if let Some(meta) = st.entries.remove(&identity) {
            st.total_bytes = st.total_bytes.saturating_sub(meta.size);
        }
    }

    /// Reads, validates and classifies one object file. Invalid
    /// entries are deleted from disk and dropped from the index.
    /// The second return is `true` when an I/O error occurred (the
    /// breaker's failure signal — a clean miss is *not* one).
    fn load(&self, st: &mut DiskState, key: &CacheKey) -> (Loaded, bool) {
        let path = self.object_path(key.identity);
        if self.fault("pcache/read").is_some() {
            st.counters.io_errors += 1;
            return (Loaded::Miss, true);
        }
        let raw = match std::fs::read(&path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // A sibling process evicted it (or it never existed).
                Self::remove_entry(st, key.identity);
                return (Loaded::Miss, false);
            }
            Err(_) => {
                st.counters.io_errors += 1;
                return (Loaded::Miss, true);
            }
        };
        // A short read hands the decoder a strict prefix: it must
        // classify the entry Truncated, which evicts it below.
        let raw = match self.fault("pcache/short_read") {
            Some(keep) => raw[..(keep as usize).min(raw.len().saturating_sub(1))].to_vec(),
            None => raw,
        };
        match decode(key, &raw) {
            Ok(body) => {
                let size = raw.len() as u64;
                st.clock += 1;
                let tick = st.clock;
                let prev = st.entries.insert(
                    key.identity,
                    EntryMeta {
                        size,
                        last_used: tick,
                        payload_hash: body.integrity_hash(),
                        version: key.version,
                    },
                );
                st.total_bytes = st.total_bytes - prev.map_or(0, |m| m.size) + size;
                (Loaded::Hit(body), false)
            }
            Err(e) => {
                match e {
                    DecodeError::VersionMismatch => st.counters.evicted_version += 1,
                    _ => st.counters.evicted_corrupt += 1,
                }
                Self::remove_entry(st, key.identity);
                let _ = std::fs::remove_file(&path);
                (Loaded::Miss, false)
            }
        }
    }

    /// Looks up `key`; a hit bumps its recency. Entries unknown to the
    /// index are probed on disk (a sibling process may have written
    /// them); entries that fail validation are evicted and missed.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedBody>> {
        self.get_checked(key).0
    }

    /// [`get`](DiskTier::get), also reporting whether an I/O error
    /// occurred — the circuit breaker's failure signal.
    pub fn get_checked(&self, key: &CacheKey) -> (Option<Arc<CachedBody>>, bool) {
        let mut st = self.lock();
        // Known entries written under a *different* version are stale
        // by bookkeeping alone; let the load path classify and evict.
        match self.load(&mut st, key) {
            (Loaded::Hit(body), io_error) => {
                st.counters.hits += 1;
                (Some(Arc::new(body)), io_error)
            }
            (Loaded::Miss, io_error) => (None, io_error),
        }
    }

    /// Stores `body` under `key`, evicting LRU entries to stay inside
    /// the byte budget. Identical bytes already on disk are only
    /// touched (content dedup). Failures are counted, never raised.
    pub fn put(&self, key: &CacheKey, body: &CachedBody) {
        let _ = self.put_checked(key, body);
    }

    /// [`put`](DiskTier::put), also reporting whether an I/O error
    /// occurred — the circuit breaker's failure signal.
    pub fn put_checked(&self, key: &CacheKey, body: &CachedBody) -> bool {
        let hash = body.integrity_hash();
        let mut st = self.lock();
        let dedup = st.entries.get(&key.identity).is_some_and(|meta| {
            meta.payload_hash == hash && meta.version == key.version && meta.payload_hash != 0
        });
        if dedup {
            st.clock += 1;
            let tick = st.clock;
            st.entries
                .get_mut(&key.identity)
                .expect("present")
                .last_used = tick;
            st.counters.dedup_puts += 1;
            drop(st);
            return self.persist_index();
        }
        let raw = body.encode(key);
        let size = raw.len() as u64;
        if size > self.budget {
            st.counters.oversize_puts += 1;
            return false;
        }
        // Make room: evict coldest entries (never the one being
        // replaced — its bytes are about to be overwritten in place).
        let replacing = st.entries.get(&key.identity).map_or(0, |m| m.size);
        while st.total_bytes - replacing + size > self.budget {
            let Some((&victim, _)) = st
                .entries
                .iter()
                .filter(|(&id, _)| id != key.identity)
                .min_by_key(|(_, m)| m.last_used)
            else {
                break;
            };
            Self::remove_entry(&mut st, victim);
            let _ = std::fs::remove_file(self.object_path(victim));
            st.counters.evicted_size += 1;
        }
        let mut io_error = false;
        if self.fault("pcache/write").is_some() || self.fault("pcache/rename").is_some() {
            st.counters.io_errors += 1;
            io_error = true;
        } else {
            // A torn write succeeds from the writer's point of view
            // but lands only a prefix of the bytes on disk; the next
            // read finds a Truncated entry and evicts it.
            let written: &[u8] = match self.fault("pcache/torn_write") {
                Some(offset) => &raw[..(offset as usize).min(raw.len().saturating_sub(1))],
                None => &raw,
            };
            match write_atomic_unique(&self.object_path(key.identity), written) {
                Ok(()) => {
                    st.clock += 1;
                    let tick = st.clock;
                    let prev = st.entries.insert(
                        key.identity,
                        EntryMeta {
                            size,
                            last_used: tick,
                            payload_hash: hash,
                            version: key.version,
                        },
                    );
                    st.total_bytes = st.total_bytes - prev.map_or(0, |m| m.size) + size;
                    st.counters.puts += 1;
                }
                Err(_) => {
                    st.counters.io_errors += 1;
                    io_error = true;
                }
            }
        }
        drop(st);
        self.persist_index() || io_error
    }

    /// Validates every tracked entry against `version` without
    /// counting hits: the daemon's warm-start pass. Invalid entries
    /// are evicted (and counted); valid ones get their hashes adopted
    /// into the index and their bytes pulled through the page cache,
    /// so the first request after a restart runs at warm-disk latency.
    /// Returns `(valid, evicted)`.
    pub fn warm_validate(&self, version: u64) -> (usize, usize) {
        let identities: Vec<u64> = {
            let st = self.lock();
            st.entries.keys().copied().collect()
        };
        let (mut valid, mut evicted) = (0, 0);
        for identity in identities {
            let key = CacheKey::new(identity, version);
            let mut st = self.lock();
            match self.load(&mut st, &key) {
                (Loaded::Hit(_), _) => valid += 1,
                (Loaded::Miss, _) => evicted += 1,
            }
        }
        self.persist_index();
        (valid, evicted)
    }

    /// Writes the index (atomically); called after every put and on
    /// drop so recency survives restarts. Failures are counted — the
    /// objects remain the truth and the next open re-scans. Returns
    /// `true` when the write failed (an I/O error for the breaker).
    fn persist_index(&self) -> bool {
        let mut st = self.lock();
        let mut lines: Vec<(u64, EntryMeta)> = st.entries.iter().map(|(&id, &m)| (id, m)).collect();
        lines.sort_by_key(|&(id, _)| id);
        let mut text = String::from(INDEX_HEADER);
        text.push('\n');
        for (id, m) in lines {
            text.push_str(&format!(
                "{id:016x}\t{}\t{}\t{:016x}\t{:016x}\n",
                m.size, m.last_used, m.payload_hash, m.version
            ));
        }
        if write_atomic_unique(&self.dir.join(INDEX_FILE), text.as_bytes()).is_err() {
            st.counters.io_errors += 1;
            return true;
        }
        false
    }

    /// Counter and gauge snapshot, merged into [`crate::CacheStats`]
    /// by the tiered composition.
    pub fn snapshot(&self) -> DiskSnapshot {
        let st = self.lock();
        DiskSnapshot {
            hits: st.counters.hits,
            puts: st.counters.puts,
            dedup_puts: st.counters.dedup_puts,
            evicted_size: st.counters.evicted_size + st.counters.oversize_puts,
            evicted_corrupt: st.counters.evicted_corrupt,
            evicted_version: st.counters.evicted_version,
            io_errors: st.counters.io_errors,
            entries: st.entries.len() as u64,
            bytes: st.total_bytes,
        }
    }
}

impl Drop for DiskTier {
    fn drop(&mut self) {
        self.persist_index();
    }
}

/// Public counter snapshot of one disk tier.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskSnapshot {
    /// Gets served from disk.
    pub hits: u64,
    /// Object files written.
    pub puts: u64,
    /// Puts skipped because identical bytes were already stored.
    pub dedup_puts: u64,
    /// Entries evicted for the byte budget (including oversize puts
    /// that were refused outright).
    pub evicted_size: u64,
    /// Entries evicted as corrupt/truncated/misfiled.
    pub evicted_corrupt: u64,
    /// Entries evicted as stale-version.
    pub evicted_version: u64,
    /// I/O failures absorbed as misses.
    pub io_errors: u64,
    /// Entries currently tracked.
    pub entries: u64,
    /// Object bytes currently tracked.
    pub bytes: u64,
}

/// Parses the index leniently: a missing, foreign or torn file yields
/// whatever prefix parses; the reconcile pass fixes the rest.
fn load_index(path: &Path) -> HashMap<u64, EntryMeta> {
    let mut entries = HashMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return entries;
    };
    let mut lines = text.lines();
    if lines.next() != Some(INDEX_HEADER) {
        return entries;
    }
    for line in lines {
        let mut f = line.split('\t');
        let parsed = (|| {
            let id = u64::from_str_radix(f.next()?, 16).ok()?;
            let size = f.next()?.parse().ok()?;
            let last_used = f.next()?.parse().ok()?;
            let payload_hash = u64::from_str_radix(f.next()?, 16).ok()?;
            let version = u64::from_str_radix(f.next()?, 16).ok()?;
            Some((
                id,
                EntryMeta {
                    size,
                    last_used,
                    payload_hash,
                    version,
                },
            ))
        })();
        // A malformed line is a truncation tail or foreign edit: skip
        // it — the object files carry their own truth.
        if let Some((id, meta)) = parsed {
            entries.insert(id, meta);
        }
    }
    entries
}

/// Reconciles the parsed index against the directory: adopts scanned
/// objects the index missed (validated lazily on first get) and drops
/// index entries whose file is gone. Sizes are refreshed from the
/// filesystem so a sibling's rewrites are charged correctly.
fn reconcile(dir: &Path, entries: &mut HashMap<u64, EntryMeta>) -> TcorResult<()> {
    let mut on_disk: HashMap<u64, u64> = HashMap::new();
    let listing = std::fs::read_dir(dir)
        .map_err(|e| TcorError::io(format!("scanning cache dir {}", dir.display()), e))?;
    for item in listing {
        let Ok(item) = item else { continue };
        let path = item.path();
        if path.extension().and_then(|e| e.to_str()) != Some(OBJ_EXT) {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        let Ok(identity) = u64::from_str_radix(stem, 16) else {
            continue;
        };
        let Ok(meta) = item.metadata() else { continue };
        on_disk.insert(identity, meta.len());
    }
    entries.retain(|id, _| on_disk.contains_key(id));
    for (identity, size) in on_disk {
        let entry = entries.entry(identity).or_insert(EntryMeta {
            size,
            last_used: 0,
            payload_hash: 0,
            version: 0,
        });
        if entry.size != size {
            // The file changed under us: distrust the cached hashes.
            entry.size = size;
            entry.payload_hash = 0;
            entry.version = 0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tcor-pcache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn body(text: &str) -> CachedBody {
        CachedBody::text("application/json", text)
    }

    #[test]
    fn put_get_survives_reopen() {
        let dir = tmp("reopen");
        let key = CacheKey::new(0x1, 0xA);
        {
            let tier = DiskTier::open(&dir, 1 << 20).unwrap();
            tier.put(&key, &body("{\"v\":1}\n"));
            assert_eq!(tier.get(&key).expect("hit").bytes, b"{\"v\":1}\n");
        }
        let tier = DiskTier::open(&dir, 1 << 20).unwrap();
        let hit = tier.get(&key).expect("hit after restart");
        assert_eq!(hit.bytes, b"{\"v\":1}\n");
        assert_eq!(hit.content_type, "application/json");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_is_rebuilt_from_the_scan() {
        let dir = tmp("noindex");
        let key = CacheKey::new(0x2, 0xA);
        DiskTier::open(&dir, 1 << 20)
            .unwrap()
            .put(&key, &body("scan me"));
        std::fs::remove_file(dir.join(INDEX_FILE)).unwrap();
        let tier = DiskTier::open(&dir, 1 << 20).unwrap();
        assert_eq!(tier.get(&key).expect("adopted from scan").bytes, b"scan me");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_index_degrades_to_the_scan() {
        let dir = tmp("tornindex");
        let key = CacheKey::new(0x3, 0xA);
        DiskTier::open(&dir, 1 << 20)
            .unwrap()
            .put(&key, &body("torn"));
        // Tear the index mid-line, as a crash mid-copy would.
        let index = dir.join(INDEX_FILE);
        let text = std::fs::read_to_string(&index).unwrap();
        std::fs::write(&index, &text.as_bytes()[..text.len() - 7]).unwrap();
        let tier = DiskTier::open(&dir, 1 << 20).unwrap();
        assert_eq!(tier.get(&key).expect("scan wins").bytes, b"torn");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let dir = tmp("budget");
        // Each entry is 44 header + 16 ct + 8 payload = 68 bytes; a
        // 210-byte budget holds three.
        let tier = DiskTier::open(&dir, 210).unwrap();
        let payload = "12345678";
        for id in 1..=3u64 {
            tier.put(&CacheKey::new(id, 1), &body(payload));
        }
        assert_eq!(tier.snapshot().entries, 3);
        // Touch 1 so 2 is the LRU victim.
        assert!(tier.get(&CacheKey::new(1, 1)).is_some());
        tier.put(&CacheKey::new(4, 1), &body(payload));
        let snap = tier.snapshot();
        assert_eq!(snap.entries, 3);
        assert_eq!(snap.evicted_size, 1);
        assert!(snap.bytes <= 210);
        assert!(tier.get(&CacheKey::new(2, 1)).is_none(), "2 was evicted");
        assert!(tier.get(&CacheKey::new(1, 1)).is_some());
        assert!(tier.get(&CacheKey::new(4, 1)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversize_put_is_refused_and_counted() {
        let dir = tmp("oversize");
        let tier = DiskTier::open(&dir, 64).unwrap();
        tier.put(&CacheKey::new(9, 1), &body("this payload cannot fit"));
        let snap = tier.snapshot();
        assert_eq!(snap.entries, 0);
        assert_eq!(snap.evicted_size, 1, "refusal is visible, not silent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_faults_degrade_to_counted_misses() {
        let dir = tmp("faultread");
        let key = CacheKey::new(0x11, 1);
        let tier = DiskTier::open(&dir, 1 << 20)
            .unwrap()
            .with_fault_injector(Arc::new(
                FaultInjector::parse(3, "pcache/read=100#2").unwrap(),
            ));
        tier.put(&key, &body("still here"));
        let (got, io) = tier.get_checked(&key);
        assert!(got.is_none() && io, "injected read fault is an I/O miss");
        let (got, io) = tier.get_checked(&key);
        assert!(got.is_none() && io);
        assert_eq!(tier.snapshot().io_errors, 2);
        // Fault budget exhausted: the entry was never deleted.
        let (got, io) = tier.get_checked(&key);
        assert_eq!(got.expect("served after faults clear").bytes, b"still here");
        assert!(!io);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_counts_and_skips_the_object() {
        let dir = tmp("faultwrite");
        let tier = DiskTier::open(&dir, 1 << 20)
            .unwrap()
            .with_fault_injector(Arc::new(
                FaultInjector::parse(3, "pcache/write=100#1").unwrap(),
            ));
        let key = CacheKey::new(0x12, 1);
        assert!(tier.put_checked(&key, &body("lost")), "io error reported");
        assert!(tier.get(&key).is_none());
        assert_eq!(tier.snapshot().io_errors, 1);
        assert!(!tier.put_checked(&key, &body("kept")), "budget exhausted");
        assert_eq!(tier.get(&key).unwrap().bytes, b"kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_reads_evict_as_corrupt() {
        let dir = tmp("faultshort");
        let tier = DiskTier::open(&dir, 1 << 20)
            .unwrap()
            .with_fault_injector(Arc::new(
                FaultInjector::parse(3, "pcache/short_read=100#1").unwrap(),
            ));
        // A whole entry on disk, truncated in flight by the read.
        let key = CacheKey::new(0x14, 1);
        tier.put(&key, &body("short victim"));
        assert!(tier.get(&key).is_none(), "short read evicts on sight");
        assert_eq!(tier.snapshot().evicted_corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_evict_as_corrupt_on_next_read() {
        let dir = tmp("faulttorn");
        let tier = DiskTier::open(&dir, 1 << 20)
            .unwrap()
            .with_fault_injector(Arc::new(
                FaultInjector::parse(3, "pcache/torn_write=100@50#1").unwrap(),
            ));
        // The put "succeeds" from the writer's view but lands 50 bytes.
        let key = CacheKey::new(0x13, 1);
        assert!(!tier.put_checked(&key, &body("torn victim")), "undetected");
        assert_eq!(tier.snapshot().puts, 1);
        let (got, io) = tier.get_checked(&key);
        assert!(got.is_none() && !io, "truncation is corruption, not I/O");
        assert_eq!(tier.snapshot().evicted_corrupt, 1);
        // The budgeted fault is spent: the recomputed entry round-trips.
        tier.put(&key, &body("torn victim"));
        assert_eq!(tier.get(&key).unwrap().bytes, b"torn victim");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dedup_put_touches_instead_of_rewriting() {
        let dir = tmp("dedup");
        let tier = DiskTier::open(&dir, 1 << 20).unwrap();
        let key = CacheKey::new(0x5, 0xA);
        tier.put(&key, &body("same"));
        tier.put(&key, &body("same"));
        let snap = tier.snapshot();
        assert_eq!((snap.puts, snap.dedup_puts), (1, 1));
        // Changed bytes under the same key do rewrite.
        tier.put(&key, &body("different"));
        assert_eq!(tier.snapshot().puts, 2);
        assert_eq!(tier.get(&key).unwrap().bytes, b"different");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
