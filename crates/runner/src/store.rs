//! Content-addressed in-memory artifact memoization.
//!
//! Artifacts (a calibrated scene, a frame plan, a cell report, an
//! annotated trace) are keyed by a stable `fxhash64` of the
//! configuration that produces them. The first requester computes; any
//! concurrent requester for the same key waits until the winner
//! publishes and shares the resulting `Arc` — each artifact is built
//! exactly once per process regardless of schedule. Rendered serve
//! responses are not artifacts: the daemon's result cache
//! (`tcor_pcache`) is their one store, and it alone persists them.
//!
//! The store is a map of published artifacts in front of a
//! [`Singleflight`], the same leader/follower primitive the daemon
//! coalesces requests on. A caller probes the map, then joins the key's
//! flight; its leader probes the map once more (a flight is forgotten
//! the moment it settles, so a caller that missed the map just before
//! the previous leader published may lead a fresh flight) and only then
//! computes, publishes, and finishes the flight.
//!
//! Failure model: a key that resolves to a value of a different type
//! than requested is a key-collision bug at some call site; it is
//! reported as a typed [`ErrorKind::Corruption`] error, never a panic,
//! so one bad cell cannot tear down the suite. A computation that
//! panics *or* returns a typed error publishes nothing and abandons its
//! flight, waking every follower; they return to the map probe and one
//! of them leads the retry, so a partial entry can never wedge
//! concurrent readers. Lock poisoning is recovered with
//! [`PoisonError::into_inner`]: the map changes only by single inserts,
//! so a thread that panicked while holding its lock cannot have left it
//! half-updated.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tcor_common::flight::{Join, Singleflight, Waited};
use tcor_common::{TcorError, TcorResult};

type Erased = Arc<dyn Any + Send + Sync>;

/// The shared store. Cheap to share by reference across the worker
/// pool; all methods take `&self`.
#[derive(Default)]
pub struct ArtifactStore {
    published: Mutex<HashMap<u64, Erased>>,
    flights: Singleflight<Erased>,
    hits: AtomicU64,
    computes: AtomicU64,
}

fn type_confusion(key: u64, requested: &str) -> TcorError {
    TcorError::corruption(format!(
        "artifact store key {key:#018x} holds a value of a different type \
         than the requested `{requested}` — key collision or type confusion \
         at a call site"
    ))
}

fn downcast<A: Send + Sync + 'static>(key: u64, erased: Erased) -> TcorResult<Arc<A>> {
    erased
        .downcast::<A>()
        .map_err(|_| type_confusion(key, std::any::type_name::<A>()))
}

impl ArtifactStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn published(&self) -> MutexGuard<'_, HashMap<u64, Erased>> {
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The published artifact under `key`; the map lock is released on
    /// return.
    fn lookup(&self, key: u64) -> Option<Erased> {
        self.published().get(&key).cloned()
    }

    /// Returns a shared artifact, counted as a hit.
    fn hit<A: Send + Sync + 'static>(&self, key: u64, erased: Erased) -> TcorResult<Arc<A>> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        downcast(key, erased)
    }

    /// Returns the artifact under `key`, computing it with `f` if
    /// absent. Concurrent calls with the same key compute once and
    /// share; the losers block until the artifact exists. If `f`
    /// panics nothing is published, every waiter is woken (one of them
    /// retries as the new leader), and the panic is propagated to — and
    /// contained by — the executor.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::Corruption`](tcor_common::ErrorKind)
    /// error if `key` already holds an artifact of a different type —
    /// a key-collision bug at the call site, never silent.
    pub fn get_or_compute<A, F>(&self, key: u64, f: F) -> TcorResult<Arc<A>>
    where
        A: Send + Sync + 'static,
        F: FnOnce() -> A,
    {
        self.get_or_try_compute(key, || Ok(f()))
    }

    /// The fallible entry point: like [`get_or_compute`], but `f` may
    /// return a typed error. An error is returned to the leader *and
    /// publishes nothing* — waiters are woken and the first of them
    /// retries the computation, so a transient failure (or a panicking
    /// leader) never leaves a poisoned or partial entry behind.
    ///
    /// Reentrancy: computing `key` from inside its own `f` deadlocks
    /// (the leader would follow its own flight); keep artifact
    /// dependencies acyclic.
    ///
    /// # Errors
    ///
    /// Propagates `f`'s error verbatim; returns a corruption error on
    /// key type confusion.
    pub fn get_or_try_compute<A, F>(&self, key: u64, f: F) -> TcorResult<Arc<A>>
    where
        A: Send + Sync + 'static,
        F: FnOnce() -> TcorResult<A>,
    {
        loop {
            if let Some(v) = self.lookup(key) {
                return self.hit(key, v);
            }
            let token = match self.flights.join(key) {
                Join::Leader(token) => token,
                Join::Follower(handle) => match handle.wait(None) {
                    Waited::Done(v) => return self.hit(key, v),
                    // The leader failed (a wait with no deadline never
                    // times out): back to the map probe, where one of
                    // the rejoining callers leads the retry.
                    Waited::Abandoned | Waited::TimedOut => continue,
                },
            };
            if let Some(v) = self.lookup(key) {
                token.finish(Arc::clone(&v));
                return self.hit(key, v);
            }
            // Dropping the token on an error or a panic abandons the
            // flight and wakes its followers.
            let erased: Erased = match catch_unwind(AssertUnwindSafe(f)) {
                Ok(Ok(value)) => Arc::new(value),
                Ok(Err(e)) => return Err(e),
                Err(panic) => {
                    drop(token);
                    resume_unwind(panic)
                }
            };
            self.published().insert(key, Arc::clone(&erased));
            self.computes.fetch_add(1, Ordering::Relaxed);
            token.finish(Arc::clone(&erased));
            return downcast(key, erased);
        }
    }

    /// Returns the artifact under `key` if (and only if) it has been
    /// computed, without blocking on in-flight computation by others.
    ///
    /// # Errors
    ///
    /// Returns a corruption error on type confusion, like
    /// [`get_or_compute`](Self::get_or_compute).
    pub fn get<A: Send + Sync + 'static>(&self, key: u64) -> TcorResult<Option<Arc<A>>> {
        self.lookup(key).map(|v| downcast(key, v)).transpose()
    }

    /// Number of keys with a completed artifact.
    pub fn len(&self) -> usize {
        self.published().len()
    }

    /// Whether nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many lookups were served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// How many artifacts were actually computed.
    pub fn computes(&self) -> u64 {
        self.computes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn computes_once_and_shares() {
        let store = ArtifactStore::new();
        let calls = AtomicUsize::new(0);
        let a: Arc<Vec<u32>> = store
            .get_or_compute(1, || {
                calls.fetch_add(1, Ordering::SeqCst);
                vec![1, 2, 3]
            })
            .unwrap();
        let b: Arc<Vec<u32>> = store
            .get_or_compute(1, || {
                calls.fetch_add(1, Ordering::SeqCst);
                vec![9, 9, 9]
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.computes(), 1);
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let store = ArtifactStore::new();
        let a: Arc<u64> = store.get_or_compute(10, || 100).unwrap();
        let b: Arc<u64> = store.get_or_compute(11, || 200).unwrap();
        assert_eq!((*a, *b), (100, 200));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn get_sees_only_completed() {
        let store = ArtifactStore::new();
        assert!(store.get::<u64>(5).unwrap().is_none());
        let _ = store.get_or_compute(5, || 7u64);
        assert_eq!(*store.get::<u64>(5).unwrap().expect("present"), 7);
    }

    #[test]
    fn type_collision_is_a_typed_corruption_error() {
        let store = ArtifactStore::new();
        let _ = store.get_or_compute(3, || 1u64);
        let err = store
            .get_or_compute::<String, _>(3, || "oops".to_string())
            .unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Corruption);
        let msg = err.to_string();
        assert!(msg.contains("0x0000000000000003"), "{msg}");
        assert!(msg.contains("String"), "{msg}");
        // The blocking-free getter reports the same way.
        let err = store.get::<String>(3).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Corruption);
        // The store itself is still usable and the original intact.
        assert_eq!(*store.get::<u64>(3).unwrap().expect("original"), 1);
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        let store = ArtifactStore::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let v: Arc<u64> = store
                        .get_or_compute(42, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            99
                        })
                        .unwrap();
                    assert_eq!(*v, 99);
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    /// The serving plane's regression: two callers racing through the
    /// fallible entry point compute exactly once, and both get the
    /// winner's artifact.
    #[test]
    fn racing_fallible_callers_compute_once() {
        let store = ArtifactStore::new();
        let calls = AtomicUsize::new(0);
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            let run = || {
                gate.wait();
                let v: Arc<String> = store
                    .get_or_try_compute(7, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        Ok("artifact".to_string())
                    })
                    .unwrap();
                assert_eq!(*v, "artifact");
            };
            let t = s.spawn(run);
            run();
            t.join().unwrap();
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!((store.computes(), store.hits()), (1, 1));
    }

    /// A failed computation leaves the slot empty: the waiter that was
    /// blocked on the failing leader is woken, retries as the new
    /// leader, and succeeds — no poisoned/partial entry survives.
    #[test]
    fn failed_leader_wakes_waiter_who_retries() {
        let store = ArtifactStore::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let loser = s.spawn(|| {
                store.get_or_try_compute::<u64, _>(11, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    Err(TcorError::execution("transient failure"))
                })
            });
            // Give the loser time to become the leader, then pile on.
            std::thread::sleep(std::time::Duration::from_millis(5));
            let winner: Arc<u64> = store
                .get_or_try_compute(11, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Ok(5)
                })
                .unwrap();
            assert_eq!(*winner, 5);
            let err = loser.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), tcor_common::ErrorKind::Execution);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2, "fail once, retry once");
        assert_eq!(*store.get::<u64>(11).unwrap().expect("retried"), 5);
    }

    /// A leader that panics abandons its flight: the waiter behind it
    /// leads the retry with its own closure, while the panic reaches the
    /// leader's caller.
    #[test]
    fn waiter_behind_a_panicking_leader_recomputes() {
        let store = ArtifactStore::new();
        let calls = AtomicUsize::new(0);
        let leading = Barrier::new(2);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                store.get_or_compute::<u64, _>(13, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    leading.wait();
                    // Let the waiter join the flight before it fails.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("leader fails mid-computation")
                })
            });
            leading.wait();
            let waiter: Arc<u64> = store
                .get_or_compute(13, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    8
                })
                .unwrap();
            assert_eq!(*waiter, 8, "the waiter computed its own value");
            assert!(leader.join().is_err(), "the leader's panic propagates");
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2, "fail once, retry once");
        assert_eq!((store.computes(), store.len()), (1, 1));
    }

    #[test]
    fn panicked_initialization_leaves_the_slot_retryable() {
        let store = ArtifactStore::new();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = store.get_or_compute::<u64, _>(9, || panic!("boom"));
        }));
        assert!(attempt.is_err());
        // The slot was not filled; a clean retry succeeds.
        let v = store.get_or_compute(9, || 5u64).unwrap();
        assert_eq!(*v, 5);
    }
}
