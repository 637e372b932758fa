//! Singleflight: coalesce identical in-flight computations onto one.
//!
//! The first caller to [`Singleflight::join`] a key becomes the
//! *leader* and owns the computation; every concurrent caller with the
//! same key becomes a *follower* that waits for the leader's value
//! instead of redoing the work — TCOR's never-redundant-work thesis
//! applied to the software around the simulator. The leader's
//! [`LeaderToken`] is a drop guard: if the leader panics (or otherwise
//! exits without [`finish`](LeaderToken::finish)ing), the flight is
//! marked abandoned and every follower is woken with
//! [`Waited::Abandoned`] rather than hanging.
//!
//! A flight memoizes nothing: it is forgotten once it settles. Each
//! caller keeps its own memo in front of it (`tcor_runner::ArtifactStore`
//! its map of published artifacts, the serving daemon its result
//! cache) and follows one pattern: probe the memo, join the flight,
//! and, as leader, probe the memo once more before computing. A flight
//! leaves the map before its followers wake, so a caller that missed
//! the memo just before the previous leader published can lead a fresh
//! flight; the second probe finds that leader's value instead of
//! computing it again.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

enum FlightState<T> {
    Pending,
    Done(T),
    Abandoned,
}

struct Flight<T> {
    state: Mutex<FlightState<T>>,
    settled: Condvar,
}

impl<T> Flight<T> {
    fn lock(&self) -> MutexGuard<'_, FlightState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The in-flight map. `T` is the flight's result; it is cloned to each
/// follower, so use something cheap ([`Arc`]-wrapped).
pub struct Singleflight<T: Clone> {
    flights: Mutex<HashMap<u64, Arc<Flight<T>>>>,
}

impl<T: Clone> Default for Singleflight<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// What [`Singleflight::join`] made of the caller.
pub enum Join<'a, T: Clone> {
    /// First in: compute, then [`LeaderToken::finish`].
    Leader(LeaderToken<'a, T>),
    /// Someone is already computing: [`FollowerHandle::wait`].
    Follower(FollowerHandle<T>),
}

/// Outcome of a follower's wait.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Waited<T> {
    /// The leader finished; here is its (cloned) result.
    Done(T),
    /// The leader vanished without publishing (panic) — retry or fail.
    Abandoned,
    /// The caller's deadline expired first; the flight continues.
    TimedOut,
}

impl<T: Clone> Singleflight<T> {
    /// An empty in-flight map.
    pub fn new() -> Self {
        Singleflight {
            flights: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<Flight<T>>>> {
        self.flights.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Joins the flight for `key`: the first caller becomes the leader,
    /// everyone else a follower of that leader's flight.
    pub fn join(&self, key: u64) -> Join<'_, T> {
        let mut flights = self.lock();
        if let Some(flight) = flights.get(&key) {
            return Join::Follower(FollowerHandle {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            settled: Condvar::new(),
        });
        flights.insert(key, Arc::clone(&flight));
        Join::Leader(LeaderToken {
            owner: self,
            key,
            flight,
            finished: false,
        })
    }

    /// Number of in-flight keys.
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.lock().len()
    }

    fn settle(&self, key: u64, flight: &Flight<T>, state: FlightState<T>) {
        // Remove from the map first: a new request for the key after
        // settling starts a fresh flight instead of reading stale state.
        self.lock().remove(&key);
        *flight.lock() = state;
        flight.settled.notify_all();
    }
}

/// Leadership of one flight. Publish with [`finish`](Self::finish);
/// dropping without finishing abandons the flight (panic path).
pub struct LeaderToken<'a, T: Clone> {
    owner: &'a Singleflight<T>,
    key: u64,
    flight: Arc<Flight<T>>,
    finished: bool,
}

impl<T: Clone> LeaderToken<'_, T> {
    /// Publishes the result to every follower and retires the flight.
    pub fn finish(mut self, value: T) {
        self.finished = true;
        self.owner
            .settle(self.key, &self.flight, FlightState::Done(value));
    }
}

impl<T: Clone> Drop for LeaderToken<'_, T> {
    fn drop(&mut self) {
        if !self.finished {
            self.owner
                .settle(self.key, &self.flight, FlightState::Abandoned);
        }
    }
}

/// A follower's handle on someone else's computation.
pub struct FollowerHandle<T: Clone> {
    flight: Arc<Flight<T>>,
}

impl<T: Clone> FollowerHandle<T> {
    /// Waits for the flight to settle, up to `timeout` (`None` = no
    /// limit). On [`Waited::TimedOut`] the flight itself keeps running
    /// — only this follower gives up.
    pub fn wait(self, timeout: Option<Duration>) -> Waited<T> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = self.flight.lock();
        loop {
            match &*state {
                FlightState::Done(v) => return Waited::Done(v.clone()),
                FlightState::Abandoned => return Waited::Abandoned,
                FlightState::Pending => match deadline {
                    None => {
                        state = self
                            .flight
                            .settled
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            return Waited::TimedOut;
                        }
                        let (guard, _) = self
                            .flight
                            .settled
                            .wait_timeout(state, deadline - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        state = guard;
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn leader_computes_followers_share() {
        let sf: Singleflight<Arc<String>> = Singleflight::new();
        let computes = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| match sf.join(1) {
                    Join::Leader(token) => {
                        computes.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(15));
                        token.finish(Arc::new("value".to_string()));
                    }
                    Join::Follower(h) => {
                        let Waited::Done(v) = h.wait(None) else {
                            panic!("leader must publish")
                        };
                        assert_eq!(*v, "value");
                    }
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        assert_eq!(sf.in_flight(), 0, "flight retired after finish");
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let sf: Singleflight<u32> = Singleflight::new();
        let Join::Leader(a) = sf.join(1) else {
            panic!("first join leads")
        };
        let Join::Leader(b) = sf.join(2) else {
            panic!("distinct key also leads")
        };
        assert_eq!(sf.in_flight(), 2);
        a.finish(10);
        b.finish(20);
        // Both retired: a re-join leads again.
        assert!(matches!(sf.join(1), Join::Leader(_)));
    }

    #[test]
    fn abandoned_leader_wakes_followers() {
        let sf: Singleflight<u32> = Singleflight::new();
        std::thread::scope(|s| {
            let Join::Leader(token) = sf.join(9) else {
                panic!("leads")
            };
            let follower = {
                let Join::Follower(h) = sf.join(9) else {
                    panic!("follows")
                };
                s.spawn(move || h.wait(None))
            };
            drop(token); // leader "panics"
            assert_eq!(follower.join().unwrap(), Waited::Abandoned);
        });
        // The key is free again for a clean retry.
        assert!(matches!(sf.join(9), Join::Leader(_)));
    }

    #[test]
    fn follower_timeout_leaves_flight_running() {
        let sf: Singleflight<u32> = Singleflight::new();
        let Join::Leader(token) = sf.join(5) else {
            panic!("leads")
        };
        let Join::Follower(h) = sf.join(5) else {
            panic!("follows")
        };
        assert_eq!(h.wait(Some(Duration::from_millis(5))), Waited::TimedOut);
        // The leader can still publish to later followers.
        let Join::Follower(late) = sf.join(5) else {
            panic!("still in flight")
        };
        token.finish(7);
        assert_eq!(late.wait(None), Waited::Done(7));
    }
}
