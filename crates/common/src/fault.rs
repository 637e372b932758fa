//! Deterministic fault injection: the one injector behind the runner's
//! `--inject-faults`, the daemon's `--fault-spec` and the chaos layer.
//!
//! A [`FaultInjector`] is armed from a **seed** plus a **spec string**
//! naming *fault points* — stable identifiers like `pcache/read`,
//! `serve/drop_conn` or `runner/job_panic` that components ask about at
//! the moment they are about to do the real operation:
//!
//! ```text
//! spec     := clause [ "," clause ]*
//! clause   := point "=" pct [ "@" arg ] [ "#" limit ]
//! point    := fault-point name ("pcache/read", "serve/drop_conn", ...),
//!             optionally followed by "/" key to target one keyed ask
//! pct      := fire probability in percent (0..=100)
//! arg      := optional u64 payload (a byte offset, a stall in ms)
//! limit    := optional cap on total fires for this point
//! ```
//!
//! `pcache/read=100#6` fails the first six disk reads and then goes
//! quiet — the schedule a circuit-breaker test needs (errors, then
//! recovery). `serve/drop_conn=25@0` drops a quarter of responses
//! after zero body bytes.
//!
//! There are two kinds of ask, both deterministic:
//!
//! * **Ordinal** ([`FaultInjector::fire`]): the `n`-th ask at a point
//!   rolls a xoshiro256++ stream seeded by `seed ^ fxhash64(point) ^
//!   mix(n)`, so a fixed seed replays the same per-point fire pattern
//!   on every run regardless of thread interleaving across *different*
//!   points.
//! * **Keyed** ([`FaultInjector::fire_keyed`]): the ask names a stable
//!   key (a job label, a file tag) and rolls a stream seeded by `seed ^
//!   fxhash64(point) ^ fxhash64(key)` alone, so its answer does not
//!   depend on how many asks came before or which thread asked. The
//!   runner's points are keyed: a parallel job schedule fails the same
//!   jobs as a serial one. A clause named `point/key` matches only that
//!   key and takes precedence over a clause named `point`, so
//!   `runner/job_panic/scene:Snp=100` panics exactly one job. A
//!   `#limit` on a keyed point counts fires in ask order, which makes
//!   that point depend on the schedule again; the runner's preset sets
//!   none.
//!
//! The process-wide injector is **zero-cost when disarmed**: the
//! global [`fire`] helper is a single relaxed atomic load on the
//! disarmed path, so production binaries pay nothing. Components that
//! need hermetic tests (and the runner, which is handed its injector)
//! hold their own instance instead of arming the global one.

use crate::hash::fxhash64;
use crate::rng::Xoshiro256pp;
use crate::{ErrorKind, TcorError, TcorResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// One armed fault point.
#[derive(Clone, Debug)]
struct Rule {
    point: String,
    /// Fire probability per ask, percent.
    pct: u64,
    /// Payload handed to the caller on fire (offset, millis, ...).
    arg: u64,
    /// Total-fire cap; `None` = unbounded.
    limit: Option<u64>,
}

#[derive(Clone, Copy, Debug, Default)]
struct PointState {
    asks: u64,
    fired: u64,
}

/// A seeded, spec-driven fault injector.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    rules: Vec<Rule>,
    state: Mutex<HashMap<String, PointState>>,
}

impl FaultInjector {
    /// Parses `spec` (see the module docs for the grammar) under
    /// `seed`.
    ///
    /// # Errors
    ///
    /// A config error naming the malformed clause.
    pub fn parse(seed: u64, spec: &str) -> TcorResult<Self> {
        let mut rules = Vec::new();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((point, rest)) = clause.split_once('=') else {
                return Err(TcorError::config(format!(
                    "bad fault clause `{clause}`: expected point=pct[@arg][#limit]"
                )));
            };
            let (rest, limit) = match rest.split_once('#') {
                Some((head, limit)) => {
                    let limit = limit
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| TcorError::config(format!("bad fault limit in `{clause}`")))?;
                    (head, Some(limit))
                }
                None => (rest, None),
            };
            let (pct, arg) = match rest.split_once('@') {
                Some((pct, arg)) => (
                    pct,
                    arg.trim()
                        .parse::<u64>()
                        .map_err(|_| TcorError::config(format!("bad fault arg in `{clause}`")))?,
                ),
                None => (rest, 0),
            };
            let pct = pct
                .trim()
                .parse::<u64>()
                .map_err(|_| TcorError::config(format!("bad fault rate in `{clause}`")))?;
            if pct > 100 {
                return Err(TcorError::config(format!(
                    "fault rate {pct} in `{clause}` exceeds 100"
                )));
            }
            rules.push(Rule {
                point: point.trim().to_string(),
                pct,
                arg,
                limit,
            });
        }
        Ok(FaultInjector {
            seed,
            rules,
            state: Mutex::new(HashMap::new()),
        })
    }

    /// The seed the injector was armed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, PointState>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Asks whether the fault at `point` fires now; `Some(arg)` means
    /// it does, carrying the clause's payload. Each ask advances the
    /// point's deterministic decision stream.
    pub fn fire(&self, point: &str) -> Option<u64> {
        let rule = self.rules.iter().find(|r| r.point == point)?;
        let mut state = self.lock();
        let entry = state.entry(rule.point.clone()).or_default();
        let n = entry.asks;
        entry.asks += 1;
        self.decide(
            rule,
            entry,
            fxhash64(point.as_bytes()) ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Asks whether the fault at `point` fires for `key`. The answer
    /// depends only on the seed, `point` and `key` (and on the clause's
    /// `#limit`, if it has one), never on the asks before it. A clause
    /// named `point/key` takes precedence over one named `point`.
    pub fn fire_keyed(&self, point: &str, key: &str) -> Option<u64> {
        let names_key = |r: &&Rule| {
            r.point
                .strip_prefix(point)
                .and_then(|rest| rest.strip_prefix('/'))
                == Some(key)
        };
        let rule = self
            .rules
            .iter()
            .find(names_key)
            .or_else(|| self.rules.iter().find(|r| r.point == point))?;
        let mut state = self.lock();
        let entry = state.entry(rule.point.clone()).or_default();
        self.decide(
            rule,
            entry,
            fxhash64(point.as_bytes()) ^ fxhash64(key.as_bytes()),
        )
    }

    /// One draw for `rule` from the stream `self.seed ^ stream`,
    /// counted in `entry` when it fires.
    fn decide(&self, rule: &Rule, entry: &mut PointState, stream: u64) -> Option<u64> {
        if rule.limit.is_some_and(|limit| entry.fired >= limit) {
            return None;
        }
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed ^ stream);
        if rng.random_range(0..100u64) < rule.pct {
            entry.fired += 1;
            Some(rule.arg)
        } else {
            None
        }
    }

    /// Per-point fire counts, sorted by point name. Points that are
    /// armed but never fired report 0, so an armed process's metrics
    /// always show which faults are live.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let state = self.lock();
        let mut counts: Vec<(String, u64)> = self
            .rules
            .iter()
            .map(|r| (r.point.clone(), state.get(&r.point).map_or(0, |s| s.fired)))
            .collect();
        counts.sort();
        counts.dedup();
        counts
    }

    /// The injected I/O error for a fired point.
    pub fn io_error(&self, point: &str) -> TcorError {
        TcorError::with_source(
            ErrorKind::Io,
            format!("injected fault (seed {}) at {point}", self.seed),
            std::io::Error::other("fault injection"),
        )
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);

fn global() -> &'static Mutex<Option<Arc<FaultInjector>>> {
    static GLOBAL: OnceLock<Mutex<Option<Arc<FaultInjector>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Arms the process-wide injector. Every [`fire`] call after this
/// consults `injector`'s schedule.
pub fn arm(injector: FaultInjector) {
    *global().lock().unwrap_or_else(PoisonError::into_inner) = Some(Arc::new(injector));
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms the process-wide injector; [`fire`] returns to its
/// zero-cost no-op path.
#[cfg(test)]
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *global().lock().unwrap_or_else(PoisonError::into_inner) = None;
}

/// Asks the process-wide injector about `point`. Disarmed (the
/// default), this is one relaxed atomic load and `None`.
pub fn fire(point: &str) -> Option<u64> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let injector = global()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()?;
    injector.fire(point)
}

/// Per-point fire counts of the process-wide injector; empty when
/// disarmed.
pub fn snapshot() -> Vec<(String, u64)> {
    if !ARMED.load(Ordering::Relaxed) {
        return Vec::new();
    }
    global()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_ref()
        .map(|i| i.snapshot())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_rates_args_and_limits() {
        let inj = FaultInjector::parse(1, "pcache/read=100, serve/drop_conn=25@64#3").unwrap();
        assert_eq!(inj.fire("pcache/read"), Some(0), "always fires at 100%");
        assert_eq!(inj.fire("unarmed/point"), None);
        assert!(FaultInjector::parse(1, "nonsense").is_err());
        assert!(FaultInjector::parse(1, "p=101").is_err());
        assert!(FaultInjector::parse(1, "p=x").is_err());
        assert!(FaultInjector::parse(1, "p=50@y").is_err());
        assert!(FaultInjector::parse(1, "p=50#z").is_err());
        // Empty spec arms nothing but is valid (a quiet injector).
        assert!(FaultInjector::parse(1, "").unwrap().fire("p").is_none());
    }

    #[test]
    fn decision_streams_are_deterministic_per_point() {
        let a = FaultInjector::parse(42, "p/x=30,p/y=30").unwrap();
        let b = FaultInjector::parse(42, "p/x=30,p/y=30").unwrap();
        let xs: Vec<bool> = (0..200).map(|_| a.fire("p/x").is_some()).collect();
        // Interleave differently on the second injector: p/x's stream
        // must not care what p/y consumed.
        let ys: Vec<bool> = (0..200)
            .map(|_| {
                let _ = b.fire("p/y");
                b.fire("p/x").is_some()
            })
            .collect();
        assert_eq!(xs, ys, "per-point streams are independent");
        let c = FaultInjector::parse(43, "p/x=30").unwrap();
        let zs: Vec<bool> = (0..200).map(|_| c.fire("p/x").is_some()).collect();
        assert_ne!(xs, zs, "a different seed reschedules");
    }

    #[test]
    fn keyed_asks_ignore_ask_order_and_other_points() {
        let keys: Vec<String> = (0..300).map(|i| format!("job:{i}")).collect();
        let answers = |inj: &FaultInjector, keys: &mut dyn Iterator<Item = &String>| {
            keys.map(|k| inj.fire_keyed("p/x", k).is_some())
                .collect::<Vec<bool>>()
        };
        let a = FaultInjector::parse(42, "p/x=30,p/y=30").unwrap();
        let forward = answers(&a, &mut keys.iter());
        // Backwards, after unrelated ordinal and keyed asks: same answers.
        let b = FaultInjector::parse(42, "p/x=30,p/y=30").unwrap();
        for k in &keys {
            let _ = (b.fire("p/x"), b.fire_keyed("p/y", k));
        }
        let mut backward = answers(&b, &mut keys.iter().rev());
        backward.reverse();
        assert_eq!(forward, backward);
        // Each answer is the documented draw and nothing else.
        for (k, &fired) in keys.iter().zip(&forward) {
            let seed = 42 ^ fxhash64(b"p/x") ^ fxhash64(k.as_bytes());
            let draw = Xoshiro256pp::seed_from_u64(seed).random_range(0..100u64);
            assert_eq!(fired, draw < 30, "{k}");
        }
        let c = FaultInjector::parse(43, "p/x=30").unwrap();
        assert_ne!(
            forward,
            answers(&c, &mut keys.iter()),
            "a new seed reschedules"
        );
        let fired = forward.iter().filter(|&&f| f).count() as u64;
        assert_eq!(a.snapshot(), [("p/x".into(), fired), ("p/y".into(), 0)]);
    }

    #[test]
    fn a_clause_naming_the_key_wins_over_the_point() {
        let one = FaultInjector::parse(0, "runner/job_panic/scene:Snp=100").unwrap();
        assert_eq!(one.fire_keyed("runner/job_panic", "scene:Snp"), Some(0));
        assert_eq!(one.fire_keyed("runner/job_panic", "scene:GTr"), None);
        assert_eq!(one.fire_keyed("runner/job_delay", "scene:Snp"), None);
        let quiet_key = FaultInjector::parse(0, "w=100@7,w/golden:t=0").unwrap();
        assert_eq!(quiet_key.fire_keyed("w", "golden:t"), None);
        assert_eq!(quiet_key.fire_keyed("w", "golden:u"), Some(7));
        // Keys may hold `/` and `:`: only the whole key matches.
        let nested = FaultInjector::parse(0, "p/cell:CCS/tcor64=100").unwrap();
        assert!(nested.fire_keyed("p", "cell:CCS/tcor64").is_some());
        assert!(nested.fire_keyed("p", "cell:CCS").is_none());
    }

    #[test]
    fn limits_cap_total_fires() {
        let inj = FaultInjector::parse(7, "disk=100#4").unwrap();
        let fired = (0..50).filter(|_| inj.fire("disk").is_some()).count();
        assert_eq!(fired, 4);
        assert_eq!(inj.snapshot(), vec![("disk".to_string(), 4)]);
    }

    #[test]
    fn global_injector_arms_fires_and_disarms() {
        // Unique point names: the global is shared with any parallel
        // test in this process.
        assert_eq!(fire("test/global-point"), None, "disarmed is quiet");
        arm(FaultInjector::parse(5, "test/global-point=100#2").unwrap());
        assert_eq!(fire("test/global-point"), Some(0));
        assert_eq!(fire("test/global-point"), Some(0));
        assert_eq!(fire("test/global-point"), None, "limit reached");
        assert_eq!(snapshot(), vec![("test/global-point".to_string(), 2)]);
        disarm();
        assert!(snapshot().is_empty());
        assert_eq!(fire("test/global-point"), None);
    }
}
