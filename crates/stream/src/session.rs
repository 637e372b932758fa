//! Streaming profile sessions: bounded, TTL'd, fault-isolated.
//!
//! A [`SessionRegistry`] owns every live session behind one mutex.
//! Each session pairs a [`ChunkDecoder`] (transactional incremental
//! parse) with a [`StreamingProfiler`] (exact online OPT + LRU) until
//! it finishes; a finished session keeps only its final curves at its
//! grid and the counters its documents print. Budgets keep a hostile or
//! runaway upload from exhausting the daemon:
//!
//! * **byte budget** — checked *before* decoding; a breach is a 413
//!   and the session stays intact (the client may finish with what it
//!   sent).
//! * **block budget** — checked after ingest; a breach evicts the
//!   session (its profiler is the thing that grew) and answers 429.
//! * **TTL** — every operation sweeps sessions idle past the TTL, so
//!   abandoned uploads cannot pin memory.
//!
//! Malformed chunks are rejected atomically with typed errors
//! ([`StreamError::Decode`]); the registry's other sessions and even
//! the offending session's already-ingested prefix are untouched.
//!
//! All clocks are passed in (`now: Instant`) so the registry itself is
//! deterministic and directly testable.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use tcor_cache::profile::StreamingProfiler;
use tcor_common::TcorError;
use tcor_runner::Json;
use tcor_workloads::ChunkDecoder;

use crate::curve::{default_grid, miss_ratio, misscurve_json, CapacityGrid, MAX_GRID_POINTS};

/// Budgets and limits for the streaming plane.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Concurrent session cap; opens beyond it answer 429.
    pub max_sessions: usize,
    /// Per-session ingest byte budget; chunks beyond it answer 413.
    pub session_bytes: u64,
    /// Per-session distinct-block budget; breaching it evicts the
    /// session with a 429.
    pub session_blocks: usize,
    /// Idle time after which a session is swept.
    pub ttl: Duration,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            max_sessions: 64,
            session_bytes: 8 * 1024 * 1024,
            session_blocks: 1 << 20,
            ttl: Duration::from_secs(300),
        }
    }
}

/// Typed streaming-plane failure; [`status`](Self::status) maps each
/// class to its HTTP status so the serve layer never improvises.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamError {
    /// No such (or expired) session — 404.
    UnknownSession(String),
    /// The registry is at `max_sessions` — 429.
    SessionsFull { limit: usize },
    /// Chunk would exceed the session byte budget — 413, session kept.
    ByteBudget { used: u64, limit: u64 },
    /// Distinct blocks exceeded the budget — 429, session evicted.
    BlockBudget { blocks: usize, limit: usize },
    /// Chunk sent after finish — 409.
    Finished(String),
    /// Malformed chunk (typed decoder error) — 400, session kept.
    Decode(String),
    /// Malformed open/query parameters — 400.
    BadRequest(String),
}

impl StreamError {
    /// The HTTP status this failure maps to (never a 5xx: every
    /// streaming failure is a client-attributable condition).
    pub fn status(&self) -> u16 {
        match self {
            StreamError::UnknownSession(_) => 404,
            StreamError::SessionsFull { .. } => 429,
            StreamError::ByteBudget { .. } => 413,
            StreamError::BlockBudget { .. } => 429,
            StreamError::Finished(_) => 409,
            StreamError::Decode(_) | StreamError::BadRequest(_) => 400,
        }
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownSession(id) => write!(f, "unknown stream session `{id}`"),
            StreamError::SessionsFull { limit } => {
                write!(f, "stream sessions full ({limit} open)")
            }
            StreamError::ByteBudget { used, limit } => {
                write!(f, "session byte budget exceeded ({used} of {limit} bytes)")
            }
            StreamError::BlockBudget { blocks, limit } => write!(
                f,
                "session block budget exceeded ({blocks} of {limit} blocks); session evicted"
            ),
            StreamError::Finished(id) => {
                write!(f, "stream session `{id}` is finished; no further chunks")
            }
            StreamError::Decode(msg) | StreamError::BadRequest(msg) => f.write_str(msg),
        }
    }
}

impl From<TcorError> for StreamError {
    fn from(e: TcorError) -> Self {
        StreamError::Decode(e.to_string())
    }
}

/// Ingest receipt for one accepted chunk, with the counters the serve
/// metrics want.
#[derive(Clone, Debug)]
pub struct ChunkReceipt {
    /// JSON receipt body (newline-terminated).
    pub body: String,
    /// Accesses decoded from this chunk.
    pub accesses: u64,
    /// Bytes ingested from this chunk.
    pub bytes: u64,
}

/// One streaming session.
struct Session {
    label: String,
    grid: CapacityGrid,
    state: State,
    last_touch: Instant,
}

/// A session ingests until it finishes; then only its numbers remain.
enum State {
    /// Ingesting (boxed: the profiler dwarfs the finished numbers).
    Live(Box<Ingest>),
    /// Finished: the whole stream's curves, computed once at finish.
    Finished(Curves),
}

/// An ingesting session's decoder carry, profiler and bytes taken.
#[derive(Default)]
struct Ingest {
    decoder: ChunkDecoder,
    profiler: StreamingProfiler,
    bytes_in: u64,
}

/// What a curve document prints: both curves at the session's grid and
/// the ingest counters.
struct Curves {
    accesses: u64,
    distinct_blocks: u64,
    window: u64,
    peak_window: u64,
    opt: Vec<f64>,
    lru: Vec<f64>,
}

impl Curves {
    /// `profiler`'s curves at `grid`: exact for the prefix ingested so
    /// far, or for the whole stream once finalized.
    fn of(profiler: &StreamingProfiler, grid: &CapacityGrid) -> Self {
        let snapshot;
        let opt = if profiler.is_finalized() {
            profiler.opt()
        } else {
            snapshot = profiler.snapshot_opt();
            &snapshot
        };
        let total = profiler.total_accesses();
        let curve_of = |misses_at: &dyn Fn(usize) -> u64| -> Vec<f64> {
            grid.caps
                .iter()
                .map(|&c| miss_ratio(misses_at(c), total))
                .collect()
        };
        Curves {
            accesses: total,
            distinct_blocks: profiler.distinct_blocks() as u64,
            window: profiler.window_len() as u64,
            peak_window: profiler.peak_window() as u64,
            opt: curve_of(&|c| opt.misses_at(c)),
            lru: curve_of(&|c| profiler.lru().misses_at(c)),
        }
    }
}

struct Inner {
    sessions: HashMap<String, Session>,
    counter: u64,
    expired: u64,
}

/// The streaming plane's session table. Thread-safe; every public
/// operation takes the caller's clock, sweeps expired sessions, then
/// acts.
pub struct SessionRegistry {
    config: StreamConfig,
    inner: Mutex<Inner>,
}

impl SessionRegistry {
    /// An empty registry with the given budgets.
    pub fn new(config: StreamConfig) -> Self {
        SessionRegistry {
            config,
            inner: Mutex::new(Inner {
                sessions: HashMap::new(),
                counter: 0,
                expired: 0,
            }),
        }
    }

    /// The configured budgets.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Opens a session. Body parameters (`k=v`, `&`- or
    /// newline-separated): `label` (workload name echoed into curve
    /// documents, `[A-Za-z0-9_-]{1,64}`, default `trace`) and `grid`
    /// (`from:to:step` in KB, default the Fig.-1 serving grid).
    /// Returns the JSON receipt carrying the session id.
    pub fn open(&self, body: &str, now: Instant) -> Result<String, StreamError> {
        let (label, grid) = parse_open_params(body)?;
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        sweep(&mut inner, now, self.config.ttl);
        if inner.sessions.len() >= self.config.max_sessions {
            return Err(StreamError::SessionsFull {
                limit: self.config.max_sessions,
            });
        }
        let id = format!("s{:08x}", inner.counter);
        inner.counter += 1;
        let doc = Json::obj([
            ("session", Json::str(&id)),
            ("workload", Json::str(&label)),
            ("grid_points", Json::UInt(grid.size_kb.len() as u64)),
            ("byte_budget", Json::UInt(self.config.session_bytes)),
            (
                "block_budget",
                Json::UInt(self.config.session_blocks as u64),
            ),
        ]);
        inner.sessions.insert(
            id,
            Session {
                label,
                grid,
                state: State::Live(Box::default()),
                last_touch: now,
            },
        );
        Ok(doc.render() + "\n")
    }

    /// Ingests one chunk into a session. Budget order: bytes before
    /// decode (413 leaves the session intact), decode transactional
    /// (400 leaves it intact), blocks after ingest (429 evicts it).
    pub fn chunk(&self, id: &str, body: &str, now: Instant) -> Result<ChunkReceipt, StreamError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        sweep(&mut inner, now, self.config.ttl);
        let session = inner
            .sessions
            .get_mut(id)
            .ok_or_else(|| StreamError::UnknownSession(id.to_string()))?;
        session.last_touch = now;
        let State::Live(ingest) = &mut session.state else {
            return Err(StreamError::Finished(id.to_string()));
        };
        let Ingest {
            decoder,
            profiler,
            bytes_in,
        } = &mut **ingest;
        let incoming = body.len() as u64;
        if *bytes_in + incoming > self.config.session_bytes {
            return Err(StreamError::ByteBudget {
                used: *bytes_in + incoming,
                limit: self.config.session_bytes,
            });
        }
        let accesses = decoder.feed(body)?;
        *bytes_in += incoming;
        for a in &accesses {
            profiler.push(*a);
        }
        let blocks = profiler.distinct_blocks();
        if blocks > self.config.session_blocks {
            let limit = self.config.session_blocks;
            inner.sessions.remove(id);
            return Err(StreamError::BlockBudget { blocks, limit });
        }
        let doc = Json::obj([
            ("session", Json::str(id)),
            ("accesses", Json::UInt(profiler.total_accesses())),
            ("distinct_blocks", Json::UInt(blocks as u64)),
            ("window", Json::UInt(profiler.window_len() as u64)),
        ]);
        Ok(ChunkReceipt {
            body: doc.render() + "\n",
            accesses: accesses.len() as u64,
            bytes: incoming,
        })
    }

    /// Renders the exact miss curves for the prefix ingested so far
    /// (or the whole stream, once finished). `policy` of `opt` / `lru`
    /// yields the single-curve document byte-compatible with the
    /// offline `/v1/misscurve` plane; `None` yields the combined
    /// session document with both curves and ingest statistics.
    pub fn curve(
        &self,
        id: &str,
        policy: Option<&str>,
        now: Instant,
    ) -> Result<String, StreamError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        sweep(&mut inner, now, self.config.ttl);
        let session = inner
            .sessions
            .get_mut(id)
            .ok_or_else(|| StreamError::UnknownSession(id.to_string()))?;
        session.last_touch = now;
        render_curves(id, session, policy)
    }

    /// Finalizes the session — every still-pending access resolves to
    /// `next_use = ∞` — and renders the final curves. Idempotent; the
    /// session stays queryable (curve/finish) until its TTL, answering
    /// from the curves computed here: the decoder and profiler are
    /// dropped. Decoder carry with a final unterminated line is flushed
    /// first.
    pub fn finish(
        &self,
        id: &str,
        policy: Option<&str>,
        now: Instant,
    ) -> Result<String, StreamError> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        sweep(&mut inner, now, self.config.ttl);
        let session = inner
            .sessions
            .get_mut(id)
            .ok_or_else(|| StreamError::UnknownSession(id.to_string()))?;
        session.last_touch = now;
        if let State::Live(ingest) = &mut session.state {
            let tail = ingest.decoder.finish()?;
            for a in &tail {
                ingest.profiler.push(*a);
            }
            ingest.profiler.finalize();
            session.state = State::Finished(Curves::of(&ingest.profiler, &session.grid));
        }
        render_curves(id, session, policy)
    }

    /// Removes a session unconditionally — the serve layer's panic
    /// containment: if an operation on a session panics mid-update,
    /// the session's state can no longer be trusted and is dropped so
    /// it cannot poison later requests. Returns whether it existed.
    pub fn evict(&self, id: &str) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sessions
            .remove(id)
            .is_some()
    }

    /// Live session count (after no sweep — callers wanting freshness
    /// should have just performed an operation).
    pub fn open_sessions(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sessions
            .len() as u64
    }

    /// Total sessions expired by TTL sweeps since construction.
    pub fn expired_total(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .expired
    }
}

/// Drops sessions idle past the TTL.
fn sweep(inner: &mut Inner, now: Instant, ttl: Duration) {
    let before = inner.sessions.len();
    inner
        .sessions
        .retain(|_, s| now.saturating_duration_since(s.last_touch) <= ttl);
    inner.expired += (before - inner.sessions.len()) as u64;
}

/// Renders the curve document(s) for one session.
fn render_curves(id: &str, session: &Session, policy: Option<&str>) -> Result<String, StreamError> {
    let live;
    let (curves, finished) = match &session.state {
        State::Live(ingest) => {
            live = Curves::of(&ingest.profiler, &session.grid);
            (&live, false)
        }
        State::Finished(curves) => (curves, true),
    };
    let curve_doc = |policy: &str, curve: &[f64]| {
        misscurve_json(&session.label, policy, &session.grid.size_kb, curve).render() + "\n"
    };
    match policy {
        Some("opt") => Ok(curve_doc("opt", &curves.opt)),
        Some("lru") => Ok(curve_doc("lru", &curves.lru)),
        Some(other) => Err(StreamError::BadRequest(format!(
            "unknown curve policy `{other}` (expected opt or lru)"
        ))),
        None => {
            let ratios = |curve: &[f64]| Json::Arr(curve.iter().map(|&m| Json::Float(m)).collect());
            let doc = Json::obj([
                ("session", Json::str(id)),
                ("workload", Json::str(&session.label)),
                ("finished", Json::Bool(finished)),
                ("accesses", Json::UInt(curves.accesses)),
                ("distinct_blocks", Json::UInt(curves.distinct_blocks)),
                ("window", Json::UInt(curves.window)),
                ("peak_window", Json::UInt(curves.peak_window)),
                (
                    "size_kb",
                    Json::Arr(
                        session
                            .grid
                            .size_kb
                            .iter()
                            .map(|&s| Json::UInt(s as u64))
                            .collect(),
                    ),
                ),
                ("opt_miss_ratio", ratios(&curves.opt)),
                ("lru_miss_ratio", ratios(&curves.lru)),
            ]);
            Ok(doc.render() + "\n")
        }
    }
}

/// Parses the open body: `label` and `grid` keys, everything else
/// rejected (typos should fail loudly, not silently profile under the
/// default grid).
fn parse_open_params(body: &str) -> Result<(String, CapacityGrid), StreamError> {
    let mut label = String::from("trace");
    let mut grid = default_grid();
    for pair in body
        .split(['&', '\n'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
    {
        let Some((key, value)) = pair.split_once('=') else {
            return Err(StreamError::BadRequest(format!(
                "malformed parameter `{pair}` (expected key=value)"
            )));
        };
        match key {
            "label" => {
                let ok = !value.is_empty()
                    && value.len() <= 64
                    && value
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
                if !ok {
                    return Err(StreamError::BadRequest(format!(
                        "bad label `{value}` (want [A-Za-z0-9_-], at most 64 chars)"
                    )));
                }
                label = value.to_string();
            }
            "grid" => grid = parse_grid(value)?,
            _ => {
                return Err(StreamError::BadRequest(format!(
                    "unknown parameter `{key}` (expected label or grid)"
                )));
            }
        }
    }
    Ok((label, grid))
}

/// Parses `from:to:step` (KB, inclusive range) into a capacity grid.
fn parse_grid(spec: &str) -> Result<CapacityGrid, StreamError> {
    let bad = |why: &str| StreamError::BadRequest(format!("bad grid `{spec}`: {why}"));
    let parts: Vec<&str> = spec.split(':').collect();
    let [from, to, step] = parts.as_slice() else {
        return Err(bad("expected from:to:step in KB"));
    };
    let parse = |s: &str| s.parse::<usize>().map_err(|_| bad("not a number"));
    let (from, to, step) = (parse(from)?, parse(to)?, parse(step)?);
    if from == 0 || step == 0 || to < from {
        return Err(bad("want 1 <= from <= to and step >= 1"));
    }
    let points = (to - from) / step + 1;
    if points > MAX_GRID_POINTS {
        return Err(bad("too many grid points"));
    }
    Ok(CapacityGrid::from_range(from, to, step))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_cache::profile::OptStackProfiler;
    use tcor_cache::{annotate_next_use, Access};
    use tcor_common::BlockAddr;
    use tcor_workloads::encode_chunk;

    fn t0() -> Instant {
        Instant::now()
    }

    fn reads(seq: &[u64]) -> Vec<Access> {
        seq.iter().map(|&b| Access::read(BlockAddr(b))).collect()
    }

    fn session_id(receipt: &str) -> String {
        let doc = Json::parse(receipt).unwrap();
        match &doc {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == "session")
                .and_then(|(_, v)| match v {
                    Json::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .unwrap(),
            _ => panic!("receipt not an object"),
        }
    }

    #[test]
    fn open_chunk_finish_matches_offline_render() {
        let reg = SessionRegistry::new(StreamConfig::default());
        let now = t0();
        let id = session_id(&reg.open("label=GTr", now).unwrap());
        let trace = reads(&[1, 2, 3, 1, 2, 9, 9, 1]);
        // Two chunks, split mid-trace.
        let enc = encode_chunk(&trace);
        let (a, b) = enc.split_at(enc.len() / 2);
        reg.chunk(&id, a, now).unwrap();
        reg.chunk(&id, b, now).unwrap();
        let got = reg.finish(&id, Some("opt"), now).unwrap();

        let opt = OptStackProfiler::profile(&trace, &annotate_next_use(&trace));
        let grid = default_grid();
        let curve: Vec<f64> = grid
            .caps
            .iter()
            .map(|&c| opt.misses_at(c) as f64 / trace.len() as f64)
            .collect();
        let want = misscurve_json("GTr", "opt", &grid.size_kb, &curve).render() + "\n";
        assert_eq!(got, want);
    }

    #[test]
    fn snapshot_mid_stream_is_exact_for_prefix() {
        let reg = SessionRegistry::new(StreamConfig::default());
        let now = t0();
        let id = session_id(&reg.open("label=GTr&grid=1:4:1", now).unwrap());
        let trace = reads(&[5, 6, 5, 7, 8, 5]);
        reg.chunk(&id, &encode_chunk(&trace), now).unwrap();
        let got = reg.curve(&id, Some("lru"), now).unwrap();
        // LRU over the prefix == whole-trace LRU (it is online).
        assert!(got.contains("\"policy\":\"lru\""));
        let combined = reg.curve(&id, None, now).unwrap();
        assert!(combined.contains("\"finished\":false"));
        assert!(combined.contains("\"accesses\":6"));
    }

    #[test]
    fn byte_budget_rejects_and_keeps_session() {
        let config = StreamConfig {
            session_bytes: 8,
            ..StreamConfig::default()
        };
        let reg = SessionRegistry::new(config);
        let now = t0();
        let id = session_id(&reg.open("", now).unwrap());
        let err = reg.chunk(&id, "R1\nR2\nR3\n", now).unwrap_err();
        assert_eq!(err.status(), 413);
        // Session intact: a within-budget chunk still lands.
        reg.chunk(&id, "R1\nR2\n", now).unwrap();
    }

    #[test]
    fn block_budget_evicts_session() {
        let config = StreamConfig {
            session_blocks: 2,
            ..StreamConfig::default()
        };
        let reg = SessionRegistry::new(config);
        let now = t0();
        let id = session_id(&reg.open("", now).unwrap());
        let err = reg.chunk(&id, "R1\nR2\nR3\n", now).unwrap_err();
        assert_eq!(err.status(), 429);
        assert!(matches!(err, StreamError::BlockBudget { .. }));
        let err = reg.chunk(&id, "R1\n", now).unwrap_err();
        assert_eq!(err.status(), 404, "session was evicted");
    }

    #[test]
    fn decode_error_keeps_session_intact() {
        let reg = SessionRegistry::new(StreamConfig::default());
        let now = t0();
        let id = session_id(&reg.open("", now).unwrap());
        reg.chunk(&id, "R1\n", now).unwrap();
        let err = reg.chunk(&id, "garbage!\n", now).unwrap_err();
        assert_eq!(err.status(), 400);
        let receipt = reg.chunk(&id, "R2\n", now).unwrap();
        assert!(receipt.body.contains("\"accesses\":2"));
    }

    #[test]
    fn chunk_after_finish_conflicts() {
        let reg = SessionRegistry::new(StreamConfig::default());
        let now = t0();
        let id = session_id(&reg.open("", now).unwrap());
        reg.chunk(&id, "R1\n", now).unwrap();
        reg.finish(&id, None, now).unwrap();
        let err = reg.chunk(&id, "R2\n", now).unwrap_err();
        assert_eq!(err.status(), 409);
        // But the finished session is still queryable, and finish is
        // idempotent.
        reg.curve(&id, Some("opt"), now).unwrap();
        reg.finish(&id, Some("opt"), now).unwrap();
    }

    #[test]
    fn sessions_full_and_ttl_sweep() {
        let config = StreamConfig {
            max_sessions: 2,
            ttl: Duration::from_secs(10),
            ..StreamConfig::default()
        };
        let reg = SessionRegistry::new(config);
        let now = t0();
        reg.open("", now).unwrap();
        reg.open("", now).unwrap();
        let err = reg.open("", now).unwrap_err();
        assert_eq!(err.status(), 429);
        assert!(matches!(err, StreamError::SessionsFull { .. }));
        // Past the TTL both sessions expire and opens succeed again.
        let later = now + Duration::from_secs(11);
        reg.open("", later).unwrap();
        assert_eq!(reg.expired_total(), 2);
        assert_eq!(reg.open_sessions(), 1);
    }

    #[test]
    fn open_params_validated() {
        let reg = SessionRegistry::new(StreamConfig::default());
        let now = t0();
        for bad in [
            "label=",
            "label=no spaces",
            "grid=8:152",
            "grid=0:8:1",
            "grid=8:4:1",
            "grid=1:100000:1",
            "bogus=1",
            "notapair",
        ] {
            let err = reg.open(bad, now).unwrap_err();
            assert_eq!(err.status(), 400, "{bad:?}");
        }
        reg.open("label=GTr&grid=8:152:8", now).unwrap();
    }

    #[test]
    fn unknown_policy_is_bad_request() {
        let reg = SessionRegistry::new(StreamConfig::default());
        let now = t0();
        let id = session_id(&reg.open("", now).unwrap());
        let err = reg.curve(&id, Some("fifo"), now).unwrap_err();
        assert_eq!(err.status(), 400);
    }

    /// A finished session answers from the numbers it kept: every later
    /// finish and curve body repeats the first finish's bytes, which are
    /// the bytes the profiler-backed renderer produced for this trace.
    #[test]
    fn finished_bodies_repeat_the_pinned_bytes() {
        let reg = SessionRegistry::new(StreamConfig::default());
        let now = t0();
        let id = session_id(&reg.open("label=GTr&grid=1:4:1", now).unwrap());
        let mut rng = tcor_common::Xoshiro256pp::seed_from_u64(19);
        let trace: Vec<u64> = (0..400).map(|_| rng.random_range(0..48u64)).collect();
        reg.chunk(&id, &encode_chunk(&reads(&trace)), now).unwrap();
        let (opt, lru) = ("[0.685,0.52,0.3925,0.32]", "[0.9075,0.8,0.6775,0.59]");
        let curve = |policy: &str, ratios: &str| {
            format!(
                "{{\"workload\":\"GTr\",\"policy\":\"{policy}\",\"size_kb\":[1,2,3,4],\
                 \"miss_ratio\":{ratios}}}\n"
            )
        };
        let combined = format!(
            "{{\"session\":\"s00000000\",\"workload\":\"GTr\",\"finished\":true,\
             \"accesses\":400,\"distinct_blocks\":48,\"window\":0,\"peak_window\":284,\
             \"size_kb\":[1,2,3,4],\"opt_miss_ratio\":{opt},\"lru_miss_ratio\":{lru}}}\n"
        );
        let pinned = [
            (None, combined),
            (Some("opt"), curve("opt", opt)),
            (Some("lru"), curve("lru", lru)),
        ];
        for (policy, want) in pinned.iter().cycle().take(9) {
            assert_eq!(&reg.finish(&id, *policy, now).unwrap(), want, "{policy:?}");
            assert_eq!(&reg.curve(&id, *policy, now).unwrap(), want, "{policy:?}");
        }
        let err = reg.chunk(&id, "R1\n", now).unwrap_err();
        assert_eq!(err.status(), 409, "a chunk after finish conflicts");
        assert_eq!(reg.curve(&id, None, now).unwrap(), pinned[0].1);
    }

    #[test]
    fn finish_flushes_unterminated_carry() {
        let reg = SessionRegistry::new(StreamConfig::default());
        let now = t0();
        let id = session_id(&reg.open("", now).unwrap());
        reg.chunk(&id, "R1\nR2", now).unwrap();
        let doc = reg.finish(&id, None, now).unwrap();
        assert!(doc.contains("\"accesses\":2"), "{doc}");
    }
}
