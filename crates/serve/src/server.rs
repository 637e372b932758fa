//! The daemon: event-driven connection plane plus a bounded compute
//! pool.
//!
//! A small set of event threads ([`crate::event`]) own every socket —
//! nonblocking accept, keep-alive multiplexing, pipelined parsing, and
//! write-drain — and answer control routes and warm cache hits inline.
//! Only cache misses cross the queue: a [`ComputeJob`] goes through
//! the [`BoundedQueue`] (full ⇒ 429 with a dynamic `Retry-After`),
//! `workers` threads pull jobs and run the API path, and the finished
//! response rides an [`EventInbox`] back to the event thread that owns
//! the connection. The API path layers, in order: a per-request
//! deadline (checked when the job is *dequeued*, so work that already
//! overstayed its queue wait is aborted before it starts — the
//! watchdog discipline from the runner), the tiered result cache (a
//! memory hit bypasses the simulator entirely; a disk hit restores a
//! previous session's bytes and promotes them), and singleflight
//! coalescing (concurrent identical requests ride one computation).
//! Shutdown — admin route or signal — stops admission, drains what was
//! admitted, joins every thread, and hands back the request timeline.

use crate::event::{event_loop, Completion, EventInbox};
use crate::http::Response;
use crate::metrics::ServeMetrics;
use crate::pool::BoundedQueue;
use crate::router::{ApiCall, StreamOp};
use crate::stream::StreamPlane;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tcor_common::flight::{Join, Singleflight, Waited};
use tcor_common::{fault, fxhash64, ErrorKind, TcorError, TcorResult};
use tcor_obs::RequestSpan;
use tcor_pcache::{BreakerConfig, CacheKey, CachedBody, ResultCache, Tier, TieredCache};
use tcor_runner::{Json, Telemetry};

/// A computed API response body: what the backend produces, what
/// coalesced followers share. Cached (in either tier) as a
/// [`CachedBody`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ApiBody {
    /// `Content-Type` of the rendered body.
    pub content_type: String,
    /// The rendered body (JSON or CSV text).
    pub body: String,
}

impl ApiBody {
    /// The cacheable form of this body.
    pub fn to_cached(&self) -> CachedBody {
        CachedBody::text(self.content_type.clone(), self.body.clone())
    }
}

/// The simulator behind the daemon. Implementations must be callable
/// from any worker concurrently; expensive work should memoize through
/// `tcor_runner::ArtifactStore` so coalesced *sequential* repeats stay
/// cheap too.
pub trait Backend: Send + Sync + 'static {
    /// Computes the response body for one canonical call.
    ///
    /// # Errors
    ///
    /// `Config`-class errors map to 404 (unknown workload/config/...),
    /// everything else to 500.
    fn call(&self, call: &ApiCall) -> TcorResult<ApiBody>;

    /// A hash of the producing code and result schema, folded into
    /// every cache key so a rebuilt simulator never serves a previous
    /// build's persisted bytes. The default (0) is fine for backends
    /// that never persist.
    fn version(&self) -> u64 {
        0
    }
}

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP port on 127.0.0.1; 0 binds an ephemeral port.
    pub port: u16,
    /// Compute-pool threads answering cold (cache-miss) requests.
    pub workers: usize,
    /// Event threads multiplexing connections (thread 0 also accepts).
    pub event_threads: usize,
    /// Bounded-queue depth; beyond it requests are shed with 429.
    pub queue_depth: usize,
    /// Memory-tier response-cache capacity, entries.
    pub cache_cap: usize,
    /// Per-request deadline, first byte to answer.
    pub deadline: Duration,
    /// Persistent-tier directory (`--cache-dir`); `None` disables
    /// persistence and the daemon behaves exactly as before it existed.
    pub cache_dir: Option<PathBuf>,
    /// Persistent-tier byte budget (`--cache-disk-bytes`).
    pub cache_disk_bytes: u64,
    /// Disk-breaker trip threshold (consecutive I/O errors).
    pub breaker_threshold: u32,
    /// Disk-breaker cooldown before a half-open probe.
    pub breaker_cooldown: Duration,
    /// Streaming-session budgets (`--stream-*` flags).
    pub stream: tcor_stream::StreamConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let breaker = BreakerConfig::default();
        ServeConfig {
            port: 0,
            workers: 4,
            event_threads: 2,
            queue_depth: 64,
            cache_cap: 256,
            deadline: Duration::from_secs(30),
            cache_dir: None,
            cache_disk_bytes: 256 << 20,
            breaker_threshold: breaker.threshold,
            breaker_cooldown: breaker.cooldown,
            stream: tcor_stream::StreamConfig::default(),
        }
    }
}

/// Outcome of a flight: the shared body, or the shared failure.
type FlightOut = Result<Arc<CachedBody>, Arc<TcorError>>;

/// What a queued job runs: cacheable simulator work, or a stateful
/// streaming-session operation (never cached or coalesced).
pub(crate) enum Work {
    /// Canonical simulator call (cache + singleflight path).
    Api(ApiCall),
    /// Streaming profile-session operation.
    Stream(StreamOp),
}

/// A cold request crossing from the connection plane to the compute
/// pool. Admission happened when this was pushed (that is where 429s
/// come from); the answer returns as a [`Completion`] to the event
/// thread that owns the connection.
pub(crate) struct ComputeJob {
    /// Index of the owning event thread.
    pub(crate) thread: usize,
    /// Connection id within that thread.
    pub(crate) conn: u64,
    /// The work to run.
    pub(crate) work: Work,
    /// Request path, for the timeline span.
    pub(crate) path: String,
    /// When the request's first byte arrived (deadline anchor).
    pub(crate) arrived: Instant,
}

pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    pub(crate) queue: BoundedQueue<ComputeJob>,
    pub(crate) metrics: ServeMetrics,
    pub(crate) cache: Arc<dyn ResultCache>,
    flights: Singleflight<FlightOut>,
    backend: Arc<dyn Backend>,
    telemetry: Option<Arc<Telemetry>>,
    pub(crate) deadline: Duration,
    /// The streaming profile plane (sessions, budgets, TTL).
    pub(crate) stream: StreamPlane,
    spans: Mutex<Vec<RequestSpan>>,
    started: Instant,
    /// One inbox per event thread; workers post completions here.
    pub(crate) inboxes: Vec<Arc<EventInbox>>,
}

/// Most request spans retained for the timeline export.
const MAX_SPANS: usize = 65_536;

impl Shared {
    fn event(&self, name: &str, fields: Vec<(String, Json)>) {
        if let Some(t) = &self.telemetry {
            t.event(name, fields);
        }
    }

    fn record_span(&self, span: RequestSpan) {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < MAX_SPANS {
            spans.push(span);
        }
    }

    /// The `GET /metrics` body: serve-plane counters plus the result
    /// cache's per-tier counters under `pcache/`, the degraded flag,
    /// and — when a fault injector is armed — per-point fire counts
    /// under `fault/` so chaos runs can audit their schedule.
    pub(crate) fn metrics_text(&self) -> String {
        let mut reg = self.metrics.registry();
        reg.merge(&self.cache.stats().registry("pcache"));
        reg.add("serve/degraded", u64::from(self.cache.degraded()));
        for (point, fired) in fault::snapshot() {
            reg.add(&format!("fault/{point}"), fired);
        }
        reg.to_string()
    }

    /// The `Retry-After` hint handed to a shed request, in ms:
    /// (queue depth + 1) × the EWMA service time, clamped to a range a
    /// client can act on. Before any request has completed the EWMA is
    /// empty and the hint falls back to a conservative one second.
    fn retry_after_hint_ms(&self) -> u64 {
        let svc_us = self.metrics.service_time_us.load(Ordering::Relaxed);
        if svc_us == 0 {
            return 1000;
        }
        let depth = self.queue.depth() as u64;
        ((depth + 1) * svc_us / 1000).clamp(25, 30_000)
    }

    /// Counts an admitted API request (inline warm answer, or a job
    /// accepted by the queue — shed requests are *not* received).
    pub(crate) fn note_received(&self, call: &ApiCall) {
        self.note_received_parts(call.endpoint(), &call.canonical());
    }

    /// [`Self::note_received`] when the call was already moved into a
    /// queued job.
    pub(crate) fn note_received_parts(&self, endpoint: &str, canonical: &str) {
        ServeMetrics::bump(&self.metrics.received);
        self.event(
            "request_received",
            vec![
                ("endpoint".to_string(), Json::str(endpoint)),
                ("request".to_string(), Json::str(canonical)),
            ],
        );
    }

    /// Probes the result cache for an inline warm answer. A hit never
    /// touches the queue: the event thread serializes it directly, so
    /// warm latency is bounded by syscall cost, not queue depth.
    pub(crate) fn try_warm(&self, call: &ApiCall) -> Option<(Response, &'static str)> {
        let key = CacheKey::new(call.cache_key(), self.backend.version());
        self.warm_hit(&key)
            .map(|(body, tier)| warm_answer(&body, tier))
    }

    /// Looks `key` up in the result cache, counting a hit per tier.
    fn warm_hit(&self, key: &CacheKey) -> Option<(Arc<CachedBody>, Tier)> {
        let (body, tier) = self.cache.get(key)?;
        ServeMetrics::bump(&self.metrics.warm_hits);
        match tier {
            Tier::Mem => ServeMetrics::bump(&self.metrics.mem_hits),
            Tier::Disk => ServeMetrics::bump(&self.metrics.disk_hits),
        }
        Some((body, tier))
    }

    /// The 429 for a request refused at a full queue: integer-seconds
    /// `Retry-After` for generic clients, the precise ms hint for ours.
    pub(crate) fn shed_response(&self) -> Response {
        ServeMetrics::bump(&self.metrics.shed);
        let hint_ms = self.retry_after_hint_ms();
        self.metrics
            .retry_after_ms
            .store(hint_ms, Ordering::Relaxed);
        self.event(
            "request_shed",
            vec![("retry_after_ms".to_string(), Json::UInt(hint_ms))],
        );
        Response::text(429, "queue full, retry shortly\n")
            .with_header("Retry-After", hint_ms.div_ceil(1000).max(1).to_string())
            .with_header("X-Tcor-Retry-After-Ms", hint_ms.to_string())
    }
}

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    events: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address (resolves `--port 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown (same path as `POST /admin/shutdown`) and
    /// wakes the event threads so the drain starts immediately.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for inbox in &self.shared.inboxes {
            inbox.notify();
        }
    }

    /// Current `GET /metrics` body, read in-process.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Blocks until the daemon has drained and every thread has
    /// exited; returns the recorded request timeline.
    ///
    /// Join order matters: event threads first (they still need live
    /// workers to complete inflight jobs during the drain), then the
    /// queue closes and the workers run dry. A completion for a
    /// connection whose event thread already exited is dropped — its
    /// client is gone.
    pub fn wait(self) -> Vec<RequestSpan> {
        for e in self.events {
            let _ = e.join();
        }
        self.shared.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        std::mem::take(
            &mut self
                .shared
                .spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

/// Binds 127.0.0.1:`port` and starts the event threads and compute
/// pool, building the result cache from `config` (`cache_dir` attaches
/// the persistent tier).
///
/// # Errors
///
/// A serve-class error if the port cannot be bound, or an I/O error if
/// the cache directory cannot be opened.
pub fn start(
    config: ServeConfig,
    backend: Arc<dyn Backend>,
    telemetry: Option<Arc<Telemetry>>,
) -> TcorResult<ServerHandle> {
    let disk = config
        .cache_dir
        .clone()
        .map(|dir| (dir, config.cache_disk_bytes));
    let cache: Arc<dyn ResultCache> = Arc::new(
        TieredCache::open(config.cache_cap, disk)?.with_breaker_config(BreakerConfig {
            threshold: config.breaker_threshold,
            cooldown: config.breaker_cooldown,
        }),
    );
    start_with_cache(config, backend, telemetry, cache)
}

/// [`start`] with a caller-supplied result cache, so the caller keeps a
/// handle on the one store of the daemon's rendered bodies (to probe or
/// pre-fill it from outside the request plane). On the request path the
/// daemon is its only writer: the worker that computes a body puts it
/// once.
///
/// Before accepting traffic, runs the cache's warm-start pass against
/// the backend's version: persisted entries are re-validated (stale or
/// corrupt ones evicted) so a restarted daemon serves its working set
/// from disk at warm latency, starting with the very first request.
///
/// # Errors
///
/// A serve-class error if the port cannot be bound.
pub fn start_with_cache(
    config: ServeConfig,
    backend: Arc<dyn Backend>,
    telemetry: Option<Arc<Telemetry>>,
    cache: Arc<dyn ResultCache>,
) -> TcorResult<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", config.port)).map_err(|e| {
        TcorError::with_source(
            ErrorKind::Serve,
            format!("binding 127.0.0.1:{}", config.port),
            e,
        )
    })?;
    let addr = listener
        .local_addr()
        .map_err(|e| TcorError::with_source(ErrorKind::Serve, "reading bound address", e))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| TcorError::with_source(ErrorKind::Serve, "setting listener nonblocking", e))?;
    let (warm_valid, warm_evicted) = cache.warm_start(backend.version());
    let event_threads = config.event_threads.max(1);
    let mut inboxes = Vec::with_capacity(event_threads);
    let mut wake_rxs = Vec::with_capacity(event_threads);
    for _ in 0..event_threads {
        let (inbox, rx) = EventInbox::new()?;
        inboxes.push(inbox);
        wake_rxs.push(rx);
    }
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        queue: BoundedQueue::new(config.queue_depth),
        metrics: ServeMetrics::new(),
        cache,
        flights: Singleflight::new(),
        backend,
        telemetry,
        deadline: config.deadline,
        stream: StreamPlane::new(config.stream),
        spans: Mutex::new(Vec::new()),
        started: Instant::now(),
        inboxes: inboxes.clone(),
    });
    if warm_valid > 0 || warm_evicted > 0 {
        shared.event(
            "cache_warm_start",
            vec![
                ("valid".to_string(), Json::UInt(warm_valid as u64)),
                ("evicted".to_string(), Json::UInt(warm_evicted as u64)),
            ],
        );
    }
    let mut listener = Some(listener);
    let events = wake_rxs
        .into_iter()
        .enumerate()
        .map(|(t, rx)| {
            let shared = Arc::clone(&shared);
            let inbox = Arc::clone(&inboxes[t]);
            let listener = if t == 0 { listener.take() } else { None };
            std::thread::spawn(move || event_loop(t, shared, inbox, rx, listener))
        })
        .collect();
    let workers = (0..config.workers.max(1))
        .map(|w| {
            let shared = Arc::clone(&shared);
            let lane = (event_threads + w) as u64;
            std::thread::spawn(move || worker_loop(lane, &shared))
        })
        .collect();
    Ok(ServerHandle {
        addr,
        events,
        workers,
        shared,
    })
}

/// One compute-pool thread: pull jobs, run the API path, post the
/// completion back to the owning event thread. `lane` numbers the
/// thread in the span timeline after the event threads.
fn worker_loop(lane: u64, shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let (response, source) = match &job.work {
            Work::Api(call) => answer_api(shared, call, job.arrived),
            Work::Stream(op) => answer_stream(shared, op, job.arrived),
        };
        finish_api(shared, lane, &job.path, job.arrived, &response, source);
        if let Some(inbox) = shared.inboxes.get(job.thread) {
            inbox.complete(Completion {
                conn: job.conn,
                response,
            });
        }
    }
}

/// Serializes a response for the wire: stamps `X-Tcor-Body-Hash`
/// (fxhash64 of the body, hex) so a client can detect in-flight
/// corruption, then applies any armed serve-plane faults to the bytes:
/// `serve/corrupt_response` flips the final byte after the hash was
/// computed; `serve/drop_conn` truncates mid-body (the returned flag
/// tells the event loop to sever the connection after the partial
/// write, the way a dying peer or middlebox would).
pub(crate) fn wire_bytes(response: &Response) -> (Vec<u8>, bool) {
    let body_len = response.body.len();
    let stamped = response.clone().with_header(
        "X-Tcor-Body-Hash",
        format!("{:016x}", fxhash64(response.body.as_bytes())),
    );
    let mut bytes = stamped.to_bytes();
    if fault::fire("serve/corrupt_response").is_some() {
        if let Some(last) = bytes.last_mut() {
            *last ^= 0x5A;
        }
    }
    if let Some(keep) = fault::fire("serve/drop_conn") {
        let body_off = bytes.len() - body_len;
        let cut = (body_off + keep as usize).min(bytes.len().saturating_sub(1));
        bytes.truncate(cut);
        return (bytes, true);
    }
    (bytes, false)
}

/// Bookkeeping common to every answered API request: counters, the
/// `request_done` telemetry event, and the timeline span. `lane` is
/// the answering thread (event threads first, then pool workers);
/// `arrived` anchors wall time at the request's first byte.
pub(crate) fn finish_api(
    shared: &Shared,
    lane: u64,
    path: &str,
    arrived: Instant,
    response: &Response,
    source: &'static str,
) {
    ServeMetrics::bump(&shared.metrics.done);
    if response.status >= 500 {
        ServeMetrics::bump(&shared.metrics.errors);
    }
    let wall_ms = arrived.elapsed().as_secs_f64() * 1e3;
    shared.metrics.observe_service_time((wall_ms * 1e3) as u64);
    let start_ms = arrived
        .saturating_duration_since(shared.started)
        .as_secs_f64()
        * 1e3;
    shared.event(
        "request_done",
        vec![
            ("endpoint".to_string(), Json::str(path)),
            ("status".to_string(), Json::UInt(response.status as u64)),
            ("wall_ms".to_string(), Json::Float(wall_ms)),
            ("source".to_string(), Json::str(source)),
        ],
    );
    shared.record_span(RequestSpan {
        endpoint: path.to_string(),
        worker: lane,
        start_ms,
        wall_ms,
        status: response.status,
        source,
    });
}

fn error_response(e: &TcorError) -> Response {
    let status = match e.kind() {
        ErrorKind::Config => 404,
        ErrorKind::Serve => 400,
        _ => 500,
    };
    Response::text(status, format!("{}: {e}\n", e.kind()))
}

/// The streaming path for a dequeued job: the same dequeue-time
/// deadline as API work, then the session plane (which contains its
/// own panics and types every expected failure).
fn answer_stream(shared: &Shared, op: &StreamOp, arrived: Instant) -> (Response, &'static str) {
    if arrived.elapsed() >= shared.deadline {
        ServeMetrics::bump(&shared.metrics.deadline_expired);
        return (
            Response::text(504, "deadline expired while queued\n"),
            "aborted",
        );
    }
    (shared.stream.handle(op, &shared.metrics), "stream")
}

/// The API request path for a dequeued job: deadline → cache →
/// singleflight → backend. Returns the response plus how it was
/// produced (for telemetry). Admission accounting already happened on
/// the event thread when the job was accepted.
fn answer_api(shared: &Shared, call: &ApiCall, arrived: Instant) -> (Response, &'static str) {
    // Deadline check at dequeue: a request that overstayed its queue
    // wait is answered 504 without ever starting its job.
    if arrived.elapsed() >= shared.deadline {
        ServeMetrics::bump(&shared.metrics.deadline_expired);
        return (
            Response::text(504, "deadline expired while queued\n"),
            "aborted",
        );
    }
    let key = CacheKey::new(call.cache_key(), shared.backend.version());
    // Up to one follower re-lead: an abandoned flight (the leader's
    // computation panicked) removes itself from the flight map, so the
    // first follower to re-enter `join` becomes the new leader and
    // recomputes. Followers therefore never surface a 500 for a panic
    // that was not their own request's fault — unless the retry leader
    // panics too. The first attempt probes no cache here: the event
    // thread probed before queueing, and a leader probes again below.
    for attempt in 0..2u32 {
        if attempt > 0 {
            if let Some(hit) = shared.try_warm(call) {
                return hit;
            }
        }
        match shared.flights.join(key.identity) {
            Join::Leader(token) => {
                // A settled flight leaves the map before its followers
                // wake, so this request may have missed the cache just
                // before the previous leader's put: probe once more,
                // and hand a hit to this flight's followers.
                if let Some((body, tier)) = shared.warm_hit(&key) {
                    token.finish(Ok(Arc::clone(&body)));
                    return warm_answer(&body, tier);
                }
                let outcome = catch_unwind(AssertUnwindSafe(|| shared.backend.call(call)));
                return match outcome {
                    Ok(Ok(body)) => {
                        let body = Arc::new(body.to_cached());
                        shared.cache.put(&key, &body);
                        ServeMetrics::bump(&shared.metrics.cold_computes);
                        token.finish(Ok(Arc::clone(&body)));
                        (ok_response(&body, "miss"), "compute")
                    }
                    Ok(Err(e)) => {
                        let e = Arc::new(e);
                        token.finish(Err(Arc::clone(&e)));
                        (error_response(&e), "compute")
                    }
                    Err(_panic) => {
                        // Dropping the token abandons the flight,
                        // waking followers; the panic is contained to
                        // this request.
                        ServeMetrics::bump(&shared.metrics.panics_caught);
                        drop(token);
                        (
                            Response::text(500, "computation panicked; see server log\n"),
                            "compute",
                        )
                    }
                };
            }
            Join::Follower(handle) => {
                ServeMetrics::bump(&shared.metrics.coalesced);
                shared.event(
                    "request_coalesced",
                    vec![("request".to_string(), Json::str(call.canonical()))],
                );
                let remaining = shared
                    .deadline
                    .checked_sub(arrived.elapsed())
                    .unwrap_or(Duration::ZERO);
                match handle.wait(Some(remaining)) {
                    Waited::Done(Ok(body)) => {
                        return (ok_response(&body, "coalesced"), "coalesced")
                    }
                    Waited::Done(Err(e)) => return (error_response(&e), "coalesced"),
                    Waited::Abandoned if attempt == 0 => {
                        ServeMetrics::bump(&shared.metrics.flight_retries);
                        continue;
                    }
                    Waited::Abandoned => break,
                    Waited::TimedOut => {
                        ServeMetrics::bump(&shared.metrics.deadline_expired);
                        return (
                            Response::text(504, "deadline expired awaiting coalesced result\n"),
                            "coalesced",
                        );
                    }
                }
            }
        }
    }
    (
        Response::text(500, "leading computation failed; retry\n"),
        "coalesced",
    )
}

/// A warm hit's response and span source ("cache" = memory, "disk" =
/// restored and promoted).
fn warm_answer(body: &CachedBody, tier: Tier) -> (Response, &'static str) {
    let source = match tier {
        Tier::Mem => "cache",
        Tier::Disk => "disk",
    };
    (ok_response(body, tier.label()), source)
}

/// A 200 carrying a cached body, labeled with which tier (or miss)
/// produced it: `X-Tcor-Cache: mem|disk|miss`.
fn ok_response(body: &CachedBody, cache_state: &'static str) -> Response {
    Response {
        status: 200,
        content_type: body.content_type.clone(),
        headers: vec![("X-Tcor-Cache", cache_state.to_string())],
        body: String::from_utf8_lossy(&body.bytes).into_owned(),
        keep_alive: false,
    }
}
