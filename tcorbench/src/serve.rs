//! `serve`: warm reads and streaming writes through one in-process
//! daemon.
//!
//! The daemon is `tcor_serve` with `SimBackend`, one event thread and
//! one compute worker. One client thread holds one keep-alive
//! connection and runs a closed loop. Reads are warm GETs of cells and
//! miss curves computed during set-up (answered inline on the event
//! thread). Writes are stream sessions — open, 4096-access chunk POSTs
//! (about 20 KB each), a live combined snapshot every 8 chunks, and a
//! finish — through the compute queue into the streaming profiler. One
//! pass is 16 reads of each of the 20 read keys and one session per
//! seeded trace, merged in a seeded order; sessions rotate per trace, so
//! no session nears its 8 MiB byte budget. Reads are 81% of a pass, so
//! p50 falls inside the reads and p90 inside the chunk POSTs. Cold
//! computes run only during set-up.

use crate::trace::Tracer;
use crate::{closed_loop, Args, Metric, Outcome, Window, SETUP_REPS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcor_cache::profile::OptStackProfiler;
use tcor_cache::{annotate_next_use, Access, Trace};
use tcor_common::{BlockAddr, Xoshiro256pp};
use tcor_pcache::{CacheKey, CachedBody, ResultCache, TieredCache};
use tcor_runner::Json;
use tcor_serve::{
    body_limit, parse_request_limited, route, start_with_cache, ApiCall, Backend, HttpClient,
    ParseOutcome, Response, Route, ServeConfig, ServerHandle,
};
use tcor_sim::SimBackend;
use tcor_stream::{SessionRegistry, StreamConfig};

const READ_WORKLOADS: [&str; 2] = ["GTr", "SoD"];
const READ_CONFIGS: [&str; 6] = [
    "base64",
    "tcor_nol2_64",
    "tcor64",
    "base128",
    "tcor_nol2_128",
    "tcor128",
];
const READ_POLICIES: [&str; 4] = ["lru", "opt", "fifo", "hawkeye"];
/// Reads of each read key per pass.
const READS_PER_KEY: usize = 16;
/// Seeded stream traces; one session per trace per pass.
const TRACES: usize = 4;
const CHUNKS: usize = 16;
const CHUNK_ACCESSES: usize = 4096;
const TRACE_BLOCKS: u64 = 4096;
/// A live snapshot follows every this many chunks.
const SNAPSHOT_EVERY: usize = 8;

/// One GET the loop repeats.
struct ReadKey {
    path: String,
    call: ApiCall,
}

fn read_keys() -> Vec<ReadKey> {
    let mut keys = Vec::new();
    for w in READ_WORKLOADS {
        for c in READ_CONFIGS {
            keys.push(ReadKey {
                path: format!("/v1/cell/{w}/{c}"),
                call: ApiCall::Cell {
                    workload: w.to_string(),
                    config: c.to_string(),
                },
            });
        }
        for p in READ_POLICIES {
            keys.push(ReadKey {
                path: format!("/v1/misscurve/{w}/{p}"),
                call: ApiCall::MissCurve {
                    workload: w.to_string(),
                    policy: p.to_string(),
                },
            });
        }
    }
    keys
}

/// One seeded stream trace, pre-encoded, with its offline answer.
struct StreamTrace {
    chunks: Vec<String>,
    /// `misscurve_json` of an offline `OptStackProfiler` run: what the
    /// finish must return byte for byte.
    want: String,
}

/// A seeded trace with frame-coherent reuse: each round touches every
/// block of the working set once, in a fresh seeded order.
fn synthetic_trace(rng: &mut Xoshiro256pp) -> Trace {
    let accesses = CHUNKS * CHUNK_ACCESSES;
    let mut order: Vec<u64> = (0..TRACE_BLOCKS).collect();
    let mut trace = Vec::with_capacity(accesses);
    while trace.len() < accesses {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..(i as u64 + 1)) as usize);
        }
        for &addr in order.iter().take(accesses - trace.len()) {
            trace.push(Access::read(BlockAddr(addr)));
        }
    }
    trace
}

fn stream_traces(seed: u64) -> Vec<StreamTrace> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x57_2EA4);
    let grid = tcor_stream::default_grid();
    (0..TRACES)
        .map(|k| {
            let trace = synthetic_trace(&mut rng);
            let opt = OptStackProfiler::profile(&trace, &annotate_next_use(&trace));
            let curve: Vec<f64> = grid
                .caps
                .iter()
                .map(|&c| tcor_stream::miss_ratio(opt.misses_at(c), trace.len() as u64))
                .collect();
            StreamTrace {
                chunks: trace
                    .chunks(CHUNK_ACCESSES)
                    .map(tcor_workloads::encode_chunk)
                    .collect(),
                want: tcor_stream::misscurve_json(&format!("t{k}"), "opt", &grid.size_kb, &curve)
                    .render()
                    + "\n",
            }
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Read(usize),
    Open(usize),
    Chunk(usize, usize),
    Snapshot(usize),
    Finish(usize),
}

impl Op {
    fn class(&self) -> &'static str {
        match self {
            Op::Read(_) => "read",
            Op::Open(_) => "write-open",
            Op::Chunk(..) => "write-chunk",
            Op::Snapshot(_) => "write-snapshot",
            Op::Finish(_) => "write-finish",
        }
    }
}

/// The ops of one session, in order.
fn session_ops(t: usize) -> Vec<Op> {
    let mut ops = vec![Op::Open(t)];
    for c in 0..CHUNKS {
        ops.push(Op::Chunk(t, c));
        if (c + 1) % SNAPSHOT_EVERY == 0 {
            ops.push(Op::Snapshot(t));
        }
    }
    ops.push(Op::Finish(t));
    ops
}

/// One pass: every read key `READS_PER_KEY` times and one session per
/// trace, merged uniformly at random (each session keeps its order).
fn pass(rng: &mut Xoshiro256pp, keys: usize) -> Vec<Op> {
    let mut queues: Vec<Vec<Op>> = (0..TRACES).map(session_ops).collect();
    let mut reads: Vec<Op> = (0..keys * READS_PER_KEY)
        .map(|i| Op::Read(i % keys))
        .collect();
    for i in (1..reads.len()).rev() {
        reads.swap(i, rng.random_range(0..(i as u64 + 1)) as usize);
    }
    queues.push(reads);
    for q in &mut queues {
        q.reverse();
    }
    let mut out = Vec::new();
    loop {
        let left: usize = queues.iter().map(Vec::len).sum();
        if left == 0 {
            return out;
        }
        let mut pick = rng.random_range(0..left as u64) as usize;
        for q in &mut queues {
            if pick < q.len() {
                out.push(q.pop().expect("nonempty queue"));
                break;
            }
            pick -= q.len();
        }
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        port: 0,
        workers: 1,
        event_threads: 1,
        queue_depth: 64,
        cache_cap: 256,
        deadline: Duration::from_secs(60),
        // Finished sessions are swept after half a second, so sessions never
        // pile up to the session cap over a run.
        stream: StreamConfig {
            max_sessions: 1024,
            ttl: Duration::from_millis(500),
            ..StreamConfig::default()
        },
        ..ServeConfig::default()
    }
}

struct Daemon {
    handle: ServerHandle,
    cache: Arc<dyn ResultCache>,
    client: HttpClient,
    addr: String,
}

impl Daemon {
    fn stop(self) {
        drop(self.client);
        self.handle.stop();
        self.handle.wait();
    }

    fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        self.handle
            .metrics_text()
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(" = ")?;
                Some((k.trim().to_string(), v.trim().parse().ok()?))
            })
            .collect()
    }
}

/// Starts the daemon, computes every read key cold, then warms up with
/// one read of each key and one full session.
fn setup(keys: &[ReadKey], traces: &[StreamTrace]) -> Result<Daemon, String> {
    let cache: Arc<dyn ResultCache> =
        Arc::new(TieredCache::open(256, None).map_err(|e| e.to_string())?);
    let handle = start_with_cache(
        serve_config(),
        Arc::new(SimBackend::new()),
        None,
        Arc::clone(&cache),
    )
    .map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    let mut d = Daemon {
        handle,
        cache,
        client: HttpClient::new(addr.clone(), Duration::from_secs(60)),
        addr,
    };
    for _ in 0..2 {
        for k in keys {
            let r = d
                .client
                .request("GET", &k.path, None)
                .map_err(|e| e.to_string())?;
            if r.status != 200 {
                return Err(format!("set-up GET {} -> {}", k.path, r.status));
            }
        }
    }
    let mut ids = vec![String::new(); traces.len()];
    for op in session_ops(0) {
        let (status, _) = send(&mut d.client, op, traces, &mut ids)?;
        if status != 200 {
            return Err(format!("set-up {op:?} -> {status}"));
        }
    }
    Ok(d)
}

/// Sends one write op; returns the status and body.
fn send(
    client: &mut HttpClient,
    op: Op,
    traces: &[StreamTrace],
    ids: &mut [String],
) -> Result<(u16, String), String> {
    let reply = match op {
        Op::Open(t) => {
            let r = client.request("POST", "/v1/stream", Some(&format!("label=t{t}")));
            if let Ok(r) = &r {
                if let Ok(doc) = Json::parse(&r.body) {
                    if let Some(Json::Str(id)) = doc.get("session") {
                        ids[t] = id.clone();
                    }
                }
            }
            r
        }
        Op::Chunk(t, c) => client.request(
            "POST",
            &format!("/v1/stream/{}/chunk", ids[t]),
            Some(&traces[t].chunks[c]),
        ),
        Op::Snapshot(t) => client.request("GET", &format!("/v1/stream/{}/curve", ids[t]), None),
        Op::Finish(t) => client.request(
            "POST",
            &format!("/v1/stream/{}/finish?policy=opt", ids[t]),
            None,
        ),
        Op::Read(_) => unreachable!("reads go through `Driver::exec`"),
    };
    let reply = reply.map_err(|e| format!("{op:?}: {e}"))?;
    Ok((reply.status, reply.body))
}

/// The client side of the loop: the seeded pass, the session ids, and
/// the bookkeeping checked after the window.
struct Driver<'a> {
    keys: &'a [ReadKey],
    traces: &'a [StreamTrace],
    rng: Xoshiro256pp,
    pass_len: usize,
    ops: Vec<Op>,
    ids: Vec<String>,
    /// First body of each read key; every later read must repeat it.
    first_body: Vec<Option<String>>,
    snapshots: Vec<String>,
    failed: u64,
    reads: u64,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
}

impl<'a> Driver<'a> {
    fn new(keys: &'a [ReadKey], traces: &'a [StreamTrace], seed: u64) -> Self {
        Driver {
            keys,
            traces,
            rng: Xoshiro256pp::seed_from_u64(seed ^ 0x5E_4E),
            pass_len: keys.len() * READS_PER_KEY + TRACES * session_ops(0).len(),
            ops: Vec::new(),
            ids: vec![String::new(); TRACES],
            first_body: vec![None; keys.len()],
            snapshots: Vec::new(),
            failed: 0,
            reads: 0,
            read_ms: Vec::new(),
            write_ms: Vec::new(),
        }
    }

    /// The `k`-th op of the run; a fresh seeded pass every `pass_len`.
    fn op_at(&mut self, k: usize) -> Op {
        if k.is_multiple_of(self.pass_len) {
            self.ops = pass(&mut self.rng, self.keys.len());
        }
        self.ops[k % self.pass_len]
    }

    /// Sends `op` and checks its answer. Any non-2xx answer, a read that
    /// differs from the first read of its key, or a finish that differs
    /// from the offline profiler is a failed op.
    fn exec(&mut self, d: &mut Daemon, op: Op) {
        let t0 = Instant::now();
        let sent = match op {
            Op::Read(i) => d
                .client
                .request("GET", &self.keys[i].path, None)
                .map(|r| (r.status, r.body))
                .map_err(|e| format!("GET {}: {e}", self.keys[i].path)),
            _ => send(&mut d.client, op, self.traces, &mut self.ids),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let (status, body) = sent.unwrap_or_else(|e| {
            eprintln!("serve: {e}");
            (0, String::new())
        });
        let ok = (200..300).contains(&status)
            && match op {
                Op::Read(i) => {
                    self.reads += 1;
                    self.read_ms.push(ms);
                    match &self.first_body[i] {
                        Some(f) => *f == body,
                        None => {
                            self.first_body[i] = Some(body);
                            true
                        }
                    }
                }
                Op::Finish(t) => {
                    self.write_ms.push(ms);
                    body == self.traces[t].want
                }
                Op::Snapshot(_) => {
                    self.write_ms.push(ms);
                    // Every pass replays the same traces, so the first
                    // pass's snapshots carry the run's peak window.
                    if self.snapshots.len() < TRACES * CHUNKS / SNAPSHOT_EVERY {
                        self.snapshots.push(body);
                    }
                    true
                }
                _ => {
                    self.write_ms.push(ms);
                    true
                }
            };
        if !ok {
            eprintln!("serve: {op:?} -> {status}");
            self.failed += 1;
        }
    }
}

/// The layer calls behind one warm read, made from outside on the
/// exact request bytes the client sends.
fn probe_read(t: &mut Tracer, d: &Daemon, key: &ReadKey, version: u64) {
    let bytes = format!(
        "GET {} HTTP/1.1\r\nHost: {}\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
        key.path, d.addr
    );
    let parsed = t.span("serve.parse", |_| {
        parse_request_limited(bytes.as_bytes(), |r| body_limit(&r.method, &r.path))
    });
    let Ok(ParseOutcome::Complete(req, _)) = parsed else {
        return;
    };
    let Ok(Route::Api(call)) = t.span("serve.route", |_| route(&req)) else {
        return;
    };
    let hit = t.span("pcache.get", |_| {
        d.cache.get(&CacheKey::new(call.cache_key(), version))
    });
    if let Some((body, _)) = hit {
        t.span("serve.encode", |_| {
            Response::json(200, String::from_utf8_lossy(&body.bytes).into_owned())
                .with_header("X-Tcor-Cache", "mem")
                .to_bytes()
        });
    }
}

/// The streaming layer behind one write op, replayed on a local
/// registry: returns the local answer of a finish, which must equal the
/// daemon's.
fn probe_write(
    t: &mut Tracer,
    reg: &SessionRegistry,
    local: &mut [String],
    op: Op,
    traces: &[StreamTrace],
) -> Option<String> {
    let now = Instant::now();
    match op {
        Op::Open(k) => {
            let receipt = t.span("stream.open", |_| reg.open(&format!("label=t{k}"), now));
            if let Some(Json::Str(id)) = receipt
                .ok()
                .and_then(|r| Json::parse(&r).ok())
                .and_then(|d| d.get("session").cloned())
            {
                local[k] = id;
            }
            None
        }
        Op::Chunk(k, c) => {
            let body = &traces[k].chunks[c];
            t.span("workloads.decode", |_| {
                tcor_workloads::ChunkDecoder::new()
                    .feed(body)
                    .map(|a| a.len())
            })
            .ok()?;
            t.span("stream.chunk", |_| reg.chunk(&local[k], body, now))
                .ok()?;
            None
        }
        Op::Snapshot(k) => {
            t.span("stream.curve", |_| reg.curve(&local[k], None, now))
                .ok()?;
            None
        }
        Op::Finish(k) => t
            .span("stream.finish", |_| reg.finish(&local[k], Some("opt"), now))
            .ok(),
        Op::Read(_) => None,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let keys = read_keys();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::new();
    let mut traces = Vec::new();
    let mut daemon = None;
    for _ in 0..reps {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let t0 = Instant::now();
        traces = stream_traces(args.seed);
        daemon = Some(setup(&keys, &traces)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let mut d = daemon.expect("at least one set-up");
    let mut drv = Driver::new(&keys, &traces, args.seed);
    let pass_len = drv.pass_len;

    let before = d.counters();
    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let window: Window = closed_loop(untraced_secs, pass_len, |k| {
        let op = drv.op_at(k);
        drv.exec(&mut d, op);
        op.class()
    });
    crate::print_classes("untraced", &window);
    let after = d.counters();
    let delta = |name: &str| after.get(name).unwrap_or(&0) - before.get(name).unwrap_or(&0);
    let n_ops = window.samples.len() as f64;
    let warm_hit_ratio = delta("serve/cache_warm_hits") as f64 / drv.reads.max(1) as f64;
    if warm_hit_ratio != 1.0 {
        eprintln!("serve: warm hit ratio {warm_hit_ratio} in the timed window");
        drv.failed += 1;
    }
    let server = [
        (
            "serve.wakeups_per_request",
            delta("serve/eventloop_wakeups") as f64 / n_ops,
        ),
        ("serve.warm_hit_ratio", warm_hit_ratio),
        (
            "serve.keepalive_reuses",
            delta("serve/keepalive_reuses") as f64 / n_ops,
        ),
    ];
    let read_ms = std::mem::take(&mut drv.read_ms);
    let write_ms = std::mem::take(&mut drv.write_ms);

    let mut tracer = Tracer::new();
    let mut attempted = window.samples.len() as u64;
    let mut traced = None;
    if args.trace {
        let version = SimBackend::new().version();
        let reg = SessionRegistry::new(serve_config().stream);
        let mut local = vec![String::new(); TRACES];
        let mut probe_failed = 0u64;
        let from = tracer.mark();
        let w = closed_loop(args.seconds / 2.0, pass_len, |k| {
            let op = drv.op_at(k);
            tracer.set_op(k as u64);
            match op {
                Op::Read(i) => {
                    tracer.span("serve.read", |_| drv.exec(&mut d, op));
                    probe_read(&mut tracer, &d, &keys[i], version);
                }
                _ => {
                    tracer.span("serve.write", |_| drv.exec(&mut d, op));
                    let local_finish = probe_write(&mut tracer, &reg, &mut local, op, &traces);
                    if let (Op::Finish(t), Some(f)) = (op, local_finish) {
                        if f != traces[t].want {
                            eprintln!("serve: local finish of t{t} differs");
                            probe_failed += 1;
                        }
                    }
                }
            }
            op.class()
        });
        crate::print_classes("traced", &w);
        drv.failed += probe_failed;
        attempted += w.samples.len() as u64;
        let attributed = tracer.root_secs_since(from) / w.secs;
        traced = Some((w, attributed));
    }

    let mut peak_window = 0u64;
    for s in &drv.snapshots {
        if let Some(Json::UInt(p)) = Json::parse(s)
            .ok()
            .and_then(|d| d.get("peak_window").cloned())
        {
            peak_window = peak_window.max(p);
        }
    }
    Daemon::stop(d);

    // Every read body must equal an in-process backend call of the same
    // call; the reference calls double as the backend's layer spans.
    let mut setup_t = Tracer::new();
    let backend = SimBackend::new();
    let scratch = TieredCache::open(256, None).map_err(|e| e.to_string())?;
    for (i, k) in keys.iter().enumerate() {
        let want = setup_t
            .span("sim.backend", |_| backend.call(&k.call))
            .map_err(|e| format!("{}: {e}", k.path))?;
        let body = Arc::new(CachedBody::text(
            want.content_type.clone(),
            want.body.clone(),
        ));
        let key = CacheKey::new(k.call.cache_key(), backend.version());
        setup_t.span("pcache.put", |_| scratch.put(&key, &body));
        if drv.first_body[i].as_deref().is_some_and(|b| b != want.body) {
            eprintln!("serve: {} differs from the in-process backend", k.path);
            drv.failed += 1;
        }
    }

    let metrics = if let Some((w, attributed)) = traced {
        let us = |name: &str| tracer.median_secs(name) * 1e6;
        let inline = us("serve.parse") + us("serve.route") + us("pcache.get") + us("serve.encode");
        let mut m = vec![
            Metric::new(
                "sim.backend_ms",
                setup_t.median_secs("sim.backend") * 1e3,
                "ms",
            ),
            Metric::new(
                "pcache.put_us",
                setup_t.median_secs("pcache.put") * 1e6,
                "us",
            ),
            Metric::new("serve.parse_us", us("serve.parse"), "us"),
            Metric::new("serve.route_us", us("serve.route"), "us"),
            Metric::new("pcache.get_us", us("pcache.get"), "us"),
            Metric::new("serve.encode_us", us("serve.encode"), "us"),
            Metric::new("serve.plane_us", us("serve.read") - inline, "us"),
            Metric::new("workloads.decode_us", us("workloads.decode"), "us"),
            Metric::new("stream.chunk_ms", us("stream.chunk") / 1e3, "ms"),
            Metric::new("stream.curve_ms", us("stream.curve") / 1e3, "ms"),
            Metric::new("stream.finish_ms", us("stream.finish") / 1e3, "ms"),
            Metric::new("stream.peak_window", peak_window as f64, "count"),
            Metric::new(
                "serve.read_p50_ms",
                crate::stats::quantile(&read_ms, 0.5),
                "ms",
            ),
            Metric::new(
                "serve.read_p99_ms",
                crate::stats::quantile(&read_ms, 0.99),
                "ms",
            ),
            Metric::new(
                "serve.write_p50_ms",
                crate::stats::quantile(&write_ms, 0.5),
                "ms",
            ),
            Metric::new(
                "serve.write_p99_ms",
                crate::stats::quantile(&write_ms, 0.99),
                "ms",
            ),
        ];
        for (name, v) in server {
            m.push(Metric::new(name, v, "ratio"));
        }
        m.extend(crate::trace::tracing_metrics(
            "serve",
            attributed,
            w.rate(),
            window.rate(),
        ));
        tracer.finish(&crate::trace::spans_path("serve", args.seed))?;
        m
    } else {
        crate::end_to_end(&setup_secs, &window)
    };
    Ok(Outcome {
        correct: drv.failed == 0,
        attempted,
        failed: drv.failed,
        metrics,
    })
}
