//! `tcor-sim stream` / `tcor-sim bench-stream`: clients for the
//! streaming profile plane.
//!
//! * **`stream`** — chunked-upload client: opens a session, uploads a
//!   trace (a suite workload via [`workload_trace`], or any CSV the
//!   `trace` subcommand exports) in bounded chunks, finishes, and
//!   prints the final curve document. With `--policy opt|lru` the
//!   finished body is byte-compatible with the offline
//!   `/v1/misscurve/{workload}/{policy}` plane — CI proves streamed ≡
//!   whole-trace with a `cmp`, not a tolerance.
//! * **`--probe-oversize`** — negative probe: declares a body over the
//!   route's limit and expects the daemon to answer 413 from the head
//!   alone (the body is never sent, so a buffering server would hang
//!   here and fail the probe's timeout).
//! * **`bench-stream`** — in-process benchmark: ingest throughput
//!   (MB/s, accesses/s), live-snapshot latency percentiles taken
//!   *while* ingesting, and the profiler's memory high-water
//!   (`peak_window`) against the session budgets, written to
//!   `BENCH_stream.json`. The finished curve is asserted byte-identical
//!   to an offline [`OptStackProfiler`] run of the same trace.

use crate::loadgen::drain;
use crate::misscurves::workload_trace;
use crate::SimBackend;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tcor_cache::profile::OptStackProfiler;
use tcor_cache::{annotate_next_use, Access, Trace};
use tcor_common::{BlockAddr, Xoshiro256pp};
use tcor_runner::{ArtifactStore, Json};
use tcor_serve::{HttpClient, LatencyHistogram, ServeConfig};
use tcor_workloads::encode_chunk;

/// Default accesses per uploaded chunk.
const DEFAULT_CHUNK_ACCESSES: usize = 4096;

/// Parsed `tcor-sim stream` flags.
struct StreamOpts {
    addr: String,
    workload: Option<String>,
    trace_csv: Option<String>,
    label: Option<String>,
    policy: Option<String>,
    chunk_accesses: usize,
    probe_oversize: bool,
}

/// `tcor-sim stream <addr> (--workload ALIAS | --trace-csv FILE | --probe-oversize)
/// [--label L] [--policy opt|lru] [--chunk-accesses N]` entry point.
pub fn stream_cmd(args: &[String]) -> ExitCode {
    let mut opts = StreamOpts {
        addr: String::new(),
        workload: None,
        trace_csv: None,
        label: None,
        policy: None,
        chunk_accesses: DEFAULT_CHUNK_ACCESSES,
        probe_oversize: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--probe-oversize" => {
                opts.probe_oversize = true;
                i += 1;
            }
            flag @ ("--workload" | "--trace-csv" | "--label" | "--policy" | "--chunk-accesses") => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("stream: {flag} needs a value");
                    return ExitCode::from(2);
                };
                match flag {
                    "--workload" => opts.workload = Some(value.clone()),
                    "--trace-csv" => opts.trace_csv = Some(value.clone()),
                    "--label" => opts.label = Some(value.clone()),
                    "--policy" => opts.policy = Some(value.clone()),
                    _ => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => opts.chunk_accesses = n,
                        _ => {
                            eprintln!("stream: --chunk-accesses needs a positive integer");
                            return ExitCode::from(2);
                        }
                    },
                }
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("stream: unknown flag `{flag}`");
                return ExitCode::from(2);
            }
            addr => {
                opts.addr = addr.to_string();
                i += 1;
            }
        }
    }
    if opts.addr.is_empty() {
        eprintln!("stream: needs a daemon address (host:port)");
        return ExitCode::from(2);
    }
    if opts.probe_oversize {
        return match probe_oversize(&opts.addr) {
            Ok(()) => {
                eprintln!("stream: oversize body refused with 413 from the head alone");
                ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("stream: oversize probe FAILED: {msg}");
                ExitCode::from(6)
            }
        };
    }
    let (trace, default_label) = match (&opts.workload, &opts.trace_csv) {
        (Some(alias), None) => {
            let store = ArtifactStore::new();
            match workload_trace(&store, alias) {
                Ok(bt) => (bt.trace.clone(), alias.clone()),
                Err(e) => {
                    eprintln!("stream: {e}");
                    return ExitCode::from(6);
                }
            }
        }
        (None, Some(path)) => {
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("stream: cannot open {path}: {e}");
                    return ExitCode::from(6);
                }
            };
            match tcor_cache::trace::read_csv(std::io::BufReader::new(file)) {
                Ok(t) => (t, "trace".to_string()),
                Err(e) => {
                    eprintln!("stream: {path}: {e}");
                    return ExitCode::from(6);
                }
            }
        }
        _ => {
            eprintln!("stream: needs exactly one of --workload or --trace-csv");
            return ExitCode::from(2);
        }
    };
    let label = opts.label.clone().unwrap_or(default_label);
    match upload(&opts, &trace, &label) {
        Ok(body) => {
            print!("{body}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("stream: {msg}");
            ExitCode::from(6)
        }
    }
}

/// Uploads `trace` through one session and returns the finished body.
fn upload(opts: &StreamOpts, trace: &[Access], label: &str) -> Result<String, String> {
    let mut client = HttpClient::new(opts.addr.clone(), Duration::from_secs(600));
    let open = client
        .request("POST", "/v1/stream", Some(&format!("label={label}")))
        .map_err(|e| format!("open: {e}"))?;
    if open.status != 200 {
        return Err(format!("open -> {}: {}", open.status, open.body.trim_end()));
    }
    let id = session_id(&open.body)?;
    let mut sent = 0usize;
    for chunk in trace.chunks(opts.chunk_accesses) {
        let body = encode_chunk(chunk);
        let reply = client
            .request("POST", &format!("/v1/stream/{id}/chunk"), Some(&body))
            .map_err(|e| format!("chunk at access {sent}: {e}"))?;
        if reply.status != 200 {
            return Err(format!(
                "chunk at access {sent} -> {}: {}",
                reply.status,
                reply.body.trim_end()
            ));
        }
        sent += chunk.len();
    }
    eprintln!(
        "stream: session {id}: {sent} access(es) in {} chunk(s)",
        trace.len().div_ceil(opts.chunk_accesses.max(1))
    );
    let finish_path = match &opts.policy {
        Some(p) => format!("/v1/stream/{id}/finish?policy={p}"),
        None => format!("/v1/stream/{id}/finish"),
    };
    let reply = client
        .request("POST", &finish_path, None)
        .map_err(|e| format!("finish: {e}"))?;
    if reply.status != 200 {
        return Err(format!(
            "finish -> {}: {}",
            reply.status,
            reply.body.trim_end()
        ));
    }
    Ok(reply.body)
}

/// Declares a chunk body over the 1 MiB stream limit without sending
/// it; the daemon must answer 413 from the head alone. A raw socket
/// (not [`HttpClient`]) so nothing here buffers or sends the body.
fn probe_oversize(addr: &str) -> Result<(), String> {
    let mut sock = std::net::TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("timeout: {e}"))?;
    let head = format!(
        "POST /v1/stream/s0/chunk HTTP/1.1\r\nHost: {addr}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        8 * 1024 * 1024
    );
    sock.write_all(head.as_bytes())
        .map_err(|e| format!("send head: {e}"))?;
    let mut reply = String::new();
    // The daemon answers and closes; a server that waited for the body
    // would hang here and trip the read timeout.
    sock.read_to_string(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    if !reply.starts_with("HTTP/1.1 413 ") {
        return Err(format!(
            "expected 413, got `{}`",
            reply.lines().next().unwrap_or("<empty>")
        ));
    }
    Ok(())
}

/// Extracts the session id from an open receipt.
fn session_id(receipt: &str) -> Result<String, String> {
    match Json::parse(receipt)
        .map_err(|e| format!("open receipt: {e}"))?
        .get("session")
    {
        Some(Json::Str(id)) => Ok(id.clone()),
        _ => Err("open receipt has no session id".to_string()),
    }
}

/// Parsed `tcor-sim bench-stream` flags.
struct BenchOpts {
    path: String,
    smoke: bool,
    seed: u64,
}

/// `tcor-sim bench-stream [FILE] [--smoke] [--seed S]` entry point.
pub fn bench_stream_cmd(args: &[String]) -> ExitCode {
    let mut opts = BenchOpts {
        path: "BENCH_stream.json".to_string(),
        smoke: false,
        seed: 42,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                opts.smoke = true;
                i += 1;
            }
            "--seed" => {
                let Some(Ok(seed)) = args.get(i + 1).map(|v| v.parse()) else {
                    eprintln!("bench-stream: --seed needs an integer seed");
                    return ExitCode::from(2);
                };
                opts.seed = seed;
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("bench-stream: unknown flag `{flag}`");
                return ExitCode::from(2);
            }
            file => {
                opts.path = file.to_string();
                i += 1;
            }
        }
    }
    match bench(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench-stream: FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A seeded synthetic trace with frame-coherent reuse: each round
/// touches every block of the working set once, in a fresh seeded
/// shuffle (tile rendering's shape — the same tiles, a different walk
/// each frame). Every block recurs within two rounds, so the streaming
/// profiler's resolved-prefix compaction has recurrences to retire and
/// the window stays O(working set), not O(trace).
fn synthetic_trace(seed: u64, accesses: usize, blocks: u64) -> Trace {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut order: Vec<u64> = (0..blocks).collect();
    let mut trace = Vec::with_capacity(accesses);
    while trace.len() < accesses {
        // Fisher-Yates reshuffle per round.
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..(i as u64 + 1)) as usize);
        }
        for &addr in order.iter().take(accesses - trace.len()) {
            trace.push(Access::read(BlockAddr(addr)));
        }
    }
    trace
}

/// The benchmark proper.
fn bench(opts: &BenchOpts) -> Result<(), String> {
    let accesses = if opts.smoke { 32_768 } else { 262_144 };
    let trace = synthetic_trace(opts.seed, accesses, 4096);

    // Offline reference: the whole-trace profiler the streaming plane
    // must match byte-for-byte.
    let opt = OptStackProfiler::profile(&trace, &annotate_next_use(&trace));
    let grid = tcor_stream::default_grid();
    let curve: Vec<f64> = grid
        .caps
        .iter()
        .map(|&c| tcor_stream::miss_ratio(opt.misses_at(c), trace.len() as u64))
        .collect();
    let want = tcor_stream::misscurve_json("bench", "opt", &grid.size_kb, &curve).render() + "\n";

    let cfg = ServeConfig {
        port: 0,
        workers: 2,
        event_threads: 2,
        queue_depth: 64,
        cache_cap: 64,
        deadline: Duration::from_secs(600),
        ..ServeConfig::default()
    };
    let stream_cfg = cfg.stream;
    let server = tcor_serve::start(cfg, Arc::new(SimBackend::new()), None)
        .map_err(|e| format!("daemon: {e}"))?;
    let addr = server.addr().to_string();
    let mut client = HttpClient::new(addr.clone(), Duration::from_secs(600));

    let open = client
        .request("POST", "/v1/stream", Some("label=bench"))
        .map_err(|e| format!("open: {e}"))?;
    if open.status != 200 {
        return Err(format!("open -> {}", open.status));
    }
    let id = session_id(&open.body)?;

    // Ingest: timed chunk uploads, with a live snapshot every 8 chunks
    // (latency measured while the session is mid-stream, as a client
    // watching a converging curve would).
    let chunk_accesses = 8192;
    let mut bytes = 0u64;
    let mut chunk_us = LatencyHistogram::new();
    let mut snap_us = LatencyHistogram::new();
    let ingest_start = Instant::now();
    for (n, chunk) in trace.chunks(chunk_accesses).enumerate() {
        let body = encode_chunk(chunk);
        bytes += body.len() as u64;
        let t = Instant::now();
        let reply = client
            .request("POST", &format!("/v1/stream/{id}/chunk"), Some(&body))
            .map_err(|e| format!("chunk {n}: {e}"))?;
        chunk_us.record(t.elapsed().as_micros() as u64);
        if reply.status != 200 {
            return Err(format!("chunk {n} -> {}", reply.status));
        }
        if n % 4 == 1 {
            let t = Instant::now();
            let snap = client
                .request("GET", &format!("/v1/stream/{id}/curve"), None)
                .map_err(|e| format!("snapshot: {e}"))?;
            snap_us.record(t.elapsed().as_micros() as u64);
            if snap.status != 200 {
                return Err(format!("snapshot -> {}", snap.status));
            }
        }
    }
    let ingest_s = ingest_start.elapsed().as_secs_f64();

    // Final combined document carries the memory high-water.
    let combined = client
        .request("GET", &format!("/v1/stream/{id}/curve"), None)
        .map_err(|e| format!("final snapshot: {e}"))?;
    let doc = Json::parse(&combined.body).map_err(|e| format!("final snapshot: {e}"))?;
    let uint = |key: &str| -> u64 {
        match doc.get(key) {
            Some(Json::UInt(v)) => *v,
            _ => 0,
        }
    };
    let (peak_window, distinct) = (uint("peak_window"), uint("distinct_blocks"));

    let finished = client
        .request("POST", &format!("/v1/stream/{id}/finish?policy=opt"), None)
        .map_err(|e| format!("finish: {e}"))?;
    if finished.status != 200 {
        return Err(format!("finish -> {}", finished.status));
    }
    if finished.body != want {
        return Err("finished curve differs from the offline profiler bytes".to_string());
    }

    drain(server, &addr, "daemon")?;

    let mb = bytes as f64 / (1024.0 * 1024.0);
    let doc = Json::obj([
        ("bench", Json::str("stream")),
        ("seed", Json::UInt(opts.seed)),
        ("smoke", Json::Bool(opts.smoke)),
        ("accesses", Json::UInt(trace.len() as u64)),
        ("bytes", Json::UInt(bytes)),
        ("ingest_s", Json::Float(ingest_s)),
        ("ingest_mb_s", Json::Float(mb / ingest_s)),
        ("accesses_per_s", Json::Float(trace.len() as f64 / ingest_s)),
        ("chunk_p50_us", Json::UInt(chunk_us.quantile_us(0.50))),
        ("chunk_p99_us", Json::UInt(chunk_us.quantile_us(0.99))),
        ("snapshots", Json::UInt(snap_us.count())),
        ("snapshot_p50_us", Json::UInt(snap_us.quantile_us(0.50))),
        ("snapshot_p99_us", Json::UInt(snap_us.quantile_us(0.99))),
        ("distinct_blocks", Json::UInt(distinct)),
        ("peak_window", Json::UInt(peak_window)),
        ("block_budget", Json::UInt(stream_cfg.session_blocks as u64)),
        ("byte_budget", Json::UInt(stream_cfg.session_bytes)),
        ("byte_identical_vs_offline", Json::Bool(true)),
    ]);
    std::fs::write(&opts.path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", opts.path))?;
    eprintln!(
        "bench-stream: PASS — {:.1} MB/s ({:.0} accesses/s), snapshot p50 {} us / p99 {} us \
         mid-ingest, peak window {peak_window} of {distinct} distinct blocks -> {}",
        mb / ingest_s,
        trace.len() as f64 / ingest_s,
        snap_us.quantile_us(0.50),
        snap_us.quantile_us(0.99),
        opts.path
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_trace_is_seeded_and_reusing() {
        let a = synthetic_trace(7, 4096, 1024);
        let b = synthetic_trace(7, 4096, 1024);
        assert_eq!(a, b, "same seed, same trace");
        let distinct = tcor_cache::trace::distinct_blocks(&a);
        assert!(
            distinct < a.len() / 2,
            "wanted reuse, got {distinct} distinct of {}",
            a.len()
        );
        assert_ne!(a, synthetic_trace(8, 4096, 1024));
    }
}
