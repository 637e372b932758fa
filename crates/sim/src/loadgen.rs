//! `tcor-sim bench-load`: an open-loop concurrent load generator for
//! the serving plane.
//!
//! Two in-process daemons are measured:
//!
//! * **Latency tiers** — a normally-provisioned daemon is primed once
//!   (cold computes, asserted byte-identical to an offline
//!   [`SimBackend`] run of the same [`ApiCall`]s), then hit with warm
//!   traffic at 1 / 64 / 512 / 2048 concurrent keep-alive connections.
//!   Each connection is one client thread pacing itself on a
//!   fixed-seed exponential arrival schedule (open-loop: send times
//!   come from the schedule, and latency is measured from the
//!   *scheduled* send, so a slow server inflates the tail instead of
//!   silently slowing the generator — the coordinated-omission fix).
//!   Latencies land in per-thread [`LatencyHistogram`]s merged after
//!   the run; every body is re-checked against the offline reference.
//! * **Overload** — a deliberately tiny daemon (1 worker, queue depth
//!   2) takes a synchronized burst of distinct *cold* keys. Admission
//!   control must shed the overflow gracefully: every answer is 200 or
//!   429 (no 5xx, no resets), every 429 carries `Retry-After` and the
//!   ms-precision `X-Tcor-Retry-After-Ms`, and the daemon still drains
//!   cleanly afterwards.
//!
//! Results merge into `BENCH_serve.json` under a `"load"` key (the
//! rest of the document — `bench-serve`'s cold/warm tiers — is
//! preserved via [`Json::parse`]).

use crate::suite::CELL_CONFIGS;
use crate::SimBackend;
use std::process::ExitCode;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use tcor_common::{fxhash64, Xoshiro256pp};
use tcor_obs::RequestSpan;
use tcor_serve::{ApiCall, Backend, HttpClient, LatencyHistogram, ServeConfig};

/// One concurrency tier of the latency phase.
struct Tier {
    /// Concurrent keep-alive connections (= client threads).
    conns: usize,
    /// Requests each connection sends.
    per_conn: usize,
    /// Per-connection arrival rate (Hz); aggregate = `conns × rate`.
    conn_rps: f64,
}

/// Parsed `tcor-sim bench-load` flags.
struct LoadOpts {
    path: String,
    smoke: bool,
    seed: u64,
}

/// What the overload burst observed, for the JSON record and the CI
/// assertions.
struct OverloadStats {
    conns: usize,
    ok: u64,
    shed: u64,
    min_hint_ms: u64,
    max_hint_ms: u64,
}

/// `tcor-sim bench-load [FILE] [--smoke] [--seed S]` entry point.
pub fn bench_load_cmd(args: &[String]) -> ExitCode {
    let mut opts = LoadOpts {
        path: "BENCH_serve.json".to_string(),
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
                    eprintln!("bench-load: --seed needs an integer seed");
                    return ExitCode::from(2);
                };
                opts.seed = seed;
                i += 2;
            }
            flag if flag.starts_with("--") => {
                eprintln!("bench-load: unknown flag `{flag}`");
                return ExitCode::from(2);
            }
            file => {
                opts.path = file.to_string();
                i += 1;
            }
        }
    }
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench-load: FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The warm-tier request mix: the same five real-work targets
/// `bench-serve` times, paired with the [`ApiCall`] an offline backend
/// needs to recompute each body independently.
fn warm_targets() -> Vec<(String, ApiCall)> {
    let cell = |w: &str, c: &str| ApiCall::Cell {
        workload: w.to_string(),
        config: c.to_string(),
    };
    vec![
        ("/v1/cell/GTr/base64".to_string(), cell("GTr", "base64")),
        ("/v1/cell/GTr/tcor64".to_string(), cell("GTr", "tcor64")),
        ("/v1/cell/SoD/base64".to_string(), cell("SoD", "base64")),
        ("/v1/cell/SoD/tcor64".to_string(), cell("SoD", "tcor64")),
        (
            "/v1/misscurve/SoD/opt".to_string(),
            ApiCall::MissCurve {
                workload: "SoD".to_string(),
                policy: "opt".to_string(),
            },
        ),
    ]
}

/// Next exponential inter-arrival gap (seconds) at `rate_hz`.
fn exp_interval(rng: &mut Xoshiro256pp, rate_hz: f64) -> f64 {
    -(1.0 - rng.random_f64()).ln() / rate_hz
}

/// Blocks until `due`. With `spin`, the last ~300 µs busy-wait so the
/// scheduled send lands on time (oversleep would be charged to the
/// server); without it, plain `sleep` keeps thousands of pacing
/// threads off the CPU and the ~100 µs overshoot disappears into the
/// millisecond-scale latencies those tiers measure.
fn wait_until(due: Instant, spin: bool) {
    loop {
        let Some(left) = due.checked_duration_since(Instant::now()) else {
            return;
        };
        if left.is_zero() {
            return;
        }
        if !spin {
            std::thread::sleep(left);
        } else if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(250));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one concurrency tier against a warmed daemon: `tier.conns`
/// keep-alive connections, each open-loop paced. Returns the merged
/// histogram and the measured wall time (seconds).
fn run_tier(
    addr: &str,
    tier: &Tier,
    seed: u64,
    targets: &Arc<Vec<(String, String)>>,
) -> Result<(LatencyHistogram, f64), String> {
    let barrier = Arc::new(Barrier::new(tier.conns + 1));
    // Precise (spin-finished) pacing up to 64 connections: the spin
    // window costs ≤ ~300 µs of CPU per request, affordable at these
    // tiers' aggregate rates and essential for sub-100 µs readings.
    // Above that, plain `sleep` pacing — thousands of spinners would
    // starve the daemon, and those tiers measure ≥ ms-scale queueing
    // where the overshoot noise is immaterial.
    let spin = tier.conns <= 64;
    let mut handles = Vec::with_capacity(tier.conns);
    for c in 0..tier.conns {
        let addr = addr.to_string();
        let barrier = Arc::clone(&barrier);
        let targets = Arc::clone(targets);
        let (per_conn, conn_rps) = (tier.per_conn, tier.conn_rps);
        let handle = std::thread::Builder::new()
            .name(format!("loadgen-{c}"))
            .stack_size(256 << 10)
            .spawn(move || -> Result<LatencyHistogram, String> {
                let mut client = HttpClient::new(addr, Duration::from_secs(30));
                // Prime the connection before the measured window so
                // connect storms (thousands of SYNs against a small
                // accept backlog) retry here, not on the clock.
                let mut primed = Err("no attempt".to_string());
                for _ in 0..100 {
                    match client.request("GET", "/health", None) {
                        Ok(r) if r.status == 200 => {
                            primed = Ok(());
                            break;
                        }
                        Ok(r) => primed = Err(format!("/health -> {}", r.status)),
                        Err(e) => {
                            primed = Err(e.to_string());
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    }
                }
                primed.map_err(|e| format!("conn {c} never primed: {e}"))?;
                barrier.wait();
                let t0 = Instant::now();
                let mut rng = Xoshiro256pp::seed_from_u64(
                    seed ^ fxhash64(format!("loadgen-conn-{c}").as_bytes()),
                );
                let mut hist = LatencyHistogram::new();
                let mut sched = 0.0f64;
                for i in 0..per_conn {
                    sched += exp_interval(&mut rng, conn_rps);
                    let due = t0 + Duration::from_secs_f64(sched);
                    wait_until(due, spin);
                    let (path, want) = &targets[(c + i) % targets.len()];
                    match client.request("GET", path, None) {
                        Ok(r) if r.status == 200 && r.body == *want => {
                            hist.record(due.elapsed().as_micros() as u64);
                        }
                        Ok(r) if r.status != 200 => {
                            return Err(format!("conn {c}: GET {path} -> {}", r.status));
                        }
                        Ok(_) => {
                            return Err(format!(
                                "conn {c}: GET {path} body differs from the offline CLI"
                            ));
                        }
                        Err(e) => return Err(format!("conn {c}: GET {path}: {e}")),
                    }
                }
                Ok(hist)
            })
            .map_err(|e| format!("cannot spawn load thread {c}: {e}"))?;
        handles.push(handle);
    }
    barrier.wait();
    let t0 = Instant::now();
    let mut merged = LatencyHistogram::new();
    let mut first_err = None;
    for handle in handles {
        match handle.join() {
            Ok(Ok(hist)) => merged.merge(&hist),
            Ok(Err(msg)) => {
                first_err.get_or_insert(msg);
            }
            Err(_) => {
                first_err.get_or_insert("a load thread panicked".to_string());
            }
        }
    }
    if let Some(msg) = first_err {
        return Err(msg);
    }
    Ok((merged, t0.elapsed().as_secs_f64()))
}

/// A counter out of a `/metrics` body (0 when absent).
pub fn counter(metrics: &str, path: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{path} = ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Drains an in-process daemon over HTTP and joins it, returning its
/// request timeline; any failure is a bench failure (the "clean drain"
/// criterion).
pub fn drain(
    server: tcor_serve::ServerHandle,
    addr: &str,
    what: &str,
) -> Result<Vec<RequestSpan>, String> {
    let mut client = HttpClient::new(addr, Duration::from_secs(10));
    match client.request("POST", "/admin/shutdown", None) {
        Ok(r) if r.status == 200 => {}
        Ok(r) => return Err(format!("{what}: shutdown -> {}", r.status)),
        Err(e) => return Err(format!("{what}: shutdown: {e}")),
    }
    Ok(server.wait())
}

/// The overload burst: `conns` clients release together against a
/// 1-worker / depth-2 daemon, each asking for a distinct cold cell, so
/// all but a handful must be shed — gracefully.
fn overload_phase(conns: usize) -> Result<OverloadStats, String> {
    let cfg = ServeConfig {
        port: 0,
        workers: 1,
        event_threads: 2,
        queue_depth: 2,
        cache_cap: 64,
        deadline: Duration::from_secs(600),
        ..ServeConfig::default()
    };
    let server = tcor_serve::start(cfg, Arc::new(SimBackend::new()), None)
        .map_err(|e| format!("overload daemon: {e}"))?;
    let addr = server.addr().to_string();
    // Distinct cold keys — coalescing must not rescue the burst.
    let keys: Vec<String> = tcor_workloads::suite()
        .iter()
        .flat_map(|b| {
            CELL_CONFIGS
                .iter()
                .map(|cfg| format!("/v1/cell/{}/{cfg}", b.alias))
        })
        .take(conns)
        .collect();
    if keys.len() < conns {
        return Err(format!(
            "only {} distinct cold keys for {conns} clients",
            keys.len()
        ));
    }
    let barrier = Arc::new(Barrier::new(conns + 1));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::with_capacity(conns);
    for (c, key) in keys.into_iter().enumerate() {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        let failures = Arc::clone(&failures);
        let handle = std::thread::Builder::new()
            .name(format!("overload-{c}"))
            .stack_size(256 << 10)
            .spawn(move || -> Option<(u16, Option<u64>)> {
                let mut client = HttpClient::new(addr, Duration::from_secs(180));
                barrier.wait();
                match client.request("GET", &key, None) {
                    Ok(r) => {
                        let hint = r
                            .header("x-tcor-retry-after-ms")
                            .and_then(|v| v.parse().ok());
                        if r.status == 429 && r.header("retry-after").is_none() {
                            failures
                                .lock()
                                .unwrap()
                                .push(format!("GET {key}: 429 without Retry-After"));
                        }
                        Some((r.status, hint))
                    }
                    Err(e) => {
                        failures.lock().unwrap().push(format!("GET {key}: {e}"));
                        None
                    }
                }
            })
            .map_err(|e| format!("cannot spawn overload thread {c}: {e}"))?;
        handles.push(handle);
    }
    barrier.wait();
    let mut stats = OverloadStats {
        conns,
        ok: 0,
        shed: 0,
        min_hint_ms: u64::MAX,
        max_hint_ms: 0,
    };
    for handle in handles {
        match handle.join() {
            Ok(Some((200, _))) => stats.ok += 1,
            Ok(Some((429, Some(hint)))) => {
                stats.shed += 1;
                stats.min_hint_ms = stats.min_hint_ms.min(hint);
                stats.max_hint_ms = stats.max_hint_ms.max(hint);
            }
            Ok(Some((429, None))) => {
                return Err("a 429 arrived without a parseable X-Tcor-Retry-After-Ms".to_string());
            }
            Ok(Some((status, _))) => {
                return Err(format!(
                    "overload answered {status}; shedding must be 200-or-429"
                ));
            }
            Ok(None) => {} // failure already recorded
            Err(_) => return Err("an overload thread panicked".to_string()),
        }
    }
    let failures = failures.lock().unwrap();
    if let Some(first) = failures.first() {
        return Err(format!(
            "{} transport/protocol failure(s) under overload, first: {first}",
            failures.len()
        ));
    }
    if stats.ok == 0 || stats.shed == 0 {
        return Err(format!(
            "overload burst did not both admit and shed (ok {}, shed {})",
            stats.ok, stats.shed
        ));
    }
    let shed_metric = counter(&server.metrics_text(), "serve/request_shed");
    if shed_metric != stats.shed {
        return Err(format!(
            "serve/request_shed = {shed_metric} but clients saw {} 429s",
            stats.shed
        ));
    }
    drain(server, &addr, "overload daemon")?;
    if stats.min_hint_ms == 0 {
        return Err("a shed hint of 0 ms is not actionable".to_string());
    }
    Ok(stats)
}

fn run(opts: &LoadOpts) -> Result<(), String> {
    use tcor_runner::Json;

    let tiers: Vec<Tier> = if opts.smoke {
        vec![
            Tier {
                conns: 1,
                per_conn: 300,
                conn_rps: 1000.0,
            },
            Tier {
                conns: 32,
                per_conn: 10,
                conn_rps: 5.0,
            },
        ]
    } else {
        vec![
            Tier {
                conns: 1,
                per_conn: 2000,
                conn_rps: 1000.0,
            },
            Tier {
                conns: 64,
                per_conn: 50,
                conn_rps: 8.0,
            },
            Tier {
                conns: 512,
                per_conn: 8,
                conn_rps: 2.0,
            },
            Tier {
                conns: 2048,
                per_conn: 4,
                conn_rps: 1.0,
            },
        ]
    };

    // Offline reference: an independent backend recomputes every body
    // the daemon will serve, so "byte-identical vs the CLI" is checked
    // on every single load-phase response.
    eprintln!("bench-load: computing offline reference bodies...");
    let offline = SimBackend::new();
    let mut targets: Vec<(String, String)> = Vec::new();
    for (path, call) in warm_targets() {
        let body = Backend::call(&offline, &call)
            .map_err(|e| format!("offline {path}: {e}"))?
            .body;
        targets.push((path, body));
    }
    let targets = Arc::new(targets);

    let cfg = ServeConfig {
        port: 0,
        workers: 2,
        event_threads: 2,
        queue_depth: 64,
        cache_cap: 256,
        deadline: Duration::from_secs(600),
        ..ServeConfig::default()
    };
    let server = tcor_serve::start(cfg, Arc::new(SimBackend::new()), None)
        .map_err(|e| format!("daemon: {e}"))?;
    let addr = server.addr().to_string();

    // Prime: cold-compute every target once, then verify the second
    // round is a memory-tier hit with the offline bytes.
    eprintln!("bench-load: priming {} targets...", targets.len());
    let mut primer = HttpClient::new(addr.clone(), Duration::from_secs(600));
    for round in 0..2 {
        for (path, want) in targets.iter() {
            let reply = primer
                .request("GET", path, None)
                .map_err(|e| format!("prime {path}: {e}"))?;
            if reply.status != 200 {
                return Err(format!("prime {path} -> {}", reply.status));
            }
            if reply.body != *want {
                return Err(format!("{path} differs from the offline CLI bytes"));
            }
            if round == 1 && reply.header("x-tcor-cache") != Some("mem") {
                return Err(format!(
                    "warm {path} served from `{}`, not mem",
                    reply.header("x-tcor-cache").unwrap_or("<absent>")
                ));
            }
        }
    }

    let mut tier_rows = Vec::new();
    let mut total_requests = 0u64;
    for tier in &tiers {
        eprintln!(
            "bench-load: tier {} conn(s) x {} request(s) at {:.1} rps/conn...",
            tier.conns, tier.per_conn, tier.conn_rps
        );
        let (hist, wall_s) = run_tier(&addr, tier, opts.seed, &targets)?;
        let (p50, p90, p99) = (
            hist.quantile_us(0.50),
            hist.quantile_us(0.90),
            hist.quantile_us(0.99),
        );
        eprintln!(
            "bench-load:   p50 {p50} us, p90 {p90} us, p99 {p99} us, max {} us \
             ({} requests in {wall_s:.2}s)",
            hist.max_us(),
            hist.count()
        );
        total_requests += hist.count();
        tier_rows.push(Json::obj([
            ("connections", Json::UInt(tier.conns as u64)),
            ("requests", Json::UInt(hist.count())),
            (
                "offered_rps",
                Json::Float(tier.conns as f64 * tier.conn_rps),
            ),
            ("achieved_rps", Json::Float(hist.count() as f64 / wall_s)),
            ("p50_us", Json::UInt(p50)),
            ("p90_us", Json::UInt(p90)),
            ("p99_us", Json::UInt(p99)),
            ("max_us", Json::UInt(hist.max_us())),
            ("mean_us", Json::Float(hist.mean_us())),
        ]));
    }

    let metrics = server.metrics_text();
    let conns_accepted = counter(&metrics, "serve/conns_accepted");
    let keepalive_reuses = counter(&metrics, "serve/keepalive_reuses");
    let eventloop_wakeups = counter(&metrics, "serve/eventloop_wakeups");
    if keepalive_reuses < total_requests / 2 {
        return Err(format!(
            "only {keepalive_reuses} keep-alive reuses across {total_requests} requests — \
             connections are not being multiplexed"
        ));
    }
    drain(server, &addr, "latency daemon")?;

    eprintln!("bench-load: overload burst...");
    let over = overload_phase(if opts.smoke { 16 } else { 32 })?;
    eprintln!(
        "bench-load:   {} admitted, {} shed with Retry-After hints {}..{} ms",
        over.ok, over.shed, over.min_hint_ms, over.max_hint_ms
    );

    let load = Json::obj([
        ("seed", Json::UInt(opts.seed)),
        ("smoke", Json::Bool(opts.smoke)),
        ("byte_identical_vs_cli", Json::Bool(true)),
        ("tiers", Json::Arr(tier_rows)),
        ("conns_accepted", Json::UInt(conns_accepted)),
        ("keepalive_reuses", Json::UInt(keepalive_reuses)),
        ("eventloop_wakeups", Json::UInt(eventloop_wakeups)),
        (
            "overload",
            Json::obj([
                ("connections", Json::UInt(over.conns as u64)),
                ("admitted", Json::UInt(over.ok)),
                ("shed", Json::UInt(over.shed)),
                ("min_retry_after_ms", Json::UInt(over.min_hint_ms)),
                ("max_retry_after_ms", Json::UInt(over.max_hint_ms)),
                ("server_5xx", Json::UInt(0)),
                ("transport_errors", Json::UInt(0)),
                ("clean_drain", Json::Bool(true)),
            ]),
        ),
    ]);

    // Merge under "load", preserving bench-serve's sections when the
    // file already exists (and starting fresh when it doesn't parse).
    let mut doc = match std::fs::read_to_string(&opts.path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
    {
        Some(Json::Obj(pairs)) => pairs,
        _ => vec![("bench".to_string(), Json::str("serve"))],
    };
    match doc.iter_mut().find(|(k, _)| k == "load") {
        Some(slot) => slot.1 = load,
        None => doc.push(("load".to_string(), load)),
    }
    std::fs::write(&opts.path, Json::Obj(doc).render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", opts.path))?;
    eprintln!(
        "bench-load: PASS — {total_requests} warm request(s) byte-identical to the CLI, \
         graceful shedding under overload -> {}",
        opts.path
    );
    Ok(())
}
