//! `tcor-sim chaos`: the kill/restart torture harness for the serve +
//! cache planes.
//!
//! Spawns the real daemon as a child process (same binary, `serve`
//! subcommand) — optionally under a seeded fault schedule — and drives
//! it with the retrying client while inflicting the failures the
//! robustness layer claims to survive:
//!
//! * **Seeded faults** (`--fault-spec`, forwarded to the daemon): disk
//!   I/O errors, short reads, torn writes, dropped connections,
//!   corrupted responses, stalled reads. The same seed replays the
//!   same schedule.
//! * **Kill/restart cycles** (`--kill-every N`): SIGKILL the daemon
//!   after every N answered requests and restart it over the same
//!   cache directory, proving crash-recovery plus disk-tier warm
//!   starts under fire.
//!
//! Throughout, every answered body must be byte-identical to the first
//! answer for its target — a chaos layer that changes results is worse
//! than no chaos layer. With `--expect-breaker` the run additionally
//! asserts the disk circuit breaker opened under the fault schedule
//! and, once the schedule's fault budget is exhausted, closed again
//! (open → half-open probe → closed). The final daemon must drain to
//! exit 0 on `POST /admin/shutdown`.
//!
//! `--bench-out FILE` records the run (requests, retries, kills,
//! breaker activity) as machine-readable JSON for CI.

use crate::loadgen::counter;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use tcor_runner::Json;
use tcor_serve::{http_request_retrying, request_retrying, HttpClient, HttpReply, RetryPolicy};

/// Parsed `tcor-sim chaos` flags.
struct ChaosOpts {
    seed: u64,
    fault_spec: Option<String>,
    kill_every: u64,
    rounds: u64,
    experiments: Vec<String>,
    expect_breaker: bool,
    retries: u32,
    backoff_ms: u64,
    cache_cap: usize,
    breaker_threshold: u32,
    breaker_cooldown_ms: u64,
    bench_out: Option<PathBuf>,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            seed: 42,
            fault_spec: None,
            kill_every: 0,
            rounds: 4,
            experiments: vec!["fig10".to_string(), "table1".to_string()],
            expect_breaker: false,
            retries: 4,
            backoff_ms: 50,
            cache_cap: 256,
            breaker_threshold: 3,
            breaker_cooldown_ms: 250,
            bench_out: None,
        }
    }
}

/// The daemon under torture, plus the keep-alive client pinned to this
/// generation. A SIGKILL/restart cycle yields a fresh address, so the
/// client lives and dies with its daemon; within a generation every
/// request rides the same reused connection (stale-connection replay
/// in [`HttpClient`] covers the race where a kill lands mid-reuse).
struct Daemon {
    child: Child,
    addr: String,
    client: HttpClient,
}

/// How long to wait for a (re)started daemon to publish its port.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);
/// Per-request client timeout (first computes run real simulations).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(120);
/// How long `--expect-breaker` waits for open → probe → closed.
const RECOVERY_TIMEOUT: Duration = Duration::from_secs(20);

fn spawn_daemon(opts: &ChaosOpts, cache_dir: &Path, port_file: &Path) -> Result<Daemon, String> {
    let _ = std::fs::remove_file(port_file);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .args(["--port", "0"])
        .arg("--port-file")
        .arg(port_file)
        .arg("--cache-dir")
        .arg(cache_dir)
        .args(["--workers", "2"])
        .args(["--queue-depth", "32"])
        .args(["--cache-cap", &opts.cache_cap.to_string()])
        .args(["--breaker-threshold", &opts.breaker_threshold.to_string()])
        .args([
            "--breaker-cooldown-ms",
            &opts.breaker_cooldown_ms.to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(spec) = &opts.fault_spec {
        cmd.args(["--fault-seed", &opts.seed.to_string()]);
        cmd.args(["--fault-spec", spec]);
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn daemon: {e}"))?;
    let deadline = Instant::now() + SPAWN_TIMEOUT;
    loop {
        if let Ok(addr) = std::fs::read_to_string(port_file) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                let client = HttpClient::new(addr.clone(), REQUEST_TIMEOUT);
                return Ok(Daemon {
                    child,
                    addr,
                    client,
                });
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("daemon exited during startup: {status}"));
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon did not publish its port in time".to_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

impl Daemon {
    /// One retried GET over this generation's keep-alive connection;
    /// returns the reply plus the retries it took.
    fn get(&mut self, path: &str, policy: &RetryPolicy) -> Result<(HttpReply, u32), String> {
        request_retrying(&mut self.client, "GET", path, None, policy)
            .map_err(|e| format!("GET {path}: {e}"))
    }
}

fn parse_opts(args: &[String]) -> Result<ChaosOpts, String> {
    let mut opts = ChaosOpts::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--expect-breaker" {
            opts.expect_breaker = true;
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("{flag} needs a value"));
        };
        let bad = |what: &str| format!("{flag} needs {what}, got `{value}`");
        match flag {
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer seed"))?,
            "--fault-spec" => opts.fault_spec = Some(value.clone()),
            "--kill-every" => {
                opts.kill_every = value.parse().map_err(|_| bad("a request count"))?;
            }
            "--rounds" => match value.parse() {
                Ok(n) if n >= 1 => opts.rounds = n,
                _ => return Err(bad("a positive round count")),
            },
            "--experiments" => {
                opts.experiments = value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if opts.experiments.is_empty() {
                    return Err(bad("a comma-separated experiment list"));
                }
            }
            "--retries" => opts.retries = value.parse().map_err(|_| bad("a retry count"))?,
            "--backoff-ms" => match value.parse() {
                Ok(ms) if ms >= 1 => opts.backoff_ms = ms,
                _ => return Err(bad("milliseconds >= 1")),
            },
            "--cache-cap" => match value.parse() {
                Ok(n) if n >= 1 => opts.cache_cap = n,
                _ => return Err(bad("a positive entry count")),
            },
            "--breaker-threshold" => match value.parse() {
                Ok(n) if n >= 1 => opts.breaker_threshold = n,
                _ => return Err(bad("a positive error count")),
            },
            "--breaker-cooldown-ms" => match value.parse() {
                Ok(ms) if ms >= 1 => opts.breaker_cooldown_ms = ms,
                _ => return Err(bad("milliseconds >= 1")),
            },
            "--bench-out" => opts.bench_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown chaos flag `{other}`")),
        }
        i += 2;
    }
    Ok(opts)
}

/// `tcor-sim chaos` entry point.
pub fn chaos_cmd(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("chaos: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("chaos: FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &ChaosOpts) -> Result<(), String> {
    let scratch = std::env::temp_dir().join(format!("tcor-chaos-{}", std::process::id()));
    let cache_dir = scratch.join("cache");
    let port_file = scratch.join("port");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&cache_dir).map_err(|e| format!("cannot create scratch: {e}"))?;
    let result = torture(opts, &cache_dir, &port_file);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn torture(opts: &ChaosOpts, cache_dir: &Path, port_file: &Path) -> Result<(), String> {
    let policy = RetryPolicy::new(
        opts.retries,
        Duration::from_millis(opts.backoff_ms),
        opts.seed,
    );
    let targets: Vec<String> = opts
        .experiments
        .iter()
        .map(|e| format!("/v1/table/{e}"))
        .collect();
    eprintln!(
        "chaos: seed {}, {} round(s) x {} target(s), fault spec {}, kill every {}",
        opts.seed,
        opts.rounds,
        targets.len(),
        opts.fault_spec.as_deref().unwrap_or("<none>"),
        if opts.kill_every == 0 {
            "never".to_string()
        } else {
            format!("{} request(s)", opts.kill_every)
        },
    );

    let mut daemon = spawn_daemon(opts, cache_dir, port_file)?;
    let mut reference: HashMap<String, String> = HashMap::new();
    let (mut requests, mut retries_total, mut kills) = (0u64, 0u64, 0u64);

    for round in 0..opts.rounds {
        for target in &targets {
            let (reply, retries) = daemon.get(target, &policy)?;
            requests += 1;
            retries_total += u64::from(retries);
            if reply.status != 200 {
                return Err(format!(
                    "round {round}: GET {target} -> {} after {retries} retr(ies): {}",
                    reply.status,
                    reply.body.trim()
                ));
            }
            match reference.get(target) {
                None => {
                    reference.insert(target.clone(), reply.body);
                }
                Some(first) if *first == reply.body => {}
                Some(_) => {
                    return Err(format!(
                        "round {round}: GET {target} answered bytes that differ from round 0 \
                         — chaos must never change results"
                    ));
                }
            }
            if opts.kill_every > 0 && requests % opts.kill_every == 0 {
                let _ = daemon.child.kill();
                let _ = daemon.child.wait();
                kills += 1;
                daemon = spawn_daemon(opts, cache_dir, port_file)?;
            }
        }
        eprintln!(
            "chaos: round {} ok ({requests} request(s), {retries_total} retr(ies), \
             {kills} kill(s))",
            round + 1
        );
    }

    // The breaker phase: under a disk-fault schedule the breaker must
    // have opened; once the schedule's per-point budgets (`#limit`)
    // are exhausted, cooldown + a half-open probe must close it again.
    // Driven with real requests so the probe has traffic to ride.
    let mut final_metrics = daemon.get("/metrics", &policy)?.0.body;
    if opts.expect_breaker {
        let deadline = Instant::now() + RECOVERY_TIMEOUT;
        loop {
            let target = targets[requests as usize % targets.len()].clone();
            let (reply, retries) = daemon.get(&target, &policy)?;
            requests += 1;
            retries_total += u64::from(retries);
            if reply.status != 200 {
                return Err(format!("recovery drive -> {}", reply.status));
            }
            final_metrics = daemon.get("/metrics", &policy)?.0.body;
            let opens = counter(&final_metrics, "pcache/breaker_opens");
            let state = counter(&final_metrics, "pcache/breaker_state");
            if opens >= 1 && state == 0 {
                eprintln!(
                    "chaos: breaker opened {opens} time(s) and recovered \
                     ({} disk error(s), {} probe(s))",
                    counter(&final_metrics, "pcache/io_errors"),
                    counter(&final_metrics, "pcache/breaker_probes"),
                );
                break;
            }
            if Instant::now() > deadline {
                return Err(format!(
                    "breaker never completed open -> closed within {RECOVERY_TIMEOUT:?} \
                     (opens {opens}, state {state})\n{final_metrics}"
                ));
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        if counter(&final_metrics, "pcache/io_errors") == 0 {
            return Err("--expect-breaker but the disk tier saw no I/O errors".to_string());
        }
    }

    // Graceful drain: the tortured daemon must still exit 0.
    let (bye, _) = http_request_retrying(
        &daemon.addr,
        "POST",
        "/admin/shutdown",
        None,
        Duration::from_secs(10),
        &policy,
    )
    .map_err(|e| format!("shutdown request: {e}"))?;
    if bye.status != 200 {
        return Err(format!("shutdown -> {}", bye.status));
    }
    let status = daemon
        .child
        .wait()
        .map_err(|e| format!("waiting for daemon: {e}"))?;
    if !status.success() {
        return Err(format!("daemon exited {status}, expected success"));
    }

    if let Some(path) = &opts.bench_out {
        let doc = Json::obj([
            ("bench", Json::str("chaos")),
            ("seed", Json::UInt(opts.seed)),
            (
                "fault_spec",
                Json::str(opts.fault_spec.clone().unwrap_or_default()),
            ),
            ("rounds", Json::UInt(opts.rounds)),
            (
                "targets",
                Json::Arr(targets.iter().map(|t| Json::str(t.clone())).collect()),
            ),
            ("requests", Json::UInt(requests)),
            ("retries", Json::UInt(retries_total)),
            ("kills", Json::UInt(kills)),
            (
                "breaker_opens",
                Json::UInt(counter(&final_metrics, "pcache/breaker_opens")),
            ),
            (
                "disk_io_errors",
                Json::UInt(counter(&final_metrics, "pcache/io_errors")),
            ),
            ("byte_identical", Json::Bool(true)),
            ("clean_exit", Json::Bool(true)),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    eprintln!(
        "chaos: PASS — {requests} request(s), {retries_total} retr(ies), {kills} kill(s), \
         every body byte-identical, clean exit"
    );
    Ok(())
}
