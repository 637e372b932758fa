//! The `tcor-sim` binary: regenerate any table or figure of the paper.
//!
//! ```text
//! tcor-sim <experiment>...       run specific experiments (fig1, table2, …)
//! tcor-sim all                   run everything in paper order
//! tcor-sim --list                list experiment ids
//! tcor-sim all --csv DIR         also write one CSV per table into DIR
//! tcor-sim all --jobs N          run on N worker threads (default: all cores)
//! tcor-sim all --serial          reference single-thread path
//! tcor-sim all --check           compare against results/golden, exit 4 on drift
//! tcor-sim all --update-golden   (re)record the golden results
//! tcor-sim all --job-timeout MS  flag jobs running longer than MS milliseconds
//! tcor-sim all --inject-faults S deterministically inject faults from seed S
//! tcor-sim all --resume          re-run only experiments the run manifest
//!                                records as failed, skipped or unattempted
//! tcor-sim all --audit           check metric-conservation invariants over
//!                                every frame `all` replays; violations exit 5
//! tcor-sim --trace-out FILE      export a Chrome trace of one traced frame
//! tcor-sim trace <alias> FILE    export a benchmark's PB trace as CSV
//! tcor-sim bench-runner          time serial vs parallel, write BENCH_runner.json
//! tcor-sim bench-misscurves      time replay vs single-pass miss-curve engines,
//!                                write BENCH_misscurves.json
//! tcor-sim serve                 stand up the result-serving daemon on loopback
//! tcor-sim cell <alias> <cfg>    print one cell report as JSON (the serve
//!                                byte-parity reference)
//! tcor-sim curve <alias> <policy> print one serving miss curve as JSON
//!                                (the /v1/misscurve byte-parity reference)
//! tcor-sim serve-req ADDR M P    one-shot HTTP client (CI probe; exit 6 on
//!                                a non-2xx answer)
//! tcor-sim bench-serve           drive a loopback daemon cold/warm/burst,
//!                                write BENCH_serve.json
//! tcor-sim bench-load            open-loop concurrent load generator: warm
//!                                latency tiers (1..2048 keep-alive conns)
//!                                plus shedding under overload, merged into
//!                                BENCH_serve.json
//! tcor-sim chaos                 torture a child daemon under seeded fault
//!                                injection and kill/restart cycles
//! ```
//!
//! `--audit` re-derives every headline counter from two independent
//! counting sites (see `tcor-obs`) after the requested experiments ran;
//! any imbalance is corruption (exit 5). `--inject-audit-fault` tampers
//! one counter copy first — the CI negative test that proves the audit
//! can fail. `--trace-out` runs one additional traced frame (first
//! benchmark, full TCOR, 64 KiB) and writes its Tiling Engine timeline
//! as Chrome trace-event JSON for `chrome://tracing` / Perfetto; it can
//! run standalone, with no experiments requested.
//!
//! Every run streams a JSON-lines telemetry log (per-job wall time,
//! simulated counters, failures) to `results/telemetry.jsonl` — flushed
//! per event, so a crashed run leaves a readable prefix — and records a
//! run manifest (`results/run-manifest.txt`) that `--resume` consults.
//!
//! Exit codes: `0` success, `1` I/O error, `2` configuration error,
//! `3` experiment/cell failure, `4` golden drift, `5` corruption
//! (tampered golden or manifest).

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use tcor_common::{fxhash64, hash_hex, FaultInjector, TcorError};
use tcor_runner::{
    default_workers, GoldenStatus, GoldenStore, Json, RunManifest, RunStatus, Telemetry,
};
use tcor_sim::orchestrate::ExecMode;
use tcor_sim::{
    run_experiments, run_experiments_strict, ExperimentOutcome, RunOptions, EXPERIMENTS,
};

/// Exit code for golden drift (`--check` found mismatching tables).
const EXIT_DRIFT: u8 = 4;
/// Exit code for corruption (tampered golden or malformed manifest).
const EXIT_CORRUPTION: u8 = 5;
/// Exit code for a failed or skipped experiment.
const EXIT_CELL_FAILURE: u8 = 3;

fn usage() {
    eprintln!(
        "usage: tcor-sim <experiment>... | all \
         [--csv DIR] [--jobs N] [--serial] [--check] [--update-golden] [--golden DIR] \
         [--telemetry FILE] [--job-timeout MS] [--inject-faults SEED] [--resume] \
         [--manifest FILE] [--audit] [--inject-audit-fault] [--trace-out FILE] [--list]"
    );
    eprintln!("       tcor-sim --trace-out <file>     export a Chrome trace of one traced frame");
    eprintln!("       tcor-sim trace <alias> <file>   export a PB trace as CSV");
    eprintln!("       tcor-sim bench-runner [FILE]    serial-vs-parallel timing -> FILE");
    eprintln!(
        "       tcor-sim bench-misscurves [FILE] [--gate] replay-vs-single-pass timing -> FILE \
         (--gate: fail if any speedup < 1.0 or output drifts)"
    );
    eprintln!(
        "       tcor-sim serve [--port N] [--workers K] [--event-threads E] [--queue-depth D] \
         [--cache-cap C] \
         [--deadline-ms MS] [--cache-dir DIR] [--cache-disk-bytes B] \
         [--telemetry FILE] [--serve-trace FILE] [--port-file FILE] \
         [--breaker-threshold N] [--breaker-cooldown-ms MS] \
         [--fault-seed S] [--fault-spec SPEC] \
         [--stream-sessions N] [--stream-session-bytes B] [--stream-session-blocks K] \
         [--stream-ttl-secs S]"
    );
    eprintln!(
        "       tcor-sim stream <addr> (--workload ALIAS | --trace-csv FILE | --probe-oversize) \
         [--label L] [--policy opt|lru] [--chunk-accesses N]  chunked trace upload -> final curve"
    );
    eprintln!(
        "       tcor-sim bench-stream [FILE] [--smoke] [--seed S]  streaming ingest + live \
         snapshot timings -> FILE"
    );
    eprintln!("       tcor-sim cell <alias> <config>   print one cell report as JSON");
    eprintln!("       tcor-sim curve <alias> <policy>  print one serving miss curve as JSON");
    eprintln!(
        "       tcor-sim serve-req <addr> <method> <path> [body] [--expect-cache TIER] \
         [--retries N] [--backoff-ms MS]  one-shot HTTP client"
    );
    eprintln!(
        "       tcor-sim bench-serve [FILE]     cold/warm-mem/warm-disk serving timings -> FILE"
    );
    eprintln!(
        "       tcor-sim bench-load [FILE] [--smoke] [--seed S]  open-loop concurrent load \
         generator: warm latency tiers + shedding under overload, merged into FILE"
    );
    eprintln!(
        "       tcor-sim chaos [--seed S] [--fault-spec SPEC] [--kill-every N] [--rounds R] \
         [--experiments a,b] [--expect-breaker] [--retries N] [--backoff-ms MS] \
         [--cache-cap C] [--breaker-threshold N] [--breaker-cooldown-ms MS] \
         [--bench-out FILE]  torture the daemon under seeded faults/kills"
    );
    eprintln!("experiments: {}", EXPERIMENTS.join(", "));
}

fn exit_for(e: &TcorError) -> ExitCode {
    ExitCode::from(e.kind().exit_code())
}

/// `tcor-sim trace <alias> <file>`: export the primitive-granularity
/// Parameter Buffer trace of one Table II benchmark for external tools.
fn export_trace(alias: &str, path: &str) -> ExitCode {
    use tcor_common::{TileGrid, Traversal};
    let Some(profile) = tcor_workloads::suite()
        .into_iter()
        .find(|b| b.alias == alias)
    else {
        eprintln!("unknown benchmark `{alias}`");
        return ExitCode::from(2);
    };
    let grid = TileGrid::new(1960, 768, 32);
    let order = Traversal::ZOrder.order(&grid);
    let scene = tcor_workloads::generate_scene(&profile, &grid);
    let frame = tcor_gpu::bin_scene(&scene, &grid, &order);
    let trace = tcor_workloads::primitive_trace(&frame.binned, &order);
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = tcor_cache::trace::write_csv(&trace, std::io::BufWriter::new(file)) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {} accesses to {path}", trace.len());
    ExitCode::SUCCESS
}

/// `--audit`: re-check every conservation invariant over the 144 frames
/// `all` replays ([`tcor_sim::plans::regeneration_frames`]), replayed on
/// the shared plans under a plan-work count of its own. With
/// `inject_fault`, the first frame's counter *copy* is tampered too, so
/// CI can prove the audit actually fails on imbalance; the simulator's
/// own state is never touched. Returns the violation count.
fn run_audit(
    store: &tcor_runner::ArtifactStore,
    inject_fault: bool,
) -> tcor_common::TcorResult<usize> {
    use tcor_sim::plans::{regeneration_frames, replay_shared};
    let grid = tcor_sim::orchestrate::paper_grid();
    let work = tcor_sim::PlanWork::default();
    let frames = regeneration_frames();
    let mut violations = Vec::new();
    for (i, f) in frames.iter().enumerate() {
        let report = replay_shared(store, &f.profile, &grid, f.cfg.clone(), &work)?;
        let name = format!("{}/{}", f.profile.alias, f.label);
        violations.extend(tcor_obs::audit_report(&name, &report));
        if inject_fault && i == 0 {
            // A simulated bookkeeping bug: one hit recorded without a probe.
            let mut tampered = report;
            tampered.l2_stats.read_hits += 1;
            violations.extend(tcor_obs::audit_report(
                &format!("{name} (injected fault)"),
                &tampered,
            ));
        }
    }
    for v in &violations {
        eprintln!("audit: VIOLATION {v}");
    }
    eprintln!(
        "audit: {} frames checked, {} violation(s)",
        frames.len(),
        violations.len()
    );
    Ok(violations.len())
}

/// `--trace-out FILE`: run one traced frame (first Table II benchmark,
/// full TCOR at the 64 KiB budget) and write its Tiling Engine timeline
/// as Chrome trace-event JSON.
fn export_chrome_trace(
    store: &tcor_runner::ArtifactStore,
    path: &std::path::Path,
) -> tcor_common::TcorResult<()> {
    use tcor::{System, SystemConfig};
    let grid = tcor_sim::orchestrate::paper_grid();
    let profile = tcor_workloads::suite()[0];
    let cal = tcor_sim::orchestrate::calibrated_scene(store, &profile, &grid)?;
    let cfg = SystemConfig::paper_tcor_64k().with_raster(profile.raster_params());
    let (report, trace) = System::new(cfg).run_frame_traced(&cal.scene);
    tcor_common::write_atomic(path, tcor_obs::chrome_trace_json(&trace).as_bytes())?;
    eprintln!(
        "trace: wrote {} events ({}/tcor64, {} cycles) to {}",
        trace.events().len(),
        profile.alias,
        report.plb_cycles + report.fetch_cycles,
        path.display()
    );
    Ok(())
}

/// Rendered output, per-experiment wall times, total wall time.
type TimedRun = (String, Vec<(String, f64)>, f64);

/// Runs the whole experiment set once and returns the rendered output
/// plus per-experiment wall times, for [`bench_runner`].
fn timed_full_run(mode: ExecMode) -> tcor_common::TcorResult<TimedRun> {
    let ids: Vec<String> = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    let store = tcor_runner::ArtifactStore::new();
    let telemetry = Telemetry::new();
    let results = run_experiments_strict(&ids, mode, &store, &telemetry)?;
    let wall_ms = telemetry.elapsed_ms();
    let mut rendered = String::new();
    for (_, tables) in &results {
        for t in tables {
            rendered.push_str(&t.render());
        }
    }
    let per_exp: Vec<(String, f64)> = telemetry
        .records()
        .into_iter()
        .filter(|r| r.label.starts_with("exp:"))
        .map(|r| (r.label["exp:".len()..].to_string(), r.wall_ms))
        .collect();
    Ok((rendered, per_exp, wall_ms))
}

/// `tcor-sim bench-runner [FILE]`: run the full experiment set serially
/// and in parallel, assert bit-identical output, and record the timings
/// as machine-readable JSON.
fn bench_runner(path: &str) -> ExitCode {
    let cores = default_workers();
    eprintln!("bench-runner: serial pass...");
    let (serial_out, serial_exps, serial_ms) = match timed_full_run(ExecMode::Serial) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-runner: serial pass failed: {e}");
            return exit_for(&e);
        }
    };
    eprintln!("bench-runner: parallel pass ({cores} workers)...");
    let (parallel_out, parallel_exps, parallel_ms) = match timed_full_run(ExecMode::Parallel(cores))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench-runner: parallel pass failed: {e}");
            return exit_for(&e);
        }
    };
    if serial_out != parallel_out {
        eprintln!("bench-runner: FATAL: parallel output differs from serial output");
        return ExitCode::FAILURE;
    }
    let exps = |pairs: &[(String, f64)]| {
        Json::Obj(
            pairs
                .iter()
                .map(|(id, ms)| (id.clone(), Json::Float(*ms)))
                .collect(),
        )
    };
    let doc = Json::obj([
        ("bench", Json::str("runner")),
        ("cores", Json::UInt(cores as u64)),
        ("serial_ms", Json::Float(serial_ms)),
        ("parallel_ms", Json::Float(parallel_ms)),
        ("speedup", Json::Float(serial_ms / parallel_ms)),
        ("outputs_identical", Json::Bool(true)),
        ("serial_experiment_ms", exps(&serial_exps)),
        ("parallel_experiment_ms", exps(&parallel_exps)),
    ]);
    if let Err(e) = std::fs::write(path, doc.render() + "\n") {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench-runner: serial {serial_ms:.0}ms, parallel {parallel_ms:.0}ms on {cores} cores \
         ({:.2}x), identical output -> {path}",
        serial_ms / parallel_ms
    );
    ExitCode::SUCCESS
}

/// `tcor-sim bench-misscurves [FILE] [--gate]`: run every miss-curve
/// experiment under the legacy per-capacity replay engine and the
/// single-pass engine against one shared store, assert the rendered
/// tables are bit-identical, and record both wall times (plus suite
/// trace-pass counts, the host's cores and the single-pass worker
/// count) as machine-readable JSON. With `--gate`, exit with failure if
/// any experiment's single-pass speedup drops below 1.0× — the engine
/// must never be a regression.
fn bench_misscurves(path: &str, gate: bool) -> ExitCode {
    use std::time::Instant;
    use tcor_sim::misscurves::{self, CurveEngine};

    let store = tcor_runner::ArtifactStore::new();
    // The bench runs the engine the way a parallel `all` run would: its
    // per-geometry replays scattered across the machine's cores.
    let cores = default_workers();
    if let Err(e) = misscurves::set_engine_workers(&store, cores) {
        eprintln!("bench-misscurves: store setup failed: {e}");
        return exit_for(&e);
    }
    // Trace construction (and annotation) is shared by both engines;
    // build it up front so neither side pays for it.
    if let Err(e) = misscurves::suite_traces(&store) {
        eprintln!("bench-misscurves: trace build failed: {e}");
        return exit_for(&e);
    }
    type Rendered = tcor_common::TcorResult<(String, u64)>;
    type EngineFn<'a> = Box<dyn Fn(CurveEngine) -> Rendered + 'a>;
    let experiments: Vec<(&str, EngineFn)> = vec![
        (
            "fig1",
            Box::new(|e| misscurves::fig1_engine(&store, e).map(|(t, p)| (t.render(), p))),
        ),
        (
            "fig11",
            Box::new(|e| misscurves::fig11_engine(&store, e).map(|(t, p)| (t.render(), p))),
        ),
        (
            "fig12",
            Box::new(|e| {
                misscurves::fig12_engine(&store, e)
                    .map(|(ts, p)| (ts.iter().map(tcor_sim::Table::render).collect(), p))
            }),
        ),
        (
            "fig13",
            Box::new(|e| misscurves::fig13_engine(&store, e).map(|(t, p)| (t.render(), p))),
        ),
        (
            "fig13x",
            Box::new(|e| misscurves::fig13x_engine(&store, e).map(|(t, p)| (t.render(), p))),
        ),
    ];
    let mut per_exp = Vec::new();
    let (mut replay_total, mut engine_total) = (0.0f64, 0.0f64);
    let mut all_identical = true;
    let mut gate_failures: Vec<String> = Vec::new();
    // Interleaved best-of-N timing: each rep times replay then
    // single-pass back to back, and each engine keeps its minimum, so
    // background load drifting across the run hits both engines alike
    // instead of flipping the regression gate on a few-percent margin.
    const REPS: usize = 3;
    for (id, run) in &experiments {
        let mut replay_ms = f64::INFINITY;
        let mut engine_ms = f64::INFINITY;
        let mut outs = None;
        for _ in 0..REPS {
            let t0 = Instant::now();
            let replay = match run(CurveEngine::Replay) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("bench-misscurves: {id} replay failed: {e}");
                    return exit_for(&e);
                }
            };
            replay_ms = replay_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            let engine = match run(CurveEngine::SinglePass) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("bench-misscurves: {id} single-pass failed: {e}");
                    return exit_for(&e);
                }
            };
            engine_ms = engine_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            outs = Some((replay, engine));
        }
        let ((replay_out, replay_passes), (engine_out, engine_passes)) = outs.expect("REPS > 0");
        let identical = replay_out == engine_out;
        all_identical &= identical;
        if !identical {
            eprintln!("bench-misscurves: FATAL: {id} single-pass output differs from replay");
            gate_failures.push(format!("{id}: output drift"));
        }
        let speedup = replay_ms / engine_ms;
        if speedup < 1.0 {
            gate_failures.push(format!("{id}: {speedup:.2}x < 1.00x"));
        }
        replay_total += replay_ms;
        engine_total += engine_ms;
        eprintln!(
            "bench-misscurves: {id} replay {replay_ms:.1}ms ({replay_passes} passes), \
             single-pass {engine_ms:.1}ms ({engine_passes} passes), {:.2}x",
            replay_ms / engine_ms
        );
        per_exp.push((
            id.to_string(),
            Json::obj([
                ("replay_ms", Json::Float(replay_ms)),
                ("single_pass_ms", Json::Float(engine_ms)),
                ("speedup", Json::Float(replay_ms / engine_ms)),
                ("replay_passes", Json::UInt(replay_passes)),
                ("single_pass_passes", Json::UInt(engine_passes)),
                ("outputs_identical", Json::Bool(identical)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("bench", Json::str("misscurves")),
        ("cores", Json::UInt(cores as u64)),
        (
            "workers",
            Json::UInt(misscurves::engine_workers(&store) as u64),
        ),
        ("replay_ms", Json::Float(replay_total)),
        ("single_pass_ms", Json::Float(engine_total)),
        ("speedup", Json::Float(replay_total / engine_total)),
        ("outputs_identical", Json::Bool(all_identical)),
        ("experiments", Json::Obj(per_exp)),
    ]);
    if let Err(e) = std::fs::write(path, doc.render() + "\n") {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench-misscurves: replay {replay_total:.0}ms, single-pass {engine_total:.0}ms \
         ({:.2}x), {} -> {path}",
        replay_total / engine_total,
        if all_identical {
            "identical output"
        } else {
            "OUTPUT DRIFT"
        }
    );
    if gate && !gate_failures.is_empty() {
        eprintln!(
            "bench-misscurves: GATE FAILED: {}",
            gate_failures.join("; ")
        );
        return ExitCode::FAILURE;
    }
    if all_identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `tcor-sim serve`: stand up the result-serving daemon on loopback
/// and block until `POST /admin/shutdown` or SIGINT/SIGTERM drains it.
fn serve_cmd(args: &[String]) -> ExitCode {
    use std::sync::Arc;
    let mut cfg = tcor_serve::ServeConfig::default();
    let mut telemetry_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut port_file: Option<PathBuf> = None;
    let mut fault_seed: u64 = 0;
    let mut fault_spec: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            eprintln!("{flag} needs a value");
            usage();
            return ExitCode::from(2);
        };
        let bad = |what: &str| {
            eprintln!("{flag} needs {what}, got `{value}`");
            ExitCode::from(2)
        };
        match flag {
            "--port" => match value.parse::<u16>() {
                Ok(p) => cfg.port = p,
                Err(_) => return bad("a port number"),
            },
            "--workers" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => cfg.workers = n,
                _ => return bad("a positive integer"),
            },
            "--event-threads" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => cfg.event_threads = n,
                _ => return bad("a positive integer"),
            },
            "--queue-depth" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => cfg.queue_depth = n,
                _ => return bad("a positive integer"),
            },
            "--cache-cap" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => cfg.cache_cap = n,
                _ => return bad("a positive integer"),
            },
            "--deadline-ms" => match value.parse::<u64>() {
                Ok(ms) if ms >= 1 => cfg.deadline = Duration::from_millis(ms),
                _ => return bad("milliseconds >= 1"),
            },
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value)),
            "--cache-disk-bytes" => match value.parse::<u64>() {
                Ok(n) if n >= 1 => cfg.cache_disk_bytes = n,
                _ => return bad("a positive byte count"),
            },
            "--telemetry" => telemetry_path = Some(PathBuf::from(value)),
            "--serve-trace" => trace_path = Some(PathBuf::from(value)),
            "--port-file" => port_file = Some(PathBuf::from(value)),
            "--breaker-threshold" => match value.parse::<u32>() {
                Ok(n) if n >= 1 => cfg.breaker_threshold = n,
                _ => return bad("a positive error count"),
            },
            "--breaker-cooldown-ms" => match value.parse::<u64>() {
                Ok(ms) if ms >= 1 => cfg.breaker_cooldown = Duration::from_millis(ms),
                _ => return bad("milliseconds >= 1"),
            },
            "--fault-seed" => match value.parse::<u64>() {
                Ok(seed) => fault_seed = seed,
                Err(_) => return bad("an integer seed"),
            },
            "--fault-spec" => fault_spec = Some(value.clone()),
            "--stream-sessions" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => cfg.stream.max_sessions = n,
                _ => return bad("a positive integer"),
            },
            "--stream-session-bytes" => match value.parse::<u64>() {
                Ok(n) if n >= 1 => cfg.stream.session_bytes = n,
                _ => return bad("a positive byte count"),
            },
            "--stream-session-blocks" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => cfg.stream.session_blocks = n,
                _ => return bad("a positive integer"),
            },
            "--stream-ttl-secs" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => cfg.stream.ttl = Duration::from_secs(s),
                _ => return bad("seconds >= 1"),
            },
            other => {
                eprintln!("unknown serve flag `{other}`");
                usage();
                return ExitCode::from(2);
            }
        }
        i += 2;
    }
    // Arm the process-wide injector before any plane can touch disk or
    // sockets: the chaos harness forwards its schedule through these
    // flags, and the daemon runs it deterministically.
    if let Some(spec) = &fault_spec {
        match tcor_common::FaultInjector::parse(fault_seed, spec) {
            Ok(injector) => {
                eprintln!("tcor-serve: fault injector armed (seed {fault_seed}, `{spec}`)");
                tcor_common::fault::arm(injector);
            }
            Err(e) => {
                eprintln!("{e}");
                return exit_for(&e);
            }
        }
    }
    tcor_serve::signal::install();
    let telemetry = Arc::new(Telemetry::new());
    if let Some(path) = &telemetry_path {
        if let Err(e) = telemetry.stream_to(path) {
            eprintln!("telemetry streaming disabled: {e}");
        }
    }
    let (workers, depth, deadline) = (cfg.workers, cfg.queue_depth, cfg.deadline);
    let persistent = cfg.cache_dir.is_some();
    let backend = Arc::new(tcor_sim::SimBackend::new());
    let server = match tcor_serve::start(cfg, backend, Some(Arc::clone(&telemetry))) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return exit_for(&e);
        }
    };
    let addr = server.addr().to_string();
    // The bound address, machine-readable: stdout for humans and
    // scripts, `--port-file` for supervisors that started us with
    // `--port 0` and a detached stdout.
    println!("{addr}");
    let _ = std::io::Write::flush(&mut std::io::stdout());
    if let Some(path) = &port_file {
        if let Err(e) = tcor_common::write_atomic(path, addr.as_bytes()) {
            eprintln!("cannot write {}: {e}", path.display());
            server.stop();
            server.wait();
            return exit_for(&e);
        }
    }
    eprintln!(
        "tcor-serve: listening on {addr} ({workers} workers, queue depth {depth}, \
         deadline {}ms{})",
        deadline.as_millis(),
        if persistent { ", persistent cache" } else { "" }
    );
    let spans = server.wait();
    if let Some(path) = &trace_path {
        if let Err(e) =
            tcor_common::write_atomic(path, tcor_obs::serve_timeline_json(&spans).as_bytes())
        {
            eprintln!("cannot write {}: {e}", path.display());
            return exit_for(&e);
        }
        eprintln!(
            "tcor-serve: wrote {} request span(s) to {}",
            spans.len(),
            path.display()
        );
    }
    eprintln!("tcor-serve: drained after {} request(s), bye", spans.len());
    ExitCode::SUCCESS
}

/// `tcor-sim cell <alias> <config>`: print one cell report as JSON —
/// the same encoder the daemon uses, so serve-vs-CLI byte parity is a
/// `cmp`, not a claim.
fn cell_cmd(workload: &str, config: &str) -> ExitCode {
    let call = tcor_serve::ApiCall::Cell {
        workload: workload.to_string(),
        config: config.to_string(),
    };
    print_call(&tcor_sim::SimBackend::new(), &call)
}

/// `tcor-sim curve <alias> <policy>`: print the `/v1/misscurve/<alias>/<policy>`
/// body — the daemon's encoder and computation, so the served curve and
/// this one are byte-identical. `results/golden/curves.jsonl` pins all
/// 140 of them (README).
fn curve_cmd(workload: &str, policy: &str) -> ExitCode {
    let call = tcor_serve::ApiCall::MissCurve {
        workload: workload.to_string(),
        policy: policy.to_string(),
    };
    print_call(&tcor_sim::SimBackend::new(), &call)
}

/// Answers `call` through `backend` and prints the body, or reports the
/// error with its exit code.
fn print_call(backend: &tcor_sim::SimBackend, call: &tcor_serve::ApiCall) -> ExitCode {
    match tcor_serve::Backend::call(backend, call) {
        Ok(body) => {
            print!("{}", body.body);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            exit_for(&e)
        }
    }
}

/// `tcor-sim serve-req <addr> <method> <path> [body]`: a dependency-free
/// one-shot HTTP client for CI probes. Prints the response body; any
/// non-2xx answer (or transport failure) exits with the serve code 6.
/// `--expect-cache TIER` additionally asserts the `X-Tcor-Cache`
/// response header (`mem`, `disk`, or `miss`) so CI can prove *where*
/// an answer came from, not just that one arrived.
fn serve_req(args: &[String]) -> ExitCode {
    let mut expect_cache: Option<String> = None;
    let mut retries: u32 = 0;
    let mut backoff_ms: u64 = 100;
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--expect-cache" => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("--expect-cache needs a value (mem, disk, or miss)");
                    return ExitCode::from(2);
                };
                expect_cache = Some(value.clone());
                i += 2;
            }
            "--retries" => {
                let Some(Ok(n)) = args.get(i + 1).map(|v| v.parse::<u32>()) else {
                    eprintln!("--retries needs a retry count");
                    return ExitCode::from(2);
                };
                retries = n;
                i += 2;
            }
            "--backoff-ms" => {
                let Some(Ok(ms)) = args.get(i + 1).map(|v| v.parse::<u64>()) else {
                    eprintln!("--backoff-ms needs milliseconds");
                    return ExitCode::from(2);
                };
                backoff_ms = ms.max(1);
                i += 2;
            }
            _ => {
                positional.push(&args[i]);
                i += 1;
            }
        }
    }
    let (Some(addr), Some(method), Some(path)) =
        (positional.first(), positional.get(1), positional.get(2))
    else {
        usage();
        return ExitCode::from(2);
    };
    let body = positional.get(3).map(|s| s.as_str());
    let policy = tcor_serve::RetryPolicy::new(retries, Duration::from_millis(backoff_ms), 0);
    match tcor_serve::http_request_retrying(
        addr,
        method,
        path,
        body,
        Duration::from_secs(120),
        &policy,
    ) {
        Ok((reply, attempts)) => {
            if attempts > 0 {
                eprintln!("serve-req: {method} {path} took {attempts} retr(ies)");
            }
            print!("{}", reply.body);
            if !(200..300).contains(&reply.status) {
                eprintln!("serve-req: {method} {path} -> {}", reply.status);
                return ExitCode::from(tcor_common::ErrorKind::Serve.exit_code());
            }
            if let Some(want) = expect_cache {
                let got = reply.header("x-tcor-cache").unwrap_or("<absent>");
                if got != want {
                    eprintln!("serve-req: {method} {path} X-Tcor-Cache = {got}, expected {want}");
                    return ExitCode::from(tcor_common::ErrorKind::Serve.exit_code());
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            exit_for(&e)
        }
    }
}

/// `tcor-sim bench-serve [FILE]`: drive an in-process daemon through a
/// cold phase (every target computes), a warm phase (every target is a
/// memory-tier hit, asserted byte-identical to cold), and a coalescing
/// burst (8 concurrent clients on one uncached key); then *restart* the
/// daemon over the same persistent cache directory and measure the
/// disk-tier first hits — three latency tiers (cold / warm-disk /
/// warm-mem) recorded as machine-readable JSON.
fn bench_serve(path: &str) -> ExitCode {
    use std::sync::Arc;
    use std::time::Instant;
    use tcor_serve::LatencyHistogram;
    use tcor_sim::loadgen::{counter, drain};

    let cache_dir = std::env::temp_dir().join(format!("tcor-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let backend = Arc::new(tcor_sim::SimBackend::new());
    let cfg = tcor_serve::ServeConfig {
        port: 0,
        workers: 4,
        queue_depth: 64,
        cache_cap: 256,
        deadline: Duration::from_secs(600),
        cache_dir: Some(cache_dir.clone()),
        cache_disk_bytes: 256 << 20,
        ..tcor_serve::ServeConfig::default()
    };
    let server = match tcor_serve::start(cfg.clone(), backend, None) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench-serve: {e}");
            return exit_for(&e);
        }
    };
    let addr = server.addr().to_string();
    // Every target runs real simulation work cold (a full-system cell
    // or a trace-profiling sweep), so cold-vs-warm measures the cache,
    // not loopback overhead.
    let targets = [
        "/v1/cell/GTr/base64",
        "/v1/cell/GTr/tcor64",
        "/v1/cell/SoD/base64",
        "/v1/cell/SoD/tcor64",
        "/v1/misscurve/SoD/opt",
    ];
    let request = |addr: &str, path: &str| -> tcor_common::TcorResult<(u64, String, String)> {
        let t0 = Instant::now();
        let reply = tcor_serve::http_request(addr, "GET", path, None, Duration::from_secs(600))?;
        if reply.status != 200 {
            return Err(TcorError::serve(format!("GET {path} -> {}", reply.status)));
        }
        let tier = reply
            .header("x-tcor-cache")
            .unwrap_or("<absent>")
            .to_string();
        Ok((t0.elapsed().as_micros() as u64, reply.body, tier))
    };

    eprintln!("bench-serve: cold phase ({} targets)...", targets.len());
    let mut cold = LatencyHistogram::new();
    let mut cold_bodies = Vec::new();
    for t in targets {
        match request(&addr, t) {
            Ok((us, body, _)) => {
                cold.record(us);
                cold_bodies.push(body);
            }
            Err(e) => {
                eprintln!("bench-serve: cold {t} failed: {e}");
                return exit_for(&e);
            }
        }
    }

    const WARM_ROUNDS: usize = 10;
    eprintln!(
        "bench-serve: warm phase ({WARM_ROUNDS} rounds x {} targets)...",
        targets.len()
    );
    let mut warm = LatencyHistogram::new();
    let warm_t0 = Instant::now();
    for _ in 0..WARM_ROUNDS {
        for (i, t) in targets.iter().enumerate() {
            match request(&addr, t) {
                Ok((us, body, tier)) => {
                    if body != cold_bodies[i] {
                        eprintln!("bench-serve: FATAL: warm {t} differs from its cold body");
                        return ExitCode::FAILURE;
                    }
                    if tier != "mem" {
                        eprintln!("bench-serve: FATAL: warm {t} served from `{tier}`, not mem");
                        return ExitCode::FAILURE;
                    }
                    warm.record(us);
                }
                Err(e) => {
                    eprintln!("bench-serve: warm {t} failed: {e}");
                    return exit_for(&e);
                }
            }
        }
    }
    let warm_wall_s = warm_t0.elapsed().as_secs_f64();

    // Coalescing burst: 8 concurrent clients on a key nothing has
    // computed yet — one simulation, seven followers.
    let burst_target = "/v1/misscurve/GTr/srrip";
    eprintln!("bench-serve: coalescing burst (8 clients on {burst_target})...");
    let burst_ok = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| s.spawn(|| request(&addr, burst_target)))
            .collect();
        handles
            .into_iter()
            .all(|h| h.join().map(|r| r.is_ok()).unwrap_or(false))
    });
    if !burst_ok {
        eprintln!("bench-serve: FATAL: a burst request failed");
        return ExitCode::FAILURE;
    }

    let metrics = server.metrics_text();
    let (warm_hits, cold_computes, coalesced) = (
        counter(&metrics, "serve/cache_warm_hits"),
        counter(&metrics, "serve/cold_computes"),
        counter(&metrics, "serve/request_coalesced"),
    );
    let spans = match drain(server, &addr, "daemon") {
        Ok(spans) => spans,
        Err(e) => {
            eprintln!("bench-serve: FATAL: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Restart phase: a fresh daemon (fresh backend, empty memory tier)
    // over the same cache directory. The first request per target must
    // come back from the disk tier, byte-identical to its cold body —
    // this is the persistence win the cache exists for, measured.
    eprintln!(
        "bench-serve: restart phase ({} disk-tier hits)...",
        targets.len()
    );
    let backend2 = Arc::new(tcor_sim::SimBackend::new());
    let server2 = match tcor_serve::start(cfg, backend2, None) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench-serve: restart: {e}");
            return exit_for(&e);
        }
    };
    let addr2 = server2.addr().to_string();
    let mut warm_disk = LatencyHistogram::new();
    for (i, t) in targets.iter().enumerate() {
        match request(&addr2, t) {
            Ok((us, body, tier)) => {
                if body != cold_bodies[i] {
                    eprintln!("bench-serve: FATAL: restarted {t} differs from its cold body");
                    return ExitCode::FAILURE;
                }
                if tier != "disk" {
                    eprintln!("bench-serve: FATAL: restarted {t} served from `{tier}`, not disk");
                    return ExitCode::FAILURE;
                }
                warm_disk.record(us);
            }
            Err(e) => {
                eprintln!("bench-serve: restart {t} failed: {e}");
                return exit_for(&e);
            }
        }
    }
    let metrics2 = server2.metrics_text();
    let disk_hits = counter(&metrics2, "serve/cache_disk_hits");
    // The degradation ledger: on a healthy offline run every one of
    // these is expected to stay 0 / closed, and recording them makes a
    // regression (silent disk errors, a stuck-open breaker) visible as
    // a BENCH_serve.json diff.
    let both = |p: &str| counter(&metrics, p) + counter(&metrics2, p);
    let pcache_io_errors = both("pcache/io_errors");
    let evicted_corrupt = both("pcache/evicted_corrupt");
    let evicted_version = both("pcache/evicted_version");
    let breaker_opens = both("pcache/breaker_opens");
    let degraded = both("serve/degraded");
    if let Err(e) = drain(server2, &addr2, "restarted daemon") {
        eprintln!("bench-serve: FATAL: {e}");
        return ExitCode::FAILURE;
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    let ms = |h: &LatencyHistogram, q: f64| h.quantile_us(q) as f64 / 1e3;
    let (cold_p50, warm_p50, disk_p50) = (ms(&cold, 0.5), ms(&warm, 0.5), ms(&warm_disk, 0.5));
    let speedup = cold_p50 / warm_p50.max(1e-9);
    let disk_speedup = cold_p50 / disk_p50.max(1e-9);
    let doc = Json::obj([
        ("bench", Json::str("serve")),
        (
            "targets",
            Json::Arr(targets.iter().map(|&t| Json::str(t)).collect()),
        ),
        ("requests", Json::UInt(spans.len() as u64)),
        (
            "cold_ms",
            Json::obj([
                ("p50", Json::Float(cold_p50)),
                ("p95", Json::Float(ms(&cold, 0.95))),
                ("p99", Json::Float(ms(&cold, 0.99))),
            ]),
        ),
        (
            "warm_mem_ms",
            Json::obj([
                ("p50", Json::Float(warm_p50)),
                ("p95", Json::Float(ms(&warm, 0.95))),
                ("p99", Json::Float(ms(&warm, 0.99))),
            ]),
        ),
        (
            "warm_disk_ms",
            Json::obj([
                ("p50", Json::Float(disk_p50)),
                ("p95", Json::Float(ms(&warm_disk, 0.95))),
                ("p99", Json::Float(ms(&warm_disk, 0.99))),
            ]),
        ),
        ("warm_mem_speedup_p50", Json::Float(speedup)),
        ("warm_disk_speedup_p50", Json::Float(disk_speedup)),
        (
            "warm_throughput_rps",
            Json::Float(warm.count() as f64 / warm_wall_s),
        ),
        ("cache_warm_hits", Json::UInt(warm_hits)),
        ("cache_disk_hits", Json::UInt(disk_hits)),
        ("cold_computes", Json::UInt(cold_computes)),
        ("coalesced_requests", Json::UInt(coalesced)),
        ("pcache_io_errors", Json::UInt(pcache_io_errors)),
        ("pcache_evicted_corrupt", Json::UInt(evicted_corrupt)),
        ("pcache_evicted_version", Json::UInt(evicted_version)),
        ("breaker_opens", Json::UInt(breaker_opens)),
        ("degraded", Json::UInt(degraded)),
        ("warm_equals_cold", Json::Bool(true)),
        ("restart_equals_cold", Json::Bool(true)),
    ]);
    if let Err(e) = std::fs::write(path, doc.render() + "\n") {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench-serve: cold p50 {cold_p50:.1}ms, warm-mem p50 {warm_p50:.3}ms ({speedup:.0}x), \
         warm-disk p50 {disk_p50:.3}ms ({disk_speedup:.0}x), {coalesced} coalesced -> {path}"
    );
    ExitCode::SUCCESS
}

/// The fault schedule `--inject-faults SEED` arms, over the runner's
/// three keyed points: 4% of jobs panic, 8% stall for 10 ms first, and
/// 10% of golden writes fail. Every ask is keyed on a job label or a
/// golden tag, so the same jobs fail at any worker count. No clause has
/// a `#limit`: counting fires would make the schedule depend on ask
/// order again.
const INJECT_FAULTS_PRESET: &str =
    "runner/job_panic=4,runner/job_delay=8@10,runner/golden_write=10";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        return match (args.get(1), args.get(2)) {
            (Some(alias), Some(path)) => export_trace(alias, path),
            _ => {
                usage();
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("bench-runner") {
        return bench_runner(args.get(1).map_or("BENCH_runner.json", String::as_str));
    }
    if args.first().map(String::as_str) == Some("bench-misscurves") {
        let rest = &args[1..];
        let gate = rest.iter().any(|a| a == "--gate");
        let path = rest
            .iter()
            .find(|a| !a.starts_with("--"))
            .map_or("BENCH_misscurves.json", String::as_str);
        return bench_misscurves(path, gate);
    }
    if args.first().map(String::as_str) == Some("bench-serve") {
        return bench_serve(args.get(1).map_or("BENCH_serve.json", String::as_str));
    }
    if args.first().map(String::as_str) == Some("bench-load") {
        return tcor_sim::loadgen::bench_load_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench-stream") {
        return tcor_sim::streamcli::bench_stream_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("stream") {
        return tcor_sim::streamcli::stream_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve-req") {
        return serve_req(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("chaos") {
        return tcor_sim::chaos::chaos_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("cell") {
        return match (args.get(1), args.get(2), args.get(3)) {
            (Some(alias), Some(cfg), None) => cell_cmd(alias, cfg),
            _ => {
                usage();
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("curve") {
        return match (args.get(1), args.get(2), args.get(3)) {
            (Some(alias), Some(policy), None) => curve_cmd(alias, policy),
            _ => {
                usage();
                ExitCode::from(2)
            }
        };
    }

    let mut ids: Vec<String> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut golden_dir = PathBuf::from("results/golden");
    let mut telemetry_path = PathBuf::from("results/telemetry.jsonl");
    let mut manifest_path = PathBuf::from("results/run-manifest.txt");
    let mut mode = ExecMode::Parallel(default_workers());
    let mut check = false;
    let mut update_golden = false;
    let mut resume = false;
    let mut audit = false;
    let mut inject_audit_fault = false;
    let mut trace_out: Option<PathBuf> = None;
    let mut job_timeout: Option<Duration> = None;
    let mut faults: Option<Arc<FaultInjector>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--list" => {
                for e in EXPERIMENTS {
                    println!("{e}");
                }
                return ExitCode::SUCCESS;
            }
            "--serial" => mode = ExecMode::Serial,
            "--check" => check = true,
            "--update-golden" => update_golden = true,
            "--resume" => resume = true,
            "--audit" => audit = true,
            "--inject-audit-fault" => inject_audit_fault = true,
            flag @ ("--csv" | "--jobs" | "--golden" | "--telemetry" | "--manifest"
            | "--job-timeout" | "--inject-faults" | "--trace-out") => {
                i += 1;
                let Some(value) = args.get(i) else {
                    eprintln!("{flag} needs a value");
                    usage();
                    return ExitCode::from(2);
                };
                match flag {
                    "--csv" => csv_dir = Some(PathBuf::from(value)),
                    "--trace-out" => trace_out = Some(PathBuf::from(value)),
                    "--golden" => golden_dir = PathBuf::from(value),
                    "--telemetry" => telemetry_path = PathBuf::from(value),
                    "--manifest" => manifest_path = PathBuf::from(value),
                    "--job-timeout" => match value.parse::<u64>() {
                        Ok(ms) if ms >= 1 => job_timeout = Some(Duration::from_millis(ms)),
                        _ => {
                            eprintln!("--job-timeout needs milliseconds >= 1, got `{value}`");
                            return ExitCode::from(2);
                        }
                    },
                    "--inject-faults" => match value.parse::<u64>() {
                        Ok(seed) => {
                            let preset = FaultInjector::parse(seed, INJECT_FAULTS_PRESET);
                            faults = Some(Arc::new(preset.expect("the preset spec parses")));
                        }
                        _ => {
                            eprintln!("--inject-faults needs an integer seed, got `{value}`");
                            return ExitCode::from(2);
                        }
                    },
                    _ => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => mode = ExecMode::Parallel(n),
                        _ => {
                            eprintln!("--jobs needs a positive integer, got `{value}`");
                            return ExitCode::from(2);
                        }
                    },
                }
            }
            "all" => ids.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        // `--trace-out` / `--audit` work standalone: no experiments, no
        // run manifest — just the memoized cells they need.
        if trace_out.is_none() && !audit {
            usage();
            return ExitCode::from(2);
        }
        let store = tcor_runner::ArtifactStore::new();
        if let Some(path) = &trace_out {
            if let Err(e) = export_chrome_trace(&store, path) {
                eprintln!("{e}");
                return exit_for(&e);
            }
        }
        if audit {
            match run_audit(&store, inject_audit_fault) {
                Ok(0) => {}
                Ok(n) => {
                    eprintln!("--audit: {n} conservation violation(s) — counters are corrupt");
                    return ExitCode::from(EXIT_CORRUPTION);
                }
                Err(e) => {
                    eprintln!("{e}");
                    return exit_for(&e);
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    // The run manifest: resumed runs keep the previous record and only
    // re-execute what it marks failed/skipped/unattempted; fresh runs
    // start a new record.
    let mut manifest = if resume {
        match RunManifest::load(&manifest_path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("cannot resume: {e}");
                return exit_for(&e);
            }
        }
    } else {
        RunManifest::new(&manifest_path)
    };
    let (run_ids, reuse_ids): (Vec<String>, Vec<String>) = ids
        .iter()
        .cloned()
        .partition(|id| !resume || manifest.needs_rerun(id) || !EXPERIMENTS.contains(&id.as_str()));
    if resume && !reuse_ids.is_empty() {
        eprintln!(
            "resume: {} experiment(s) recorded ok in {}, re-running {}",
            reuse_ids.len(),
            manifest_path.display(),
            run_ids.len()
        );
    }

    let store = tcor_runner::ArtifactStore::new();
    let telemetry = Telemetry::new();
    // Stream telemetry from the start: every event is flushed as it is
    // recorded, so even a hard crash leaves a readable log.
    if let Err(e) = telemetry.stream_to(&telemetry_path) {
        eprintln!("telemetry streaming disabled: {e}");
    }

    let opts = RunOptions {
        mode,
        job_timeout,
        faults: faults.clone(),
    };
    let outcome = match run_experiments(&run_ids, &opts, &store, &telemetry) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return exit_for(&e);
        }
    };

    let mut golden = GoldenStore::new(&golden_dir);
    if let Some(faults) = faults {
        golden = golden.with_faults(faults);
    }
    let mut drifted = 0usize;
    let mut corrupt = 0usize;
    let mut golden_count = 0usize;
    for (id, exp) in &outcome.experiments {
        let tables = match exp {
            ExperimentOutcome::Tables(tables) => {
                manifest.record_ok(
                    id,
                    tables
                        .iter()
                        .map(|t| (t.id.clone(), hash_hex(fxhash64(t.to_csv().as_bytes()))))
                        .collect(),
                );
                tables
            }
            ExperimentOutcome::Failed { .. } => {
                manifest.record_status(id, RunStatus::Failed);
                continue;
            }
            ExperimentOutcome::Skipped { .. } => {
                manifest.record_status(id, RunStatus::Skipped);
                continue;
            }
        };
        for table in tables {
            println!("{}", table.render());
            if let Some(dir) = &csv_dir {
                if let Err(e) = table.write_csv(dir) {
                    eprintln!("failed to write {}/{}.csv: {e}", dir.display(), table.id);
                    return exit_for(&e);
                }
            }
            if update_golden {
                if let Err(e) = golden.update(&table.id, &table.to_csv()) {
                    eprintln!("failed to record golden {}: {e}", table.id);
                    return exit_for(&e);
                }
                golden_count += 1;
            } else if check {
                match golden.check(&table.id, &table.to_csv()) {
                    GoldenStatus::Match => eprintln!("golden {}: ok", table.id),
                    GoldenStatus::Missing => {
                        drifted += 1;
                        eprintln!(
                            "golden {}: MISSING (run with --update-golden to record)",
                            table.id
                        );
                    }
                    GoldenStatus::Corrupt => {
                        corrupt += 1;
                        eprintln!(
                            "golden {}: CORRUPT ({}/{}.csv does not match MANIFEST.txt)",
                            table.id,
                            golden_dir.display(),
                            table.id
                        );
                    }
                    GoldenStatus::Mismatch { diffs, total } => {
                        drifted += 1;
                        eprintln!("golden {}: MISMATCH on {total} line(s)", table.id);
                        for d in diffs.iter().take(5) {
                            eprintln!("  line {}:", d.line);
                            eprintln!("    golden:  {}", d.expected);
                            eprintln!("    current: {}", d.actual);
                        }
                        if total > 5 {
                            eprintln!("  ... and {} more differing line(s)", total - 5);
                        }
                    }
                }
            }
        }
    }

    // Experiments the manifest already records as ok (resume path):
    // their tables were not recomputed, but their recorded content
    // hashes can still be validated against the golden manifest.
    for id in &reuse_ids {
        if !check {
            eprintln!("resume: `{id}` previously completed, skipped");
            continue;
        }
        for (table_id, hash) in manifest.table_hashes(id) {
            match golden.recorded_hash(table_id) {
                Some(recorded) if recorded == *hash => {
                    eprintln!("golden {table_id}: ok (from run manifest)");
                }
                Some(_) => {
                    drifted += 1;
                    eprintln!("golden {table_id}: MISMATCH (run-manifest hash differs)");
                }
                None => {
                    drifted += 1;
                    eprintln!("golden {table_id}: MISSING from the golden manifest");
                }
            }
        }
    }

    if update_golden {
        eprintln!(
            "recorded {golden_count} goldens under {}",
            golden_dir.display()
        );
    }
    if let Err(e) = manifest.save() {
        eprintln!("failed to write {}: {e}", manifest_path.display());
    }

    eprintln!("telemetry: {}", telemetry_path.display());
    eprint!("{}", telemetry.summary(5));
    eprintln!(
        "frame plans: {} built, {} replayed",
        telemetry.counter_total("plan_builds"),
        telemetry.counter_total("plan_replays")
    );
    eprintln!(
        "artifact store: {} computed, {} shared",
        store.computes(),
        store.hits()
    );
    if !outcome.timed_out.is_empty() {
        eprintln!(
            "watchdog: {} job(s) exceeded the {}ms budget: {}",
            outcome.timed_out.len(),
            job_timeout.map_or(0, |d| d.as_millis() as u64),
            outcome.timed_out.join(", ")
        );
    }

    if !outcome.all_ok() {
        eprintln!(
            "run FAILED: {} experiment(s) did not complete",
            outcome.failed_ids().len()
        );
        if let Some(summary) = &outcome.failure_summary {
            eprint!("{summary}");
        }
        eprintln!("(re-run with --resume to re-execute only the failed experiments)");
        return ExitCode::from(EXIT_CELL_FAILURE);
    }
    if let Some(path) = &trace_out {
        if let Err(e) = export_chrome_trace(&store, path) {
            eprintln!("{e}");
            return exit_for(&e);
        }
    }
    let mut audit_violations = 0usize;
    if audit {
        match run_audit(&store, inject_audit_fault) {
            Ok(n) => audit_violations = n,
            Err(e) => {
                eprintln!("{e}");
                return exit_for(&e);
            }
        }
    }
    if audit_violations > 0 {
        eprintln!("--audit: {audit_violations} conservation violation(s) — counters are corrupt");
        return ExitCode::from(EXIT_CORRUPTION);
    }
    if corrupt > 0 {
        eprintln!("--check: {corrupt} golden table(s) are corrupt (tampered or damaged)");
        return ExitCode::from(EXIT_CORRUPTION);
    }
    if check && drifted > 0 {
        eprintln!("--check: {drifted} table(s) drifted from the goldens");
        return ExitCode::from(EXIT_DRIFT);
    }
    ExitCode::SUCCESS
}
