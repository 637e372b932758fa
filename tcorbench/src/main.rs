//! Seeded, offline benchmark of the TCOR reproduction.
//!
//! ```text
//! tcorbench --workload frames|curves|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up several times
//! (the median is `setup_s`), then runs a closed loop of seeded-shuffled
//! ops for `--seconds` and checks every output outside the timed window.
//! `--trace 0` prints the end-to-end metrics of the named workload.
//! `--trace 1` runs all three workloads for a third of the window each,
//! half untraced and half traced, and prints the per-layer metrics
//! measured from spans the benchmark records around its own calls into
//! each layer. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod alloc;
mod curves;
mod frames;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up is repeated this many times per run and reported as the
/// median, so one slow start cannot move `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Every per-layer metric, in output order. The traced run measures all
/// three workloads, so it prints every one of them.
pub const PER_LAYER: [(&str, &str); 54] = [
    // frames
    ("workloads.calibrate_ms", "ms"),
    ("gpu.geometry_ms", "ms"),
    ("gpu.bin_ms", "ms"),
    ("gpu.ops_ms", "ms"),
    ("pbuf.layout_us", "us"),
    ("gpu.raster_ms", "ms"),
    ("core.frame_ms", "ms"),
    ("core.cachemem_ms", "ms"),
    ("cache.access_ns", "ns"),
    ("energy.evaluate_us", "us"),
    ("core.tilecache_accesses", "count"),
    ("core.l1_accesses", "count"),
    ("mem.l2_accesses", "count"),
    ("mem.l2_miss_ratio", "ratio"),
    ("mem.dram_accesses", "count"),
    ("mem.dead_drops", "count"),
    ("core.ns_per_sim_access", "ns"),
    // curves
    ("workloads.trace_ms", "ms"),
    ("cache.annotate_ms", "ms"),
    ("cache.optstack_ms", "ms"),
    ("cache.lrustack_ms", "ms"),
    ("cache.bank_ms", "ms"),
    ("cache.hawkeye_ms", "ms"),
    ("cache.shardbuild_ms", "ms"),
    ("cache.shard_ms", "ms"),
    ("cache.replay_ms", "ms"),
    ("runner.scatter_speedup", "ratio"),
    ("cache.trace_passes", "count"),
    ("cache.ns_per_access_geom", "ns"),
    // serve
    ("sim.backend_ms", "ms"),
    ("pcache.put_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.route_us", "us"),
    ("pcache.get_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.plane_us", "us"),
    ("workloads.decode_us", "us"),
    ("stream.chunk_ms", "ms"),
    ("stream.curve_ms", "ms"),
    ("stream.finish_ms", "ms"),
    ("serve.wakeups_per_request", "ratio"),
    ("serve.warm_hit_ratio", "ratio"),
    ("serve.keepalive_reuses", "ratio"),
    ("stream.peak_window", "count"),
    ("serve.read_p50_ms", "ms"),
    ("serve.read_p99_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p99_ms", "ms"),
    // tracing, per workload
    ("trace.frames.attributed_share", "ratio"),
    ("trace.curves.attributed_share", "ratio"),
    ("trace.serve.attributed_share", "ratio"),
    ("trace.frames.rate_ratio", "ratio"),
    ("trace.curves.rate_ratio", "ratio"),
    ("trace.serve.rate_ratio", "ratio"),
];

/// A workload's entry point.
type RunFn = fn(&Args) -> Result<Outcome, String>;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s.is_nan() || s <= 0.0 || s > 600.0 {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// One timed op of the closed loop.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Op class, for the per-class medians of the traced output.
    pub class: &'static str,
    /// Latency in seconds.
    pub secs: f64,
}

/// The timed part of a run.
pub struct Window {
    pub samples: Vec<Sample>,
    pub secs: f64,
    /// Wall time of each whole pass.
    pub pass_secs: Vec<f64>,
}

impl Window {
    /// Ops per second: the median over passes, so a transient host
    /// slowdown that hits one pass does not move it.
    pub fn rate(&self) -> f64 {
        let pass_len = self.samples.len() / self.pass_secs.len().max(1);
        let rates: Vec<f64> = self.pass_secs.iter().map(|s| pass_len as f64 / s).collect();
        stats::median(&rates)
    }
}

/// Op indices in seeded-shuffled passes: every op once per pass, in a
/// fresh order each pass, so host drift hits every op class alike.
pub struct Shuffled {
    rng: tcor_common::Xoshiro256pp,
    order: Vec<usize>,
    pos: usize,
}

impl Shuffled {
    pub fn new(n: usize, seed: u64) -> Self {
        Shuffled {
            rng: tcor_common::Xoshiro256pp::seed_from_u64(seed ^ 0x5_EED0_F0B5),
            order: (0..n).collect(),
            pos: n,
        }
    }

    pub fn next_op(&mut self) -> usize {
        if self.pos == self.order.len() {
            for i in (1..self.order.len()).rev() {
                let j = self.rng.random_range(0..(i as u64 + 1)) as usize;
                self.order.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

/// Runs `op(k)` for k = 0, 1, 2, … back to back (closed loop: the next
/// op starts when the previous returns) until `seconds` have elapsed
/// and the pass in progress is complete, so every window holds whole
/// passes and the op mix behind each percentile is exact. `op` returns
/// the op's class; each latency is timed here.
pub fn closed_loop(
    seconds: f64,
    pass_len: usize,
    mut op: impl FnMut(usize) -> &'static str,
) -> Window {
    let budget = Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    let mut pass_secs = Vec::new();
    let start = Instant::now();
    let mut pass_start = start;
    let mut k = 0;
    while k == 0 || k % pass_len != 0 || start.elapsed() < budget {
        let t = Instant::now();
        let class = op(k);
        samples.push(Sample {
            class,
            secs: t.elapsed().as_secs_f64(),
        });
        k += 1;
        if k % pass_len == 0 {
            pass_secs.push(pass_start.elapsed().as_secs_f64());
            pass_start = Instant::now();
        }
    }
    Window {
        samples,
        secs: start.elapsed().as_secs_f64(),
        pass_secs,
    }
}

/// The end-to-end metrics every workload reports: median set-up time,
/// ops per second, p50/p90 op latency over all ops, and peak heap.
pub fn end_to_end(setup_secs: &[f64], window: &Window) -> Vec<Metric> {
    let lat_ms: Vec<f64> = window.samples.iter().map(|s| s.secs * 1e3).collect();
    vec![
        Metric::new("setup_s", stats::median(setup_secs), "s"),
        Metric::new("rate_per_s", window.rate(), "1/s"),
        Metric::new("p50_ms", stats::quantile(&lat_ms, 0.50), "ms"),
        Metric::new("p90_ms", stats::quantile(&lat_ms, 0.90), "ms"),
        Metric::new("peak_heap_mb", alloc::peak_bytes() as f64 / 1e6, "MB"),
    ]
}

/// Prints the op count, share and median latency of each op class, in
/// name order, so a reader can see where p50 and p90 fall.
pub fn print_classes(label: &str, window: &Window) {
    let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for s in &window.samples {
        by_class.entry(s.class).or_default().push(s.secs * 1e3);
    }
    let n = window.samples.len().max(1) as f64;
    let all: Vec<f64> = window.samples.iter().map(|s| s.secs * 1e3).collect();
    println!(
        "{label}: {} ops in {:.3} s; p50 {:.4} ms, p90 {:.4} ms",
        window.samples.len(),
        window.secs,
        stats::quantile(&all, 0.5),
        stats::quantile(&all, 0.9)
    );
    let pass_len = window.samples.len() / window.pass_secs.len().max(1);
    for (i, secs) in window.pass_secs.iter().enumerate() {
        let lat = &all[i * pass_len..(i + 1) * pass_len];
        println!(
            "  pass {i}: {secs:.4} s p50 {:.5} ms p90 {:.5} ms",
            stats::quantile(lat, 0.5),
            stats::quantile(lat, 0.9)
        );
    }
    for (class, lat) in &by_class {
        println!(
            "  class {class:<18} n {:>6} share {:>6.3} median {:>10.4} ms p90 {:>10.4} ms",
            lat.len(),
            lat.len() as f64 / n,
            stats::median(lat),
            stats::quantile(lat, 0.9)
        );
    }
}

fn render(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that cannot be
            // computed fails the run instead (see `main`).
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The traced run: every workload in turn, each for a third of
/// `--seconds` (half untraced, half traced), so one run yields every
/// layer's metrics whichever workload was named.
fn traced(args: &Args) -> Result<Outcome, String> {
    let sub = Args {
        seconds: args.seconds / 3.0,
        ..args.clone()
    };
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let runs: [RunFn; 3] = [frames::run, curves::run, serve::run];
    for run in runs {
        let o = run(&sub)?;
        all.correct &= o.correct;
        all.attempted += o.attempted;
        all.failed += o.failed;
        all.metrics.extend(o.metrics);
    }
    Ok(all)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tcorbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run: RunFn = match args.workload.as_str() {
        "frames" => frames::run,
        "curves" => curves::run,
        "serve" => serve::run,
        other => {
            eprintln!("tcorbench: unknown workload `{other}` (expected frames, curves or serve)");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(mut outcome) => {
            if args.trace {
                outcome.metrics = PER_LAYER
                    .iter()
                    .map(|(name, unit)| {
                        let value = outcome
                            .metrics
                            .iter()
                            .find(|m| m.name == *name)
                            .map_or(0.0, |m| m.value);
                        Metric::new(name, value, unit)
                    })
                    .collect();
            }
            if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("tcorbench: metric {} is not finite", m.name);
                return ExitCode::FAILURE;
            }
            println!("{}", render(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tcorbench: {e}");
            ExitCode::FAILURE
        }
    }
}
