//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer in a named span
//! (name, start, end, parent, op id); spans nest, so a span's self time
//! is its duration minus its children's. Spans stay in memory during
//! the run and are written out as JSON lines when it ends.

use crate::stats;
use crate::Metric;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (or set-up step) this span belongs to.
    pub op: u64,
    /// Work done inside the span (accesses, requests, …), when noted.
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans; see the module docs.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` on the
    /// same tracer become its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            op: self.op,
            count: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Attaches a work count to the latest span called `name`.
    pub fn note_count(&mut self, name: &str, count: u64) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == name) {
            s.count = count;
        }
    }

    /// Work counts of the spans named `name`, in start order.
    pub fn counts_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.named(name).map(|s| s.count)
    }

    /// Op ids of the spans named `name`, in start order.
    pub fn ops_of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = u64> + 'a {
        self.named(name).map(|s| s.op)
    }

    /// Every span named `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (seconds) of the spans named `name`.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    /// Median duration of the spans named `name`, in seconds.
    pub fn median_secs(&self, name: &str) -> f64 {
        stats::median(&self.secs_of(name))
    }

    /// Total duration of the top-level spans that start at or after
    /// `from_ns`: the part of a window attributed to named layer calls.
    pub fn root_secs_since(&self, from_ns: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns >= from_ns)
            .map(Span::secs)
            .sum()
    }

    /// Current time on the tracer's clock.
    pub fn mark(&self) -> u64 {
        self.now_ns()
    }

    /// Per-name count, total, self time and median, in name order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64, f64)> {
        let mut child_secs = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.secs());
            e.1 += s.secs() - child_secs[i];
        }
        by_name
            .into_iter()
            .map(|(name, (d, self_s))| {
                (
                    name,
                    d.len(),
                    d.iter().sum::<f64>(),
                    self_s,
                    stats::median(&d),
                )
            })
            .collect()
    }

    /// Prints the per-name summary and writes every span as one JSON
    /// line to `path` (creating its directory).
    pub fn finish(&self, path: &std::path::Path) -> Result<(), String> {
        println!("spans (name, count, total s, self s, median ms):");
        for (name, n, total, self_s, med) in self.summary() {
            println!(
                "  {name:<26} {n:>7} {total:>10.4} {self_s:>10.4} {:>10.4}",
                med * 1e3
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op, s.count
            )
            .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        w.flush().map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
        Ok(())
    }
}

/// Where a traced run writes its spans: under the benchmark's build
/// directory, which the repository ignores.
pub fn spans_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(".bench_build"));
    dir.join("spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

/// The metrics every traced run adds: the share of the traced window
/// covered by named spans, and traced ÷ untraced op rate.
pub fn tracing_metrics(
    workload: &str,
    attributed: f64,
    traced_rate: f64,
    untraced_rate: f64,
) -> Vec<Metric> {
    vec![
        Metric::new(
            &format!("trace.{workload}.attributed_share"),
            attributed,
            "ratio",
        ),
        Metric::new(
            &format!("trace.{workload}.rate_ratio"),
            if untraced_rate > 0.0 {
                traced_rate / untraced_rate
            } else {
                0.0
            },
            "ratio",
        ),
    ]
}
