//! Run observability: per-job wall time, simulation counters, progress
//! events, failures/skips/watchdog flags — collected in memory, written
//! as JSON-lines, summarized as a table.
//!
//! Wall times are *observability only*: no simulated measurement ever
//! reads the clock (the simulators are cycle-based and deterministic),
//! so recording here cannot perturb any paper number.
//!
//! Crash safety: with [`Telemetry::stream_to`] every event is rendered
//! and flushed to disk the moment it is recorded, so a crashed run
//! leaves a valid JSONL prefix (at worst one truncated trailing line).
//! The reader ([`load_jsonl`]) tolerates and reports that truncated
//! tail instead of failing on it.

use crate::json::Json;
use std::fs::File;
use std::io::{self, LineWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};
use tcor_common::{TcorError, TcorResult};

/// One completed job, as it appears in telemetry.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Job id within its graph.
    pub id: usize,
    /// The job's label.
    pub label: String,
    /// Worker index that executed it.
    pub worker: usize,
    /// Start offset from run start, milliseconds.
    pub start_ms: f64,
    /// Wall time, milliseconds.
    pub wall_ms: f64,
    /// Counters reported through [`crate::JobCtx::counter`]
    /// (simulated accesses, misses, …).
    pub counters: Vec<(String, u64)>,
}

enum Event {
    Start {
        t_ms: f64,
        id: usize,
        label: String,
        worker: usize,
    },
    End(JobRecord),
    Failed {
        t_ms: f64,
        id: usize,
        label: String,
        worker: usize,
        panic_msg: String,
    },
    Skipped {
        t_ms: f64,
        id: usize,
        label: String,
        failed_dep: usize,
        dep_label: String,
    },
    Timeout {
        t_ms: f64,
        id: usize,
        label: String,
        elapsed_ms: f64,
        budget_ms: f64,
    },
    Note {
        t_ms: f64,
        message: String,
    },
    /// A caller-defined event: the serving plane logs
    /// `request_received` / `request_coalesced` / `request_shed` /
    /// `request_done` through this so its timeline shares one JSONL
    /// stream with job events.
    Custom {
        t_ms: f64,
        name: String,
        fields: Vec<(String, Json)>,
    },
}

impl Event {
    fn render(&self) -> String {
        match self {
            Event::Start {
                t_ms,
                id,
                label,
                worker,
            } => Json::obj([
                ("event", Json::str("job_start")),
                ("t_ms", Json::Float(*t_ms)),
                ("job", Json::UInt(*id as u64)),
                ("label", Json::str(label.clone())),
                ("worker", Json::UInt(*worker as u64)),
            ]),
            Event::End(r) => Json::obj([
                ("event", Json::str("job_end")),
                ("t_ms", Json::Float(r.start_ms + r.wall_ms)),
                ("job", Json::UInt(r.id as u64)),
                ("label", Json::str(r.label.clone())),
                ("worker", Json::UInt(r.worker as u64)),
                ("wall_ms", Json::Float(r.wall_ms)),
                (
                    "counters",
                    Json::Obj(
                        r.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                            .collect(),
                    ),
                ),
            ]),
            Event::Failed {
                t_ms,
                id,
                label,
                worker,
                panic_msg,
            } => Json::obj([
                ("event", Json::str("job_failed")),
                ("t_ms", Json::Float(*t_ms)),
                ("job", Json::UInt(*id as u64)),
                ("label", Json::str(label.clone())),
                ("worker", Json::UInt(*worker as u64)),
                ("panic", Json::str(panic_msg.clone())),
            ]),
            Event::Skipped {
                t_ms,
                id,
                label,
                failed_dep,
                dep_label,
            } => Json::obj([
                ("event", Json::str("job_skipped")),
                ("t_ms", Json::Float(*t_ms)),
                ("job", Json::UInt(*id as u64)),
                ("label", Json::str(label.clone())),
                ("failed_dep", Json::UInt(*failed_dep as u64)),
                ("dep_label", Json::str(dep_label.clone())),
            ]),
            Event::Timeout {
                t_ms,
                id,
                label,
                elapsed_ms,
                budget_ms,
            } => Json::obj([
                ("event", Json::str("job_timeout")),
                ("t_ms", Json::Float(*t_ms)),
                ("job", Json::UInt(*id as u64)),
                ("label", Json::str(label.clone())),
                ("elapsed_ms", Json::Float(*elapsed_ms)),
                ("budget_ms", Json::Float(*budget_ms)),
            ]),
            Event::Note { t_ms, message } => Json::obj([
                ("event", Json::str("note")),
                ("t_ms", Json::Float(*t_ms)),
                ("message", Json::str(message.clone())),
            ]),
            Event::Custom { t_ms, name, fields } => {
                let mut obj = vec![
                    ("event".to_string(), Json::str(name.clone())),
                    ("t_ms".to_string(), Json::Float(*t_ms)),
                ];
                obj.extend(fields.iter().cloned());
                Json::Obj(obj)
            }
        }
        .render()
    }
}

struct Inner {
    events: Vec<Event>,
    /// Live sink: line-buffered, flushed per event so a crash loses at
    /// most the line being written.
    sink: Option<LineWriter<File>>,
    /// First sink write error, reported once instead of per event.
    sink_error: Option<String>,
}

/// Collector shared by reference with the executor. One `Telemetry`
/// spans one run (possibly several graphs).
pub struct Telemetry {
    start: Instant,
    inner: Mutex<Inner>,
    progress: AtomicBool,
    expected: AtomicUsize,
    completed: AtomicUsize,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// A collector with the clock started now.
    pub fn new() -> Self {
        Telemetry {
            start: Instant::now(),
            inner: Mutex::new(Inner {
                events: Vec::new(),
                sink: None,
                sink_error: None,
            }),
            progress: AtomicBool::new(false),
            expected: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
        }
    }

    /// Streams every event (including those already recorded) to
    /// `path` as JSON-lines, flushed per event — crash-safe
    /// observability for long runs.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be created.
    pub fn stream_to(&self, path: &Path) -> TcorResult<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| TcorError::io(format!("creating {}", parent.display()), e))?;
            }
        }
        let file = File::create(path)
            .map_err(|e| TcorError::io(format!("creating {}", path.display()), e))?;
        let mut writer = LineWriter::new(file);
        let mut inner = self.lock();
        for e in &inner.events {
            writer
                .write_all(e.render().as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .map_err(|e| TcorError::io(format!("writing {}", path.display()), e))?;
        }
        writer
            .flush()
            .map_err(|e| TcorError::io(format!("flushing {}", path.display()), e))?;
        inner.sink = Some(writer);
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Single-push updates: a panicking recorder cannot leave the
        // event list inconsistent, so poisoning is recoverable.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, event: Event) {
        let mut inner = self.lock();
        if let Some(sink) = inner.sink.as_mut() {
            let line = event.render();
            let wrote = sink
                .write_all(line.as_bytes())
                .and_then(|()| sink.write_all(b"\n"))
                .and_then(|()| sink.flush());
            if let Err(e) = wrote {
                if inner.sink_error.is_none() {
                    inner.sink_error = Some(e.to_string());
                    eprintln!("telemetry: streaming write failed ({e}); continuing in memory");
                }
                inner.sink = None;
            }
        }
        inner.events.push(event);
    }

    /// Enables `[k/n] label wall` progress lines on stderr; `expected`
    /// is the denominator (add more with repeated calls).
    pub fn enable_progress(&self, expected: usize) {
        self.progress.store(true, Ordering::Relaxed);
        self.expected.fetch_add(expected, Ordering::Relaxed);
    }

    /// Milliseconds since the collector was created.
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Records a free-form annotation ("suite assembled", …).
    pub fn note(&self, message: impl Into<String>) {
        self.push(Event::Note {
            t_ms: self.elapsed_ms(),
            message: message.into(),
        });
    }

    /// Records a caller-defined event with structured fields. The
    /// rendered line is `{"event": <name>, "t_ms": <now>, ...fields}`,
    /// so domain events (the serve plane's `request_received`,
    /// `request_done`, …) interleave with job events in one stream and
    /// flush with the same crash-safety guarantee.
    pub fn event(&self, name: impl Into<String>, fields: Vec<(String, Json)>) {
        self.push(Event::Custom {
            t_ms: self.elapsed_ms(),
            name: name.into(),
            fields,
        });
    }

    pub(crate) fn job_start(&self, id: usize, label: &str, worker: usize) {
        self.push(Event::Start {
            t_ms: self.elapsed_ms(),
            id,
            label: label.to_string(),
            worker,
        });
    }

    pub(crate) fn job_end(
        &self,
        id: usize,
        label: &str,
        worker: usize,
        counters: Vec<(String, u64)>,
    ) {
        let t_ms = self.elapsed_ms();
        let start_ms = self.start_of(id).unwrap_or(t_ms);
        let record = JobRecord {
            id,
            label: label.to_string(),
            worker,
            start_ms,
            wall_ms: t_ms - start_ms,
            counters,
        };
        self.progress_line(label, &format!("{:.1}ms", record.wall_ms));
        self.push(Event::End(record));
    }

    pub(crate) fn job_failed(&self, id: usize, label: &str, worker: usize, panic_msg: &str) {
        self.progress_line(label, "FAILED");
        self.push(Event::Failed {
            t_ms: self.elapsed_ms(),
            id,
            label: label.to_string(),
            worker,
            panic_msg: panic_msg.to_string(),
        });
    }

    pub(crate) fn job_skipped(&self, id: usize, label: &str, failed_dep: usize, dep_label: &str) {
        self.progress_line(label, &format!("SKIPPED (dep `{dep_label}` failed)"));
        self.push(Event::Skipped {
            t_ms: self.elapsed_ms(),
            id,
            label: label.to_string(),
            failed_dep,
            dep_label: dep_label.to_string(),
        });
    }

    pub(crate) fn job_timeout(&self, id: usize, label: &str, elapsed: Duration, budget: Duration) {
        let elapsed_ms = elapsed.as_secs_f64() * 1e3;
        let budget_ms = budget.as_secs_f64() * 1e3;
        eprintln!("watchdog: `{label}` over budget ({elapsed_ms:.0}ms > {budget_ms:.0}ms)");
        self.push(Event::Timeout {
            t_ms: self.elapsed_ms(),
            id,
            label: label.to_string(),
            elapsed_ms,
            budget_ms,
        });
    }

    fn start_of(&self, id: usize) -> Option<f64> {
        self.lock().events.iter().rev().find_map(|e| match e {
            Event::Start { id: i, t_ms, .. } if *i == id => Some(*t_ms),
            _ => None,
        })
    }

    fn progress_line(&self, label: &str, status: &str) {
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if self.progress.load(Ordering::Relaxed) {
            let total = self.expected.load(Ordering::Relaxed).max(done);
            eprintln!("[{done}/{total}] {label} {status}");
        }
    }

    /// All completed-job records, in completion order.
    pub fn records(&self) -> Vec<JobRecord> {
        self.lock()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::End(r) => Some(r.clone()),
                _ => None,
            })
            .collect()
    }

    /// The sum of counter `name` over every completed job.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.records()
            .iter()
            .flat_map(|r| &r.counters)
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// `(job id, label, panic message)` of every failed job.
    pub fn failures(&self) -> Vec<(usize, String, String)> {
        self.lock()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Failed {
                    id,
                    label,
                    panic_msg,
                    ..
                } => Some((*id, label.clone(), panic_msg.clone())),
                _ => None,
            })
            .collect()
    }

    /// `(job id, label, root dep label)` of every skipped job.
    pub fn skips(&self) -> Vec<(usize, String, String)> {
        self.lock()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Skipped {
                    id,
                    label,
                    dep_label,
                    ..
                } => Some((*id, label.clone(), dep_label.clone())),
                _ => None,
            })
            .collect()
    }

    /// Writes the event log as JSON-lines.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        let inner = self.lock();
        for e in inner.events.iter() {
            writeln!(w, "{}", e.render())?;
        }
        Ok(())
    }

    /// A human summary: totals plus the slowest jobs.
    pub fn summary(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut records = self.records();
        let failures = self.failures();
        let skips = self.skips();
        let total_wall: f64 = records.iter().map(|r| r.wall_ms).sum();
        let mut out = String::new();
        let _ = write!(
            out,
            "runner: {} jobs, {:.1}ms of job work in {:.1}ms wall",
            records.len(),
            total_wall,
            self.elapsed_ms()
        );
        if !failures.is_empty() || !skips.is_empty() {
            let _ = write!(out, " ({} failed, {} skipped)", failures.len(), skips.len());
        }
        out.push('\n');
        records.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        for r in records.iter().take(top) {
            let counters = r
                .counters
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "  {:>9.1}ms  w{}  {}  {}",
                r.wall_ms, r.worker, r.label, counters
            );
        }
        out
    }
}

/// A telemetry log read back from disk.
#[derive(Debug)]
pub struct TelemetryLog {
    /// Complete JSONL lines, in file order.
    pub lines: Vec<String>,
    /// The truncated trailing fragment, if the writer crashed
    /// mid-line; `None` for a cleanly terminated log.
    pub truncated: Option<String>,
}

/// Reads a JSON-lines telemetry log, tolerating — and reporting — a
/// truncated trailing line (the expected residue of a crash while
/// streaming).
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read, or a corruption
/// error if a line *before* the tail is malformed (that cannot be
/// explained by a crash mid-append).
pub fn load_jsonl(path: &Path) -> TcorResult<TelemetryLog> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TcorError::io(format!("reading {}", path.display()), e))?;
    let mut lines = Vec::new();
    let mut truncated = None;
    let complete = |l: &str| l.starts_with('{') && l.ends_with('}');
    // A crash can only truncate the final line; split it off first.
    let (body, tail) = match text.rfind('\n') {
        Some(i) => (&text[..i], &text[i + 1..]),
        None => ("", text.as_str()),
    };
    for (n, line) in body.lines().enumerate() {
        if !complete(line.trim_end()) {
            return Err(TcorError::corruption(format!(
                "{}: line {} is not a JSON object — log corrupted beyond a crash tail",
                path.display(),
                n + 1
            )));
        }
        lines.push(line.to_string());
    }
    if !tail.is_empty() {
        if complete(tail.trim_end()) {
            lines.push(tail.to_string());
        } else {
            truncated = Some(tail.to_string());
        }
    }
    Ok(TelemetryLog { lines, truncated })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_jsonl_roundtrip_structure() {
        let t = Telemetry::new();
        t.job_start(0, "alpha", 0);
        t.job_end(0, "alpha", 0, vec![("accesses".into(), 42)]);
        t.note("checkpoint");
        let records = t.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].label, "alpha");
        assert_eq!(records[0].counters, vec![("accesses".to_string(), 42)]);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"job_start\""));
        assert!(lines[1].contains("\"accesses\":42"));
        assert!(lines[2].contains("\"event\":\"note\""));
        // Every line is a self-contained JSON object.
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn failure_and_skip_events_are_recorded_and_rendered() {
        let t = Telemetry::new();
        t.job_start(1, "cell:X", 0);
        t.job_failed(1, "cell:X", 0, "boom");
        t.job_skipped(2, "exp:y", 1, "cell:X");
        t.job_timeout(
            3,
            "slow",
            Duration::from_millis(200),
            Duration::from_millis(50),
        );
        assert_eq!(t.failures(), vec![(1, "cell:X".into(), "boom".into())]);
        assert_eq!(t.skips(), vec![(2, "exp:y".into(), "cell:X".into())]);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"event\":\"job_failed\""));
        assert!(text.contains("\"panic\":\"boom\""));
        assert!(text.contains("\"event\":\"job_skipped\""));
        assert!(text.contains("\"event\":\"job_timeout\""));
        assert!(t.summary(1).contains("1 failed, 1 skipped"));
    }

    #[test]
    fn streaming_flushes_every_event() {
        let path = std::env::temp_dir().join(format!(
            "tcor-telemetry-stream-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let t = Telemetry::new();
        t.note("before streaming");
        t.stream_to(&path).unwrap();
        t.job_start(0, "a", 0);
        t.job_end(0, "a", 0, vec![]);
        // Without closing or saving anything: the lines must already
        // be durable.
        let log = load_jsonl(&path).unwrap();
        assert_eq!(log.lines.len(), 3, "pre-stream + start + end");
        assert!(log.truncated.is_none());
        assert!(log.lines[0].contains("before streaming"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_reports_a_truncated_tail_without_failing() {
        let path =
            std::env::temp_dir().join(format!("tcor-telemetry-trunc-{}.jsonl", std::process::id()));
        std::fs::write(
            &path,
            "{\"event\":\"note\"}\n{\"event\":\"job_start\",\"lab",
        )
        .unwrap();
        let log = load_jsonl(&path).unwrap();
        assert_eq!(log.lines.len(), 1);
        assert_eq!(
            log.truncated.as_deref(),
            Some("{\"event\":\"job_start\",\"lab")
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_rejects_mid_file_corruption() {
        let path = std::env::temp_dir().join(format!(
            "tcor-telemetry-corrupt-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(&path, "{\"ok\":1}\ngarbage\n{\"ok\":2}\n").unwrap();
        let err = load_jsonl(&path).unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Corruption);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn custom_events_render_name_and_fields() {
        let t = Telemetry::new();
        t.event(
            "request_received",
            vec![
                ("endpoint".to_string(), Json::str("/v1/cell")),
                ("key".to_string(), Json::UInt(7)),
            ],
        );
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"event\":\"request_received\""));
        assert!(text.contains("\"endpoint\":\"/v1/cell\""));
        assert!(text.contains("\"key\":7"));
        assert!(text.contains("\"t_ms\":"));
    }

    #[test]
    fn counter_totals_sum_over_jobs() {
        let t = Telemetry::new();
        t.job_end(0, "a", 0, vec![("builds".into(), 1), ("replays".into(), 6)]);
        t.job_end(1, "b", 1, vec![("replays".into(), 4)]);
        assert_eq!(t.counter_total("builds"), 1);
        assert_eq!(t.counter_total("replays"), 10);
        assert_eq!(t.counter_total("absent"), 0);
    }

    #[test]
    fn summary_mentions_slowest_job() {
        let t = Telemetry::new();
        t.job_start(0, "fast", 0);
        t.job_end(0, "fast", 0, vec![]);
        t.job_start(1, "slow", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.job_end(1, "slow", 1, vec![]);
        let s = t.summary(1);
        assert!(s.contains("2 jobs"));
        assert!(s.contains("slow"));
        assert!(!s.contains("  fast"));
    }
}
