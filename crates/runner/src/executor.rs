//! The work-stealing parallel executor, with per-job fault isolation.
//!
//! Built strictly on `std`: [`std::thread::scope`] workers, one
//! `Mutex<VecDeque>` run queue per worker plus a `Mutex`/`Condvar`
//! coordinator for sleeping. A worker pops its own queue from the back
//! (LIFO: newly unblocked dependents run hot, artifacts still in
//! cache), and steals from other queues' fronts (FIFO: old, likely
//! large jobs migrate) — the classic Chase–Lev discipline without the
//! lock-free deque, which `std` alone cannot express safely.
//!
//! Failure model: each job body runs under [`std::panic::catch_unwind`].
//! A panicking job is recorded as [`JobOutcome::Failed`] with its panic
//! message, its transitive dependents become [`JobOutcome::Skipped`]
//! (pointing at the root failure), and every independent job still runs
//! to completion — one bad cell never tears down the suite. An optional
//! watchdog flags (but does not kill — `std` cannot cancel a thread)
//! jobs that exceed a wall-time budget, and a [`FaultPlan`] can inject
//! deterministic panics/stalls to exercise all of the above.
//!
//! Determinism: every job writes its outcome into its own id-indexed
//! slot, so the returned report is ordered by [`JobId`] and
//! bit-identical to [`execute_serial`] for deterministic jobs, whatever
//! the schedule.

use crate::fault::{FaultPlan, JobFault};
use crate::job::{JobCtx, JobGraph, JobId};
use crate::store::ArtifactStore;
use crate::telemetry::Telemetry;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use tcor_common::{TcorError, TcorResult};

/// Worker count the CLI defaults to: every hardware thread.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Execution knobs shared by [`execute`] and [`execute_serial`].
#[derive(Clone, Debug, Default)]
pub struct ExecOptions {
    /// Wall-time budget per job; jobs over budget are flagged in
    /// telemetry and in [`RunReport::timed_out`] (they are not killed).
    pub job_timeout: Option<Duration>,
    /// Deterministic fault injection (panics/stalls keyed by job
    /// label); `None` in production runs.
    pub fault_plan: Option<FaultPlan>,
}

/// How one job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Completed(T),
    /// The job's body panicked; the panic was contained.
    Failed {
        /// The panic payload, stringified.
        panic_msg: String,
    },
    /// A (transitive) dependency failed, so the job never ran.
    Skipped {
        /// Job id of the root failure that poisoned this job.
        failed_dep: usize,
    },
}

impl<T> JobOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the job ran to completion.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobOutcome::Completed(_))
    }
}

/// The result of executing one job graph: per-job outcomes ordered by
/// [`JobId`], the labels to attribute them, and watchdog flags.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Outcome of every job, indexed by job id.
    pub outcomes: Vec<JobOutcome<T>>,
    /// Label of every job, indexed by job id.
    pub labels: Vec<String>,
    /// Ids of jobs the watchdog flagged as over the wall-time budget.
    pub timed_out: Vec<usize>,
}

impl<T> RunReport<T> {
    /// Whether every job completed.
    pub fn all_completed(&self) -> bool {
        self.outcomes.iter().all(JobOutcome::is_completed)
    }

    /// `(job id, label, panic message)` of every failed job.
    pub fn failures(&self) -> Vec<(usize, &str, &str)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                JobOutcome::Failed { panic_msg } => {
                    Some((i, self.labels[i].as_str(), panic_msg.as_str()))
                }
                _ => None,
            })
            .collect()
    }

    /// `(job id, label, root failed job id)` of every skipped job.
    pub fn skips(&self) -> Vec<(usize, &str, usize)> {
        self.outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                JobOutcome::Skipped { failed_dep } => {
                    Some((i, self.labels[i].as_str(), *failed_dep))
                }
                _ => None,
            })
            .collect()
    }

    /// A structured human-readable report of failures, skips and
    /// watchdog flags; empty when all jobs completed in budget.
    pub fn failure_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, label, msg) in self.failures() {
            let _ = writeln!(out, "FAILED  job {id} `{label}`: {msg}");
        }
        for (id, label, root) in self.skips() {
            let _ = writeln!(
                out,
                "SKIPPED job {id} `{label}`: dependency `{}` (job {root}) failed",
                self.labels[root]
            );
        }
        for &id in &self.timed_out {
            let _ = writeln!(
                out,
                "OVERTIME job {id} `{}` exceeded the budget",
                self.labels[id]
            );
        }
        out
    }

    /// Unwraps the completed values in job-id order.
    ///
    /// # Errors
    ///
    /// Returns an [`ErrorKind::Execution`](tcor_common::ErrorKind)
    /// error carrying the failure summary if any job failed or was
    /// skipped.
    pub fn into_results(self) -> TcorResult<Vec<T>> {
        if !self.all_completed() {
            let failed = self.failures().len();
            let skipped = self.skips().len();
            return Err(TcorError::execution(format!(
                "{failed} job(s) failed, {skipped} skipped:\n{}",
                self.failure_summary().trim_end()
            )));
        }
        Ok(self
            .outcomes
            .into_iter()
            .filter_map(JobOutcome::completed)
            .collect())
    }
}

/// Stringifies a panic payload (the common `&str`/`String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A job body as stored in the executor: boxed, claimed exactly once.
type BoxedTask<'g, T> = Box<dyn FnOnce(&JobCtx<'_>) -> T + Send + 'g>;

struct Coord {
    /// Jobs sitting in some queue, not yet claimed.
    queued: usize,
    /// Jobs not yet completed (queued + running + dep-blocked).
    unfinished: usize,
}

struct Shared<'g, 'env, T> {
    queues: Vec<Mutex<VecDeque<usize>>>,
    coord: Mutex<Coord>,
    cv: Condvar,
    /// Remaining dependency count per job; the worker that drops one to
    /// zero enqueues it.
    pending: Vec<AtomicUsize>,
    dependents: Vec<Vec<usize>>,
    labels: Vec<String>,
    tasks: Vec<Mutex<Option<BoxedTask<'g, T>>>>,
    results: Vec<Mutex<Option<JobOutcome<T>>>>,
    /// `0` = clean; otherwise `root failed job id + 1`, installed by
    /// whichever failed/skipped predecessor got there first.
    poisoned: Vec<AtomicUsize>,
    /// Start instant of the currently running job, for the watchdog.
    started: Vec<Mutex<Option<Instant>>>,
    /// Whether the watchdog (or the post-run check) already flagged
    /// the job, so it is reported at most once.
    flagged: Vec<AtomicBool>,
    timed_out: Mutex<Vec<usize>>,
    opts: &'env ExecOptions,
    store: &'env ArtifactStore,
    telemetry: &'env Telemetry,
}

impl<T> Shared<'_, '_, T> {
    fn lock<'m, U>(m: &'m Mutex<U>) -> std::sync::MutexGuard<'m, U> {
        // Job panics are contained before they can poison these locks;
        // any residual poisoning (e.g. an allocation failure) leaves
        // single-step updates that are safe to keep using.
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues `job` on `worker`'s deque and wakes one sleeper.
    fn push(&self, worker: usize, job: usize) {
        Self::lock(&self.queues[worker]).push_back(job);
        Self::lock(&self.coord).queued += 1;
        self.cv.notify_one();
    }

    /// Own queue (LIFO) first, then steal round-robin (FIFO).
    fn try_claim(&self, worker: usize) -> Option<usize> {
        if let Some(j) = Self::lock(&self.queues[worker]).pop_back() {
            Self::lock(&self.coord).queued -= 1;
            return Some(j);
        }
        let n = self.queues.len();
        for k in 1..n {
            let victim = (worker + k) % n;
            if let Some(j) = Self::lock(&self.queues[victim]).pop_front() {
                Self::lock(&self.coord).queued -= 1;
                return Some(j);
            }
        }
        None
    }

    /// Records `outcome` for `job`, propagates poison (`root id + 1`,
    /// `0` for none) to dependents, unblocks them, and retires the job.
    fn finish(&self, worker: usize, job: usize, outcome: JobOutcome<T>, poison: usize) {
        *Self::lock(&self.results[job]) = Some(outcome);
        // Unblock dependents; newly ready ones run on this worker's
        // queue (their inputs are hot here), idle workers steal.
        for &d in &self.dependents[job] {
            if poison != 0 {
                // First poisoner wins, so every skip reports one stable
                // root failure.
                let _ = self.poisoned[d].compare_exchange(
                    0,
                    poison,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            if self.pending[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                self.push(worker, d);
            }
        }
        let mut coord = Self::lock(&self.coord);
        coord.unfinished -= 1;
        if coord.unfinished == 0 {
            self.cv.notify_all();
        }
    }

    /// Flags `job` as over budget exactly once (watchdog or post-run).
    fn flag_overtime(&self, job: usize, elapsed: Duration, budget: Duration) {
        if !self.flagged[job].swap(true, Ordering::Relaxed) {
            self.telemetry
                .job_timeout(job, &self.labels[job], elapsed, budget);
            Self::lock(&self.timed_out).push(job);
        }
    }

    fn run_job(&self, worker: usize, job: usize) {
        let label = &self.labels[job];
        let poison = self.poisoned[job].load(Ordering::Acquire);
        if poison != 0 {
            let root = poison - 1;
            self.telemetry
                .job_skipped(job, label, root, &self.labels[root]);
            self.finish(
                worker,
                job,
                JobOutcome::Skipped { failed_dep: root },
                poison,
            );
            return;
        }
        let Some(work) = Self::lock(&self.tasks[job]).take() else {
            // Unreachable by construction (each id is claimed once);
            // recorded as a failure rather than tearing down the pool.
            let msg = "executor invariant violated: job claimed twice".to_string();
            self.telemetry.job_failed(job, label, worker, &msg);
            self.finish(worker, job, JobOutcome::Failed { panic_msg: msg }, job + 1);
            return;
        };
        let fault = self
            .opts
            .fault_plan
            .as_ref()
            .and_then(|p| p.job_fault(label).map(|f| (f, p.seed())));
        let ctx = JobCtx::new(self.store);
        self.telemetry.job_start(job, label, worker);
        let t0 = Instant::now();
        *Self::lock(&self.started[job]) = Some(t0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some((JobFault::Panic, seed)) => {
                    panic!("injected fault: panic in `{label}` (plan seed {seed})")
                }
                Some((JobFault::Delay(d), _)) => std::thread::sleep(d),
                None => {}
            }
            work(&ctx)
        }));
        let elapsed = t0.elapsed();
        *Self::lock(&self.started[job]) = None;
        if let Some(budget) = self.opts.job_timeout {
            if elapsed > budget {
                self.flag_overtime(job, elapsed, budget);
            }
        }
        match result {
            Ok(out) => {
                self.telemetry
                    .job_end(job, label, worker, ctx.take_counters());
                self.finish(worker, job, JobOutcome::Completed(out), 0);
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                self.telemetry.job_failed(job, label, worker, &msg);
                self.finish(worker, job, JobOutcome::Failed { panic_msg: msg }, job + 1);
            }
        }
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            if let Some(job) = self.try_claim(worker) {
                self.run_job(worker, job);
                continue;
            }
            let mut coord = Self::lock(&self.coord);
            loop {
                if coord.unfinished == 0 {
                    return;
                }
                if coord.queued > 0 {
                    break; // retry claiming outside the coord lock
                }
                coord = self.cv.wait(coord).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// The watchdog: polls running jobs against `budget` and flags any
    /// over it while they run (completion-time checks would only see
    /// overruns after the fact). Exits when the run drains.
    fn watchdog_loop(&self, budget: Duration) {
        let poll = (budget / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
        loop {
            {
                let coord = Self::lock(&self.coord);
                if coord.unfinished == 0 {
                    return;
                }
                let (coord, _) = self
                    .cv
                    .wait_timeout(coord, poll)
                    .unwrap_or_else(PoisonError::into_inner);
                if coord.unfinished == 0 {
                    return;
                }
            }
            let now = Instant::now();
            for job in 0..self.started.len() {
                if self.flagged[job].load(Ordering::Relaxed) {
                    continue;
                }
                let started = *Self::lock(&self.started[job]);
                if let Some(t0) = started {
                    let elapsed = now.saturating_duration_since(t0);
                    if elapsed > budget {
                        self.flag_overtime(job, elapsed, budget);
                    }
                }
            }
        }
    }
}

/// Builds the per-job bookkeeping shared by both executors.
struct Prepared<'g, T> {
    pending: Vec<AtomicUsize>,
    dependents: Vec<Vec<usize>>,
    labels: Vec<String>,
    tasks: Vec<Mutex<Option<BoxedTask<'g, T>>>>,
    roots: Vec<usize>,
}

fn prepare<T>(graph: JobGraph<'_, T>) -> Prepared<'_, T> {
    let jobs = graph.into_jobs();
    let n = jobs.len();
    let mut p = Prepared {
        pending: Vec::with_capacity(n),
        dependents: vec![Vec::new(); n],
        labels: Vec::with_capacity(n),
        tasks: Vec::with_capacity(n),
        roots: Vec::new(),
    };
    for (i, job) in jobs.into_iter().enumerate() {
        if job.deps.is_empty() {
            p.roots.push(i);
        }
        p.pending.push(AtomicUsize::new(job.deps.len()));
        for JobId(d) in job.deps {
            p.dependents[d].push(i);
        }
        p.labels.push(job.label);
        p.tasks.push(Mutex::new(Some(job.work)));
    }
    p
}

/// Runs the graph on `workers` threads and returns the per-job report
/// ordered by job id. An effective worker count of 1 (after clamping to
/// the job count) runs inline on the calling thread via
/// [`execute_serial`] — same outcomes, no thread, queue or condvar
/// overhead, so single-core parallel runs cost the same as `--serial`.
/// Panicking jobs are contained (never propagated): see [`RunReport`].
pub fn execute<T: Send>(
    graph: JobGraph<'_, T>,
    workers: usize,
    opts: &ExecOptions,
    store: &ArtifactStore,
    telemetry: &Telemetry,
) -> RunReport<T> {
    let n = graph.len();
    if n == 0 {
        return RunReport {
            outcomes: Vec::new(),
            labels: Vec::new(),
            timed_out: Vec::new(),
        };
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        // One worker would drain the queue in topological id order
        // anyway; the serial path does exactly that without paying for
        // the pool machinery (serial and parallel outputs are already
        // bit-identical — this makes the times match too).
        return execute_serial(graph, opts, store, telemetry);
    }
    let prepared = prepare(graph);

    let shared = Shared {
        queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        coord: Mutex::new(Coord {
            queued: 0,
            unfinished: n,
        }),
        cv: Condvar::new(),
        pending: prepared.pending,
        dependents: prepared.dependents,
        labels: prepared.labels,
        tasks: prepared.tasks,
        results: (0..n).map(|_| Mutex::new(None)).collect(),
        poisoned: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        started: (0..n).map(|_| Mutex::new(None)).collect(),
        flagged: (0..n).map(|_| AtomicBool::new(false)).collect(),
        timed_out: Mutex::new(Vec::new()),
        opts,
        store,
        telemetry,
    };
    // Seed roots round-robin so the pool starts balanced.
    for (k, &r) in prepared.roots.iter().enumerate() {
        shared.push(k % workers, r);
    }

    std::thread::scope(|s| {
        if opts.job_timeout.is_some() {
            let shared = &shared;
            let budget = opts.job_timeout.unwrap_or_default();
            let _ = std::thread::Builder::new()
                .name("tcor-watchdog".to_string())
                .spawn_scoped(s, move || shared.watchdog_loop(budget));
        }
        for w in 1..workers {
            let shared = &shared;
            if std::thread::Builder::new()
                .name(format!("tcor-runner-{w}"))
                .spawn_scoped(s, move || shared.worker_loop(w))
                .is_err()
            {
                // Spawn failure degrades parallelism, never correctness:
                // the remaining workers (at least worker 0) drain the
                // whole graph.
                telemetry.note(format!("worker {w} failed to spawn; continuing degraded"));
            }
        }
        shared.worker_loop(0);
    });

    let outcomes = shared
        .results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or(JobOutcome::Failed {
                    panic_msg: "executor invariant violated: job never ran".to_string(),
                })
        })
        .collect();
    RunReport {
        outcomes,
        labels: shared.labels,
        timed_out: shared
            .timed_out
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    }
}

/// The reference path: runs every job on the calling thread in id
/// order (ids are topological by construction), with identical
/// containment semantics, telemetry recording and outcomes as
/// [`execute`]. Over-budget jobs are flagged at completion (there is
/// no concurrent watchdog).
pub fn execute_serial<T>(
    graph: JobGraph<'_, T>,
    opts: &ExecOptions,
    store: &ArtifactStore,
    telemetry: &Telemetry,
) -> RunReport<T> {
    let prepared = prepare(graph);
    let n = prepared.labels.len();
    let mut outcomes: Vec<JobOutcome<T>> = Vec::with_capacity(n);
    // `0` = clean, else root failed job id + 1 (ids are topological, so
    // a single forward pass propagates poison transitively).
    let mut poisoned = vec![0usize; n];
    let mut timed_out = Vec::new();
    for (i, task) in prepared.tasks.into_iter().enumerate() {
        let label = &prepared.labels[i];
        let poison = poisoned[i];
        if poison != 0 {
            let root = poison - 1;
            telemetry.job_skipped(i, label, root, &prepared.labels[root]);
            for &d in &prepared.dependents[i] {
                if poisoned[d] == 0 {
                    poisoned[d] = poison;
                }
            }
            outcomes.push(JobOutcome::Skipped { failed_dep: root });
            continue;
        }
        let Some(work) = task.into_inner().unwrap_or_else(PoisonError::into_inner) else {
            // Unreachable by construction; recorded, not propagated.
            let msg = "executor invariant violated: job claimed twice".to_string();
            telemetry.job_failed(i, label, 0, &msg);
            for &d in &prepared.dependents[i] {
                if poisoned[d] == 0 {
                    poisoned[d] = i + 1;
                }
            }
            outcomes.push(JobOutcome::Failed { panic_msg: msg });
            continue;
        };
        let fault = opts
            .fault_plan
            .as_ref()
            .and_then(|p| p.job_fault(label).map(|f| (f, p.seed())));
        let ctx = JobCtx::new(store);
        telemetry.job_start(i, label, 0);
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some((JobFault::Panic, seed)) => {
                    panic!("injected fault: panic in `{label}` (plan seed {seed})")
                }
                Some((JobFault::Delay(d), _)) => std::thread::sleep(d),
                None => {}
            }
            work(&ctx)
        }));
        let elapsed = t0.elapsed();
        if let Some(budget) = opts.job_timeout {
            if elapsed > budget {
                telemetry.job_timeout(i, label, elapsed, budget);
                timed_out.push(i);
            }
        }
        match result {
            Ok(out) => {
                telemetry.job_end(i, label, 0, ctx.take_counters());
                outcomes.push(JobOutcome::Completed(out));
            }
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                telemetry.job_failed(i, label, 0, &msg);
                for &d in &prepared.dependents[i] {
                    if poisoned[d] == 0 {
                        poisoned[d] = i + 1;
                    }
                }
                outcomes.push(JobOutcome::Failed { panic_msg: msg });
            }
        }
    }
    RunReport {
        outcomes,
        labels: prepared.labels,
        timed_out,
    }
}

/// Fans a flat list of independent tasks across `workers` threads and
/// returns their results in input order.
///
/// The light-weight companion to [`execute`] for dependency-free
/// fan-out (e.g. per-geometry replays in the miss-curve engine): no
/// graph to declare, no report to unpack. With one effective worker (or
/// one task) the tasks run inline on the calling thread with zero
/// overhead, preserving the single-core guarantee of [`execute`].
///
/// # Panics
///
/// A panicking task panics the caller (in the parallel case, after the
/// remaining tasks finish): unlike [`execute`], there is no outcome
/// report to record a contained failure in, and callers pass closures
/// that are not expected to fail.
pub fn scatter<'a, T: Send + 'a>(
    workers: usize,
    tasks: Vec<Box<dyn FnOnce() -> T + Send + 'a>>,
) -> Vec<T> {
    if workers <= 1 || tasks.len() <= 1 {
        return tasks.into_iter().map(|t| t()).collect();
    }
    let mut graph: JobGraph<'a, T> = JobGraph::new();
    for (i, task) in tasks.into_iter().enumerate() {
        graph.add_job(format!("scatter-{i}"), &[], move |_| task());
    }
    let store = ArtifactStore::new();
    let telemetry = Telemetry::new();
    let report = execute(graph, workers, &ExecOptions::default(), &store, &telemetry);
    match report.into_results() {
        Ok(results) => results,
        Err(failures) => panic!("scatter task failed: {failures}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn diamond(counter: &AtomicU64) -> JobGraph<'_, u64> {
        // a → {b, c} → d ; d must observe both b and c done.
        let mut g = JobGraph::new();
        let a = g.add_job("a", &[], move |_| {
            counter.fetch_add(1, Ordering::SeqCst);
            1
        });
        let b = g.add_job("b", &[a], move |_| {
            counter.fetch_add(10, Ordering::SeqCst);
            2
        });
        let c = g.add_job("c", &[a], move |_| {
            counter.fetch_add(100, Ordering::SeqCst);
            3
        });
        g.add_job("d", &[b, c], move |_| counter.load(Ordering::SeqCst));
        g
    }

    fn run(graph: JobGraph<'_, u64>, workers: usize) -> RunReport<u64> {
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        execute(graph, workers, &ExecOptions::default(), &store, &t)
    }

    #[test]
    fn serial_and_parallel_agree_on_a_diamond() {
        for workers in [1, 2, 4, 8] {
            let counter = AtomicU64::new(0);
            let out = run(diamond(&counter), workers).into_results().unwrap();
            assert_eq!(out, vec![1, 2, 3, 111], "workers={workers}");
        }
        let counter = AtomicU64::new(0);
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        let out = execute_serial(diamond(&counter), &ExecOptions::default(), &store, &t)
            .into_results()
            .unwrap();
        assert_eq!(out, vec![1, 2, 3, 111]);
    }

    #[test]
    fn wide_graph_runs_every_job_once() {
        let n = 300;
        let hits = AtomicU64::new(0);
        let mut g = JobGraph::new();
        for i in 0..n {
            let hits = &hits;
            g.add_job(format!("j{i}"), &[], move |_| {
                hits.fetch_add(1, Ordering::SeqCst);
                i as u64
            });
        }
        let out = run(g, 8).into_results().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), n as u64);
        assert_eq!(out, (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn deep_chain_respects_ordering() {
        // Each link appends; any reordering would change the trace.
        let mut g = JobGraph::new();
        let trace = &*Box::leak(Box::new(Mutex::new(Vec::<usize>::new())));
        let mut prev: Option<JobId> = None;
        for i in 0..64 {
            let deps: Vec<JobId> = prev.into_iter().collect();
            prev = Some(g.add_job(format!("link{i}"), &deps, move |_| {
                trace.lock().unwrap().push(i);
                i as u64
            }));
        }
        run(g, 4);
        assert_eq!(*trace.lock().unwrap(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_share_artifacts_through_the_store() {
        let mut g = JobGraph::new();
        for i in 0..16 {
            g.add_job(format!("j{i}"), &[], move |ctx: &JobCtx<'_>| {
                *ctx.store().get_or_compute(0xBEEF, || 7u64).unwrap()
            });
        }
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        let out = execute(g, 4, &ExecOptions::default(), &store, &t)
            .into_results()
            .unwrap();
        assert!(out.iter().all(|&v| v == 7));
        assert_eq!(store.computes(), 1);
        assert_eq!(store.hits(), 15);
    }

    #[test]
    fn telemetry_records_every_job() {
        let counter = AtomicU64::new(0);
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        execute(diamond(&counter), 2, &ExecOptions::default(), &store, &t);
        let records = t.records();
        assert_eq!(records.len(), 4);
        let mut labels: Vec<_> = records.iter().map(|r| r.label.clone()).collect();
        labels.sort();
        assert_eq!(labels, ["a", "b", "c", "d"]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        let out: Vec<()> = execute(JobGraph::new(), 4, &ExecOptions::default(), &store, &t)
            .into_results()
            .unwrap();
        assert!(out.is_empty());
    }

    /// One panicking job fails alone; its dependents are skipped with
    /// the root cause; every independent job completes.
    fn assert_contained(report: RunReport<u64>) {
        assert!(!report.all_completed());
        assert_eq!(report.outcomes[0], JobOutcome::Completed(1), "a ran");
        assert_eq!(report.outcomes[2], JobOutcome::Completed(3), "c ran");
        match &report.outcomes[1] {
            JobOutcome::Failed { panic_msg } => assert!(panic_msg.contains("boom b")),
            other => panic!("b should fail, got {other:?}"),
        }
        assert_eq!(report.outcomes[3], JobOutcome::Skipped { failed_dep: 1 });
        let failures = report.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].1, "b");
        assert_eq!(report.skips(), vec![(3, "d", 1)]);
        assert!(report.failure_summary().contains("FAILED  job 1 `b`"));
        assert!(report.failure_summary().contains("SKIPPED job 3 `d`"));
        assert!(report.into_results().is_err());
    }

    fn panicky_diamond() -> JobGraph<'static, u64> {
        let mut g = JobGraph::new();
        let a = g.add_job("a", &[], |_| 1);
        let b = g.add_job("b", &[a], |_| -> u64 { panic!("boom b") });
        let c = g.add_job("c", &[a], |_| 3);
        g.add_job("d", &[b, c], |_| 4);
        g
    }

    #[test]
    fn panic_is_contained_and_dependents_skip_parallel() {
        for workers in [1, 2, 4] {
            assert_contained(run(panicky_diamond(), workers));
        }
    }

    #[test]
    fn panic_is_contained_and_dependents_skip_serial() {
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        assert_contained(execute_serial(
            panicky_diamond(),
            &ExecOptions::default(),
            &store,
            &t,
        ));
    }

    #[test]
    fn skip_propagates_transitively_to_the_root_failure() {
        let mut g: JobGraph<'_, u64> = JobGraph::new();
        let a = g.add_job("a", &[], |_| -> u64 { panic!("root") });
        let b = g.add_job("b", &[a], |_| 2);
        g.add_job("c", &[b], |_| 3);
        let report = run(g, 2);
        assert_eq!(report.outcomes[1], JobOutcome::Skipped { failed_dep: 0 });
        assert_eq!(report.outcomes[2], JobOutcome::Skipped { failed_dep: 0 });
    }

    #[test]
    fn injected_fault_panics_the_targeted_job_only() {
        let counter = AtomicU64::new(0);
        let opts = ExecOptions {
            fault_plan: Some(FaultPlan::panic_on("b")),
            ..ExecOptions::default()
        };
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        let report = execute(diamond(&counter), 2, &opts, &store, &t);
        match &report.outcomes[1] {
            JobOutcome::Failed { panic_msg } => {
                assert!(panic_msg.contains("injected fault"), "{panic_msg}");
            }
            other => panic!("expected injected failure, got {other:?}"),
        }
        assert!(report.outcomes[0].is_completed());
        assert!(report.outcomes[2].is_completed());
        assert_eq!(report.outcomes[3], JobOutcome::Skipped { failed_dep: 1 });
    }

    #[test]
    fn watchdog_flags_over_budget_jobs() {
        let mut g: JobGraph<'_, u64> = JobGraph::new();
        g.add_job("slow", &[], |_| {
            std::thread::sleep(Duration::from_millis(60));
            1
        });
        g.add_job("fast", &[], |_| 2);
        let opts = ExecOptions {
            job_timeout: Some(Duration::from_millis(10)),
            ..ExecOptions::default()
        };
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        let report = execute(g, 2, &opts, &store, &t);
        assert!(report.all_completed(), "overtime jobs still complete");
        assert_eq!(report.timed_out, vec![0]);

        // Serial flags at completion time.
        let mut g: JobGraph<'_, u64> = JobGraph::new();
        g.add_job("slow", &[], |_| {
            std::thread::sleep(Duration::from_millis(30));
            1
        });
        let report = execute_serial(g, &opts, &store, &Telemetry::new());
        assert_eq!(report.timed_out, vec![0]);
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        // The single-core bugfix: workers == 1 must not spawn a pool.
        // Every job observing the caller's thread id proves the inline
        // delegation; >1 workers on independent jobs still uses threads.
        let caller = std::thread::current().id();
        let mut g: JobGraph<'_, bool> = JobGraph::new();
        for i in 0..6 {
            g.add_job(format!("j{i}"), &[], move |_| {
                std::thread::current().id() == caller
            });
        }
        let out = run_bools(g, 1);
        assert!(out.iter().all(|&on_caller| on_caller));

        // Clamping does it too: 8 workers, 1 job -> inline.
        let mut g: JobGraph<'_, bool> = JobGraph::new();
        g.add_job("only", &[], move |_| std::thread::current().id() == caller);
        assert!(run_bools(g, 8)[0]);
    }

    fn run_bools(graph: JobGraph<'_, bool>, workers: usize) -> Vec<bool> {
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        execute(graph, workers, &ExecOptions::default(), &store, &t)
            .into_results()
            .unwrap()
    }

    #[test]
    fn scatter_returns_results_in_input_order() {
        for workers in [1usize, 2, 4] {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
                .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            let out = scatter(workers, tasks);
            let expect: Vec<usize> = (0..16usize).map(|i| i * i).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn scatter_with_one_worker_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let tasks: Vec<Box<dyn FnOnce() -> bool + Send>> = (0..4)
            .map(|_| {
                Box::new(move || std::thread::current().id() == caller)
                    as Box<dyn FnOnce() -> bool + Send>
            })
            .collect();
        assert!(scatter(1, tasks).into_iter().all(|on_caller| on_caller));
    }

    #[test]
    fn scatter_borrows_from_the_caller() {
        // Non-'static capture: tasks may read caller-owned data.
        let data: Vec<u64> = (0..100).collect();
        let chunks: Vec<&[u64]> = data.chunks(25).collect();
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = chunks
            .into_iter()
            .map(|c| {
                Box::new(move || c.iter().sum::<u64>()) as Box<dyn FnOnce() -> u64 + Send + '_>
            })
            .collect();
        let partials = scatter(2, tasks);
        assert_eq!(partials.iter().sum::<u64>(), data.iter().sum::<u64>());
    }
}
