//! The job model: experiment cells as nodes of a dependency DAG.
//!
//! A [`Job`] is one unit of work — "calibrate the CCS scene",
//! "run CCS × TCOR-64KiB", "render fig14". Dependencies must point at
//! already-added jobs, so the graph is acyclic by construction and job
//! ids are a valid topological order (the serial executor just walks
//! them in sequence).

use crate::store::ArtifactStore;
use std::sync::{Mutex, PoisonError};

/// Identifier of a job within one [`JobGraph`]; doubles as the index of
/// the job's slot in the executor's result vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub usize);

/// What a job's closure sees while running: the shared artifact store
/// plus a sink for simulation counters that end up in telemetry.
pub struct JobCtx<'s> {
    store: &'s ArtifactStore,
    counters: Mutex<Vec<(String, u64)>>,
}

impl<'s> JobCtx<'s> {
    /// A context over `store`.
    pub fn new(store: &'s ArtifactStore) -> Self {
        JobCtx {
            store,
            counters: Mutex::new(Vec::new()),
        }
    }

    /// The shared content-addressed store.
    pub fn store(&self) -> &'s ArtifactStore {
        self.store
    }

    /// Reports a named counter (simulated accesses, misses, …) for this
    /// job's telemetry record. Repeated names accumulate.
    pub fn counter(&self, name: &str, value: u64) {
        // Poisoning is recoverable: entries are pushed/updated in one
        // step, so a panicking job cannot leave the list inconsistent.
        let mut c = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = c.iter_mut().find(|(n, _)| n == name) {
            entry.1 += value;
        } else {
            c.push((name.to_string(), value));
        }
    }

    /// Drains the recorded counters (executor-side).
    pub(crate) fn take_counters(&self) -> Vec<(String, u64)> {
        std::mem::take(&mut self.counters.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// One node: a label for telemetry, dependency edges, and the work
/// closure.
pub struct Job<'a, T> {
    /// Telemetry label ("cell:CCS/tcor64", "exp:fig14", …).
    pub label: String,
    /// Jobs that must complete before this one starts.
    pub deps: Vec<JobId>,
    /// The work; taken (once) by whichever worker claims the job.
    pub work: Box<dyn FnOnce(&JobCtx<'_>) -> T + Send + 'a>,
}

/// A dependency graph of jobs all producing the same output type.
///
/// Heterogeneous pipelines (the sim's scene/cell/table jobs) return an
/// enum or `Option` and pass bulky intermediates through the
/// [`ArtifactStore`] instead of through return values.
#[derive(Default)]
pub struct JobGraph<'a, T> {
    jobs: Vec<Job<'a, T>>,
}

impl<'a, T> JobGraph<'a, T> {
    /// An empty graph.
    pub fn new() -> Self {
        JobGraph { jobs: Vec::new() }
    }

    /// Adds a job depending on `deps` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id has not been added yet — this is what
    /// keeps the graph acyclic and ids topologically ordered.
    pub fn add_job(
        &mut self,
        label: impl Into<String>,
        deps: &[JobId],
        work: impl FnOnce(&JobCtx<'_>) -> T + Send + 'a,
    ) -> JobId {
        let id = JobId(self.jobs.len());
        for d in deps {
            assert!(
                d.0 < id.0,
                "job dependency {} not added before job {}",
                d.0,
                id.0
            );
        }
        self.jobs.push(Job {
            label: label.into(),
            deps: deps.to_vec(),
            work: Box::new(work),
        });
        id
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the graph has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Consumes the graph (executor-side).
    pub(crate) fn into_jobs(self) -> Vec<Job<'a, T>> {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut g: JobGraph<'_, u32> = JobGraph::new();
        let a = g.add_job("a", &[], |_| 1);
        let b = g.add_job("b", &[a], |_| 2);
        let c = g.add_job("c", &[a, b], |_| 3);
        assert_eq!((a, b, c), (JobId(0), JobId(1), JobId(2)));
        assert_eq!(g.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not added before")]
    fn forward_dependency_rejected() {
        let mut g: JobGraph<'_, ()> = JobGraph::new();
        g.add_job("bad", &[JobId(5)], |_| ());
    }

    #[test]
    fn counters_accumulate_by_name() {
        let store = ArtifactStore::new();
        let ctx = JobCtx::new(&store);
        ctx.counter("accesses", 10);
        ctx.counter("misses", 2);
        ctx.counter("accesses", 5);
        let mut c = ctx.take_counters();
        c.sort();
        assert_eq!(
            c,
            vec![("accesses".to_string(), 15), ("misses".to_string(), 2)]
        );
    }
}
