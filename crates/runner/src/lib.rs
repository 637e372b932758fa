//! # tcor-runner
//!
//! The experiment-execution subsystem: turns the suite's ~25 paper
//! experiments (and the 60 benchmark × configuration cells beneath
//! them) into a dependency graph of [`Job`]s executed by a
//! work-stealing thread pool, with shared intermediates (generated
//! scenes, binned Parameter Buffers, frame reports) memoized in a
//! content-addressed [`ArtifactStore`].
//!
//! The design mirrors the paper's own observation: the Parameter
//! Buffer's future schedule is known when it is built, so nothing need
//! be computed twice. Here the "schedule" is the experiment DAG — every
//! shared artifact is keyed by a stable hash of the configuration that
//! produces it and computed exactly once, whichever job asks first.
//!
//! Guarantees:
//!
//! - **Determinism** — job results are assembled by job id, so the
//!   output of [`execute`] is bit-identical to [`execute_serial`]
//!   regardless of worker count or schedule (given deterministic jobs).
//! - **Std-only** — no external crates; the pool is
//!   [`std::thread::scope`] + `Mutex`/`Condvar`, hashing is
//!   `tcor_common::fxhash64`, JSON is the hand-rolled [`json`] writer.
//! - **Observability** — [`Telemetry`] records per-job wall time and
//!   user counters as JSON-lines; [`golden`] diffs experiment output
//!   against committed golden results.
//! - **Fault isolation** — a panicking job is contained
//!   ([`JobOutcome::Failed`]) and its dependents skipped while
//!   independent jobs complete; a [`tcor_common::FaultInjector`] in
//!   [`ExecOptions`] and [`GoldenStore`] injects deterministic panics,
//!   stalls and I/O errors to exercise every recovery path, asking
//!   three keyed points (`runner/job_panic` and `runner/job_delay` per
//!   job label, `runner/golden_write` per golden file), so a parallel
//!   schedule fails the same jobs as a serial one; the [`RunManifest`]
//!   makes partial runs resumable.

pub mod executor;
pub mod golden;
pub mod job;
pub mod json;
pub mod manifest;
pub mod store;
pub mod telemetry;

pub use executor::{
    default_workers, execute, execute_serial, scatter, ExecOptions, JobOutcome, RunReport,
};
pub use golden::{GoldenStatus, GoldenStore, LineDiff};
pub use job::{Job, JobCtx, JobGraph, JobId};
pub use json::Json;
pub use manifest::{RunManifest, RunStatus};
pub use store::ArtifactStore;
pub use telemetry::{load_jsonl, JobRecord, Telemetry, TelemetryLog};
