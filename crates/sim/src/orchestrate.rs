//! Experiment orchestration over the `tcor-runner` job graph.
//!
//! The harness used to run everything sequentially and recompute shared
//! inputs per experiment: every miss-curve figure rebuilt all ten suite
//! traces, and every suite cell re-calibrated its scene. Here each
//! experiment becomes a node of a dependency DAG whose shared inputs —
//! calibrated scenes, the aggregated PB traces, the 60 full-system cell
//! reports, the assembled [`SuiteRun`] — live in a content-addressed
//! [`ArtifactStore`], computed exactly once per process and shared
//! across however many workers the executor runs.
//!
//! Keys are `fxhash64` over a stable textual description of the
//! artifact's configuration, so a key is a pure function of *what* is
//! being computed, never of scheduling.
//!
//! Failure model: a panicking cell is contained by the executor; its
//! experiment reports [`ExperimentOutcome::Failed`] (or `Skipped`, for
//! experiments downstream of the failure) while every independent
//! experiment completes normally. [`run_experiments`] never panics on
//! a cell failure — callers that want all-or-nothing semantics use
//! [`run_experiments_strict`].

use crate::misscurves;
use crate::output::Table;
use crate::suite::{assemble_run, run_cell, SuiteRun, CELL_CONFIGS};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tcor::FrameReport;
use tcor_common::{TcorError, TcorResult, TileGrid};
use tcor_runner::{
    execute, execute_serial, ArtifactStore, ExecOptions, FaultPlan, JobCtx, JobGraph, JobId,
    JobOutcome, Telemetry,
};
use tcor_workloads::synth::CalibratedScene;
use tcor_workloads::{suite as benchmarks, BenchmarkProfile};

/// The screen/tile geometry every paper experiment uses.
pub fn paper_grid() -> TileGrid {
    TileGrid::new(1960, 768, 32)
}

/// Stable store key for an artifact described by `desc`.
pub fn artifact_key(desc: &str) -> u64 {
    tcor_common::fxhash64(desc.as_bytes())
}

fn scene_key(profile: &BenchmarkProfile, grid: &TileGrid) -> u64 {
    artifact_key(&format!(
        "scene/{}/seed={:#x}/{}x{}/tile={}",
        profile.alias,
        profile.seed,
        grid.screen_width(),
        grid.screen_height(),
        grid.tile_size()
    ))
}

fn cell_key(profile: &BenchmarkProfile, cfg: &str) -> u64 {
    artifact_key(&format!("cell/{}/{cfg}", profile.alias))
}

/// Store key of the aggregated suite PB traces
/// ([`misscurves::suite_traces`]).
pub const TRACES_DESC: &str = "traces/suite/zorder";

/// Store key of the assembled full-system [`SuiteRun`].
pub const SUITE_DESC: &str = "suite/paper";

/// The calibrated scene of one Table II benchmark, computed once per
/// process and shared by every consumer (suite cells, miss-curve
/// traces, the ablation/scaling/sweep/traversal studies).
///
/// # Errors
///
/// Propagates store corruption (key collision) as a typed error.
pub fn calibrated_scene(
    store: &ArtifactStore,
    profile: &BenchmarkProfile,
    grid: &TileGrid,
) -> TcorResult<Arc<CalibratedScene>> {
    let (p, g) = (*profile, *grid);
    store.get_or_compute(scene_key(profile, grid), move || {
        tcor_workloads::synth::calibrate(&p, &g)
    })
}

/// One full-system cell (benchmark × configuration), memoized.
///
/// # Errors
///
/// Propagates store corruption (key collision) as a typed error.
pub fn cell_report(
    store: &ArtifactStore,
    profile: &BenchmarkProfile,
    scene: &CalibratedScene,
    cfg: &str,
) -> TcorResult<Arc<FrameReport>> {
    store.get_or_compute(cell_key(profile, cfg), || {
        run_cell(profile, &scene.scene, cfg)
    })
}

/// The full Table II suite, assembled from memoized cells. Any cells
/// already computed by the job graph are reused; missing ones are
/// computed here (the serial / on-demand path).
///
/// # Errors
///
/// Propagates store corruption from any scene or cell lookup.
pub fn suite_from_store(store: &ArtifactStore) -> TcorResult<Arc<SuiteRun>> {
    let key = artifact_key(SUITE_DESC);
    if let Some(suite) = store.get::<SuiteRun>(key)? {
        return Ok(suite);
    }
    // Build fallibly *outside* the memoizing closure so store errors
    // propagate as typed results instead of panics.
    let grid = paper_grid();
    let mut runs = Vec::new();
    for p in &benchmarks() {
        let cal = calibrated_scene(store, p, &grid)?;
        let mut cells: Vec<Arc<FrameReport>> = Vec::with_capacity(CELL_CONFIGS.len());
        for cfg in CELL_CONFIGS {
            cells.push(cell_report(store, p, &cal, cfg)?);
        }
        runs.push(assemble_run(p, &cal, |cfg| {
            let i = CELL_CONFIGS
                .iter()
                .position(|c| *c == cfg)
                .expect("assemble_run only asks for CELL_CONFIGS names");
            (*cells[i]).clone()
        }));
    }
    store.get_or_compute(key, move || SuiteRun { benchmarks: runs })
}

/// Whether `id` consumes the full-system [`SuiteRun`].
pub(crate) fn needs_suite(id: &str) -> bool {
    !matches!(
        id,
        "table1"
            | "fig1"
            | "fig10"
            | "fig11"
            | "fig12"
            | "fig13"
            | "fig13x"
            | "ablation"
            | "scaling"
            | "sweep"
            | "traversal"
    )
}

/// Whether `id` consumes the aggregated suite PB traces.
fn needs_traces(id: &str) -> bool {
    matches!(id, "fig1" | "fig11" | "fig12" | "fig13" | "fig13x")
}

/// Whether `id` reads calibrated scenes directly (outside suite/traces).
fn needs_scenes(id: &str) -> bool {
    matches!(id, "ablation" | "scaling" | "sweep" | "traversal")
}

/// How to execute a job graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Reference path: every job in id order on the calling thread.
    #[default]
    Serial,
    /// Work-stealing pool with this many workers.
    Parallel(usize),
}

/// Everything that shapes one run besides the experiment list.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Serial reference path or the work-stealing pool.
    pub mode: ExecMode,
    /// Wall-time budget per job; over-budget jobs are flagged by the
    /// watchdog (they are never killed — results stay deterministic).
    pub job_timeout: Option<Duration>,
    /// Deterministic fault injection (`--inject-faults <seed>`).
    pub fault_plan: Option<FaultPlan>,
}

/// How one requested experiment ended.
#[derive(Clone, Debug)]
pub enum ExperimentOutcome {
    /// Completed; its rendered tables.
    Tables(Vec<Table>),
    /// Its job panicked (or returned a typed error).
    Failed {
        /// The panic message or error rendering.
        message: String,
    },
    /// Not attempted: an upstream scene/cell/suite job failed.
    Skipped {
        /// Label of the failed dependency.
        dep_label: String,
    },
}

impl ExperimentOutcome {
    /// The tables, if the experiment completed.
    pub fn tables(self) -> Option<Vec<Table>> {
        match self {
            ExperimentOutcome::Tables(t) => Some(t),
            _ => None,
        }
    }
}

/// The result of one (fault-tolerant) run over a set of experiments.
#[derive(Debug)]
pub struct RunOutcome {
    /// `(id, outcome)` in input order — every requested id appears,
    /// completed or not.
    pub experiments: Vec<(String, ExperimentOutcome)>,
    /// The executor's structured failure report (panics, skips,
    /// watchdog flags), when any job misbehaved.
    pub failure_summary: Option<String>,
    /// Labels of jobs the watchdog flagged as over budget.
    pub timed_out: Vec<String>,
}

impl RunOutcome {
    /// Whether every requested experiment produced tables.
    pub fn all_ok(&self) -> bool {
        self.experiments
            .iter()
            .all(|(_, o)| matches!(o, ExperimentOutcome::Tables(_)))
    }

    /// Ids that did not complete, with a one-line reason each.
    pub fn failed_ids(&self) -> Vec<(String, String)> {
        self.experiments
            .iter()
            .filter_map(|(id, o)| match o {
                ExperimentOutcome::Tables(_) => None,
                ExperimentOutcome::Failed { message } => Some((id.clone(), message.clone())),
                ExperimentOutcome::Skipped { dep_label } => Some((
                    id.clone(),
                    format!("skipped: dependency `{dep_label}` failed"),
                )),
            })
            .collect()
    }
}

/// Runs `ids` through the job graph and reports per-experiment
/// outcomes in input order. Shared artifacts are computed once; with
/// [`ExecMode::Parallel`] independent cells and experiments run
/// concurrently, and completed output is identical to
/// [`ExecMode::Serial`]. A panicking job (organic or injected via
/// [`RunOptions::fault_plan`]) fails its experiment and skips its
/// dependents; independent experiments complete.
///
/// # Errors
///
/// Returns a config error listing the valid ids if any id is unknown.
/// Job failures are *not* errors here — they are reported per
/// experiment in the [`RunOutcome`].
pub fn run_experiments(
    ids: &[String],
    opts: &RunOptions,
    store: &ArtifactStore,
    telemetry: &Telemetry,
) -> TcorResult<RunOutcome> {
    for id in ids {
        if !crate::EXPERIMENTS.contains(&id.as_str()) {
            return Err(TcorError::config(format!(
                "unknown experiment `{id}`\nvalid experiments: {}",
                crate::EXPERIMENTS.join(", ")
            )));
        }
    }

    let grid = paper_grid();
    let profiles = benchmarks();
    let want_suite = ids.iter().any(|id| needs_suite(id));
    let want_traces = ids.iter().any(|id| needs_traces(id));
    let want_scenes = want_suite || want_traces || ids.iter().any(|id| needs_scenes(id));

    type JobResult = TcorResult<Option<(usize, Vec<Table>)>>;
    let mut g: JobGraph<'_, JobResult> = JobGraph::new();

    // Tier 1: one calibration job per benchmark scene.
    let mut scene_ids: Vec<JobId> = Vec::new();
    if want_scenes {
        for p in &profiles {
            let (p, grid) = (*p, grid);
            scene_ids.push(g.add_job(
                format!("scene:{}", p.alias),
                &[],
                move |ctx: &JobCtx<'_>| {
                    let cal = calibrated_scene(ctx.store(), &p, &grid)?;
                    ctx.counter("prims", cal.num_prims as u64);
                    Ok(None)
                },
            ));
        }
    }

    // Tier 2a: the aggregated PB traces (miss-curve substrate).
    let traces_job = want_traces.then(|| {
        g.add_job("traces:suite", &scene_ids, |ctx: &JobCtx<'_>| {
            let traces = misscurves::suite_traces(ctx.store())?;
            ctx.counter(
                "trace_accesses",
                traces.iter().map(|b| b.trace.len() as u64).sum(),
            );
            Ok(None)
        })
    });

    // Tier 2b: the 60 full-system cells, each depending only on its
    // scene, then one assembly barrier producing the SuiteRun.
    let suite_job = want_suite.then(|| {
        let mut cells = Vec::with_capacity(profiles.len() * CELL_CONFIGS.len());
        for (p, sid) in profiles.iter().zip(&scene_ids) {
            for cfg in CELL_CONFIGS {
                let (p, grid) = (*p, grid);
                cells.push(g.add_job(
                    format!("cell:{}/{cfg}", p.alias),
                    &[*sid],
                    move |ctx: &JobCtx<'_>| {
                        let cal = calibrated_scene(ctx.store(), &p, &grid)?;
                        let r = cell_report(ctx.store(), &p, &cal, cfg)?;
                        ctx.counter("pb_l2_accesses", r.pb_l2_accesses());
                        ctx.counter("pb_mm_accesses", r.pb_mm_accesses());
                        ctx.counter("l2_hits", r.l2_stats.hits());
                        ctx.counter("l2_misses", r.l2_stats.misses());
                        Ok(None)
                    },
                ));
            }
        }
        g.add_job("suite:assemble", &cells, |ctx: &JobCtx<'_>| {
            let suite = suite_from_store(ctx.store())?;
            ctx.counter("benchmarks", suite.benchmarks.len() as u64);
            Ok(None)
        })
    });

    // Tier 3: the experiments themselves, in input order.
    let mut exp_jobs: Vec<JobId> = Vec::with_capacity(ids.len());
    for (idx, id) in ids.iter().enumerate() {
        let mut deps = Vec::new();
        if needs_suite(id) {
            deps.extend(suite_job);
        }
        if needs_traces(id) {
            deps.extend(traces_job);
        }
        if needs_scenes(id) {
            deps.extend_from_slice(&scene_ids);
        }
        let id = id.clone();
        exp_jobs.push(
            g.add_job(format!("exp:{id}"), &deps, move |ctx: &JobCtx<'_>| {
                let tables = crate::try_run_experiment(ctx.store(), &id)?;
                // Miss-curve experiments publish how many times they
                // streamed the suite; surface it on the job-end event.
                if let Some(n) = misscurves::trace_passes(ctx.store(), &id) {
                    ctx.counter("trace_passes", n);
                }
                Ok(Some((idx, tables)))
            }),
        );
    }

    telemetry.enable_progress(g.len());
    let exec_opts = ExecOptions {
        job_timeout: opts.job_timeout,
        fault_plan: opts.fault_plan.clone(),
    };
    // Tell the miss-curve engine how many workers its per-geometry
    // replays may scatter across: serial runs stay strictly serial
    // (bit-identity is then trivially preserved), parallel runs may use
    // the pool width.
    misscurves::set_engine_workers(
        store,
        match opts.mode {
            ExecMode::Serial => 1,
            ExecMode::Parallel(workers) => workers.max(1),
        },
    )?;
    let report = match opts.mode {
        ExecMode::Serial => execute_serial(g, &exec_opts, store, telemetry),
        ExecMode::Parallel(workers) => execute(g, workers, &exec_opts, store, telemetry),
    };

    let failure_summary = (!report.all_completed()).then(|| report.failure_summary());
    let timed_out = report
        .timed_out
        .iter()
        .filter_map(|&j| report.labels.get(j).cloned())
        .collect();
    let owner: HashMap<usize, usize> = exp_jobs
        .iter()
        .enumerate()
        .map(|(input_idx, jid)| (jid.0, input_idx))
        .collect();
    let labels = report.labels;
    let mut experiments: Vec<Option<(String, ExperimentOutcome)>> =
        ids.iter().map(|_| None).collect();
    for (job_idx, outcome) in report.outcomes.into_iter().enumerate() {
        let Some(&input_idx) = owner.get(&job_idx) else {
            continue; // scene/trace/cell/assembly jobs: errors cascade
                      // to the experiments that consume them.
        };
        let out = match outcome {
            JobOutcome::Completed(Ok(Some((idx, tables)))) => {
                debug_assert_eq!(idx, input_idx);
                ExperimentOutcome::Tables(tables)
            }
            // Experiment jobs always return `Some` on success; treat a
            // bare `None` as a failure rather than fabricating tables.
            JobOutcome::Completed(Ok(None)) => ExperimentOutcome::Failed {
                message: "experiment job produced no tables".to_string(),
            },
            JobOutcome::Completed(Err(e)) => ExperimentOutcome::Failed {
                message: e.to_string(),
            },
            JobOutcome::Failed { panic_msg } => ExperimentOutcome::Failed { message: panic_msg },
            JobOutcome::Skipped { failed_dep } => ExperimentOutcome::Skipped {
                dep_label: labels.get(failed_dep).cloned().unwrap_or_default(),
            },
        };
        experiments[input_idx] = Some((ids[input_idx].clone(), out));
    }
    Ok(RunOutcome {
        experiments: experiments.into_iter().flatten().collect(),
        failure_summary,
        timed_out,
    })
}

/// All-or-nothing wrapper over [`run_experiments`]: any failed or
/// skipped experiment becomes a typed execution error. This is the
/// path tests and benchmarks use.
///
/// # Errors
///
/// Config error on unknown ids; execution error (with the executor's
/// failure report) if any experiment did not complete.
pub fn run_experiments_strict(
    ids: &[String],
    mode: ExecMode,
    store: &ArtifactStore,
    telemetry: &Telemetry,
) -> TcorResult<Vec<(String, Vec<Table>)>> {
    let opts = RunOptions {
        mode,
        ..RunOptions::default()
    };
    let out = run_experiments(ids, &opts, store, telemetry)?;
    if !out.all_ok() {
        let mut msg = String::from("experiment run failed:");
        for (id, reason) in out.failed_ids() {
            msg.push_str(&format!("\n  {id}: {reason}"));
        }
        if let Some(summary) = &out.failure_summary {
            msg.push('\n');
            msg.push_str(summary);
        }
        return Err(TcorError::execution(msg));
    }
    Ok(out
        .experiments
        .into_iter()
        .filter_map(|(id, o)| o.tables().map(|t| (id, t)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_keys_distinguish_benchmarks_and_grids() {
        let profiles = benchmarks();
        let g1 = paper_grid();
        let g2 = TileGrid::new(256, 256, 32);
        let mut keys: Vec<u64> = profiles.iter().map(|p| scene_key(p, &g1)).collect();
        keys.extend(profiles.iter().map(|p| scene_key(p, &g2)));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 2 * profiles.len());
    }

    #[test]
    fn calibrated_scene_is_shared() {
        let store = ArtifactStore::new();
        let grid = TileGrid::new(256, 256, 32);
        let p = benchmarks()[9]; // GTr: smallest
        let a = calibrated_scene(&store, &p, &grid).unwrap();
        let b = calibrated_scene(&store, &p, &grid).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.computes(), 1);
    }

    #[test]
    fn unknown_ids_are_rejected_with_the_valid_list() {
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        let err = run_experiments(&["fig999".to_string()], &RunOptions::default(), &store, &t)
            .unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Config);
        let msg = err.to_string();
        assert!(msg.contains("fig999"));
        assert!(msg.contains("fig14"));
    }

    #[test]
    fn cheap_experiments_run_through_the_graph() {
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        let out = run_experiments_strict(
            &["table1".to_string(), "fig10".to_string()],
            ExecMode::Parallel(2),
            &store,
            &t,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, "table1");
        assert_eq!(out[1].0, "fig10");
        assert!(!out[0].1.is_empty() && !out[1].1.is_empty());
    }

    #[test]
    fn an_injected_experiment_panic_is_contained() {
        let store = ArtifactStore::new();
        let t = Telemetry::new();
        let opts = RunOptions {
            fault_plan: Some(FaultPlan::panic_on("exp:table1")),
            ..RunOptions::default()
        };
        let ids = vec!["table1".to_string(), "fig10".to_string()];
        let out = run_experiments(&ids, &opts, &store, &t).unwrap();
        assert!(!out.all_ok());
        match &out.experiments[0].1 {
            ExperimentOutcome::Failed { message } => {
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("expected table1 to fail, got {other:?}"),
        }
        assert!(
            matches!(&out.experiments[1].1, ExperimentOutcome::Tables(t) if !t.is_empty()),
            "independent experiment must complete"
        );
        assert!(out.failure_summary.is_some());
        // The strict wrapper turns the same situation into an error.
        let err = run_experiments_strict(&ids, ExecMode::Serial, &store, &t);
        assert!(err.is_ok(), "no fault plan: strict path passes");
    }
}
