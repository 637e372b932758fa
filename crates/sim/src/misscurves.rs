//! The replacement-policy studies: Figures 1, 11, 12 and 13.
//!
//! All four figures plot miss ratio against Attribute Cache capacity over
//! the aggregated PB-Attributes access streams of the benchmark suite, at
//! primitive granularity (§V.A's capacity conversion: a primitive
//! averages 3 attributes × 64 B = 192 B).
//!
//! The figures run on a **single-pass engine**: fully associative
//! LRU/OPT come off Mattson stack profilers (one trace pass yields every
//! capacity); every other sweep — set-associative, cross-set policies and
//! Hawkeye alike — replays each geometry once, with static policy
//! dispatch, scattered across the engine workers; and each benchmark's
//! next-use annotation is computed once and shared by every figure. The
//! pre-engine per-(policy, capacity) replay is retained as
//! [`CurveEngine::Replay`] — the reference that `bench-misscurves` and
//! the equivalence tests pin the engine against, bit for bit.

use crate::orchestrate::{artifact_key, calibrated_scene, paper_grid, TRACES_DESC};
use crate::output::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tcor_cache::policy::{by_name, simulate_hawkeye, Opt};
use tcor_cache::profile::{
    opt_misses, simulate_policy, simulate_policy_annotated, LruStackProfiler, OptStackProfiler,
};
use tcor_cache::{annotate_next_use, Indexing, ShardCache, Trace};
use tcor_common::{CacheParams, TcorError, TcorResult};
use tcor_gpu::bin_scene;
use tcor_runner::{scatter, ArtifactStore};
use tcor_workloads::{primitive_trace, prims_capacity, suite};

/// One benchmark's trace plus its primitive count and shared annotation.
pub struct BenchTrace {
    /// Table II alias.
    pub alias: &'static str,
    /// The primitive-granularity PB-Attributes trace.
    pub trace: Trace,
    /// [`annotate_next_use`] of `trace`, computed once and shared by
    /// every figure that needs oracle metadata.
    pub next_use: Vec<u64>,
    /// Total primitives (TP in the lower-bound formula).
    pub total_prims: usize,
    /// A memo of per-set bucketings of `trace` (see
    /// [`tcor_cache::shard`]) for callers that replay set by set. The
    /// miss-curve engine replays whole caches and never fills it, so it
    /// stays empty unless such a caller uses it.
    pub shards: ShardCache,
}

impl BenchTrace {
    /// Builds a benchmark trace, annotating it once.
    pub fn new(alias: &'static str, trace: Trace, total_prims: usize) -> Self {
        let next_use = annotate_next_use(&trace);
        BenchTrace {
            alias,
            trace,
            next_use,
            total_prims,
            shards: ShardCache::new(),
        }
    }
}

/// Which computational engine drives the miss-curve experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CurveEngine {
    /// The production path: stack profilers answer fully associative
    /// LRU/OPT in one trace pass; every other sweep replays each geometry
    /// once, with static policy dispatch and the shared OPT annotation,
    /// scattered across the engine workers.
    SinglePass,
    /// One full replay per (policy, capacity), re-annotating where the
    /// pre-engine code did. Retained as the reference implementation for
    /// `bench-misscurves` and the equivalence tests.
    Replay,
}

/// Builds the suite's traces (deterministic), memoized in `store` and
/// sharing each benchmark's calibrated scene with the full-system cells.
/// The memoized value includes each trace's next-use annotation, so
/// fig1/fig11/fig12/fig13/fig13x annotate each benchmark exactly once.
///
/// # Errors
///
/// Propagates store corruption from the scene lookups.
pub fn suite_traces(store: &ArtifactStore) -> TcorResult<Arc<Vec<BenchTrace>>> {
    let key = artifact_key(TRACES_DESC);
    if let Some(traces) = store.get::<Vec<BenchTrace>>(key)? {
        return Ok(traces);
    }
    // Build fallibly outside the memoizing closure so scene-lookup
    // errors propagate as typed results instead of panics.
    let grid = paper_grid();
    let order = tcor_common::Traversal::ZOrder.order(&grid);
    let mut built = Vec::new();
    for b in &suite() {
        let cal = calibrated_scene(store, b, &grid)?;
        let frame = bin_scene(&cal.scene, &grid, &order);
        built.push(BenchTrace::new(
            b.alias,
            primitive_trace(&frame.binned, &order),
            frame.binned.num_primitives(),
        ));
    }
    store.get_or_compute(key, move || built)
}

/// Replacement policies the serving plane accepts for
/// `/v1/misscurve/{workload}/{policy}`: every name
/// [`by_name`] resolves, plus the PC-free Hawkeye variant.
pub const SERVE_POLICIES: [&str; 14] = [
    "lru", "mru", "fifo", "random", "plru", "nru", "lip", "bip", "dip", "srrip", "brrip", "drrip",
    "opt", "hawkeye",
];

/// One benchmark's trace, memoized in `store` under its own key so a
/// single-workload query (the serving plane's unit of work) never
/// builds the other nine scenes the way [`suite_traces`] does. Shares
/// the calibrated scene with the full-system cells.
///
/// # Errors
///
/// Returns a config error listing the valid aliases on an unknown
/// workload, and propagates store corruption from the scene lookup.
pub fn workload_trace(store: &ArtifactStore, alias: &str) -> TcorResult<Arc<BenchTrace>> {
    let Some(profile) = suite().into_iter().find(|b| b.alias == alias) else {
        let known: Vec<&str> = suite().iter().map(|b| b.alias).collect();
        return Err(TcorError::config(format!(
            "unknown workload `{alias}` (expected one of {})",
            known.join(", ")
        )));
    };
    let key = artifact_key(&format!("trace/{alias}/zorder"));
    if let Some(trace) = store.get::<BenchTrace>(key)? {
        return Ok(trace);
    }
    let grid = paper_grid();
    let order = tcor_common::Traversal::ZOrder.order(&grid);
    let cal = calibrated_scene(store, &profile, &grid)?;
    let frame = bin_scene(&cal.scene, &grid, &order);
    let built = BenchTrace::new(
        profile.alias,
        primitive_trace(&frame.binned, &order),
        frame.binned.num_primitives(),
    );
    store.get_or_compute(key, move || built)
}

/// The serving plane's miss curve: one workload, one policy, the
/// paper's 8–152 KB capacity sweep. Fully associative for every
/// [`by_name`] policy (the stack profilers answer LRU/OPT in one trace
/// pass); Hawkeye runs on its native 4-way geometry. Returns
/// `(size_kb, miss_ratio)` columns.
///
/// # Errors
///
/// Returns a config error for an unknown workload or policy.
pub fn workload_curve(
    store: &ArtifactStore,
    alias: &str,
    policy: &str,
) -> TcorResult<(Vec<usize>, Vec<f64>)> {
    if !SERVE_POLICIES.contains(&policy) {
        return Err(TcorError::config(format!(
            "unknown policy `{policy}` (expected one of {})",
            SERVE_POLICIES.join(", ")
        )));
    }
    let bt = workload_trace(store, alias)?;
    let sizes = kb_sizes(8, 152, 8);
    let ways = if policy == "hawkeye" { 4 } else { 0 };
    // The serving plane answers one workload per request: curves stay
    // strictly serial (workers = 1) so request latency is predictable.
    let curve = policy_curve(
        std::slice::from_ref(bt.as_ref()),
        &prim_caps(&sizes),
        ways,
        policy,
        CurveEngine::SinglePass,
        1,
        &mut 0,
    );
    Ok((sizes, curve))
}

fn passes_key(id: &str) -> u64 {
    artifact_key(&format!("misscurves/passes/{id}"))
}

/// Publishes the suite-level trace-pass count of experiment `id` into the
/// store, where the orchestrator picks it up as a telemetry counter.
fn record_trace_passes(store: &ArtifactStore, id: &str, passes: u64) -> TcorResult<()> {
    let cell = store.get_or_compute(passes_key(id), || AtomicU64::new(0))?;
    cell.store(passes, Ordering::Relaxed);
    Ok(())
}

/// Trace passes recorded by the most recent run of experiment `id` in
/// this store (one pass = one full streaming of every benchmark trace).
pub fn trace_passes(store: &ArtifactStore, id: &str) -> Option<u64> {
    store
        .get::<AtomicU64>(passes_key(id))
        .ok()
        .flatten()
        .map(|c| c.load(Ordering::Relaxed))
}

fn engine_workers_key() -> u64 {
    artifact_key("misscurves/engine-workers")
}

/// Publishes the worker count the miss-curve engine may scatter its
/// per-geometry replays across. The orchestrator sets this from the
/// execution mode (1 for `--serial`, the pool width for parallel runs);
/// unset, the engine stays strictly serial.
///
/// # Errors
///
/// Propagates store corruption.
pub fn set_engine_workers(store: &ArtifactStore, workers: usize) -> TcorResult<()> {
    let cell = store.get_or_compute(engine_workers_key(), || AtomicU64::new(1))?;
    cell.store(workers.max(1) as u64, Ordering::Relaxed);
    Ok(())
}

/// The worker count published by [`set_engine_workers`] (1 when unset).
pub fn engine_workers(store: &ArtifactStore) -> usize {
    store
        .get::<AtomicU64>(engine_workers_key())
        .ok()
        .flatten()
        .map(|c| c.load(Ordering::Relaxed) as usize)
        .unwrap_or(1)
        .max(1)
}

/// Set-associative geometry for a capacity of `c` primitives.
///
/// The line count rounds *down* to a whole number of sets. When
/// `c < ways` the cache degenerates to a single `c`-way set — exactly the
/// requested capacity — instead of silently inflating to one full set of
/// `ways` lines as the pre-PR-4 rounding did. (The paper's sweeps never
/// enter that region: their smallest capacity, 8 KB ≈ 42 primitives,
/// exceeds every associativity studied.)
fn geometry(c: usize, ways: u32) -> CacheParams {
    let lines = c.max(1) as u64;
    if ways == 0 {
        CacheParams::new(lines, 1, 0, 1)
    } else if lines <= ways as u64 {
        CacheParams::new(lines, 1, lines as u32, 1)
    } else {
        CacheParams::new((lines / ways as u64) * ways as u64, 1, ways, 1)
    }
}

fn total_accesses(traces: &[BenchTrace]) -> u64 {
    traces.iter().map(|b| b.trace.len() as u64).sum()
}

/// Aggregate LRU miss ratio at each capacity: one Mattson pass per
/// benchmark gives every size at once (this was already single-pass
/// before the engine; both engines share it).
fn lru_curve(traces: &[BenchTrace], capacities: &[usize], passes: &mut u64) -> Vec<f64> {
    *passes += 1;
    let profilers: Vec<LruStackProfiler> = traces
        .iter()
        .map(|b| {
            let mut p = LruStackProfiler::new();
            for a in &b.trace {
                p.record(a.addr);
            }
            p
        })
        .collect();
    let total = total_accesses(traces);
    capacities
        .iter()
        .map(|&c| {
            let misses: u64 = profilers.iter().map(|p| p.misses_at(c)).sum();
            misses as f64 / total as f64
        })
        .collect()
}

/// Aggregate exact-Belady miss ratio per capacity: one OPT stack pass per
/// benchmark, or (replay engine) one self-annotating replay per capacity.
fn opt_curve(
    traces: &[BenchTrace],
    capacities: &[usize],
    engine: CurveEngine,
    passes: &mut u64,
) -> Vec<f64> {
    let total = total_accesses(traces);
    match engine {
        CurveEngine::SinglePass => {
            *passes += 1;
            let profilers: Vec<OptStackProfiler> = traces
                .iter()
                .map(|b| OptStackProfiler::profile(&b.trace, &b.next_use))
                .collect();
            capacities
                .iter()
                .map(|&c| {
                    let misses: u64 = profilers.iter().map(|p| p.misses_at(c)).sum();
                    misses as f64 / total as f64
                })
                .collect()
        }
        CurveEngine::Replay => {
            *passes += capacities.len() as u64;
            capacities
                .iter()
                .map(|&c| {
                    let misses: u64 = traces.iter().map(|b| opt_misses(&b.trace, c)).sum();
                    misses as f64 / total as f64
                })
                .collect()
        }
    }
}

/// Aggregate lower-bound ratio (§V.A) per capacity (arithmetic only — no
/// trace pass).
fn lb_curve(traces: &[BenchTrace], capacities: &[usize]) -> Vec<f64> {
    let total = total_accesses(traces);
    capacities
        .iter()
        .map(|&c| {
            let misses: u64 = traces
                .iter()
                .map(|b| tcor_workloads::trace::lower_bound_misses(b.total_prims, c))
                .sum();
            misses as f64 / total as f64
        })
        .collect()
}

/// Miss count of one benchmark trace on one geometry, replayed by the
/// single-pass engine: static policy dispatch (the replay loop
/// monomorphizes per policy type instead of paying a virtual call per
/// access), and OPT reuses the shared annotation instead of re-deriving
/// it the way [`CurveEngine::Replay`] does.
fn geometry_misses(b: &BenchTrace, params: CacheParams, policy: &str) -> u64 {
    let stats = match policy {
        "opt" => {
            simulate_policy_annotated(&b.trace, &b.next_use, params, Indexing::Modulo, Opt::new())
        }
        // `simulate_hawkeye` feeds each access its address, Hawkeye's
        // training signal.
        "hawkeye" => simulate_hawkeye(&b.trace, params),
        _ => tcor_cache::dispatch_policy!(policy, make => {
            simulate_policy(&b.trace, params, Indexing::Modulo, make(), false)
        }),
    };
    stats.misses()
}

/// Aggregate miss ratio of a named policy (any of [`SERVE_POLICIES`])
/// on a set-associative geometry (capacity in primitives, `ways == 0`
/// for fully associative).
///
/// Single-pass engine: fully associative LRU/OPT read straight off the
/// stack profilers; every other sweep replays each geometry once over
/// every trace, one [`scatter`] task per geometry across `workers`.
/// Measured against the interleaved capacity bank and per-set sharded
/// replay, this one path ties the bank on one worker and beats both on
/// two (DESIGN.md, "One miss-curve path"). Replay engine: one boxed-policy
/// simulation per (capacity, benchmark), re-annotating per capacity for
/// OPT. Both engines are bit-identical.
fn policy_curve(
    traces: &[BenchTrace],
    capacities: &[usize],
    ways: u32,
    policy: &str,
    engine: CurveEngine,
    workers: usize,
    passes: &mut u64,
) -> Vec<f64> {
    let total = total_accesses(traces);
    let geoms: Vec<CacheParams> = capacities.iter().map(|&c| geometry(c, ways)).collect();
    let misses: Vec<u64> = match engine {
        CurveEngine::Replay => {
            *passes += capacities.len() as u64;
            geoms
                .iter()
                .map(|&params| {
                    traces
                        .iter()
                        .map(|b| {
                            let stats = match policy {
                                "opt" => simulate_policy(
                                    &b.trace,
                                    params,
                                    Indexing::Modulo,
                                    Opt::new(),
                                    true,
                                ),
                                "hawkeye" => simulate_hawkeye(&b.trace, params),
                                _ => simulate_policy(
                                    &b.trace,
                                    params,
                                    Indexing::Modulo,
                                    by_name(policy),
                                    false,
                                ),
                            };
                            stats.misses()
                        })
                        .sum()
                })
                .collect()
        }
        // One dispatch for both profiler-backed fully-associative
        // curves: a single arm can't let the lru and opt special cases
        // silently diverge from the replayed path (or each other) again.
        CurveEngine::SinglePass if ways == 0 && matches!(policy, "lru" | "opt") => {
            return match policy {
                "lru" => lru_curve(traces, capacities, passes),
                _ => opt_curve(traces, capacities, CurveEngine::SinglePass, passes),
            };
        }
        CurveEngine::SinglePass => {
            *passes += geoms.len() as u64;
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = geoms
                .iter()
                .map(|&params| {
                    Box::new(move || {
                        traces
                            .iter()
                            .map(|b| geometry_misses(b, params, policy))
                            .sum()
                    }) as Box<dyn FnOnce() -> u64 + Send + '_>
                })
                .collect();
            scatter(workers, tasks)
        }
    };
    misses.iter().map(|&m| m as f64 / total as f64).collect()
}

fn kb_sizes(from_kb: usize, to_kb: usize, step_kb: usize) -> Vec<usize> {
    (from_kb..=to_kb).step_by(step_kb).collect()
}

fn prim_caps(sizes: &[usize]) -> Vec<usize> {
    sizes
        .iter()
        .map(|kb| prims_capacity(*kb as u64 * 1024))
        .collect()
}

/// Figure 1: LRU vs OPT, fully associative, 8–152 KB.
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig1(store: &ArtifactStore) -> TcorResult<Table> {
    let (t, passes) = fig1_engine(store, CurveEngine::SinglePass)?;
    record_trace_passes(store, "fig1", passes)?;
    Ok(t)
}

/// [`fig1`] on an explicit engine, returning the table and its
/// suite-level trace-pass count.
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig1_engine(store: &ArtifactStore, engine: CurveEngine) -> TcorResult<(Table, u64)> {
    let traces = suite_traces(store)?;
    let sizes = kb_sizes(8, 152, 8);
    let caps = prim_caps(&sizes);
    let mut passes = 0u64;
    let lru = lru_curve(&traces, &caps, &mut passes);
    let opt = opt_curve(&traces, &caps, engine, &mut passes);
    let mut t = Table::new(
        "fig1",
        "LRU and OPT miss ratio, fully associative L1 (suite aggregate)",
        &["size_kb", "lru", "opt"],
    );
    for ((kb, l), o) in sizes.iter().zip(&lru).zip(&opt) {
        t.push_row(vec![kb.to_string(), format!("{l:.4}"), format!("{o:.4}")]);
    }
    Ok((t, passes))
}

/// Figure 11: adds the lower bound and extends to 456 KB.
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig11(store: &ArtifactStore) -> TcorResult<Table> {
    let (t, passes) = fig11_engine(store, CurveEngine::SinglePass)?;
    record_trace_passes(store, "fig11", passes)?;
    Ok(t)
}

/// [`fig11`] on an explicit engine, returning the table and its
/// suite-level trace-pass count.
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig11_engine(store: &ArtifactStore, engine: CurveEngine) -> TcorResult<(Table, u64)> {
    let traces = suite_traces(store)?;
    let sizes = kb_sizes(8, 456, 16);
    let caps = prim_caps(&sizes);
    let mut passes = 0u64;
    let lb = lb_curve(&traces, &caps);
    let lru = lru_curve(&traces, &caps, &mut passes);
    let opt = opt_curve(&traces, &caps, engine, &mut passes);
    let mut t = Table::new(
        "fig11",
        "Lower bound, LRU and OPT miss ratio, fully associative L1",
        &["size_kb", "lower_bound", "lru", "opt"],
    );
    for (((kb, b), l), o) in sizes.iter().zip(&lb).zip(&lru).zip(&opt) {
        t.push_row(vec![
            kb.to_string(),
            format!("{b:.4}"),
            format!("{l:.4}"),
            format!("{o:.4}"),
        ]);
    }
    Ok((t, passes))
}

/// Figure 12: LRU and OPT across associativities (two tables).
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig12(store: &ArtifactStore) -> TcorResult<Vec<Table>> {
    let (tables, passes) = fig12_engine(store, CurveEngine::SinglePass)?;
    record_trace_passes(store, "fig12", passes)?;
    Ok(tables)
}

/// [`fig12`] on an explicit engine, returning the tables and their
/// suite-level trace-pass count.
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig12_engine(store: &ArtifactStore, engine: CurveEngine) -> TcorResult<(Vec<Table>, u64)> {
    let traces = suite_traces(store)?;
    let sizes = kb_sizes(8, 152, 16);
    let caps = prim_caps(&sizes);
    let lb = lb_curve(&traces, &caps);
    let assocs: [(u32, &str); 5] = [
        (1, "direct"),
        (2, "assoc2"),
        (4, "assoc4"),
        (8, "assoc8"),
        (0, "full"),
    ];
    let workers = engine_workers(store);
    let mut passes = 0u64;
    let mut out = Vec::new();
    for (policy, id) in [("lru", "fig12-lru"), ("opt", "fig12-opt")] {
        let mut cols = vec!["size_kb".to_string(), "lower_bound".to_string()];
        cols.extend(assocs.iter().map(|(_, n)| n.to_string()));
        let mut t = Table {
            id: id.to_string(),
            title: format!("{policy} miss ratio across associativities"),
            columns: cols,
            rows: Vec::new(),
        };
        let curves: Vec<Vec<f64>> = assocs
            .iter()
            .map(|(w, _)| policy_curve(&traces, &caps, *w, policy, engine, workers, &mut passes))
            .collect();
        for (i, kb) in sizes.iter().enumerate() {
            let mut row = vec![kb.to_string(), format!("{:.4}", lb[i])];
            row.extend(curves.iter().map(|c| format!("{:.4}", c[i])));
            t.push_row(row);
        }
        out.push(t);
    }
    Ok((out, passes))
}

/// Figure 13: LRU, MRU, DRRIP and OPT in a 4-way cache, plus the lower
/// bound.
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig13(store: &ArtifactStore) -> TcorResult<Table> {
    let (t, passes) = fig13_engine(store, CurveEngine::SinglePass)?;
    record_trace_passes(store, "fig13", passes)?;
    Ok(t)
}

/// [`fig13`] on an explicit engine, returning the table and its
/// suite-level trace-pass count.
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig13_engine(store: &ArtifactStore, engine: CurveEngine) -> TcorResult<(Table, u64)> {
    let traces = suite_traces(store)?;
    let sizes = kb_sizes(40, 160, 8);
    let caps = prim_caps(&sizes);
    let lb = lb_curve(&traces, &caps);
    let policies = ["mru", "drrip", "lru", "opt"];
    let workers = engine_workers(store);
    let mut passes = 0u64;
    let curves: Vec<Vec<f64>> = policies
        .iter()
        .map(|p| policy_curve(&traces, &caps, 4, p, engine, workers, &mut passes))
        .collect();
    let mut t = Table::new(
        "fig13",
        "MRU, DRRIP, LRU and OPT miss ratio in a 4-way L1",
        &["size_kb", "lower_bound", "mru", "drrip", "lru", "opt"],
    );
    for (i, kb) in sizes.iter().enumerate() {
        let mut row = vec![kb.to_string(), format!("{:.4}", lb[i])];
        row.extend(curves.iter().map(|c| format!("{:.4}", c[i])));
        t.push_row(row);
    }
    Ok((t, passes))
}

/// Figure 13 extended: every policy in the toolbox (including the
/// LIP/BIP/DIP insertion family and the PC-less Hawkeye) against OPT and
/// the lower bound, 4-way.
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig13x(store: &ArtifactStore) -> TcorResult<Table> {
    let (t, passes) = fig13x_engine(store, CurveEngine::SinglePass)?;
    record_trace_passes(store, "fig13x", passes)?;
    Ok(t)
}

/// [`fig13x`] on an explicit engine, returning the table and its
/// suite-level trace-pass count.
///
/// # Errors
///
/// Propagates store corruption.
pub fn fig13x_engine(store: &ArtifactStore, engine: CurveEngine) -> TcorResult<(Table, u64)> {
    let traces = suite_traces(store)?;
    let sizes = kb_sizes(48, 144, 32);
    let caps = prim_caps(&sizes);
    let lb = lb_curve(&traces, &caps);
    let policies = [
        "random", "fifo", "mru", "nru", "plru", "lip", "bip", "dip", "srrip", "brrip", "drrip",
        "lru", "hawkeye", "opt",
    ];
    let workers = engine_workers(store);
    let mut passes = 0u64;
    let curves: Vec<Vec<f64>> = policies
        .iter()
        .map(|p| policy_curve(&traces, &caps, 4, p, engine, workers, &mut passes))
        .collect();
    let columns: Vec<&str> = ["size_kb", "lower_bound"]
        .into_iter()
        .chain(policies)
        .collect();
    let mut t = Table::new(
        "fig13x",
        "Extended policy comparison (4-way): the full toolbox vs OPT",
        &columns,
    );
    for (i, kb) in sizes.iter().enumerate() {
        let mut row = vec![kb.to_string(), format!("{:.4}", lb[i])];
        row.extend(curves.iter().map(|c| format!("{:.4}", c[i])));
        t.push_row(row);
    }
    Ok((t, passes))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced trace set for fast shape checks.
    fn mini_traces() -> Vec<BenchTrace> {
        let grid = tcor_common::TileGrid::new(1960, 768, 32);
        suite()[..2]
            .iter()
            .map(|b| {
                let scene = tcor_workloads::generate_scene(b, &grid);
                let order = tcor_common::Traversal::ZOrder.order(&grid);
                let frame = bin_scene(&scene, &grid, &order);
                BenchTrace::new(
                    b.alias,
                    primitive_trace(&frame.binned, &order),
                    frame.binned.num_primitives(),
                )
            })
            .collect()
    }

    fn sp(traces: &[BenchTrace], caps: &[usize], ways: u32, policy: &str) -> Vec<f64> {
        let mut p = 0;
        policy_curve(
            traces,
            caps,
            ways,
            policy,
            CurveEngine::SinglePass,
            1,
            &mut p,
        )
    }

    /// Manual profiling aid for the per-geometry replay: per-policy
    /// replay-vs-single-pass wall times on the real fig13x workload.
    /// Run with `cargo test -p tcor-sim --release -- --ignored
    /// profile_fig13x_paths --nocapture`.
    #[test]
    #[ignore = "manual profiling aid"]
    fn profile_fig13x_paths() {
        let store = ArtifactStore::new();
        let traces = suite_traces(&store).unwrap();
        let caps = prim_caps(&kb_sizes(48, 144, 32));
        let geoms: Vec<CacheParams> = caps.iter().map(|&c| geometry(c, 4)).collect();
        let total: usize = traces.iter().map(|b| b.trace.len()).sum();
        eprintln!(
            "trace total {total} accesses, geoms {:?}",
            geoms.iter().map(|g| g.num_sets()).collect::<Vec<_>>()
        );
        for policy in [
            "random", "fifo", "mru", "nru", "plru", "lip", "bip", "dip", "srrip", "brrip", "drrip",
            "lru", "hawkeye", "opt",
        ] {
            let t0 = std::time::Instant::now();
            let mut p = 0;
            let r = policy_curve(&traces, &caps, 4, policy, CurveEngine::Replay, 1, &mut p);
            let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
            let t0 = std::time::Instant::now();
            let mut p = 0;
            let s = policy_curve(
                &traces,
                &caps,
                4,
                policy,
                CurveEngine::SinglePass,
                1,
                &mut p,
            );
            let single_ms = t0.elapsed().as_secs_f64() * 1e3;
            eprintln!(
                "{policy}: replay {replay_ms:.1}ms single {single_ms:.1}ms (agree: {})",
                s == r
            );
        }
        let t0 = std::time::Instant::now();
        let _ = lb_curve(&traces, &caps);
        eprintln!("lb_curve: {:.1}ms", t0.elapsed().as_secs_f64() * 1e3);
    }

    #[test]
    fn opt_dominates_lru_and_lb_dominates_opt() {
        let traces = mini_traces();
        let caps = vec![64, 128, 256, 512];
        let mut passes = 0;
        let lb = lb_curve(&traces, &caps);
        let lru = lru_curve(&traces, &caps, &mut passes);
        let opt = opt_curve(&traces, &caps, CurveEngine::SinglePass, &mut passes);
        for i in 0..caps.len() {
            assert!(
                lb[i] <= opt[i] + 1e-12,
                "LB {} > OPT {} at {}",
                lb[i],
                opt[i],
                caps[i]
            );
            assert!(
                opt[i] <= lru[i] + 1e-12,
                "OPT {} > LRU {} at {}",
                opt[i],
                lru[i],
                caps[i]
            );
        }
    }

    #[test]
    fn curves_fall_with_capacity() {
        let traces = mini_traces();
        let caps = vec![32, 128, 1024];
        let mut passes = 0;
        for curve in [
            lru_curve(&traces, &caps, &mut passes),
            opt_curve(&traces, &caps, CurveEngine::SinglePass, &mut passes),
        ] {
            assert!(curve[0] >= curve[1] && curve[1] >= curve[2]);
        }
    }

    #[test]
    fn opt_gap_grows_with_lower_associativity_pressure() {
        // At 4-way, OPT still beats LRU (Fig. 13's key shape).
        let traces = mini_traces();
        let caps = vec![256];
        let lru4 = sp(&traces, &caps, 4, "lru");
        let opt4 = sp(&traces, &caps, 4, "opt");
        assert!(opt4[0] <= lru4[0]);
    }

    #[test]
    fn mru_is_worst_at_moderate_capacity() {
        let traces = mini_traces();
        let caps = vec![256];
        let mru = sp(&traces, &caps, 4, "mru");
        let lru = sp(&traces, &caps, 4, "lru");
        assert!(mru[0] >= lru[0], "MRU {} < LRU {}", mru[0], lru[0]);
    }

    /// The single-pass engine reproduces the replay engine bit for bit —
    /// miss counts are integers, so the f64 ratios must be *exactly*
    /// equal, for every serving policy across associativities (incl.
    /// oracle OPT, the profiler-backed fully-associative columns, the
    /// cross-set policies and Hawkeye on its native 4-way geometry).
    #[test]
    fn engines_agree_exactly() {
        let traces = mini_traces();
        let caps = vec![8, 64, 256, 513];
        for policy in SERVE_POLICIES {
            let assocs: &[u32] = if policy == "hawkeye" {
                &[4]
            } else {
                &[0, 1, 2, 4, 8]
            };
            for &ways in assocs {
                let (mut p1, mut p2) = (0, 0);
                let fast = policy_curve(
                    &traces,
                    &caps,
                    ways,
                    policy,
                    CurveEngine::SinglePass,
                    1,
                    &mut p1,
                );
                let slow = policy_curve(
                    &traces,
                    &caps,
                    ways,
                    policy,
                    CurveEngine::Replay,
                    1,
                    &mut p2,
                );
                assert_eq!(fast, slow, "ways={ways} policy={policy}");
                assert!(
                    p1 <= p2,
                    "single-pass must not stream more than replay ({p1} > {p2})"
                );
            }
        }
        let (mut p1, mut p2) = (0, 0);
        assert_eq!(
            opt_curve(&traces, &caps, CurveEngine::SinglePass, &mut p1),
            opt_curve(&traces, &caps, CurveEngine::Replay, &mut p2),
        );
        assert_eq!(p1, 1, "OPT stack profiling is one pass");
        assert_eq!(p2, caps.len() as u64, "replay is one pass per capacity");
    }

    /// Scattering the per-geometry replays never changes a curve or its
    /// pass count: every policy gives the same result at 1, 2 and 3
    /// workers and at more workers than geometries, equal to the replay
    /// reference — including a capacity below the associativity.
    #[test]
    fn worker_counts_and_paths_are_bit_identical() {
        let traces = mini_traces();
        let caps = vec![2usize, 8, 64, 256];
        for policy in SERVE_POLICIES {
            let mut p = 0;
            let reference = policy_curve(&traces, &caps, 4, policy, CurveEngine::Replay, 1, &mut p);
            for workers in [1usize, 2, 3, caps.len() + 2] {
                let mut p = 0;
                let got = policy_curve(
                    &traces,
                    &caps,
                    4,
                    policy,
                    CurveEngine::SinglePass,
                    workers,
                    &mut p,
                );
                assert_eq!(got, reference, "policy={policy} workers={workers}");
                assert_eq!(
                    p,
                    caps.len() as u64,
                    "policy={policy} workers={workers}: one pass per geometry"
                );
            }
        }
    }

    #[test]
    fn engine_workers_roundtrip_and_default() {
        let store = ArtifactStore::new();
        assert_eq!(engine_workers(&store), 1, "unset store means serial");
        set_engine_workers(&store, 6).unwrap();
        assert_eq!(engine_workers(&store), 6);
        set_engine_workers(&store, 0).unwrap();
        assert_eq!(engine_workers(&store), 1, "0 clamps to 1");
    }

    /// Satellite fix: `geometry` must never *inflate* a capacity below
    /// the associativity — `c = 2, ways = 4` is a 2-line single set, not
    /// a full 4-line set.
    #[test]
    fn geometry_clamps_instead_of_inflating() {
        let g = geometry(2, 4);
        assert_eq!(g.num_lines(), 2, "c=2 ways=4 must stay 2 lines");
        let g = geometry(0, 4);
        assert_eq!(g.num_lines(), 1);
        // At and above the associativity, round down to whole sets.
        assert_eq!(geometry(4, 4).num_lines(), 4);
        assert_eq!(geometry(43, 8).num_lines(), 40);
        assert_eq!(geometry(43, 0).num_lines(), 43);
    }

    /// Behavioral boundary check for the clamp: a 2-line degenerate cache
    /// holds exactly 2 blocks, so a 2-block loop hits and a 3-block loop
    /// cannot fit (the inflated pre-fix geometry would have held it).
    #[test]
    fn clamped_geometry_has_requested_capacity() {
        use tcor_cache::Access;
        use tcor_common::BlockAddr;
        let fits: Vec<Access> = (0..2u64)
            .cycle()
            .take(40)
            .map(|b| Access::read(BlockAddr(b)))
            .collect();
        let thrash: Vec<Access> = (0..3u64)
            .cycle()
            .take(60)
            .map(|b| Access::read(BlockAddr(b)))
            .collect();
        let g = geometry(2, 4);
        let s = simulate_policy(&fits, g, Indexing::Modulo, by_name("lru"), false);
        assert_eq!(s.misses(), 2, "2-block loop fits in the 2-line clamp");
        let s = simulate_policy(&thrash, g, Indexing::Modulo, by_name("lru"), false);
        assert_eq!(s.misses(), 60, "3-block LRU loop thrashes 2 lines");
    }

    #[test]
    fn trace_passes_roundtrip_through_store() {
        let store = ArtifactStore::new();
        assert_eq!(trace_passes(&store, "fig1"), None);
        record_trace_passes(&store, "fig1", 2).unwrap();
        assert_eq!(trace_passes(&store, "fig1"), Some(2));
        record_trace_passes(&store, "fig1", 7).unwrap();
        assert_eq!(trace_passes(&store, "fig1"), Some(7));
        assert_eq!(trace_passes(&store, "fig12"), None);
    }
}
