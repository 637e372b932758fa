//! `curves`: the miss-curve engine on the seeded scenes' traces.
//!
//! One pass is the five figure engines (`fig1_engine` … `fig13x_engine`,
//! `CurveEngine::SinglePass`), each once at one engine worker and once
//! at `nproc`, plus `workload_curve` for each of the 14
//! `SERVE_POLICIES` on the Table II workloads in turn and LRU again on
//! OPT's workload: 25 ops. The traces are built from the seeded scenes and
//! handed to a fresh `ArtifactStore` under the keys the engine looks
//! up, so no op ever builds a scene. Closed loop, one caller; the engine
//! fans out to at most `nproc` scatter workers. It never touches the
//! Tile Cache, the L2 or sockets.

use crate::trace::Tracer;
use crate::{closed_loop, Args, Metric, Outcome, Shuffled, Window, SETUP_REPS};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use tcor_cache::policy::{simulate_hawkeye_bank, Lru};
use tcor_cache::profile::{
    simulate_policy, simulate_policy_bank, LruStackProfiler, OptStackProfiler,
};
use tcor_cache::{annotate_next_use, simulate_policy_shard_range, Indexing, ShardCache};
use tcor_common::{CacheParams, Traversal};
use tcor_runner::{scatter, ArtifactStore};
use tcor_sim::misscurves::{
    fig11_engine, fig12_engine, fig13_engine, fig13x_engine, fig1_engine, set_engine_workers,
    workload_curve, BenchTrace, CurveEngine, SERVE_POLICIES,
};
use tcor_sim::orchestrate::{artifact_key, TRACES_DESC};
use tcor_sim::Table;
use tcor_workloads::{primitive_trace, prims_capacity};

const FIGS: [&str; 5] = ["fig1", "fig11", "fig12", "fig13", "fig13x"];

#[derive(Clone, Copy)]
enum CurveOp {
    Fig {
        id: &'static str,
        workers: usize,
    },
    Curve {
        alias: &'static str,
        policy: &'static str,
    },
}

impl CurveOp {
    fn class(&self) -> &'static str {
        match self {
            CurveOp::Fig { id, .. } => id,
            CurveOp::Curve { policy, .. } => match *policy {
                "lru" => "curve-lrustack",
                "opt" => "curve-optstack",
                "hawkeye" => "curve-hawkeye",
                _ => "curve-bank",
            },
        }
    }
}

/// The result of one op, kept for the checks.
enum CurveOut {
    Tables(Vec<Table>, u64),
    Curve(Vec<f64>),
}

struct Setup {
    store: ArtifactStore,
    /// The seeded traces, in Table II order (shared with the store).
    traces: Arc<Vec<BenchTrace>>,
    ops: Vec<CurveOp>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn copy_trace(b: &BenchTrace) -> BenchTrace {
    BenchTrace {
        alias: b.alias,
        trace: b.trace.clone(),
        next_use: b.next_use.clone(),
        total_prims: b.total_prims,
        shards: ShardCache::new(),
    }
}

/// Builds the seeded traces, hands them to a fresh store, and warms up
/// with one op of each class. `t` records the trace and annotation
/// spans.
fn setup(seed: u64, t: &mut Tracer) -> Result<Setup, String> {
    let grid = crate::frames::paper_grid();
    let order = Traversal::ZOrder.order(&grid);
    let mut built = Vec::new();
    for p in crate::frames::seeded_profiles(seed) {
        let scene = tcor_workloads::synth::calibrate(&p, &grid).scene;
        let (trace, total_prims) = t.span("workloads.trace", |_| {
            let frame = tcor_gpu::bin_scene(&scene, &grid, &order);
            (
                primitive_trace(&frame.binned, &order),
                frame.binned.num_primitives(),
            )
        });
        let next_use = t.span("cache.annotate", |_| annotate_next_use(&trace));
        built.push(BenchTrace {
            alias: p.alias,
            trace,
            next_use,
            total_prims,
            shards: ShardCache::new(),
        });
    }
    let store = ArtifactStore::new();
    // Single-workload curves look their trace up under its own key
    // (`misscurves::workload_trace`); hand each one in so no op builds
    // the unseeded scene, and check below that the engine sees it.
    for b in &built {
        let copy = copy_trace(b);
        store
            .get_or_compute(artifact_key(&format!("trace/{}/zorder", b.alias)), || copy)
            .map_err(|e| e.to_string())?;
    }
    let traces = store
        .get_or_compute(artifact_key(TRACES_DESC), || built)
        .map_err(|e| e.to_string())?;
    for b in traces.iter() {
        let seen =
            tcor_sim::misscurves::workload_trace(&store, b.alias).map_err(|e| e.to_string())?;
        if seen.trace != b.trace {
            return Err(format!(
                "curves: the engine does not see the seeded {} trace",
                b.alias
            ));
        }
    }

    let mut ops = Vec::new();
    for id in FIGS {
        for workers in [1, nproc()] {
            ops.push(CurveOp::Fig { id, workers });
        }
    }
    // Each serving policy once per pass, on the workloads in turn, so a
    // pass stays a few seconds long and bank ops span every trace size.
    for (i, policy) in SERVE_POLICIES.into_iter().enumerate() {
        ops.push(CurveOp::Curve {
            alias: traces[i % traces.len()].alias,
            policy,
        });
    }
    // LRU again on OPT's workload: OPT <= LRU is checked on one trace, and
    // the pass gets an odd op count, so p50 falls inside one op's samples
    // instead of between two ops' extremes.
    let opt = SERVE_POLICIES
        .iter()
        .position(|p| *p == "opt")
        .expect("opt is a serving policy");
    ops.push(CurveOp::Curve {
        alias: traces[opt % traces.len()].alias,
        policy: "lru",
    });
    let st = Setup { store, traces, ops };
    // Warm-up: every figure at one worker, and every policy on the
    // smallest trace.
    let smallest = st
        .traces
        .iter()
        .min_by_key(|b| b.trace.len())
        .map(|b| b.alias)
        .expect("ten traces");
    for policy in SERVE_POLICIES {
        run_op(
            &st.store,
            CurveOp::Curve {
                alias: smallest,
                policy,
            },
        )?;
    }
    for id in FIGS {
        run_op(&st.store, CurveOp::Fig { id, workers: 1 })?;
    }
    Ok(st)
}

fn run_op(store: &ArtifactStore, op: CurveOp) -> Result<CurveOut, String> {
    let e = |e: tcor_common::TcorError| e.to_string();
    Ok(match op {
        CurveOp::Fig { id, workers } => {
            set_engine_workers(store, workers).map_err(e)?;
            let one = |(t, p): (Table, u64)| (vec![t], p);
            let (tables, passes) = match id {
                "fig1" => one(fig1_engine(store, CurveEngine::SinglePass).map_err(e)?),
                "fig11" => one(fig11_engine(store, CurveEngine::SinglePass).map_err(e)?),
                "fig12" => fig12_engine(store, CurveEngine::SinglePass).map_err(e)?,
                "fig13" => one(fig13_engine(store, CurveEngine::SinglePass).map_err(e)?),
                _ => one(fig13x_engine(store, CurveEngine::SinglePass).map_err(e)?),
            };
            CurveOut::Tables(tables, passes)
        }
        CurveOp::Curve { alias, policy } => {
            CurveOut::Curve(workload_curve(store, alias, policy).map_err(e)?.1)
        }
    })
}

/// The serving curve's capacities: 8–152 KB in 8 KB steps, in
/// primitives.
fn serve_caps() -> Vec<usize> {
    (8..=152)
        .step_by(8)
        .map(|kb| prims_capacity(kb as u64 * 1024))
        .collect()
}

/// Set-associative geometry for `c` primitives, as the engine builds it
/// (`ways == 0` is fully associative).
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

/// Calls the cache layer directly for the work behind one curve op and
/// returns the miss ratios it computes, which must equal the op's curve.
fn probe_curve(t: &mut Tracer, b: &BenchTrace, policy: &str) -> Vec<f64> {
    let caps = serve_caps();
    let total = b.trace.len() as f64;
    let ratio = |m: u64| m as f64 / total;
    match policy {
        "lru" => t.span("cache.lrustack", |_| {
            let mut p = LruStackProfiler::new();
            for a in &b.trace {
                p.record(a.addr);
            }
            caps.iter().map(|&c| ratio(p.misses_at(c))).collect()
        }),
        "opt" => t.span("cache.optstack", |_| {
            let p = OptStackProfiler::profile(&b.trace, &b.next_use);
            caps.iter().map(|&c| ratio(p.misses_at(c))).collect()
        }),
        "hawkeye" => {
            let geoms: Vec<CacheParams> = caps.iter().map(|&c| geometry(c, 4)).collect();
            t.span("cache.hawkeye", |_| {
                simulate_hawkeye_bank(&b.trace, &geoms)
                    .iter()
                    .map(|s| ratio(s.misses()))
                    .collect()
            })
        }
        _ => {
            let geoms: Vec<CacheParams> = caps.iter().map(|&c| geometry(c, 0)).collect();
            let out = t.span("cache.bank", |_| {
                tcor_cache::dispatch_policy!(policy, make => {
                    simulate_policy_bank(&b.trace, None, &geoms, Indexing::Modulo, make)
                })
                .iter()
                .map(|s| ratio(s.misses()))
                .collect()
            });
            t.note_count("cache.bank", b.trace.len() as u64 * geoms.len() as u64);
            out
        }
    }
}

fn chunk_sets(num_sets: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.clamp(1, num_sets.max(1));
    (0..chunks)
        .map(|i| (num_sets * i / chunks)..(num_sets * (i + 1) / chunks))
        .collect()
}

/// The narrow-bank paths on one trace: fig13x's four 4-way LRU
/// geometries through the per-set bucketing, the sharded replay, the
/// whole-cache replay, and the sharded tasks serially and scattered
/// over `nproc` workers. Every path must give the same misses.
fn probe_narrow(t: &mut Tracer, b: &BenchTrace) -> bool {
    let geoms: Vec<CacheParams> = (48..=144)
        .step_by(32)
        .map(|kb| geometry(prims_capacity(kb as u64 * 1024), 4))
        .collect();
    let cache = ShardCache::new();
    let shards: Vec<_> = geoms
        .iter()
        .map(|g| {
            t.span("cache.shardbuild", |_| {
                cache.get_or_build(&b.trace, Some(&b.next_use), g.num_sets(), Indexing::Modulo)
            })
        })
        .collect();
    let sharded: Vec<u64> = t.span("cache.shard", |_| {
        geoms
            .iter()
            .zip(&shards)
            .map(|(g, s)| {
                simulate_policy_shard_range(s, *g, 0..s.num_sets(), false, Lru::new).misses()
            })
            .collect()
    });
    let replayed: Vec<u64> = t.span("cache.replay", |_| {
        geoms
            .iter()
            .map(|g| simulate_policy(&b.trace, *g, Indexing::Modulo, Lru::new(), false).misses())
            .collect()
    });
    let tasks = || {
        let mut tasks: Vec<Box<dyn FnOnce() -> (usize, u64) + Send + '_>> = Vec::new();
        for (gi, (g, s)) in geoms.iter().zip(&shards).enumerate() {
            for sets in chunk_sets(s.num_sets(), 2 * nproc()) {
                let (g, s) = (*g, Arc::clone(s));
                tasks.push(Box::new(move || {
                    (
                        gi,
                        simulate_policy_shard_range(&s, g, sets, false, Lru::new).misses(),
                    )
                }));
            }
        }
        tasks
    };
    let sum = |parts: Vec<(usize, u64)>| {
        let mut out = vec![0u64; geoms.len()];
        for (gi, m) in parts {
            out[gi] += m;
        }
        out
    };
    let serial = sum(t.span("runner.scatter_serial", |_| scatter(1, tasks())));
    let parallel = sum(t.span("runner.scatter", |_| scatter(nproc(), tasks())));
    sharded == replayed && serial == replayed && parallel == replayed
}

fn column(table: &Table, name: &str) -> Option<Vec<f64>> {
    let i = table.columns.iter().position(|c| c == name)?;
    table
        .rows
        .iter()
        .map(|r| r[i].parse::<f64>().ok())
        .collect()
}

/// OPT ≤ LRU at every capacity of a figure's tables.
fn opt_le_lru(tables: &[Table]) -> bool {
    let le = |opt: Option<Vec<f64>>, lru: Option<Vec<f64>>| match (opt, lru) {
        (Some(o), Some(l)) => o.len() == l.len() && o.iter().zip(&l).all(|(o, l)| o <= l),
        _ => false,
    };
    if tables.len() == 2 {
        // fig12: one table per policy, one column per associativity.
        return ["direct", "assoc2", "assoc4", "assoc8", "full"]
            .iter()
            .all(|c| le(column(&tables[1], c), column(&tables[0], c)));
    }
    tables
        .iter()
        .all(|t| le(column(t, "opt"), column(t, "lru")))
}

fn csv(out: &CurveOut) -> String {
    match out {
        CurveOut::Tables(tables, passes) => {
            let mut s: String = tables.iter().map(Table::to_csv).collect();
            s.push_str(&format!("passes={passes}\n"));
            s
        }
        CurveOut::Curve(c) => c
            .iter()
            .map(|v| format!("{:016x}\n", v.to_bits()))
            .collect(),
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_t = Tracer::new();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::new();
    let mut st = None;
    for _ in 0..reps {
        drop(st.take());
        let t0 = Instant::now();
        st = Some(setup(args.seed, &mut setup_t)?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let st = st.expect("at least one set-up");
    let mut order = Shuffled::new(st.ops.len(), args.seed);
    let mut runs: Vec<(usize, Result<CurveOut, String>)> = Vec::new();
    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let window: Window = closed_loop(untraced_secs, st.ops.len(), |_| {
        let i = order.next_op();
        let out = run_op(&st.store, st.ops[i]);
        runs.push((i, out));
        st.ops[i].class()
    });
    crate::print_classes("untraced", &window);

    let mut failed = 0u64;
    let mut tracer = Tracer::new();
    let mut traced = None;
    if args.trace {
        let from = tracer.mark();
        let mut traced_runs = Vec::new();
        let mut probes_ok = true;
        let w = closed_loop(args.seconds / 2.0, st.ops.len(), |k| {
            let i = order.next_op();
            let op = st.ops[i];
            tracer.set_op(i as u64);
            let out = tracer.span("sim.misscurves", |_| run_op(&st.store, op));
            match op {
                CurveOp::Curve { alias, policy } => {
                    let b = st
                        .traces
                        .iter()
                        .find(|b| b.alias == alias)
                        .expect("alias has a trace");
                    let probe = probe_curve(&mut tracer, b, policy);
                    if !matches!(&out, Ok(CurveOut::Curve(c)) if *c == probe) {
                        eprintln!("curves: {alias}/{policy} differs from its cache-layer calls");
                        probes_ok = false;
                    }
                }
                CurveOp::Fig { .. } => {
                    let b = &st.traces[k % st.traces.len()];
                    if !probe_narrow(&mut tracer, b) {
                        eprintln!("curves: narrow-bank paths disagree on {}", b.alias);
                        probes_ok = false;
                    }
                }
            }
            traced_runs.push((i, out));
            op.class()
        });
        crate::print_classes("traced", &w);
        if !probes_ok {
            failed += 1;
        }
        let attributed = tracer.root_secs_since(from) / w.secs;
        runs.extend(traced_runs);
        traced = Some((w, attributed));
    }

    // Checks, outside the timed window: every op succeeded and repeats
    // the first result of the same op (figures also across worker
    // counts); OPT ≤ LRU everywhere; on seed 0 the figure tables equal
    // the committed goldens byte for byte.
    let key = |op: &CurveOp| match op {
        CurveOp::Fig { id, .. } => id.to_string(),
        CurveOp::Curve { alias, policy } => format!("{alias}/{policy}"),
    };
    let mut first: std::collections::BTreeMap<String, String> = Default::default();
    let mut curves: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let mut fig_passes: std::collections::BTreeMap<&str, u64> = Default::default();
    for (i, out) in &runs {
        let op = st.ops[*i];
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("curves: {} failed: {e}", key(&op));
                failed += 1;
                continue;
            }
        };
        let text = csv(out);
        let k = key(&op);
        let ok = match first.get(&k) {
            None => {
                let ok = match out {
                    CurveOut::Tables(tables, passes) => {
                        if let CurveOp::Fig { id, .. } = op {
                            fig_passes.insert(id, *passes);
                        }
                        opt_le_lru(tables) && (args.seed != 0 || goldens_match(tables))
                    }
                    CurveOut::Curve(c) => {
                        curves.insert(k.clone(), c.clone());
                        true
                    }
                };
                first.insert(k.clone(), text);
                ok
            }
            Some(f) => *f == text,
        };
        if !ok {
            eprintln!("curves: {k} failed its output check");
            failed += 1;
        }
    }
    for b in st.traces.iter() {
        let (opt, lru) = (
            curves.get(&format!("{}/opt", b.alias)),
            curves.get(&format!("{}/lru", b.alias)),
        );
        if let (Some(o), Some(l)) = (opt, lru) {
            if !o.iter().zip(l).all(|(o, l)| o <= l) {
                eprintln!("curves: {} OPT exceeds LRU", b.alias);
                failed += 1;
            }
        }
    }
    let attempted = runs.len() as u64;
    let metrics = if let Some((w, attributed)) = traced {
        // Windows hold whole passes, so all five figures ran.
        let mut m = layer_metrics(&tracer, &setup_t);
        m.push(Metric::new(
            "cache.trace_passes",
            fig_passes.values().sum::<u64>() as f64,
            "count",
        ));
        m.extend(crate::trace::tracing_metrics(
            "curves",
            attributed,
            w.rate(),
            window.rate(),
        ));
        tracer.finish(&crate::trace::spans_path("curves", args.seed))?;
        m
    } else {
        crate::end_to_end(&setup_secs, &window)
    };
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn goldens_match(tables: &[Table]) -> bool {
    tables.iter().all(|t| {
        let path = std::path::Path::new("results/golden").join(format!("{}.csv", t.id));
        match std::fs::read_to_string(&path) {
            Ok(g) if g == t.to_csv() => true,
            Ok(_) => {
                eprintln!("curves: {} differs from {}", t.id, path.display());
                false
            }
            Err(e) => {
                eprintln!("curves: {}: {e}", path.display());
                false
            }
        }
    })
}

fn layer_metrics(t: &Tracer, setup_t: &Tracer) -> Vec<Metric> {
    let ms = |name: &str| t.median_secs(name) * 1e3;
    let per_access_geom: Vec<f64> = t
        .named("cache.bank")
        .zip(t.counts_of("cache.bank"))
        .map(|(s, n)| s.secs() * 1e9 / n.max(1) as f64)
        .collect();
    let serial = t.median_secs("runner.scatter_serial");
    let parallel = t.median_secs("runner.scatter");
    vec![
        Metric::new(
            "workloads.trace_ms",
            setup_t.median_secs("workloads.trace") * 1e3,
            "ms",
        ),
        Metric::new(
            "cache.annotate_ms",
            setup_t.median_secs("cache.annotate") * 1e3,
            "ms",
        ),
        Metric::new("cache.optstack_ms", ms("cache.optstack"), "ms"),
        Metric::new("cache.lrustack_ms", ms("cache.lrustack"), "ms"),
        Metric::new("cache.bank_ms", ms("cache.bank"), "ms"),
        Metric::new("cache.hawkeye_ms", ms("cache.hawkeye"), "ms"),
        Metric::new("cache.shardbuild_ms", ms("cache.shardbuild"), "ms"),
        Metric::new("cache.shard_ms", ms("cache.shard"), "ms"),
        Metric::new("cache.replay_ms", ms("cache.replay"), "ms"),
        Metric::new(
            "runner.scatter_speedup",
            if parallel > 0.0 {
                serial / parallel
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new(
            "cache.ns_per_access_geom",
            crate::stats::median(&per_access_geom),
            "ns",
        ),
    ]
}
