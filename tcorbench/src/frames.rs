//! `frames`: the full-system frames of one paper regeneration.
//!
//! One pass is every `run_frame` the regeneration simulates — the 60
//! suite cells (10 Table II profiles × `CELL_CONFIGS`), the ablation's
//! reference and D2/D3/D5 configs, the sweep's 32–256 KiB budgets, and
//! the scaling and traversal configs: 144 frames, each followed by
//! `EnergyModel::evaluate`. Closed loop, one thread, seeded-shuffled
//! passes. It never touches the stack profilers or the request plane.

use crate::trace::Tracer;
use crate::{closed_loop, Args, Metric, Outcome, Shuffled, Window, SETUP_REPS};
use std::hint::black_box;
use std::time::Instant;
use tcor::{BaselineSystem, FrameReport, SystemConfig, TcorSystem};
use tcor_cache::policy::Lru;
use tcor_cache::{AccessKind, AccessMeta, Cache, Indexing};
use tcor_common::{CacheParams, GpuConfig, TileCacheOrg, TileGrid, Traversal, LINE_SIZE};
use tcor_energy::EnergyModel;
use tcor_gpu::{bin_scene_with, fetch_ops, plb_ops, GeometryPipeline, RasterTraffic, Scene};
use tcor_mem::L2Mode;
use tcor_pbuf::{AttributesLayout, ListsLayout, ListsScheme};
use tcor_workloads::BenchmarkProfile;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Sys {
    Baseline,
    Tcor,
}

/// One frame of the pass: a scene under one system configuration.
struct FrameOp {
    scene: usize,
    sys: Sys,
    cfg: SystemConfig,
    label: String,
    class: &'static str,
}

struct Setup {
    profiles: Vec<BenchmarkProfile>,
    scenes: Vec<Scene>,
    ops: Vec<FrameOp>,
    /// Warm-up reports, by op index.
    warm: Vec<(usize, FrameReport)>,
}

/// The Table II profiles with the workload seed XORed into each scene
/// seed; seed 0 gives the paper's scenes. Calibration holds Table II's
/// footprint and reuse, so the scenes change and their statistics don't.
pub fn seeded_profiles(seed: u64) -> Vec<BenchmarkProfile> {
    tcor_workloads::suite()
        .into_iter()
        .map(|mut p| {
            p.seed ^= seed;
            p
        })
        .collect()
}

/// The paper's screen and tile geometry.
pub fn paper_grid() -> TileGrid {
    TileGrid::new(1960, 768, 32)
}

fn sweep_baseline(kib: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_baseline_64k();
    cfg.gpu = GpuConfig {
        tile_cache: TileCacheOrg::Unified {
            cache: CacheParams::new(kib << 10, LINE_SIZE, 4, 1),
        },
        ..GpuConfig::paper_baseline()
    };
    cfg
}

fn sweep_tcor(kib: u64) -> SystemConfig {
    let mut cfg = SystemConfig::paper_tcor_64k();
    let list_kib = 16u64.min(kib / 2);
    cfg.gpu = GpuConfig {
        tile_cache: TileCacheOrg::Split {
            list_cache: CacheParams::new(list_kib << 10, LINE_SIZE, 4, 1),
            attribute_bytes: (kib - list_kib) << 10,
            attribute_ways: 4,
        },
        ..GpuConfig::paper_baseline()
    };
    cfg.l2_mode = L2Mode::TcorEnhanced;
    cfg
}

/// Every frame one regeneration simulates, mirroring `suite::run_cell`
/// and the ablation, sweep, scaling and traversal studies.
fn pass_ops(profiles: &[BenchmarkProfile]) -> Vec<FrameOp> {
    let idx = |alias: &str| {
        profiles
            .iter()
            .position(|p| p.alias == alias)
            .expect("alias in Table II")
    };
    let mut ops = Vec::new();
    let mut push = |scene: usize, sys: Sys, cfg: SystemConfig, label: String, class| {
        let cfg = cfg.with_raster(profiles[scene].raster_params());
        ops.push(FrameOp {
            scene,
            sys,
            cfg,
            label,
            class,
        });
    };
    for (i, _) in profiles.iter().enumerate() {
        for (name, sys, cfg) in [
            ("base64", Sys::Baseline, SystemConfig::paper_baseline_64k()),
            (
                "tcor_nol2_64",
                Sys::Tcor,
                SystemConfig::paper_tcor_64k().without_l2_enhancements(),
            ),
            ("tcor64", Sys::Tcor, SystemConfig::paper_tcor_64k()),
            (
                "base128",
                Sys::Baseline,
                SystemConfig::paper_baseline_128k(),
            ),
            (
                "tcor_nol2_128",
                Sys::Tcor,
                SystemConfig::paper_tcor_128k().without_l2_enhancements(),
            ),
            ("tcor128", Sys::Tcor, SystemConfig::paper_tcor_128k()),
        ] {
            push(i, sys, cfg, name.to_string(), "cell");
        }
    }
    for (i, _) in profiles.iter().enumerate() {
        push(
            i,
            Sys::Tcor,
            SystemConfig::paper_tcor_64k(),
            "ablation-ref".into(),
            "ablation",
        );
        let mut d3 = SystemConfig::paper_tcor_64k();
        d3.list_scheme = ListsScheme::Baseline;
        push(i, Sys::Tcor, d3, "ablation-d3".into(), "ablation");
        let mut d2 = SystemConfig::paper_tcor_64k();
        d2.attr_write_bypass = false;
        push(i, Sys::Tcor, d2, "ablation-d2".into(), "ablation");
        let mut d5 = SystemConfig::paper_tcor_64k();
        d5.attr_indexing = Indexing::Modulo;
        push(i, Sys::Tcor, d5, "ablation-d5".into(), "ablation");
    }
    for kib in [32u64, 48, 64, 96, 128, 192, 256] {
        for alias in ["CCS", "DDS"] {
            let i = idx(alias);
            push(
                i,
                Sys::Baseline,
                sweep_baseline(kib),
                format!("sweep-base-{kib}"),
                "sweep",
            );
            push(
                i,
                Sys::Tcor,
                sweep_tcor(kib),
                format!("sweep-tcor-{kib}"),
                "sweep",
            );
        }
    }
    let snp = idx("Snp");
    for mult in [1u32, 2, 4, 8] {
        let mut base = SystemConfig::paper_baseline_64k();
        base.fragment_processors = 4 * mult;
        push(
            snp,
            Sys::Baseline,
            base,
            format!("scaling-base-{mult}"),
            "scaling",
        );
        let mut tcor = SystemConfig::paper_tcor_64k();
        tcor.fragment_processors = 4 * mult;
        push(
            snp,
            Sys::Tcor,
            tcor,
            format!("scaling-tcor-{mult}"),
            "scaling",
        );
    }
    for alias in ["CCS", "TRu"] {
        for (order, name) in [
            (Traversal::Scanline, "scanline"),
            (Traversal::Serpentine, "serpentine"),
            (Traversal::ZOrder, "zorder"),
            (Traversal::Hilbert, "hilbert"),
        ] {
            let mut cfg = SystemConfig::paper_tcor_64k();
            cfg.gpu.traversal = order;
            push(
                idx(alias),
                Sys::Tcor,
                cfg,
                format!("traversal-{name}"),
                "traversal",
            );
        }
    }
    ops
}

fn run_op(op: &FrameOp, scene: &Scene) -> FrameReport {
    match op.sys {
        Sys::Baseline => BaselineSystem::new(op.cfg.clone()).run_frame(scene),
        Sys::Tcor => TcorSystem::new(op.cfg.clone()).run_frame(scene),
    }
}

/// Builds the seeded scenes and the pass, then warms up on the first
/// two ops of every scene. `t` records the calibration spans.
fn setup(seed: u64, t: &mut Tracer) -> Setup {
    let grid = paper_grid();
    let profiles = seeded_profiles(seed);
    let scenes: Vec<Scene> = profiles
        .iter()
        .map(|p| {
            t.span("workloads.calibrate", |_| {
                tcor_workloads::synth::calibrate(p, &grid).scene
            })
        })
        .collect();
    let ops = pass_ops(&profiles);
    let model = EnergyModel::default();
    let mut warm = Vec::new();
    for (s, scene) in scenes.iter().enumerate() {
        for (i, op) in ops.iter().enumerate().filter(|(_, o)| o.scene == s).take(2) {
            let report = run_op(op, scene);
            black_box(model.evaluate(&report));
            warm.push((i, report));
        }
    }
    Setup {
        profiles,
        scenes,
        ops,
        warm,
    }
}

/// Per-frame counts read off a report.
struct Counts {
    tilecache: u64,
    l1: u64,
    l2: u64,
    l2_misses: u64,
    dram: u64,
    dead_drops: u64,
}

fn counts(r: &FrameReport) -> Counts {
    let (mut tilecache, mut l1) = (0, 0);
    for s in &r.structures {
        match s.name {
            "tile$" | "list$" | "attr$" => tilecache += s.stats.accesses(),
            _ => l1 += s.stats.accesses(),
        }
    }
    Counts {
        tilecache,
        l1,
        l2: r.l2_stats.accesses(),
        l2_misses: r.l2_stats.misses(),
        dram: r.total_mm_accesses(),
        dead_drops: r.dead_drops,
    }
}

/// Spans of one traced frame: the frame and its energy evaluation as
/// the regeneration calls them, then the frame's layers called one by
/// one from outside (`run_frame` cannot be split from outside, so the
/// Tile Cache, L1s, L2 and DRAM are the frame's time minus these).
fn traced_op(t: &mut Tracer, op: &FrameOp, scene: &Scene, model: &EnergyModel) -> FrameReport {
    let report = t.span("core.frame", |_| run_op(op, scene));
    t.span("energy.evaluate", |_| black_box(model.evaluate(&report)));
    let gpu = &op.cfg.gpu;
    let grid = TileGrid::new(gpu.screen_width, gpu.screen_height, gpu.tile_size);
    let order = gpu.traversal.order(&grid);
    let geo = t.span("gpu.geometry", |_| GeometryPipeline::new(grid).run(scene));
    let frame = t.span("gpu.bin", |_| {
        bin_scene_with(&geo.visible, &grid, &order, op.cfg.overlap_test)
    });
    t.span("gpu.ops", |_| {
        black_box(plb_ops(&frame.binned, &order).len());
        black_box(fetch_ops(&frame.binned, &order).len());
    });
    t.span("pbuf.layout", |_| {
        black_box(AttributesLayout::new(&frame.binned.attr_counts()));
        let scheme = match op.sys {
            Sys::Baseline => ListsScheme::Baseline,
            Sys::Tcor => op.cfg.list_scheme,
        };
        black_box(ListsLayout::new(scheme, grid.num_tiles() as u32));
    });
    let texture = t.span("gpu.raster", |_| {
        let mut raster = RasterTraffic::new(op.cfg.raster);
        let mut texture = Vec::new();
        let mut other = 0usize;
        for tile in order.iter() {
            texture.extend(raster.texture_blocks(frame.fragments_per_tile[tile.index()]));
            other += raster.instruction_blocks().len();
            other += raster
                .framebuffer_blocks(tile.index(), grid.tile_size())
                .len();
        }
        black_box(other);
        texture
    });
    t.span("cache.access", |_| {
        let mut cache = Cache::new(gpu.texture_cache, Indexing::Modulo, Lru::new());
        let mut hits = 0u64;
        for b in &texture {
            hits += u64::from(cache.access(*b, AccessKind::Read, AccessMeta::NONE).hit);
        }
        black_box(hits);
    });
    t.note_count("cache.access", texture.len() as u64);
    report
}

/// Layer metrics of the traced frames, per op then median.
fn layer_metrics(t: &Tracer, setup_t: &Tracer, reports: &[Option<FrameReport>]) -> Vec<Metric> {
    let ms = |name: &str| t.median_secs(name) * 1e3;
    let frame = t.secs_of("core.frame");
    let parts: Vec<Vec<f64>> = [
        "gpu.geometry",
        "gpu.bin",
        "gpu.ops",
        "pbuf.layout",
        "gpu.raster",
    ]
    .iter()
    .map(|n| t.secs_of(n))
    .collect();
    let cachemem: Vec<f64> = (0..frame.len())
        .map(|i| frame[i] - parts.iter().map(|p| p[i]).sum::<f64>())
        .collect();
    let access_ns: Vec<f64> = t
        .named("cache.access")
        .zip(t.counts_of("cache.access"))
        .map(|(s, n)| s.secs() * 1e9 / n.max(1) as f64)
        .collect();
    let sims: Vec<u64> = t
        .ops_of("core.frame")
        .map(|op| {
            let c = counts(
                reports[op as usize]
                    .as_ref()
                    .expect("traced op has a report"),
            );
            c.tilecache + c.l1 + c.l2
        })
        .collect();
    let ns_per_sim: Vec<f64> = frame
        .iter()
        .zip(&sims)
        .map(|(s, n)| s * 1e9 / (*n).max(1) as f64)
        .collect();
    let all: Vec<Counts> = reports
        .iter()
        .map(|r| counts(r.as_ref().expect("every op covered")))
        .collect();
    let n = all.len() as f64;
    let mean = |f: fn(&Counts) -> u64| all.iter().map(f).sum::<u64>() as f64 / n;
    let l2: u64 = all.iter().map(|c| c.l2).sum();
    let l2_misses: u64 = all.iter().map(|c| c.l2_misses).sum();
    vec![
        Metric::new(
            "workloads.calibrate_ms",
            setup_t.median_secs("workloads.calibrate") * 1e3,
            "ms",
        ),
        Metric::new("gpu.geometry_ms", ms("gpu.geometry"), "ms"),
        Metric::new("gpu.bin_ms", ms("gpu.bin"), "ms"),
        Metric::new("gpu.ops_ms", ms("gpu.ops"), "ms"),
        Metric::new("pbuf.layout_us", ms("pbuf.layout") * 1e3, "us"),
        Metric::new("gpu.raster_ms", ms("gpu.raster"), "ms"),
        Metric::new("core.frame_ms", ms("core.frame"), "ms"),
        Metric::new(
            "core.cachemem_ms",
            crate::stats::median(&cachemem) * 1e3,
            "ms",
        ),
        Metric::new("cache.access_ns", crate::stats::median(&access_ns), "ns"),
        Metric::new("energy.evaluate_us", ms("energy.evaluate") * 1e3, "us"),
        Metric::new("core.tilecache_accesses", mean(|c| c.tilecache), "count"),
        Metric::new("core.l1_accesses", mean(|c| c.l1), "count"),
        Metric::new("mem.l2_accesses", mean(|c| c.l2), "count"),
        Metric::new(
            "mem.l2_miss_ratio",
            l2_misses as f64 / l2.max(1) as f64,
            "ratio",
        ),
        Metric::new("mem.dram_accesses", mean(|c| c.dram), "count"),
        Metric::new("mem.dead_drops", mean(|c| c.dead_drops), "count"),
        Metric::new(
            "core.ns_per_sim_access",
            crate::stats::median(&ns_per_sim),
            "ns",
        ),
    ]
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_t = Tracer::new();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::new();
    let mut st = None;
    for _ in 0..reps {
        drop(st.take());
        let t0 = Instant::now();
        st = Some(setup(args.seed, &mut setup_t));
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let st = st.expect("at least one set-up");
    let model = EnergyModel::default();
    let mut order = Shuffled::new(st.ops.len(), args.seed);

    // Every report of the run, by op index, checked after the window.
    let mut runs: Vec<(usize, FrameReport)> = Vec::new();
    let untraced_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let window: Window = closed_loop(untraced_secs, st.ops.len(), |_| {
        let i = order.next_op();
        let op = &st.ops[i];
        let report = run_op(op, &st.scenes[op.scene]);
        black_box(model.evaluate(&report));
        runs.push((i, report));
        op.class
    });
    crate::print_classes("untraced", &window);

    let mut tracer = Tracer::new();
    let mut traced = None;
    if args.trace {
        let from = tracer.mark();
        let mut traced_runs = Vec::new();
        let w = closed_loop(args.seconds / 2.0, st.ops.len(), |_| {
            let i = order.next_op();
            let op = &st.ops[i];
            tracer.set_op(i as u64);
            let report = traced_op(&mut tracer, op, &st.scenes[op.scene], &model);
            traced_runs.push((i, report));
            op.class
        });
        crate::print_classes("traced", &w);
        let attributed = tracer.root_secs_since(from) / w.secs;
        runs.extend(traced_runs);
        traced = Some((w, attributed));
    }

    // Checks, outside the timed window: every report passes the
    // conservation audit and equals the first report of the same op
    // (and the warm-up report where one exists).
    let mut reference: Vec<Option<FrameReport>> = vec![None; st.ops.len()];
    let mut rendered: Vec<Option<String>> = vec![None; st.ops.len()];
    let render = |i: usize, r: &FrameReport| {
        let op = &st.ops[i];
        tcor_sim::report_json::frame_report_json(st.profiles[op.scene].alias, &op.label, r).render()
    };
    let mut failed = 0u64;
    let audit = |i: usize, r: &FrameReport| -> bool {
        let label = format!("{}/{}", st.profiles[st.ops[i].scene].alias, st.ops[i].label);
        let v = tcor_obs::audit_report(&label, r);
        for violation in &v {
            eprintln!("audit {label}: {violation:?}");
        }
        v.is_empty()
    };
    for (i, r) in st.warm.iter().chain(runs.iter()) {
        let text = render(*i, r);
        match &rendered[*i] {
            None => {
                if !audit(*i, r) {
                    failed += 1;
                }
                rendered[*i] = Some(text);
                reference[*i] = Some(r.clone());
            }
            Some(first) if *first != text => {
                eprintln!("frames: op {} ({}) is not repeatable", i, st.ops[*i].label);
                failed += 1;
            }
            Some(_) => {}
        }
    }
    let attempted = runs.len() as u64;
    let mut metrics = Vec::new();
    if let Some((w, attributed)) = traced {
        // Windows hold whole passes, so `reference` has every op and the
        // per-frame counts repeat exactly across runs of one seed.
        metrics.extend(layer_metrics(&tracer, &setup_t, &reference));
        metrics.extend(crate::trace::tracing_metrics(
            "frames",
            attributed,
            w.rate(),
            window.rate(),
        ));
        tracer.finish(&crate::trace::spans_path("frames", args.seed))?;
    } else {
        metrics = crate::end_to_end(&setup_secs, &window);
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}
