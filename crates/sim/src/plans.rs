//! Shared frame plans.
//!
//! A frame's geometry, binning and L1 miss streams depend only on the
//! scene and the configuration fields of its [`PlanKey`], never on the
//! Tile Cache organisation, the L2 or DRAM. The artifact store therefore
//! keeps one [`FramePlan`] per (calibrated scene, plan key), and every
//! configuration with that key replays it ([`System::replay`]): the six
//! suite cells of a workload, the ablation, the budget sweep and the
//! scaling study share their workload's plan, and the traversal study
//! adds one plan per other traversal order. `tcor-sim all` replays its
//! 144 frames on 16 plans.

use crate::orchestrate::{artifact_key, calibrated_scene, scene_key};
use crate::suite::{cell_config, CELL_CONFIGS};
use crate::{ablation, scaling, sweep, traversal_study};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tcor::{FramePlan, FrameReport, PlanKey, System, SystemConfig};
use tcor_common::{TcorResult, TileGrid};
use tcor_runner::{ArtifactStore, JobCtx};
use tcor_workloads::{suite, BenchmarkProfile};

/// One frame a regeneration replays: a Table II workload under one
/// configuration.
#[derive(Clone, Debug)]
pub struct RegenFrame {
    /// The workload.
    pub profile: BenchmarkProfile,
    /// The configuration's name within its experiment, such as `tcor64`,
    /// `ablation-d2` or `sweep-tcor-192`.
    pub label: String,
    /// The configuration, with the workload's raster calibration.
    pub cfg: SystemConfig,
}

/// Every frame `tcor-sim all` replays, from the builders its experiments
/// use: each workload's suite cells, then the ablation's, the sweep's,
/// the scaling study's and the traversal study's frames. 144 frames on
/// 16 plans.
pub fn regeneration_frames() -> Vec<RegenFrame> {
    let all = suite();
    let by_alias = |alias: &str| {
        *all.iter()
            .find(|p| p.alias == alias)
            .expect("study workload in Table II")
    };
    let mut frames = Vec::new();
    let mut push = |profile: BenchmarkProfile, label: String, cfg| {
        frames.push(RegenFrame {
            profile,
            label,
            cfg,
        })
    };
    for p in &all {
        for c in CELL_CONFIGS {
            push(*p, c.to_string(), cell_config(p, c));
        }
    }
    for p in &all {
        let names = ["ref", "d3", "d2", "d5"];
        for (name, cfg) in names.iter().zip(ablation::variants(p.raster_params())) {
            push(*p, format!("ablation-{name}"), cfg);
        }
    }
    for kib in sweep::BUDGETS_KIB {
        for p in sweep::WORKLOADS.map(by_alias) {
            let rp = p.raster_params();
            push(p, format!("sweep-base-{kib}"), sweep::baseline_cfg(kib, rp));
            push(p, format!("sweep-tcor-{kib}"), sweep::tcor_cfg(kib, rp));
        }
    }
    let snp = by_alias(scaling::WORKLOAD);
    for procs in scaling::PROCESSORS {
        let [base, tcor] = scaling::configs(procs, snp.raster_params());
        push(snp, format!("scaling-base-{procs}"), base);
        push(snp, format!("scaling-tcor-{procs}"), tcor);
    }
    for p in traversal_study::WORKLOADS.map(by_alias) {
        for (order, name) in traversal_study::ORDERS {
            let cfg = traversal_study::config(order, p.raster_params());
            push(p, format!("traversal-{name}"), cfg);
        }
    }
    frames
}

/// Work done on behalf of one caller (a runner job, a serving backend):
/// frame plans built, frames replayed, and miss-curve trace passes.
#[derive(Debug, Default)]
pub struct PlanWork {
    builds: AtomicU64,
    replays: AtomicU64,
    passes: AtomicU64,
}

impl PlanWork {
    /// Plans this caller built; its other replays reused a stored plan.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Frames this caller replayed.
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Full streamings of the suite's traces by the miss-curve figures
    /// this caller ran.
    pub fn trace_passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Counts a miss-curve figure's trace passes and hands back its
    /// output.
    pub(crate) fn count_passes<T>(&self, (out, passes): (T, u64)) -> T {
        self.passes.fetch_add(passes, Ordering::Relaxed);
        out
    }

    /// Reports the nonzero counts on `ctx`'s `job_end` event as
    /// `plan_builds`, `plan_replays` and `trace_passes`.
    pub(crate) fn emit(&self, ctx: &JobCtx<'_>) {
        for (name, n) in [
            ("plan_builds", self.builds()),
            ("plan_replays", self.replays()),
            ("trace_passes", self.trace_passes()),
        ] {
            if n > 0 {
                ctx.counter(name, n);
            }
        }
    }
}

/// Store key of the plan `cfg` replays on for `profile`'s scene
/// calibrated on `grid`: the scene's key plus the [`PlanKey`].
fn plan_store_key(profile: &BenchmarkProfile, grid: &TileGrid, cfg: &SystemConfig) -> u64 {
    artifact_key(&format!(
        "plan/{:016x}/{:?}",
        scene_key(profile, grid),
        PlanKey::of(cfg)
    ))
}

/// The shared plan `cfg` replays on for `profile`'s scene calibrated on
/// `grid`. The first caller for a key builds it and counts the build in
/// `work`.
///
/// # Errors
///
/// Propagates store corruption from the scene and plan lookups.
pub(crate) fn frame_plan(
    store: &ArtifactStore,
    profile: &BenchmarkProfile,
    grid: &TileGrid,
    cfg: &SystemConfig,
    work: &PlanWork,
) -> TcorResult<Arc<FramePlan>> {
    let cal = calibrated_scene(store, profile, grid)?;
    store.get_or_compute(plan_store_key(profile, grid, cfg), || {
        work.builds.fetch_add(1, Ordering::Relaxed);
        FramePlan::new(cfg, &cal.scene)
    })
}

/// `cfg`'s one-shot report on `profile`'s scene calibrated on `grid`,
/// replayed on the shared plan: the report `System::run_frame` gives on
/// that scene. Counts the replay (and a build, if any) in `work`.
///
/// # Errors
///
/// Propagates store corruption from the scene and plan lookups.
pub fn replay_shared(
    store: &ArtifactStore,
    profile: &BenchmarkProfile,
    grid: &TileGrid,
    cfg: SystemConfig,
    work: &PlanWork,
) -> TcorResult<FrameReport> {
    let plan = frame_plan(store, profile, grid, &cfg, work)?;
    work.replays.fetch_add(1, Ordering::Relaxed);
    Ok(System::new(cfg).replay(&plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orchestrate::paper_grid;
    use crate::report_json::frame_report_json;
    use std::collections::HashSet;
    use tcor_cache::Indexing;
    use tcor_common::{CacheParams, MemoryParams, TileCacheOrg, Traversal};
    use tcor_gpu::OverlapTest;
    use tcor_mem::L2Mode;
    use tcor_pbuf::ListsScheme;

    fn profile(alias: &str) -> BenchmarkProfile {
        tcor_workloads::suite()
            .into_iter()
            .find(|b| b.alias == alias)
            .expect("suite workload")
    }

    /// Every configuration the regeneration runs, once per label, with
    /// `profile`'s raster calibration.
    fn experiment_configs(profile: &BenchmarkProfile) -> Vec<(String, SystemConfig)> {
        let mut seen = HashSet::new();
        regeneration_frames()
            .into_iter()
            .filter(|f| seen.insert(f.label.clone()))
            .map(|f| (f.label, f.cfg.with_raster(profile.raster_params())))
            .collect()
    }

    /// The list holds the 144 frames of `all` on its 16 plans, one per
    /// (workload, label).
    #[test]
    fn regeneration_frames_cover_every_study_once() {
        let frames = regeneration_frames();
        assert_eq!(frames.len(), 144);
        let distinct: HashSet<(&str, &str)> = frames
            .iter()
            .map(|f| (f.profile.alias, f.label.as_str()))
            .collect();
        assert_eq!(distinct.len(), frames.len());
        let grid = paper_grid();
        let plans: HashSet<u64> = frames
            .iter()
            .map(|f| plan_store_key(&f.profile, &grid, &f.cfg))
            .collect();
        assert_eq!(plans.len(), 16);
        // The cells are the suite's own configurations.
        let gtr = profile("GTr");
        for c in CELL_CONFIGS {
            let f = frames
                .iter()
                .find(|f| f.profile.alias == "GTr" && f.label == c)
                .expect("cell listed");
            assert_eq!(
                format!("{:?}", f.cfg),
                format!("{:?}", cell_config(&gtr, c))
            );
        }
    }

    /// The byte-identity contract of sharing: replaying the plan another
    /// configuration built gives the whole report a private plan gives,
    /// for every configuration any experiment runs.
    #[test]
    fn shared_plans_report_byte_equal_to_private_plans() {
        let store = ArtifactStore::new();
        let p = profile("GTr");
        let grid = paper_grid();
        let work = PlanWork::default();
        let scene = calibrated_scene(&store, &p, &grid).unwrap();
        let configs = experiment_configs(&p);
        for (name, cfg) in &configs {
            let private = System::new(cfg.clone()).run_frame(&scene.scene);
            let shared = replay_shared(&store, &p, &grid, cfg.clone(), &work).unwrap();
            assert_eq!(
                frame_report_json(p.alias, name, &shared).render(),
                frame_report_json(p.alias, name, &private).render(),
                "{name}"
            );
        }
        // Z-order shares one plan; the three other traversals add one
        // each.
        assert_eq!(work.builds(), 4);
        assert_eq!(work.replays(), configs.len() as u64);
    }

    /// The store key follows exactly the fields the plan reads: each of
    /// them changes it, and no replay-only field does.
    #[test]
    fn plan_key_changes_with_plan_fields_only() {
        let p = profile("CCS");
        let grid = paper_grid();
        let base = cell_config(&p, "tcor64");
        let key = plan_store_key(&p, &grid, &base);
        type Edit = fn(&mut SystemConfig);
        let plan_fields: [(&str, Edit); 10] = [
            ("gpu.screen_width", |c| c.gpu.screen_width = 1024),
            ("gpu.screen_height", |c| c.gpu.screen_height = 512),
            ("gpu.tile_size", |c| c.gpu.tile_size = 16),
            ("gpu.traversal", |c| c.gpu.traversal = Traversal::Hilbert),
            ("overlap_test", |c| c.overlap_test = OverlapTest::Exact),
            ("raster", |c| c.raster.z_kill_rate = 0.25),
            ("gpu.vertex_cache", |c| {
                c.gpu.vertex_cache = CacheParams::new(32 << 10, 64, 4, 1)
            }),
            ("gpu.texture_cache", |c| {
                c.gpu.texture_cache = CacheParams::new(16 << 10, 64, 4, 1)
            }),
            ("gpu.num_texture_caches", |c| c.gpu.num_texture_caches = 2),
            ("instr_cache", |c| {
                c.instr_cache = CacheParams::new(4 << 10, 64, 2, 1)
            }),
        ];
        for (field, edit) in plan_fields {
            let mut cfg = base.clone();
            edit(&mut cfg);
            assert_ne!(plan_store_key(&p, &grid, &cfg), key, "{field}");
        }
        let replay_fields: [(&str, Edit); 17] = [
            ("tile cache", |c| {
                c.gpu.tile_cache = TileCacheOrg::Unified {
                    cache: CacheParams::new(32 << 10, 64, 4, 1),
                }
            }),
            ("l2 mode", |c| c.l2_mode = L2Mode::Baseline),
            ("mshrs", |c| c.mshrs = 2),
            ("queue depth", |c| c.queue_depth = 4),
            ("list scheme", |c| c.list_scheme = ListsScheme::Baseline),
            ("write bypass", |c| c.attr_write_bypass = false),
            ("attr indexing", |c| c.attr_indexing = Indexing::Modulo),
            ("fragment processors", |c| c.fragment_processors = 32),
            ("simd lanes", |c| c.simd_lanes = 8),
            ("warm l2", |c| c.warm_l2 = false),
            ("fetch on write miss", |c| c.fetch_on_write_miss = false),
            ("l2", |c| c.gpu.l2 = CacheParams::new(512 << 10, 64, 8, 12)),
            ("memory", |c| {
                c.gpu.memory = MemoryParams {
                    max_latency: 200,
                    ..c.gpu.memory
                }
            }),
            ("clock", |c| c.gpu.clock_hz = 800_000_000),
            ("voltage", |c| c.gpu.voltage = 0.9),
            ("tech node", |c| c.gpu.tech_nm = 22),
            ("several at once", |c| {
                c.gpu.tile_cache = TileCacheOrg::Unified {
                    cache: CacheParams::new(128 << 10, 64, 8, 1),
                };
                c.l2_mode = L2Mode::Baseline;
                c.mshrs = 1;
                c.warm_l2 = false;
            }),
        ];
        for (what, edit) in replay_fields {
            let mut cfg = base.clone();
            edit(&mut cfg);
            assert_eq!(plan_store_key(&p, &grid, &cfg), key, "{what}");
        }
        // The scene is part of the key too.
        assert_ne!(plan_store_key(&profile("DDS"), &grid, &base), key);
    }

    /// One backend serving the twelve GTr and SoD cells (the serving
    /// benchmark's set-up) builds one plan per workload.
    #[test]
    fn a_backend_builds_one_plan_per_workload() {
        use tcor_serve::{ApiCall, Backend};
        let backend = crate::SimBackend::new();
        for workload in ["GTr", "SoD"] {
            for config in CELL_CONFIGS {
                let call = ApiCall::Cell {
                    workload: workload.to_string(),
                    config: config.to_string(),
                };
                backend.call(&call).unwrap();
            }
        }
        let work = backend.plan_work();
        assert_eq!((work.builds(), work.replays()), (2, 12));
    }
}
