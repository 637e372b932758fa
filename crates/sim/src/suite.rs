//! Full-system runs over the benchmark suite — the shared substrate of
//! Figures 14–24.

use tcor::{FramePlan, FrameReport, System, SystemConfig};
use tcor_common::TileGrid;
use tcor_workloads::BenchmarkProfile;

/// All six configurations of one benchmark: {baseline, TCOR-without-L2,
/// TCOR} × {64 KiB, 128 KiB}.
#[derive(Clone, Debug)]
pub struct BenchmarkRun {
    /// The profile that produced it.
    pub profile: BenchmarkProfile,
    /// Measured scene statistics (reuse, footprint) for Table II.
    pub measured_reuse: f64,
    /// Measured PB footprint in bytes.
    pub measured_footprint_bytes: u64,
    /// Baseline, 64 KiB unified Tile Cache.
    pub base64: FrameReport,
    /// TCOR L1s with the baseline L2, 64 KiB budget (ablation).
    pub tcor_nol2_64: FrameReport,
    /// Full TCOR, 64 KiB budget.
    pub tcor64: FrameReport,
    /// Baseline, 128 KiB.
    pub base128: FrameReport,
    /// TCOR without L2 enhancements, 128 KiB.
    pub tcor_nol2_128: FrameReport,
    /// Full TCOR, 128 KiB.
    pub tcor128: FrameReport,
}

impl BenchmarkRun {
    /// The six cell reports paired with their [`CELL_CONFIGS`] names, in
    /// field order — the iteration surface of the audit layer.
    pub fn cells(&self) -> [(&'static str, &FrameReport); 6] {
        [
            ("base64", &self.base64),
            ("tcor_nol2_64", &self.tcor_nol2_64),
            ("tcor64", &self.tcor64),
            ("base128", &self.base128),
            ("tcor_nol2_128", &self.tcor_nol2_128),
            ("tcor128", &self.tcor128),
        ]
    }
}

/// The whole suite.
#[derive(Clone, Debug)]
pub struct SuiteRun {
    /// One entry per Table II benchmark, in the paper's order.
    pub benchmarks: Vec<BenchmarkRun>,
}

impl SuiteRun {
    /// Arithmetic mean of `f` over benchmarks (the paper's "average"
    /// bars).
    pub fn average(&self, f: impl Fn(&BenchmarkRun) -> f64) -> f64 {
        if self.benchmarks.is_empty() {
            return 0.0;
        }
        self.benchmarks.iter().map(f).sum::<f64>() / self.benchmarks.len() as f64
    }
}

/// The six configuration cells of every benchmark, in [`BenchmarkRun`]
/// field order. These names key the runner's memoized cell artifacts
/// and its telemetry labels.
pub const CELL_CONFIGS: [&str; 6] = [
    "base64",
    "tcor_nol2_64",
    "tcor64",
    "base128",
    "tcor_nol2_128",
    "tcor128",
];

/// The configuration of one suite cell, with the benchmark's raster
/// calibration. All six share one [`tcor::PlanKey`]: they differ only
/// in the Tile Cache and the L2.
///
/// # Panics
///
/// Panics on a name outside [`CELL_CONFIGS`].
pub fn cell_config(profile: &BenchmarkProfile, cfg: &str) -> SystemConfig {
    match cfg {
        "base64" => SystemConfig::paper_baseline_64k(),
        "tcor_nol2_64" => SystemConfig::paper_tcor_64k().without_l2_enhancements(),
        "tcor64" => SystemConfig::paper_tcor_64k(),
        "base128" => SystemConfig::paper_baseline_128k(),
        "tcor_nol2_128" => SystemConfig::paper_tcor_128k().without_l2_enhancements(),
        "tcor128" => SystemConfig::paper_tcor_128k(),
        other => panic!("unknown cell config `{other}`"),
    }
    .with_raster(profile.raster_params())
}

/// Assembles a [`BenchmarkRun`] from a calibrated scene and a cell
/// supplier (direct simulation here; the runner's memoized store in
/// the orchestrated path).
pub fn assemble_run(
    profile: &BenchmarkProfile,
    calibrated: &tcor_workloads::CalibratedScene,
    mut cell: impl FnMut(&str) -> FrameReport,
) -> BenchmarkRun {
    BenchmarkRun {
        profile: *profile,
        measured_reuse: calibrated.measured_reuse,
        measured_footprint_bytes: calibrated.measured_footprint_bytes,
        base64: cell("base64"),
        tcor_nol2_64: cell("tcor_nol2_64"),
        tcor64: cell("tcor64"),
        base128: cell("base128"),
        tcor_nol2_128: cell("tcor_nol2_128"),
        tcor128: cell("tcor128"),
    }
}

/// Runs one benchmark through all six configurations, replaying one
/// frame plan.
pub fn run_benchmark(profile: &BenchmarkProfile, grid: &TileGrid) -> BenchmarkRun {
    let calibrated = tcor_workloads::synth::calibrate(profile, grid);
    let plan = FramePlan::new(&cell_config(profile, CELL_CONFIGS[0]), &calibrated.scene);
    assemble_run(profile, &calibrated, |cfg| {
        System::new(cell_config(profile, cfg)).replay(&plan)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One small benchmark end to end through all six configs — the
    /// cheap smoke test; the full suite runs in the harness and in
    /// integration tests.
    #[test]
    fn single_benchmark_all_configs() {
        let grid = TileGrid::new(1960, 768, 32);
        let profile = tcor_workloads::suite()[1]; // SoD: small, high reuse
        let run = run_benchmark(&profile, &grid);
        // Identical streams across configurations.
        assert_eq!(run.base64.prims_fetched, run.tcor64.prims_fetched);
        assert_eq!(run.base128.prims_fetched, run.tcor128.prims_fetched);
        // TCOR reduces PB L2 traffic and PB MM traffic at both sizes.
        assert!(run.tcor64.pb_l2_accesses() < run.base64.pb_l2_accesses());
        assert!(run.tcor64.pb_mm_accesses() <= run.base64.pb_mm_accesses());
        assert!(run.tcor128.pb_l2_accesses() < run.base128.pb_l2_accesses());
        // Tiling engine speedup.
        assert!(run.tcor64.primitives_per_cycle() > run.base64.primitives_per_cycle());
        // The ablation (baseline L2) produces at least as many PB MM
        // writes as the full TCOR.
        assert!(run.tcor64.pb_mm_writes() <= run.tcor_nol2_64.pb_mm_writes());
    }

    #[test]
    fn average_helper() {
        let grid = TileGrid::new(1960, 768, 32);
        let profile = tcor_workloads::suite()[9]; // GTr: smallest
        let run = run_benchmark(&profile, &grid);
        let s = SuiteRun {
            benchmarks: vec![run.clone(), run],
        };
        let avg = s.average(|b| b.base64.num_primitives as f64);
        assert!(avg > 0.0);
    }
}
