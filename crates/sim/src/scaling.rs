//! The "Parallel Renderers" future-work study (§VII).
//!
//! The paper's conclusion argues that the faster Tiling Engine "opens the
//! door to more aggressive Raster Pipeline implementations, including the
//! use of Parallel Renderers". This experiment scales the fragment-shading
//! throughput (processors × SIMD lanes) and measures the frame rate of
//! the baseline and TCOR: as the Raster Pipeline gets faster, the
//! baseline's slow Tile Fetcher becomes the frame-time bottleneck while
//! TCOR keeps scaling.

use crate::output::Table;
use crate::plans::{replay_shared, PlanWork};
use tcor::SystemConfig;
use tcor_common::{TcorResult, TileGrid};
use tcor_energy::EnergyModel;
use tcor_gpu::RasterParams;
use tcor_runner::ArtifactStore;
use tcor_workloads::suite;

/// The raster-heavy benchmark the study scales.
pub const WORKLOAD: &str = "Snp";

/// Fragment processors per point: 1×..8× the Table I four.
pub(crate) const PROCESSORS: [u32; 4] = [4, 8, 16, 32];

/// The baseline and TCOR configurations at 64 KiB with `processors`
/// fragment processors.
pub(crate) fn configs(processors: u32, rp: RasterParams) -> [SystemConfig; 2] {
    [
        SystemConfig::paper_baseline_64k(),
        SystemConfig::paper_tcor_64k(),
    ]
    .map(|cfg| SystemConfig {
        fragment_processors: processors,
        ..cfg.with_raster(rp)
    })
}

/// FPS of baseline and TCOR as fragment-shading throughput scales
/// (1×..8× the Table I configuration), on a raster-heavy benchmark,
/// counting its frame replays in `work`.
///
/// # Errors
///
/// Propagates store corruption from the scene and plan lookups.
pub fn scaling(store: &ArtifactStore, work: &PlanWork) -> TcorResult<Table> {
    let grid = TileGrid::new(1960, 768, 32);
    let profile = suite()
        .into_iter()
        .find(|b| b.alias == WORKLOAD)
        .expect("Snp in suite");
    let rp = profile.raster_params();
    let model = EnergyModel::default();

    let mut t = Table::new(
        "scaling",
        "Parallel-renderer scaling (Snp): FPS vs fragment-shading throughput",
        &[
            "processors",
            "baseline_fps",
            "tcor_fps",
            "fps_gain",
            "baseline_fetch_bound_frac",
        ],
    );
    for procs in PROCESSORS {
        let [base, tcor] =
            configs(procs, rp).map(|cfg| replay_shared(store, &profile, &grid, cfg, work));
        let (base, tcor) = (base?, tcor?);
        let fb = model.evaluate(&base).fps(600_000_000);
        let ft = model.evaluate(&tcor).fps(600_000_000);
        // How much of the baseline's overlapped phase is fetch-bound:
        // coupled - raster-only lower bound, as a fraction.
        let raster_only: f64 = base.raster_cycles + 32.0 * grid.num_tiles() as f64;
        let fetch_bound = ((base.coupled_cycles - raster_only) / base.coupled_cycles).max(0.0);
        t.push_row(vec![
            procs.to_string(),
            format!("{fb:.1}"),
            format!("{ft:.1}"),
            format!("{:.1}%", (ft / fb - 1.0) * 100.0),
            format!("{fetch_bound:.2}"),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcor_fps_advantage_grows_with_raster_throughput() {
        let t = scaling(&ArtifactStore::new(), &PlanWork::default()).unwrap();
        assert_eq!(t.rows.len(), 4);
        let gain =
            |row: &Vec<String>| -> f64 { row[3].trim_end_matches('%').parse::<f64>().unwrap() };
        let first = gain(&t.rows[0]);
        let last = gain(&t.rows[3]);
        assert!(
            last > first,
            "FPS gain should grow with parallel renderers: {first}% -> {last}%"
        );
        assert!(
            last > 5.0,
            "at 8x renderers TCOR should clearly win: {last}%"
        );
    }
}
