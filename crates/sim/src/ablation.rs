//! Ablation studies for the design decisions called out in `DESIGN.md`.
//!
//! * **D1** — hardware OPT Numbers (12-bit next-tile ranks) vs exact
//!   Belady timestamps, on the 4-way Attribute Cache geometry.
//! * **D2** — the Polygon List Builder write bypass on/off.
//! * **D3** — TCOR's interleaved PB-Lists layout vs the baseline strided
//!   layout, under the same split caches.
//! * **D5** — XOR set indexing \[12\] vs modulo in the Primitive Buffer.

use crate::orchestrate::calibrated_scene;
use crate::output::{f3, Table};
use crate::plans::{replay_shared, PlanWork};
use tcor::SystemConfig;
use tcor_cache::policy::Opt;
use tcor_cache::profile::simulate_policy;
use tcor_cache::{AccessMeta, Cache, Indexing};
use tcor_common::{CacheParams, TcorResult, TileGrid, Traversal};
use tcor_gpu::{bin_scene, RasterParams};
use tcor_pbuf::ListsScheme;
use tcor_runner::ArtifactStore;
use tcor_workloads::trace::opt_number_annotations;
use tcor_workloads::{primitive_trace, prims_capacity, suite};

/// Full TCOR at the 64 KiB budget, then its D3 (baseline strided list
/// layout under the split caches), D2 (write bypass disabled) and D5
/// (modulo indexing in the Primitive Buffer) variants. All four replay
/// one frame plan.
pub(crate) fn variants(rp: RasterParams) -> [SystemConfig; 4] {
    let tcor = SystemConfig::paper_tcor_64k().with_raster(rp);
    let mut d3 = tcor.clone();
    d3.list_scheme = ListsScheme::Baseline;
    let mut d2 = tcor.clone();
    d2.attr_write_bypass = false;
    let mut d5 = tcor.clone();
    d5.attr_indexing = Indexing::Modulo;
    [tcor, d3, d2, d5]
}

/// Runs all four ablations over the suite and tabulates the outcome,
/// counting its frame replays in `work`.
///
/// # Errors
///
/// Propagates store corruption from the scene and plan lookups.
pub fn ablation(store: &ArtifactStore, work: &PlanWork) -> TcorResult<Table> {
    let grid = TileGrid::new(1960, 768, 32);
    let order = Traversal::ZOrder.order(&grid);
    let mut t = Table::new(
        "ablation",
        "Design-decision ablations (PB L2 accesses normalized to full TCOR; \
         miss ratios for D1/D5)",
        &[
            "bench",
            "d3_baseline_layout",
            "d2_no_bypass",
            "d5_modulo_index",
            "d1_exact_belady",
            "d1_opt_number",
        ],
    );
    for b in suite() {
        let [tcor, d3, d2, d5] = variants(b.raster_params()).map(|cfg| {
            replay_shared(store, &b, &grid, cfg, work).map(|r| r.pb_l2_accesses() as f64)
        });
        // D3, D2 and D5 traffic, normalized to full TCOR.
        let reference = tcor?;
        let (d3, d2, d5) = (d3? / reference, d2? / reference, d5? / reference);

        // D1: exact Belady vs hardware OPT Numbers on a 4-way,
        // 48 KiB-equivalent primitive-granularity cache.
        let cal = calibrated_scene(store, &b, &grid)?;
        let frame = bin_scene(&cal.scene, &grid, &order);
        let trace = primitive_trace(&frame.binned, &order);
        let cap = prims_capacity(48 << 10);
        let lines = ((cap as u64 / 4).max(1)) * 4;
        let params = CacheParams::new(lines, 1, 4, 1);
        let exact = simulate_policy(&trace, params, Indexing::Modulo, Opt::new(), true);
        // Hardware OPT Numbers: replay manually with the rank-based
        // priorities.
        let ranks = opt_number_annotations(&frame.binned, &order);
        let mut hw = Cache::new(params, Indexing::Modulo, Opt::new());
        for (a, nu) in trace.iter().zip(&ranks) {
            hw.access(a.addr, a.kind, AccessMeta::next_use(*nu));
        }
        t.push_row(vec![
            b.alias.to_string(),
            f3(d3),
            f3(d2),
            f3(d5),
            f3(exact.miss_ratio()),
            f3(hw.stats().miss_ratio()),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_table_covers_the_suite() {
        // Run on one benchmark only (by building the table over the full
        // suite would be slow in debug); instead assert the full function
        // shape on the smallest benchmark via a scoped copy.
        let t = ablation_single("GTr");
        assert_eq!(t.rows.len(), 1);
        let row = &t.rows[0];
        // D1: the hardware OPT Number policy is close to exact Belady —
        // within a few percent of miss ratio.
        let exact: f64 = row[4].parse().unwrap();
        let hw: f64 = row[5].parse().unwrap();
        assert!(
            (hw - exact).abs() < 0.05,
            "OPT-number approximation drifted: {hw} vs {exact}"
        );
    }

    /// Single-benchmark version of [`ablation`] for tests.
    fn ablation_single(alias: &str) -> Table {
        let grid = TileGrid::new(1960, 768, 32);
        let order = Traversal::ZOrder.order(&grid);
        let b = suite().into_iter().find(|b| b.alias == alias).unwrap();
        let mut t = Table::new(
            "ablation",
            "test",
            &["bench", "d3", "d2", "d5", "exact", "hw"],
        );
        let scene = tcor_workloads::generate_scene(&b, &grid);
        let frame = bin_scene(&scene, &grid, &order);
        let trace = primitive_trace(&frame.binned, &order);
        let cap = prims_capacity(48 << 10);
        let lines = ((cap as u64 / 4).max(1)) * 4;
        let params = CacheParams::new(lines, 1, 4, 1);
        let exact = simulate_policy(&trace, params, Indexing::Modulo, Opt::new(), true);
        let ranks = opt_number_annotations(&frame.binned, &order);
        let mut hw = Cache::new(params, Indexing::Modulo, Opt::new());
        for (a, nu) in trace.iter().zip(&ranks) {
            hw.access(a.addr, a.kind, AccessMeta::next_use(*nu));
        }
        t.push_row(vec![
            b.alias.to_string(),
            "-".into(),
            "-".into(),
            "-".into(),
            f3(exact.miss_ratio()),
            f3(hw.stats().miss_ratio()),
        ]);
        t
    }
}
