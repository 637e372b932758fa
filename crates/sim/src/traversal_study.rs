//! Traversal-order sensitivity study.
//!
//! The paper fixes Z-order traversal (Table I) and §III.A only requires
//! that the order be *fixed and known beforehand* — any order works for
//! OPT-number computation. This experiment quantifies how much the choice
//! matters: scanline, serpentine and Z-order traversals over two
//! contrasting benchmarks, measuring TCOR's PB L2 traffic and Tiling
//! Engine throughput.
//!
//! Expected shape: Z-order shortens reuse distances (a primitive's tiles
//! are visited in bursts), helping both the Attribute Cache and the L2's
//! dead-line turnover; scanline stretches vertical neighbours far apart.

use crate::output::{f3, Table};
use tcor::{System, SystemConfig};
use tcor_common::{TcorResult, Traversal};
use tcor_runner::ArtifactStore;
use tcor_workloads::suite;

/// PB L2 accesses and primitives/cycle per traversal order.
///
/// # Errors
///
/// Propagates store corruption from the scene lookups.
pub fn traversal_study(store: &ArtifactStore) -> TcorResult<Table> {
    let grid = tcor_common::TileGrid::new(1960, 768, 32);
    let all = suite();
    let picks: Vec<_> = ["CCS", "TRu"]
        .iter()
        .map(|a| all.iter().find(|b| &b.alias == a).unwrap())
        .collect();
    let mut t = Table::new(
        "traversal",
        "Traversal-order sensitivity: TCOR PB L2 accesses and PPC",
        &["bench", "order", "pb_l2", "ppc"],
    );
    for b in picks {
        let cal = crate::orchestrate::calibrated_scene(store, b, &grid)?;
        let scene = &cal.scene;
        for (order, name) in [
            (Traversal::Scanline, "scanline"),
            (Traversal::Serpentine, "serpentine"),
            (Traversal::ZOrder, "z-order"),
            (Traversal::Hilbert, "hilbert"),
        ] {
            let mut cfg = SystemConfig::paper_tcor_64k().with_raster(b.raster_params());
            cfg.gpu.traversal = order;
            let r = System::new(cfg).run_frame(scene);
            t.push_row(vec![
                b.alias.to_string(),
                name.to_string(),
                r.pb_l2_accesses().to_string(),
                f3(r.primitives_per_cycle()),
            ]);
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_traversal_runs_and_zorder_is_listed() {
        let t = traversal_study(&ArtifactStore::new()).unwrap();
        assert_eq!(t.rows.len(), 8);
        assert!(t.rows.iter().any(|r| r[1] == "z-order"));
        // All traversals produce valid throughput.
        for r in &t.rows {
            let ppc: f64 = r[3].parse().unwrap();
            assert!(ppc > 0.0 && ppc <= 1.0, "{r:?}");
        }
    }
}
