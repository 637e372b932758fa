//! Integration: the energy model against full-system frames — every
//! energy component and its response to the TCOR organization.

use tcor::{System, SystemConfig};
use tcor_common::Tri2;
use tcor_energy::EnergyModel;
use tcor_gpu::{Scene, ScenePrimitive};
use tcor_pbuf::Region;

/// A mesh-ordered scene large enough to pressure the 64 KiB Tile Cache.
fn scene(n: u32) -> Scene {
    (0..n)
        .map(|i| {
            let obj = i / 30;
            let k = i % 30;
            let ox = ((obj * 211) % 1700) as f32;
            let oy = ((obj * 137) % 650) as f32;
            let x = ox + (k % 6) as f32 * 18.0;
            let y = oy + (k / 6) as f32 * 18.0;
            ScenePrimitive {
                tri: Tri2::new((x, y), (x + 40.0, y), (x, y + 40.0)),
                attr_count: 1 + (i % 5) as u8,
            }
        })
        .collect()
}

#[test]
fn dram_dominates_cache_energy_and_tcor_reduces_it() {
    let s = scene(3000);
    let model = EnergyModel::default();
    let base = System::new(SystemConfig::paper_baseline_64k()).run_frame(&s);
    let tcor = System::new(SystemConfig::paper_tcor_64k()).run_frame(&s);
    let eb = model.evaluate(&base);
    let et = model.evaluate(&tcor);
    // Component structure: DRAM is the dominant hierarchy term.
    assert!(eb.dram_pj > eb.l2_pj && eb.dram_pj > eb.l1_pj);
    // TCOR's saving comes from DRAM and L2 activity.
    assert!(et.dram_pj < eb.dram_pj, "{} vs {}", et.dram_pj, eb.dram_pj);
    assert!(et.memory_hierarchy_pj() < eb.memory_hierarchy_pj());
    // Compute energy is identical: same scene, same fragments shaded.
    assert!((et.compute_pj - eb.compute_pj).abs() < 1e-6 * eb.compute_pj);
}

#[test]
fn tcor_frame_is_never_slower() {
    let s = scene(3000);
    let model = EnergyModel::default();
    let base = System::new(SystemConfig::paper_baseline_64k()).run_frame(&s);
    let tcor = System::new(SystemConfig::paper_tcor_64k()).run_frame(&s);
    let fb = model.evaluate(&base);
    let ft = model.evaluate(&tcor);
    assert!(ft.frame_cycles <= fb.frame_cycles);
    assert!(ft.fps(600_000_000) >= fb.fps(600_000_000));
}

#[test]
fn l2_enhancement_energy_is_incremental() {
    let s = scene(3000);
    let model = EnergyModel::default();
    let nol2 = System::new(SystemConfig::paper_tcor_64k().without_l2_enhancements()).run_frame(&s);
    let full = System::new(SystemConfig::paper_tcor_64k()).run_frame(&s);
    assert!(
        model.evaluate(&full).memory_hierarchy_pj() <= model.evaluate(&nol2).memory_hierarchy_pj()
    );
}

#[test]
fn traffic_composition_is_plausible() {
    // The frame buffer flush and texture streams must be a large share of
    // DRAM traffic (the paper's Fig. 18 denominators), or the PB share —
    // and thus TCOR's total impact — would be distorted.
    let s = scene(3000);
    let base = System::new(SystemConfig::paper_baseline_64k()).run_frame(&s);
    let fb = base.traffic.region(Region::FrameBuffer).mm_total();
    let tex = base.traffic.region(Region::Textures).mm_total();
    let pb = base.pb_mm_accesses();
    let total = base.total_mm_accesses();
    assert!(fb + tex > total / 2, "other traffic should dominate DRAM");
    let pb_share = pb as f64 / total as f64;
    assert!(
        (0.02..0.5).contains(&pb_share),
        "PB share {pb_share:.2} outside the paper's plausible band"
    );
}
