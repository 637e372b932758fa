//! End-to-end over the full 3D path: world-space geometry through the
//! Vertex Stage transform, exact SAT binning, and both Tile Cache
//! organizations.

use tcor::{System, SystemConfig};
use tcor_common::{TileGrid, Traversal};
use tcor_gpu::{bin_scene_with, transform_scene, Mat4, OverlapTest, Scene, Vec3, WorldPrimitive};

/// A grid of ground-plane quads receding toward the horizon.
fn world() -> Vec<WorldPrimitive> {
    let mut prims = Vec::new();
    for gz in 0..20 {
        for gx in -10..10 {
            let (x0, z0) = (gx as f32, -(gz as f32) - 1.0);
            let quad = [
                Vec3::new(x0, 0.0, z0),
                Vec3::new(x0 + 1.0, 0.0, z0),
                Vec3::new(x0 + 1.0, 0.0, z0 - 1.0),
                Vec3::new(x0, 0.0, z0 - 1.0),
            ];
            prims.push(WorldPrimitive {
                v: [quad[0], quad[1], quad[2]],
                attr_count: 3,
            });
            prims.push(WorldPrimitive {
                v: [quad[0], quad[2], quad[3]],
                attr_count: 3,
            });
        }
    }
    prims
}

fn camera(w: f32, h: f32) -> Mat4 {
    let proj = Mat4::perspective(std::f32::consts::FRAC_PI_3, w / h, 0.1, 200.0);
    let view = Mat4::look_at(
        Vec3::new(0.0, 2.0, 2.0),
        Vec3::new(0.0, 0.0, -10.0),
        Vec3::new(0.0, 1.0, 0.0),
    );
    proj.mul(&view)
}

fn screen_scene() -> Scene {
    let (w, h) = (1960.0, 768.0);
    transform_scene(&world(), &camera(w, h), w, h)
}

#[test]
fn transform_produces_perspective_structure() {
    let scene = screen_scene();
    assert!(scene.len() > 100, "most of the ground plane is visible");
    assert!(scene.len() <= world().len());
    // Perspective: triangles vary in size (near ones much larger).
    let mut areas: Vec<f32> = scene.primitives().iter().map(|p| p.tri.area()).collect();
    areas.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert!(
        areas[areas.len() - 1] > 10.0 * areas[0].max(1e-3),
        "no perspective size variation"
    );
}

#[test]
fn exact_binning_reduces_pmds_on_projected_geometry() {
    let grid = TileGrid::new(1960, 768, 32);
    let order = Traversal::ZOrder.order(&grid);
    let scene = screen_scene();
    let bbox = bin_scene_with(&scene, &grid, &order, OverlapTest::BoundingBox);
    let exact = bin_scene_with(&scene, &grid, &order, OverlapTest::Exact);
    // Projected ground quads are skewed triangles: the exact test must
    // strictly reduce the binned pairs.
    assert!(exact.binned.total_pmds() < bbox.binned.total_pmds());
    assert_eq!(exact.binned.num_primitives(), bbox.binned.num_primitives());
}

#[test]
fn tcor_wins_on_projected_3d_geometry_with_exact_binning() {
    let scene = screen_scene();
    let mut base_cfg = SystemConfig::paper_baseline_64k();
    base_cfg.overlap_test = OverlapTest::Exact;
    let mut tcor_cfg = SystemConfig::paper_tcor_64k();
    tcor_cfg.overlap_test = OverlapTest::Exact;
    let base = System::new(base_cfg).run_frame(&scene);
    let tcor = System::new(tcor_cfg).run_frame(&scene);
    assert_eq!(base.prims_fetched, tcor.prims_fetched);
    assert!(tcor.pb_l2_accesses() < base.pb_l2_accesses());
    assert!(tcor.primitives_per_cycle() > base.primitives_per_cycle());
}
