//! Quickstart: simulate one frame through the baseline GPU and through
//! TCOR, and print what the paper's evaluation measures.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tcor::{System, SystemConfig};
use tcor_common::Tri2;
use tcor_gpu::{Scene, ScenePrimitive};

fn main() {
    // A simple synthetic frame: 200 screen-space objects of 10 triangles
    // each, scattered over the 1960x768 screen. Real suites come from
    // `tcor_workloads`; this shows the raw API.
    let mut scene = Scene::new();
    for obj in 0..200u32 {
        let ox = (obj as f32 * 173.0) % 1800.0;
        let oy = (obj as f32 * 101.0) % 700.0;
        for t in 0..10u32 {
            let x = ox + (t % 5) as f32 * 20.0;
            let y = oy + (t / 5) as f32 * 20.0;
            scene.push(ScenePrimitive {
                tri: Tri2::new((x, y), (x + 40.0, y), (x, y + 40.0)),
                attr_count: 3,
            });
        }
    }

    let baseline = System::new(SystemConfig::paper_baseline_64k()).run_frame(&scene);
    let tcor = System::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);

    println!("frame: {} primitives binned", baseline.num_primitives);
    println!();
    println!("{:<38}{:>12}{:>12}", "metric", "baseline", "TCOR");
    println!("{}", "-".repeat(62));
    let row = |name: &str, b: String, t: String| println!("{name:<38}{b:>12}{t:>12}");
    row(
        "PB accesses to L2",
        baseline.pb_l2_accesses().to_string(),
        tcor.pb_l2_accesses().to_string(),
    );
    row(
        "PB accesses to main memory",
        baseline.pb_mm_accesses().to_string(),
        tcor.pb_mm_accesses().to_string(),
    );
    row(
        "total main-memory accesses",
        baseline.total_mm_accesses().to_string(),
        tcor.total_mm_accesses().to_string(),
    );
    row(
        "tile fetcher primitives/cycle",
        format!("{:.3}", baseline.primitives_per_cycle()),
        format!("{:.3}", tcor.primitives_per_cycle()),
    );
    row(
        "dead L2 lines dropped (no write-back)",
        baseline.dead_drops.to_string(),
        tcor.dead_drops.to_string(),
    );
    println!();
    println!(
        "tiling engine speedup: {:.1}x",
        tcor.primitives_per_cycle() / baseline.primitives_per_cycle().max(1e-12)
    );
}
