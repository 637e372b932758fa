//! Animated-sequence study: run several consecutive frames of a moving
//! scene and watch the per-frame metrics — the setting the paper's
//! abstract describes ("a set of representative animated graphics
//! applications").
//!
//! ```text
//! cargo run --release --example animation            # Snp, 8 frames
//! cargo run --release --example animation -- CCS 16
//! ```

use tcor::{System, SystemConfig};
use tcor_common::TileGrid;
use tcor_energy::EnergyModel;
use tcor_workloads::{suite, Animation};

fn main() {
    let mut args = std::env::args().skip(1);
    let alias = args.next().unwrap_or_else(|| "Snp".to_string());
    let frames: usize = args.next().map(|n| n.parse().expect("frames")).unwrap_or(8);
    let Some(profile) = suite().into_iter().find(|b| b.alias == alias) else {
        eprintln!("unknown benchmark `{alias}`");
        std::process::exit(1);
    };

    let grid = TileGrid::new(1960, 768, 32);
    let anim = Animation::new(&profile, &grid);
    let rp = profile.raster_params();
    let model = EnergyModel::default();

    println!(
        "{} ({alias}): {frames} animated frames, objects drifting a few px/frame\n",
        profile.name
    );
    println!(
        "{:>5}{:>14}{:>14}{:>12}{:>12}{:>10}",
        "frame", "base PB->MM", "tcor PB->MM", "base fps", "tcor fps", "fps gain"
    );
    let (mut sum_base_fps, mut sum_tcor_fps) = (0.0f64, 0.0f64);
    for f in 0..frames {
        let scene = anim.frame(&grid, f as f64);
        let base =
            System::new(SystemConfig::paper_baseline_64k().with_raster(rp)).run_frame(&scene);
        let tcor = System::new(SystemConfig::paper_tcor_64k().with_raster(rp)).run_frame(&scene);
        let fb = model.evaluate(&base).fps(600_000_000);
        let ft = model.evaluate(&tcor).fps(600_000_000);
        sum_base_fps += fb;
        sum_tcor_fps += ft;
        println!(
            "{f:>5}{:>14}{:>14}{fb:>12.1}{ft:>12.1}{:>9.1}%",
            base.pb_mm_accesses(),
            tcor.pb_mm_accesses(),
            (ft / fb - 1.0) * 100.0
        );
    }
    println!(
        "\nsequence average FPS: baseline {:.1}, TCOR {:.1} ({:+.1}%)",
        sum_base_fps / frames as f64,
        sum_tcor_fps / frames as f64,
        (sum_tcor_fps / sum_base_fps - 1.0) * 100.0
    );
}
