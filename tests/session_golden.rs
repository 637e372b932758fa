//! Multi-frame sessions, pinned count for count.
//!
//! The goldens and `results/golden/cells.jsonl` pin one-shot frames
//! only: a cold L2 that the warm start fills and the end-of-frame drain
//! empties. A [`Session`] runs the other half of the memory hierarchy:
//! the frame boundary that resets only the completed-tile watermark,
//! dirty L2 lines carried from one frame into the next, and dead drops
//! of those lines once the next frame's tiles complete.
//! `results/golden/session.jsonl` holds the full report (the
//! `tcor-sim cell` JSON form, config labelled `<cell>/frame<f>`) of each
//! frame of an animated session, for every workload, suite configuration
//! and frame below; the current code must reproduce it byte for byte.
//!
//! The three configurations cover both L2 modes and the split Tile
//! Cache on the baseline L2. Every session but DDS under `base64` ends
//! each frame with dirty L2 lines (62 to 1,516 of them), and the next
//! frame evicts 62 to 1,346 of them, by write-back or, under `tcor64`,
//! by dead drop: the `tcor64` frames drop 1,235 to 14,249 dead lines
//! each.
//!
//! After an intentional change, re-record the file with
//!
//! ```text
//! TCOR_RECORD_SESSION_GOLDEN=1 cargo test --test session_golden
//! ```

use tcor::Session;
use tcor_common::TileGrid;
use tcor_sim::report_json::frame_report_json;
use tcor_sim::suite::cell_config;
use tcor_workloads::{suite, Animation};

const WORKLOADS: [&str; 2] = ["DDS", "GTr"];
const CONFIGS: [&str; 3] = ["base64", "tcor_nol2_64", "tcor64"];
const FRAMES: u32 = 3;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden/session.jsonl");

/// One JSON line per frame, in workload, configuration, frame order.
fn session_reports() -> String {
    let grid = TileGrid::new(1960, 768, 32);
    let mut out = String::new();
    for alias in WORKLOADS {
        let profile = suite()
            .into_iter()
            .find(|b| b.alias == alias)
            .expect("a Table II workload");
        let anim = Animation::new(&profile, &grid);
        let scenes: Vec<_> = (0..FRAMES).map(|f| anim.frame(&grid, f as f64)).collect();
        for config in CONFIGS {
            let mut session = Session::new(cell_config(&profile, config));
            for (f, scene) in scenes.iter().enumerate() {
                let report = session.run_frame(scene);
                let label = format!("{config}/frame{f}");
                out.push_str(&frame_report_json(alias, &label, &report).render());
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn session_reports_match_the_committed_golden() {
    let got = session_reports();
    if std::env::var_os("TCOR_RECORD_SESSION_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("writing the session golden");
    }
    let want = std::fs::read_to_string(GOLDEN).expect("results/golden/session.jsonl");
    for (line, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "session.jsonl line {} differs", line + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "session.jsonl line count"
    );
    assert!(got == want, "session.jsonl differs byte for byte");
}
