//! Multi-frame steady-state sessions: the persistent-L2 ground truth the
//! one-shot `warm_l2` approximation stands in for.
//!
//! An animated sequence runs through a [`Session`] of each Tile Cache
//! organisation; after the cold first frame, each report covers one
//! steady-state frame. The paper's qualitative results must hold frame
//! after frame, and the one-shot model must agree with the steady state
//! on the headline directions.

use tcor::{Session, System, SystemConfig};
use tcor_common::TileGrid;
use tcor_workloads::{suite, Animation};

fn profile(alias: &str) -> tcor_workloads::BenchmarkProfile {
    suite().into_iter().find(|b| b.alias == alias).unwrap()
}

#[test]
fn steady_state_preserves_the_paper_orderings() {
    let grid = TileGrid::new(1960, 768, 32);
    let p = profile("SoD");
    let anim = Animation::new(&p, &grid);
    let rp = p.raster_params();
    let mut base = Session::new(SystemConfig::paper_baseline_64k().with_raster(rp));
    let mut tcor = Session::new(SystemConfig::paper_tcor_64k().with_raster(rp));

    for f in 0..4 {
        let scene = anim.frame(&grid, f as f64);
        let rb = base.run_frame(&scene);
        let rt = tcor.run_frame(&scene);
        if f == 0 {
            continue; // cold frame: both systems warm up
        }
        assert!(
            rt.pb_l2_accesses() < rb.pb_l2_accesses(),
            "frame {f}: PB L2 {} vs {}",
            rt.pb_l2_accesses(),
            rb.pb_l2_accesses()
        );
        assert!(
            rt.pb_mm_accesses() <= rb.pb_mm_accesses(),
            "frame {f}: PB MM {} vs {}",
            rt.pb_mm_accesses(),
            rb.pb_mm_accesses()
        );
        assert!(
            rt.primitives_per_cycle() > rb.primitives_per_cycle(),
            "frame {f}: throughput"
        );
    }
}

#[test]
fn warm_start_approximates_steady_state_fills() {
    // The one-shot model's warm L2 exists to approximate the steady
    // state's "previous frame still resident" effect. Compare PB L2 reads
    // (which include partial-write fills) between (a) the second frame of
    // a static-scene session and (b) a one-shot warm run.
    let grid = TileGrid::new(1960, 768, 32);
    let p = profile("CCS");
    let anim = Animation::new(&p, &grid);
    let scene = anim.frame(&grid, 0.0);
    let rp = p.raster_params();

    let mut session = Session::new(SystemConfig::paper_tcor_64k().with_raster(rp));
    session.run_frame(&scene); // cold
    let steady = session.run_frame(&scene); // steady state, same scene
    let oneshot = System::new(SystemConfig::paper_tcor_64k().with_raster(rp)).run_frame(&scene);

    // The one-shot warm model fully absorbs PB fills; the steady state
    // keeps a small residue — partial-write fills of blocks whose dead
    // lines were evicted by texture traffic during the previous frame
    // (reads of dead data the write then overwrites; see DESIGN.md).
    assert_eq!(
        oneshot.pb_mm_reads(),
        0,
        "warm one-shot PB fills hit the L2"
    );
    let base_ref =
        System::new(SystemConfig::paper_baseline_64k().with_raster(rp)).run_frame(&scene);
    assert!(
        steady.pb_mm_accesses() * 5 < base_ref.pb_mm_accesses(),
        "steady-state residue {} should stay far below baseline {}",
        steady.pb_mm_accesses(),
        base_ref.pb_mm_accesses()
    );
    // And the PB L2 access counts should agree within 25%.
    let a = steady.pb_l2_accesses() as f64;
    let b = oneshot.pb_l2_accesses() as f64;
    let rel = (a - b).abs() / a.max(b);
    assert!(rel < 0.25, "steady {a} vs one-shot {b}: {rel:.2} apart");
}

#[test]
fn session_counters_cover_exactly_one_frame() {
    let grid = TileGrid::new(1960, 768, 32);
    let p = profile("GTr");
    let anim = Animation::new(&p, &grid);
    let scene = anim.frame(&grid, 0.0);
    let rp = p.raster_params();
    let mut session = Session::new(SystemConfig::paper_baseline_64k().with_raster(rp));
    let first = session.run_frame(&scene);
    let second = session.run_frame(&scene);
    // Same work per frame...
    assert_eq!(first.prims_fetched, second.prims_fetched);
    // ...but the steady frame sees fewer misses than the cold one, and
    // counters were reset (not accumulated).
    assert!(second.total_mm_accesses() < first.total_mm_accesses());
    assert!(second.pb_l2_accesses() <= first.pb_l2_accesses());
}

#[test]
fn steady_state_tcor_still_eliminates_pb_dram_traffic() {
    let grid = TileGrid::new(1960, 768, 32);
    // Small-PB benchmarks: the paper's Fig. 16 "100%" rows must persist
    // in the steady state.
    for alias in ["SoD", "GTr"] {
        let p = profile(alias);
        let anim = Animation::new(&p, &grid);
        let rp = p.raster_params();
        let mut tcor = Session::new(SystemConfig::paper_tcor_64k().with_raster(rp));
        let mut base = Session::new(SystemConfig::paper_baseline_64k().with_raster(rp));
        for f in 0..3 {
            let scene = anim.frame(&grid, f as f64);
            let r = tcor.run_frame(&scene);
            let b = base.run_frame(&scene);
            if f > 0 {
                // Near-elimination: only the dead-line fill residue
                // remains (no PB *write* ever reaches DRAM).
                assert_eq!(r.pb_mm_writes(), 0, "{alias} frame {f}");
                assert!(
                    r.pb_mm_accesses() * 4 < b.pb_mm_accesses(),
                    "{alias} frame {f}: {} vs baseline {}",
                    r.pb_mm_accesses(),
                    b.pb_mm_accesses()
                );
            }
        }
    }
}

#[test]
fn one_shot_equals_first_session_frame_when_warm_disabled() {
    let grid = TileGrid::new(1960, 768, 32);
    let p = profile("GTr");
    let scene = Animation::new(&p, &grid).frame(&grid, 0.0);
    for cfg in [
        SystemConfig::paper_baseline_64k(),
        SystemConfig::paper_tcor_64k(),
    ] {
        let mut cfg = cfg.with_raster(p.raster_params());
        cfg.warm_l2 = false;
        let oneshot = System::new(cfg.clone()).run_frame(&scene);
        let mut session = Session::new(cfg);
        let first = session.run_frame(&scene);
        // Identical inputs, identical cold state -> identical L2-level
        // traffic (the one-shot end-of-frame drain differs only at DRAM).
        let sys = oneshot.system;
        assert_eq!(oneshot.pb_l2_accesses(), first.pb_l2_accesses(), "{sys}");
        assert_eq!(oneshot.l2_stats.misses(), first.l2_stats.misses(), "{sys}");
        assert_eq!(oneshot.fetch_cycles, first.fetch_cycles, "{sys}");
    }
}
