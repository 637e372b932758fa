//! Cross-crate integration: full-system frames over calibrated Table II
//! workloads, asserting the paper's qualitative results hold end to end.

use tcor_common::TileGrid;
use tcor_energy::EnergyModel;
use tcor_sim::suite::run_benchmark;
use tcor_workloads::suite;

/// Runs two contrasting benchmarks: SoD (small PB, high re-use — large
/// TCOR wins) and DDS (PB far exceeding every cache — modest wins).
fn runs() -> Vec<tcor_sim::suite::BenchmarkRun> {
    let grid = TileGrid::new(1960, 768, 32);
    let all = suite();
    ["SoD", "DDS"]
        .iter()
        .map(|a| {
            let p = all.iter().find(|b| &b.alias == a).unwrap();
            run_benchmark(p, &grid)
        })
        .collect()
}

#[test]
fn tcor_reduces_every_traffic_metric() {
    for r in runs() {
        let alias = r.profile.alias;
        assert!(
            r.tcor64.pb_l2_accesses() < r.base64.pb_l2_accesses(),
            "{alias}: PB->L2"
        );
        assert!(
            r.tcor64.pb_mm_accesses() < r.base64.pb_mm_accesses(),
            "{alias}: PB->MM"
        );
        assert!(
            r.tcor64.total_mm_accesses() < r.base64.total_mm_accesses(),
            "{alias}: total MM"
        );
        assert!(
            r.tcor128.pb_l2_accesses() < r.base128.pb_l2_accesses(),
            "{alias}: PB->L2 (128K)"
        );
    }
}

#[test]
fn small_pb_benchmarks_eliminate_mm_traffic_like_the_paper() {
    let rs = runs();
    let sod = &rs[0];
    let dds = &rs[1];
    // Fig. 16: SoD's PB main-memory accesses go to zero; DDS's (1.8 MiB
    // PB vs a 1 MiB L2) cannot, but still drop by roughly half.
    assert_eq!(
        sod.tcor64.pb_mm_accesses(),
        0,
        "SoD eliminates PB MM traffic"
    );
    let dds_norm = dds.tcor64.pb_mm_accesses() as f64 / dds.base64.pb_mm_accesses() as f64;
    assert!(
        (0.25..0.85).contains(&dds_norm),
        "DDS normalized PB MM {dds_norm:.2} out of the paper's band (~0.5)"
    );
}

#[test]
fn tiling_engine_speedup_in_paper_band() {
    for r in runs() {
        let sp = r.tcor64.primitives_per_cycle() / r.base64.primitives_per_cycle();
        assert!(
            (1.5..12.0).contains(&sp),
            "{}: speedup {sp:.1} outside the paper's 3.0-9.6x band (loose)",
            r.profile.alias
        );
    }
}

#[test]
fn energy_ordering_baseline_ge_nol2_ge_tcor() {
    let model = EnergyModel::default();
    for r in runs() {
        let eb = model.evaluate(&r.base64).memory_hierarchy_pj();
        let en = model.evaluate(&r.tcor_nol2_64).memory_hierarchy_pj();
        let et = model.evaluate(&r.tcor64).memory_hierarchy_pj();
        assert!(
            et <= en && en <= eb,
            "{}: energy ordering violated ({eb:.3e} -> {en:.3e} -> {et:.3e})",
            r.profile.alias
        );
    }
}

#[test]
fn dead_drops_happen_only_with_the_l2_enhancement() {
    for r in runs() {
        assert_eq!(r.base64.dead_drops, 0);
        assert_eq!(r.tcor_nol2_64.dead_drops, 0);
        assert!(r.tcor64.dead_drops > 0, "{}", r.profile.alias);
    }
}

#[test]
fn traffic_conservation_across_levels() {
    // Main-memory reads of a region can never exceed the L2 read
    // accesses for it (reads reach MM only through L2 misses), and MM
    // writes cannot exceed L2 writes arriving plus L2 write-backs.
    use tcor_pbuf::Region;
    for r in runs() {
        for rep in [&r.base64, &r.tcor64] {
            for region in [Region::PbLists, Region::PbAttributes, Region::Textures] {
                let t = rep.traffic.region(region);
                assert!(
                    t.mm_reads <= t.l2_reads,
                    "{} {:?} {:?}: mm reads {} > l2 reads {}",
                    r.profile.alias,
                    rep.system,
                    region,
                    t.mm_reads,
                    t.l2_reads
                );
            }
        }
    }
}

#[test]
fn identical_streams_identical_fetch_counts() {
    for r in runs() {
        let counts = [
            r.base64.prims_fetched,
            r.tcor_nol2_64.prims_fetched,
            r.tcor64.prims_fetched,
            r.base128.prims_fetched,
            r.tcor_nol2_128.prims_fetched,
            r.tcor128.prims_fetched,
        ];
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{}: {counts:?}",
            r.profile.alias
        );
    }
}
