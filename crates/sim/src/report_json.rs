//! JSON encodings of simulator results for the serving plane.
//!
//! `tcor-serve` transports opaque bodies; this module decides what a
//! cell report or a miss curve looks like on the wire. Both encoders
//! are deterministic — same report, same bytes — which is what makes
//! the serve-vs-CLI byte-identity guarantee (and the response cache's
//! warm-equals-cold property) checkable rather than aspirational:
//! counters come from the sorted [`MetricRegistry`](tcor_common::MetricRegistry)
//! view, derived floats render through [`Json`]'s shortest-round-trip
//! formatting, and no timestamps or host state enter the document.

use tcor::FrameReport;
use tcor_runner::Json;

/// Encodes one cell report (benchmark × configuration) as a JSON
/// object: identity, every hierarchical counter from
/// [`FrameReport::metrics`], and the derived per-frame quantities the
/// paper's figures plot.
pub fn frame_report_json(workload: &str, config: &str, report: &FrameReport) -> Json {
    let counters: Vec<(String, Json)> = report
        .metrics()
        .iter()
        .map(|(path, v)| (path.to_string(), Json::UInt(v)))
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("config", Json::str(config)),
        ("system", Json::str(report.system)),
        ("counters", Json::Obj(counters)),
        (
            "derived",
            Json::obj([
                ("pb_l2_accesses", Json::UInt(report.pb_l2_accesses())),
                ("pb_mm_accesses", Json::UInt(report.pb_mm_accesses())),
                ("total_l2_accesses", Json::UInt(report.total_l2_accesses())),
                ("total_mm_accesses", Json::UInt(report.total_mm_accesses())),
                ("fetch_cycles", Json::UInt(report.fetch_cycles)),
                ("plb_cycles", Json::UInt(report.plb_cycles)),
                ("raster_cycles", Json::Float(report.raster_cycles)),
                ("coupled_cycles", Json::Float(report.coupled_cycles)),
                (
                    "primitives_per_cycle",
                    Json::Float(report.primitives_per_cycle()),
                ),
                ("num_primitives", Json::UInt(report.num_primitives as u64)),
                ("pb_footprint_bytes", Json::UInt(report.pb_footprint_bytes)),
                ("fragments", Json::Float(report.fragments)),
                (
                    "shader_instructions",
                    Json::Float(report.shader_instructions),
                ),
                (
                    "attr_buffer_utilization",
                    Json::Float(report.attr_buffer_utilization),
                ),
                (
                    "attr_line_utilization",
                    Json::Float(report.attr_line_utilization),
                ),
                ("attr_stalls", Json::UInt(report.attr_stalls)),
            ]),
        ),
    ])
}

/// Encodes one miss curve as parallel `size_kb` / `miss_ratio` arrays.
/// Delegates to the shared encoder in `tcor-stream` so the offline
/// misscurve goldens and the streaming plane's finished curves are
/// byte-identical by construction, not by convention.
pub fn misscurve_json(workload: &str, policy: &str, sizes: &[usize], curve: &[f64]) -> Json {
    tcor_stream::misscurve_json(workload, policy, sizes, curve)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misscurve_json_is_deterministic_and_parallel() {
        let a = misscurve_json("GTr", "lru", &[8, 16], &[0.5, 0.25]);
        let b = misscurve_json("GTr", "lru", &[8, 16], &[0.5, 0.25]);
        assert_eq!(a.render(), b.render());
        assert_eq!(
            a.render(),
            "{\"workload\":\"GTr\",\"policy\":\"lru\",\"size_kb\":[8,16],\
             \"miss_ratio\":[0.5,0.25]}"
        );
    }

    #[test]
    fn frame_report_json_carries_identity_counters_and_derived() {
        let report = FrameReport {
            system: "tcor",
            structures: Vec::new(),
            l2_stats: tcor_common::AccessStats::new(),
            traffic: tcor_mem::TrafficMatrix::default(),
            dead_drops: 0,
            l2_wb_blocks: 0,
            pb_fill_blocks: 0,
            attr_wb_blocks: 0,
            attr_opt_violations: 0,
            fetch_cycles: 10,
            prims_fetched: 5,
            plb_cycles: 3,
            raster_cycles: 2.5,
            coupled_cycles: 12.0,
            fragments: 100.0,
            shader_instructions: 400.0,
            num_primitives: 5,
            pb_footprint_bytes: 960,
            attr_buffer_utilization: 0.5,
            attr_line_utilization: 0.75,
            attr_stalls: 0,
        };
        let doc = frame_report_json("GTr", "base64", &report).render();
        assert!(doc.starts_with("{\"workload\":\"GTr\",\"config\":\"base64\""));
        assert!(doc.contains("\"counters\":{"));
        assert!(doc.contains("\"derived\":{"));
        assert!(doc.contains("\"num_primitives\":"));
    }
}
