//! Chrome trace-event export of a [`FrameTrace`].
//!
//! The output is the JSON object form of the trace-event format
//! (`{"traceEvents": [...]}`) that `chrome://tracing` and Perfetto load
//! directly. Cycle timestamps map 1:1 onto the format's microsecond
//! field — the viewer's time axis simply reads as cycles.

use tcor_common::{FrameTrace, TraceEvent, TracePhase};
use tcor_runner::Json;

/// Process/thread ids under which all events are filed (single simulated
/// Tiling Engine).
const PID: u64 = 1;

fn event_json(e: &TraceEvent) -> Json {
    let mut obj = vec![
        ("name".to_string(), Json::str(e.name.clone())),
        ("cat".to_string(), Json::str(e.cat)),
        ("ph".to_string(), Json::str(e.phase.code())),
        ("ts".to_string(), Json::UInt(e.ts)),
        ("pid".to_string(), Json::UInt(PID)),
        ("tid".to_string(), Json::UInt(PID)),
    ];
    if e.phase == TracePhase::Complete {
        obj.insert(4, ("dur".to_string(), Json::UInt(e.dur)));
    }
    if !e.args.is_empty() {
        obj.push((
            "args".to_string(),
            Json::Obj(
                e.args
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::UInt(*v)))
                    .collect(),
            ),
        ));
    }
    Json::Obj(obj)
}

/// Renders the trace as a Chrome trace-event JSON document.
pub fn chrome_trace_json(trace: &FrameTrace) -> String {
    let doc = Json::obj([
        (
            "traceEvents",
            Json::Arr(trace.events().iter().map(event_json).collect()),
        ),
        ("displayTimeUnit", Json::str("ms")),
        (
            "otherData",
            Json::obj([("timeUnit", Json::str("gpu cycles"))]),
        ),
    ]);
    doc.render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_phase_kinds() {
        let mut t = FrameTrace::enabled();
        t.complete("phase", "plb".to_string(), 0, 100, vec![]);
        t.counter("mshr", "mshr_outstanding", 50, vec![("in_flight", 3)]);
        t.instant("phase", "end of frame", 100);
        let json = chrome_trace_json(&t);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":100"));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"in_flight\":3"));
        assert!(json.contains("\"ph\":\"i\""));
        // Counter/instant events carry no `dur` field.
        assert_eq!(json.matches("\"dur\":").count(), 1);
    }

    #[test]
    fn disabled_trace_renders_empty_event_list() {
        let json = chrome_trace_json(&FrameTrace::disabled());
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn traced_system_run_exports_nonempty_timeline() {
        use tcor::{System, SystemConfig};
        use tcor_common::Tri2;
        use tcor_gpu::ScenePrimitive;
        let scene: tcor_gpu::Scene = (0..150u32)
            .map(|i| {
                let x = (i as f32 * 97.0) % 1800.0;
                let y = (i as f32 * 53.0) % 700.0;
                ScenePrimitive {
                    tri: Tri2::new((x, y), (x + 40.0, y), (x, y + 40.0)),
                    attr_count: 1 + (i % 5) as u8,
                }
            })
            .collect();
        let (_, trace) = System::new(SystemConfig::paper_tcor_64k()).run_frame_traced(&scene);
        let json = chrome_trace_json(&trace);
        assert!(json.contains("\"cat\":\"fetch\""));
        assert!(json.contains("\"name\":\"polygon list builder\""));
        assert!(json.contains("\"cat\":\"mshr\""));
    }
}
