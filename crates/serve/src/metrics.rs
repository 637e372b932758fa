//! Serving-plane counters, exported at `GET /metrics`.
//!
//! Lock-free atomics on the hot path; rendering goes through
//! [`tcor_common::MetricRegistry`] so the text format (`path = value`
//! lines, sorted) matches every other counter surface in the repo.

use std::sync::atomic::{AtomicU64, Ordering};
use tcor_common::MetricRegistry;

/// The daemon's counters. All monotonic; relaxed ordering is enough
/// (they are observability, not synchronization).
#[derive(Default)]
pub struct ServeMetrics {
    /// API requests admitted past routing.
    pub received: AtomicU64,
    /// Requests that joined another request's computation.
    pub coalesced: AtomicU64,
    /// Requests refused at a full queue (429).
    pub shed: AtomicU64,
    /// Requests answered (any status).
    pub done: AtomicU64,
    /// Responses served from either cache tier (mem + disk).
    pub warm_hits: AtomicU64,
    /// Responses served from the in-memory session tier.
    pub mem_hits: AtomicU64,
    /// Responses restored from the persistent disk tier.
    pub disk_hits: AtomicU64,
    /// Responses that ran the simulator.
    pub cold_computes: AtomicU64,
    /// Requests that hit their deadline (504).
    pub deadline_expired: AtomicU64,
    /// Requests answered 5xx.
    pub errors: AtomicU64,
    /// Followers that re-entered an abandoned flight as its new leader.
    pub flight_retries: AtomicU64,
    /// Panics contained to one request: a flight leader's computation
    /// or a streaming operation.
    pub panics_caught: AtomicU64,
    /// Gauge: the last `Retry-After` hint handed to a shed request, ms
    /// (queue depth × recent service time).
    pub retry_after_ms: AtomicU64,
    /// Gauge: EWMA of API service time (accept → answer), µs.
    pub service_time_us: AtomicU64,
    /// Connections accepted over the daemon's lifetime.
    pub conns_accepted: AtomicU64,
    /// Gauge: connections currently registered with an event thread.
    pub conns_open: AtomicU64,
    /// Requests served on an already-used (kept-alive) connection.
    pub keepalive_reuses: AtomicU64,
    /// Read events that parsed ≥ 2 pipelined requests in one burst.
    pub pipelined_batches: AtomicU64,
    /// Event-loop readiness-wait returns (readiness or timeout). The
    /// idle-poll elimination, observable: an idle daemon accrues ~2/s
    /// here where the old accept loop burned ~2000/s.
    pub eventloop_wakeups: AtomicU64,
    /// Requests rejected 413 from the head alone (declared body over
    /// the route's limit — the body was never buffered).
    pub body_rejected: AtomicU64,
    /// Streaming sessions opened.
    pub stream_sessions: AtomicU64,
    /// Streaming sessions swept by TTL expiry.
    pub stream_sessions_expired: AtomicU64,
    /// Gauge: streaming sessions currently live.
    pub stream_sessions_open: AtomicU64,
    /// Trace chunks accepted into a session.
    pub stream_chunks: AtomicU64,
    /// Accesses ingested across all sessions.
    pub stream_accesses: AtomicU64,
    /// Chunk payload bytes accepted across all sessions.
    pub stream_bytes: AtomicU64,
    /// Streaming operations refused with a typed 4xx (budget breach,
    /// unknown session, malformed chunk, ...).
    pub stream_rejected: AtomicU64,
    /// Curve snapshots rendered (live or final).
    pub stream_snapshots: AtomicU64,
}

impl ServeMetrics {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Decrements a gauge by one (saturating — a close racing a
    /// restart must never wrap the gauge to 2^64).
    pub fn drop_gauge(counter: &AtomicU64) {
        let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// Folds one service-time sample (µs) into the EWMA gauge
    /// (α = 1/8). The read-modify-write races between workers, but the
    /// gauge is a shedding hint, not an invariant.
    pub fn observe_service_time(&self, sample_us: u64) {
        let prev = self.service_time_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            sample_us
        } else {
            prev - prev / 8 + sample_us / 8
        };
        self.service_time_us.store(next.max(1), Ordering::Relaxed);
    }

    /// Snapshot as a registry (sorted, mergeable, renderable).
    pub fn registry(&self) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        for (path, counter) in [
            ("serve/request_received", &self.received),
            ("serve/request_coalesced", &self.coalesced),
            ("serve/request_shed", &self.shed),
            ("serve/request_done", &self.done),
            ("serve/cache_warm_hits", &self.warm_hits),
            ("serve/cache_mem_hits", &self.mem_hits),
            ("serve/cache_disk_hits", &self.disk_hits),
            ("serve/cold_computes", &self.cold_computes),
            ("serve/deadline_expired", &self.deadline_expired),
            ("serve/errors", &self.errors),
            ("serve/flight_retries", &self.flight_retries),
            ("serve/panics_caught", &self.panics_caught),
            ("serve/retry_after_ms", &self.retry_after_ms),
            ("serve/service_time_us", &self.service_time_us),
            ("serve/conns_accepted", &self.conns_accepted),
            ("serve/conns_open", &self.conns_open),
            ("serve/keepalive_reuses", &self.keepalive_reuses),
            ("serve/pipelined_batches", &self.pipelined_batches),
            ("serve/eventloop_wakeups", &self.eventloop_wakeups),
            ("serve/body_rejected", &self.body_rejected),
            ("stream/sessions_opened", &self.stream_sessions),
            ("stream/sessions_expired", &self.stream_sessions_expired),
            ("stream/sessions_open", &self.stream_sessions_open),
            ("stream/chunks", &self.stream_chunks),
            ("stream/accesses", &self.stream_accesses),
            ("stream/bytes_in", &self.stream_bytes),
            ("stream/rejected", &self.stream_rejected),
            ("stream/snapshots", &self.stream_snapshots),
        ] {
            reg.add(path, counter.load(Ordering::Relaxed));
        }
        reg
    }

    /// The `GET /metrics` body.
    pub fn text(&self) -> String {
        self.registry().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_counter_as_registry_lines() {
        let m = ServeMetrics::new();
        ServeMetrics::bump(&m.received);
        ServeMetrics::bump(&m.received);
        ServeMetrics::bump(&m.warm_hits);
        let text = m.text();
        assert!(text.contains("serve/request_received = 2"));
        assert!(text.contains("serve/cache_warm_hits = 1"));
        assert!(text.contains("serve/request_shed = 0"));
        assert_eq!(m.registry().get("serve/request_received"), 2);
        assert_eq!(m.registry().sum_prefix("serve"), 3);
    }
}
