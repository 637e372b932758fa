//! The streaming profile plane: maps `tcor-stream` sessions onto the
//! daemon's routes, metrics, and fault-isolation discipline.
//!
//! Stream operations are *stateful* (each chunk mutates its session),
//! so unlike the API plane they are never cached, coalesced, or
//! warm-probed — every op crosses the bounded queue to a worker, which
//! calls [`StreamPlane::handle`] under `catch_unwind`. A panic inside
//! an operation evicts the offending session (its state can no longer
//! be trusted) and answers a contained 500; every *expected* failure
//! is a typed [`StreamError`] with its own 4xx status, so a hostile or
//! buggy uploader can never crash the daemon or poison a neighbor's
//! session.

use crate::http::Response;
use crate::metrics::ServeMetrics;
use crate::router::StreamOp;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::time::Instant;
use tcor_stream::{SessionRegistry, StreamConfig, StreamError};

/// The daemon's streaming-session plane.
pub(crate) struct StreamPlane {
    registry: SessionRegistry,
}

impl StreamPlane {
    pub(crate) fn new(config: StreamConfig) -> Self {
        StreamPlane {
            registry: SessionRegistry::new(config),
        }
    }

    /// Executes one streaming operation, translating typed stream
    /// errors to their responses and bumping the plane's counters.
    /// Panics are contained to the op: the session is evicted and the
    /// caller gets a 500 — never a dead worker.
    pub(crate) fn handle(&self, op: &StreamOp, metrics: &ServeMetrics) -> Response {
        let now = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run(op, now, metrics)));
        let response = match outcome {
            Ok(Ok(body)) => Response::json(200, body),
            Ok(Err(e)) => {
                ServeMetrics::bump(&metrics.stream_rejected);
                Response::text(e.status(), format!("{e}\n"))
            }
            Err(_panic) => {
                ServeMetrics::bump(&metrics.panics_caught);
                if let Some(id) = op_session(op) {
                    self.registry.evict(id);
                }
                Response::text(
                    500,
                    "stream operation panicked; session evicted, shard intact\n",
                )
            }
        };
        metrics
            .stream_sessions_open
            .store(self.registry.open_sessions(), Ordering::Relaxed);
        metrics
            .stream_sessions_expired
            .store(self.registry.expired_total(), Ordering::Relaxed);
        response
    }

    fn run(
        &self,
        op: &StreamOp,
        now: Instant,
        metrics: &ServeMetrics,
    ) -> Result<String, StreamError> {
        match op {
            StreamOp::Open { params } => {
                let body = self.registry.open(params, now)?;
                ServeMetrics::bump(&metrics.stream_sessions);
                Ok(body)
            }
            StreamOp::Chunk { id, body } => {
                let receipt = self.registry.chunk(id, body, now)?;
                ServeMetrics::bump(&metrics.stream_chunks);
                metrics
                    .stream_accesses
                    .fetch_add(receipt.accesses, Ordering::Relaxed);
                metrics
                    .stream_bytes
                    .fetch_add(receipt.bytes, Ordering::Relaxed);
                Ok(receipt.body)
            }
            StreamOp::Curve { id, policy } => {
                let body = self.registry.curve(id, policy.as_deref(), now)?;
                ServeMetrics::bump(&metrics.stream_snapshots);
                Ok(body)
            }
            StreamOp::Finish { id, policy } => {
                let body = self.registry.finish(id, policy.as_deref(), now)?;
                ServeMetrics::bump(&metrics.stream_snapshots);
                Ok(body)
            }
        }
    }
}

/// The session an operation addresses, if any.
fn op_session(op: &StreamOp) -> Option<&str> {
    match op {
        StreamOp::Open { .. } => None,
        StreamOp::Chunk { id, .. } | StreamOp::Curve { id, .. } | StreamOp::Finish { id, .. } => {
            Some(id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_failures_map_to_their_statuses_never_5xx() {
        let plane = StreamPlane::new(StreamConfig::default());
        let metrics = ServeMetrics::new();
        // Unknown session -> 404.
        let r = plane.handle(
            &StreamOp::Chunk {
                id: "nope".into(),
                body: "R1\n".into(),
            },
            &metrics,
        );
        assert_eq!(r.status, 404);
        // Malformed chunk -> 400, session intact.
        let open = plane.handle(
            &StreamOp::Open {
                params: String::new(),
            },
            &metrics,
        );
        assert_eq!(open.status, 200);
        let id = open
            .body
            .split('"')
            .nth(3)
            .expect("session id in receipt")
            .to_string();
        let r = plane.handle(
            &StreamOp::Chunk {
                id: id.clone(),
                body: "garbage!\n".into(),
            },
            &metrics,
        );
        assert_eq!(r.status, 400);
        let r = plane.handle(
            &StreamOp::Chunk {
                id: id.clone(),
                body: "R1\nR2\n".into(),
            },
            &metrics,
        );
        assert_eq!(r.status, 200, "session survived the bad chunk");
        // Finish then chunk -> 409.
        let r = plane.handle(
            &StreamOp::Finish {
                id: id.clone(),
                policy: None,
            },
            &metrics,
        );
        assert_eq!(r.status, 200);
        let r = plane.handle(
            &StreamOp::Chunk {
                id,
                body: "R3\n".into(),
            },
            &metrics,
        );
        assert_eq!(r.status, 409);
        assert_eq!(metrics.stream_rejected.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.stream_sessions_open.load(Ordering::Relaxed), 1);
    }
}
