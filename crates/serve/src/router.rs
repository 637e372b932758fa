//! URL routing and content-addressed request keying.
//!
//! The router maps a parsed request onto either a control route
//! (health, metrics, shutdown) answered inline, or an [`ApiCall`] — a
//! *canonicalized* description of simulator work. Canonicalization is
//! what makes coalescing and caching sound: a `POST /v1/run` body
//! parses to the very call its GET spelling names (`workload=GTr&
//! config=base64`, in any order, is `GET /v1/cell/GTr/base64`), so two
//! requests that mean the same computation reduce to one canonical
//! string, and its `fxhash64` is the shared cache/singleflight key —
//! the same content-addressing discipline `tcor-runner` uses for
//! artifacts.

use crate::http::{Request, Response, MAX_BODY, STREAM_MAX_BODY};
use tcor_common::fxhash64;

/// Where a request goes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// `GET /health` — liveness probe.
    Health,
    /// `GET /metrics` — text counters.
    Metrics,
    /// `POST /admin/shutdown` — graceful drain.
    Shutdown,
    /// Simulator work, keyed and coalesced.
    Api(ApiCall),
    /// Streaming profile session operation (stateful — never cached
    /// or coalesced).
    Stream(StreamOp),
}

/// One streaming-plane operation, addressed by session id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamOp {
    /// `POST /v1/stream` — open a session; body carries parameters.
    Open {
        /// Raw `key=value` parameter body.
        params: String,
    },
    /// `POST /v1/stream/{id}/chunk` — ingest one trace chunk.
    Chunk {
        /// Session id.
        id: String,
        /// Chunk payload in the `tcor-workloads` chunk line format.
        body: String,
    },
    /// `GET /v1/stream/{id}/curve[?policy=opt|lru]` — live snapshot.
    Curve {
        /// Session id.
        id: String,
        /// Optional single-policy selection.
        policy: Option<String>,
    },
    /// `POST /v1/stream/{id}/finish[?policy=opt|lru]` — finalize.
    Finish {
        /// Session id.
        id: String,
        /// Optional single-policy selection.
        policy: Option<String>,
    },
}

impl StreamOp {
    /// Endpoint label for metrics/telemetry.
    pub fn endpoint(&self) -> &'static str {
        match self {
            StreamOp::Open { .. } => "/v1/stream",
            StreamOp::Chunk { .. } => "/v1/stream/chunk",
            StreamOp::Curve { .. } => "/v1/stream/curve",
            StreamOp::Finish { .. } => "/v1/stream/finish",
        }
    }
}

/// One canonical unit of simulator work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiCall {
    /// Full experiment cell report for (workload alias, config name).
    Cell {
        /// Benchmark alias ("GTr").
        workload: String,
        /// Cell config name ("base64").
        config: String,
    },
    /// Miss curve for (workload alias, replacement policy).
    MissCurve {
        /// Benchmark alias.
        workload: String,
        /// Policy name ("lru", "opt", ...).
        policy: String,
    },
    /// A whole experiment's tables as CSV ("fig10").
    Table {
        /// Experiment id.
        experiment: String,
    },
}

impl ApiCall {
    /// The canonical string: equal strings ⇔ equal computations.
    pub fn canonical(&self) -> String {
        match self {
            ApiCall::Cell { workload, config } => format!("cell/{workload}/{config}"),
            ApiCall::MissCurve { workload, policy } => format!("misscurve/{workload}/{policy}"),
            ApiCall::Table { experiment } => format!("table/{experiment}"),
        }
    }

    /// Content-addressed key shared by the response cache and the
    /// singleflight map.
    pub fn cache_key(&self) -> u64 {
        fxhash64(self.canonical().as_bytes())
    }

    /// Endpoint label for metrics/telemetry ("/v1/cell", ...).
    pub fn endpoint(&self) -> &'static str {
        match self {
            ApiCall::Cell { .. } => "/v1/cell",
            ApiCall::MissCurve { .. } => "/v1/misscurve",
            ApiCall::Table { .. } => "/v1/table",
        }
    }
}

/// The keys a `POST /v1/run` body may carry, in [`run_call`]'s slot
/// order.
const RUN_KEYS: [&str; 4] = ["experiment", "workload", "config", "policy"];

/// Parses a `POST /v1/run` body into the call its GET spelling names:
/// `experiment=ID` is `/v1/table/ID`, `workload=A&config=C` is
/// `/v1/cell/A/C` and `workload=A&policy=P` is `/v1/misscurve/A/P`.
/// Pairs split on `&` or a newline and may come in any order. A
/// malformed pair, a value holding `/` (no GET path segment can), an
/// unknown or repeated key, or any other combination is a 400; unknown
/// names are left to the backend, which answers 404 as it does for the
/// GET spelling.
fn run_call(body: &str) -> Result<ApiCall, Response> {
    let bad = |why: String| Err(Response::text(400, why + "\n"));
    let mut slots: [Option<String>; 4] = Default::default();
    for pair in body.split(['&', '\n']).map(str::trim) {
        if pair.is_empty() {
            continue;
        }
        let Some((key, value)) = pair.split_once('=') else {
            return bad(format!("bad parameter `{pair}`: expected key=value"));
        };
        let (key, value) = (key.trim(), value.trim());
        if value.contains('/') {
            return bad(format!("bad parameter `{pair}`: a name holds no `/`"));
        }
        let Some(slot) = RUN_KEYS.iter().position(|&k| k == key) else {
            return bad(format!(
                "unknown run parameter `{key}` (expected {})",
                RUN_KEYS.join(", ")
            ));
        };
        if slots[slot].replace(value.to_string()).is_some() {
            return bad(format!("repeated run parameter `{key}`"));
        }
    }
    match slots {
        [Some(experiment), None, None, None] => Ok(ApiCall::Table { experiment }),
        [None, Some(workload), Some(config), None] => Ok(ApiCall::Cell { workload, config }),
        [None, Some(workload), None, Some(policy)] => Ok(ApiCall::MissCurve { workload, policy }),
        _ => bad(
            "a run needs `experiment=ID`, `workload=A&config=C` or `workload=A&policy=P`"
                .to_string(),
        ),
    }
}

/// Parses an optional `policy=...` query (the only query any route
/// accepts, and only the stream curve and finish routes accept it;
/// anything else fails loudly instead of being ignored).
fn policy_param(query: Option<&str>) -> Result<Option<String>, Response> {
    let Some(query) = query.filter(|q| !q.is_empty()) else {
        return Ok(None);
    };
    match query.split_once('=') {
        Some(("policy", value)) if !value.is_empty() && !value.contains('&') => {
            Ok(Some(value.to_string()))
        }
        _ => Err(Response::text(
            400,
            format!("bad query `{query}`: expected policy=opt|lru\n"),
        )),
    }
}

/// The request body size this route accepts, decided from the head
/// alone (before any body bytes are buffered): the streaming chunk
/// ingest path gets [`STREAM_MAX_BODY`], everything else [`MAX_BODY`].
pub fn body_limit(method: &str, path: &str) -> usize {
    let path = path.split('?').next().unwrap_or(path);
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["v1", "stream", _, "chunk"] if method == "POST" => STREAM_MAX_BODY,
        _ => MAX_BODY,
    }
}

/// Routes a request, or produces the error response (404 unknown path,
/// 405 wrong method, 400 malformed run body or a query the route does
/// not read) to send instead.
#[allow(clippy::result_large_err)]
pub fn route(req: &Request) -> Result<Route, Response> {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (req.path.as_str(), None),
    };
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let get = req.method == "GET";
    let post = req.method == "POST";
    let route = match segments.as_slice() {
        ["health"] if get => Ok(Route::Health),
        ["metrics"] if get => Ok(Route::Metrics),
        ["admin", "shutdown"] if post => Ok(Route::Shutdown),
        ["v1", "cell", workload, config] if get => Ok(Route::Api(ApiCall::Cell {
            workload: (*workload).to_string(),
            config: (*config).to_string(),
        })),
        ["v1", "misscurve", workload, policy] if get => Ok(Route::Api(ApiCall::MissCurve {
            workload: (*workload).to_string(),
            policy: (*policy).to_string(),
        })),
        ["v1", "table", experiment] if get => Ok(Route::Api(ApiCall::Table {
            experiment: (*experiment).to_string(),
        })),
        ["v1", "run"] if post => Ok(Route::Api(run_call(&req.body)?)),
        ["v1", "stream"] if post => Ok(Route::Stream(StreamOp::Open {
            params: req.body.clone(),
        })),
        ["v1", "stream", id, "chunk"] if post => Ok(Route::Stream(StreamOp::Chunk {
            id: (*id).to_string(),
            body: req.body.clone(),
        })),
        ["v1", "stream", id, "curve"] if get => Ok(Route::Stream(StreamOp::Curve {
            id: (*id).to_string(),
            policy: policy_param(query)?,
        })),
        ["v1", "stream", id, "finish"] if post => Ok(Route::Stream(StreamOp::Finish {
            id: (*id).to_string(),
            policy: policy_param(query)?,
        })),
        ["health" | "metrics"] | ["admin", "shutdown"] | ["v1", "run"] | ["v1", "stream"] => {
            Err(Response::text(
                405,
                format!("method {} not allowed on {}\n", req.method, req.path),
            ))
        }
        ["v1", "stream", _, "chunk" | "curve" | "finish"] => Err(Response::text(
            405,
            format!("method {} not allowed on {}\n", req.method, req.path),
        )),
        ["v1", "cell" | "misscurve", ..] | ["v1", "table", ..] if !get => Err(Response::text(
            405,
            format!("method {} not allowed on {}\n", req.method, req.path),
        )),
        _ => Err(Response::text(404, format!("no route for {}\n", req.path))),
    }?;
    match (&route, query) {
        (Route::Stream(StreamOp::Curve { .. } | StreamOp::Finish { .. }), _)
        | (_, None | Some("")) => Ok(route),
        // Two spellings of one call must not share its identity unseen.
        (_, Some(query)) => Err(Response::text(
            400,
            format!("bad query `{query}`: {path} takes no query\n"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            version: "HTTP/1.1".to_string(),
            headers: Vec::new(),
            body: body.to_string(),
        }
    }

    #[test]
    fn routes_the_surface() {
        assert_eq!(route(&req("GET", "/health", "")), Ok(Route::Health));
        assert_eq!(route(&req("GET", "/metrics", "")), Ok(Route::Metrics));
        assert_eq!(
            route(&req("POST", "/admin/shutdown", "")),
            Ok(Route::Shutdown)
        );
        assert_eq!(
            route(&req("GET", "/v1/cell/GTr/base64", "")),
            Ok(Route::Api(ApiCall::Cell {
                workload: "GTr".into(),
                config: "base64".into()
            }))
        );
        assert_eq!(
            route(&req("GET", "/v1/misscurve/SoD/lru", "")),
            Ok(Route::Api(ApiCall::MissCurve {
                workload: "SoD".into(),
                policy: "lru".into()
            }))
        );
        assert_eq!(
            route(&req("GET", "/v1/table/fig10", "")),
            Ok(Route::Api(ApiCall::Table {
                experiment: "fig10".into()
            }))
        );
    }

    #[test]
    fn unknown_is_404_and_wrong_method_is_405() {
        assert_eq!(route(&req("GET", "/nope", "")).unwrap_err().status, 404);
        assert_eq!(
            route(&req("GET", "/v1/cell/GTr", "")).unwrap_err().status,
            404
        );
        assert_eq!(route(&req("POST", "/health", "")).unwrap_err().status, 405);
        assert_eq!(
            route(&req("DELETE", "/v1/table/fig10", ""))
                .unwrap_err()
                .status,
            405
        );
        assert_eq!(route(&req("GET", "/v1/run", "")).unwrap_err().status, 405);
    }

    /// Every run-body shape routes to the call of its GET spelling, in
    /// each parameter order and with either separator, so both
    /// spellings share one cache key and one flight.
    #[test]
    fn run_bodies_route_to_their_get_calls() {
        let cases: [(&str, [&str; 2]); 3] = [
            ("/v1/cell/GTr/base64", ["workload=GTr", "config=base64"]),
            ("/v1/misscurve/SoD/lru", ["workload=SoD", "policy=lru"]),
            ("/v1/table/fig10", ["experiment=fig10", ""]),
        ];
        for (path, [a, b]) in cases {
            let want = route(&req("GET", path, "")).unwrap();
            for body in [
                format!("{a}&{b}"),
                format!("{b}&{a}"),
                format!("{a}\n{b}"),
                format!("{b}\n{a}\n"),
            ] {
                assert_eq!(
                    route(&req("POST", "/v1/run", &body)),
                    Ok(want.clone()),
                    "{body:?}"
                );
            }
        }
        let Ok(Route::Api(call)) =
            route(&req("POST", "/v1/run", " config = base64 & workload=GTr"))
        else {
            panic!("api route")
        };
        assert_eq!(call.canonical(), "cell/GTr/base64");
        assert_eq!(call.endpoint(), "/v1/cell");
        // Unknown names are the backend's to refuse (404), as for GET.
        assert_eq!(
            route(&req("POST", "/v1/run", "experiment=fig99")),
            Ok(Route::Api(ApiCall::Table {
                experiment: "fig99".into()
            }))
        );
    }

    #[test]
    fn equivalent_calls_share_keys_and_distinct_calls_do_not() {
        let cell = ApiCall::Cell {
            workload: "GTr".into(),
            config: "base64".into(),
        };
        let same = ApiCall::Cell {
            workload: "GTr".into(),
            config: "base64".into(),
        };
        let other = ApiCall::Cell {
            workload: "GTr".into(),
            config: "tcor64".into(),
        };
        assert_eq!(cell.cache_key(), same.cache_key());
        assert_ne!(cell.cache_key(), other.cache_key());
        assert_eq!(cell.endpoint(), "/v1/cell");
    }

    #[test]
    fn routes_the_stream_surface() {
        assert_eq!(
            route(&req("POST", "/v1/stream", "label=GTr")),
            Ok(Route::Stream(StreamOp::Open {
                params: "label=GTr".into()
            }))
        );
        assert_eq!(
            route(&req("POST", "/v1/stream/s00000000/chunk", "R1\n")),
            Ok(Route::Stream(StreamOp::Chunk {
                id: "s00000000".into(),
                body: "R1\n".into()
            }))
        );
        assert_eq!(
            route(&req("GET", "/v1/stream/s0/curve", "")),
            Ok(Route::Stream(StreamOp::Curve {
                id: "s0".into(),
                policy: None
            }))
        );
        assert_eq!(
            route(&req("GET", "/v1/stream/s0/curve?policy=opt", "")),
            Ok(Route::Stream(StreamOp::Curve {
                id: "s0".into(),
                policy: Some("opt".into())
            }))
        );
        assert_eq!(
            route(&req("POST", "/v1/stream/s0/finish?policy=lru", "")),
            Ok(Route::Stream(StreamOp::Finish {
                id: "s0".into(),
                policy: Some("lru".into())
            }))
        );
        // Wrong methods and bad queries fail loudly.
        assert_eq!(
            route(&req("GET", "/v1/stream", "")).unwrap_err().status,
            405
        );
        assert_eq!(
            route(&req("GET", "/v1/stream/s0/chunk", ""))
                .unwrap_err()
                .status,
            405
        );
        assert_eq!(
            route(&req("POST", "/v1/stream/s0/curve", ""))
                .unwrap_err()
                .status,
            405
        );
        assert_eq!(
            route(&req("GET", "/v1/stream/s0/curve?bogus=1", ""))
                .unwrap_err()
                .status,
            400
        );
    }

    /// Only the stream curve and finish routes read a query. Any other
    /// route refuses a non-empty one with 400 instead of answering the
    /// query-less call, while an empty query and unknown paths or wrong
    /// methods keep their answers.
    #[test]
    fn a_query_on_a_route_that_reads_none_is_400() {
        for (method, path) in [
            ("GET", "/v1/table/fig10?policy=nonsense"),
            ("GET", "/v1/table/fig10?policy=nonsense&x=1"),
            ("GET", "/v1/cell/GTr/base64?x=1"),
            ("GET", "/v1/misscurve/GTr/lru?policy=opt"),
            ("POST", "/v1/run?experiment=fig10"),
            ("POST", "/v1/stream?label=GTr"),
            ("POST", "/v1/stream/s0/chunk?policy=opt"),
            ("GET", "/health?verbose"),
            ("GET", "/metrics?="),
            ("POST", "/admin/shutdown?now=1"),
        ] {
            let err = route(&req(method, path, "experiment=fig10")).unwrap_err();
            assert_eq!(err.status, 400, "{method} {path}");
        }
        assert_eq!(
            route(&req("GET", "/v1/table/fig10?", "")),
            Ok(Route::Api(ApiCall::Table {
                experiment: "fig10".into()
            }))
        );
        assert_eq!(route(&req("GET", "/nope?x=1", "")).unwrap_err().status, 404);
        assert_eq!(
            route(&req("DELETE", "/v1/table/fig10?x=1", ""))
                .unwrap_err()
                .status,
            405
        );
    }

    #[test]
    fn body_limit_is_per_route() {
        assert_eq!(body_limit("POST", "/v1/stream/s0/chunk"), STREAM_MAX_BODY);
        assert_eq!(body_limit("GET", "/v1/stream/s0/chunk"), MAX_BODY);
        assert_eq!(body_limit("POST", "/v1/run"), MAX_BODY);
        assert_eq!(body_limit("POST", "/v1/stream"), MAX_BODY);
    }

    #[test]
    fn malformed_run_body_is_400() {
        for body in [
            "",
            "nonsense",
            "workload=GTr",
            "frobnicate=1",
            "experiment=fig10&workload=GTr",
            "workload=GTr&config=base64&policy=lru",
            "experiment=fig10&experiment=fig10",
            "workload=GTr&config=base64&workload=SoD",
            "workload=GTr/base64&config=x",
        ] {
            let err = route(&req("POST", "/v1/run", body)).unwrap_err();
            assert_eq!(err.status, 400, "{body:?}");
        }
    }
}
