//! Minimal HTTP/1.1 framing: incremental request parsing for the event
//! loop, and response serialization.
//!
//! Just enough of RFC 9112 for a loopback result service: explicit
//! `Content-Length` bodies, `Connection` negotiation (keep-alive by
//! default on HTTP/1.1, close on HTTP/1.0 or an explicit `close`
//! token), and hard limits on line, header-count and body sizes so a
//! misbehaving peer cannot balloon memory. The server accumulates
//! bytes into a per-connection buffer and calls
//! [`parse_request_limited`] — which yields a complete request plus its
//! consumed length (enabling pipelining: the remainder of the buffer is
//! the next request), reports "incomplete, keep reading", or convicts
//! an over-limit body from the head alone. Anything else outside the
//! envelope is a typed [`ErrorKind::Serve`](tcor_common::ErrorKind)
//! error, answered with a 400 by the caller.

use tcor_common::{TcorError, TcorResult};

/// Longest accepted request/header line, bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most accepted header lines.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body on ordinary routes, bytes.
pub const MAX_BODY: usize = 64 * 1024;
/// Largest accepted request body on streaming-ingest routes, bytes —
/// the one route family that legitimately uploads bulk data.
pub const STREAM_MAX_BODY: usize = 1024 * 1024;
/// Largest accepted header block (start line + headers), bytes — the
/// incremental parser's "stop accumulating" bound for a peer that
/// never sends the blank line.
const MAX_HEAD: usize = 32 * 1024;

/// A parsed request: method, path, headers, body.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method ("GET", "POST").
    pub method: String,
    /// Request target as sent ("/v1/cell/GTr/base64").
    pub path: String,
    /// Protocol version as sent ("HTTP/1.1"); decides the keep-alive
    /// default.
    pub version: String,
    /// Lowercased header names with their values.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: String,
}

impl Request {
    /// First value of the (case-insensitively named) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open after this
    /// request: HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close,
    /// and an explicit `Connection:` header overrides either way. The
    /// header is a comma-separated token list compared
    /// case-insensitively (`Close`, `Keep-Alive, TE` both count).
    pub fn wants_keep_alive(&self) -> bool {
        let mut keep = self.version != "HTTP/1.0";
        if let Some(value) = self.header("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep = true;
                }
            }
        }
        keep
    }
}

/// Parses one request line + header block into their parts.
fn parse_head(start: &str, header_lines: &[String]) -> TcorResult<Request> {
    let mut parts = start.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => {
            return Err(TcorError::serve(format!(
                "malformed request line `{start}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(TcorError::serve(format!("unsupported version `{version}`")));
    }
    let mut headers = Vec::new();
    for line in header_lines {
        if headers.len() == MAX_HEADERS {
            return Err(TcorError::serve(format!("more than {MAX_HEADERS} headers")));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(TcorError::serve(format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method,
        path,
        version: version.to_string(),
        headers,
        body: String::new(),
    })
}

/// Parses `Content-Length` without enforcing any body limit — limits
/// are per-route, applied by the caller against the parsed head.
fn content_length(headers: &[(String, String)]) -> TcorResult<usize> {
    headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| TcorError::serve(format!("bad content-length `{v}`")))
        })
        .transpose()
        .map(|len| len.unwrap_or(0))
}

/// The incremental parser's verdict on the front of a buffer.
#[derive(Debug)]
pub enum ParseOutcome {
    /// A complete request and the bytes it occupied (the caller drains
    /// them, leaving any pipelined successor in place).
    Complete(Request, usize),
    /// More bytes are needed. Once the head has parsed, `frame` is the
    /// request's total head+body size, so the event loop can admit a
    /// declared-and-allowed large body past its normal buffer cap.
    Incomplete { frame: Option<usize> },
    /// The head parsed cleanly but declares a body over the caller's
    /// per-route limit — answer 413 *now*, before buffering the body.
    BodyTooLarge { declared: usize, limit: usize },
}

/// Incrementally parses the front of an accumulated byte buffer with a
/// per-route body limit: once the head is available, `limit_for`
/// inspects it (method/path/headers) and returns the body size this
/// route accepts. Hostile `Content-Length` values are thus rejected
/// from the head alone — no body bytes are ever buffered for them.
///
/// # Errors
///
/// A serve-class error for a malformed start line or header, an
/// oversized line or header block, or a non-UTF-8 body — the
/// connection is poisoned and the caller answers 400 and closes.
/// An over-limit body is *not* an error (the head framing is intact):
/// it is the [`ParseOutcome::BodyTooLarge`] verdict, answered 413.
pub fn parse_request_limited(
    buf: &[u8],
    limit_for: impl Fn(&Request) -> usize,
) -> TcorResult<ParseOutcome> {
    // Walk the header block line by line until the blank terminator.
    let mut lines: Vec<String> = Vec::new();
    let mut pos = 0usize;
    let body_start = loop {
        let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') else {
            // No complete line yet: bound both the pending line and
            // the total head so a drip-feeding peer cannot accumulate.
            if buf.len() - pos > MAX_LINE {
                return Err(TcorError::serve(format!(
                    "request line exceeds {MAX_LINE} bytes"
                )));
            }
            if buf.len() > MAX_HEAD {
                return Err(TcorError::serve(format!(
                    "header block exceeds {MAX_HEAD} bytes"
                )));
            }
            return Ok(ParseOutcome::Incomplete { frame: None });
        };
        let mut line = &buf[pos..pos + nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_LINE {
            return Err(TcorError::serve(format!(
                "request line exceeds {MAX_LINE} bytes"
            )));
        }
        pos += nl + 1;
        if line.is_empty() {
            if lines.is_empty() {
                return Err(TcorError::serve("malformed request line ``"));
            }
            break pos;
        }
        if lines.len() > MAX_HEADERS {
            return Err(TcorError::serve(format!("more than {MAX_HEADERS} headers")));
        }
        lines.push(
            String::from_utf8(line.to_vec())
                .map_err(|_| TcorError::serve("request line is not UTF-8"))?,
        );
        if pos > MAX_HEAD {
            return Err(TcorError::serve(format!(
                "header block exceeds {MAX_HEAD} bytes"
            )));
        }
    };
    let mut request = parse_head(&lines[0], &lines[1..])?;
    let body_len = content_length(&request.headers)?;
    let limit = limit_for(&request);
    if body_len > limit {
        return Ok(ParseOutcome::BodyTooLarge {
            declared: body_len,
            limit,
        });
    }
    let total = body_start + body_len;
    if buf.len() < total {
        return Ok(ParseOutcome::Incomplete { frame: Some(total) });
    }
    request.body = String::from_utf8(buf[body_start..total].to_vec())
        .map_err(|_| TcorError::serve("body is not UTF-8"))?;
    Ok(ParseOutcome::Complete(request, total))
}

/// A response ready to serialize. The `Connection:` header follows the
/// negotiated [`keep_alive`](Response::keep_alive) state — constructors
/// default to close, and the event loop flips it per connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value. Owned: disk-restored cache entries carry
    /// their content type as data, not as a compile-time constant.
    pub content_type: String,
    /// Extra headers (name, value) beyond the always-present ones.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
    /// Whether the connection stays open after this response
    /// (`Connection: keep-alive` vs `close`).
    pub keep_alive: bool,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            headers: Vec::new(),
            body: body.into(),
            keep_alive: false,
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json".to_string(),
            headers: Vec::new(),
            body: body.into(),
            keep_alive: false,
        }
    }

    /// Adds a header, builder-style.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Sets the negotiated connection state, builder-style.
    pub fn with_keep_alive(mut self, keep_alive: bool) -> Self {
        self.keep_alive = keep_alive;
        self
    }

    /// The standard reason phrase for the codes this server emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// The fully serialized response (status line, headers, the
    /// negotiated `Connection:` header, body) — the exact bytes the
    /// event loop sends. Exposed so the serve-plane fault layer can
    /// truncate or corrupt a response *after* serialization, the way a
    /// failing network would.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            Self::reason(self.status),
            self.content_type,
            self.body.len(),
            if self.keep_alive {
                "keep-alive"
            } else {
                "close"
            },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `raw` parsed under the flat [`MAX_BODY`] limit.
    fn parse(raw: &[u8]) -> TcorResult<ParseOutcome> {
        parse_request_limited(raw, |_| MAX_BODY)
    }

    /// The complete request at the front of `raw` and the bytes it took.
    fn complete(raw: &str) -> (Request, usize) {
        match parse(raw.as_bytes()).unwrap() {
            ParseOutcome::Complete(request, consumed) => (request, consumed),
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_get_with_headers() {
        let raw = "GET /health HTTP/1.1\r\nHost: localhost\r\nX-Probe: 1\r\n\r\n";
        let (req, consumed) = complete(raw);
        assert_eq!(consumed, raw.len());
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/health");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("X-Probe"), Some("1"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_body_by_content_length() {
        let raw = "POST /v1/run HTTP/1.1\r\nContent-Length: 14\r\n\r\nexperiment=fig10";
        let (req, consumed) = complete(raw);
        assert_eq!(req.body, "experiment=fig"); // exactly 14 bytes
        assert_eq!(&raw[consumed..], "10", "the rest is the next request");
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(parse(b"\r\n\r\n").is_err());
        assert!(parse(b"GET /x SPDY/9\r\n\r\n").is_err());
        let huge = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()).unwrap(),
            ParseOutcome::BodyTooLarge { .. }
        ));
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: x\r\n\r\n").unwrap_err();
        assert_eq!(err.kind(), tcor_common::ErrorKind::Serve);
    }

    #[test]
    fn incremental_parse_waits_for_completion_then_consumes_exactly() {
        let raw = b"POST /v1/run HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /next";
        let ParseOutcome::Complete(req, consumed) = parse(raw).unwrap() else {
            panic!("complete");
        };
        // Every proper prefix short of head+body is "keep reading".
        for cut in 0..consumed {
            assert!(
                matches!(parse(&raw[..cut]).unwrap(), ParseOutcome::Incomplete { .. }),
                "cut at {cut} must be incomplete"
            );
        }
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "hello");
        assert_eq!(&raw[consumed..], b"GET /next", "pipelined tail preserved");
    }

    #[test]
    fn incremental_parse_rejects_malformed_heads() {
        assert!(parse(b"\r\n\r\n").is_err());
        assert!(parse(b"GET /x SPDY/9\r\n\r\n").is_err());
        assert!(parse(b"no colon header\r\nGET / HTTP/1.1\r\n\r\n").is_err());
        // A never-terminating header block errors instead of buffering.
        let drip = vec![b'a'; MAX_HEAD + 2];
        assert!(parse(&drip).is_err());
    }

    #[test]
    fn per_route_limit_verdicts_from_the_head_alone() {
        // The head alone (no body bytes at all) is enough for a 413
        // verdict — nothing is buffered for a hostile Content-Length.
        let head = format!(
            "POST /v1/stream/s0/chunk HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        match parse_request_limited(head.as_bytes(), |_| MAX_BODY).unwrap() {
            ParseOutcome::BodyTooLarge { declared, limit } => {
                assert_eq!(declared, MAX_BODY + 1);
                assert_eq!(limit, MAX_BODY);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
        // A route-specific larger limit admits the same head.
        match parse_request_limited(head.as_bytes(), |r| {
            if r.path.starts_with("/v1/stream/") {
                STREAM_MAX_BODY
            } else {
                MAX_BODY
            }
        })
        .unwrap()
        {
            ParseOutcome::Incomplete { frame: Some(total) } => {
                assert_eq!(total, head.len() + MAX_BODY + 1, "frame spans head+body");
            }
            other => panic!("expected Incomplete with frame, got {other:?}"),
        }
        // Before the head completes there is no frame size yet.
        match parse_request_limited(b"POST /x HTTP/1.1\r\n", |_| MAX_BODY).unwrap() {
            ParseOutcome::Incomplete { frame: None } => {}
            other => panic!("expected headless Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn reason_covers_streaming_statuses() {
        assert_eq!(Response::reason(409), "Conflict");
        assert_eq!(Response::reason(413), "Payload Too Large");
    }

    #[test]
    fn connection_token_negotiation() {
        let parse = |raw: &str| complete(raw).0;
        // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
        assert!(parse("GET / HTTP/1.1\r\n\r\n").wants_keep_alive());
        assert!(!parse("GET / HTTP/1.0\r\n\r\n").wants_keep_alive());
        // Explicit tokens override the default, case-insensitively.
        assert!(!parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").wants_keep_alive());
        assert!(!parse("GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n").wants_keep_alive());
        assert!(parse("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").wants_keep_alive());
        // Token lists: any `close` wins over other tokens.
        assert!(!parse("GET / HTTP/1.1\r\nConnection: TE, close\r\n\r\n").wants_keep_alive());
        assert!(parse("GET / HTTP/1.0\r\nConnection: keep-alive, TE\r\n\r\n").wants_keep_alive());
        // Unknown tokens leave the version default in place.
        assert!(parse("GET / HTTP/1.1\r\nConnection: upgrade\r\n\r\n").wants_keep_alive());
    }

    #[test]
    fn response_serializes_with_close_and_length() {
        let bytes = Response::text(200, "ok\n")
            .with_header("X-Tcor-Cache", "hit")
            .to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Tcor-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn response_serializes_keep_alive_when_negotiated() {
        let bytes = Response::text(200, "ok\n").with_keep_alive(true).to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(!text.contains("Connection: close\r\n"));
    }
}
