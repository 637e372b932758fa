//! Blocking loopback HTTP client: CI probe, loadgen and chaos-harness
//! substrate.
//!
//! [`HttpClient`] holds one keep-alive connection and frames responses
//! by `Content-Length`, so successive requests ride the daemon's
//! multiplexed event plane instead of paying a connect per request; a
//! connection the server closed while idle is detected (EOF before any
//! response byte) and replayed once on a fresh connection. Used by
//! `tcor-sim serve-req` (the ci.sh smoke probe), `tcor-sim bench-serve`
//! and `tcor-sim bench-load` (the deterministic load generators) and
//! `tcor-sim chaos` (the torture loop). The retrying entry points,
//! [`http_request_retrying`] / [`request_retrying`], are the
//! client-side half of the chaos layer's resilience story: capped
//! exponential backoff with seeded deterministic jitter, `Retry-After`
//! honored on 429, and idempotent GETs retried on 5xx, transport
//! failures, short reads and `X-Tcor-Body-Hash` mismatches — so a
//! client survives a daemon being killed, restarted, or fault-injected
//! mid-response.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use tcor_common::{fxhash64, ErrorKind, TcorError, TcorResult, Xoshiro256pp};

/// A parsed response.
#[derive(Clone, Debug)]
pub struct HttpReply {
    /// Status code from the status line.
    pub status: u16,
    /// Lowercased header names with values.
    pub headers: Vec<(String, String)>,
    /// Response body bytes, as a string.
    pub body: String,
}

impl HttpReply {
    /// First value of the (case-insensitively named) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Checks the reply's own integrity claims: the body length
    /// against `Content-Length` (a mismatch means the connection died
    /// mid-response) and the body bytes against the server's
    /// `X-Tcor-Body-Hash` stamp (a mismatch means in-flight
    /// corruption). Headers that are absent are not required.
    ///
    /// # Errors
    ///
    /// A description of the first failed check.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(want) = self
            .header("content-length")
            .and_then(|v| v.parse::<usize>().ok())
        {
            if self.body.len() != want {
                return Err(format!("short body: {} of {want} bytes", self.body.len()));
            }
        }
        if let Some(want) = self.header("x-tcor-body-hash") {
            let got = format!("{:016x}", fxhash64(self.body.as_bytes()));
            if got != want {
                return Err(format!("body hash mismatch: computed {got}, header {want}"));
            }
        }
        Ok(())
    }

    /// The server's backoff hint, preferring the millisecond-precise
    /// `X-Tcor-Retry-After-Ms` over the integer-seconds `Retry-After`.
    pub fn retry_after(&self) -> Option<Duration> {
        if let Some(ms) = self
            .header("x-tcor-retry-after-ms")
            .and_then(|v| v.parse::<u64>().ok())
        {
            return Some(Duration::from_millis(ms));
        }
        self.header("retry-after")
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_secs)
    }

    /// Whether the server will keep the connection open after this
    /// reply (absent header defaults to keep-alive, per HTTP/1.1).
    fn keeps_connection(&self) -> bool {
        self.header("connection")
            .is_none_or(|v| !v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")))
    }
}

/// How far a failed attempt got — decides whether a retry is safe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Connect failed: no bytes ever reached the server.
    Connect,
    /// The request was (possibly partially) written, but no response
    /// byte came back.
    Sent,
    /// The response started arriving and then broke off.
    ResponseStarted,
}

/// A keep-alive HTTP/1.1 client for one server address.
///
/// Holds the connection across requests and reconnects transparently:
/// lazily on first use, and with a single replay when a *reused*
/// connection turns out to be stale (the server closed it while idle —
/// observed as EOF/reset before any response byte, which also means
/// the server never took the request, so the replay cannot double-run
/// work).
pub struct HttpClient {
    addr: String,
    timeout: Duration,
    stream: Option<TcpStream>,
    rbuf: Vec<u8>,
}

impl HttpClient {
    /// A client for `addr` ("127.0.0.1:8080"); connects on first use.
    pub fn new(addr: impl Into<String>, timeout: Duration) -> Self {
        HttpClient {
            addr: addr.into(),
            timeout,
            stream: None,
            rbuf: Vec::new(),
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether a keep-alive connection is currently held.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Sends one request and reads its reply, reusing the held
    /// connection when possible.
    ///
    /// # Errors
    ///
    /// Serve-class errors for connect/transport failures, timeout
    /// expiry, or an unparseable response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> TcorResult<HttpReply> {
        self.request_inner(method, path, body).map_err(|(_, e)| e)
    }

    /// [`Self::request`], with the error carrying whether any request
    /// bytes may have reached the server (`sent`) — a connect failure
    /// is safe to retry for any method, a post-send failure only for
    /// idempotent ones.
    fn request_inner(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpReply, (bool, TcorError)> {
        let reused = self.stream.is_some();
        match self.attempt(method, path, body) {
            Ok(reply) => Ok(reply),
            Err((phase, e)) => {
                self.reset();
                if reused && phase != Phase::ResponseStarted {
                    // Stale keep-alive: replay once on a fresh
                    // connection (any method — see the type docs).
                    self.attempt(method, path, body).map_err(|(phase, e)| {
                        self.reset();
                        (phase != Phase::Connect, e)
                    })
                } else {
                    Err((phase != Phase::Connect, e))
                }
            }
        }
    }

    fn reset(&mut self) {
        self.stream = None;
        self.rbuf.clear();
    }

    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpReply, (Phase, TcorError)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|e| {
                (
                    Phase::Connect,
                    TcorError::with_source(
                        ErrorKind::Serve,
                        format!("connecting {}", self.addr),
                        e,
                    ),
                )
            })?;
            stream
                .set_read_timeout(Some(self.timeout))
                .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
                .map_err(|e| {
                    (
                        Phase::Connect,
                        TcorError::with_source(ErrorKind::Serve, "setting socket timeouts", e),
                    )
                })?;
            let _ = stream.set_nodelay(true);
            self.rbuf.clear();
            self.stream = Some(stream);
        }
        let body = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(request.as_bytes()).map_err(|e| {
            (
                Phase::Sent,
                TcorError::with_source(ErrorKind::Serve, "writing request", e),
            )
        })?;
        // Accumulate the head up to the blank line.
        let head_end = loop {
            if let Some(pos) = find_blank_line(&self.rbuf) {
                break pos;
            }
            let started = if self.rbuf.is_empty() {
                Phase::Sent
            } else {
                Phase::ResponseStarted
            };
            match read_chunk(self.stream.as_mut().expect("held"), &mut self.rbuf) {
                Ok(0) => {
                    return Err((
                        started,
                        TcorError::serve("connection closed before a full response head"),
                    ))
                }
                Ok(_) => {}
                Err(e) => {
                    return Err((
                        started,
                        TcorError::with_source(ErrorKind::Serve, "reading response", e),
                    ))
                }
            }
        };
        let head = std::str::from_utf8(&self.rbuf[..head_end])
            .map_err(|_| {
                (
                    Phase::ResponseStarted,
                    TcorError::serve("response head is not UTF-8"),
                )
            })?
            .to_string();
        let (status, headers) = parse_head_block(&head).map_err(|e| (Phase::ResponseStarted, e))?;
        let body_start = head_end + 4;
        let content_length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok());
        let reply = match content_length {
            Some(n) => {
                while self.rbuf.len() < body_start + n {
                    match read_chunk(self.stream.as_mut().expect("held"), &mut self.rbuf) {
                        Ok(0) => {
                            return Err((
                                Phase::ResponseStarted,
                                TcorError::serve("connection closed mid-body"),
                            ))
                        }
                        Ok(_) => {}
                        Err(e) => {
                            return Err((
                                Phase::ResponseStarted,
                                TcorError::with_source(
                                    ErrorKind::Serve,
                                    "reading response body",
                                    e,
                                ),
                            ))
                        }
                    }
                }
                let body =
                    String::from_utf8_lossy(&self.rbuf[body_start..body_start + n]).into_owned();
                self.rbuf.drain(..body_start + n);
                HttpReply {
                    status,
                    headers,
                    body,
                }
            }
            None => {
                // No length: pre-keep-alive framing — read to EOF, and
                // the connection cannot be reused afterwards.
                loop {
                    match read_chunk(self.stream.as_mut().expect("held"), &mut self.rbuf) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(e) => {
                            return Err((
                                Phase::ResponseStarted,
                                TcorError::with_source(
                                    ErrorKind::Serve,
                                    "reading response body",
                                    e,
                                ),
                            ))
                        }
                    }
                }
                let body = String::from_utf8_lossy(&self.rbuf[body_start..]).into_owned();
                self.rbuf.clear();
                let reply = HttpReply {
                    status,
                    headers,
                    body,
                };
                self.stream = None;
                reply
            }
        };
        if self.stream.is_some() && !reply.keeps_connection() {
            self.reset();
        }
        Ok(reply)
    }
}

fn read_chunk(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut tmp = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut tmp) {
            Ok(n) => {
                rbuf.extend_from_slice(&tmp[..n]);
                return Ok(n);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head_block(head: &str) -> TcorResult<(u16, Vec<(String, String)>)> {
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| TcorError::serve(format!("bad status line `{status_line}`")))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok((status, headers))
}

/// Retry tuning for [`http_request_retrying`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Additional attempts after the first (0 = behave like
    /// [`http_request`] plus reply validation).
    pub retries: u32,
    /// Base backoff; attempt `n` waits ~`backoff * 2^n`, jittered.
    pub backoff: Duration,
    /// Ceiling on any single backoff wait.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 0,
            backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy with `retries` extra attempts over `backoff` base.
    pub fn new(retries: u32, backoff: Duration, seed: u64) -> Self {
        RetryPolicy {
            retries,
            backoff,
            seed,
            ..RetryPolicy::default()
        }
    }

    /// Capped exponential backoff with deterministic jitter: attempt
    /// `n` waits `min(backoff * 2^n, max_backoff)` scaled by a seeded
    /// factor in [0.5, 1.0), so concurrent retriers with different
    /// seeds decorrelate while one seed replays exactly.
    pub fn delay(&self, attempt: u32) -> Duration {
        let base = self.backoff.as_millis().max(1) as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(16));
        let capped = exp.min(self.max_backoff.as_millis().max(1) as u64);
        let mut rng = Xoshiro256pp::seed_from_u64(self.seed ^ 0x7C0A_11E5 ^ u64::from(attempt));
        let jitter = 0.5 + 0.5 * rng.random_f64();
        Duration::from_millis(((capped as f64) * jitter).round() as u64)
    }
}

/// Sends one `method path` request to `addr` ("127.0.0.1:8080") on a
/// fresh connection and reads the full response.
///
/// # Errors
///
/// Serve-class errors for connect/transport failures, timeout expiry,
/// or an unparseable response.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> TcorResult<HttpReply> {
    HttpClient::new(addr, timeout).request(method, path, body)
}

/// [`HttpClient::request`] under a [`RetryPolicy`], reusing `client`'s
/// keep-alive connection across attempts. Returns the reply plus how
/// many retries it took.
///
/// Retried (budget permitting): connect failures (any method — no
/// bytes were sent), and for idempotent GETs also transport failures
/// mid-exchange, unparseable or integrity-failing replies
/// ([`HttpReply::validate`]) and 5xx statuses. A 429 is retried for
/// any method, waiting at least the server's `Retry-After` /
/// `X-Tcor-Retry-After-Ms` hint. A non-retryable (or
/// budget-exhausted) status is returned to the caller as a normal
/// reply, never an error.
///
/// # Errors
///
/// The last transport/validation error once the budget is exhausted.
pub fn request_retrying(
    client: &mut HttpClient,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &RetryPolicy,
) -> TcorResult<(HttpReply, u32)> {
    let idempotent = method.eq_ignore_ascii_case("GET");
    let mut attempt = 0u32;
    loop {
        let budget_left = attempt < policy.retries;
        match client.request_inner(method, path, body) {
            Ok(reply) => {
                if let Err(why) = reply.validate() {
                    if idempotent && budget_left {
                        std::thread::sleep(policy.delay(attempt));
                        attempt += 1;
                        continue;
                    }
                    return Err(TcorError::serve(format!(
                        "invalid reply from {} {path}: {why}",
                        client.addr()
                    )));
                }
                let retryable = reply.status == 429 || (reply.status >= 500 && idempotent);
                if retryable && budget_left {
                    let mut wait = policy.delay(attempt);
                    if reply.status == 429 {
                        if let Some(hint) = reply.retry_after() {
                            wait = wait.max(hint);
                        }
                    }
                    std::thread::sleep(wait);
                    attempt += 1;
                    continue;
                }
                return Ok((reply, attempt));
            }
            Err((sent, e)) => {
                if budget_left && (idempotent || !sent) {
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                    continue;
                }
                return Err(e);
            }
        }
    }
}

/// [`request_retrying`] on a single-use client (one call's attempts
/// still share a keep-alive connection when the server cooperates).
///
/// # Errors
///
/// The last transport/validation error once the budget is exhausted.
pub fn http_request_retrying(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
    policy: &RetryPolicy,
) -> TcorResult<(HttpReply, u32)> {
    let mut client = HttpClient::new(addr, timeout);
    request_retrying(&mut client, method, path, body, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn parse_reply(raw: &[u8]) -> TcorResult<HttpReply> {
        let pos = find_blank_line(raw)
            .ok_or_else(|| TcorError::serve("response has no header/body separator"))?;
        let head = std::str::from_utf8(&raw[..pos])
            .map_err(|_| TcorError::serve("response is not UTF-8"))?;
        let (status, headers) = parse_head_block(head)?;
        Ok(HttpReply {
            status,
            headers,
            body: String::from_utf8_lossy(&raw[pos + 4..]).into_owned(),
        })
    }

    #[test]
    fn parses_a_reply() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nX-Tcor-Cache: hit\r\n\r\nok\n";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-tcor-cache"), Some("hit"));
        assert_eq!(reply.body, "ok\n");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_reply(b"not http").is_err());
        assert!(parse_reply(b"HTTP/1.1 banana\r\n\r\n").is_err());
    }

    /// A listener that answers successive connections with scripted
    /// raw bytes (reading the request head first), then exits.
    fn stub(responses: Vec<Vec<u8>>) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for response in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 2048];
                let _ = stream.read(&mut buf);
                let _ = stream.write_all(&response);
            }
        });
        (addr, handle)
    }

    /// A listener that serves `per_conn` scripted responses over each
    /// accepted connection (keep-alive), counting connections.
    fn stub_keepalive(
        per_conn: Vec<Vec<Vec<u8>>>,
        conns: Arc<AtomicUsize>,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for responses in per_conn {
                let (mut stream, _) = listener.accept().unwrap();
                conns.fetch_add(1, Ordering::SeqCst);
                for response in responses {
                    let mut buf = [0u8; 2048];
                    let _ = stream.read(&mut buf);
                    let _ = stream.write_all(&response);
                }
            }
        });
        (addr, handle)
    }

    fn ok_with_hash(body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nX-Tcor-Body-Hash: {:016x}\r\n\r\n{body}",
            body.len(),
            fxhash64(body.as_bytes())
        )
        .into_bytes()
    }

    fn policy(retries: u32) -> RetryPolicy {
        RetryPolicy::new(retries, Duration::from_millis(1), 7)
    }

    #[test]
    fn validate_catches_short_bodies_and_corruption() {
        let good = parse_reply(&ok_with_hash("payload")).unwrap();
        assert!(good.validate().is_ok());
        let short = parse_reply(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc").unwrap();
        assert!(short.validate().unwrap_err().contains("short body"));
        let corrupt =
            parse_reply(b"HTTP/1.1 200 OK\r\nX-Tcor-Body-Hash: 0000000000000000\r\n\r\nabc")
                .unwrap();
        assert!(corrupt.validate().unwrap_err().contains("hash mismatch"));
        // No integrity headers: nothing to check.
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n\r\nabc")
            .unwrap()
            .validate()
            .is_ok());
    }

    #[test]
    fn keep_alive_client_reuses_one_connection() {
        let conns = Arc::new(AtomicUsize::new(0));
        let (addr, h) = stub_keepalive(
            vec![vec![ok_with_hash("first"), ok_with_hash("second")]],
            Arc::clone(&conns),
        );
        let mut client = HttpClient::new(&addr, Duration::from_secs(5));
        let a = client.request("GET", "/a", None).unwrap();
        let b = client.request("GET", "/b", None).unwrap();
        assert_eq!((a.body.as_str(), b.body.as_str()), ("first", "second"));
        assert!(client.is_connected(), "connection retained across requests");
        assert_eq!(conns.load(Ordering::SeqCst), 1, "one connection for both");
        h.join().unwrap();
    }

    #[test]
    fn stale_keep_alive_connection_is_replayed_on_a_fresh_one() {
        let conns = Arc::new(AtomicUsize::new(0));
        // Each connection serves exactly one response, then closes —
        // the second request finds the held connection dead.
        let (addr, h) = stub_keepalive(
            vec![vec![ok_with_hash("one")], vec![ok_with_hash("two")]],
            Arc::clone(&conns),
        );
        let mut client = HttpClient::new(&addr, Duration::from_secs(5));
        assert_eq!(client.request("GET", "/a", None).unwrap().body, "one");
        assert_eq!(
            client.request("POST", "/b", Some("x")).unwrap().body,
            "two",
            "stale reuse replays transparently, even for POST"
        );
        assert_eq!(conns.load(Ordering::SeqCst), 2);
        h.join().unwrap();
    }

    #[test]
    fn connection_close_reply_drops_the_held_connection() {
        let conns = Arc::new(AtomicUsize::new(0));
        let close_reply =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok".to_vec();
        let (addr, h) = stub_keepalive(vec![vec![close_reply]], Arc::clone(&conns));
        let mut client = HttpClient::new(&addr, Duration::from_secs(5));
        assert_eq!(client.request("GET", "/a", None).unwrap().body, "ok");
        assert!(!client.is_connected(), "server said close");
        h.join().unwrap();
    }

    #[test]
    fn retries_short_read_until_a_whole_reply_arrives() {
        let torn = b"HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\nonly half of".to_vec();
        let (addr, h) = stub(vec![torn, ok_with_hash("whole\n")]);
        let (reply, retries) =
            http_request_retrying(&addr, "GET", "/x", None, Duration::from_secs(5), &policy(3))
                .unwrap();
        assert_eq!((reply.status, retries), (200, 1));
        assert_eq!(reply.body, "whole\n");
        h.join().unwrap();
    }

    #[test]
    fn retries_corrupted_body_detected_by_hash() {
        let corrupt =
            b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nX-Tcor-Body-Hash: 0000000000000000\r\n\r\nabc"
                .to_vec();
        let (addr, h) = stub(vec![corrupt, ok_with_hash("clean")]);
        let (reply, retries) =
            http_request_retrying(&addr, "GET", "/x", None, Duration::from_secs(5), &policy(2))
                .unwrap();
        assert_eq!((reply.status, retries), (200, 1));
        assert_eq!(reply.body, "clean");
        h.join().unwrap();
    }

    #[test]
    fn honors_retry_after_hint_on_429() {
        let shed = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\nRetry-After: 1\r\nX-Tcor-Retry-After-Ms: 60\r\n\r\n"
            .to_vec();
        let (addr, h) = stub(vec![shed, ok_with_hash("after backoff")]);
        let start = std::time::Instant::now();
        let (reply, retries) = http_request_retrying(
            &addr,
            "POST",
            "/x",
            Some("body"),
            Duration::from_secs(5),
            &policy(2),
        )
        .unwrap();
        assert_eq!(
            (reply.status, retries),
            (200, 1),
            "429 retried even for POST"
        );
        assert!(
            start.elapsed() >= Duration::from_millis(60),
            "waited at least the ms hint, not the 1s Retry-After"
        );
        h.join().unwrap();
    }

    #[test]
    fn non_idempotent_5xx_is_returned_not_retried() {
        let fail = b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 4\r\n\r\noops".to_vec();
        let (addr, h) = stub(vec![fail]);
        let (reply, retries) = http_request_retrying(
            &addr,
            "POST",
            "/x",
            Some("body"),
            Duration::from_secs(5),
            &policy(5),
        )
        .unwrap();
        assert_eq!((reply.status, retries), (500, 0));
        h.join().unwrap();
    }

    #[test]
    fn idempotent_5xx_and_budget_exhaustion_return_the_last_reply() {
        let fail = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n".to_vec();
        let (addr, h) = stub(vec![fail.clone(), fail.clone(), fail]);
        let (reply, retries) =
            http_request_retrying(&addr, "GET", "/x", None, Duration::from_secs(5), &policy(2))
                .unwrap();
        assert_eq!(
            (reply.status, retries),
            (503, 2),
            "budget spent, reply handed back"
        );
        h.join().unwrap();
    }

    #[test]
    fn connect_refused_exhausts_into_an_error() {
        // Bind then drop: the port is (momentarily) dead.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = http_request_retrying(
            &addr,
            "GET",
            "/x",
            None,
            Duration::from_millis(200),
            &policy(2),
        )
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Serve);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let p = RetryPolicy {
            retries: 8,
            backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(1500),
            seed: 11,
        };
        let delays: Vec<u64> = (0..8).map(|a| p.delay(a).as_millis() as u64).collect();
        assert_eq!(
            delays,
            (0..8)
                .map(|a| p.delay(a).as_millis() as u64)
                .collect::<Vec<_>>(),
            "same seed, same schedule"
        );
        for (a, d) in delays.iter().enumerate() {
            let cap = (100u64 << a).min(1500);
            assert!(
                *d >= cap / 2 && *d <= cap,
                "jitter in [cap/2, cap]: {d} vs {cap}"
            );
        }
        assert!(delays[7] <= 1500, "capped");
        let other = RetryPolicy { seed: 12, ..p };
        assert_ne!(
            delays,
            (0..8)
                .map(|a| other.delay(a).as_millis() as u64)
                .collect::<Vec<_>>(),
            "different seeds decorrelate"
        );
    }
}
