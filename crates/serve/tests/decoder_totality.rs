//! Decoder-totality fuzzing for HTTP request parsing.
//!
//! `parse_request_limited` sits on the network boundary: the daemon
//! parses every request it receives with it, under the per-route
//! `body_limit`, exactly as [`parse`] does here. Every byte sequence a
//! peer can send must come back as a parse outcome or a typed
//! serve-class error — never a panic, never an unbounded allocation.
//! The fuzz here is seeded (Xoshiro, fixed seed) so a failure
//! reproduces exactly; the corpus is structured mutations of valid
//! requests (which land near the parser's edge cases) plus fully random
//! buffers (which land far from them). Every request that parses is
//! routed too: the router answers a route or a typed 4xx, never a panic
//! or a 5xx.

use tcor_common::{ErrorKind, TcorResult, Xoshiro256pp};
use tcor_serve::{body_limit, parse_request_limited, route, ParseOutcome, Request, MAX_BODY};

/// One parse of the front of `buf`, as the daemon's event loop does it.
fn parse(buf: &[u8]) -> TcorResult<ParseOutcome> {
    parse_request_limited(buf, |req| body_limit(&req.method, &req.path))
}

/// Valid requests covering every shape the daemon routes: header-only
/// GETs, a body-carrying POST, an empty-body POST, and queries on routes
/// that read one and on routes that read none.
const VALID: &[&str] = &[
    "GET /health HTTP/1.1\r\nHost: localhost\r\n\r\n",
    "GET /v1/cell/GTr/base64 HTTP/1.1\r\nX-Probe: 1\r\nAccept: */*\r\n\r\n",
    "POST /v1/run HTTP/1.1\r\nContent-Length: 16\r\n\r\nexperiment=fig10",
    "POST /admin/shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    "POST /v1/stream/s0/finish?policy=opt HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    "GET /v1/table/fig10?policy=nonsense HTTP/1.1\r\n\r\n",
    "GET /v1/misscurve/GTr/lru?policy=opt&x=1 HTTP/1.1\r\n\r\n",
    "POST /v1/run?workload=GTr HTTP/1.1\r\nContent-Length: 16\r\n\r\nexperiment=fig10",
];

/// Routes a parsed request: a route, or a typed 4xx (a panic fails the
/// test). Returns the error status, if any.
fn route_status(req: &Request) -> Option<u16> {
    let status = route(req).err()?.status;
    assert!(
        (400..500).contains(&status),
        "{} {} answered {status}",
        req.method,
        req.path
    );
    Some(status)
}

/// One seeded mutation pass: 1–4 edits, each a truncation, bit flip,
/// byte insertion, or byte removal at a random offset.
fn mutate(rng: &mut Xoshiro256pp, base: &[u8]) -> Vec<u8> {
    let mut buf = base.to_vec();
    let edits = 1 + rng.random_range(0..4u64) as usize;
    for _ in 0..edits {
        match rng.random_range(0..4u64) {
            0 if !buf.is_empty() => {
                let at = rng.random_range(0..buf.len() as u64) as usize;
                buf.truncate(at);
            }
            1 if !buf.is_empty() => {
                let at = rng.random_range(0..buf.len() as u64) as usize;
                buf[at] ^= 1 << rng.random_range(0..8u64);
            }
            2 => {
                let at = rng.random_range(0..buf.len() as u64 + 1) as usize;
                buf.insert(at, rng.random_range(0..256u64) as u8);
            }
            _ if !buf.is_empty() => {
                let at = rng.random_range(0..buf.len() as u64) as usize;
                buf.remove(at);
            }
            _ => {}
        }
    }
    buf
}

#[test]
fn the_valid_corpus_parses_clean() {
    for raw in VALID {
        let Ok(ParseOutcome::Complete(req, consumed)) = parse(raw.as_bytes()) else {
            panic!("valid corpus request did not complete: {raw:?}");
        };
        assert_eq!(consumed, raw.len());
        assert!(!req.method.is_empty());
        assert!(req.path.starts_with('/'));
        // Only the stream curve and finish routes read a query: a query
        // anywhere else is refused, never silently dropped.
        let refused = req.path.contains('?') && !req.path.contains("/finish?");
        assert_eq!(route_status(&req), refused.then_some(400), "{raw:?}");
        // A truncated buffer is "keep reading", never an error.
        for cut in 0..raw.len() {
            let outcome = parse(&raw.as_bytes()[..cut]);
            assert!(
                matches!(outcome, Ok(ParseOutcome::Incomplete { .. })),
                "{raw:?} cut at {cut}"
            );
        }
    }
}

#[test]
fn mutated_requests_never_panic_and_fail_typed() {
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    let (mut ok, mut err) = (0u64, 0u64);
    for round in 0..2000 {
        let base = VALID[round % VALID.len()].as_bytes();
        let fuzzed = mutate(&mut rng, base);
        match parse(&fuzzed) {
            Ok(outcome) => {
                if let ParseOutcome::Complete(req, _) = outcome {
                    route_status(&req);
                }
                ok += 1;
            }
            Err(e) => {
                assert_eq!(
                    e.kind(),
                    ErrorKind::Serve,
                    "parse failures must be serve-class: {e}"
                );
                err += 1;
            }
        }
    }
    // Mutations near valid requests must actually exercise the error
    // paths — and some single-bit header flips should survive parsing.
    assert!(err > 0, "no mutation reached an error path");
    assert!(ok > 0, "no mutation survived parsing (corpus too fragile)");
}

#[test]
fn random_buffers_never_panic() {
    let mut rng = Xoshiro256pp::seed_from_u64(4242);
    for _ in 0..2000 {
        let len = rng.random_range(0..512u64) as usize;
        let buf: Vec<u8> = (0..len)
            .map(|_| rng.random_range(0..256u64) as u8)
            .collect();
        match parse(&buf) {
            Ok(ParseOutcome::Complete(req, _)) => {
                route_status(&req);
            }
            Ok(_) => {}
            Err(e) => assert_eq!(e.kind(), ErrorKind::Serve),
        }
    }
}

/// The parser's limits hold under adversarial (not random) input: a
/// line that never ends and a header flood are refused, and a declared
/// body larger than the route's cap is convicted from the head alone,
/// all without reading unbounded memory.
#[test]
fn adversarial_inputs_hit_the_declared_limits() {
    let endless_line = vec![b'A'; 1 << 20];
    assert!(parse(&endless_line).is_err());

    let mut flood = String::from("GET / HTTP/1.1\r\n");
    for i in 0..1000 {
        flood.push_str(&format!("X-H{i}: v\r\n"));
    }
    flood.push_str("\r\n");
    assert!(parse(flood.as_bytes()).is_err());

    let oversize = "POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n";
    assert!(matches!(
        parse(oversize.as_bytes()),
        Ok(ParseOutcome::BodyTooLarge {
            declared: usize::MAX,
            limit: MAX_BODY
        })
    ));
}
