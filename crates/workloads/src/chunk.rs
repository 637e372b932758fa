//! Compact access-trace chunk encoding shared by the streaming client
//! and server.
//!
//! One access per line: a kind character (`R` or `W`) followed by the
//! block address in lowercase hex, e.g. `R1f` / `W0`. Lines end with
//! `\n`; blank lines are ignored. The format is a tighter cousin of the
//! `trace.rs` CSV (no header, no comma, hex addresses) — about half the
//! bytes of the CSV for typical traces, and trivially splittable at
//! arbitrary byte boundaries because the decoder carries the partial
//! last line between chunks.
//!
//! [`ChunkDecoder::feed`] is **transactional**: a malformed line rejects
//! the whole chunk with an [`ErrorKind::Serve`](tcor_common::ErrorKind::Serve) typed error and leaves
//! the decoder exactly as it was, so a streaming session survives a bad
//! upload and can retry or continue.

use tcor_cache::{Access, AccessKind, Trace};
use tcor_common::{BlockAddr, TcorError, TcorResult};

/// Longest well-formed line: kind char + 16 hex digits. Anything a
/// decoder carries beyond this (plus slack for a stray `\r`) cannot
/// become valid, so the carry is bounded regardless of input.
const MAX_LINE_BYTES: usize = 32;

/// Encodes accesses in the chunk line format (with a trailing newline
/// unless empty). `decode` of the result round-trips exactly.
pub fn encode_chunk(accesses: &[Access]) -> String {
    let mut out = String::with_capacity(accesses.len() * 8);
    for a in accesses {
        let kind = match a.kind {
            AccessKind::Read => 'R',
            AccessKind::Write => 'W',
        };
        out.push(kind);
        out.push_str(&format!("{:x}\n", a.addr.0));
    }
    out
}

/// Decodes one complete, self-contained chunk (convenience wrapper over
/// a throwaway [`ChunkDecoder`]).
pub fn decode_chunk(chunk: &str) -> TcorResult<Trace> {
    let mut dec = ChunkDecoder::new();
    let mut accesses = dec.feed(chunk)?;
    accesses.extend(dec.finish()?);
    Ok(accesses)
}

/// Incremental decoder for the chunk line format. Chunks may split
/// anywhere — mid-line, mid-address — because the unterminated last
/// line is carried into the next [`feed`](Self::feed).
#[derive(Clone, Debug, Default)]
pub struct ChunkDecoder {
    /// Unterminated partial line from the previous chunk.
    carry: String,
}

impl ChunkDecoder {
    /// A fresh decoder with no carried bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes every complete line in `carry + chunk`, retaining the
    /// trailing partial line for the next call.
    ///
    /// All-or-nothing: on any malformed line the chunk is rejected with
    /// an [`ErrorKind::Serve`](tcor_common::ErrorKind::Serve) error and the decoder state (including
    /// the carry) is unchanged — the caller's session is still intact.
    pub fn feed(&mut self, chunk: &str) -> TcorResult<Trace> {
        let (complete, rest) = match chunk.rfind('\n') {
            Some(cut) => (&chunk[..=cut], &chunk[cut + 1..]),
            None => ("", chunk),
        };
        if self.carry.len() + rest.len() > MAX_LINE_BYTES {
            return Err(TcorError::serve(format!(
                "stream chunk: unterminated line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
        let mut accesses = Trace::new();
        let mut lines = complete.lines();
        // The carry completes with the first line of this chunk (or is
        // itself a complete line when the chunk starts with '\n').
        if !self.carry.is_empty() && !complete.is_empty() {
            let first = lines.next().unwrap_or("");
            let joined = format!("{}{}", self.carry, first);
            if let Some(a) = parse_line(&joined)? {
                accesses.push(a);
            }
        }
        for line in lines {
            if let Some(a) = parse_line(line)? {
                accesses.push(a);
            }
        }
        // Parsed clean: commit the new carry.
        if complete.is_empty() {
            self.carry.push_str(rest);
        } else {
            self.carry.clear();
            self.carry.push_str(rest);
        }
        Ok(accesses)
    }

    /// Flushes the decoder at end of stream, decoding a final
    /// unterminated line if one is carried.
    pub fn finish(&mut self) -> TcorResult<Trace> {
        if self.carry.is_empty() {
            return Ok(Trace::new());
        }
        let line = std::mem::take(&mut self.carry);
        match parse_line(&line) {
            Ok(Some(a)) => Ok(vec![a]),
            Ok(None) => Ok(Trace::new()),
            Err(e) => {
                self.carry = line; // stay transactional even at EOF
                Err(e)
            }
        }
    }

    /// Bytes currently carried (unterminated partial line).
    #[cfg(test)]
    pub fn carry_len(&self) -> usize {
        self.carry.len()
    }
}

/// Parses one line: `None` for blank, `Some(access)` for `R<hex>` /
/// `W<hex>`, typed [`ErrorKind::Serve`](tcor_common::ErrorKind::Serve) error otherwise.
fn parse_line(line: &str) -> TcorResult<Option<Access>> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line.is_empty() {
        return Ok(None);
    }
    let bad = |what: &str| TcorError::serve(format!("stream chunk: {what} in line {line:?}"));
    let mut chars = line.chars();
    let kind = match chars.next() {
        Some('R') => AccessKind::Read,
        Some('W') => AccessKind::Write,
        _ => return Err(bad("unknown access kind")),
    };
    let hex = chars.as_str();
    if hex.is_empty() || hex.len() > 16 {
        return Err(bad("bad address length"));
    }
    let addr = u64::from_str_radix(hex, 16).map_err(|_| bad("bad hex address"))?;
    if hex.chars().any(|c| c.is_ascii_uppercase()) {
        return Err(bad("address must be lowercase hex"));
    }
    Ok(Some(Access {
        addr: BlockAddr(addr),
        kind,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_common::ErrorKind;

    fn reads(seq: &[u64]) -> Vec<Access> {
        seq.iter().map(|&b| Access::read(BlockAddr(b))).collect()
    }

    #[test]
    fn roundtrip_with_writes() {
        let mut trace = reads(&[0, 1, 0xdeadbeef, u64::MAX]);
        trace.push(Access::write(BlockAddr(42)));
        let encoded = encode_chunk(&trace);
        assert_eq!(decode_chunk(&encoded).unwrap(), trace);
    }

    #[test]
    fn split_anywhere_reassembles() {
        let trace = reads(&[7, 0x1234, 9, 0xabcdef]);
        let encoded = encode_chunk(&trace);
        for cut in 0..=encoded.len() {
            let mut dec = ChunkDecoder::new();
            let mut got = dec.feed(&encoded[..cut]).unwrap();
            got.extend(dec.feed(&encoded[cut..]).unwrap());
            got.extend(dec.finish().unwrap());
            assert_eq!(got, trace, "cut at {cut}");
        }
    }

    #[test]
    fn blank_lines_and_crlf_tolerated() {
        let got = decode_chunk("R1\n\nW2\r\n\r\nR3").unwrap();
        let want = vec![
            Access::read(BlockAddr(1)),
            Access::write(BlockAddr(2)),
            Access::read(BlockAddr(3)),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn malformed_chunk_is_rejected_atomically() {
        let mut dec = ChunkDecoder::new();
        dec.feed("R1\nR2").unwrap();
        assert_eq!(dec.carry_len(), 2);
        let err = dec.feed("f\nXbad\n").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Serve);
        // Carry untouched: the session can continue with a good chunk.
        assert_eq!(dec.carry_len(), 2);
        let mut got = dec.feed("f\nR3\n").unwrap();
        got.extend(dec.finish().unwrap());
        assert_eq!(got, reads(&[0x2f, 3]));
    }

    #[test]
    fn unterminated_line_is_bounded() {
        let mut dec = ChunkDecoder::new();
        let err = dec.feed(&"R".repeat(MAX_LINE_BYTES + 1)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Serve);
    }

    #[test]
    fn typed_errors_for_bad_lines() {
        for bad in ["Q1\n", "R\n", "Rg1\n", "R1F\n", "R11111111111111111\n"] {
            let err = decode_chunk(bad).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Serve, "{bad:?}");
        }
    }
}
