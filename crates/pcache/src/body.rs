//! The cached payload and its self-validating on-disk encoding.
//!
//! Every disk entry is one file that carries everything needed to
//! prove it is the right bytes for the requested key:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  "TCPC0001"
//!      8     8  identity hash (LE)        — must match the key
//!     16     8  version hash (LE)         — must match the key
//!     24     4  content-type length (LE)
//!     28     8  payload length (LE)
//!     36     8  integrity hash (LE)       — fxhash64(content-type ‖ payload)
//!     44     …  content-type bytes, then payload bytes
//! ```
//!
//! Decoding is total: every failure mode (short file, bad magic, wrong
//! identity, stale version, hash mismatch) is a distinct
//! [`DecodeError`] variant so the disk tier can count *why* an entry
//! was evicted. A truncated file — the crash case atomic writes are
//! supposed to prevent, but which a shared directory or a torn copy
//! can still produce — fails as [`DecodeError::Truncated`] before any
//! field is trusted.

use crate::key::CacheKey;
use tcor_common::fxhash64;

/// On-disk format magic; bump the trailing digits on layout changes.
const MAGIC: &[u8; 8] = b"TCPC0001";
/// Fixed header length in bytes.
const HEADER: usize = 44;
/// Largest accepted content-type, a sanity bound against corruption
/// that happens to pass the magic check.
const MAX_CONTENT_TYPE: u32 = 4096;

/// A cached result: a media type and the rendered bytes.
///
/// The serve plane stores rendered response bodies (JSON/CSV text).
/// The payload is deliberately `Vec<u8>`, not `String` — integrity is
/// byte identity, not text identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CachedBody {
    /// `Content-Type` of the payload ("application/json").
    pub content_type: String,
    /// The result bytes.
    pub bytes: Vec<u8>,
}

impl CachedBody {
    /// A body over UTF-8 text.
    pub fn text(content_type: impl Into<String>, body: impl Into<String>) -> Self {
        CachedBody {
            content_type: content_type.into(),
            bytes: body.into().into_bytes(),
        }
    }

    /// Payload size in bytes (what the disk budget charges).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The integrity hash stored alongside the payload.
    pub fn integrity_hash(&self) -> u64 {
        let mut buf = Vec::with_capacity(self.content_type.len() + self.bytes.len());
        buf.extend_from_slice(self.content_type.as_bytes());
        buf.extend_from_slice(&self.bytes);
        fxhash64(&buf)
    }

    /// Serializes the entry for `key` in the on-disk format.
    pub fn encode(&self, key: &CacheKey) -> Vec<u8> {
        let ct = self.content_type.as_bytes();
        let mut out = Vec::with_capacity(HEADER + ct.len() + self.bytes.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&key.identity.to_le_bytes());
        out.extend_from_slice(&key.version.to_le_bytes());
        out.extend_from_slice(&(ct.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.integrity_hash().to_le_bytes());
        out.extend_from_slice(ct);
        out.extend_from_slice(&self.bytes);
        out
    }
}

/// Why a disk entry failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// File shorter than its own declared layout.
    Truncated,
    /// Magic bytes wrong — not a cache entry (or a different layout).
    BadMagic,
    /// Entry belongs to a different identity than the requested key.
    IdentityMismatch,
    /// Entry was written by a different code version.
    VersionMismatch,
    /// Payload bytes do not match the recorded integrity hash.
    HashMismatch,
    /// Content-type is not UTF-8 or exceeds the sanity bound.
    BadContentType,
}

fn le_u64(raw: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(raw[at..at + 8].try_into().expect("8-byte field"))
}

/// Decodes and fully validates an entry read for `key`.
///
/// # Errors
///
/// A [`DecodeError`] naming the first failed check; nothing about the
/// buffer is trusted until every check has passed.
pub fn decode(key: &CacheKey, raw: &[u8]) -> Result<CachedBody, DecodeError> {
    if raw.len() < HEADER {
        return Err(DecodeError::Truncated);
    }
    if &raw[..8] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if le_u64(raw, 8) != key.identity {
        return Err(DecodeError::IdentityMismatch);
    }
    if le_u64(raw, 16) != key.version {
        return Err(DecodeError::VersionMismatch);
    }
    let ct_len = u32::from_le_bytes(raw[24..28].try_into().expect("4-byte field"));
    if ct_len > MAX_CONTENT_TYPE {
        return Err(DecodeError::BadContentType);
    }
    let payload_len = le_u64(raw, 28) as usize;
    let recorded_hash = le_u64(raw, 36);
    let ct_end = HEADER + ct_len as usize;
    let Some(expected_total) = ct_end.checked_add(payload_len) else {
        return Err(DecodeError::Truncated);
    };
    if raw.len() != expected_total {
        return Err(DecodeError::Truncated);
    }
    let content_type = std::str::from_utf8(&raw[HEADER..ct_end])
        .map_err(|_| DecodeError::BadContentType)?
        .to_string();
    let body = CachedBody {
        content_type,
        bytes: raw[ct_end..].to_vec(),
    };
    if body.integrity_hash() != recorded_hash {
        return Err(DecodeError::HashMismatch);
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CacheKey {
        CacheKey::new(0xFEED_BEEF, 0x51)
    }

    fn body() -> CachedBody {
        CachedBody::text("application/json", "{\"ok\":true}\n")
    }

    #[test]
    fn roundtrips() {
        let raw = body().encode(&key());
        assert_eq!(decode(&key(), &raw).unwrap(), body());
    }

    #[test]
    fn every_truncation_point_is_rejected_not_panicked() {
        let raw = body().encode(&key());
        for len in 0..raw.len() {
            let err = decode(&key(), &raw[..len]).unwrap_err();
            assert!(
                matches!(err, DecodeError::Truncated | DecodeError::BadMagic),
                "prefix of {len} bytes gave {err:?}"
            );
        }
        // Trailing garbage is also a length mismatch, not served.
        let mut long = raw.clone();
        long.push(0);
        assert_eq!(decode(&key(), &long), Err(DecodeError::Truncated));
    }

    #[test]
    fn corruption_is_caught_by_the_integrity_hash() {
        let mut raw = body().encode(&key());
        let last = raw.len() - 1;
        raw[last] ^= 0x01; // flip one payload bit
        assert_eq!(decode(&key(), &raw), Err(DecodeError::HashMismatch));
    }

    #[test]
    fn wrong_identity_and_stale_version_are_distinct_errors() {
        let raw = body().encode(&key());
        let other = CacheKey::new(key().identity + 1, key().version);
        assert_eq!(decode(&other, &raw), Err(DecodeError::IdentityMismatch));
        let newer = CacheKey::new(key().identity, key().version + 1);
        assert_eq!(decode(&newer, &raw), Err(DecodeError::VersionMismatch));
    }

    #[test]
    fn foreign_file_is_bad_magic() {
        assert_eq!(
            decode(
                &key(),
                b"not a cache entry at all, sorry; long enough to clear the header check"
            ),
            Err(DecodeError::BadMagic)
        );
    }

    #[test]
    fn empty_payload_roundtrips() {
        let empty = CachedBody::text("text/plain; charset=utf-8", "");
        let raw = empty.encode(&key());
        assert_eq!(decode(&key(), &raw).unwrap(), empty);
        assert!(empty.is_empty());
    }
}
