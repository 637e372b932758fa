//! Content-addressed cache keys: computation identity + code version.

use tcor_common::fxhash64;

/// The key a result is filed under.
///
/// `identity` is the stable hash of the *canonical computation* — the
/// serve plane uses `ApiCall::cache_key()`.
/// `version` is a hash of the producing code (crate version plus a
/// bumpable schema tag), so entries written by one build are never
/// served by a build whose results could differ: the on-disk entry
/// records both, and a version mismatch on load evicts the entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Hash of the canonical computation.
    pub identity: u64,
    /// Hash of the producing code/schema version.
    pub version: u64,
}

impl CacheKey {
    /// A key for `identity` produced by code version `version`.
    pub fn new(identity: u64, version: u64) -> Self {
        CacheKey { identity, version }
    }

    /// A key hashing `canonical` (the serve plane's canonical request
    /// string) under `version`.
    pub fn of(canonical: &[u8], version: u64) -> Self {
        CacheKey {
            identity: fxhash64(canonical),
            version,
        }
    }

    /// The object file stem: the identity in manifest hex. The version
    /// lives *inside* the entry, not in the name, so a rebuilt
    /// simulator finds (and reclaims) its predecessor's entry for the
    /// same computation instead of leaking it forever.
    pub fn file_stem(&self) -> String {
        format!("{:016x}", self.identity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_stem_is_identity_hex() {
        let k = CacheKey::new(0xABC, 7);
        assert_eq!(k.file_stem(), "0000000000000abc");
        // Version does not change the file location...
        assert_eq!(CacheKey::new(0xABC, 8).file_stem(), k.file_stem());
        // ...but does change key equality.
        assert_ne!(CacheKey::new(0xABC, 8), k);
    }

    #[test]
    fn of_hashes_the_canonical_string() {
        let a = CacheKey::of(b"cell/GTr/base64", 1);
        let b = CacheKey::of(b"cell/GTr/base64", 1);
        let c = CacheKey::of(b"cell/GTr/tcor64", 1);
        assert_eq!(a, b);
        assert_ne!(a.identity, c.identity);
    }
}
