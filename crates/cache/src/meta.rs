//! Per-access and per-line metadata carried through the cache engine.

/// Read or write request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load; misses fill the line clean.
    Read,
    /// A store; write-allocate, the line becomes dirty.
    Write,
}

impl AccessKind {
    /// True for [`AccessKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Metadata attached to an access and stored with the filled line.
///
/// * `next_use` — a future-use priority: *larger means used farther in the
///   future*. Exact Belady simulation passes the absolute trace position of
///   the next access (`u64::MAX` for "never again"); TCOR's hardware OPT
///   passes the OPT Number (traversal rank of the next tile that needs the
///   datum). The OPT policy evicts the line with the greatest stored value.
/// * `user` — a free-form word for level-specific policies. The TCOR L2
///   packs the Parameter-Buffer kind and last-use tile rank here
///   (see `tcor-mem`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct AccessMeta {
    /// Future-use priority (`u64::MAX` = never used again).
    pub next_use: u64,
    /// Policy-specific user word.
    pub user: u64,
}

impl AccessMeta {
    /// Metadata for policies that ignore it (LRU and friends).
    pub const NONE: AccessMeta = AccessMeta {
        next_use: u64::MAX,
        user: 0,
    };

    /// Metadata carrying only a future-use priority.
    pub fn next_use(next_use: u64) -> Self {
        AccessMeta { next_use, user: 0 }
    }

    /// Metadata carrying a future-use priority and a user word.
    pub fn with_user(next_use: u64, user: u64) -> Self {
        AccessMeta { next_use, user }
    }

    /// Folds an incoming request's metadata into this stored line's.
    ///
    /// The future-use priority always refreshes — OPT replacement needs
    /// the *current* request's next use, and `u64::MAX` is a legitimate
    /// "never again". The user word only refreshes when the request
    /// actually carries one: `0` is the "no information" encoding (what
    /// [`AccessMeta::NONE`] and a `PbTag::NONE` both encode to), and a
    /// requester without PB knowledge must not erase the tag a resident
    /// line already carries.
    pub fn merge(&mut self, incoming: AccessMeta) {
        self.next_use = incoming.next_use;
        if incoming.user != 0 {
            self.user = incoming.user;
        }
    }
}

/// Result of one [`crate::Cache::access`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the request hit.
    pub hit: bool,
    /// A line displaced to make room (misses in full sets only).
    pub evicted: Option<crate::cache::Evicted>,
}

impl AccessOutcome {
    /// A hit outcome (nothing evicted).
    pub fn hit() -> Self {
        AccessOutcome {
            hit: true,
            evicted: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
    }

    #[test]
    fn meta_constructors() {
        assert_eq!(AccessMeta::NONE.next_use, u64::MAX);
        assert_eq!(AccessMeta::next_use(7).next_use, 7);
        let m = AccessMeta::with_user(7, 9);
        assert_eq!((m.next_use, m.user), (7, 9));
    }

    #[test]
    fn merge_refreshes_priority_and_keeps_user_when_absent() {
        let mut m = AccessMeta::with_user(5, 42);
        m.merge(AccessMeta::NONE);
        assert_eq!(m.user, 42, "zero user word must not erase the stored one");
        assert_eq!(m.next_use, u64::MAX, "priority always follows the request");
        m.merge(AccessMeta::with_user(9, 77));
        assert_eq!((m.next_use, m.user), (9, 77));
    }
}
