//! Replacement policies.
//!
//! Each policy owns its own recency/prediction state, keyed by
//! `(set, way)`. The engine calls [`ReplacementPolicy::victim`] only on a
//! **full** set, passing the stored [`AccessMeta`] of the set's ways; the
//! policy returns the way to displace.
//!
//! The menagerie matches the paper's evaluation: LRU (baseline), MRU and
//! DRRIP (Fig. 13 comparison points), and OPT — the policy TCOR implements
//! in hardware by storing an *OPT Number* with every line and evicting the
//! line whose next use lies farthest in the tile traversal (§III.C.6).
//! FIFO, Random, tree-PLRU, NRU, SRRIP and BRRIP round out the toolbox for
//! ablations.

mod dip;
mod fifo;
mod hawkeye;
mod lru;
mod nru;
mod opt;
mod order;
mod plru;
mod random;
mod rrip;

pub use dip::{Bip, Dip, Lip};
pub use fifo::Fifo;
pub use hawkeye::{simulate_hawkeye, simulate_hawkeye_bank, Hawkeye};
pub use lru::{Lru, Mru};
pub use nru::Nru;
pub use opt::Opt;
pub use plru::TreePlru;
pub use random::RandomEvict;
pub use rrip::{Brrip, Drrip, Srrip};

use crate::meta::AccessMeta;

/// Victim-selection and bookkeeping interface for cache replacement.
///
/// Implementations must be deterministic given their construction
/// parameters (the [`RandomEvict`] policy is seeded).
pub trait ReplacementPolicy {
    /// Human-readable policy name, used in experiment output.
    fn name(&self) -> &'static str;

    /// Called once by the engine with the final geometry; allocate
    /// per-line state here.
    fn attach(&mut self, num_sets: usize, ways: usize);

    /// A request hit `(set, way)`; `meta` is the request's metadata.
    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta);

    /// A miss filled `(set, way)` (after any eviction).
    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta);

    /// The line at `(set, way)` was invalidated or drained.
    fn on_invalidate(&mut self, _set: usize, _way: usize) {}

    /// Chooses the way to evict from a **full** set. `metas` holds the
    /// stored metadata of exactly the set's ways, all valid, in way
    /// order: its length is the associativity. Most policies read only
    /// that length; one that ranks lines by their metadata (the TCOR L2's
    /// dead-line classes) reads the slice.
    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize;

    /// Whether every victim decision depends only on the *relative*
    /// history of the victim's own set.
    ///
    /// A `true` here is a proof obligation, not a hint: it asserts that
    /// simulating each set in isolation (each with a fresh policy
    /// instance seeing only that set's access subsequence) produces
    /// bit-identical evictions to the whole-cache run — the contract
    /// the sharded replay core (`crate::shard`) builds on. Policies
    /// with any cross-set or absolute-valued state (global RNG streams,
    /// fill counters, set-dueling monitors, value clamps sensitive to
    /// the global clock magnitude) must leave this `false`.
    fn set_local(&self) -> bool {
        false
    }
}

/// A boxed policy, used where experiment harnesses pick policies at
/// runtime (e.g. the Fig. 13 sweep).
pub type BoxedPolicy = Box<dyn ReplacementPolicy>;

impl ReplacementPolicy for BoxedPolicy {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.as_mut().attach(num_sets, ways)
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        self.as_mut().on_hit(set, way, meta)
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        self.as_mut().on_fill(set, way, meta)
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.as_mut().on_invalidate(set, way)
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        self.as_mut().victim(set, metas)
    }

    fn set_local(&self) -> bool {
        self.as_ref().set_local()
    }
}

/// The policies compared in the paper's replacement study (Fig. 13), by
/// name. Returns a fresh boxed instance.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn by_name(name: &str) -> BoxedPolicy {
    match name {
        "lru" => Box::new(Lru::new()),
        "mru" => Box::new(Mru::new()),
        "fifo" => Box::new(Fifo::new()),
        "random" => Box::new(RandomEvict::with_seed(0xC0FFEE)),
        "plru" => Box::new(TreePlru::new()),
        "nru" => Box::new(Nru::new()),
        "lip" => Box::new(Lip::new()),
        "bip" => Box::new(Bip::new()),
        "dip" => Box::new(Dip::new()),
        "srrip" => Box::new(Srrip::new()),
        "brrip" => Box::new(Brrip::new()),
        "drrip" => Box::new(Drrip::new()),
        "opt" => Box::new(Opt::new()),
        other => panic!("unknown replacement policy `{other}`"),
    }
}

/// Statically dispatches on a registry policy name: binds `$make` to a
/// concretely-typed `Fn() -> P` constructor and evaluates `$body` once,
/// monomorphized for that policy type. Simulation loops driven through
/// this macro inline the policy callbacks instead of paying
/// [`BoxedPolicy`]'s virtual call per access — the hot-path form of
/// [`by_name`], which it mirrors name-for-name (including the
/// [`RandomEvict`] seed).
///
/// ```
/// use tcor_cache::{dispatch_policy, ReplacementPolicy};
/// let name = dispatch_policy!("lru", make => make().name());
/// assert_eq!(name, "LRU");
/// ```
///
/// # Panics
///
/// Panics on an unknown name, exactly like [`by_name`].
///
/// [`RandomEvict`]: crate::policy::RandomEvict
#[macro_export]
macro_rules! dispatch_policy {
    ($name:expr, $make:ident => $body:expr) => {
        match $name {
            "lru" => {
                let $make = $crate::policy::Lru::new;
                $body
            }
            "mru" => {
                let $make = $crate::policy::Mru::new;
                $body
            }
            "fifo" => {
                let $make = $crate::policy::Fifo::new;
                $body
            }
            "random" => {
                let $make = || $crate::policy::RandomEvict::with_seed(0xC0FFEE);
                $body
            }
            "plru" => {
                let $make = $crate::policy::TreePlru::new;
                $body
            }
            "nru" => {
                let $make = $crate::policy::Nru::new;
                $body
            }
            "lip" => {
                let $make = $crate::policy::Lip::new;
                $body
            }
            "bip" => {
                let $make = $crate::policy::Bip::new;
                $body
            }
            "dip" => {
                let $make = $crate::policy::Dip::new;
                $body
            }
            "srrip" => {
                let $make = $crate::policy::Srrip::new;
                $body
            }
            "brrip" => {
                let $make = $crate::policy::Brrip::new;
                $body
            }
            "drrip" => {
                let $make = $crate::policy::Drrip::new;
                $body
            }
            "opt" => {
                let $make = $crate::policy::Opt::new;
                $body
            }
            other => panic!("unknown replacement policy `{other}`"),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::index::Indexing;
    use crate::meta::AccessKind;
    use tcor_common::{BlockAddr, CacheParams, SmallRng};

    #[test]
    fn registry_knows_all_policies() {
        for name in [
            "lru", "mru", "fifo", "random", "plru", "nru", "srrip", "brrip", "drrip", "opt", "lip",
            "bip", "dip",
        ] {
            let p = by_name(name);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown replacement policy")]
    fn registry_rejects_unknown() {
        by_name("clairvoyant-ai");
    }

    /// `dispatch_policy!` must stay a name-for-name mirror of
    /// [`by_name`]: same `name()`, same set-locality, for every
    /// registry entry (a drifted arm would silently change which
    /// simulation a single-pass engine runs).
    #[test]
    fn dispatch_mirrors_by_name() {
        for name in [
            "lru", "mru", "fifo", "random", "plru", "nru", "srrip", "brrip", "drrip", "opt", "lip",
            "bip", "dip",
        ] {
            let boxed = by_name(name);
            let (static_name, static_local) =
                dispatch_policy!(name, make => { let p = make(); (p.name(), p.set_local()) });
            assert_eq!(static_name, boxed.name(), "{name}");
            assert_eq!(static_local, boxed.set_local(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown replacement policy")]
    fn dispatch_rejects_unknown() {
        dispatch_policy!("clairvoyant-ai", make => {
            let _ = make;
        });
    }

    /// Exhaustive set-locality classification. Every registry policy is
    /// pinned on one side; a new policy (or a changed answer) must
    /// consciously update this list *and* the sharding equivalence
    /// property in `crate::shard` before the replay core will trust it.
    #[test]
    fn set_locality_classification_is_pinned() {
        // Per-set relative state only: strictly-increasing recency/fill
        // clocks compared within a set (lru/mru/fifo), per-line bits
        // (nru/srrip), a per-set PLRU tree, or per-line future
        // timestamps (opt).
        for name in ["lru", "mru", "fifo", "nru", "plru", "srrip", "opt"] {
            assert!(by_name(name).set_local(), "{name} should be set-local");
        }
        // Cross-set or absolute-valued state: a global RNG stream
        // (random), global fill counters (bip/brrip), set-dueling PSEL
        // monitors keyed on set index (dip/drrip), or LIP's
        // saturating-decrement clamp, whose within-set ordering depends
        // on the global clock magnitude.
        for name in ["random", "lip", "bip", "dip", "brrip", "drrip"] {
            assert!(!by_name(name).set_local(), "{name} must not be set-local");
        }
        assert!(!Hawkeye::new().set_local(), "hawkeye's predictor is global");
        // A boxed policy answers for its inner policy.
        assert!(by_name("lru").set_local());
    }

    /// With one set, set dueling has no followers: DIP's only set is its
    /// LRU leader and DRRIP's its SRRIP leader, so each replays its
    /// leader's policy access for access. The fully associative serving
    /// curves (`results/golden/curves.jsonl`) rely on this: `dip` equals
    /// `lru` and `drrip` equals `srrip` on every workload.
    #[test]
    fn one_set_dueling_is_its_leader() {
        fn same<P: ReplacementPolicy, Q: ReplacementPolicy>(a: fn() -> P, b: fn() -> Q) {
            for n in [1, 2, 17, 64, 300] {
                let params = CacheParams::new(n, 1, 0, 1);
                let mut a = Cache::new(params, Indexing::Modulo, a());
                let mut b = Cache::new(params, Indexing::Modulo, b());
                let name = a.policy().name();
                let mut rng = SmallRng::seed_from_u64(n);
                for i in 0..1000 + 8 * n {
                    let block = BlockAddr(rng.random_range(0..2 * n + 3));
                    let kind = if rng.random_bool(0.3) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let (x, y) = (
                        a.access(block, kind, AccessMeta::NONE),
                        b.access(block, kind, AccessMeta::NONE),
                    );
                    assert_eq!(x, y, "{name}, n = {n}, access {i}");
                }
                assert_eq!(a.stats(), b.stats(), "{name}, n = {n}");
            }
        }
        same(Dip::new, Lru::new);
        same(Drrip::new, Srrip::new);
    }
}
