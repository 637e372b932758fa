//! First-In-First-Out replacement.

use super::order::WayOrder;
use super::ReplacementPolicy;
use crate::meta::AccessMeta;

/// FIFO: evicts the way *filled* longest ago, ignoring hits.
///
/// Each set keeps its ways in fill order, oldest first, and the victim is
/// the head. Invalidating a way leaves it in place: a victim is asked
/// only of a full set, and the fill that refills the way moves it to the
/// back.
#[derive(Clone, Debug, Default)]
pub struct Fifo {
    order: WayOrder,
}

impl Fifo {
    /// Creates a FIFO policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Fifo {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.order = WayOrder::full(num_sets, ways);
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {
        // Hits do not refresh FIFO age.
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.order.push_back(set, way);
    }

    fn victim(&mut self, set: usize, _metas: &[AccessMeta]) -> usize {
        self.order.head(set)
    }

    fn set_local(&self) -> bool {
        // Each set's order is its own fill history.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::index::Indexing;
    use crate::meta::AccessKind;
    use tcor_common::{BlockAddr, CacheParams};

    #[test]
    fn fifo_ignores_hits() {
        // 2-line: fill 1, fill 2, hit 1, insert 3 -> evicts 1 (oldest fill)
        // even though 1 was just touched.
        let mut cache = Cache::new(
            CacheParams::new(128, 64, 0, 1),
            Indexing::Modulo,
            Fifo::new(),
        );
        for &b in &[1u64, 2, 1] {
            cache.access(BlockAddr(b), AccessKind::Read, AccessMeta::NONE);
        }
        let out = cache.access(BlockAddr(3), AccessKind::Read, AccessMeta::NONE);
        assert_eq!(out.evicted.unwrap().addr, BlockAddr(1));
    }
}
