//! Not-Recently-Used replacement.

use super::ReplacementPolicy;
use crate::meta::AccessMeta;

/// NRU: one reference bit per line, set on touch. Victims are chosen among
/// lines with a clear bit (lowest way first); when all bits in the set are
/// set, they are cleared first (except conceptually the just-touched one —
/// the classic single-bit approximation used by several MMUs and GPUs).
#[derive(Clone, Debug, Default)]
pub struct Nru {
    referenced: Vec<bool>,
    ways: usize,
}

impl Nru {
    /// Creates an NRU policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Nru {
    fn name(&self) -> &'static str {
        "NRU"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.ways = ways;
        self.referenced = vec![false; num_sets * ways];
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.referenced[set * self.ways + way] = true;
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.referenced[set * self.ways + way] = true;
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.referenced[set * self.ways + way] = false;
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        let base = set * self.ways;
        if let Some(w) = (0..metas.len()).find(|&w| !self.referenced[base + w]) {
            return w;
        }
        // All referenced: clear the whole set and take way 0.
        for w in 0..metas.len() {
            self.referenced[base + w] = false;
        }
        0
    }

    fn set_local(&self) -> bool {
        // One reference bit per line; the all-referenced sweep clears
        // only the victim's own set.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefers_unreferenced_way() {
        let mut p = Nru::new();
        p.attach(1, 4);
        let metas = [AccessMeta::NONE; 4];
        for w in [0usize, 1, 3] {
            p.on_hit(0, w, &AccessMeta::NONE);
        }
        assert_eq!(p.victim(0, &metas), 2);
    }

    #[test]
    fn clears_bits_when_all_referenced() {
        let mut p = Nru::new();
        p.attach(1, 2);
        let metas = [AccessMeta::NONE; 2];
        p.on_hit(0, 0, &AccessMeta::NONE);
        p.on_hit(0, 1, &AccessMeta::NONE);
        assert_eq!(p.victim(0, &metas), 0);
        // After the sweep, way 1 is now unreferenced.
        p.on_fill(0, 0, &AccessMeta::NONE);
        assert_eq!(p.victim(0, &metas), 1);
    }
}
