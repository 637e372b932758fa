//! The least-key kernel: a frame plan's read-only L1s and the
//! set-associative LRU, MRU and OPT miss-curve replays.
//!
//! A frame plan filters millions of texel, vertex and instruction
//! fetches through read-only L1s whose only output is hit or miss, and
//! a miss curve needs only each replay's miss count. Neither reads a
//! dirty bit or the per-line [`AccessMeta`](crate::AccessMeta) the
//! engine keeps. [`LruFilter`] keeps exactly what both need, each set's
//! tags and one key per line side by side, and answers an access
//! without a branch on its outcome. [`LruFilter::read`] keys every read
//! by the filter's clock, which is exact LRU;
//! [`keyed_misses`](crate::profile::keyed_misses) keys a trace by LRU,
//! MRU or Belady OPT.
//!
//! [`Cache`](crate::Cache) with [`Lru`](crate::policy::Lru),
//! [`Mru`](crate::policy::Mru) or [`Opt`](crate::policy::Opt) stays the
//! engine of every other cache (the Tile Cache, the replacement
//! studies' other policies and their fully associative geometries) and
//! is the kernel's oracle: they agree on every access's outcome and on
//! the resident lines (`tests/reference_model.rs`).

use crate::index::{Indexing, SetIndex};
use tcor_common::{AccessStats, BlockAddr, CacheParams};

/// A set-associative cache that keeps one key per line and answers one
/// question per access: did it hit?
///
/// Each set's `ways` tags are followed by its `ways` keys; a key of 0
/// marks an empty way. An access takes the first valid way whose tag
/// matches, or else the way with the least key (ties go to the lowest
/// way, so the lowest empty way comes first), and writes the block and
/// the caller's key there whether it hit or missed. Under
/// [`read`](Self::read) the key is the filter's clock, so the victim is
/// the line [`Cache<Lru>`](crate::Cache) evicts.
///
/// 1-, 2-, 4- and 8-way geometries run fixed-width paths (every plan L1
/// is 4-way); every other geometry, fully associative included, scans
/// its set.
#[derive(Clone, Debug)]
pub struct LruFilter {
    index: SetIndex,
    ways: usize,
    /// Per set: `ways` tags, then `ways` keys.
    lines: Vec<u64>,
    clock: u64,
    stats: AccessStats,
}

impl LruFilter {
    /// An empty filter with the geometry of `params` and the set index
    /// `indexing`.
    pub fn new(params: CacheParams, indexing: Indexing) -> Self {
        let index = SetIndex::new(indexing, params.num_sets());
        let ways = params.effective_ways() as usize;
        LruFilter {
            index,
            ways,
            lines: vec![0; index.num_sets() * 2 * ways],
            clock: 0,
            stats: AccessStats::new(),
        }
    }

    /// Reads `block` under exact LRU, filling it on a miss; returns
    /// whether it hit. Counts one probe and one read hit or miss, as
    /// `Cache::access(block, AccessKind::Read, AccessMeta::NONE)` does.
    #[inline]
    pub fn read(&mut self, block: BlockAddr) -> bool {
        self.clock += 1;
        // Every plan L1 is 4-way: its path inlines into the caller's
        // loop, and every other width costs one call.
        let hit = match self.ways {
            4 => self.access_fixed::<4>(block.0, self.clock),
            _ => self.access(block.0, self.clock),
        };
        self.stats.probes += 1;
        self.stats.read_hits += u64::from(hit);
        self.stats.read_misses += u64::from(!hit);
        hit
    }

    /// Accesses `block` and leaves `key` (non-zero) on its way; returns
    /// whether it hit. Counts no statistics.
    pub fn access(&mut self, block: u64, key: u64) -> bool {
        match self.ways {
            1 => self.access_fixed::<1>(block, key),
            2 => self.access_fixed::<2>(block, key),
            4 => self.access_fixed::<4>(block, key),
            8 => self.access_fixed::<8>(block, key),
            _ => self.access_scan(block, key),
        }
    }

    /// Runs every `(block, key)` of `accesses` through
    /// [`access`](Self::access) and returns how many missed. The width
    /// is dispatched once, not per access.
    pub fn misses(&mut self, accesses: impl Iterator<Item = (u64, u64)>) -> u64 {
        match self.ways {
            1 => self.misses_fixed::<1>(accesses),
            2 => self.misses_fixed::<2>(accesses),
            4 => self.misses_fixed::<4>(accesses),
            8 => self.misses_fixed::<8>(accesses),
            _ => accesses
                .map(|(block, key)| u64::from(!self.access_scan(block, key)))
                .sum(),
        }
    }

    fn misses_fixed<const W: usize>(&mut self, accesses: impl Iterator<Item = (u64, u64)>) -> u64 {
        accesses
            .map(|(block, key)| u64::from(!self.access_fixed::<W>(block, key)))
            .sum()
    }

    /// Accumulated statistics of [`read`](Self::read).
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Zeroes the statistics (the resident lines are kept).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::new();
    }

    /// Whether `block` is resident (no state change).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let (tags, keys) = self.set(self.index.set_of(block.0)).split_at(self.ways);
        tags.iter()
            .zip(keys)
            .any(|(&tag, &key)| tag == block.0 && key != 0)
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines
            .chunks_exact(2 * self.ways)
            .map(|set| set[self.ways..].iter().filter(|&&k| k != 0).count())
            .sum()
    }

    fn set(&self, set: usize) -> &[u64] {
        &self.lines[set * 2 * self.ways..(set + 1) * 2 * self.ways]
    }

    /// [`access`](Self::access) on a `W`-way set. The ways compare side
    /// by side into a match mask and a strict-less running minimum
    /// (ties keep the lower way); the write goes to the hit way or that
    /// minimum without a branch on the outcome.
    #[inline(always)]
    fn access_fixed<const W: usize>(&mut self, block: u64, key: u64) -> bool {
        let set = self.index.set_of(block);
        let (tags, keys) = self.lines[set * 2 * W..(set + 1) * 2 * W].split_at_mut(W);
        let mut hits = 0u32;
        for (w, (&tag, &k)) in tags.iter().zip(keys.iter()).enumerate() {
            hits |= u32::from((tag == block) & (k != 0)) << w;
        }
        let (mut victim, mut least) = (0, keys[0]);
        for (w, &k) in keys.iter().enumerate().skip(1) {
            let less = k < least;
            victim = if less { w } else { victim };
            least = if less { k } else { least };
        }
        let hit = hits != 0;
        let way = if hit {
            hits.trailing_zeros() as usize
        } else {
            victim
        };
        tags[way] = block;
        keys[way] = key;
        hit
    }

    /// [`access_fixed`](Self::access_fixed) for a set of any width.
    #[inline]
    fn access_scan(&mut self, block: u64, key: u64) -> bool {
        let set = self.index.set_of(block);
        let ways = self.ways;
        let (tags, keys) = self.lines[set * 2 * ways..(set + 1) * 2 * ways].split_at_mut(ways);
        let (mut way, mut hit, mut least) = (0, false, u64::MAX);
        for (w, (&tag, &k)) in tags.iter().zip(keys.iter()).enumerate() {
            if tag == block && k != 0 {
                (way, hit) = (w, true);
                break;
            }
            if k < least {
                (way, least) = (w, k);
            }
        }
        tags[way] = block;
        keys[way] = key;
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit_and_lru_victim() {
        // 2 sets of 2 ways: even blocks share set 0.
        let mut f = LruFilter::new(CacheParams::new(256, 64, 2, 1), Indexing::Modulo);
        assert!(!f.read(BlockAddr(0)));
        assert!(f.read(BlockAddr(0)));
        assert!(!f.read(BlockAddr(2)));
        assert!(f.read(BlockAddr(0)));
        // Block 2 is the least recently read: block 4 replaces it.
        assert!(!f.read(BlockAddr(4)));
        assert!(f.contains(BlockAddr(0)) && !f.contains(BlockAddr(2)));
        assert_eq!(f.occupancy(), 2);
        let s = f.stats();
        assert_eq!((s.probes, s.read_hits, s.read_misses), (5, 2, 3));
        f.reset_stats();
        assert_eq!(*f.stats(), AccessStats::new());
        assert_eq!(f.occupancy(), 2, "statistics reset keeps the lines");
    }

    #[test]
    fn block_zero_is_an_ordinary_block_in_an_empty_way() {
        // Tags start at 0, but a zero key keeps an empty way from
        // matching block 0, on every fixed path and on the scan.
        for ways in [1, 2, 4, 8, 3] {
            let mut f = LruFilter::new(
                CacheParams::new(64 * ways, 64, ways as u32, 1),
                Indexing::Modulo,
            );
            assert!(!f.read(BlockAddr(0)), "{ways} ways");
            assert!(f.read(BlockAddr(0)), "{ways} ways");
        }
    }

    #[test]
    fn least_key_is_the_victim_and_ties_go_to_the_lowest_way() {
        // One 4-way set and one 3-way set (the scan).
        for ways in [4u64, 3] {
            let mut f = LruFilter::new(
                CacheParams::new(64 * ways, 64, ways as u32, 1),
                Indexing::Modulo,
            );
            for b in 0..ways {
                assert!(!f.access(b, 5), "{ways} ways");
            }
            // Every key ties: way 0 goes.
            assert!(!f.access(10, 9));
            assert!(!f.contains(BlockAddr(0)) && f.contains(BlockAddr(1)));
            // A hit rewrites its key: block 1 now holds the least key.
            assert!(f.access(1, 2));
            assert!(!f.access(11, 9));
            assert!(!f.contains(BlockAddr(1)) && f.contains(BlockAddr(2)));
            let misses = f.misses([(2, 9), (12, 9), (2, 9)].into_iter());
            assert_eq!(misses, 1, "{ways} ways");
            assert_eq!(
                *f.stats(),
                AccessStats::new(),
                "keyed accesses count nothing"
            );
        }
    }
}
