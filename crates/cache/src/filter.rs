//! The read-only LRU kernel of a frame plan's L1 stage.
//!
//! A frame plan filters millions of texel, vertex and instruction
//! fetches through read-only L1s whose only output is hit or miss: no
//! line is ever written, so no line is ever dirty, and nothing reads
//! the per-line [`AccessMeta`](crate::AccessMeta) the engine keeps.
//! [`LruFilter`] keeps exactly what such a cache needs, each set's tags
//! and LRU recency stamps side by side, and answers a read without a
//! branch on its outcome.
//!
//! [`Cache<Lru>`](crate::Cache) stays the engine of every other cache
//! (the Tile Cache, the L2, the replacement studies) and is the
//! kernel's oracle: the two agree on every read's outcome, on the
//! statistics and on the resident lines
//! (`tests/reference_model.rs`).

use crate::index::{Indexing, SetIndex};
use tcor_common::{AccessStats, BlockAddr, CacheParams};

/// A read-only, exact-LRU, set-associative cache that answers one
/// question per read: did it hit?
///
/// Each set's `ways` tags are followed by its `ways` recency stamps. A
/// stamp is the kernel's clock at the line's last read; a stamp of 0
/// marks an invalid way, so the lowest-index zero stamp is the first
/// free way, the one [`Cache`](crate::Cache) fills. A read picks its way
/// from the tag-match mask (the hit way) or the minimum stamp (a free
/// way first, else the least recently read line), then writes the tag
/// and the new stamp there whether it hit or missed. Valid stamps are
/// distinct, so the victim is the one `Cache<Lru>` evicts.
///
/// The 4-way geometry of every plan L1 runs a fixed-width path; every
/// other geometry, fully associative included, scans its set.
#[derive(Clone, Debug)]
pub struct LruFilter {
    index: SetIndex,
    ways: usize,
    /// Per set: `ways` tags, then `ways` stamps.
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

    /// Reads `block`, filling it on a miss; returns whether it hit.
    /// Counts one probe and one read hit or miss, as
    /// `Cache::access(block, AccessKind::Read, AccessMeta::NONE)` does.
    #[inline]
    pub fn read(&mut self, block: BlockAddr) -> bool {
        let set = self.index.set_of(block.0);
        self.clock += 1;
        let hit = match self.ways {
            4 => {
                let lines: &mut [u64; 8] = (&mut self.lines[set * 8..set * 8 + 8])
                    .try_into()
                    .expect("a 4-way set is 8 words");
                read_fixed(lines, block.0, self.clock)
            }
            ways => {
                let lines = &mut self.lines[set * 2 * ways..(set + 1) * 2 * ways];
                read_scan(lines, block.0, self.clock)
            }
        };
        self.stats.probes += 1;
        self.stats.read_hits += u64::from(hit);
        self.stats.read_misses += u64::from(!hit);
        hit
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Zeroes the statistics (the resident lines are kept).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::new();
    }

    /// Whether `block` is resident (no state change).
    pub fn contains(&self, block: BlockAddr) -> bool {
        let set = self.index.set_of(block.0);
        let (tags, stamps) =
            self.lines[set * 2 * self.ways..(set + 1) * 2 * self.ways].split_at(self.ways);
        tags.iter()
            .zip(stamps)
            .any(|(&tag, &stamp)| tag == block.0 && stamp != 0)
    }

    /// Number of valid lines.
    pub fn occupancy(&self) -> usize {
        self.lines
            .chunks_exact(2 * self.ways)
            .map(|set| set[self.ways..].iter().filter(|&&s| s != 0).count())
            .sum()
    }
}

/// One read of a 4-way set laid out as `[tag; 4]` then `[stamp; 4]`.
/// The ways compare side by side into a match mask and a strict-less
/// running minimum (ties keep the lower way); the write goes to the
/// hit way or that minimum without a branch on the outcome.
#[inline(always)]
fn read_fixed(lines: &mut [u64; 8], block: u64, clock: u64) -> bool {
    let (tags, stamps) = lines.split_at_mut(4);
    let mut hits = 0u32;
    for (w, (&tag, &stamp)) in tags.iter().zip(stamps.iter()).enumerate() {
        hits |= u32::from((tag == block) & (stamp != 0)) << w;
    }
    let (mut victim, mut oldest) = (0, stamps[0]);
    for (w, &stamp) in stamps.iter().enumerate().skip(1) {
        let older = stamp < oldest;
        victim = if older { w } else { victim };
        oldest = if older { stamp } else { oldest };
    }
    let hit = hits != 0;
    let way = if hit {
        hits.trailing_zeros() as usize
    } else {
        victim
    };
    tags[way] = block;
    stamps[way] = clock;
    hit
}

/// [`read_fixed`] for a set of any width: its `ways` tags then its
/// `ways` stamps.
#[inline]
fn read_scan(lines: &mut [u64], block: u64, clock: u64) -> bool {
    let (tags, stamps) = lines.split_at_mut(lines.len() / 2);
    let (mut way, mut hit, mut oldest) = (0, false, u64::MAX);
    for (w, (&tag, &stamp)) in tags.iter().zip(stamps.iter()).enumerate() {
        if tag == block && stamp != 0 {
            (way, hit) = (w, true);
            break;
        }
        if stamp < oldest {
            (way, oldest) = (w, stamp);
        }
    }
    tags[way] = block;
    stamps[way] = clock;
    hit
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
        // Tags start at 0, but a zero stamp keeps an empty way from
        // matching block 0, on the fixed path and on the scan.
        for ways in [4, 3] {
            let mut f = LruFilter::new(
                CacheParams::new(64 * ways, 64, ways as u32, 1),
                Indexing::Modulo,
            );
            assert!(!f.read(BlockAddr(0)), "{ways} ways");
            assert!(f.read(BlockAddr(0)), "{ways} ways");
        }
    }
}
