//! The L2 kernel: TCOR's dead-line-aware L2 (§III.D) as one tag and one
//! state word per line.
//!
//! The hardware L2 line adds a 14-bit Parameter Buffer tag to its
//! address tag and its valid and dirty bits; the replacement logic reads
//! that tag against the completed-tile watermark. [`L2Cache`] keeps
//! exactly that, plus an LRU stamp, and nothing else: no per-line
//! metadata record and no separate policy state.
//!
//! The general engine, `Cache<L2Policy>`, stays the kernel's oracle: the
//! two agree on every access's outcome, on every dirty line that leaves
//! and on the statistics (the differential test in `crate::oracle`).

use crate::hierarchy::L2Mode;
use crate::pbtag::PbTag;
use tcor_cache::{Indexing, SetIndex};
use tcor_common::{AccessStats, BlockAddr, CacheParams};

/// The packed [`PbTag`]: a 2-bit kind above a 12-bit last-use rank.
const TAG_MASK: u64 = (1 << 14) - 1;
/// The last-use rank inside the tag.
const LAST_USE_MASK: u64 = (1 << 12) - 1;
const KIND_SHIFT: u32 = 12;
const DIRTY: u64 = 1 << 14;
const VALID_SHIFT: u32 = 15;
const VALID: u64 = 1 << VALID_SHIFT;
const STAMP_SHIFT: u32 = 16;

/// A dirty line leaving the L2: the hierarchy writes it back, or drops it
/// dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DirtyLine {
    pub block: BlockAddr,
    pub tag: PbTag,
}

/// A write-back, write-allocate, set-associative L2 with Modulo set
/// indexing and TCOR's replacement (§III.D.2), or plain LRU.
///
/// Each set's `ways` block tags are followed by its `ways` state words,
/// `stamp << 16 | valid << 15 | dirty << 14 | PbTag`. A stamp is the
/// kernel's clock at the line's last touch; every access and every warm
/// fill advances the clock, so valid stamps are distinct and at least 1.
/// An invalid way's state word is 0.
///
/// A hit is the first valid tag match: it restamps the line, ORs in
/// dirty on a write and takes the request's tag unless that is
/// [`PbTag::NONE`], which never erases a resident tag. A miss fills the
/// way with the least victim key, the first way on a tie:
///
/// - an invalid way keys 0, so the lowest free way fills first;
/// - in TCOR mode a valid line keys `class << 62 | stamp`, with class 0
///   for a dead Parameter Buffer line (last use below the watermark), 1
///   for non-PB data and 2 for a live PB line;
/// - in baseline mode a valid line keys its stamp (LRU).
///
/// Keys are computed only on a miss. Every geometry, fully associative
/// included, runs the same scan of its set.
#[derive(Clone, Debug)]
pub(crate) struct L2Cache {
    index: SetIndex,
    ways: usize,
    /// Per set: `ways` block tags, then `ways` state words.
    lines: Vec<u64>,
    clock: u64,
    /// `u64::MAX` in TCOR mode, 0 in baseline mode: masks the class out
    /// of the victim key.
    class_mask: u64,
    stats: AccessStats,
}

impl L2Cache {
    /// An empty L2 with the geometry of `params` and the replacement of
    /// `mode`.
    pub fn new(params: CacheParams, mode: L2Mode) -> Self {
        let index = SetIndex::new(Indexing::Modulo, params.num_sets());
        let ways = params.effective_ways() as usize;
        L2Cache {
            index,
            ways,
            lines: vec![0; index.num_sets() * 2 * ways],
            clock: 0,
            class_mask: match mode {
                L2Mode::TcorEnhanced => u64::MAX,
                L2Mode::Baseline => 0,
            },
            stats: AccessStats::new(),
        }
    }

    /// One access to `block`, a write if `write`. Returns whether it hit,
    /// and the dirty line a miss evicted. Counts a probe, a read or write
    /// hit or miss, and a write-back for the evicted dirty line, as
    /// `Cache::access` does.
    #[inline]
    pub fn access(
        &mut self,
        block: BlockAddr,
        write: bool,
        tag: PbTag,
        watermark: u64,
    ) -> (bool, Option<DirtyLine>) {
        self.stats.probes += 1;
        let replaced = self.touch(block.0, u64::from(write) * DIRTY, tag, watermark);
        let hit = replaced.is_none();
        if write {
            self.stats.record_write(hit);
        } else {
            self.stats.record_read(hit);
        }
        let evicted = replaced.and_then(|(tag, state)| dirty_line(tag, state));
        self.stats.writebacks += u64::from(evicted.is_some());
        (hit, evicted)
    }

    /// Warm start: installs `block` clean, or merges `tag` into its
    /// resident line, as an access would but without a statistic. A
    /// dirty victim is dropped silently, as `Cache::fill_clean` does.
    pub fn fill_clean(&mut self, block: BlockAddr, tag: PbTag, watermark: u64) {
        self.touch(block.0, 0, tag, watermark);
    }

    /// Restamps `block`'s line, ORing in `dirty` and merging `tag`, or
    /// fills it over the set's victim. Returns `None` on a hit; on a
    /// miss, the block tag and state word the fill replaced (state 0 for
    /// a free way).
    #[inline(always)]
    fn touch(&mut self, block: u64, dirty: u64, tag: PbTag, watermark: u64) -> Option<(u64, u64)> {
        self.clock += 1;
        let tag = tag.encode();
        let stamped = self.clock << STAMP_SHIFT | VALID;
        let ways = self.ways;
        let set = self.index.set_of(block);
        let (tags, states) = self.lines[set * 2 * ways..(set + 1) * 2 * ways].split_at_mut(ways);
        for (&t, state) in tags.iter().zip(states.iter_mut()) {
            if t == block && *state & VALID != 0 {
                let kept = if tag != 0 { tag } else { *state & TAG_MASK };
                *state = stamped | (*state & DIRTY) | dirty | kept;
                return None;
            }
        }
        let way = victim(states, self.class_mask, watermark);
        let replaced = (tags[way], states[way]);
        tags[way] = block;
        states[way] = stamped | dirty | tag;
        Some(replaced)
    }

    /// Invalidates every line, handing each dirty one to `visit` in set
    /// then way order and counting it as a write-back.
    pub fn drain(&mut self, mut visit: impl FnMut(DirtyLine)) {
        let ways = self.ways;
        for set in self.lines.chunks_exact_mut(2 * ways) {
            let (tags, states) = set.split_at_mut(ways);
            for (&t, state) in tags.iter().zip(states.iter_mut()) {
                if let Some(line) = dirty_line(t, *state) {
                    self.stats.writebacks += 1;
                    visit(line);
                }
                *state = 0;
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Zeroes the statistics (the lines are kept).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::new();
    }
}

/// The line a state word describes, if it is dirty (a dirty line is
/// valid: an invalid way's state word is 0).
#[inline(always)]
fn dirty_line(block: u64, state: u64) -> Option<DirtyLine> {
    (state & DIRTY != 0).then(|| DirtyLine {
        block: BlockAddr(block),
        tag: PbTag::decode(state & TAG_MASK),
    })
}

/// The way of `states` with the least victim key, the first on a tie.
#[inline(always)]
fn victim(states: &[u64], class_mask: u64, watermark: u64) -> usize {
    let (mut way, mut least) = (0, u64::MAX);
    for (w, &state) in states.iter().enumerate() {
        let key = victim_key(state, class_mask, watermark);
        if key < least {
            (way, least) = (w, key);
        }
    }
    way
}

/// `class << 62 | stamp` for a valid line (the class masked out in
/// baseline mode), 0 for an invalid way. Class 0 is a dead Parameter
/// Buffer line, 1 non-PB data, 2 a live PB line: PB kind non-zero and
/// last-use rank at or above the watermark, the tile not yet completed.
#[inline(always)]
fn victim_key(state: u64, class_mask: u64, watermark: u64) -> u64 {
    let pb = u64::from(state >> KIND_SHIFT & 0b11 != 0);
    let live = u64::from(state & LAST_USE_MASK >= watermark);
    let class = (pb ^ 1) | (pb & live) << 1;
    let key = (class << 62) & class_mask | state >> STAMP_SHIFT;
    key & 0u64.wrapping_sub(state >> VALID_SHIFT & 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 sets of 2 ways: even blocks share set 0.
    fn l2(mode: L2Mode) -> L2Cache {
        L2Cache::new(CacheParams::new(256, 64, 2, 12), mode)
    }

    #[test]
    fn block_zero_is_an_ordinary_block_in_a_free_way() {
        // Tags start at 0, but an invalid way's state word keeps it from
        // matching block 0.
        let mut c = l2(L2Mode::TcorEnhanced);
        assert_eq!(c.access(BlockAddr(0), false, PbTag::NONE, 0), (false, None));
        assert_eq!(c.access(BlockAddr(0), false, PbTag::NONE, 0), (true, None));
    }

    #[test]
    fn drain_empties_every_set_in_set_then_way_order() {
        let mut c = l2(L2Mode::TcorEnhanced);
        for b in [3, 0, 1, 2] {
            c.access(BlockAddr(b), true, PbTag::NONE, 0);
        }
        let mut drained = Vec::new();
        c.drain(|line| drained.push(line.block.0));
        assert_eq!(drained, [0, 2, 3, 1]);
        assert_eq!(c.stats().writebacks, 4);
        assert_eq!(c.access(BlockAddr(0), false, PbTag::NONE, 0), (false, None));
    }
}
