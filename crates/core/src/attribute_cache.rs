//! The Attribute Cache (Fig. 8): a Primitive Buffer over an Attribute
//! Buffer, with OPT replacement and write bypass.
//!
//! * The **Primitive Buffer** is set-associative over primitive IDs
//!   (XOR-based set index \[12\]). Each line is a 16-bit state word
//!   (valid, lock and dirty bits and the 12-bit OPT Number) in one array,
//!   and its tag (the primitive), the Attribute Buffer Pointer (ABP) to
//!   its first attribute and its attribute count in a second.
//! * The **Attribute Buffer** stores one 48-byte attribute per entry;
//!   a primitive's attributes form a linked list, and free entries form a
//!   free list. A primitive fits only if enough free entries exist.
//!
//! Replacement (§III.C.6): among *unlocked* lines of the set, evict the
//! one with the **greatest** OPT Number (used farthest in the future; a
//! primitive never used again carries [`TileRank::NEVER`], the greatest of
//! all). Locks pin primitives whose ABP sits in the Tile Fetcher output
//! queue until the Rasterizer consumes them (§III.C.3/5).
//!
//! Writes (§III.C.4): the Polygon List Builder writes each primitive
//! once. If the best victim's OPT Number is **greater** than the write's,
//! the victim is evicted and the write allocated; otherwise (including
//! equality) the write is **bypassed** to the L2.
//!
//! The cache-wide questions — the farthest-future eligible line, and how
//! many Attribute Buffer entries eligible lines hold (above a floor) —
//! are answered from an exact index of the eligible lines kept in step
//! with every line state change, not by scanning the Primitive Buffer.
//! Only the OPT self-check scans it: one max over the state words.

use tcor_cache::{Indexing, SetIndex};
use tcor_common::{AccessStats, PrimitiveId, TileRank};

/// Geometry and policy knobs of the Attribute Cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttributeCacheConfig {
    /// Primitive Buffer associativity.
    pub ways: usize,
    /// Primitive Buffer lines (must be a multiple of `ways`).
    pub pb_lines: usize,
    /// Attribute Buffer entries (one 48-byte attribute each).
    pub ab_entries: usize,
    /// Set-index function over primitive IDs. The paper uses the
    /// XOR-based function of \[12\]; `Modulo` is the ablation.
    pub indexing: Indexing,
    /// Polygon-List-Builder write bypass (§III.C.4). Disabling it makes
    /// every write allocate (evicting the farthest-future line) — the
    /// ablation for design decision D2.
    pub write_bypass: bool,
}

impl AttributeCacheConfig {
    /// Splits a byte budget into the two structures the way the paper's
    /// zero-overhead argument implies: the budget buys `bytes / 64`
    /// attribute entries (48 B data + pointer/valid/lock overhead, which
    /// the removed per-line tags pay for), and one Primitive Buffer line
    /// per potential resident primitive (at the 1-attribute worst case).
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small to hold `ways` primitives of one
    /// attribute each.
    pub fn from_budget(bytes: u64, ways: usize) -> Self {
        let ab_entries = (bytes / 64) as usize;
        let pb_lines = (ab_entries / ways).max(1) * ways;
        assert!(
            ab_entries >= ways,
            "attribute cache budget {bytes} too small"
        );
        AttributeCacheConfig {
            ways,
            pb_lines,
            ab_entries,
            indexing: Indexing::Xor,
            write_bypass: true,
        }
    }

    /// Returns the config with a different set-index function.
    pub fn with_indexing(mut self, indexing: Indexing) -> Self {
        self.indexing = indexing;
        self
    }

    /// Returns the config with write bypass enabled or disabled.
    pub fn with_write_bypass(mut self, on: bool) -> Self {
        self.write_bypass = on;
        self
    }

    /// Number of Primitive Buffer sets.
    pub fn num_sets(&self) -> usize {
        self.pb_lines / self.ways
    }
}

/// A primitive displaced from the Attribute Cache. If `dirty`, its
/// attributes must be written back to the L2 (the system driver issues
/// one write per attribute block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedPrim {
    /// The displaced primitive.
    pub prim: PrimitiveId,
    /// Whether its attributes were dirty (written by the Polygon List
    /// Builder and never yet flushed).
    pub dirty: bool,
    /// How many attributes it held.
    pub attr_count: u8,
}

/// Outcome of a Tile Fetcher read (§III.C.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadResult {
    /// Present: line and first attribute locked, OPT Number updated, ABP
    /// pushed to the output queue.
    Hit,
    /// Absent: a line was reserved (evicting primitives, possibly several
    /// to free Attribute Buffer space); the driver fetches the attribute
    /// blocks from the L2.
    Miss,
    /// No unlocked victim (or not enough unlockable space): the fetcher
    /// must wait for the Rasterizer to consume queued primitives and
    /// retry.
    Stalled,
}

/// Outcome of a Polygon List Builder write (§III.C.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteResult {
    /// Stored in the Attribute Cache (dirty), possibly evicting
    /// farther-future primitives.
    Allocated,
    /// Every unlocked candidate will be used sooner than (or at the same
    /// tile as) this primitive: the write goes straight to the L2.
    Bypassed,
}

/// One Primitive Buffer line's state word: bit 15 valid, bit 14 lock,
/// bit 13 dirty and bits 0–11 the saturated OPT Number. An invalid line
/// reads 0. The words sit in an array of their own, so the OPT self-check
/// scans 2 bytes a line ([`farther_eligible`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LineState(u16);

impl LineState {
    const INVALID: LineState = LineState(0);
    const VALID: u16 = 1 << 15;
    const LOCK: u16 = 1 << 14;
    const DIRTY: u16 = 1 << 13;
    const OPT: u16 = TileRank::OPT_MAX as u16;

    /// A valid line's word. `opt` must be saturated (§III.C).
    fn resident(lock: bool, dirty: bool, opt: TileRank) -> Self {
        debug_assert!(
            opt.0 <= TileRank::OPT_MAX,
            "stored OPT Numbers are saturated"
        );
        let bit = |on: bool, b: u16| if on { b } else { 0 };
        LineState(Self::VALID | bit(lock, Self::LOCK) | bit(dirty, Self::DIRTY) | opt.0 as u16)
    }

    fn is_valid(self) -> bool {
        self.0 & Self::VALID != 0
    }

    fn is_locked(self) -> bool {
        self.0 & Self::LOCK != 0
    }

    fn is_dirty(self) -> bool {
        self.0 & Self::DIRTY != 0
    }

    /// Whether OPT eviction may pick this line: valid and unlocked.
    fn is_eligible(self) -> bool {
        self.0 & (Self::VALID | Self::LOCK) == Self::VALID
    }

    fn opt(self) -> TileRank {
        TileRank(u32::from(self.0 & Self::OPT))
    }

    fn unlocked(self) -> Self {
        LineState(self.0 & !Self::LOCK)
    }
}

/// What a valid line holds besides its state: its tag (the primitive),
/// its ABP and its attribute count.
#[derive(Clone, Copy, Debug, Default)]
struct LineTag {
    prim: PrimitiveId,
    abp: u32,
    attr_count: u8,
}

/// The cache-wide OPT self-check's predicate: whether an eligible line
/// has an OPT Number greater than both `chosen`'s and `floor`. One
/// branch-free max over the words with the lock bit flipped and the dirty
/// bit masked: an eligible line then reads `0xC000 | opt`, a locked one
/// `0x8000 | opt` and an invalid one `0x4000`. So the max is an eligible
/// line exactly when one exists, and then it carries the greatest
/// eligible OPT Number. The chosen line cannot exceed its own OPT Number,
/// so it needs no exclusion.
fn farther_eligible(states: &[LineState], chosen: usize, floor: Option<TileRank>) -> bool {
    let max = states
        .iter()
        .fold(0, |m, s| m.max((s.0 ^ LineState::LOCK) & !LineState::DIRTY));
    let bound = floor.map_or(0, |f| f.0).max(states[chosen].opt().0);
    max >= LineState::VALID | LineState::LOCK && u32::from(max & LineState::OPT) > bound
}

/// Exact index of the *eligible* Primitive Buffer lines (valid and
/// unlocked: the only lines OPT eviction may pick).
///
/// Each eligible line `i` is one key, `(opt + 1) << 40 | i << 8 |
/// attr_count`; 0 marks an ineligible line. Line indices are distinct,
/// so keys order exactly as `(opt, i)`: the greatest key is the *last*
/// line with the greatest OPT Number, which is what an ascending
/// `max_by_key(opt)` scan returns. The attribute count rides in the low
/// byte so that removing a key knows what to subtract.
///
/// Stored OPT Numbers are saturated to 12 bits (§III.C), so a Fenwick
/// tree over the 4,096 possible values counts the entries held above
/// any floor exactly.
#[derive(Clone, Debug)]
struct EligibleIndex {
    /// Max tree: leaf `leaves + i` is line `i`'s key, every inner node
    /// the max of its two children, so `tree[1]` is the cache-wide
    /// victim.
    tree: Vec<u64>,
    leaves: usize,
    /// Fenwick tree (1-based) over OPT Numbers of the entries held by
    /// eligible lines.
    by_opt: Vec<usize>,
    /// Attribute Buffer entries held by eligible lines.
    entries: usize,
}

impl EligibleIndex {
    fn new(lines: usize) -> Self {
        debug_assert!(
            lines <= u32::MAX as usize,
            "line index must fit its key field"
        );
        let leaves = lines.next_power_of_two();
        EligibleIndex {
            tree: vec![0; 2 * leaves],
            leaves,
            by_opt: vec![0; TileRank::OPT_MAX as usize + 2],
            entries: 0,
        }
    }

    /// Re-indexes line `idx` from its state word and attribute count.
    fn update(&mut self, idx: usize, state: LineState, attr_count: u8) {
        let key = if state.is_eligible() {
            ((u64::from(state.opt().0) + 1) << 40) | ((idx as u64) << 8) | u64::from(attr_count)
        } else {
            0
        };
        let mut node = self.leaves + idx;
        let old = self.tree[node];
        if old == key {
            return;
        }
        if old != 0 {
            self.tally((old >> 40) as u32 - 1, (old & 0xff) as usize, false);
        }
        if key != 0 {
            self.tally(state.opt().0, attr_count as usize, true);
        }
        self.tree[node] = key;
        while node > 1 {
            node /= 2;
            let best = self.tree[2 * node].max(self.tree[2 * node + 1]);
            if self.tree[node] == best {
                break;
            }
            self.tree[node] = best;
        }
    }

    /// Adds (or removes) `count` entries held at OPT Number `opt`.
    fn tally(&mut self, opt: u32, count: usize, add: bool) {
        let mut i = opt as usize + 1;
        while i < self.by_opt.len() {
            if add {
                self.by_opt[i] += count;
            } else {
                self.by_opt[i] -= count;
            }
            i += i & i.wrapping_neg();
        }
        if add {
            self.entries += count;
        } else {
            self.entries -= count;
        }
    }

    /// The eligible line with the greatest OPT Number (the last such
    /// line on ties), if any.
    fn victim(&self) -> Option<usize> {
        let root = self.tree[1];
        (root != 0).then_some(((root >> 8) & 0xffff_ffff) as usize)
    }

    /// Entries held by eligible lines whose OPT Number is strictly
    /// greater than the (saturated) `floor`.
    fn entries_above(&self, floor: TileRank) -> usize {
        let mut at_or_below = 0;
        let mut i = floor.0 as usize + 1;
        while i > 0 {
            at_or_below += self.by_opt[i];
            i &= i - 1;
        }
        self.entries - at_or_below
    }
}

/// The Attribute Cache.
#[derive(Clone, Debug)]
pub struct AttributeCache {
    cfg: AttributeCacheConfig,
    /// `cfg.indexing` over `cfg.num_sets()`, precomputed.
    index: SetIndex,
    /// Primitive Buffer line state words.
    states: Vec<LineState>,
    /// Primitive Buffer tags, ABPs and attribute counts, by line.
    tags: Vec<LineTag>,
    /// Attribute Buffer: next-entry links (the attribute payloads carry no
    /// information the simulator needs).
    ab_next: Vec<Option<u32>>,
    free: Vec<u32>,
    stats: AccessStats,
    locked_prims: u64,
    resident: usize,
    occ_samples: u64,
    occ_entries_sum: u64,
    occ_prims_sum: u64,
    stall_events: u64,
    /// Attribute blocks evicted dirty (each becomes one L2 write in the
    /// system driver), counted at the eviction site. Kept separate from
    /// `stats.writebacks` so the energy model's inputs are untouched.
    wb_blocks: u64,
    /// OPT self-check failures: a selected victim that was not the
    /// farthest-future eligible candidate (Hawkeye-style self-checking
    /// oracle; always 0 unless victim selection regresses).
    opt_violations: u64,
    eligible: EligibleIndex,
}

impl AttributeCache {
    /// Creates an empty Attribute Cache.
    pub fn new(cfg: AttributeCacheConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.pb_lines.is_multiple_of(cfg.ways));
        AttributeCache {
            cfg,
            index: SetIndex::new(cfg.indexing, cfg.num_sets() as u64),
            states: vec![LineState::INVALID; cfg.pb_lines],
            tags: vec![LineTag::default(); cfg.pb_lines],
            ab_next: vec![None; cfg.ab_entries],
            free: (0..cfg.ab_entries as u32).rev().collect(),
            stats: AccessStats::new(),
            locked_prims: 0,
            resident: 0,
            occ_samples: 0,
            occ_entries_sum: 0,
            occ_prims_sum: 0,
            stall_events: 0,
            wb_blocks: 0,
            opt_violations: 0,
            eligible: EligibleIndex::new(cfg.pb_lines),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &AttributeCacheConfig {
        &self.cfg
    }

    /// Accumulated statistics. Bypassed writes count in
    /// [`AccessStats::bypasses`], not as accesses.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Free Attribute Buffer entries.
    pub fn free_entries(&self) -> usize {
        self.free.len()
    }

    /// Resident (valid) primitives.
    pub fn resident_primitives(&self) -> usize {
        self.resident
    }

    /// Mean Attribute Buffer occupancy over the accesses so far, as a
    /// fraction of `ab_entries` — evidence for the paper's zero-overhead
    /// sizing argument (§III.C.2).
    pub fn avg_buffer_utilization(&self) -> f64 {
        if self.occ_samples == 0 {
            0.0
        } else {
            self.occ_entries_sum as f64 / (self.occ_samples as f64 * self.cfg.ab_entries as f64)
        }
    }

    /// Mean Primitive Buffer occupancy over the accesses so far, as a
    /// fraction of `pb_lines`.
    pub fn avg_line_utilization(&self) -> f64 {
        if self.occ_samples == 0 {
            0.0
        } else {
            self.occ_prims_sum as f64 / (self.occ_samples as f64 * self.cfg.pb_lines as f64)
        }
    }

    /// Read attempts that stalled on locks (the fetcher had to wait for
    /// the Rasterizer).
    pub fn stall_events(&self) -> u64 {
        self.stall_events
    }

    /// Attribute blocks evicted dirty, counted at the eviction site.
    pub fn writeback_blocks(&self) -> u64 {
        self.wb_blocks
    }

    /// OPT self-check failures (0 in a correct run).
    pub fn opt_violations(&self) -> u64 {
        self.opt_violations
    }

    fn sample_occupancy(&mut self) {
        self.occ_samples += 1;
        self.occ_entries_sum += (self.cfg.ab_entries - self.free.len()) as u64;
        self.occ_prims_sum += self.resident as u64;
    }

    /// Number of currently locked primitives.
    pub fn locked_primitives(&self) -> u64 {
        self.locked_prims
    }

    fn set_of(&self, prim: PrimitiveId) -> usize {
        self.index.set_of(prim.0 as u64)
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.cfg.ways..(set + 1) * self.cfg.ways
    }

    fn find(&self, prim: PrimitiveId) -> Option<usize> {
        let set = self.set_of(prim);
        self.set_range(set)
            .find(|&i| self.states[i].is_valid() && self.tags[i].prim == prim)
    }

    /// Writes line `idx`'s state word and re-indexes the line.
    fn set_state(&mut self, idx: usize, state: LineState) {
        self.states[idx] = state;
        self.eligible.update(idx, state, self.tags[idx].attr_count);
    }

    fn alloc_chain(&mut self, count: u8) -> u32 {
        debug_assert!(self.free.len() >= count as usize);
        let head = self.free.pop().expect("space checked");
        let mut cur = head;
        for _ in 1..count {
            let nxt = self.free.pop().expect("space checked");
            self.ab_next[cur as usize] = Some(nxt);
            cur = nxt;
        }
        self.ab_next[cur as usize] = None;
        head
    }

    fn free_chain(&mut self, head: u32) {
        let mut cur = Some(head);
        while let Some(i) = cur {
            cur = self.ab_next[i as usize].take();
            self.free.push(i);
        }
    }

    fn evict_line(&mut self, idx: usize) -> EvictedPrim {
        let (state, tag) = (self.states[idx], self.tags[idx]);
        debug_assert!(state.is_eligible());
        if state.is_dirty() {
            self.wb_blocks += tag.attr_count as u64;
        }
        self.free_chain(tag.abp);
        self.set_state(idx, LineState::INVALID);
        self.resident -= 1;
        EvictedPrim {
            prim: tag.prim,
            dirty: state.is_dirty(),
            attr_count: tag.attr_count,
        }
    }

    /// Makes a line (its attribute chain already allocated) resident at
    /// the reserved slot `idx`.
    fn install(&mut self, idx: usize, tag: LineTag, state: LineState) {
        self.tags[idx] = tag;
        self.set_state(idx, state);
        self.resident += 1;
        if state.is_locked() {
            self.locked_prims += 1;
        }
    }

    /// The unlocked line in `set` with the greatest OPT Number, if any.
    fn best_victim(&self, set: usize) -> Option<usize> {
        self.set_range(set)
            .filter(|&i| self.states[i].is_eligible())
            .max_by_key(|&i| self.states[i].opt())
    }

    /// OPT self-check over the set-scoped eviction: counts a violation if
    /// an unlocked survivor of `set` will be used farther in the future
    /// than the chosen victim. Re-derived with an independent scan, not
    /// the selection code — call *before* `evict_line`.
    fn audit_set_victim(&mut self, set: usize, chosen: usize) {
        let chosen_opt = self.states[chosen].opt();
        let violated = self.set_range(set).any(|i| {
            i != chosen && self.states[i].is_eligible() && self.states[i].opt() > chosen_opt
        });
        if violated {
            self.opt_violations += 1;
        }
    }

    /// OPT self-check over a cache-wide eviction. `floor` restricts the
    /// eligible candidates (the write path may only evict lines strictly
    /// farther-future than the written primitive). A full scan of the
    /// Primitive Buffer's state words, independent of the eligible-line
    /// index that chose the victim, on every cache-wide eviction.
    fn audit_global_victim(&mut self, chosen: usize, floor: Option<TileRank>) {
        if farther_eligible(&self.states, chosen, floor) {
            self.opt_violations += 1;
        }
    }

    /// Frees Attribute Buffer space by evicting unlocked primitives
    /// cache-wide in OPT order until `needed` entries are free, handing
    /// each to `evicted` as it leaves. `floor` restricts the victims to
    /// lines strictly farther-future than it (the write path). The caller
    /// has checked that the eligible lines hold enough entries.
    fn make_space(
        &mut self,
        needed: usize,
        floor: Option<TileRank>,
        evicted: &mut impl FnMut(EvictedPrim),
    ) {
        while self.free.len() < needed {
            let victim = self
                .eligible
                .victim()
                .filter(|&i| floor.is_none_or(|f| self.states[i].opt() > f))
                .expect("feasibility checked");
            self.audit_global_victim(victim, floor);
            evicted(self.evict_line(victim));
        }
    }

    /// Reserves a Primitive Buffer line for `prim` the way a read miss
    /// does: an empty line of its set, else the set's farthest-future
    /// unlocked line, then cache-wide OPT evictions until `attr_count`
    /// attributes fit (§III.C.3 Miss: "In case of a dearth of space, more
    /// primitives are evicted using OPT"), handing each evicted primitive
    /// to `evicted` as it leaves. Feasibility is checked *before*
    /// mutating, so `None` (locks make it impossible) changes nothing.
    fn reserve(
        &mut self,
        prim: PrimitiveId,
        attr_count: u8,
        evicted: &mut impl FnMut(EvictedPrim),
    ) -> Option<usize> {
        let set = self.set_of(prim);
        let empty = self.set_range(set).find(|&i| !self.states[i].is_valid());
        let victim = self.best_victim(set);
        if empty.is_none() && victim.is_none() {
            return None; // every line in the set is locked
        }
        if self.free.len() + self.eligible.entries < attr_count as usize {
            return None; // locked primitives hold the buffer
        }
        let idx = match empty {
            Some(i) => i,
            None => {
                let v = victim.expect("checked above");
                self.audit_set_victim(set, v);
                evicted(self.evict_line(v));
                v
            }
        };
        self.make_space(attr_count as usize, None, evicted);
        Some(idx)
    }

    /// Reserves a line for a Polygon List Builder write first used at
    /// `first_use` (§III.C.4), evicting only lines strictly farther-future
    /// than the write. `None` (bypass, nothing changed) when the set is
    /// full and its best victim is used no later than the write —
    /// equality included — or when the write's attributes cannot fit.
    fn reserve_farther(
        &mut self,
        prim: PrimitiveId,
        attr_count: u8,
        first_use: TileRank,
        evicted: &mut impl FnMut(EvictedPrim),
    ) -> Option<usize> {
        // Free entries plus entries held by unlocked primitives that are
        // strictly farther-future than this write.
        if self.free.len() + self.eligible.entries_above(first_use) < attr_count as usize {
            return None;
        }
        let set = self.set_of(prim);
        let idx = match self.set_range(set).find(|&i| !self.states[i].is_valid()) {
            Some(i) => i,
            None => {
                let v = self
                    .best_victim(set)
                    .filter(|&v| self.states[v].opt() > first_use)?;
                self.audit_set_victim(set, v);
                evicted(self.evict_line(v));
                v
            }
        };
        self.make_space(attr_count as usize, Some(first_use), evicted);
        Some(idx)
    }

    /// Tile Fetcher read of `prim` (which has `attr_count` attributes) on
    /// behalf of the tile whose PMD supplied `opt_number` (§III.C.3).
    ///
    /// On a hit the line is locked and its OPT Number updated from the
    /// request. On a miss a line is reserved (and locked), and each
    /// primitive displaced to make room is handed to `evicted` as it
    /// leaves: the caller fetches the attribute blocks from the L2 and,
    /// when they arrive, the primitive is resident. `Stalled` means every
    /// candidate is locked; the caller must let the Rasterizer drain and
    /// retry. Only a miss evicts.
    pub fn read(
        &mut self,
        prim: PrimitiveId,
        attr_count: u8,
        opt_number: TileRank,
        mut evicted: impl FnMut(EvictedPrim),
    ) -> ReadResult {
        // OPT Numbers are a 12-bit hardware field (§III.C): saturate the
        // incoming rank exactly where hardware latches it.
        let opt_number = opt_number.saturated();
        self.sample_occupancy();
        if let Some(idx) = self.find(prim) {
            self.stats.record_read(true);
            let state = self.states[idx];
            if !state.is_locked() {
                self.locked_prims += 1;
            }
            self.set_state(idx, LineState::resident(true, state.is_dirty(), opt_number));
            self.stats.probes += 1;
            return ReadResult::Hit;
        }

        let Some(idx) = self.reserve(prim, attr_count, &mut evicted) else {
            self.stall_events += 1;
            return ReadResult::Stalled;
        };
        self.stats.record_read(false);
        let abp = self.alloc_chain(attr_count);
        self.install(
            idx,
            LineTag {
                prim,
                abp,
                attr_count,
            },
            LineState::resident(true, false, opt_number),
        );
        self.stats.probes += 1;
        ReadResult::Miss
    }

    /// Polygon List Builder write of a new primitive whose first use is
    /// the tile at rank `first_use` (§III.C.4). Each primitive an
    /// allocation displaces is handed to `evicted` as it leaves.
    pub fn write(
        &mut self,
        prim: PrimitiveId,
        attr_count: u8,
        first_use: TileRank,
        mut evicted: impl FnMut(EvictedPrim),
    ) -> WriteResult {
        // Same 12-bit saturation as the read path (§III.C).
        let first_use = first_use.saturated();
        self.sample_occupancy();
        debug_assert!(
            self.find(prim).is_none(),
            "each primitive is written exactly once"
        );
        let reserved = if self.cfg.write_bypass {
            self.reserve_farther(prim, attr_count, first_use, &mut evicted)
        } else {
            // Ablation: no bypass — allocate like a read (evict the
            // farthest-future unlocked line unconditionally), falling
            // back to bypass only when locks leave no room.
            self.reserve(prim, attr_count, &mut evicted)
        };
        let Some(idx) = reserved else {
            self.stats.bypasses += 1;
            return WriteResult::Bypassed;
        };
        self.stats.record_write(false); // every PLB write is a (compulsory) miss
        let abp = self.alloc_chain(attr_count);
        self.install(
            idx,
            LineTag {
                prim,
                abp,
                attr_count,
            },
            LineState::resident(false, true, first_use),
        );
        self.stats.probes += 1;
        WriteResult::Allocated
    }

    /// Rasterizer consumed `prim`'s attributes: unlock its line and
    /// attribute chain (§III.C.3 "Rasterizer Read"). Idempotent; a
    /// primitive already evicted (only possible when unlocked) is a no-op.
    pub fn unlock(&mut self, prim: PrimitiveId) {
        if let Some(idx) = self.find(prim) {
            let state = self.states[idx];
            if state.is_locked() {
                self.locked_prims -= 1;
                self.set_state(idx, state.unlocked());
            }
        }
    }

    /// Whether `prim` is resident.
    pub fn contains(&self, prim: PrimitiveId) -> bool {
        self.find(prim).is_some()
    }

    /// The stored OPT Number of a resident primitive.
    pub fn peek_opt(&self, prim: PrimitiveId) -> Option<TileRank> {
        self.find(prim).map(|i| self.states[i].opt())
    }

    /// End of frame: evicts every resident primitive (unlocking first),
    /// handing each to `visit` in line order for dirty write-back
    /// accounting.
    pub fn drain(&mut self, mut visit: impl FnMut(EvictedPrim)) {
        for i in 0..self.states.len() {
            let state = self.states[i];
            if state.is_valid() {
                if state.is_locked() {
                    // The index holds no key for a locked line, and the
                    // eviction below leaves none: no re-index between.
                    self.states[i] = state.unlocked();
                    self.locked_prims -= 1;
                }
                visit(self.evict_line(i));
            }
        }
        debug_assert_eq!(self.free.len(), self.cfg.ab_entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(ways: usize, pb_lines: usize, ab_entries: usize) -> AttributeCache {
        AttributeCache::new(AttributeCacheConfig {
            ways,
            pb_lines,
            ab_entries,
            indexing: Indexing::Xor,
            write_bypass: true,
        })
    }

    // Calls that ignore the primitives an access displaces pass `drop`
    // as the eviction visitor.

    /// A fully-associative 2-primitive cache as in the paper's worked
    /// example (Fig. 9/10): 2 lines, 6 attribute entries (3 each).
    fn example_cache() -> AttributeCache {
        cache(2, 2, 6)
    }

    #[test]
    fn write_allocates_until_full() {
        let mut c = example_cache();
        assert!(matches!(
            c.write(PrimitiveId(0), 3, TileRank(0), drop),
            WriteResult::Allocated
        ));
        assert!(matches!(
            c.write(PrimitiveId(1), 3, TileRank(1), drop),
            WriteResult::Allocated
        ));
        assert_eq!(c.resident_primitives(), 2);
        assert_eq!(c.free_entries(), 0);
    }

    /// The paper's example, write 3 (Fig. 10, OPT side): prim 2 has first
    /// use at tile 3 (rank 3); residents have OPT numbers 0 and 1 — all
    /// sooner — so the write is bypassed.
    #[test]
    fn write_bypasses_when_residents_are_nearer_future() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0), drop);
        c.write(PrimitiveId(1), 3, TileRank(1), drop);
        assert_eq!(
            c.write(PrimitiveId(2), 3, TileRank(3), drop),
            WriteResult::Bypassed
        );
        assert!(c.contains(PrimitiveId(0)));
        assert!(c.contains(PrimitiveId(1)));
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn write_evicts_farther_future_resident() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(5), drop);
        c.write(PrimitiveId(1), 3, TileRank(9), drop);
        // New primitive first used at rank 2: evict prim 1 (rank 9).
        let mut evicted = Vec::new();
        assert_eq!(
            c.write(PrimitiveId(2), 3, TileRank(2), |e| evicted.push(e)),
            WriteResult::Allocated
        );
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].prim, PrimitiveId(1));
        assert!(evicted[0].dirty);
        assert!(c.contains(PrimitiveId(2)));
        assert!(!c.contains(PrimitiveId(1)));
    }

    #[test]
    fn equal_opt_number_bypasses() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(4), drop);
        c.write(PrimitiveId(1), 3, TileRank(4), drop);
        assert_eq!(
            c.write(PrimitiveId(2), 3, TileRank(4), drop),
            WriteResult::Bypassed
        );
    }

    #[test]
    fn read_hit_locks_and_updates_opt() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0), drop);
        assert_eq!(
            c.read(PrimitiveId(0), 3, TileRank(3), drop),
            ReadResult::Hit
        );
        assert_eq!(c.peek_opt(PrimitiveId(0)), Some(TileRank(3)));
        assert_eq!(c.locked_primitives(), 1);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn read_miss_reserves_and_can_evict() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(7), drop);
        c.write(PrimitiveId(1), 3, TileRank(8), drop);
        // Reading prim 2 (next use rank 9): must evict one of the others.
        let mut evicted = Vec::new();
        assert_eq!(
            c.read(PrimitiveId(2), 3, TileRank(9), |e| evicted.push(e)),
            ReadResult::Miss
        );
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].prim, PrimitiveId(1)); // farthest (8)
        assert!(c.contains(PrimitiveId(2)));
    }

    #[test]
    fn locked_lines_are_not_victims() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(7), drop);
        c.write(PrimitiveId(1), 3, TileRank(8), drop);
        assert_eq!(
            c.read(PrimitiveId(0), 3, TileRank(9), drop),
            ReadResult::Hit
        ); // locks prim 0
        assert_eq!(
            c.read(PrimitiveId(1), 3, TileRank(9), drop),
            ReadResult::Hit
        ); // locks prim 1
           // Everything locked: a read miss must stall.
        assert_eq!(
            c.read(PrimitiveId(2), 3, TileRank(10), drop),
            ReadResult::Stalled
        );
        c.unlock(PrimitiveId(0));
        // Now prim 0 is evictable.
        assert!(matches!(
            c.read(PrimitiveId(2), 3, TileRank(10), drop),
            ReadResult::Miss
        ));
    }

    #[test]
    fn variable_attr_counts_share_the_buffer() {
        // 4 lines, 8 entries: a 5-attribute primitive plus a 3-attribute
        // one exactly fill the buffer.
        let mut c = cache(4, 4, 8);
        assert!(matches!(
            c.write(PrimitiveId(0), 5, TileRank(0), drop),
            WriteResult::Allocated
        ));
        assert!(matches!(
            c.write(PrimitiveId(1), 3, TileRank(1), drop),
            WriteResult::Allocated
        ));
        assert_eq!(c.free_entries(), 0);
        // A third one first-used later than both residents: bypass.
        assert_eq!(
            c.write(PrimitiveId(2), 1, TileRank(2), drop),
            WriteResult::Bypassed
        );
        // First-used EARLIER than prim 0 (rank 0)? No line is
        // strictly-later than rank 0 except... prim 1 (rank 1) is. Evicting
        // prim 1 frees 3 entries for a 2-attribute newcomer at rank 0.
        // (Write-path evictions only take strictly-farther lines.)
        let mut evicted = Vec::new();
        assert_eq!(
            c.write(PrimitiveId(3), 2, TileRank(0), |e| evicted.push(e)),
            WriteResult::Allocated
        );
        assert!(evicted.iter().any(|e| e.prim == PrimitiveId(1)));
    }

    #[test]
    fn free_list_never_leaks() {
        let mut c = cache(2, 8, 24);
        // Churn: write, read, evict many primitives with varied sizes.
        for i in 0..200u32 {
            let attrs = 1 + (i % 5) as u8;
            let _ = c.write(PrimitiveId(i), attrs, TileRank(i % 50), drop);
            if i % 3 == 0 {
                let _ = c.read(
                    PrimitiveId(i / 2),
                    1 + ((i / 2) % 5) as u8,
                    TileRank(i % 50 + 1),
                    drop,
                );
            }
            if i % 4 == 0 {
                c.unlock(PrimitiveId(i / 2));
            }
        }
        // Every entry is either free or owned by exactly one resident.
        let owned: usize = (0..c.states.len())
            .filter(|&i| c.states[i].is_valid())
            .map(|i| c.tags[i].attr_count as usize)
            .sum();
        assert_eq!(owned + c.free_entries(), c.config().ab_entries);
        let mut drained = Vec::new();
        c.drain(|e| drained.push(e));
        assert_eq!(c.free_entries(), c.config().ab_entries);
        assert_eq!(
            drained.iter().map(|e| e.attr_count as usize).sum::<usize>(),
            owned
        );
    }

    #[test]
    fn drain_reports_dirty_lines() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0), drop); // dirty
        c.read(PrimitiveId(1), 3, TileRank(1), drop); // miss fill: clean
        let mut drained = Vec::new();
        c.drain(|e| drained.push(e));
        assert_eq!(drained.len(), 2);
        let by_prim = |p: u32| drained.iter().find(|e| e.prim == PrimitiveId(p)).unwrap();
        assert!(by_prim(0).dirty);
        assert!(!by_prim(1).dirty);
    }

    #[test]
    fn probes_count_only_classified_accesses() {
        // Stalls and bypasses record neither hit nor miss — probes must
        // match the classified accesses exactly (the audit invariant).
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0), drop); // allocated (write miss)
        c.write(PrimitiveId(1), 3, TileRank(1), drop); // allocated
        c.write(PrimitiveId(2), 3, TileRank(3), drop); // bypassed: no probe
        assert_eq!(
            c.read(PrimitiveId(0), 3, TileRank(2), drop),
            ReadResult::Hit
        );
        assert_eq!(
            c.read(PrimitiveId(1), 3, TileRank(2), drop),
            ReadResult::Hit
        );
        assert_eq!(
            c.read(PrimitiveId(3), 3, TileRank(5), drop),
            ReadResult::Stalled
        ); // no probe
        let s = c.stats();
        assert_eq!(s.probes, s.hits() + s.misses());
        assert_eq!(s.probes, 4);
        assert_eq!(s.bypasses, 1);
        assert_eq!(c.stall_events(), 1);
    }

    #[test]
    fn dirty_evictions_count_writeback_blocks() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(5), drop); // dirty
        c.write(PrimitiveId(1), 3, TileRank(9), drop); // dirty
                                                       // Rank-2 write evicts prim 1 (3 dirty attribute blocks).
        c.write(PrimitiveId(2), 3, TileRank(2), drop);
        assert_eq!(c.writeback_blocks(), 3);
        // Clean (read-filled) evictions add nothing.
        c.read(PrimitiveId(0), 3, TileRank(3), drop);
        c.unlock(PrimitiveId(0));
        let mut dirty_attrs = 0;
        c.drain(|e| dirty_attrs += u64::from(e.dirty) * e.attr_count as u64);
        assert_eq!(c.writeback_blocks(), 3 + dirty_attrs);
    }

    #[test]
    fn opt_self_check_is_clean_under_churn() {
        let mut c = cache(2, 8, 24);
        for i in 0..500u32 {
            let attrs = 1 + (i % 5) as u8;
            let _ = c.write(PrimitiveId(i), attrs, TileRank(i % 40), drop);
            if i % 2 == 0 {
                let _ = c.read(
                    PrimitiveId(i / 2),
                    1 + ((i / 2) % 5) as u8,
                    TileRank(i % 40 + 1),
                    drop,
                );
            }
            if i % 3 == 0 {
                c.unlock(PrimitiveId(i / 3));
            }
        }
        assert_eq!(c.opt_violations(), 0);
    }

    #[test]
    fn opt_numbers_saturate_at_twelve_bits() {
        let mut c = example_cache();
        // A first use past the 12-bit field stores as 4095, exactly like
        // a NEVER rank: the two become indistinguishable, as in hardware.
        c.write(PrimitiveId(0), 3, TileRank(5000), drop);
        assert_eq!(c.peek_opt(PrimitiveId(0)), Some(TileRank(4095)));
        c.read(PrimitiveId(0), 3, TileRank::NEVER, drop);
        assert_eq!(c.peek_opt(PrimitiveId(0)), Some(TileRank(4095)));
        // Saturated residents still lose to nearer-future newcomers…
        c.unlock(PrimitiveId(0));
        c.write(PrimitiveId(1), 3, TileRank(4094), drop);
        let mut evicted = Vec::new();
        assert_eq!(
            c.write(PrimitiveId(2), 3, TileRank(10), |e| evicted.push(e)),
            WriteResult::Allocated
        );
        assert_eq!(
            evicted[0].prim,
            PrimitiveId(0),
            "farthest (4095) goes first"
        );
    }

    #[test]
    fn budget_constructor_is_consistent() {
        let cfg = AttributeCacheConfig::from_budget(48 << 10, 4);
        assert_eq!(cfg.ab_entries, 768);
        assert_eq!(cfg.pb_lines % 4, 0);
        assert!(cfg.num_sets() > 0);
        let c = AttributeCache::new(cfg);
        assert_eq!(c.free_entries(), 768);
    }

    /// Plain-scan oracle for the eligible-line index: recomputes from
    /// every line the cache-wide victim (the *last* valid unlocked line
    /// with the greatest OPT Number, as an ascending `max_by_key` picks
    /// it), the entries eligible lines hold and the entries they hold
    /// above `floor`, and asserts the index agrees. Also checks free-list
    /// conservation, the resident and locked counts and the OPT
    /// self-check. Returns how many eligible lines sit at the saturated
    /// maximum.
    fn assert_index_matches_scan(c: &AttributeCache, floor: TileRank) -> usize {
        let (mut victim, mut entries, mut above) = (None::<usize>, 0, 0);
        let (mut owned, mut resident, mut locked, mut saturated) = (0, 0, 0, 0);
        for (i, (state, tag)) in c.states.iter().zip(&c.tags).enumerate() {
            if !state.is_valid() {
                continue;
            }
            owned += tag.attr_count as usize;
            resident += 1;
            if state.is_locked() {
                locked += 1;
                continue;
            }
            entries += tag.attr_count as usize;
            if state.opt() > floor {
                above += tag.attr_count as usize;
            }
            if state.opt().0 == TileRank::OPT_MAX {
                saturated += 1;
            }
            if victim.is_none_or(|v| state.opt() >= c.states[v].opt()) {
                victim = Some(i);
            }
        }
        assert_eq!(c.eligible.victim(), victim, "cache-wide victim");
        assert_eq!(c.eligible.entries, entries, "eligible entries");
        assert_eq!(
            c.eligible.entries_above(floor),
            above,
            "eligible entries above {floor:?}"
        );
        assert_eq!(owned + c.free_entries(), c.config().ab_entries);
        assert_eq!(c.resident_primitives(), resident);
        assert_eq!(c.locked_primitives(), locked);
        assert_eq!(c.opt_violations(), 0);
        saturated
    }

    /// What the churn runs exercised.
    #[derive(Default)]
    struct Churned {
        stalls: u64,
        bypasses: u64,
        multi_evictions: u64,
        saturated_ties: u64,
    }

    /// Seeded random churn over `cfg`, checking the index against the
    /// scan oracle after every operation and adding what it exercised to
    /// `seen`: PLB writes of fresh primitives (30%), Tile Fetcher reads
    /// (which lock), Rasterizer unlocks (`unlock_share` of the
    /// operations: a small share leaves most lines locked, so reads
    /// stall) and a drain halfway and at the end. OPT Numbers cluster on
    /// a few near ranks and at and past the 12-bit maximum, `NEVER`
    /// included, so many lines tie at the saturated maximum.
    fn churn(
        cfg: AttributeCacheConfig,
        seed: u64,
        ops: usize,
        unlock_share: f64,
        seen: &mut Churned,
    ) {
        use tcor_common::SmallRng;
        let attrs = |p: PrimitiveId| 1 + (p.0.wrapping_mul(2_654_435_761) >> 29) as u8;
        let rank = |rng: &mut SmallRng| match rng.random_range(0..10u32) {
            0 => TileRank::NEVER,
            1 => TileRank(TileRank::OPT_MAX + rng.random_range(0..3u32)),
            2..=4 => TileRank(rng.random_range(0..TileRank::OPT_MAX + 1)),
            _ => TileRank(rng.random_range(0..16u32)),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut c = AttributeCache::new(cfg);
        let mut queued: Vec<PrimitiveId> = Vec::new();
        let mut next = 0u32;
        for op in 1..=ops {
            let r = rng.random_f64();
            if op % (ops / 2) == 0 {
                let owned = cfg.ab_entries - c.free_entries();
                let mut drained = 0;
                c.drain(|e| drained += e.attr_count as usize);
                assert_eq!(drained, owned);
                assert_eq!(c.free_entries(), cfg.ab_entries);
                queued.clear();
            } else if r < 0.3 || next == 0 {
                let prim = PrimitiveId(next);
                next += 1;
                let mut evicted = 0;
                match c.write(prim, attrs(prim), rank(&mut rng), |_| evicted += 1) {
                    WriteResult::Allocated => seen.multi_evictions += u64::from(evicted > 1),
                    WriteResult::Bypassed => seen.bypasses += 1,
                }
            } else if r < 1.0 - unlock_share {
                let prim = PrimitiveId(rng.random_range(0..next));
                let mut evicted = 0;
                match c.read(prim, attrs(prim), rank(&mut rng), |_| evicted += 1) {
                    ReadResult::Hit => queued.push(prim),
                    ReadResult::Miss => {
                        seen.multi_evictions += u64::from(evicted > 1);
                        queued.push(prim);
                    }
                    ReadResult::Stalled => seen.stalls += 1,
                }
            } else if !queued.is_empty() {
                let prim = queued.swap_remove(rng.random_range(0..queued.len()));
                c.unlock(prim);
            }
            let floor = rank(&mut rng).saturated();
            let saturated = assert_index_matches_scan(&c, floor);
            seen.saturated_ties += u64::from(saturated > 1);
        }
    }

    /// Every set-index function, with write bypass on and off (off sends
    /// writes down the read-style reservation of the D2 ablation).
    fn variants(cfg: AttributeCacheConfig) -> impl Iterator<Item = AttributeCacheConfig> {
        [Indexing::Xor, Indexing::Modulo]
            .into_iter()
            .flat_map(move |ix| [true, false].map(|b| cfg.with_indexing(ix).with_write_bypass(b)))
    }

    fn assert_churn_covered(seen: &Churned) {
        assert!(seen.stalls > 0, "no read stalled on locks");
        assert!(seen.bypasses > 0, "no write bypassed");
        assert!(seen.multi_evictions > 0, "no cache-wide eviction");
        assert!(seen.saturated_ties > 0, "no tie at the saturated maximum");
    }

    #[test]
    fn eligible_index_matches_a_full_scan_on_tiny_caches() {
        let mut seen = Churned::default();
        for (k, (ways, pb_lines, ab_entries)) in
            [(1, 1, 3), (2, 2, 6), (4, 8, 10), (3, 12, 20), (2, 16, 40)]
                .into_iter()
                .enumerate()
        {
            for (v, cfg) in variants(cache(ways, pb_lines, ab_entries).cfg).enumerate() {
                for unlock_share in [0.05, 0.3] {
                    churn(cfg, (k * 8 + v) as u64, 3000, unlock_share, &mut seen);
                }
            }
        }
        assert_churn_covered(&seen);
    }

    #[test]
    fn eligible_index_matches_a_full_scan_at_sweep_budgets() {
        // 48 and 112 KiB are the paper's Attribute Caches; 240 KiB is the
        // largest one in the sweep (its 256 KiB Tile Cache).
        for (k, kib) in [48u64, 112, 240].into_iter().enumerate() {
            let mut seen = Churned::default();
            for (v, cfg) in variants(AttributeCacheConfig::from_budget(kib << 10, 4)).enumerate() {
                churn(cfg, 100 + (k * 8 + v) as u64, 6000, 0.02, &mut seen);
            }
            assert_churn_covered(&seen);
        }
    }

    /// The cache-wide self-check's predicate as the four-clause scan it
    /// replaced: some other line is valid, unlocked, above `floor` and
    /// farther-future than `chosen`.
    fn farther_eligible_reference(
        states: &[LineState],
        chosen: usize,
        floor: Option<TileRank>,
    ) -> bool {
        let chosen_opt = states[chosen].opt();
        (0..states.len()).any(|i| {
            i != chosen
                && states[i].is_valid()
                && !states[i].is_locked()
                && floor.is_none_or(|f| states[i].opt() > f)
                && states[i].opt() > chosen_opt
        })
    }

    const EDGE_OPTS: [u32; 5] = [0, 1, 2, TileRank::OPT_MAX - 1, TileRank::OPT_MAX];
    const EDGE_FLOORS: [Option<TileRank>; 5] = [
        None,
        Some(TileRank(0)),
        Some(TileRank(1)),
        Some(TileRank(TileRank::OPT_MAX - 1)),
        Some(TileRank(TileRank::OPT_MAX)),
    ];

    /// A line word: `kind` 0 invalid (stale OPT bits kept, which the
    /// cache never leaves but the scan must ignore), 1 locked, 2
    /// eligible.
    fn word(kind: usize, dirty: bool, opt: u32) -> LineState {
        match kind {
            0 => LineState(opt as u16 | if dirty { LineState::DIRTY } else { 0 }),
            k => LineState::resident(k == 1, dirty, TileRank(opt)),
        }
    }

    #[test]
    fn word_accessors_round_trip() {
        for (lock, dirty, opt) in [
            (false, false, 0),
            (true, true, TileRank::OPT_MAX),
            (false, true, 7),
        ] {
            let w = LineState::resident(lock, dirty, TileRank(opt));
            assert!(w.is_valid());
            assert_eq!(
                (w.is_locked(), w.is_dirty(), w.opt()),
                (lock, dirty, TileRank(opt))
            );
            assert_eq!(w.is_eligible(), !lock);
            assert_eq!(
                w.unlocked(),
                LineState::resident(false, dirty, TileRank(opt))
            );
        }
        assert!(!LineState::INVALID.is_valid() && !LineState::INVALID.is_eligible());
    }

    #[test]
    fn self_check_scan_matches_the_reference_on_every_tiny_state() {
        let mut words = Vec::new();
        for kind in 0..3 {
            for dirty in [false, true] {
                for opt in EDGE_OPTS {
                    words.push(word(kind, dirty, opt));
                }
            }
        }
        let mut verdicts = [0u32; 2];
        for lines in 1..=3u32 {
            for code in 0..words.len().pow(lines) {
                let states: Vec<LineState> = (0..lines)
                    .scan(code, |rest, _| {
                        let w = words[*rest % words.len()];
                        *rest /= words.len();
                        Some(w)
                    })
                    .collect();
                for chosen in 0..states.len() {
                    for floor in EDGE_FLOORS {
                        let want = farther_eligible_reference(&states, chosen, floor);
                        assert_eq!(
                            farther_eligible(&states, chosen, floor),
                            want,
                            "{states:?}, chosen {chosen}, floor {floor:?}"
                        );
                        verdicts[usize::from(want)] += 1;
                    }
                }
            }
        }
        assert!(verdicts.iter().all(|&n| n > 0), "both verdicts reached");
    }

    #[test]
    fn self_check_scan_matches_the_reference_at_sweep_sizes() {
        use tcor_common::SmallRng;
        let mut rng = SmallRng::seed_from_u64(23);
        let mut verdicts = [0u32; 2];
        for lines in [768usize, 1_792, 3_840] {
            for trial in 0..60 {
                let opt = |rng: &mut SmallRng| match rng.random_range(0..4u32) {
                    0 => TileRank::OPT_MAX,
                    1 => rng.random_range(0..TileRank::OPT_MAX + 1),
                    _ => rng.random_range(0..64u32),
                };
                let states: Vec<LineState> = (0..lines)
                    .map(|_| {
                        let kind = rng.random_range(0..3usize);
                        let dirty = rng.random_range(0..2u32) == 1;
                        let o = opt(&mut rng);
                        if kind == 0 {
                            LineState::INVALID
                        } else {
                            word(kind, dirty, o)
                        }
                    })
                    .collect();
                // Half the trials choose the farthest eligible line (the
                // index's victim), half any line.
                let chosen = if trial % 2 == 0 {
                    (0..lines)
                        .filter(|&i| states[i].is_eligible())
                        .max_by_key(|&i| states[i].opt())
                        .unwrap_or(0)
                } else {
                    rng.random_range(0..lines)
                };
                let floor = match trial % 3 {
                    0 => None,
                    _ => Some(TileRank(opt(&mut rng))),
                };
                let want = farther_eligible_reference(&states, chosen, floor);
                assert_eq!(
                    farther_eligible(&states, chosen, floor),
                    want,
                    "{lines} lines, trial {trial}"
                );
                verdicts[usize::from(want)] += 1;
            }
        }
        assert!(verdicts.iter().all(|&n| n > 0), "both verdicts reached");
    }

    /// The self-check fires on a non-maximal eligible victim, and on
    /// nothing else: not on locked lines with greater OPT Numbers, not on
    /// ties, and not on lines at or below a write's floor.
    #[test]
    fn self_check_counts_exactly_the_non_maximal_victims() {
        let mut c = cache(4, 4, 16);
        for (p, opt) in [(0, 2), (1, 6), (2, 9)] {
            assert!(matches!(
                c.write(PrimitiveId(p), 1, TileRank(opt), drop),
                WriteResult::Allocated
            ));
        }
        let line = |c: &AttributeCache, p: u32| c.find(PrimitiveId(p)).expect("resident");
        let audit = |c: &mut AttributeCache, p: u32, floor: Option<u32>| {
            let before = c.opt_violations();
            c.audit_global_victim(line(c, p), floor.map(TileRank));
            c.opt_violations() - before
        };
        // Prims 1 (6) and 2 (9) are farther-future than prim 0 (2).
        assert_eq!(audit(&mut c, 0, None), 1);
        assert_eq!(audit(&mut c, 1, None), 1);
        assert_eq!(audit(&mut c, 2, None), 0, "the farthest line");
        // A write's floor: only lines strictly above it count.
        assert_eq!(audit(&mut c, 0, Some(9)), 0, "6 and 9 are at or below 9");
        assert_eq!(audit(&mut c, 0, Some(6)), 1, "9 is above 6");
        assert_eq!(audit(&mut c, 0, Some(TileRank::OPT_MAX)), 0);
        // A tie with the victim is not farther.
        assert!(matches!(
            c.write(PrimitiveId(3), 1, TileRank(9), drop),
            WriteResult::Allocated
        ));
        assert_eq!(audit(&mut c, 2, None), 0, "9 ties 9");
        assert_eq!(audit(&mut c, 3, None), 0, "9 ties 9");
        // Locked lines with greater OPT Numbers are not candidates.
        for p in [1, 2, 3] {
            assert_eq!(
                c.read(PrimitiveId(p), 1, TileRank(9), drop),
                ReadResult::Hit
            );
        }
        assert_eq!(audit(&mut c, 0, None), 0, "the others are locked");
        c.unlock(PrimitiveId(2));
        assert_eq!(audit(&mut c, 0, None), 1, "prim 2 is eligible again");
        assert_eq!(c.opt_violations(), 4);
    }
}
