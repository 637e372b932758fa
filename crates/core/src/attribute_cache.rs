//! The Attribute Cache (Fig. 8): a Primitive Buffer over an Attribute
//! Buffer, with OPT replacement and write bypass.
//!
//! * The **Primitive Buffer** is set-associative over primitive IDs
//!   (XOR-based set index \[12\]). Each line: valid / lock / dirty bits,
//!   tag, the OPT Number, and the Attribute Buffer Pointer (ABP) to the
//!   first attribute.
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

use tcor_cache::Indexing;
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadResult {
    /// Present: line and first attribute locked, OPT Number updated, ABP
    /// pushed to the output queue.
    Hit,
    /// Absent: a line was reserved (evicting `evicted`, possibly several
    /// to free Attribute Buffer space); the driver fetches the attribute
    /// blocks from the L2.
    Miss {
        /// Primitives displaced to make room.
        evicted: Vec<EvictedPrim>,
    },
    /// No unlocked victim (or not enough unlockable space): the fetcher
    /// must wait for the Rasterizer to consume queued primitives and
    /// retry.
    Stalled,
}

/// Outcome of a Polygon List Builder write (§III.C.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteResult {
    /// Stored in the Attribute Cache (dirty), possibly evicting
    /// farther-future primitives.
    Allocated {
        /// Primitives displaced to make room.
        evicted: Vec<EvictedPrim>,
    },
    /// Every unlocked candidate will be used sooner than (or at the same
    /// tile as) this primitive: the write goes straight to the L2.
    Bypassed,
}

#[derive(Clone, Copy, Debug, Default)]
struct PbLine {
    valid: bool,
    lock: bool,
    dirty: bool,
    prim: PrimitiveId,
    opt: TileRank,
    abp: u32,
    attr_count: u8,
}

impl PbLine {
    /// Whether OPT eviction may pick this line: valid and unlocked.
    fn eligible(&self) -> bool {
        self.valid && !self.lock
    }
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

    /// Re-indexes line `idx` from its current state.
    fn update(&mut self, idx: usize, line: &PbLine) {
        let key = if line.eligible() {
            debug_assert!(
                line.opt.0 <= TileRank::OPT_MAX,
                "stored OPT Numbers are saturated"
            );
            ((u64::from(line.opt.0) + 1) << 40) | ((idx as u64) << 8) | u64::from(line.attr_count)
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
            self.tally(line.opt.0, line.attr_count as usize, true);
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
    lines: Vec<PbLine>,
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
            lines: vec![PbLine::default(); cfg.pb_lines],
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
        self.cfg
            .indexing
            .set_of(prim.0 as u64, self.cfg.num_sets() as u64) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.cfg.ways..(set + 1) * self.cfg.ways
    }

    fn find(&self, prim: PrimitiveId) -> Option<usize> {
        let set = self.set_of(prim);
        self.set_range(set)
            .find(|&i| self.lines[i].valid && self.lines[i].prim == prim)
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
        let line = self.lines[idx];
        debug_assert!(line.eligible());
        if line.dirty {
            self.wb_blocks += line.attr_count as u64;
        }
        self.free_chain(line.abp);
        self.lines[idx] = PbLine::default();
        self.eligible.update(idx, &self.lines[idx]);
        self.resident -= 1;
        EvictedPrim {
            prim: line.prim,
            dirty: line.dirty,
            attr_count: line.attr_count,
        }
    }

    /// Makes `line` (its attribute chain already allocated) resident at
    /// the reserved slot `idx`.
    fn install(&mut self, idx: usize, line: PbLine) {
        self.lines[idx] = line;
        self.eligible.update(idx, &line);
        self.resident += 1;
        if line.lock {
            self.locked_prims += 1;
        }
    }

    /// The unlocked line in `set` with the greatest OPT Number, if any.
    fn best_victim(&self, set: usize) -> Option<usize> {
        self.set_range(set)
            .filter(|&i| self.lines[i].eligible())
            .max_by_key(|&i| self.lines[i].opt)
    }

    /// OPT self-check over the set-scoped eviction: counts a violation if
    /// an unlocked survivor of `set` will be used farther in the future
    /// than the chosen victim. Re-derived with an independent scan, not
    /// the selection code — call *before* `evict_line`.
    fn audit_set_victim(&mut self, set: usize, chosen: usize) {
        let chosen_opt = self.lines[chosen].opt;
        let violated = self.set_range(set).any(|i| {
            i != chosen
                && self.lines[i].valid
                && !self.lines[i].lock
                && self.lines[i].opt > chosen_opt
        });
        if violated {
            self.opt_violations += 1;
        }
    }

    /// OPT self-check over a cache-wide eviction. `floor` restricts the
    /// eligible candidates (the write path may only evict lines strictly
    /// farther-future than the written primitive). A full scan of the
    /// Primitive Buffer, independent of the eligible-line index that
    /// chose the victim, on every cache-wide eviction.
    fn audit_global_victim(&mut self, chosen: usize, floor: Option<TileRank>) {
        let chosen_opt = self.lines[chosen].opt;
        let violated = (0..self.lines.len()).any(|i| {
            i != chosen
                && self.lines[i].valid
                && !self.lines[i].lock
                && floor.is_none_or(|f| self.lines[i].opt > f)
                && self.lines[i].opt > chosen_opt
        });
        if violated {
            self.opt_violations += 1;
        }
    }

    /// Frees Attribute Buffer space by evicting unlocked primitives
    /// cache-wide in OPT order until `needed` entries are free. `floor`
    /// restricts the victims to lines strictly farther-future than it
    /// (the write path). The caller has checked that the eligible lines
    /// hold enough entries.
    fn make_space(
        &mut self,
        needed: usize,
        floor: Option<TileRank>,
        evicted: &mut Vec<EvictedPrim>,
    ) {
        while self.free.len() < needed {
            let victim = self
                .eligible
                .victim()
                .filter(|&i| floor.is_none_or(|f| self.lines[i].opt > f))
                .expect("feasibility checked");
            self.audit_global_victim(victim, floor);
            evicted.push(self.evict_line(victim));
        }
    }

    /// Reserves a Primitive Buffer line for `prim` the way a read miss
    /// does: an empty line of its set, else the set's farthest-future
    /// unlocked line, then cache-wide OPT evictions until `attr_count`
    /// attributes fit (§III.C.3 Miss: "In case of a dearth of space, more
    /// primitives are evicted using OPT"). Feasibility is checked *before*
    /// mutating, so `None` (locks make it impossible) changes nothing.
    fn reserve(&mut self, prim: PrimitiveId, attr_count: u8) -> Option<(usize, Vec<EvictedPrim>)> {
        let set = self.set_of(prim);
        let empty = self.set_range(set).find(|&i| !self.lines[i].valid);
        let victim = self.best_victim(set);
        if empty.is_none() && victim.is_none() {
            return None; // every line in the set is locked
        }
        if self.free.len() + self.eligible.entries < attr_count as usize {
            return None; // locked primitives hold the buffer
        }
        let mut evicted = Vec::new();
        let idx = match empty {
            Some(i) => i,
            None => {
                let v = victim.expect("checked above");
                self.audit_set_victim(set, v);
                evicted.push(self.evict_line(v));
                v
            }
        };
        self.make_space(attr_count as usize, None, &mut evicted);
        Some((idx, evicted))
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
    ) -> Option<(usize, Vec<EvictedPrim>)> {
        // Free entries plus entries held by unlocked primitives that are
        // strictly farther-future than this write.
        if self.free.len() + self.eligible.entries_above(first_use) < attr_count as usize {
            return None;
        }
        let set = self.set_of(prim);
        let mut evicted = Vec::new();
        let idx = match self.set_range(set).find(|&i| !self.lines[i].valid) {
            Some(i) => i,
            None => {
                let v = self
                    .best_victim(set)
                    .filter(|&v| self.lines[v].opt > first_use)?;
                self.audit_set_victim(set, v);
                evicted.push(self.evict_line(v));
                v
            }
        };
        self.make_space(attr_count as usize, Some(first_use), &mut evicted);
        Some((idx, evicted))
    }

    /// Tile Fetcher read of `prim` (which has `attr_count` attributes) on
    /// behalf of the tile whose PMD supplied `opt_number` (§III.C.3).
    ///
    /// On a hit the line is locked and its OPT Number updated from the
    /// request. On a miss a line is reserved (and locked): the caller
    /// fetches the attribute blocks from the L2 and, when they arrive,
    /// the primitive is resident. `Stalled` means every candidate is
    /// locked; the caller must let the Rasterizer drain and retry.
    pub fn read(&mut self, prim: PrimitiveId, attr_count: u8, opt_number: TileRank) -> ReadResult {
        // OPT Numbers are a 12-bit hardware field (§III.C): saturate the
        // incoming rank exactly where hardware latches it.
        let opt_number = opt_number.saturated();
        self.sample_occupancy();
        if let Some(idx) = self.find(prim) {
            self.stats.record_read(true);
            let line = &mut self.lines[idx];
            if !line.lock {
                line.lock = true;
                self.locked_prims += 1;
            }
            line.opt = opt_number;
            self.eligible.update(idx, &self.lines[idx]);
            self.stats.probes += 1;
            return ReadResult::Hit;
        }

        let Some((idx, evicted)) = self.reserve(prim, attr_count) else {
            self.stall_events += 1;
            return ReadResult::Stalled;
        };
        self.stats.record_read(false);
        let abp = self.alloc_chain(attr_count);
        self.install(
            idx,
            PbLine {
                valid: true,
                lock: true,
                dirty: false,
                prim,
                opt: opt_number,
                abp,
                attr_count,
            },
        );
        self.stats.probes += 1;
        ReadResult::Miss { evicted }
    }

    /// Polygon List Builder write of a new primitive whose first use is
    /// the tile at rank `first_use` (§III.C.4).
    pub fn write(&mut self, prim: PrimitiveId, attr_count: u8, first_use: TileRank) -> WriteResult {
        // Same 12-bit saturation as the read path (§III.C).
        let first_use = first_use.saturated();
        self.sample_occupancy();
        debug_assert!(
            self.find(prim).is_none(),
            "each primitive is written exactly once"
        );
        let reserved = if self.cfg.write_bypass {
            self.reserve_farther(prim, attr_count, first_use)
        } else {
            // Ablation: no bypass — allocate like a read (evict the
            // farthest-future unlocked line unconditionally), falling
            // back to bypass only when locks leave no room.
            self.reserve(prim, attr_count)
        };
        let Some((idx, evicted)) = reserved else {
            self.stats.bypasses += 1;
            return WriteResult::Bypassed;
        };
        self.stats.record_write(false); // every PLB write is a (compulsory) miss
        let abp = self.alloc_chain(attr_count);
        self.install(
            idx,
            PbLine {
                valid: true,
                lock: false,
                dirty: true,
                prim,
                opt: first_use,
                abp,
                attr_count,
            },
        );
        self.stats.probes += 1;
        WriteResult::Allocated { evicted }
    }

    /// Rasterizer consumed `prim`'s attributes: unlock its line and
    /// attribute chain (§III.C.3 "Rasterizer Read"). Idempotent; a
    /// primitive already evicted (only possible when unlocked) is a no-op.
    pub fn unlock(&mut self, prim: PrimitiveId) {
        if let Some(idx) = self.find(prim) {
            if self.lines[idx].lock {
                self.lines[idx].lock = false;
                self.locked_prims -= 1;
                self.eligible.update(idx, &self.lines[idx]);
            }
        }
    }

    /// Whether `prim` is resident.
    pub fn contains(&self, prim: PrimitiveId) -> bool {
        self.find(prim).is_some()
    }

    /// The stored OPT Number of a resident primitive.
    pub fn peek_opt(&self, prim: PrimitiveId) -> Option<TileRank> {
        self.find(prim).map(|i| self.lines[i].opt)
    }

    /// End of frame: evicts every resident primitive (unlocking first),
    /// returning them for dirty write-back accounting.
    pub fn drain(&mut self) -> Vec<EvictedPrim> {
        let mut out = Vec::new();
        for i in 0..self.lines.len() {
            if self.lines[i].valid {
                if self.lines[i].lock {
                    self.lines[i].lock = false;
                    self.locked_prims -= 1;
                }
                out.push(self.evict_line(i));
            }
        }
        debug_assert_eq!(self.free.len(), self.cfg.ab_entries);
        out
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

    /// A fully-associative 2-primitive cache as in the paper's worked
    /// example (Fig. 9/10): 2 lines, 6 attribute entries (3 each).
    fn example_cache() -> AttributeCache {
        cache(2, 2, 6)
    }

    #[test]
    fn write_allocates_until_full() {
        let mut c = example_cache();
        assert!(matches!(
            c.write(PrimitiveId(0), 3, TileRank(0)),
            WriteResult::Allocated { .. }
        ));
        assert!(matches!(
            c.write(PrimitiveId(1), 3, TileRank(1)),
            WriteResult::Allocated { .. }
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
        c.write(PrimitiveId(0), 3, TileRank(0));
        c.write(PrimitiveId(1), 3, TileRank(1));
        assert_eq!(
            c.write(PrimitiveId(2), 3, TileRank(3)),
            WriteResult::Bypassed
        );
        assert!(c.contains(PrimitiveId(0)));
        assert!(c.contains(PrimitiveId(1)));
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn write_evicts_farther_future_resident() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(5));
        c.write(PrimitiveId(1), 3, TileRank(9));
        // New primitive first used at rank 2: evict prim 1 (rank 9).
        match c.write(PrimitiveId(2), 3, TileRank(2)) {
            WriteResult::Allocated { evicted } => {
                assert_eq!(evicted.len(), 1);
                assert_eq!(evicted[0].prim, PrimitiveId(1));
                assert!(evicted[0].dirty);
            }
            other => panic!("expected allocation, got {other:?}"),
        }
        assert!(c.contains(PrimitiveId(2)));
        assert!(!c.contains(PrimitiveId(1)));
    }

    #[test]
    fn equal_opt_number_bypasses() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(4));
        c.write(PrimitiveId(1), 3, TileRank(4));
        assert_eq!(
            c.write(PrimitiveId(2), 3, TileRank(4)),
            WriteResult::Bypassed
        );
    }

    #[test]
    fn read_hit_locks_and_updates_opt() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0));
        assert_eq!(c.read(PrimitiveId(0), 3, TileRank(3)), ReadResult::Hit);
        assert_eq!(c.peek_opt(PrimitiveId(0)), Some(TileRank(3)));
        assert_eq!(c.locked_primitives(), 1);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn read_miss_reserves_and_can_evict() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(7));
        c.write(PrimitiveId(1), 3, TileRank(8));
        // Reading prim 2 (next use rank 9): must evict one of the others.
        match c.read(PrimitiveId(2), 3, TileRank(9)) {
            ReadResult::Miss { evicted } => {
                assert_eq!(evicted.len(), 1);
                assert_eq!(evicted[0].prim, PrimitiveId(1)); // farthest (8)
            }
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(c.contains(PrimitiveId(2)));
    }

    #[test]
    fn locked_lines_are_not_victims() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(7));
        c.write(PrimitiveId(1), 3, TileRank(8));
        assert_eq!(c.read(PrimitiveId(0), 3, TileRank(9)), ReadResult::Hit); // locks prim 0
        assert_eq!(c.read(PrimitiveId(1), 3, TileRank(9)), ReadResult::Hit); // locks prim 1
                                                                             // Everything locked: a read miss must stall.
        assert_eq!(c.read(PrimitiveId(2), 3, TileRank(10)), ReadResult::Stalled);
        c.unlock(PrimitiveId(0));
        // Now prim 0 is evictable.
        assert!(matches!(
            c.read(PrimitiveId(2), 3, TileRank(10)),
            ReadResult::Miss { .. }
        ));
    }

    #[test]
    fn variable_attr_counts_share_the_buffer() {
        // 4 lines, 8 entries: a 5-attribute primitive plus a 3-attribute
        // one exactly fill the buffer.
        let mut c = cache(4, 4, 8);
        assert!(matches!(
            c.write(PrimitiveId(0), 5, TileRank(0)),
            WriteResult::Allocated { .. }
        ));
        assert!(matches!(
            c.write(PrimitiveId(1), 3, TileRank(1)),
            WriteResult::Allocated { .. }
        ));
        assert_eq!(c.free_entries(), 0);
        // A third one first-used later than both residents: bypass.
        assert_eq!(
            c.write(PrimitiveId(2), 1, TileRank(2)),
            WriteResult::Bypassed
        );
        // First-used EARLIER than prim 0 (rank 0)? No line is
        // strictly-later than rank 0 except... prim 1 (rank 1) is. Evicting
        // prim 1 frees 3 entries for a 2-attribute newcomer at rank 0.
        // (Write-path evictions only take strictly-farther lines.)
        match c.write(PrimitiveId(3), 2, TileRank(0)) {
            WriteResult::Allocated { evicted } => {
                assert!(evicted.iter().any(|e| e.prim == PrimitiveId(1)));
            }
            other => panic!("expected allocation, got {other:?}"),
        }
    }

    #[test]
    fn free_list_never_leaks() {
        let mut c = cache(2, 8, 24);
        // Churn: write, read, evict many primitives with varied sizes.
        for i in 0..200u32 {
            let attrs = 1 + (i % 5) as u8;
            let _ = c.write(PrimitiveId(i), attrs, TileRank(i % 50));
            if i % 3 == 0 {
                let _ = c.read(
                    PrimitiveId(i / 2),
                    1 + ((i / 2) % 5) as u8,
                    TileRank(i % 50 + 1),
                );
            }
            if i % 4 == 0 {
                c.unlock(PrimitiveId(i / 2));
            }
        }
        // Every entry is either free or owned by exactly one resident.
        let owned: usize = (0..c.lines.len())
            .filter(|&i| c.lines[i].valid)
            .map(|i| c.lines[i].attr_count as usize)
            .sum();
        assert_eq!(owned + c.free_entries(), c.config().ab_entries);
        let drained = c.drain();
        assert_eq!(c.free_entries(), c.config().ab_entries);
        assert_eq!(
            drained.iter().map(|e| e.attr_count as usize).sum::<usize>(),
            owned
        );
    }

    #[test]
    fn drain_reports_dirty_lines() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0)); // dirty
        c.read(PrimitiveId(1), 3, TileRank(1)); // miss fill: clean
        let drained = c.drain();
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
        c.write(PrimitiveId(0), 3, TileRank(0)); // allocated (write miss)
        c.write(PrimitiveId(1), 3, TileRank(1)); // allocated
        c.write(PrimitiveId(2), 3, TileRank(3)); // bypassed: no probe
        assert_eq!(c.read(PrimitiveId(0), 3, TileRank(2)), ReadResult::Hit);
        assert_eq!(c.read(PrimitiveId(1), 3, TileRank(2)), ReadResult::Hit);
        assert_eq!(c.read(PrimitiveId(3), 3, TileRank(5)), ReadResult::Stalled); // no probe
        let s = c.stats();
        assert_eq!(s.probes, s.hits() + s.misses());
        assert_eq!(s.probes, 4);
        assert_eq!(s.bypasses, 1);
        assert_eq!(c.stall_events(), 1);
    }

    #[test]
    fn dirty_evictions_count_writeback_blocks() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(5)); // dirty
        c.write(PrimitiveId(1), 3, TileRank(9)); // dirty
                                                 // Rank-2 write evicts prim 1 (3 dirty attribute blocks).
        c.write(PrimitiveId(2), 3, TileRank(2));
        assert_eq!(c.writeback_blocks(), 3);
        // Clean (read-filled) evictions add nothing.
        c.read(PrimitiveId(0), 3, TileRank(3));
        c.unlock(PrimitiveId(0));
        let drained = c.drain();
        let dirty_attrs: u64 = drained
            .iter()
            .filter(|e| e.dirty)
            .map(|e| e.attr_count as u64)
            .sum();
        assert_eq!(c.writeback_blocks(), 3 + dirty_attrs);
    }

    #[test]
    fn opt_self_check_is_clean_under_churn() {
        let mut c = cache(2, 8, 24);
        for i in 0..500u32 {
            let attrs = 1 + (i % 5) as u8;
            let _ = c.write(PrimitiveId(i), attrs, TileRank(i % 40));
            if i % 2 == 0 {
                let _ = c.read(
                    PrimitiveId(i / 2),
                    1 + ((i / 2) % 5) as u8,
                    TileRank(i % 40 + 1),
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
        c.write(PrimitiveId(0), 3, TileRank(5000));
        assert_eq!(c.peek_opt(PrimitiveId(0)), Some(TileRank(4095)));
        c.read(PrimitiveId(0), 3, TileRank::NEVER);
        assert_eq!(c.peek_opt(PrimitiveId(0)), Some(TileRank(4095)));
        // Saturated residents still lose to nearer-future newcomers…
        c.unlock(PrimitiveId(0));
        c.write(PrimitiveId(1), 3, TileRank(4094));
        match c.write(PrimitiveId(2), 3, TileRank(10)) {
            WriteResult::Allocated { evicted } => {
                assert_eq!(
                    evicted[0].prim,
                    PrimitiveId(0),
                    "farthest (4095) goes first"
                );
            }
            other => panic!("expected allocation, got {other:?}"),
        }
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
        for (i, line) in c.lines.iter().enumerate() {
            if !line.valid {
                continue;
            }
            owned += line.attr_count as usize;
            resident += 1;
            if line.lock {
                locked += 1;
                continue;
            }
            entries += line.attr_count as usize;
            if line.opt > floor {
                above += line.attr_count as usize;
            }
            if line.opt.0 == TileRank::OPT_MAX {
                saturated += 1;
            }
            if victim.is_none_or(|v| line.opt >= c.lines[v].opt) {
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
                let drained = c.drain();
                assert_eq!(
                    drained.iter().map(|e| e.attr_count as usize).sum::<usize>(),
                    owned
                );
                assert_eq!(c.free_entries(), cfg.ab_entries);
                queued.clear();
            } else if r < 0.3 || next == 0 {
                let prim = PrimitiveId(next);
                next += 1;
                match c.write(prim, attrs(prim), rank(&mut rng)) {
                    WriteResult::Allocated { evicted } => {
                        seen.multi_evictions += u64::from(evicted.len() > 1);
                    }
                    WriteResult::Bypassed => seen.bypasses += 1,
                }
            } else if r < 1.0 - unlock_share {
                let prim = PrimitiveId(rng.random_range(0..next));
                match c.read(prim, attrs(prim), rank(&mut rng)) {
                    ReadResult::Hit => queued.push(prim),
                    ReadResult::Miss { evicted } => {
                        seen.multi_evictions += u64::from(evicted.len() > 1);
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
}
