//! The shared L2 + main memory, wired together with the completed-tile
//! watermark.

use crate::dram::MainMemory;
use crate::l2::{DirtyLine, L2Cache};
use crate::pbtag::{PbKind, PbTag};
use crate::traffic::TrafficMatrix;
use tcor_cache::AccessKind;
use tcor_common::{AccessStats, BlockAddr, CacheParams, MemoryParams};
use tcor_pbuf::Region;

/// Which L2 behaviour the hierarchy models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2Mode {
    /// Baseline: LRU, no PB tags, every dirty eviction written back.
    Baseline,
    /// TCOR: dead-line-priority replacement; dead dirty lines dropped
    /// without write-back (§III.D).
    TcorEnhanced,
}

/// The memory system below the L1 caches.
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    mode: L2Mode,
    l2: L2Cache,
    mem: MainMemory,
    /// Tiles the Tile Fetcher has completed this frame.
    watermark: u64,
    traffic: TrafficMatrix,
    dead_drops: u64,
    /// Blocks actually written back to DRAM at the two disposal sites
    /// (eviction and end-of-frame drain). Counted independently of the L2
    /// kernel's `writebacks` stat so the audit can check
    /// `l2 writebacks == wb_blocks + dead_drops`.
    wb_blocks: u64,
    /// Parameter-Buffer blocks filled from DRAM on L2 read misses —
    /// counted at the fill site, independently of the DRAM model's own
    /// traffic matrix, so the audit can cross-check PB bytes from DRAM.
    pb_fill_blocks: u64,
    l2_latency: u32,
}

impl MemoryHierarchy {
    /// Creates the hierarchy from cache/memory parameters.
    pub fn new(l2_params: CacheParams, mem_params: MemoryParams, mode: L2Mode) -> Self {
        MemoryHierarchy {
            mode,
            l2: L2Cache::new(l2_params, mode),
            mem: MainMemory::new(mem_params),
            watermark: 0,
            traffic: TrafficMatrix::default(),
            dead_drops: 0,
            wb_blocks: 0,
            pb_fill_blocks: 0,
            l2_latency: l2_params.latency,
        }
    }

    /// An access from an L1 (read miss, write-back, write miss or TCOR
    /// bypass) arriving at the L2. Returns the total latency in cycles
    /// (L2 hit latency, plus main-memory latency on an L2 read miss).
    ///
    /// `tag` classifies the block for the dead-line machinery; pass
    /// [`PbTag::NONE`] for non-Parameter-Buffer data.
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind, tag: PbTag) -> u32 {
        let region = Region::of_block(block);
        match kind {
            AccessKind::Read => self.traffic.record_l2_read(region),
            AccessKind::Write => self.traffic.record_l2_write(region),
        }
        let write = kind.is_write();
        let (hit, evicted) = self.l2.access(block, write, tag, self.watermark);
        let mut latency = self.l2_latency;
        if !hit && !write {
            // Read miss: fill from main memory. (Write misses allocate
            // without a fill read: PB writes are full-line.) The fill
            // read goes before the victim's write-back: the two meet
            // the DRAM's open rows in this order.
            latency += self.mem.read(block);
            if region.is_parameter_buffer() {
                self.pb_fill_blocks += 1;
            }
        }
        if let Some(DirtyLine { block, tag }) = evicted {
            if self.mode == L2Mode::TcorEnhanced && tag.is_dead(self.watermark) {
                self.dead_drops += 1;
            } else {
                self.mem.write(block);
                self.wb_blocks += 1;
            }
        }
        latency
    }

    /// A run of `n` consecutive block writes from `first` that bypasses
    /// the L2 entirely (the Color Buffer flush of Fig. 2 goes straight
    /// to main memory).
    pub fn write_direct(&mut self, first: BlockAddr, n: u64) {
        self.mem.write_run(first, n);
    }

    /// Warm-start: installs a clean line as left over from the previous
    /// frame (the Parameter Buffer is rebuilt at the same addresses every
    /// frame, so in steady state the L2 holds much of last frame's PB).
    /// No statistics or traffic are recorded.
    pub fn warm_fill(&mut self, block: BlockAddr, tag: PbTag) {
        self.l2.fill_clean(block, tag, self.watermark);
    }

    /// Tile Fetcher completion signal (§III.D.1): advances the
    /// completed-tiles watermark.
    pub fn tile_done(&mut self) {
        self.watermark += 1;
    }

    /// Completed-tile count.
    pub fn completed_tiles(&self) -> u64 {
        self.watermark
    }

    /// Frame boundary for steady-state (multi-frame session) runs: the
    /// L2 keeps its contents — next frame's Parameter Buffer writes will
    /// overwrite the stale lines in place — and only the completed-tile
    /// watermark resets.
    pub fn frame_boundary(&mut self) {
        self.watermark = 0;
    }

    /// Zeroes every counter (L2 stats, traffic matrices, dead drops)
    /// while keeping cache and DRAM state — call at the start of a
    /// steady-state frame so the report covers exactly that frame.
    pub fn reset_counters(&mut self) {
        self.l2.reset_stats();
        self.traffic = TrafficMatrix::default();
        self.mem.reset_counters();
        self.dead_drops = 0;
        self.wb_blocks = 0;
        self.pb_fill_blocks = 0;
    }

    /// End of frame: every remaining dirty L2 line is disposed of — the
    /// Parameter Buffer is dead in its entirety (it is rebuilt next
    /// frame), so TCOR drops PB lines while the baseline writes them back.
    /// Lines leave in set then way order, so the write-backs meet DRAM's
    /// open rows in that order. Resets the watermark for the next frame.
    pub fn end_frame(&mut self) {
        let MemoryHierarchy {
            l2,
            mem,
            mode,
            dead_drops,
            wb_blocks,
            ..
        } = self;
        l2.drain(|DirtyLine { block, tag }| {
            if *mode == L2Mode::TcorEnhanced && tag.kind != PbKind::None {
                *dead_drops += 1;
            } else {
                mem.write(block);
                *wb_blocks += 1;
            }
        });
        self.watermark = 0;
    }

    /// L2 hit/miss statistics.
    pub fn l2_stats(&self) -> &AccessStats {
        self.l2.stats()
    }

    /// Traffic arriving at the L2, per region.
    pub fn l2_traffic(&self) -> &TrafficMatrix {
        &self.traffic
    }

    /// Traffic reaching main memory, per region.
    pub fn mm_traffic(&self) -> &TrafficMatrix {
        self.mem.traffic()
    }

    /// Dirty lines dropped dead without write-back (TCOR only).
    pub fn dead_drops(&self) -> u64 {
        self.dead_drops
    }

    /// Blocks written back to DRAM, counted at the disposal sites.
    pub fn writeback_blocks(&self) -> u64 {
        self.wb_blocks
    }

    /// Parameter-Buffer blocks filled from DRAM, counted at the fill site.
    pub fn pb_fill_blocks(&self) -> u64 {
        self.pb_fill_blocks
    }

    /// The DRAM model, whose latency and access totals the L2 oracle
    /// compares.
    #[cfg(test)]
    pub(crate) fn memory(&self) -> &MainMemory {
        &self.mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_common::TileRank;
    use tcor_pbuf::region::bases;

    fn hierarchy(mode: L2Mode) -> MemoryHierarchy {
        MemoryHierarchy::new(
            CacheParams::new(512, 64, 0, 12), // 8-line L2 for micro-tests
            MemoryParams::default(),
            mode,
        )
    }

    fn pb_block(i: u64) -> BlockAddr {
        tcor_common::Address(bases::PB_ATTRIBUTES + i * 64).block()
    }

    #[test]
    fn read_miss_goes_to_memory() {
        let mut h = hierarchy(L2Mode::Baseline);
        let lat = h.access(pb_block(0), AccessKind::Read, PbTag::NONE);
        assert!(lat > 12, "miss latency {lat} must include memory");
        let lat2 = h.access(pb_block(0), AccessKind::Read, PbTag::NONE);
        assert_eq!(lat2, 12, "hit pays only L2 latency");
        assert_eq!(h.mm_traffic().region(Region::PbAttributes).mm_reads, 1);
    }

    #[test]
    fn write_miss_allocates_without_fill() {
        let mut h = hierarchy(L2Mode::Baseline);
        h.access(pb_block(0), AccessKind::Write, PbTag::NONE);
        assert_eq!(h.mm_traffic().region(Region::PbAttributes).mm_reads, 0);
        assert_eq!(h.l2_traffic().region(Region::PbAttributes).l2_writes, 1);
    }

    #[test]
    fn baseline_writes_back_dirty_evictions() {
        let mut h = hierarchy(L2Mode::Baseline);
        for i in 0..8 {
            h.access(
                pb_block(i),
                AccessKind::Write,
                PbTag::attributes(TileRank(0)),
            );
        }
        h.access(pb_block(100), AccessKind::Read, PbTag::NONE);
        assert_eq!(h.mm_traffic().region(Region::PbAttributes).mm_writes, 1);
        assert_eq!(h.dead_drops(), 0);
    }

    #[test]
    fn tcor_drops_dead_dirty_lines() {
        let mut h = hierarchy(L2Mode::TcorEnhanced);
        for i in 0..8 {
            h.access(
                pb_block(i),
                AccessKind::Write,
                PbTag::attributes(TileRank(0)),
            );
        }
        h.tile_done(); // tile 0 completed: all 8 lines now dead
        h.access(pb_block(100), AccessKind::Read, PbTag::NONE);
        assert_eq!(h.mm_traffic().region(Region::PbAttributes).mm_writes, 0);
        assert_eq!(h.dead_drops(), 1);
    }

    #[test]
    fn tcor_live_lines_still_written_back() {
        let mut h = hierarchy(L2Mode::TcorEnhanced);
        for i in 0..8 {
            h.access(
                pb_block(i),
                AccessKind::Write,
                PbTag::attributes(TileRank(5)),
            );
        }
        // No tile completed: lines are live; eviction writes back.
        h.access(pb_block(100), AccessKind::Read, PbTag::NONE);
        assert_eq!(h.mm_traffic().region(Region::PbAttributes).mm_writes, 1);
    }

    #[test]
    fn end_frame_disposal_differs_by_mode() {
        for (mode, expect_writes, expect_drops) in
            [(L2Mode::Baseline, 4u64, 0u64), (L2Mode::TcorEnhanced, 0, 4)]
        {
            let mut h = hierarchy(mode);
            for i in 0..4 {
                h.access(
                    pb_block(i),
                    AccessKind::Write,
                    PbTag::attributes(TileRank(9)),
                );
            }
            h.end_frame();
            assert_eq!(
                h.mm_traffic().region(Region::PbAttributes).mm_writes,
                expect_writes,
                "{mode:?}"
            );
            assert_eq!(h.dead_drops(), expect_drops, "{mode:?}");
            assert_eq!(h.completed_tiles(), 0);
        }
    }

    #[test]
    fn disposal_counters_balance_kernel_writebacks() {
        // The conservation invariant the audit layer checks: every dirty
        // eviction the kernel counts is either written to DRAM (wb_blocks)
        // or dropped dead (dead_drops) — in both modes.
        for mode in [L2Mode::Baseline, L2Mode::TcorEnhanced] {
            let mut h = hierarchy(mode);
            for i in 0..12 {
                h.access(
                    pb_block(i),
                    AccessKind::Write,
                    PbTag::attributes(TileRank(i as u32 % 3)),
                );
            }
            h.tile_done();
            h.tile_done(); // ranks 0 and 1 now dead
            for i in 12..16 {
                h.access(pb_block(i), AccessKind::Read, PbTag::NONE);
            }
            h.end_frame();
            assert_eq!(
                h.l2_stats().writebacks,
                h.writeback_blocks() + h.dead_drops(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn pb_fill_site_matches_dram_traffic() {
        let mut h = hierarchy(L2Mode::TcorEnhanced);
        for i in 0..5 {
            h.access(
                pb_block(i),
                AccessKind::Read,
                PbTag::attributes(TileRank(1)),
            );
        }
        h.access(
            pb_block(0),
            AccessKind::Read,
            PbTag::attributes(TileRank(1)),
        ); // hit: no fill
        let fb = tcor_common::Address(bases::FRAME_BUFFER).block();
        h.access(fb, AccessKind::Read, PbTag::NONE); // non-PB fill: not counted
        assert_eq!(h.pb_fill_blocks(), 5);
        assert_eq!(
            h.pb_fill_blocks(),
            h.mm_traffic().parameter_buffer().mm_reads
        );
    }

    #[test]
    fn direct_writes_skip_l2() {
        let mut h = hierarchy(L2Mode::Baseline);
        let fb = tcor_common::Address(bases::FRAME_BUFFER).block();
        h.write_direct(fb, 3);
        assert_eq!(h.l2_traffic().total_l2_accesses(), 0);
        assert_eq!(h.mm_traffic().region(Region::FrameBuffer).mm_writes, 3);
    }
}
