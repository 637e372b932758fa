//! Main-memory model — the DRAMSim2 substitution.
//!
//! Table I specifies a 50–100-cycle latency window. The model keeps one
//! open row per bank: accesses hitting the open row pay the minimum
//! latency, row conflicts pay the maximum, cold banks land in between.
//! Latency is therefore deterministic in the access sequence, and counts
//! are tracked per region for Figures 16–19.

use crate::traffic::TrafficMatrix;
use tcor_common::{BlockAddr, MemoryParams};
use tcor_pbuf::Region;

/// Number of modeled DRAM banks.
pub const NUM_BANKS: usize = 8;

/// Blocks per DRAM row (4 KiB rows of 64-byte blocks).
pub const BLOCKS_PER_ROW: u64 = 64;

/// The main-memory model.
#[derive(Clone, Debug)]
pub struct MainMemory {
    params: MemoryParams,
    open_row: [Option<u64>; NUM_BANKS],
    traffic: TrafficMatrix,
    total_latency: u64,
}

impl MainMemory {
    /// Creates memory with all banks closed.
    pub fn new(params: MemoryParams) -> Self {
        MainMemory {
            params,
            open_row: [None; NUM_BANKS],
            traffic: TrafficMatrix::default(),
            total_latency: 0,
        }
    }

    fn bank_and_row(block: BlockAddr) -> (usize, u64) {
        let row = block.0 / BLOCKS_PER_ROW;
        ((row % NUM_BANKS as u64) as usize, row / NUM_BANKS as u64)
    }

    /// Performs a read; returns its latency in cycles.
    pub fn read(&mut self, block: BlockAddr) -> u32 {
        let lat = self.latency(block);
        self.traffic.record_mm_read(Region::of_block(block));
        lat
    }

    /// Performs a write; returns its latency in cycles (writes are
    /// posted, but the latency models bank occupancy for bandwidth
    /// accounting).
    pub fn write(&mut self, block: BlockAddr) -> u32 {
        let lat = self.latency(block);
        self.traffic.record_mm_write(Region::of_block(block));
        lat
    }

    /// Writes the run of `n` consecutive blocks from `first`, exactly as
    /// `n` calls of [`write`](Self::write) in order would; returns their
    /// summed latency. Each DRAM-row segment of the run costs one
    /// open-row latency for its first block, which opens the row, and
    /// the row-hit latency for every other. A row lies inside one
    /// region (regions are row-aligned 256 MiB windows), so a segment
    /// counts as writes to the region of its first block.
    pub fn write_run(&mut self, first: BlockAddr, n: u64) -> u64 {
        let (mut block, end) = (first.0, first.0 + n);
        let mut total = 0u64;
        while block < end {
            let row_end = (block / BLOCKS_PER_ROW + 1) * BLOCKS_PER_ROW;
            let len = row_end.min(end) - block;
            let row_hits = (len - 1) * self.params.min_latency as u64;
            total += self.latency(BlockAddr(block)) as u64 + row_hits;
            self.total_latency += row_hits;
            self.traffic
                .record_mm_writes(Region::of_block(BlockAddr(block)), len);
            block += len;
        }
        total
    }

    fn latency(&mut self, block: BlockAddr) -> u32 {
        let (bank, row) = Self::bank_and_row(block);
        let lat = match self.open_row[bank] {
            Some(open) if open == row => self.params.min_latency,
            Some(_) => self.params.max_latency,
            None => (self.params.min_latency + self.params.max_latency) / 2,
        };
        self.open_row[bank] = Some(row);
        self.total_latency += lat as u64;
        lat
    }

    /// Per-region access counts.
    pub fn traffic(&self) -> &TrafficMatrix {
        &self.traffic
    }

    /// Sum of all access latencies (a bandwidth-pressure proxy).
    pub fn total_latency(&self) -> u64 {
        self.total_latency
    }

    /// Total accesses (reads + writes) across regions.
    pub fn total_accesses(&self) -> u64 {
        self.traffic.total_mm_accesses()
    }

    /// Zeroes the traffic counters (bank state is kept — steady-state
    /// multi-frame runs reset per frame).
    pub fn reset_counters(&mut self) {
        self.traffic = TrafficMatrix::default();
        self.total_latency = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_common::Address;
    use tcor_pbuf::region::bases;

    fn mem() -> MainMemory {
        MainMemory::new(MemoryParams::default())
    }

    #[test]
    fn row_hit_is_min_latency() {
        let mut m = mem();
        let a = BlockAddr(0);
        let first = m.read(a);
        let second = m.read(BlockAddr(1)); // same row
        assert_eq!(first, 75); // cold bank: midpoint
        assert_eq!(second, 50);
    }

    #[test]
    fn row_conflict_is_max_latency() {
        let mut m = mem();
        m.read(BlockAddr(0));
        // Same bank (row stride of NUM_BANKS rows), different row.
        let conflict = m.read(BlockAddr(BLOCKS_PER_ROW * NUM_BANKS as u64));
        assert_eq!(conflict, 100);
    }

    #[test]
    fn different_banks_do_not_conflict() {
        let mut m = mem();
        m.read(BlockAddr(0));
        let other_bank = m.read(BlockAddr(BLOCKS_PER_ROW)); // next bank
        assert_eq!(other_bank, 75); // cold, not conflict
    }

    #[test]
    fn latencies_stay_in_table_one_window() {
        let mut m = mem();
        for i in 0..1000u64 {
            let lat = m.read(BlockAddr(i * 977));
            assert!((50..=100).contains(&lat));
        }
    }

    /// A run is its blocks written one by one: the same summed latency,
    /// per-region traffic, latency total and open rows, for runs that
    /// start mid-row, cross rows and banks, wrap the bank interleave,
    /// cross a region boundary, and meet rows other accesses opened.
    #[test]
    fn a_write_run_is_its_single_writes() {
        let fb = Address(bases::FRAME_BUFFER).block().0;
        let runs = [
            (fb, 64),                                  // one whole row
            (fb + 64 * 3 + 10, 5),                     // inside one row
            (fb + 64 * 5 + 60, 10),                    // crosses a row
            (fb + 64 * 6 + 1, 64 * 9),                 // every bank, then some
            (fb - 70, 140),                            // region boundary
            (fb + 64 * NUM_BANKS as u64 * 3 + 7, 200), // conflicts earlier rows
            (fb + 17, 0),                              // empty
        ];
        let (mut run, mut single) = (mem(), mem());
        // Open some rows first, so runs meet hits, conflicts and cold
        // banks.
        for m in [&mut run, &mut single] {
            m.read(BlockAddr(fb + 64 * 2));
            m.read(BlockAddr(fb + 64 * (NUM_BANKS as u64 + 5)));
        }
        for (first, n) in runs {
            let got = run.write_run(BlockAddr(first), n);
            let want: u64 = (first..first + n)
                .map(|b| single.write(BlockAddr(b)) as u64)
                .sum();
            assert_eq!(got, want, "latency of ({first:#x}, {n})");
            assert_eq!(
                run.open_row, single.open_row,
                "open rows after ({first:#x}, {n})"
            );
            assert_eq!(
                run.traffic, single.traffic,
                "traffic after ({first:#x}, {n})"
            );
            assert_eq!(run.total_latency, single.total_latency);
        }
        assert_eq!(run.traffic().region(Region::Instructions).mm_writes, 70);
    }

    #[test]
    fn traffic_is_classified_by_region() {
        let mut m = mem();
        m.read(tcor_common::Address(bases::PB_ATTRIBUTES).block());
        m.write(tcor_common::Address(bases::FRAME_BUFFER).block());
        assert_eq!(m.traffic().region(Region::PbAttributes).mm_reads, 1);
        assert_eq!(m.traffic().region(Region::FrameBuffer).mm_writes, 1);
        assert_eq!(m.total_accesses(), 2);
    }
}
