//! Per-region traffic accounting.
//!
//! Figures 14–19 are direct reads of these counters: Parameter Buffer
//! accesses to the L2 (reads/writes), Parameter Buffer accesses to main
//! memory, and total main-memory accesses.

use tcor_pbuf::Region;

/// Counters for one memory region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionTraffic {
    /// Reads arriving at the L2 for this region (L1 misses).
    pub l2_reads: u64,
    /// Writes arriving at the L2 (L1 write-backs, write misses and TCOR
    /// bypasses).
    pub l2_writes: u64,
    /// Reads reaching main memory (L2 misses).
    pub mm_reads: u64,
    /// Writes reaching main memory (L2 write-backs and direct writes).
    pub mm_writes: u64,
}

impl RegionTraffic {
    /// Total L2 accesses.
    pub fn l2_total(&self) -> u64 {
        self.l2_reads + self.l2_writes
    }

    /// Total main-memory accesses.
    pub fn mm_total(&self) -> u64 {
        self.mm_reads + self.mm_writes
    }
}

impl std::ops::Add for RegionTraffic {
    type Output = RegionTraffic;

    fn add(self, rhs: RegionTraffic) -> RegionTraffic {
        RegionTraffic {
            l2_reads: self.l2_reads + rhs.l2_reads,
            l2_writes: self.l2_writes + rhs.l2_writes,
            mm_reads: self.mm_reads + rhs.mm_reads,
            mm_writes: self.mm_writes + rhs.mm_writes,
        }
    }
}

/// Traffic counters for every region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficMatrix {
    regions: [RegionTraffic; Region::ALL.len()],
}

impl TrafficMatrix {
    fn idx(region: Region) -> usize {
        Region::ALL
            .iter()
            .position(|&r| r == region)
            .expect("region in ALL")
    }

    /// Counters for one region.
    pub fn region(&self, region: Region) -> &RegionTraffic {
        &self.regions[Self::idx(region)]
    }

    /// Records an L2 read for `region`.
    pub fn record_l2_read(&mut self, region: Region) {
        self.regions[Self::idx(region)].l2_reads += 1;
    }

    /// Records an L2 write for `region`.
    pub fn record_l2_write(&mut self, region: Region) {
        self.regions[Self::idx(region)].l2_writes += 1;
    }

    /// Records a main-memory read for `region`.
    pub fn record_mm_read(&mut self, region: Region) {
        self.regions[Self::idx(region)].mm_reads += 1;
    }

    /// Records a main-memory write for `region`.
    pub fn record_mm_write(&mut self, region: Region) {
        self.record_mm_writes(region, 1);
    }

    /// Records `n` main-memory writes for `region`.
    pub fn record_mm_writes(&mut self, region: Region, n: u64) {
        self.regions[Self::idx(region)].mm_writes += n;
    }

    /// Combined Parameter Buffer traffic (PB-Lists + PB-Attributes) — the
    /// quantity Figures 14–17 normalize.
    pub fn parameter_buffer(&self) -> RegionTraffic {
        *self.region(Region::PbLists) + *self.region(Region::PbAttributes)
    }

    /// Total main-memory accesses over every region (Figures 18–19).
    pub fn total_mm_accesses(&self) -> u64 {
        self.regions.iter().map(RegionTraffic::mm_total).sum()
    }

    /// Total L2 accesses over every region.
    pub fn total_l2_accesses(&self) -> u64 {
        self.regions.iter().map(RegionTraffic::l2_total).sum()
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &TrafficMatrix) {
        for (a, b) in self.regions.iter_mut().zip(other.regions.iter()) {
            *a = *a + *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_by_region() {
        let mut t = TrafficMatrix::default();
        t.record_l2_read(Region::PbLists);
        t.record_l2_read(Region::PbLists);
        t.record_l2_write(Region::PbAttributes);
        t.record_mm_read(Region::Textures);
        t.record_mm_write(Region::FrameBuffer);
        assert_eq!(t.region(Region::PbLists).l2_reads, 2);
        assert_eq!(t.region(Region::PbAttributes).l2_writes, 1);
        assert_eq!(t.parameter_buffer().l2_total(), 3);
        assert_eq!(t.total_mm_accesses(), 2);
        assert_eq!(t.total_l2_accesses(), 3);
    }

    #[test]
    fn merge_is_componentwise() {
        let mut a = TrafficMatrix::default();
        a.record_mm_read(Region::PbLists);
        let mut b = TrafficMatrix::default();
        b.record_mm_read(Region::PbLists);
        b.record_mm_write(Region::Other);
        a.merge(&b);
        assert_eq!(a.region(Region::PbLists).mm_reads, 2);
        assert_eq!(a.region(Region::Other).mm_writes, 1);
    }
}
