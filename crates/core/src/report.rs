//! Per-frame measurement report — every counter the paper's evaluation
//! figures plot.

use tcor_common::{AccessStats, MetricRegistry};
use tcor_mem::TrafficMatrix;
use tcor_pbuf::Region;

/// Activity of one on-chip SRAM structure (an L1 cache or the L2), as
//  input to the energy model.
#[derive(Clone, Debug)]
pub struct StructureActivity {
    /// Structure name ("tile$", "attr$", "L2"…).
    pub name: &'static str,
    /// Capacity in bytes **per instance** (drives per-access and leakage
    /// energy).
    pub size_bytes: u64,
    /// Physical copies (4 texture caches share one entry).
    pub instances: u32,
    /// Access counters, summed over instances.
    pub stats: AccessStats,
}

/// Everything measured over one simulated frame.
#[derive(Clone, Debug)]
pub struct FrameReport {
    /// Which system produced it ("baseline" / "tcor").
    pub system: &'static str,
    /// L1 structures and their activity (for the energy model).
    pub structures: Vec<StructureActivity>,
    /// L2-level statistics (hits/misses/writebacks).
    pub l2_stats: AccessStats,
    /// Per-region traffic: the reads and writes arriving at the L2
    /// (Figures 14–15) and those reaching main memory (Figures 16–19),
    /// each counted at its own site in the hierarchy.
    pub traffic: TrafficMatrix,
    /// Dirty L2 lines dropped dead without write-back (TCOR only).
    pub dead_drops: u64,
    /// Blocks the hierarchy actually wrote back to DRAM, counted at the
    /// disposal sites — the audit cross-checks
    /// `l2_stats.writebacks == l2_wb_blocks + dead_drops`.
    pub l2_wb_blocks: u64,
    /// Parameter-Buffer blocks filled from DRAM on L2 read misses,
    /// counted at the hierarchy's fill site — the audit cross-checks it
    /// against the DRAM model's own PB read traffic (PB bytes from DRAM
    /// == pb_fill_blocks × line size).
    pub pb_fill_blocks: u64,
    /// Attribute blocks the Attribute Cache evicted dirty (each becomes
    /// one L2 write), counted at its eviction site (TCOR only).
    pub attr_wb_blocks: u64,
    /// Attribute Cache OPT self-check failures: victims that were *not*
    /// the farthest-future unlocked candidate. Always 0 in a correct run
    /// (TCOR only).
    pub attr_opt_violations: u64,
    /// Tile Fetcher cycles (unbounded output queue, Figures 23–24).
    pub fetch_cycles: u64,
    /// Primitives the Tile Fetcher output (one per PMD consumed).
    pub prims_fetched: u64,
    /// Polygon List Builder cycles.
    pub plb_cycles: u64,
    /// Estimated Raster Pipeline cycles (shader-bound; 4 fragment
    /// processors, one instruction per cycle each).
    pub raster_cycles: f64,
    /// Tile-coupled Tiling/Raster cycles: Σ over tiles of
    /// max(fetch, raster) — the Tile Fetcher and Raster Pipeline overlap
    /// but each tile's rasterization cannot start before its primitives
    /// are fetched. Drives the FPS model.
    pub coupled_cycles: f64,
    /// Estimated fragments shaded (energy model).
    pub fragments: f64,
    /// Estimated shader instructions executed (energy model).
    pub shader_instructions: f64,
    /// Primitives binned.
    pub num_primitives: usize,
    /// Parameter Buffer footprint in bytes (lists + attributes).
    pub pb_footprint_bytes: u64,
    /// Mean Attribute Buffer occupancy (TCOR only; 0 for the baseline).
    pub attr_buffer_utilization: f64,
    /// Mean Primitive Buffer occupancy (TCOR only).
    pub attr_line_utilization: f64,
    /// Tile Fetcher stalls on Attribute Cache locks (TCOR only).
    pub attr_stalls: u64,
}

impl FrameReport {
    /// Parameter Buffer accesses to the L2 (Fig. 14–15 numerator).
    pub fn pb_l2_accesses(&self) -> u64 {
        self.traffic.parameter_buffer().l2_total()
    }

    /// Parameter Buffer reads arriving at the L2.
    pub fn pb_l2_reads(&self) -> u64 {
        self.traffic.parameter_buffer().l2_reads
    }

    /// Parameter Buffer writes arriving at the L2.
    pub fn pb_l2_writes(&self) -> u64 {
        self.traffic.parameter_buffer().l2_writes
    }

    /// Parameter Buffer accesses reaching main memory (Fig. 16–17).
    pub fn pb_mm_accesses(&self) -> u64 {
        self.traffic.parameter_buffer().mm_total()
    }

    /// Parameter Buffer reads reaching main memory.
    pub fn pb_mm_reads(&self) -> u64 {
        self.traffic.parameter_buffer().mm_reads
    }

    /// Parameter Buffer writes reaching main memory.
    pub fn pb_mm_writes(&self) -> u64 {
        self.traffic.parameter_buffer().mm_writes
    }

    /// Total main-memory accesses over all regions (Fig. 18–19).
    pub fn total_mm_accesses(&self) -> u64 {
        self.traffic.total_mm_accesses()
    }

    /// Total L2 accesses over all regions.
    pub fn total_l2_accesses(&self) -> u64 {
        self.traffic.total_l2_accesses()
    }

    /// Tile Fetcher primitives per cycle (Fig. 23–24; ≤ 1 by
    /// construction).
    pub fn primitives_per_cycle(&self) -> f64 {
        if self.fetch_cycles == 0 {
            0.0
        } else {
            self.prims_fetched as f64 / self.fetch_cycles as f64
        }
    }

    /// Looks up a structure's activity by name.
    pub fn structure(&self, name: &str) -> Option<&StructureActivity> {
        self.structures.iter().find(|s| s.name == name)
    }

    /// Assembles the uniform hierarchical metric view of this frame:
    /// every counter the report holds, published under
    /// `structure/…`, `l2/<region>/…` and `…/event/…` paths. This is
    /// the surface the audit layer and metric dumps read.
    pub fn metrics(&self) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        for s in &self.structures {
            reg.record_stats(s.name, &s.stats);
        }
        reg.record_stats("l2", &self.l2_stats);
        for region in Region::ALL {
            let label = region.label();
            let t = self.traffic.region(region);
            for (event, n) in [
                ("l2_read", t.l2_reads),
                ("l2_write", t.l2_writes),
                ("mm_read", t.mm_reads),
                ("mm_write", t.mm_writes),
            ] {
                if n > 0 {
                    reg.add(&format!("traffic/{label}/{event}"), n);
                }
            }
        }
        reg.add("l2/event/dead_drop", self.dead_drops);
        reg.add("l2/event/wb_block", self.l2_wb_blocks);
        reg.add("l2/event/pb_fill", self.pb_fill_blocks);
        reg.add("attr$/event/wb_block", self.attr_wb_blocks);
        reg.add("attr$/event/opt_violation", self.attr_opt_violations);
        reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> FrameReport {
        FrameReport {
            system: "test",
            structures: vec![StructureActivity {
                name: "tile$",
                size_bytes: 65536,
                instances: 1,
                stats: AccessStats::new(),
            }],
            l2_stats: AccessStats::new(),
            traffic: TrafficMatrix::default(),
            dead_drops: 0,
            l2_wb_blocks: 0,
            pb_fill_blocks: 0,
            attr_wb_blocks: 0,
            attr_opt_violations: 0,
            fetch_cycles: 0,
            prims_fetched: 0,
            plb_cycles: 0,
            raster_cycles: 0.0,
            coupled_cycles: 0.0,
            fragments: 0.0,
            shader_instructions: 0.0,
            num_primitives: 0,
            pb_footprint_bytes: 0,
            attr_buffer_utilization: 0.0,
            attr_line_utilization: 0.0,
            attr_stalls: 0,
        }
    }

    #[test]
    fn ppc_handles_zero_cycles() {
        assert_eq!(empty_report().primitives_per_cycle(), 0.0);
    }

    #[test]
    fn structure_lookup() {
        let r = empty_report();
        assert!(r.structure("tile$").is_some());
        assert!(r.structure("nope").is_none());
    }

    #[test]
    fn metrics_view_mirrors_report_counters() {
        let mut r = empty_report();
        r.structures[0].stats.record_read(true);
        r.l2_stats.record_read(false);
        r.traffic.record_l2_read(tcor_pbuf::Region::PbLists);
        r.traffic.record_mm_read(tcor_pbuf::Region::PbLists);
        r.dead_drops = 3;
        let m = r.metrics();
        assert_eq!(m.get("tile$/read_hit"), 1);
        assert_eq!(m.get("l2/read_miss"), 1);
        assert_eq!(m.get("traffic/PB-Lists/l2_read"), 1);
        assert_eq!(m.get("traffic/PB-Lists/mm_read"), 1);
        assert_eq!(m.get("l2/event/dead_drop"), 3);
    }

    #[test]
    fn pb_counters_derive_from_traffic() {
        let mut r = empty_report();
        r.traffic.record_l2_read(tcor_pbuf::Region::PbLists);
        r.traffic.record_l2_write(tcor_pbuf::Region::PbAttributes);
        r.traffic.record_mm_write(tcor_pbuf::Region::PbAttributes);
        r.traffic.record_mm_read(tcor_pbuf::Region::Textures);
        assert_eq!(r.pb_l2_accesses(), 2);
        assert_eq!(r.pb_l2_reads(), 1);
        assert_eq!(r.pb_mm_accesses(), 1);
        assert_eq!(r.total_mm_accesses(), 2);
    }
}
