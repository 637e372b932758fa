//! The full-system frame driver.
//!
//! [`System`] replays one frame — geometry, binning, both Tiling Engine
//! phases, raster-side traffic — through the Tile Cache organisation its
//! configuration names, over a [`MemoryHierarchy`], producing a
//! [`FrameReport`]; [`Session`] replays a sequence of frames over a memory
//! system that persists between them. The baseline GPU (unified Tile
//! Cache) and TCOR (Primitive List Cache + Attribute Cache) share one
//! driver: the access *streams* are identical by construction and only the
//! per-access Tile Cache handling differs, exactly as in the paper's
//! methodology.
//!
//! Each frame is a [`FramePlan`] — geometry, binning and the vertex,
//! texture and instruction L1 miss streams, which no Tile Cache
//! organisation can change — replayed through the Tile Cache, the L2 and
//! DRAM. [`System::replay`] lets every configuration with one
//! [`PlanKey`] share a plan.

use crate::attribute_cache::{
    AttributeCache, AttributeCacheConfig, EvictedPrim, ReadResult, WriteResult,
};
use crate::block_cache::BlockCache;
use crate::report::{FrameReport, StructureActivity};
use std::collections::VecDeque;
use tcor_cache::{AccessKind, Indexing, LruFilter};
use tcor_common::{
    AccessStats, BlockAddr, CacheParams, FrameTrace, GpuConfig, PrimitiveId, TileCacheOrg,
    TileGrid, TileRank, Traversal, TraversalOrder, LINE_SIZE,
};
use tcor_gpu::{
    bin_scene_with, FetchOp, FetchOps, Frame, GeometryPipeline, MshrTiming, OverlapTest, PlbOp,
    PlbOps, RasterParams, RasterTraffic, Scene,
};
use tcor_mem::{L2Mode, MemoryHierarchy, PbTag};
use tcor_pbuf::{AttributesLayout, BinnedFrame, ListsLayout, ListsScheme};

/// Number of fragment processors (Fig. 5 shows four texture/instruction
/// cache pairs).
pub const FRAGMENT_PROCESSORS: u32 = 4;

/// SIMD lanes per fragment processor: each processor shades a 4-fragment
/// quad per instruction cycle (the quad granularity of §II.A).
pub const SIMD_LANES: u32 = 4;

/// Configuration for a full-system run.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Table I parameters plus the Tile Cache organization.
    pub gpu: GpuConfig,
    /// L2 behaviour ([`L2Mode::Baseline`] gives the "TCOR without L2
    /// enhancements" ablation when combined with the TCOR L1s).
    pub l2_mode: L2Mode,
    /// Tile Fetcher MSHRs (outstanding-miss overlap).
    pub mshrs: usize,
    /// Tile Fetcher output-queue depth (locked primitives in flight).
    pub queue_depth: usize,
    /// Raster-side traffic parameters.
    pub raster: RasterParams,
    /// PB-Lists layout used by the TCOR Primitive List Cache
    /// ([`ListsScheme::Baseline`] gives the layout ablation).
    pub list_scheme: ListsScheme,
    /// Warm-start the L2 with the previous frame's Parameter Buffer
    /// contents (clean lines at the same addresses — the PB is rebuilt in
    /// place every frame, so steady state keeps much of it resident).
    pub warm_l2: bool,
    /// Whether block-granularity caches (the unified Tile Cache and the
    /// Primitive List Cache) fetch the line from the L2 on a write miss.
    /// Required for correctness with partial-line writes (a PMD is 4
    /// bytes, an attribute 48 of 64); the TCOR Attribute Cache needs no
    /// fill because a primitive write carries its complete data —
    /// one of the structural advantages of the decoupled design.
    pub fetch_on_write_miss: bool,
    /// Instruction-cache geometry (shared model for the V./F. Inst caches
    /// of Fig. 5).
    pub instr_cache: CacheParams,
    /// Attribute Cache write bypass (§III.C.4); disable for the D2
    /// ablation.
    pub attr_write_bypass: bool,
    /// Attribute Cache set-index function; `Modulo` is the D5 ablation of
    /// the XOR placement \[12\].
    pub attr_indexing: Indexing,
    /// Polygon List Builder tile-overlap test (bounding box by default;
    /// the exact SAT test is the Antochi/Yang-style extension \[2\], \[39\]).
    pub overlap_test: OverlapTest,
    /// Fragment processors (4 in Fig. 5). The paper's conclusion points
    /// at "more aggressive Raster Pipeline implementations, including
    /// Parallel Renderers" — scale this up to study when the Tiling
    /// Engine becomes the bottleneck (`tcor-sim scaling`).
    pub fragment_processors: u32,
    /// SIMD lanes per fragment processor (quad granularity).
    pub simd_lanes: u32,
}

impl SystemConfig {
    fn base(gpu: GpuConfig, l2_mode: L2Mode) -> Self {
        SystemConfig {
            gpu,
            l2_mode,
            mshrs: 8,
            queue_depth: 16,
            raster: RasterParams::default(),
            list_scheme: ListsScheme::Interleaved,
            warm_l2: true,
            fetch_on_write_miss: true,
            instr_cache: CacheParams::new(8 << 10, LINE_SIZE, 4, 1),
            attr_write_bypass: true,
            attr_indexing: Indexing::Xor,
            overlap_test: OverlapTest::BoundingBox,
            fragment_processors: FRAGMENT_PROCESSORS,
            simd_lanes: SIMD_LANES,
        }
    }

    /// Baseline GPU, 64 KiB unified Tile Cache (Table I).
    pub fn paper_baseline_64k() -> Self {
        Self::base(GpuConfig::paper_baseline(), L2Mode::Baseline)
    }

    /// Baseline GPU, 128 KiB unified Tile Cache (§V.B).
    pub fn paper_baseline_128k() -> Self {
        Self::base(GpuConfig::paper_baseline_128k(), L2Mode::Baseline)
    }

    /// TCOR matching the 64 KiB budget: 16 KiB list + 48 KiB attribute
    /// caches, TCOR L2.
    pub fn paper_tcor_64k() -> Self {
        Self::base(GpuConfig::paper_tcor(), L2Mode::TcorEnhanced)
    }

    /// TCOR matching the 128 KiB budget: 16 KiB + 112 KiB.
    pub fn paper_tcor_128k() -> Self {
        Self::base(GpuConfig::paper_tcor_128k(), L2Mode::TcorEnhanced)
    }

    /// Ablation: keep the TCOR L1s but run the baseline L2 (the middle
    /// bars of Figures 20–21).
    pub fn without_l2_enhancements(mut self) -> Self {
        self.l2_mode = L2Mode::Baseline;
        self
    }

    /// Replaces the raster traffic parameters (per-benchmark
    /// calibration).
    pub fn with_raster(mut self, raster: RasterParams) -> Self {
        self.raster = raster;
        self
    }
}

/// The read-only L1s surrounding the Tile Cache (Fig. 5): vertex,
/// texture ×4 and instruction caches. Their lines are never dirty, so
/// misses are the only traffic they forward; a [`FramePlan`] records
/// those misses.
#[derive(Debug)]
struct OtherL1s {
    vertex: LruFilter,
    textures: Vec<LruFilter>,
    instr: LruFilter,
    /// The texture cache the next texel fetch goes to (round robin).
    tex_rr: usize,
    /// Whether one whole shader walk has hit in the instruction L1.
    /// The I-cache sees nothing but the per-tile walk, the same blocks
    /// in the same order every tile, so a walk that fills nothing
    /// leaves the resident lines as they were and every later walk
    /// hits too: from then on a walk is counted, not performed.
    instr_steady: bool,
}

impl OtherL1s {
    fn new(cfg: &SystemConfig) -> Self {
        OtherL1s {
            vertex: LruFilter::new(cfg.gpu.vertex_cache, Indexing::Modulo),
            textures: (0..cfg.gpu.num_texture_caches)
                .map(|_| LruFilter::new(cfg.gpu.texture_cache, Indexing::Modulo))
                .collect(),
            instr: LruFilter::new(cfg.instr_cache, Indexing::Modulo),
            tex_rr: 0,
            instr_steady: false,
        }
    }

    /// Zeroes all statistics while keeping cache contents (steady-state
    /// frame boundaries).
    fn reset_stats(&mut self) {
        self.vertex.reset_stats();
        for t in &mut self.textures {
            t.reset_stats();
        }
        self.instr.reset_stats();
    }

    /// Filters one tile's texel fetches through the texture L1s in
    /// round robin and appends the misses' block numbers to `misses`.
    /// The slot grows by the tile's fetch count; every block is written
    /// at the slot's length, which advances by the miss bit, so a hit
    /// costs no branch, and the slot is cut back to the misses.
    fn filter_texels(&mut self, raster: &mut RasterTraffic, fragments: f64, misses: &mut Vec<u32>) {
        let start = misses.len();
        misses.resize(start + raster.texel_fetches(fragments), 0);
        let (mut len, mut wide) = (start, 0u64);
        let (textures, rr) = (&mut self.textures, &mut self.tex_rr);
        raster.sample_texels(fragments, |b| {
            // Round robin without a division: each fetch waits on the
            // previous one's choice of cache.
            let i = *rr;
            *rr = if i + 1 == textures.len() { 0 } else { i + 1 };
            let miss = !textures[i].read(b);
            misses[len] = b.0 as u32;
            wide |= (b.0 >> 32) * u64::from(miss);
            len += usize::from(miss);
        });
        assert!(wide == 0, "L1 miss beyond 32-bit block numbers");
        misses.truncate(len);
    }
}

/// The L1 filter: reads `block` through the read-only L1 `cache` and
/// records its block number in `misses` when it misses.
fn filter(cache: &mut LruFilter, block: BlockAddr, misses: &mut Vec<u32>) {
    if !cache.read(block) {
        misses.push(u32::try_from(block.0).expect("L1 miss beyond 32-bit block numbers"));
    }
}

/// Forwards recorded L1 misses to the L2 as untagged reads.
fn read_misses(misses: &[u32], hierarchy: &mut MemoryHierarchy) {
    for &b in misses {
        hierarchy.access(BlockAddr(u64::from(b)), AccessKind::Read, PbTag::NONE);
    }
}

/// Every configuration field a [`FramePlan`] reads: the ones that shape
/// geometry, binning, the traversal and the L1 miss streams. The Tile
/// Cache, the L2, DRAM, the Tiling Engine queues and the shader
/// throughput are not in it, so configurations that differ only there
/// share one plan. Its `Debug` form names every field, which makes it a
/// stable description to hash into a store key.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanKey {
    screen_width: u32,
    screen_height: u32,
    tile_size: u32,
    traversal: Traversal,
    overlap_test: OverlapTest,
    raster: RasterParams,
    vertex_cache: CacheParams,
    texture_cache: CacheParams,
    num_texture_caches: u32,
    instr_cache: CacheParams,
}

impl PlanKey {
    /// The key of the plan `cfg` replays on.
    pub fn of(cfg: &SystemConfig) -> Self {
        PlanKey {
            screen_width: cfg.gpu.screen_width,
            screen_height: cfg.gpu.screen_height,
            tile_size: cfg.gpu.tile_size,
            traversal: cfg.gpu.traversal,
            overlap_test: cfg.overlap_test,
            raster: cfg.raster,
            vertex_cache: cfg.gpu.vertex_cache,
            texture_cache: cfg.gpu.texture_cache,
            num_texture_caches: cfg.gpu.num_texture_caches,
            instr_cache: cfg.instr_cache,
        }
    }

    /// The [`SystemConfig`] path of the first field in which the two keys
    /// differ, or `None` when they are equal.
    pub fn mismatch(&self, other: &PlanKey) -> Option<&'static str> {
        [
            ("gpu.screen_width", self.screen_width == other.screen_width),
            (
                "gpu.screen_height",
                self.screen_height == other.screen_height,
            ),
            ("gpu.tile_size", self.tile_size == other.tile_size),
            ("gpu.traversal", self.traversal == other.traversal),
            ("overlap_test", self.overlap_test == other.overlap_test),
            ("raster", self.raster == other.raster),
            ("gpu.vertex_cache", self.vertex_cache == other.vertex_cache),
            (
                "gpu.texture_cache",
                self.texture_cache == other.texture_cache,
            ),
            (
                "gpu.num_texture_caches",
                self.num_texture_caches == other.num_texture_caches,
            ),
            ("instr_cache", self.instr_cache == other.instr_cache),
        ]
        .into_iter()
        .find_map(|(field, same)| (!same).then_some(field))
    }
}

/// The part of a frame that no Tile Cache organisation can change, built
/// once and replayed per configuration ([`System::replay`]): geometry and
/// binning, the traversal order, the vertex L1 misses, each tile's
/// texture and instruction L1 misses, and the L1 statistics the report
/// needs. The L1s see only the scene and the [`PlanKey`] fields, never
/// the Tile Cache, L2 or DRAM, so every configuration with the plan's
/// key filters exactly these misses; a replay feeds them to the L2 at
/// the points the frame produced them, which makes it byte-identical to
/// running the frame whole.
#[derive(Debug)]
pub struct FramePlan {
    key: PlanKey,
    grid: TileGrid,
    order: TraversalOrder,
    frame: Frame,
    /// Vertex L1 misses in fetch order, as block numbers.
    vertex_misses: Box<[u32]>,
    /// `tile_misses[tile_offsets[r]..tile_offsets[r + 1]]` holds the
    /// texture then instruction L1 misses of the tile at traversal rank
    /// `r`, as block numbers.
    tile_offsets: Box<[u32]>,
    tile_misses: Box<[u32]>,
    vertex_stats: AccessStats,
    texture_stats: AccessStats,
    instr_stats: AccessStats,
}

impl FramePlan {
    /// The plan of a one-shot frame of `scene` under `cfg`: cold L1s and a
    /// fresh raster stream, as every [`System`] frame starts.
    pub fn new(cfg: &SystemConfig, scene: &Scene) -> Self {
        let mut l1s = OtherL1s::new(cfg);
        Self::build(cfg, scene, &mut l1s, &mut RasterTraffic::new(cfg.raster))
    }

    /// Runs the Geometry Pipeline, bins the frame and filters the
    /// frame's vertex, texture and instruction fetches through `l1s`
    /// (persistent across a [`Session`]'s frames), drawing the texel
    /// addresses from `raster`.
    fn build(
        cfg: &SystemConfig,
        scene: &Scene,
        l1s: &mut OtherL1s,
        raster: &mut RasterTraffic,
    ) -> Self {
        l1s.reset_stats();
        let grid = TileGrid::new(
            cfg.gpu.screen_width,
            cfg.gpu.screen_height,
            cfg.gpu.tile_size,
        );
        let order = cfg.gpu.traversal.order(&grid);
        let mut vertex_misses = Vec::new();
        let frame = {
            let geo = GeometryPipeline::new(grid).run(scene);
            for &b in &geo.vertex_fetch_blocks {
                filter(&mut l1s.vertex, b, &mut vertex_misses);
            }
            bin_scene_with(&geo.visible, &grid, &order, cfg.overlap_test)
        };
        let mut tile_offsets = Vec::with_capacity(order.len() + 1);
        let mut tile_misses = Vec::new();
        tile_offsets.push(0);
        let walk = raster.instruction_blocks();
        let mut counted_walks = 0u64;
        for tile in order.iter() {
            l1s.filter_texels(
                raster,
                frame.fragments_per_tile[tile.index()],
                &mut tile_misses,
            );
            if l1s.instr_steady {
                counted_walks += 1;
            } else {
                let before = tile_misses.len();
                for &b in &walk {
                    filter(&mut l1s.instr, b, &mut tile_misses);
                }
                l1s.instr_steady = tile_misses.len() == before;
            }
            tile_offsets.push(u32::try_from(tile_misses.len()).expect("L1 misses overflow u32"));
        }
        // A counted walk is one probe and one read hit per block.
        let mut instr_stats = *l1s.instr.stats();
        instr_stats.probes += counted_walks * walk.len() as u64;
        instr_stats.read_hits += counted_walks * walk.len() as u64;
        FramePlan {
            key: PlanKey::of(cfg),
            grid,
            order,
            frame,
            vertex_misses: vertex_misses.into_boxed_slice(),
            tile_offsets: tile_offsets.into_boxed_slice(),
            tile_misses: tile_misses.into_boxed_slice(),
            vertex_stats: *l1s.vertex.stats(),
            texture_stats: l1s.textures.iter().map(|c| *c.stats()).sum(),
            instr_stats,
        }
    }

    /// The texture then instruction L1 misses of the tile at `rank`.
    fn tile_misses(&self, rank: TileRank) -> &[u32] {
        let r = rank.value() as usize;
        &self.tile_misses[self.tile_offsets[r] as usize..self.tile_offsets[r + 1] as usize]
    }
}

/// The frame's Parameter Buffer layouts, built once per frame: they map
/// PMDs and attributes to the blocks the Tile Cache accesses, and classify
/// those blocks for the L2's PB tags.
struct Tagger<'a> {
    lists: ListsLayout,
    attrs: AttributesLayout,
    frame: &'a BinnedFrame,
    order: &'a TraversalOrder,
}

impl Tagger<'_> {
    fn tag_of(&self, block: BlockAddr) -> PbTag {
        use tcor_pbuf::Region;
        match Region::of_block(block) {
            Region::PbLists => match self.lists.tile_of_block(block) {
                Some(tile) => PbTag::lists(self.order.rank_of(tile)),
                None => PbTag::NONE,
            },
            Region::PbAttributes => match self.attrs.primitive_of_block(block) {
                Some(p) => {
                    PbTag::attributes(self.frame.primitive(PrimitiveId(p as u32)).last_use())
                }
                None => PbTag::NONE,
            },
            _ => PbTag::NONE,
        }
    }

    fn attr_tag(&self, prim: PrimitiveId) -> PbTag {
        PbTag::attributes(self.frame.primitive(prim).last_use())
    }
}

/// Installs the previous frame's Parameter Buffer into the L2 as clean
/// lines (steady-state warm start; the PB occupies the same addresses
/// every frame).
fn warm_l2(hierarchy: &mut MemoryHierarchy, tagger: &Tagger<'_>) {
    for tile in tagger.order.iter() {
        let n_pmds = tagger.frame.tile_list(tile).len() as u32;
        let mut n = 0u32;
        while n < n_pmds {
            let b = tagger.lists.pmd_block(tile, n);
            hierarchy.warm_fill(b, tagger.tag_of(b));
            n += tcor_pbuf::PMDS_PER_BLOCK;
        }
    }
    for p in 0..tagger.attrs.num_primitives() {
        for k in 0..tagger.attrs.attr_count(p) {
            let b = tagger.attrs.attr_block(p, k);
            hierarchy.warm_fill(b, tagger.tag_of(b));
        }
    }
}

/// The Tile Cache organisation: the one component the baseline and TCOR
/// GPUs differ in. Built fresh every frame from `cfg.gpu.tile_cache`.
// One value per frame, never moved in a loop: the variant sizes don't matter.
#[allow(clippy::large_enum_variant)]
enum TileCache {
    /// The baseline (§II.C): one LRU block cache for both PB-Lists and
    /// PB-Attributes.
    Unified(BlockCache),
    /// TCOR (§III.C): an LRU block cache for PB-Lists plus the OPT
    /// Attribute Cache.
    Split {
        lists: BlockCache,
        attrs: AttributeCache,
        /// The primitive whose first attribute write bypassed the
        /// Attribute Cache (§III.C.4); its other attributes follow it to
        /// the L2.
        bypassed: Option<PrimitiveId>,
        /// The Tile Fetcher output queue: fetched primitives stay locked
        /// in the Attribute Cache until the Rasterizer consumes them.
        queue: VecDeque<PrimitiveId>,
    },
}

impl TileCache {
    fn new(cfg: &SystemConfig) -> Self {
        match cfg.gpu.tile_cache {
            TileCacheOrg::Unified { cache } => TileCache::Unified(BlockCache::new(cache)),
            TileCacheOrg::Split {
                list_cache,
                attribute_bytes,
                attribute_ways,
            } => TileCache::Split {
                lists: BlockCache::new(list_cache),
                attrs: AttributeCache::new(
                    AttributeCacheConfig::from_budget(attribute_bytes, attribute_ways as usize)
                        .with_write_bypass(cfg.attr_write_bypass)
                        .with_indexing(cfg.attr_indexing),
                ),
                bypassed: None,
                queue: VecDeque::new(),
            },
        }
    }

    /// The LRU block cache: the whole Tile Cache of the baseline, the
    /// Primitive List Cache of TCOR.
    fn blocks(&mut self) -> &mut BlockCache {
        match self {
            TileCache::Unified(cache) | TileCache::Split { lists: cache, .. } => cache,
        }
    }
}

/// A Polygon List Builder write through a block cache.
fn write_block(
    cache: &mut BlockCache,
    block: BlockAddr,
    fetch_on_write_miss: bool,
    hierarchy: &mut MemoryHierarchy,
    tagger: &Tagger<'_>,
) {
    let acc = cache.access(block, AccessKind::Write);
    if fetch_on_write_miss && !acc.hit {
        // Partial-line write: the rest of the block must be fetched (a
        // PMD is 4 bytes, an attribute 48 of 64).
        hierarchy.access(block, AccessKind::Read, tagger.tag_of(block));
    }
    if let Some(wb) = acc.writeback {
        hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
    }
}

/// A Tile Fetcher read through a block cache; misses go to the L2 through
/// the MSHRs.
fn read_block(
    cache: &mut BlockCache,
    block: BlockAddr,
    hierarchy: &mut MemoryHierarchy,
    tagger: &Tagger<'_>,
    timing: &mut MshrTiming,
) {
    let acc = cache.access(block, AccessKind::Read);
    if let Some(wb) = acc.writeback {
        hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
    }
    if acc.hit {
        timing.issue_hit();
    } else {
        let lat = hierarchy.access(block, AccessKind::Read, tagger.tag_of(block));
        timing.issue_miss(lat as u64);
    }
}

/// Writes the attributes of every dirty primitive the Attribute Cache
/// displaced back to the L2.
fn write_back_prims(evicted: &[EvictedPrim], hierarchy: &mut MemoryHierarchy, tagger: &Tagger<'_>) {
    for e in evicted.iter().filter(|e| e.dirty) {
        for k in 0..e.attr_count {
            let block = tagger.attrs.attr_block(e.prim.index(), k);
            hierarchy.access(block, AccessKind::Write, tagger.attr_tag(e.prim));
        }
    }
}

/// Assembles the final report from the run's parts.
#[allow(clippy::too_many_arguments)]
fn build_report(
    cfg: &SystemConfig,
    tc: &TileCache,
    hierarchy: &MemoryHierarchy,
    plan: &FramePlan,
    raster: &RasterTraffic,
    fetch_cycles: u64,
    prims_fetched: u64,
    plb_cycles: u64,
    coupled_cycles: f64,
    pb_footprint_bytes: u64,
) -> FrameReport {
    let fragments = plan.frame.total_fragments();
    let shader_instructions = raster.shader_instructions_executed(fragments);
    let shader_throughput = (cfg.fragment_processors * cfg.simd_lanes) as f64;
    let (system, mut structures) = match tc {
        TileCache::Unified(cache) => (
            "baseline",
            vec![StructureActivity {
                name: "tile$",
                size_bytes: cache.size_bytes(),
                instances: 1,
                stats: *cache.stats(),
            }],
        ),
        TileCache::Split { lists, attrs, .. } => (
            "tcor",
            vec![
                StructureActivity {
                    name: "list$",
                    size_bytes: lists.size_bytes(),
                    instances: 1,
                    stats: *lists.stats(),
                },
                StructureActivity {
                    name: "attr$",
                    // The budget the Primitive List Cache leaves.
                    size_bytes: cfg.gpu.tile_cache.total_bytes() - lists.size_bytes(),
                    instances: 1,
                    stats: *attrs.stats(),
                },
            ],
        ),
    };
    // Reports are kept by the thousand (a benchmark window, a study's
    // frames): the list holds exactly its structures.
    structures.reserve_exact(3);
    structures.extend([
        StructureActivity {
            name: "vertex$",
            size_bytes: cfg.gpu.vertex_cache.size_bytes,
            instances: 1,
            stats: plan.vertex_stats,
        },
        StructureActivity {
            name: "tex$",
            size_bytes: cfg.gpu.texture_cache.size_bytes,
            instances: cfg.gpu.num_texture_caches,
            stats: plan.texture_stats,
        },
        StructureActivity {
            name: "instr$",
            size_bytes: cfg.instr_cache.size_bytes,
            instances: 1,
            stats: plan.instr_stats,
        },
    ]);
    let mut traffic = *hierarchy.l2_traffic();
    traffic.merge(hierarchy.mm_traffic());
    let mut report = FrameReport {
        system,
        structures,
        l2_stats: *hierarchy.l2_stats(),
        traffic,
        dead_drops: hierarchy.dead_drops(),
        l2_wb_blocks: hierarchy.writeback_blocks(),
        pb_fill_blocks: hierarchy.pb_fill_blocks(),
        attr_wb_blocks: 0,
        attr_opt_violations: 0,
        fetch_cycles,
        prims_fetched,
        plb_cycles,
        raster_cycles: shader_instructions / shader_throughput,
        coupled_cycles,
        fragments,
        shader_instructions,
        num_primitives: plan.frame.binned.num_primitives(),
        pb_footprint_bytes,
        attr_buffer_utilization: 0.0,
        attr_line_utilization: 0.0,
        attr_stalls: 0,
    };
    if let TileCache::Split { attrs, .. } = tc {
        report.attr_wb_blocks = attrs.writeback_blocks();
        report.attr_opt_violations = attrs.opt_violations();
        report.attr_buffer_utilization = attrs.avg_buffer_utilization();
        report.attr_line_utilization = attrs.avg_line_utilization();
        report.attr_stalls = attrs.stall_events();
    }
    report
}

/// Emits one tile's fetch span plus the memory-side counter samples the
/// timeline viewer plots: MSHR occupancy and the cumulative L2
/// miss/writeback/dead-drop series. Timestamps are offset by
/// `plb_cycles` so the Polygon List Builder phase and the Tile Fetcher
/// phase lay out sequentially on one clock, matching the frame's actual
/// two-phase execution.
fn emit_tile_trace(
    trace: &mut FrameTrace,
    plb_cycles: u64,
    span_start: u64,
    timing: &MshrTiming,
    hierarchy: &MemoryHierarchy,
    tile: tcor_common::TileId,
) {
    let now = plb_cycles + timing.now();
    trace.complete(
        "fetch",
        format!("tile {}", tile.index()),
        plb_cycles + span_start,
        timing.now().saturating_sub(span_start),
        vec![("tile", tile.index() as u64)],
    );
    trace.counter(
        "mshr",
        "mshr_outstanding",
        now,
        vec![("in_flight", timing.outstanding() as u64)],
    );
    trace.counter(
        "l2",
        "l2_events",
        now,
        vec![
            ("misses", hierarchy.l2_stats().misses()),
            ("writebacks", hierarchy.l2_stats().writebacks),
            ("dead_drops", hierarchy.dead_drops()),
        ],
    );
}

/// Emits the two Tiling Engine phase spans (PLB then Tile Fetcher) and
/// the end-of-frame marker.
fn emit_phase_trace(trace: &mut FrameTrace, plb_cycles: u64, fetch_cycles: u64) {
    if !trace.is_enabled() {
        return;
    }
    trace.complete("phase", "polygon list builder", 0, plb_cycles, vec![]);
    trace.complete("phase", "tile fetcher", plb_cycles, fetch_cycles, vec![]);
    trace.instant("phase", "end of frame", plb_cycles + fetch_cycles);
}

/// A one-shot full system: every frame runs through a fresh memory system
/// with the configured L2 warm start, and the whole Parameter Buffer is
/// disposed of at frame end. The Tile Cache organisation comes from
/// `cfg.gpu.tile_cache`: unified gives the baseline GPU (unified LRU Tile
/// Cache, baseline layouts, LRU L2), split gives TCOR (Primitive List
/// Cache + Attribute Cache with OPT, interleaved PB-Lists, dead-line-aware
/// L2). For true steady-state multi-frame runs use [`Session`].
#[derive(Clone, Debug)]
pub struct System {
    cfg: SystemConfig,
}

/// Former name of [`System`] for the baseline GPU. Kept as an alias
/// because the benchmark package under `tcorbench/` still calls it; the
/// organisation comes from the configuration, not from the type.
pub type BaselineSystem = System;

/// Former name of [`System`] for the TCOR GPU, kept for the same reason
/// as [`BaselineSystem`].
pub type TcorSystem = System;

impl System {
    /// Creates the system.
    pub fn new(cfg: SystemConfig) -> Self {
        System { cfg }
    }

    /// Runs one frame and reports every measured quantity.
    pub fn run_frame(&self, scene: &Scene) -> FrameReport {
        self.replay(&FramePlan::new(&self.cfg, scene))
    }

    /// Like [`run_frame`](Self::run_frame), but also records the Tiling
    /// Engine timeline (per-tile fetch spans, MSHR occupancy, L2 event
    /// series, Tile Cache occupancy) for the trace exporter.
    pub fn run_frame_traced(&self, scene: &Scene) -> (FrameReport, FrameTrace) {
        let mut trace = FrameTrace::enabled();
        let report = self.replay_into(&FramePlan::new(&self.cfg, scene), &mut trace);
        (report, trace)
    }

    /// Replays a shared [`FramePlan`] and reports the frame exactly as
    /// [`run_frame`](Self::run_frame) reports the plan's scene. The plan
    /// may come from [`FramePlan::new`] under any configuration with this
    /// one's [`PlanKey`].
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if the plan's key is not this
    /// configuration's.
    pub fn replay(&self, plan: &FramePlan) -> FrameReport {
        self.replay_into(plan, &mut FrameTrace::disabled())
    }

    /// A one-shot replay over a cold memory system.
    fn replay_into(&self, plan: &FramePlan, trace: &mut FrameTrace) -> FrameReport {
        let mut hierarchy =
            MemoryHierarchy::new(self.cfg.gpu.l2, self.cfg.gpu.memory, self.cfg.l2_mode);
        replay_frame(&self.cfg, plan, &mut hierarchy, true, trace)
    }
}

/// A persistent full system: the L2, DRAM state and surrounding L1s
/// survive across frames (the true steady state that `warm_l2`
/// approximates for one-shot runs). The first frame is cold, and dirty
/// lines carry over to the next frame. Per-frame counters are reset at
/// each `run_frame`, so every report covers exactly one frame.
#[derive(Debug)]
pub struct Session {
    cfg: SystemConfig,
    hierarchy: MemoryHierarchy,
    l1s: OtherL1s,
    raster: RasterTraffic,
}

impl Session {
    /// Creates the session with a cold memory system.
    pub fn new(cfg: SystemConfig) -> Self {
        Session {
            hierarchy: MemoryHierarchy::new(cfg.gpu.l2, cfg.gpu.memory, cfg.l2_mode),
            l1s: OtherL1s::new(&cfg),
            raster: RasterTraffic::new(cfg.raster),
            cfg,
        }
    }

    /// Runs the next frame of the sequence and reports it. From the
    /// second frame on the L2 holds the previous frame's Parameter Buffer
    /// and texture working set.
    pub fn run_frame(&mut self, scene: &Scene) -> FrameReport {
        self.hierarchy.reset_counters();
        let plan = FramePlan::build(&self.cfg, scene, &mut self.l1s, &mut self.raster);
        replay_frame(
            &self.cfg,
            &plan,
            &mut self.hierarchy,
            false,
            &mut FrameTrace::disabled(),
        )
    }
}

/// Replays `plan` under `cfg` over `hierarchy`: the Tile Cache, L2, DRAM
/// and timing part of a frame, for either Tile Cache organisation. The
/// L2 sees the plan's L1 misses where the frame produced them: the vertex
/// misses first, then, at each tile's `TileDone`, its texture misses, its
/// instruction misses and its framebuffer writes. `one_shot` selects
/// cold-start semantics: apply the L2 warm start and dispose of the whole
/// Parameter Buffer at frame end; steady state (`false`) keeps the L2
/// across frames. `trace` collects the Tiling Engine timeline; pass
/// [`FrameTrace::disabled`] for measurement runs (a disabled collector
/// records nothing and perturbs nothing).
fn replay_frame(
    cfg: &SystemConfig,
    plan: &FramePlan,
    hierarchy: &mut MemoryHierarchy,
    one_shot: bool,
    trace: &mut FrameTrace,
) -> FrameReport {
    if let Some(field) = plan.key.mismatch(&PlanKey::of(cfg)) {
        panic!("frame plan replayed under a config with a different `{field}`");
    }
    let FramePlan {
        grid, order, frame, ..
    } = plan;
    // Framebuffer addresses and shader work only read the parameters.
    let raster = RasterTraffic::new(cfg.raster);
    read_misses(&plan.vertex_misses, hierarchy);
    let mut tc = TileCache::new(cfg);
    // The baseline keeps the strided PB-Lists layout (Fig. 3); TCOR
    // uses the configured scheme (interleaved, Fig. 6, unless ablated).
    let list_scheme = match tc {
        TileCache::Unified(_) => ListsScheme::Baseline,
        TileCache::Split { .. } => cfg.list_scheme,
    };
    let tagger = Tagger {
        lists: ListsLayout::new(list_scheme, grid.num_tiles() as u32),
        attrs: AttributesLayout::new(&frame.binned.attr_counts()),
        frame: &frame.binned,
        order,
    };

    if one_shot && cfg.warm_l2 {
        warm_l2(hierarchy, &tagger);
    }

    // --- Polygon List Builder phase.
    let mut plb_cycles = 0u64;
    for op in PlbOps::new(&frame.binned, order) {
        plb_cycles += 1;
        match op {
            PlbOp::PmdWrite { tile, n, .. } => {
                let block = tagger.lists.pmd_block(tile, n);
                write_block(
                    tc.blocks(),
                    block,
                    cfg.fetch_on_write_miss,
                    hierarchy,
                    &tagger,
                );
            }
            PlbOp::AttrWrite { prim, k } => match &mut tc {
                TileCache::Unified(cache) => {
                    let block = tagger.attrs.attr_block(prim.index(), k);
                    write_block(cache, block, cfg.fetch_on_write_miss, hierarchy, &tagger);
                }
                TileCache::Split {
                    attrs, bypassed, ..
                } => {
                    // The Attribute Cache allocates or bypasses a whole
                    // primitive on its first attribute write.
                    if k == 0 {
                        let p = frame.binned.primitive(prim);
                        *bypassed = match attrs.write(prim, p.attr_count, p.first_use()) {
                            WriteResult::Allocated { evicted } => {
                                write_back_prims(&evicted, hierarchy, &tagger);
                                None
                            }
                            WriteResult::Bypassed => Some(prim),
                        };
                    }
                    if *bypassed == Some(prim) {
                        let block = tagger.attrs.attr_block(prim.index(), k);
                        hierarchy.access(block, AccessKind::Write, tagger.attr_tag(prim));
                    }
                }
            },
        }
    }

    // --- Tile Fetcher phase.
    let mut timing = MshrTiming::new(cfg.mshrs);
    let mut prims_fetched = 0u64;
    let mut coupled_cycles = 0.0f64;
    let mut tile_mark = 0u64;
    for op in FetchOps::new(&frame.binned, order) {
        match op {
            FetchOp::ListRead { tile, first_n } => {
                let block = tagger.lists.pmd_block(tile, first_n);
                read_block(tc.blocks(), block, hierarchy, &tagger, &mut timing);
            }
            FetchOp::PrimRead { tile, prim, .. } => {
                prims_fetched += 1;
                let p = frame.binned.primitive(prim);
                match &mut tc {
                    TileCache::Unified(cache) => {
                        for k in 0..p.attr_count {
                            let block = tagger.attrs.attr_block(prim.index(), k);
                            read_block(cache, block, hierarchy, &tagger, &mut timing);
                        }
                    }
                    TileCache::Split { attrs, queue, .. } => {
                        let opt_number = p.next_use_after(order.rank_of(tile));
                        loop {
                            match attrs.read(prim, p.attr_count, opt_number) {
                                ReadResult::Hit => {
                                    timing.issue_hit();
                                    break;
                                }
                                ReadResult::Miss { evicted } => {
                                    write_back_prims(&evicted, hierarchy, &tagger);
                                    for k in 0..p.attr_count {
                                        let block = tagger.attrs.attr_block(prim.index(), k);
                                        let lat = hierarchy.access(
                                            block,
                                            AccessKind::Read,
                                            tagger.attr_tag(prim),
                                        );
                                        timing.issue_miss(lat as u64);
                                    }
                                    break;
                                }
                                ReadResult::Stalled => {
                                    // Wait for the Rasterizer to consume
                                    // the oldest queued primitive, then
                                    // retry.
                                    let oldest = queue.pop_front().unwrap_or_else(|| {
                                        panic!(
                                            "attribute cache deadlock: {prim:?} \
                                                 needs {} entries",
                                            p.attr_count
                                        )
                                    });
                                    attrs.unlock(oldest);
                                    timing.bubble(1);
                                }
                            }
                        }
                        queue.push_back(prim);
                        if queue.len() > cfg.queue_depth {
                            let oldest = queue.pop_front().expect("nonempty");
                            attrs.unlock(oldest);
                        }
                    }
                }
            }
            FetchOp::TileDone { tile } => {
                hierarchy.tile_done();
                // Fetch/raster coupling: this tile's rasterization
                // cannot finish before its primitives were fetched.
                let span_start = tile_mark;
                let fetch_t = timing.now().saturating_sub(tile_mark) as f64;
                tile_mark = timing.now();
                if trace.is_enabled() {
                    emit_tile_trace(trace, plb_cycles, span_start, &timing, hierarchy, tile);
                    let now = plb_cycles + timing.now();
                    match &tc {
                        TileCache::Unified(_) => {
                            trace.counter("tile$", "prims", now, vec![("fetched", prims_fetched)])
                        }
                        TileCache::Split { attrs, .. } => trace.counter(
                            "attr$",
                            "attr_cache",
                            now,
                            vec![
                                ("resident", attrs.resident_primitives() as u64),
                                ("free_entries", attrs.free_entries() as u64),
                                ("locked", attrs.locked_primitives()),
                            ],
                        ),
                    }
                }
                let raster_t = frame.fragments_per_tile[tile.index()]
                    * cfg.raster.shader_instructions as f64
                    / (cfg.fragment_processors * cfg.simd_lanes) as f64
                    + 32.0;
                coupled_cycles += fetch_t.max(raster_t);
                // Raster-side traffic of the finished tile.
                read_misses(plan.tile_misses(order.rank_of(tile)), hierarchy);
                let (first, n) = raster.framebuffer_run(tile.index(), grid.tile_size());
                hierarchy.write_direct(first, n);
            }
        }
    }
    let fetch_cycles = timing.finish();
    emit_phase_trace(trace, plb_cycles, fetch_cycles);

    // --- End of frame. Draining the Attribute Cache also unlocks the
    // primitives still in the output queue.
    if let TileCache::Split { attrs, .. } = &mut tc {
        write_back_prims(&attrs.drain(), hierarchy, &tagger);
    }
    tc.blocks().drain_dirty(|wb| {
        hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
    });
    let pb_footprint = tagger
        .lists
        .footprint_bytes(frame.binned.max_list_len() as u32)
        + tagger.attrs.footprint_bytes();
    if one_shot {
        hierarchy.end_frame();
    } else {
        hierarchy.frame_boundary();
    }

    build_report(
        cfg,
        &tc,
        hierarchy,
        plan,
        &raster,
        fetch_cycles,
        prims_fetched,
        plb_cycles,
        coupled_cycles,
        pb_footprint,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_cache::policy::Lru;
    use tcor_cache::{AccessMeta, Cache};
    use tcor_common::Tri2;
    use tcor_gpu::ScenePrimitive;

    /// A deterministic scene: a few hundred primitives scattered over the
    /// screen with varied extents (some spanning many tiles).
    fn test_scene(n: u32) -> Scene {
        (0..n)
            .map(|i| {
                let x = (i as f32 * 97.0) % 1800.0;
                let y = (i as f32 * 53.0) % 700.0;
                let w = 10.0 + (i % 7) as f32 * 30.0;
                let h = 10.0 + (i % 5) as f32 * 25.0;
                ScenePrimitive {
                    tri: Tri2::new((x, y), (x + w, y), (x, y + h)),
                    attr_count: 1 + (i % 5) as u8,
                }
            })
            .collect()
    }

    #[test]
    fn baseline_system_runs_and_conserves_counts() {
        let r = System::new(SystemConfig::paper_baseline_64k()).run_frame(&test_scene(300));
        assert_eq!(r.num_primitives, 300);
        assert!(r.prims_fetched > 0);
        assert!(r.fetch_cycles > 0);
        assert!(r.pb_l2_accesses() > 0);
        assert!(r.total_mm_accesses() > 0);
        assert_eq!(r.dead_drops, 0, "baseline never drops dead lines");
        assert!(r.primitives_per_cycle() <= 1.0);
    }

    #[test]
    fn tcor_system_runs_and_reduces_pb_l2_traffic() {
        // The Parameter Buffer must exceed the Tile Cache for replacement
        // to matter (the paper's footprints are 0.14-1.8 MiB vs 64 KiB):
        // 3000 primitives * ~3 attrs * 64 B ~ 0.55 MiB.
        let scene = test_scene(3000);
        let base = System::new(SystemConfig::paper_baseline_64k()).run_frame(&scene);
        let tcor = System::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);
        assert_eq!(base.prims_fetched, tcor.prims_fetched, "identical streams");
        assert!(
            tcor.pb_l2_accesses() < base.pb_l2_accesses(),
            "TCOR {} >= baseline {}",
            tcor.pb_l2_accesses(),
            base.pb_l2_accesses()
        );
        assert!(
            tcor.pb_mm_accesses() <= base.pb_mm_accesses(),
            "TCOR {} > baseline {}",
            tcor.pb_mm_accesses(),
            base.pb_mm_accesses()
        );
    }

    #[test]
    fn tcor_is_faster_in_the_tiling_engine() {
        let scene = test_scene(400);
        let base = System::new(SystemConfig::paper_baseline_64k()).run_frame(&scene);
        let tcor = System::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);
        assert!(
            tcor.primitives_per_cycle() > base.primitives_per_cycle(),
            "TCOR ppc {} <= baseline ppc {}",
            tcor.primitives_per_cycle(),
            base.primitives_per_cycle()
        );
    }

    #[test]
    fn l2_ablation_has_more_mm_writes_than_full_tcor() {
        let scene = test_scene(800);
        let without =
            System::new(SystemConfig::paper_tcor_64k().without_l2_enhancements()).run_frame(&scene);
        let with = System::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);
        assert!(with.pb_mm_writes() <= without.pb_mm_writes());
        assert_eq!(without.dead_drops, 0);
    }

    #[test]
    fn raster_traffic_present_in_both_systems() {
        let scene = test_scene(100);
        let r = System::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);
        use tcor_pbuf::Region;
        assert!(r.traffic.region(Region::Textures).l2_reads > 0);
        assert!(r.traffic.region(Region::FrameBuffer).mm_writes > 0);
        assert!(r.fragments > 0.0);
    }

    #[test]
    fn traced_run_records_timeline_without_changing_the_report() {
        let scene = test_scene(300);
        for (cfg, occupancy) in [
            (SystemConfig::paper_baseline_64k(), "tile$"),
            (SystemConfig::paper_tcor_64k(), "attr$"),
        ] {
            let sys = System::new(cfg);
            let plain = sys.run_frame(&scene);
            let (traced, trace) = sys.run_frame_traced(&scene);
            // Tracing is pure observation: the whole report matches.
            assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
            // And the timeline holds one fetch span per tile, the two
            // phase spans, and the Tile Cache occupancy series.
            let spans = trace.events().iter().filter(|e| e.cat == "fetch").count();
            assert!(spans > 0, "{}: no per-tile fetch spans", plain.system);
            for cat in ["phase", "mshr", occupancy] {
                assert!(
                    trace.events().iter().any(|e| e.cat == cat),
                    "{}: no {cat} events",
                    plain.system
                );
            }
        }
    }

    #[test]
    fn reports_satisfy_probe_conservation() {
        let scene = test_scene(500);
        for r in [
            System::new(SystemConfig::paper_baseline_64k()).run_frame(&scene),
            System::new(SystemConfig::paper_tcor_64k()).run_frame(&scene),
        ] {
            for s in &r.structures {
                assert_eq!(
                    s.stats.probes,
                    s.stats.hits() + s.stats.misses(),
                    "{}: probes diverge from classified accesses",
                    s.name
                );
            }
            assert_eq!(
                r.l2_stats.writebacks,
                r.l2_wb_blocks + r.dead_drops,
                "L2 writeback disposal does not balance"
            );
        }
    }

    #[test]
    fn replaying_under_another_plan_key_panics_naming_the_field() {
        let cfg = SystemConfig::paper_tcor_64k();
        let plan = FramePlan::new(&cfg, &test_scene(50));
        type Edit = fn(&mut SystemConfig);
        let edits: [(&str, Edit); 10] = [
            ("gpu.screen_width", |c| c.gpu.screen_width = 1024),
            ("gpu.screen_height", |c| c.gpu.screen_height = 512),
            ("gpu.tile_size", |c| c.gpu.tile_size = 16),
            ("gpu.traversal", |c| c.gpu.traversal = Traversal::Scanline),
            ("overlap_test", |c| c.overlap_test = OverlapTest::Exact),
            ("raster", |c| c.raster.seed ^= 1),
            ("gpu.vertex_cache", |c| {
                c.gpu.vertex_cache = CacheParams::new(32 << 10, LINE_SIZE, 4, 1)
            }),
            ("gpu.texture_cache", |c| {
                c.gpu.texture_cache = CacheParams::new(32 << 10, LINE_SIZE, 4, 1)
            }),
            ("gpu.num_texture_caches", |c| c.gpu.num_texture_caches = 2),
            ("instr_cache", |c| {
                c.instr_cache = CacheParams::new(4 << 10, LINE_SIZE, 4, 1)
            }),
        ];
        for (field, edit) in edits {
            let mut other = cfg.clone();
            edit(&mut other);
            let sys = System::new(other);
            let panic = std::panic::catch_unwind(|| sys.replay(&plan)).expect_err(field);
            let msg = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("`{field}`")), "{msg}");
        }
    }

    /// The plan's L1 stage as the engine runs it: every fetch through a
    /// `Cache<Lru>`, the texture caches in round robin, and every tile's
    /// shader walk performed.
    struct EngineL1s {
        vertex: Cache<Lru>,
        textures: Vec<Cache<Lru>>,
        instr: Cache<Lru>,
        rr: usize,
    }

    /// The misses and L1 statistics a plan records.
    #[derive(Debug, PartialEq)]
    struct L1Stage {
        vertex_misses: Vec<u32>,
        tile_offsets: Vec<u32>,
        tile_misses: Vec<u32>,
        stats: [AccessStats; 3],
    }

    impl L1Stage {
        fn of(plan: &FramePlan) -> Self {
            L1Stage {
                vertex_misses: plan.vertex_misses.to_vec(),
                tile_offsets: plan.tile_offsets.to_vec(),
                tile_misses: plan.tile_misses.to_vec(),
                stats: [plan.vertex_stats, plan.texture_stats, plan.instr_stats],
            }
        }
    }

    impl EngineL1s {
        fn new(cfg: &SystemConfig) -> Self {
            let lru = |params| Cache::new(params, Indexing::Modulo, Lru::new());
            EngineL1s {
                vertex: lru(cfg.gpu.vertex_cache),
                textures: (0..cfg.gpu.num_texture_caches)
                    .map(|_| lru(cfg.gpu.texture_cache))
                    .collect(),
                instr: lru(cfg.instr_cache),
                rr: 0,
            }
        }

        fn frame(
            &mut self,
            cfg: &SystemConfig,
            scene: &Scene,
            raster: &mut RasterTraffic,
        ) -> L1Stage {
            let read = |cache: &mut Cache<Lru>, b: BlockAddr, misses: &mut Vec<u32>| {
                if !cache.access(b, AccessKind::Read, AccessMeta::NONE).hit {
                    misses.push(b.0 as u32);
                }
            };
            for c in [&mut self.vertex, &mut self.instr]
                .into_iter()
                .chain(&mut self.textures)
            {
                c.reset_stats();
            }
            let grid = TileGrid::new(
                cfg.gpu.screen_width,
                cfg.gpu.screen_height,
                cfg.gpu.tile_size,
            );
            let order = cfg.gpu.traversal.order(&grid);
            let geo = GeometryPipeline::new(grid).run(scene);
            let mut vertex_misses = Vec::new();
            for &b in &geo.vertex_fetch_blocks {
                read(&mut self.vertex, b, &mut vertex_misses);
            }
            let frame = bin_scene_with(&geo.visible, &grid, &order, cfg.overlap_test);
            let (mut tile_offsets, mut tile_misses) = (vec![0], Vec::new());
            for tile in order.iter() {
                for b in raster.texture_blocks(frame.fragments_per_tile[tile.index()]) {
                    read(&mut self.textures[self.rr], b, &mut tile_misses);
                    self.rr = (self.rr + 1) % self.textures.len();
                }
                for b in raster.instruction_blocks() {
                    read(&mut self.instr, b, &mut tile_misses);
                }
                tile_offsets.push(tile_misses.len() as u32);
            }
            L1Stage {
                vertex_misses,
                tile_offsets,
                tile_misses,
                stats: [
                    *self.vertex.stats(),
                    self.textures.iter().map(|c| *c.stats()).sum(),
                    *self.instr.stats(),
                ],
            }
        }
    }

    /// A plan records the misses and statistics of the engine walking
    /// every fetch, one-shot and over three frames of persistent L1s (a
    /// [`Session`]'s): with a shader that fits the 8 KiB instruction
    /// cache, whose walks are counted once one hits throughout, and
    /// with a 12 KiB one, whose walks miss every tile and must all run.
    /// A 2-way, three-cache texture stage runs the kernel's scan.
    #[test]
    fn plan_l1_stage_matches_the_engine_walking_every_fetch() {
        let scene = test_scene(400);
        let fits = SystemConfig::paper_tcor_64k();
        let mut spills = fits.clone();
        spills.raster.shader_footprint_bytes = 12 << 10;
        let mut two_way = fits.clone();
        two_way.gpu.texture_cache = CacheParams::new(16 << 10, LINE_SIZE, 2, 1);
        two_way.gpu.num_texture_caches = 3;
        for (cfg, steady) in [(&fits, true), (&spills, false), (&two_way, true)] {
            let one_shot =
                EngineL1s::new(cfg).frame(cfg, &scene, &mut RasterTraffic::new(cfg.raster));
            assert_eq!(
                L1Stage::of(&FramePlan::new(cfg, &scene)),
                one_shot,
                "one-shot"
            );
            // The first walk misses; later ones hit only if it fits.
            let instr = one_shot.stats[2];
            assert!(instr.read_misses > 0 && (instr.read_hits > 0) == steady);
            let (mut l1s, mut raster) = (OtherL1s::new(cfg), RasterTraffic::new(cfg.raster));
            let (mut engine, mut engine_raster) =
                (EngineL1s::new(cfg), RasterTraffic::new(cfg.raster));
            for frame in 0..3 {
                let plan = FramePlan::build(cfg, &scene, &mut l1s, &mut raster);
                let want = engine.frame(cfg, &scene, &mut engine_raster);
                assert_eq!(L1Stage::of(&plan), want, "session frame {frame}");
            }
            assert_eq!(l1s.instr_steady, steady);
        }
    }
}
