//! The L2 kernel's oracle: the memory hierarchy as it ran on the general
//! cache engine, `Cache<L2Policy>` plus a `MainMemory`, and a seeded
//! differential test of [`MemoryHierarchy`] against it.
//!
//! Seeded call streams drive both through accesses, warm fills, tile
//! completions, end-of-frame drains and steady-state frame boundaries,
//! in both L2 modes, over direct-mapped, 2-, 8- and 16-way and fully
//! associative geometries with power-of-two and other set counts. Every
//! access's latency must agree, and so must every counter each time a
//! frame's counters are reset and at the end: the L2 statistics, both
//! traffic matrices, the dead drops, the written-back blocks and the
//! Parameter Buffer fill blocks. The latency of an access carries the
//! open DRAM rows, so it also checks the order of the fill read, the
//! victim's write-back and the drain's writes.

use crate::dram::MainMemory;
use crate::hierarchy::{L2Mode, MemoryHierarchy};
use crate::l2policy::L2Policy;
use crate::pbtag::{PbKind, PbTag};
use crate::traffic::TrafficMatrix;
use std::cell::Cell;
use std::rc::Rc;
use tcor_cache::{AccessKind, AccessMeta, Cache, Indexing};
use tcor_common::{AccessStats, BlockAddr, CacheParams, MemoryParams, SmallRng, TileRank};
use tcor_pbuf::region::bases;
use tcor_pbuf::Region;

/// The hierarchy on the general engine, with the L2 policy reading the
/// watermark through a shared cell.
struct Reference {
    mode: L2Mode,
    l2: Cache<L2Policy>,
    mem: MainMemory,
    watermark: Rc<Cell<u64>>,
    traffic: TrafficMatrix,
    dead_drops: u64,
    wb_blocks: u64,
    pb_fill_blocks: u64,
    l2_latency: u32,
    /// Live Parameter Buffer lines evicted dirty and written back: test
    /// coverage, not a hierarchy counter.
    live_pb_written: u64,
}

impl Reference {
    fn new(l2_params: CacheParams, mode: L2Mode) -> Self {
        let watermark = Rc::new(Cell::new(0));
        Reference {
            mode,
            l2: Cache::new(
                l2_params,
                Indexing::Modulo,
                L2Policy::new(mode, watermark.clone()),
            ),
            mem: MainMemory::new(MemoryParams::default()),
            watermark,
            traffic: TrafficMatrix::default(),
            dead_drops: 0,
            wb_blocks: 0,
            pb_fill_blocks: 0,
            l2_latency: l2_params.latency,
            live_pb_written: 0,
        }
    }

    fn access(&mut self, block: BlockAddr, kind: AccessKind, tag: PbTag) -> u32 {
        let region = Region::of_block(block);
        match kind {
            AccessKind::Read => self.traffic.record_l2_read(region),
            AccessKind::Write => self.traffic.record_l2_write(region),
        }
        let meta = AccessMeta::with_user(u64::MAX, tag.encode());
        let out = self.l2.access(block, kind, meta);
        let mut latency = self.l2_latency;
        if !out.hit && kind == AccessKind::Read {
            latency += self.mem.read(block);
            if region.is_parameter_buffer() {
                self.pb_fill_blocks += 1;
            }
        }
        if let Some(ev) = out.evicted.filter(|ev| ev.dirty) {
            let etag = PbTag::decode(ev.meta.user);
            if self.mode == L2Mode::TcorEnhanced && etag.is_dead(self.watermark.get()) {
                self.dead_drops += 1;
            } else {
                self.mem.write(ev.addr);
                self.wb_blocks += 1;
                self.live_pb_written += u64::from(etag.kind != PbKind::None);
            }
        }
        latency
    }

    fn warm_fill(&mut self, block: BlockAddr, tag: PbTag) {
        self.l2
            .fill_clean(block, AccessMeta::with_user(u64::MAX, tag.encode()));
    }

    fn reset_counters(&mut self) {
        self.l2.reset_stats();
        self.traffic = TrafficMatrix::default();
        self.mem.reset_counters();
        self.dead_drops = 0;
        self.wb_blocks = 0;
        self.pb_fill_blocks = 0;
    }

    fn end_frame(&mut self) {
        let Reference {
            l2,
            mem,
            mode,
            dead_drops,
            wb_blocks,
            ..
        } = self;
        l2.drain(|ev| {
            if ev.dirty {
                let pb = PbTag::decode(ev.meta.user).kind != PbKind::None;
                if *mode == L2Mode::TcorEnhanced && pb {
                    *dead_drops += 1;
                } else {
                    mem.write(ev.addr);
                    *wb_blocks += 1;
                }
            }
        });
        self.watermark.set(0);
    }
}

/// Every counter either side reports.
#[derive(Debug, PartialEq)]
struct Counters {
    l2: AccessStats,
    l2_traffic: TrafficMatrix,
    mm_traffic: TrafficMatrix,
    dead_drops: u64,
    wb_blocks: u64,
    pb_fill_blocks: u64,
    completed_tiles: u64,
}

impl Counters {
    fn of_kernel(h: &MemoryHierarchy) -> Self {
        Counters {
            l2: *h.l2_stats(),
            l2_traffic: *h.l2_traffic(),
            mm_traffic: *h.mm_traffic(),
            dead_drops: h.dead_drops(),
            wb_blocks: h.writeback_blocks(),
            pb_fill_blocks: h.pb_fill_blocks(),
            completed_tiles: h.completed_tiles(),
        }
    }

    fn of_reference(r: &Reference) -> Self {
        Counters {
            l2: *r.l2.stats(),
            l2_traffic: r.traffic,
            mm_traffic: *r.mem.traffic(),
            dead_drops: r.dead_drops,
            wb_blocks: r.wb_blocks,
            pb_fill_blocks: r.pb_fill_blocks,
            completed_tiles: r.watermark.get(),
        }
    }
}

/// A block of `region_base`'s region. Consecutive `i` stride 37 blocks,
/// so a pool spans many DRAM rows and every bank.
fn block_in(region_base: u64, i: u64) -> BlockAddr {
    BlockAddr(region_base / 64 + i * 37)
}

/// A tag for a block: a PB kind with a rank near the watermark (now and
/// then a saturated one), or, for one access in five, [`PbTag::NONE`],
/// which must not erase the tag of a line it hits.
fn tag_for(rng: &mut SmallRng, region: Region) -> PbTag {
    if rng.random_bool(0.2) {
        return PbTag::NONE;
    }
    let rank = if rng.random_bool(0.05) {
        TileRank::NEVER
    } else {
        TileRank(rng.random_range(0u32..24))
    };
    match region {
        Region::PbLists => PbTag::lists(rank),
        Region::PbAttributes => PbTag::attributes(rank),
        _ => PbTag::NONE,
    }
}

/// How often a stream hit the cases the kernel must get right.
#[derive(Debug, Default)]
struct Coverage {
    /// Dirty lines dropped dead, by eviction or drain.
    dead_drops: u64,
    /// Dirty lines written back, by eviction or drain.
    written_back: u64,
    /// Live PB lines evicted dirty and written back.
    live_pb_written: u64,
    /// `PbTag::NONE` accesses that hit a line with a PB tag.
    untagged_hits_on_tagged: u64,
    /// Warm fills of an absent block while every set was full.
    warm_fills_into_full: u64,
}

/// Drives `ops` seeded calls through the kernel's hierarchy and the
/// reference, checking every latency and, at every counter reset and at
/// the end, every counter.
fn differential(params: CacheParams, mode: L2Mode, seed: u64, ops: usize) -> Coverage {
    let mut kernel = MemoryHierarchy::new(params, MemoryParams::default(), mode);
    let mut reference = Reference::new(params, mode);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = Coverage::default();
    // About three blocks per line, so sets fill, evict and refill.
    let pool = 3 * params.num_lines().max(4);
    let bases = [
        bases::PB_LISTS,
        bases::PB_ATTRIBUTES,
        bases::TEXTURES,
        bases::VERTICES,
    ];
    let what = format!("{mode:?} {params:?} seed {seed:#x}");
    let tally = |seen: &mut Coverage, r: &Reference| {
        seen.dead_drops += r.dead_drops;
        seen.written_back += r.wb_blocks;
    };
    for op in 0..ops {
        let base = bases[rng.random_range(0..bases.len())];
        let block = block_in(base, rng.random_range(0..pool));
        let tag = tag_for(&mut rng, Region::of_block(block));
        let resident_tag = reference.l2.peek_meta(block).map(|m| m.user);
        match rng.random_range(0u32..100) {
            choice @ 0..=79 => {
                let kind = if choice < 45 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                seen.untagged_hits_on_tagged +=
                    u64::from(tag == PbTag::NONE && resident_tag.is_some_and(|t| t != 0));
                let (k, r) = (
                    kernel.access(block, kind, tag),
                    reference.access(block, kind, tag),
                );
                assert_eq!(k, r, "{what}: {kind:?} latency at op {op}");
            }
            80..=89 => {
                seen.warm_fills_into_full += u64::from(
                    resident_tag.is_none() && reference.l2.occupancy() as u64 == params.num_lines(),
                );
                kernel.warm_fill(block, tag);
                reference.warm_fill(block, tag);
            }
            90..=96 => {
                kernel.tile_done();
                reference.watermark.set(reference.watermark.get() + 1);
            }
            97 => {
                kernel.end_frame();
                reference.end_frame();
            }
            _ => {
                assert_eq!(
                    Counters::of_kernel(&kernel),
                    Counters::of_reference(&reference),
                    "{what}: counters before the frame boundary at op {op}"
                );
                tally(&mut seen, &reference);
                kernel.frame_boundary();
                kernel.reset_counters();
                reference.watermark.set(0);
                reference.reset_counters();
            }
        }
    }
    kernel.end_frame();
    reference.end_frame();
    assert_eq!(
        Counters::of_kernel(&kernel),
        Counters::of_reference(&reference),
        "{what}: final counters"
    );
    tally(&mut seen, &reference);
    seen.live_pb_written = reference.live_pb_written;
    seen
}

/// Geometries: direct-mapped, 2-, 8- and 16-way, with power-of-two and
/// other set counts, and fully associative.
fn geometries() -> Vec<CacheParams> {
    [
        (1, 5),
        (1, 8),
        (2, 3),
        (2, 16),
        (8, 7),
        (8, 8),
        (16, 3),
        (16, 4),
    ]
    .into_iter()
    .map(|(ways, sets)| CacheParams::new(ways * sets * 64, 64, ways as u32, 12))
    .chain([8, 24].map(|lines| CacheParams::new(lines * 64, 64, 0, 12)))
    .collect()
}

#[test]
fn the_kernel_agrees_with_the_engine_on_every_call() {
    for (g, params) in geometries().into_iter().enumerate() {
        for mode in [L2Mode::Baseline, L2Mode::TcorEnhanced] {
            let mut seen = Coverage::default();
            for seed in 0..3u64 {
                let run = differential(params, mode, ((0x1200 + g as u64) << 8) | seed, 4_000);
                seen.dead_drops += run.dead_drops;
                seen.written_back += run.written_back;
                seen.live_pb_written += run.live_pb_written;
                seen.untagged_hits_on_tagged += run.untagged_hits_on_tagged;
                seen.warm_fills_into_full += run.warm_fills_into_full;
            }
            // Every stream set must reach the cases that matter.
            let dead_expected = mode == L2Mode::TcorEnhanced;
            assert_eq!(
                seen.dead_drops > 0,
                dead_expected,
                "{params:?} {mode:?}: {seen:?}"
            );
            assert!(
                seen.written_back > 0
                    && seen.live_pb_written > 0
                    && seen.untagged_hits_on_tagged > 0
                    && seen.warm_fills_into_full > 0,
                "{params:?} {mode:?}: {seen:?}"
            );
        }
    }
}
