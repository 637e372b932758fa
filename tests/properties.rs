//! Cross-crate property tests: the paper's analytical invariants must
//! hold on arbitrary generated frames, not just the calibrated suite.

use tcor_cache::profile::{opt_misses, LruStackProfiler};
use tcor_common::{SmallRng, TileGrid, TileId, Traversal};
use tcor_pbuf::BinnedFrame;
use tcor_workloads::trace::{lower_bound_misses, primitive_trace};

const CASES: usize = 128;

/// A random binned frame on an 8x8-tile screen (seeded local PRNG — the
/// retired proptest strategy, deterministic).
fn random_frame(rng: &mut SmallRng) -> BinnedFrame {
    let grid = TileGrid::new(256, 256, 32);
    let order = Traversal::ZOrder.order(&grid);
    let prims: Vec<(u8, Vec<TileId>)> = (0..rng.random_range(1..40usize))
        .map(|_| {
            let attrs = rng.random_range(1..6u32) as u8;
            let tiles: Vec<TileId> = (0..rng.random_range(1..6usize))
                .map(|_| TileId(rng.random_range(0..64u32)))
                .collect();
            (attrs, tiles)
        })
        .collect();
    BinnedFrame::new(&prims, &order)
}

/// §V.A's lower bound really lower-bounds OPT (hence every policy)
/// at every capacity, on every frame.
#[test]
fn lower_bound_holds() {
    let mut rng = SmallRng::seed_from_u64(0xF00D_0001);
    for _case in 0..CASES {
        let frame = random_frame(&mut rng);
        let cap = rng.random_range(1..64usize);
        let grid = TileGrid::new(256, 256, 32);
        let order = Traversal::ZOrder.order(&grid);
        let trace = primitive_trace(&frame, &order);
        let lb = lower_bound_misses(frame.num_primitives(), cap);
        let opt = opt_misses(&trace, cap);
        assert!(lb <= opt, "LB {lb} > OPT {opt} at capacity {cap}");
    }
}

/// Belady's optimality over the PB stream: OPT ≤ LRU at every
/// capacity (fully associative).
#[test]
fn opt_never_worse_than_lru() {
    let mut rng = SmallRng::seed_from_u64(0xF00D_0002);
    for _case in 0..CASES {
        let frame = random_frame(&mut rng);
        let grid = TileGrid::new(256, 256, 32);
        let order = Traversal::ZOrder.order(&grid);
        let trace = primitive_trace(&frame, &order);
        let mut prof = LruStackProfiler::new();
        for a in &trace {
            prof.record(a.addr);
        }
        for cap in [1usize, 2, 4, 8, 16, 32] {
            assert!(opt_misses(&trace, cap) <= prof.misses_at(cap));
        }
    }
}

/// With capacity for every primitive, misses are exactly the
/// compulsory writes (TP) under OPT — the LB's flat region.
#[test]
fn compulsory_only_at_full_capacity() {
    let mut rng = SmallRng::seed_from_u64(0xF00D_0003);
    for _case in 0..CASES {
        let frame = random_frame(&mut rng);
        let grid = TileGrid::new(256, 256, 32);
        let order = Traversal::ZOrder.order(&grid);
        let trace = primitive_trace(&frame, &order);
        let tp = frame.num_primitives();
        assert_eq!(opt_misses(&trace, tp.max(1)), tp as u64);
    }
}

/// Every PMD the Polygon List Builder writes is read exactly once by
/// the Tile Fetcher: reads in the trace equal total binned pairs.
#[test]
fn trace_access_counts() {
    let mut rng = SmallRng::seed_from_u64(0xF00D_0004);
    for _case in 0..CASES {
        let frame = random_frame(&mut rng);
        let grid = TileGrid::new(256, 256, 32);
        let order = Traversal::ZOrder.order(&grid);
        let trace = primitive_trace(&frame, &order);
        let writes = trace.iter().filter(|a| a.kind.is_write()).count();
        let reads = trace.len() - writes;
        assert_eq!(writes, frame.num_primitives());
        assert_eq!(reads, frame.total_pmds());
    }
}

/// OPT numbers are consistent: walking a primitive's uses through
/// `next_use_after` visits exactly its tile ranks in order.
#[test]
fn opt_number_chain_visits_all_uses() {
    let mut rng = SmallRng::seed_from_u64(0xF00D_0005);
    for _case in 0..CASES {
        let frame = random_frame(&mut rng);
        for p in frame.primitives() {
            let mut visited = vec![p.first_use()];
            loop {
                let next = p.next_use_after(*visited.last().unwrap());
                if next.is_never() {
                    break;
                }
                visited.push(next);
            }
            assert_eq!(&visited, &p.tile_ranks);
        }
    }
}

/// The TCOR attribute cache never reports more resident attributes than
/// its buffer holds, across random operation sequences.
#[test]
fn attribute_cache_capacity_respected_under_churn() {
    use tcor::{AttributeCache, AttributeCacheConfig, ReadResult};
    use tcor_common::{PrimitiveId, TileRank};

    let cfg = AttributeCacheConfig {
        ways: 4,
        pb_lines: 16,
        ab_entries: 32,
        indexing: tcor_cache::Indexing::Xor,
        write_bypass: true,
    };
    let mut c = AttributeCache::new(cfg);
    let mut queued: Vec<PrimitiveId> = Vec::new();
    for i in 0..500u32 {
        let prim = PrimitiveId(i % 97);
        let attrs = 1 + (i % 5) as u8;
        if i % 3 == 0 && !c.contains(prim) {
            let _ = c.write(prim, attrs, TileRank(i % 40), drop);
        } else {
            match c.read(prim, attrs, TileRank(i % 40 + 1), drop) {
                ReadResult::Stalled => {
                    for q in queued.drain(..) {
                        c.unlock(q);
                    }
                }
                _ => queued.push(prim),
            }
            if queued.len() > 8 {
                c.unlock(queued.remove(0));
            }
        }
        assert!(c.free_entries() <= cfg.ab_entries);
        assert!(c.resident_primitives() <= cfg.pb_lines);
    }
    c.drain(drop);
    assert_eq!(c.free_entries(), cfg.ab_entries);
}
