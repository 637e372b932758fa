//! Integration test: the paper's worked example (§III.C.7, Figures 9–10)
//! reproduced state by state.
//!
//! 3 primitives, 9 tiles, a Tile Cache holding two primitives, scanline
//! traversal. The paper's narrative, asserted:
//!
//! 1. the first L2 write happens at the *third* PLB write — a dirty
//!    write-back for LRU, a **bypass** for OPT;
//! 2. OPT retains both early-use primitives through the writes, so the
//!    tile-0/1/2 reads hit where LRU misses;
//! 3. at the blue primitive's first read both miss, but OPT evicts the
//!    primitive that will never be used again.

use tcor::{AttributeCache, AttributeCacheConfig, ReadResult, WriteResult};
use tcor_cache::policy::Lru;
use tcor_cache::{AccessKind, AccessMeta, Cache, Indexing};
use tcor_common::{BlockAddr, CacheParams, PrimitiveId, TileGrid, TileId, Traversal};
use tcor_pbuf::BinnedFrame;

fn example_frame() -> (BinnedFrame, tcor_common::TraversalOrder) {
    let grid = TileGrid::new(96, 96, 32);
    let order = Traversal::Scanline.order(&grid);
    let t = |i: u32| TileId(i);
    let frame = BinnedFrame::new(
        &[
            (3, vec![t(0), t(3), t(6)]),
            (3, vec![t(1), t(2)]),
            (3, vec![t(4), t(5), t(7), t(8)]),
        ],
        &order,
    );
    (frame, order)
}

#[test]
fn third_write_is_writeback_for_lru_but_bypass_for_opt() {
    let (frame, _) = example_frame();
    let mut lru = Cache::new(
        CacheParams::new(128, 64, 0, 1),
        Indexing::Modulo,
        Lru::new(),
    );
    let mut opt = AttributeCache::new(AttributeCacheConfig {
        ways: 2,
        pb_lines: 2,
        ab_entries: 6,
        indexing: tcor_cache::Indexing::Xor,
        write_bypass: true,
    });

    for (i, p) in frame.primitives().iter().enumerate() {
        let lru_out = lru.access(
            BlockAddr(p.id.0 as u64),
            AccessKind::Write,
            AccessMeta::NONE,
        );
        let mut opt_evicted = Vec::new();
        let opt_out = opt.write(p.id, p.attr_count, p.first_use(), |e| opt_evicted.push(e));
        if i < 2 {
            assert!(lru_out.evicted.is_none());
            assert_eq!(opt_out, WriteResult::Allocated);
            assert_eq!(opt_evicted, []);
        } else {
            // Third write: LRU evicts a dirty line (L2 write-back)...
            let ev = lru_out.evicted.expect("LRU evicts on the third write");
            assert!(ev.dirty, "the evicted primitive was dirty");
            // ...whereas OPT bypasses because prim 2's first use (tile 4)
            // is later than both residents' (tiles 0 and 1).
            assert_eq!(opt_out, WriteResult::Bypassed);
        }
    }
    // OPT retained both early primitives.
    assert!(opt.contains(PrimitiveId(0)));
    assert!(opt.contains(PrimitiveId(1)));
}

#[test]
fn opt_avoids_lru_rereads_and_evicts_dead_primitives() {
    let (frame, order) = example_frame();
    let mut lru = Cache::new(
        CacheParams::new(128, 64, 0, 1),
        Indexing::Modulo,
        Lru::new(),
    );
    let mut opt = AttributeCache::new(AttributeCacheConfig {
        ways: 2,
        pb_lines: 2,
        ab_entries: 6,
        indexing: tcor_cache::Indexing::Xor,
        write_bypass: true,
    });
    for p in frame.primitives() {
        lru.access(
            BlockAddr(p.id.0 as u64),
            AccessKind::Write,
            AccessMeta::NONE,
        );
        let _ = opt.write(p.id, p.attr_count, p.first_use(), drop);
    }

    let mut lru_read_misses = 0u32;
    let mut opt_read_misses = 0u32;
    let mut opt_dead_evictions = 0u32;
    for tile in order.iter() {
        for &prim in frame.tile_list(tile) {
            let p = frame.primitive(prim);
            if !lru
                .access(BlockAddr(prim.0 as u64), AccessKind::Read, AccessMeta::NONE)
                .hit
            {
                lru_read_misses += 1;
            }
            let mut evicted = Vec::new();
            let opt_number = p.next_use_after(order.rank_of(tile));
            match opt.read(prim, p.attr_count, opt_number, |e| evicted.push(e)) {
                ReadResult::Hit => {}
                ReadResult::Miss => {
                    opt_read_misses += 1;
                    // Fig. 10: OPT evicts the yellow primitive (P1),
                    // "which will never be accessed again".
                    for e in &evicted {
                        if frame.primitive(e.prim).last_use() < order.rank_of(tile) {
                            opt_dead_evictions += 1;
                        }
                    }
                }
                ReadResult::Stalled => panic!("no stalls in the example"),
            }
            opt.unlock(prim);
        }
    }

    // The paper's example: OPT misses only the blue primitive's first
    // read (a compulsory miss after the bypass); LRU re-misses the
    // primitives it threw away.
    assert_eq!(opt_read_misses, 1);
    assert!(lru_read_misses > opt_read_misses);
    assert_eq!(opt_dead_evictions, 1, "OPT evicted the dead primitive");
}

#[test]
fn opt_numbers_in_the_example_match_the_figure() {
    let (frame, order) = example_frame();
    let p0 = frame.primitive(PrimitiveId(0));
    let p2 = frame.primitive(PrimitiveId(2));
    // Fig. 10's OPT column: after tile 0 reads P0, its OPT number is 3;
    // after tile 3 it is 6; after tile 6 it is "." (never).
    assert_eq!(p0.next_use_after(order.rank_of(TileId(0))).value(), 3);
    assert_eq!(p0.next_use_after(order.rank_of(TileId(3))).value(), 6);
    assert!(p0.next_use_after(order.rank_of(TileId(6))).is_never());
    // P2's write carries OPT number 4 (its first tile).
    assert_eq!(p2.first_use().value(), 4);
}
