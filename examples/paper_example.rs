//! The paper's worked example (§III.C.7, Figures 9 and 10): 3 primitives,
//! 9 tiles, a Tile Cache with room for exactly two primitives, scanline
//! traversal — LRU versus TCOR's OPT, access by access.
//!
//! ```text
//! cargo run --example paper_example
//! ```
//!
//! Prim 0 covers the left column (tiles 0,3,6), prim 1 the top-right
//! (tiles 1,2), prim 2 the bottom-right block (tiles 4,5,7,8):
//!
//! ```text
//!   +---+---+---+        0: prim0   1: prim1   2: prim1
//!   | 0 | 1 | 1 |        3: prim0   4: prim2   5: prim2
//!   +---+---+---+        6: prim0   7: prim2   8: prim2
//!   | 0 | 2 | 2 |
//!   +---+---+---+
//!   | 0 | 2 | 2 |
//!   +---+---+---+
//! ```

use tcor::{AttributeCache, AttributeCacheConfig, ReadResult, WriteResult};
use tcor_cache::policy::Lru;
use tcor_cache::{AccessKind, AccessMeta, Cache, Indexing};
use tcor_common::{BlockAddr, CacheParams, TileGrid, TileId, Traversal};
use tcor_pbuf::BinnedFrame;

fn main() {
    let grid = TileGrid::new(96, 96, 32); // 3x3 tiles
    let order = Traversal::Scanline.order(&grid);
    let t = |i: u32| TileId(i);
    let frame = BinnedFrame::new(
        &[
            (3, vec![t(0), t(3), t(6)]),       // prim 0
            (3, vec![t(1), t(2)]),             // prim 1
            (3, vec![t(4), t(5), t(7), t(8)]), // prim 2
        ],
        &order,
    );

    // --- LRU side: a 2-line fully-associative cache at primitive
    // granularity (what the baseline's replacement does to this stream).
    let mut lru = Cache::new(
        CacheParams::new(128, 64, 0, 1),
        Indexing::Modulo,
        Lru::new(),
    );
    let (mut lru_l2_reads, mut lru_l2_writes) = (0u32, 0u32);

    // --- OPT side: TCOR's Attribute Cache with 2 primitive slots.
    let mut opt = AttributeCache::new(AttributeCacheConfig {
        ways: 2,
        pb_lines: 2,
        ab_entries: 6,
        indexing: tcor_cache::Indexing::Xor,
        write_bypass: true,
    });
    let (mut opt_l2_reads, mut opt_l2_writes) = (0u32, 0u32);

    println!("=== Polygon List Builder writes ===");
    for p in frame.primitives() {
        // LRU: write-allocate; dirty evictions write to L2.
        let out = lru.access(
            BlockAddr(p.id.0 as u64),
            AccessKind::Write,
            AccessMeta::NONE,
        );
        let lru_note = match out.evicted {
            Some(e) if e.dirty => {
                lru_l2_writes += 1;
                format!("evicts P{} -> L2 write", e.addr.0)
            }
            Some(e) => format!("evicts P{}", e.addr.0),
            None => "allocates".to_string(),
        };
        // OPT: compare OPT numbers; bypass if every resident is sooner.
        let mut evicted = Vec::new();
        let opt_note = match opt.write(p.id, p.attr_count, p.first_use(), |e| evicted.push(e)) {
            WriteResult::Allocated if evicted.is_empty() => "allocates".to_string(),
            WriteResult::Allocated => {
                opt_l2_writes += evicted.iter().filter(|e| e.dirty).count() as u32;
                format!("evicts {:?} -> L2 write(s)", evicted[0].prim)
            }
            WriteResult::Bypassed => {
                opt_l2_writes += 1;
                "BYPASSED to L2".to_string()
            }
        };
        println!(
            "write {:?} (first use tile rank {:?}):  LRU {lru_note};  OPT {opt_note}",
            p.id,
            p.first_use().value(),
        );
    }

    println!();
    println!("=== Tile Fetcher reads (scanline order) ===");
    for tile in order.iter() {
        for &prim in frame.tile_list(tile) {
            let p = frame.primitive(prim);
            // LRU.
            let out = lru.access(BlockAddr(prim.0 as u64), AccessKind::Read, AccessMeta::NONE);
            let lru_note = if out.hit {
                "hit".to_string()
            } else {
                lru_l2_reads += 1;
                match out.evicted {
                    Some(e) if e.dirty => {
                        lru_l2_writes += 1;
                        format!("MISS (L2 read, evicts P{} -> L2 write)", e.addr.0)
                    }
                    _ => "MISS (L2 read)".to_string(),
                }
            };
            // OPT.
            let opt_number = p.next_use_after(order.rank_of(tile));
            let mut dirty_evictions = 0;
            let opt_note = match opt.read(prim, p.attr_count, opt_number, |e| {
                dirty_evictions += u32::from(e.dirty)
            }) {
                ReadResult::Hit => "hit".to_string(),
                ReadResult::Miss => {
                    opt_l2_reads += 1;
                    opt_l2_writes += dirty_evictions;
                    "MISS (L2 read)".to_string()
                }
                ReadResult::Stalled => unreachable!("rasterizer consumes immediately here"),
            };
            opt.unlock(prim); // the Rasterizer consumes right away
            println!(
                "tile {} reads {:?} (next use {}):  LRU {lru_note};  OPT {opt_note}",
                tile.0,
                prim,
                if opt_number.is_never() {
                    "never".to_string()
                } else {
                    format!("rank {}", opt_number.value())
                },
            );
        }
    }

    println!();
    println!("=== Totals ===");
    println!("LRU: {lru_l2_reads} L2 reads, {lru_l2_writes} L2 writes");
    println!("OPT: {opt_l2_reads} L2 reads, {opt_l2_writes} L2 writes");
    assert!(
        opt_l2_reads < lru_l2_reads,
        "the paper's example: OPT avoids LRU's re-fetches"
    );
    println!(
        "\nOPT avoids {} L2 reads — exactly the Fig. 10 story.",
        lru_l2_reads - opt_l2_reads
    );
}
