//! Figure 10: the worked example's access-by-access event log as a
//! harness table (the runnable walkthrough lives in
//! `examples/paper_example.rs`).

use crate::output::Table;
use tcor::{AttributeCache, AttributeCacheConfig, ReadResult, WriteResult};
use tcor_cache::policy::Lru;
use tcor_cache::{AccessKind, AccessMeta, Cache, Indexing};
use tcor_common::{BlockAddr, CacheParams, TileGrid, TileId, Traversal};
use tcor_pbuf::BinnedFrame;

/// Regenerates the Fig. 10 event sequence: twelve accesses (3 PLB
/// writes + 9 Tile Fetcher reads) through a two-primitive cache under
/// LRU and under TCOR's OPT.
pub fn fig10() -> Table {
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

    let mut lru = Cache::new(
        CacheParams::new(128, 64, 0, 1),
        Indexing::Modulo,
        Lru::new(),
    );
    let mut opt = AttributeCache::new(AttributeCacheConfig {
        ways: 2,
        pb_lines: 2,
        ab_entries: 6,
        indexing: Indexing::Xor,
        write_bypass: true,
    });

    let mut table = Table::new(
        "fig10",
        "The worked example (Fig. 9/10): LRU vs OPT, access by access",
        &["access", "lru_event", "opt_event"],
    );

    for p in frame.primitives() {
        let lru_out = lru.access(
            BlockAddr(p.id.0 as u64),
            AccessKind::Write,
            AccessMeta::NONE,
        );
        let lru_event = match lru_out.evicted {
            Some(e) if e.dirty => format!("evict P{} + L2 write", e.addr.0),
            Some(e) => format!("evict P{}", e.addr.0),
            None => "allocate".to_string(),
        };
        let mut evicted = Vec::new();
        let opt_event = match opt.write(p.id, p.attr_count, p.first_use(), |e| evicted.push(e)) {
            WriteResult::Allocated => match evicted.first() {
                None => "allocate".to_string(),
                Some(e) => format!("evict {:?}", e.prim),
            },
            WriteResult::Bypassed => "bypass to L2".to_string(),
        };
        table.push_row(vec![
            format!("PLB write P{} (OPT#{})", p.id.0, p.first_use().value()),
            lru_event,
            opt_event,
        ]);
    }
    for tile in order.iter() {
        for &prim in frame.tile_list(tile) {
            let p = frame.primitive(prim);
            let lru_out = lru.access(BlockAddr(prim.0 as u64), AccessKind::Read, AccessMeta::NONE);
            let lru_event = if lru_out.hit {
                "hit".to_string()
            } else {
                match lru_out.evicted {
                    Some(e) if e.dirty => format!("MISS, evict P{} + L2 write", e.addr.0),
                    _ => "MISS".to_string(),
                }
            };
            let nxt = p.next_use_after(order.rank_of(tile));
            let mut evicted = Vec::new();
            let opt_event = match opt.read(prim, p.attr_count, nxt, |e| evicted.push(e)) {
                ReadResult::Hit => "hit".to_string(),
                ReadResult::Miss => match evicted.first() {
                    None => "MISS".to_string(),
                    Some(e) => format!("MISS, evict {:?}", e.prim),
                },
                ReadResult::Stalled => unreachable!("example never stalls"),
            };
            opt.unlock(prim);
            table.push_row(vec![
                format!("T{} read P{}", tile.0, prim.0),
                lru_event,
                opt_event,
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_has_twelve_accesses() {
        let t = fig10();
        assert_eq!(t.rows.len(), 12);
        // The third write: LRU evicts+writes back, OPT bypasses.
        assert!(t.rows[2][1].contains("L2 write"));
        assert_eq!(t.rows[2][2], "bypass to L2");
        // OPT hits everywhere except the bypassed primitive's first read.
        let opt_misses = t.rows[3..].iter().filter(|r| r[2].contains("MISS")).count();
        assert_eq!(opt_misses, 1);
    }
}
