//! Conservation audits over a [`FrameReport`].
//!
//! Each invariant compares counters maintained at *independent* code
//! sites, so a bookkeeping bug at either site breaks the balance instead
//! of cancelling out:
//!
//! 1. **Classification** — every structure's probe count (bumped once at
//!    the access entry point) equals its classified hits + misses.
//! 2. **L2 classification** — same balance for the shared L2.
//! 3. **L2 demand** — the L2 engine's probe count equals the traffic
//!    matrix's total L2 accesses (recorded at the hierarchy entry, before
//!    the cache is consulted).
//! 4. **Write-back containment** — every block the L1 Tile Cache side
//!    writes back (tile$/list$ dirty evictions plus Attribute Cache
//!    dirty-eviction blocks) arrives at the L2 as a Parameter-Buffer
//!    write. Bypassed attribute writes also land there, so this is a `<=`.
//! 5. **DRAM PB fills** — Parameter-Buffer blocks counted at the L2's
//!    fill site equal the DRAM model's own PB read count (PB bytes from
//!    DRAM == fills x line size).
//! 6. **Disposal** — every dirty L2 eviction is either written to DRAM
//!    or dropped dead: `writebacks == wb_blocks + dead_drops`.
//! 7. **OPT optimality** — the Attribute Cache's self-check found no
//!    victim with a nearer next-use than a surviving candidate.

use tcor::FrameReport;

/// One failed conservation check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Short stable name of the invariant ("probes", "l2-demand", …).
    pub invariant: &'static str,
    /// Human-readable imbalance, with both sides of the equation.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

fn check(
    out: &mut Vec<Violation>,
    invariant: &'static str,
    ok: bool,
    detail: impl FnOnce() -> String,
) {
    if !ok {
        out.push(Violation {
            invariant,
            detail: detail(),
        });
    }
}

/// Audits every conservation invariant of one frame report. `label`
/// names the cell (e.g. `"srs/tcor64"`) in the violation text. Returns
/// the empty vector when the report balances.
pub fn audit_report(label: &str, r: &FrameReport) -> Vec<Violation> {
    let mut v = Vec::new();

    // 1. Per-structure classification balance.
    for s in &r.structures {
        let classified = s.stats.hits() + s.stats.misses();
        check(&mut v, "probes", s.stats.probes == classified, || {
            format!(
                "{label}: {} probes {} != hits+misses {}",
                s.name, s.stats.probes, classified
            )
        });
    }

    // 2. L2 classification balance.
    let l2_classified = r.l2_stats.hits() + r.l2_stats.misses();
    check(&mut v, "probes", r.l2_stats.probes == l2_classified, || {
        format!(
            "{label}: L2 probes {} != hits+misses {}",
            r.l2_stats.probes, l2_classified
        )
    });

    // 3. L2 demand: engine-side probe count vs hierarchy-side traffic.
    let l2_demand = r.total_l2_accesses();
    check(&mut v, "l2-demand", r.l2_stats.probes == l2_demand, || {
        format!(
            "{label}: L2 probes {} != traffic-matrix L2 accesses {}",
            r.l2_stats.probes, l2_demand
        )
    });

    // 4. L1 write-backs are contained in the L2's PB write stream.
    let l1_pb_writebacks: u64 = r
        .structures
        .iter()
        .filter(|s| matches!(s.name, "tile$" | "list$"))
        .map(|s| s.stats.writebacks)
        .sum::<u64>()
        + r.attr_wb_blocks;
    check(
        &mut v,
        "wb-containment",
        l1_pb_writebacks <= r.pb_l2_writes(),
        || {
            format!(
                "{label}: L1 PB write-backs {} exceed PB writes at the L2 {}",
                l1_pb_writebacks,
                r.pb_l2_writes()
            )
        },
    );

    // 5. PB fills counted at the L2 fill site vs DRAM's own PB reads.
    check(
        &mut v,
        "pb-dram-fills",
        r.pb_fill_blocks == r.pb_mm_reads(),
        || {
            format!(
                "{label}: PB fill blocks {} != DRAM PB reads {}",
                r.pb_fill_blocks,
                r.pb_mm_reads()
            )
        },
    );

    // 6. Dirty-eviction disposal balance.
    let disposed = r.l2_wb_blocks + r.dead_drops;
    check(
        &mut v,
        "wb-disposal",
        r.l2_stats.writebacks == disposed,
        || {
            format!(
                "{label}: L2 writebacks {} != DRAM write-backs {} + dead drops {}",
                r.l2_stats.writebacks, r.l2_wb_blocks, r.dead_drops
            )
        },
    );

    // 7. OPT self-check.
    check(&mut v, "opt-victim", r.attr_opt_violations == 0, || {
        format!(
            "{label}: Attribute Cache evicted {} victim(s) with a nearer \
             next-use than a surviving candidate",
            r.attr_opt_violations
        )
    });

    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor::{System, SystemConfig};
    use tcor_common::Tri2;
    use tcor_gpu::{Scene, ScenePrimitive};

    fn scene(n: u32) -> Scene {
        (0..n)
            .map(|i| {
                let x = (i as f32 * 97.0) % 1800.0;
                let y = (i as f32 * 53.0) % 700.0;
                ScenePrimitive {
                    tri: Tri2::new((x, y), (x + 40.0, y), (x, y + 40.0)),
                    attr_count: 1 + (i % 5) as u8,
                }
            })
            .collect()
    }

    #[test]
    fn real_runs_balance() {
        let s = scene(800);
        for (label, r) in [
            (
                "base64",
                System::new(SystemConfig::paper_baseline_64k()).run_frame(&s),
            ),
            (
                "tcor64",
                System::new(SystemConfig::paper_tcor_64k()).run_frame(&s),
            ),
            (
                "tcor_nol2_64",
                System::new(SystemConfig::paper_tcor_64k().without_l2_enhancements()).run_frame(&s),
            ),
        ] {
            let violations = audit_report(label, &r);
            assert!(violations.is_empty(), "{label}: {violations:?}");
        }
    }

    #[test]
    fn each_tampered_counter_is_caught() {
        let s = scene(200);
        let clean = System::new(SystemConfig::paper_tcor_64k()).run_frame(&s);
        assert!(audit_report("clean", &clean).is_empty());

        type Tamper = fn(&mut tcor::FrameReport);
        let cases: [(&str, Tamper); 5] = [
            ("probes", |r| r.structures[0].stats.probes += 1),
            ("l2-demand", |r| r.l2_stats.probes += 1),
            ("pb-dram-fills", |r| r.pb_fill_blocks += 1),
            ("wb-disposal", |r| r.dead_drops += 1),
            ("opt-victim", |r| r.attr_opt_violations = 2),
        ];
        for (expect, tamper) in cases {
            let mut r = clean.clone();
            tamper(&mut r);
            let violations = audit_report("tampered", &r);
            assert!(
                violations.iter().any(|v| v.invariant == expect),
                "tampering should trip `{expect}`, got {violations:?}"
            );
        }
    }

    #[test]
    fn violation_displays_invariant_and_detail() {
        let v = Violation {
            invariant: "probes",
            detail: "x: tile$ probes 3 != hits+misses 2".to_string(),
        };
        assert_eq!(v.to_string(), "[probes] x: tile$ probes 3 != hits+misses 2");
    }
}
