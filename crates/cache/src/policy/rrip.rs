//! Re-Reference Interval Prediction policies (Jaleel et al. \[22\]).
//!
//! The paper compares TCOR's OPT against **DRRIP (M=2)** in Fig. 13. All
//! three family members are provided: static SRRIP, bimodal BRRIP and
//! set-dueling DRRIP.

use super::ReplacementPolicy;
use crate::meta::AccessMeta;

/// Width of the RRPV counters; the paper's comparison uses M = 2.
pub const RRPV_BITS: u8 = 2;
const MAX_RRPV: u8 = (1 << RRPV_BITS) - 1; // 3 = "distant future"

/// BRRIP inserts at `MAX_RRPV - 1` once every `BIP_EPSILON` fills,
/// otherwise at `MAX_RRPV` (the bimodal throttle of \[22\]).
const BIP_EPSILON: u32 = 32;

#[derive(Clone, Debug, Default)]
struct RripState {
    rrpv: Vec<u8>,
    ways: usize,
}

impl RripState {
    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.ways = ways;
        self.rrpv = vec![MAX_RRPV; num_sets * ways];
    }

    fn hit(&mut self, set: usize, way: usize) {
        // Hit promotion: RRPV = 0 ("near-immediate re-reference").
        self.rrpv[set * self.ways + way] = 0;
    }

    fn fill(&mut self, set: usize, way: usize, rrpv: u8) {
        self.rrpv[set * self.ways + way] = rrpv;
    }

    fn victim(&mut self, set: usize, n: usize) -> usize {
        let base = set * self.ways;
        loop {
            if let Some(w) = (0..n).find(|&w| self.rrpv[base + w] >= MAX_RRPV) {
                return w;
            }
            for w in 0..n {
                self.rrpv[base + w] += 1;
            }
        }
    }
}

/// Static RRIP: always inserts at `MAX_RRPV - 1` ("long re-reference
/// interval"), promotes to 0 on hit.
#[derive(Clone, Debug, Default)]
pub struct Srrip {
    state: RripState,
}

impl Srrip {
    /// Creates an SRRIP policy (M = 2).
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> &'static str {
        "SRRIP"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.state.attach(num_sets, ways);
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.state.hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.state.fill(set, way, MAX_RRPV - 1);
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        self.state.victim(set, metas.len())
    }

    fn set_local(&self) -> bool {
        // Static insertion + per-line RRPVs; aging sweeps touch only
        // the victim's set.
        true
    }
}

/// Bimodal RRIP: inserts at `MAX_RRPV` (distant) most of the time,
/// at `MAX_RRPV - 1` once every `BIP_EPSILON` (32) fills — thrash-resistant.
#[derive(Clone, Debug, Default)]
pub struct Brrip {
    state: RripState,
    fill_count: u32,
}

impl Brrip {
    /// Creates a BRRIP policy (M = 2, ε = 1/32).
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Brrip {
    fn name(&self) -> &'static str {
        "BRRIP"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.state.attach(num_sets, ways);
        self.fill_count = 0;
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.state.hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.fill_count = self.fill_count.wrapping_add(1);
        let rrpv = if self.fill_count.is_multiple_of(BIP_EPSILON) {
            MAX_RRPV - 1
        } else {
            MAX_RRPV
        };
        self.state.fill(set, way, rrpv);
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        self.state.victim(set, metas.len())
    }

    fn set_local(&self) -> bool {
        // The bimodal throttle is a single fill counter across ALL
        // sets; a per-set replay would re-time the epsilon insertions.
        false
    }
}

/// Dynamic RRIP: set dueling between SRRIP and BRRIP insertion with a
/// saturating PSEL counter; follower sets use whichever leader is winning.
/// This is the configuration the paper compares against in Fig. 13
/// ("DRRIP (M=2)").
#[derive(Clone, Debug)]
pub struct Drrip {
    state: RripState,
    fill_count: u32,
    psel: i32,
    psel_max: i32,
    duel_period: usize,
}

impl Drrip {
    /// Creates a DRRIP policy with a 10-bit PSEL and 1-in-32 leader sets.
    pub fn new() -> Self {
        Drrip {
            state: RripState::default(),
            fill_count: 0,
            psel: 0,
            psel_max: 512,
            duel_period: 32,
        }
    }

    /// Leader-set classification: `Some(true)` = SRRIP leader,
    /// `Some(false)` = BRRIP leader, `None` = follower.
    fn leader(&self, set: usize) -> Option<bool> {
        match set % self.duel_period {
            0 => Some(true),
            1 => Some(false),
            _ => None,
        }
    }

    /// True when followers currently use SRRIP insertion.
    pub fn followers_use_srrip(&self) -> bool {
        self.psel <= 0
    }
}

impl Default for Drrip {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> &'static str {
        "DRRIP"
    }

    fn attach(&mut self, num_sets: usize, ways: usize) {
        self.state.attach(num_sets, ways);
        self.fill_count = 0;
        self.psel = 0;
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.state.hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        // A fill is a miss: leaders steer PSEL (miss in SRRIP leader ->
        // favour BRRIP, and vice versa).
        match self.leader(set) {
            Some(true) => self.psel = (self.psel + 1).min(self.psel_max),
            Some(false) => self.psel = (self.psel - 1).max(-self.psel_max),
            None => {}
        }
        let use_srrip = match self.leader(set) {
            Some(l) => l,
            None => self.followers_use_srrip(),
        };
        self.fill_count = self.fill_count.wrapping_add(1);
        // SRRIP insertion, or BRRIP's occasional long-interval insertion.
        let long_interval = use_srrip || self.fill_count.is_multiple_of(BIP_EPSILON);
        let rrpv = if long_interval {
            MAX_RRPV - 1
        } else {
            MAX_RRPV
        };
        self.state.fill(set, way, rrpv);
    }

    fn victim(&mut self, set: usize, metas: &[AccessMeta]) -> usize {
        self.state.victim(set, metas.len())
    }

    fn set_local(&self) -> bool {
        // Set dueling: leader sets steer a global PSEL that decides
        // follower insertion — inherently cross-set.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::index::Indexing;
    use crate::meta::AccessKind;
    use tcor_common::{BlockAddr, CacheParams};

    #[test]
    fn srrip_promotes_on_hit() {
        let mut p = Srrip::new();
        p.attach(1, 2);
        let metas = [AccessMeta::NONE; 2];
        p.on_fill(0, 0, &AccessMeta::NONE); // rrpv 2
        p.on_fill(0, 1, &AccessMeta::NONE); // rrpv 2
        p.on_hit(0, 0, &AccessMeta::NONE); // rrpv 0
                                           // Aging: both < 3, so the loop ages until way 1 reaches 3 first.
        assert_eq!(p.victim(0, &metas), 1);
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Brrip::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_fill(0, w, &AccessMeta::NONE);
        }
        // First 4 fills are all distant (epsilon = 32).
        assert!(p.state.rrpv[..4].iter().all(|&r| r == MAX_RRPV));
    }

    #[test]
    fn drrip_psel_moves_toward_brrip_on_srrip_leader_misses() {
        let mut p = Drrip::new();
        p.attach(64, 4);
        let before = p.psel;
        for _ in 0..10 {
            p.on_fill(0, 0, &AccessMeta::NONE); // set 0 = SRRIP leader
        }
        assert!(p.psel > before);
        assert!(!p.followers_use_srrip());
    }

    #[test]
    fn drrip_runs_in_cache_without_panic() {
        let mut cache = Cache::new(
            CacheParams::new(64 * 64, 64, 4, 1),
            Indexing::Modulo,
            Drrip::new(),
        );
        for i in 0..10_000u64 {
            let addr = (i * 7919) % 4096;
            cache.access(BlockAddr(addr), AccessKind::Read, AccessMeta::NONE);
        }
        assert_eq!(cache.stats().accesses(), 10_000);
        assert!(cache.stats().misses() > 0);
    }

    #[test]
    fn rrip_aging_terminates() {
        let mut s = RripState::default();
        s.attach(1, 4);
        for w in 0..4 {
            s.fill(0, w, 0);
        }
        // All at 0: victim must age everyone up to MAX and return way 0.
        assert_eq!(s.victim(0, 4), 0);
        assert!(s.rrpv[..4].iter().all(|&r| r == MAX_RRPV));
    }
}
