//! Access-statistics counters shared by every cache model.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Hit/miss/write-back counters for one cache structure.
///
/// `AccessStats` is a plain accumulator: models bump the counters, the
/// experiment harness reads ratios. It forms a commutative monoid under
/// `+`, so per-benchmark stats can be summed into suite aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Read requests that hit.
    pub read_hits: u64,
    /// Read requests that missed.
    pub read_misses: u64,
    /// Write requests that hit.
    pub write_hits: u64,
    /// Write requests that missed.
    pub write_misses: u64,
    /// Dirty evictions written back to the next level.
    pub writebacks: u64,
    /// Writes bypassed directly to the next level (TCOR §III.C.4).
    pub bypasses: u64,
    /// Dirty lines dropped without write-back because they were dead
    /// (TCOR L2 enhancement, §III.D.2).
    pub dead_drops: u64,
    /// Requests observed at the structure's entry point. Bumped at a code
    /// site *independent* of the hit/miss classification so the audit
    /// layer can check the conservation invariant
    /// `probes == hits() + misses()`; `record_read`/`record_write` never
    /// touch it. Zero means the owning model does not probe-count.
    pub probes: u64,
}

impl AccessStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total read accesses.
    pub fn reads(&self) -> u64 {
        self.read_hits + self.read_misses
    }

    /// Total write accesses.
    pub fn writes(&self) -> u64 {
        self.write_hits + self.write_misses
    }

    /// Total accesses (reads + writes; bypasses are not accesses to *this*
    /// structure and are excluded).
    pub fn accesses(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }

    /// Miss ratio over all accesses; `0.0` when there were none.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses() as f64 / total as f64
        }
    }

    /// Miss ratio over reads only; `0.0` when there were none.
    #[cfg(test)]
    pub fn read_miss_ratio(&self) -> f64 {
        let total = self.reads();
        if total == 0 {
            0.0
        } else {
            self.read_misses as f64 / total as f64
        }
    }

    /// Records a read with the given outcome.
    pub fn record_read(&mut self, hit: bool) {
        if hit {
            self.read_hits += 1;
        } else {
            self.read_misses += 1;
        }
    }

    /// Records a write with the given outcome.
    pub fn record_write(&mut self, hit: bool) {
        if hit {
            self.write_hits += 1;
        } else {
            self.write_misses += 1;
        }
    }
}

impl Add for AccessStats {
    type Output = AccessStats;

    fn add(self, rhs: AccessStats) -> AccessStats {
        AccessStats {
            read_hits: self.read_hits + rhs.read_hits,
            read_misses: self.read_misses + rhs.read_misses,
            write_hits: self.write_hits + rhs.write_hits,
            write_misses: self.write_misses + rhs.write_misses,
            writebacks: self.writebacks + rhs.writebacks,
            bypasses: self.bypasses + rhs.bypasses,
            dead_drops: self.dead_drops + rhs.dead_drops,
            probes: self.probes + rhs.probes,
        }
    }
}

impl AddAssign for AccessStats {
    fn add_assign(&mut self, rhs: AccessStats) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for AccessStats {
    fn sum<I: Iterator<Item = AccessStats>>(iter: I) -> Self {
        iter.fold(AccessStats::default(), Add::add)
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc {} (r {}+{}, w {}+{}), miss {:.4}, wb {}, byp {}, dead {}",
            self.accesses(),
            self.read_hits,
            self.read_misses,
            self.write_hits,
            self.write_misses,
            self.miss_ratio(),
            self.writebacks,
            self.bypasses,
            self.dead_drops,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = AccessStats::new();
        for _ in 0..3 {
            s.record_read(true);
        }
        s.record_read(false);
        s.record_write(false);
        assert_eq!(s.reads(), 4);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.accesses(), 5);
        assert_eq!(s.misses(), 2);
        assert!((s.miss_ratio() - 0.4).abs() < 1e-12);
        assert!((s.read_miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_ratios_are_zero() {
        let s = AccessStats::new();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.read_miss_ratio(), 0.0);
    }

    #[test]
    fn sum_is_componentwise() {
        let a = AccessStats {
            read_hits: 1,
            read_misses: 2,
            write_hits: 3,
            write_misses: 4,
            writebacks: 5,
            bypasses: 6,
            dead_drops: 7,
            probes: 3,
        };
        let b = a;
        let c: AccessStats = [a, b].into_iter().sum();
        assert_eq!(c.read_hits, 2);
        assert_eq!(c.dead_drops, 14);
        assert_eq!(c.probes, 6);
        assert_eq!(c.accesses(), 2 * a.accesses());
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", AccessStats::new()).is_empty());
    }
}
