//! Set-index functions.
//!
//! The baseline uses modulo (bit-select) indexing. TCOR's Attribute Cache
//! uses an **XOR-based indexing function** (González et al. \[12\]) to
//! load-balance sets: primitive identifiers arriving in bursts with
//! power-of-two strides would otherwise pile onto a few sets
//! (the pathology §III.B describes for the baseline PB-Lists layout).
//!
//! [`Indexing::set_of`] is the definition. A structure that maps many
//! addresses into one set count holds a [`SetIndex`], which checks the
//! count once: a power-of-two Modulo cache then masks instead of
//! dividing.

/// How a block address maps to a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Indexing {
    /// `set = addr mod num_sets` — conventional bit selection.
    #[default]
    Modulo,
    /// XOR-fold of the address above the index bits into the index
    /// (a polynomial/XOR placement in the spirit of \[12\], \[36\]).
    Xor,
}

impl Indexing {
    /// Maps `addr` (a block number or any stable line key) to a set index
    /// in `0..num_sets`.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0`.
    pub fn set_of(self, addr: u64, num_sets: u64) -> u64 {
        assert!(num_sets > 0, "cache must have at least one set");
        self.reduce(addr, num_sets)
    }

    /// [`Indexing::set_of`] for a `num_sets` known to be non-zero.
    #[inline]
    fn reduce(self, addr: u64, num_sets: u64) -> u64 {
        // One set never enters the fold, whose shift by 0 would never
        // empty the address.
        if num_sets == 1 {
            return 0;
        }
        match self {
            Indexing::Modulo => addr % num_sets,
            Indexing::Xor => {
                if num_sets.is_power_of_two() {
                    let bits = num_sets.trailing_zeros();
                    let mut acc = 0u64;
                    let mut rest = addr;
                    // Fold successive index-sized chunks of the address
                    // into the set index.
                    while rest != 0 {
                        acc ^= rest & (num_sets - 1);
                        rest >>= bits;
                    }
                    acc
                } else {
                    // Non-power-of-two set counts: scramble, then reduce.
                    let mixed = splitmix64(addr);
                    mixed % num_sets
                }
            }
        }
    }
}

/// [`Indexing::set_of`] for one fixed set count, checked once at
/// construction. Power-of-two Modulo (one set included) is a mask;
/// every other count calls the definition. A precomputed exact
/// reciprocal could replace its `%`, but one measured no faster on the
/// miss-curve replays, so none is kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetIndex {
    indexing: Indexing,
    num_sets: u64,
    /// `num_sets - 1` when the set is `addr & mask`.
    mask: Option<u64>,
}

impl SetIndex {
    /// The index of `indexing` over `num_sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets == 0`.
    pub fn new(indexing: Indexing, num_sets: u64) -> Self {
        assert!(num_sets > 0, "cache must have at least one set");
        let mask =
            (indexing == Indexing::Modulo && num_sets.is_power_of_two()).then(|| num_sets - 1);
        SetIndex {
            indexing,
            num_sets,
            mask,
        }
    }

    /// The number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets as usize
    }

    /// The set of `addr`: `Indexing::set_of(addr, num_sets)`.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        (match self.mask {
            Some(mask) => addr & mask,
            None => self.indexing.reduce(addr, self.num_sets),
        }) as usize
    }
}

/// The 64-bit finalizer of SplitMix64 — a cheap full-avalanche scrambler.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulo_is_modulo() {
        assert_eq!(Indexing::Modulo.set_of(13, 8), 5);
        assert_eq!(Indexing::Modulo.set_of(16, 8), 0);
    }

    #[test]
    fn single_set_always_zero() {
        for addr in [0u64, 7, 12345] {
            assert_eq!(Indexing::Modulo.set_of(addr, 1), 0);
            assert_eq!(Indexing::Xor.set_of(addr, 1), 0);
        }
    }

    #[test]
    fn xor_stays_in_range() {
        for addr in 0..10_000u64 {
            let s = Indexing::Xor.set_of(addr * 977, 64);
            assert!(s < 64);
        }
        for addr in 0..1000u64 {
            let s = Indexing::Xor.set_of(addr, 48); // non-power-of-two
            assert!(s < 48);
        }
    }

    #[test]
    fn xor_breaks_power_of_two_strides() {
        // Addresses strided by num_sets map to a single set under modulo
        // but spread under XOR — the exact conflict pathology of the
        // baseline PB-Lists layout (stride 64 blocks per tile list).
        let num_sets = 64u64;
        let stride = 64u64;
        let modulo_sets: std::collections::HashSet<u64> = (0..256)
            .map(|i| Indexing::Modulo.set_of(i * stride, num_sets))
            .collect();
        let xor_sets: std::collections::HashSet<u64> = (0..256)
            .map(|i| Indexing::Xor.set_of(i * stride, num_sets))
            .collect();
        assert_eq!(modulo_sets.len(), 1);
        assert!(xor_sets.len() > 16, "xor spread only {}", xor_sets.len());
    }

    /// Every set count in 1..=4096, under both functions, over a seeded
    /// sample with both ends of the address range: the precomputed
    /// index is the definition. One set comes first, as a one-set Xor
    /// index that entered the fold would never return.
    #[test]
    fn precomputed_index_is_the_definition() {
        for indexing in [Indexing::Modulo, Indexing::Xor] {
            assert_eq!(SetIndex::new(indexing, 1).set_of(u64::MAX), 0);
        }
        let mut rng = tcor_common::SmallRng::seed_from_u64(0x1D3);
        let mut addrs = vec![0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
        addrs.extend((0..24).map(|_| rng.next_u64()));
        addrs.extend((0..8).map(|_| rng.random_range(0..1 << 16)));
        for num_sets in 1..=4096u64 {
            for indexing in [Indexing::Modulo, Indexing::Xor] {
                let index = SetIndex::new(indexing, num_sets);
                assert_eq!(index.num_sets() as u64, num_sets);
                for &addr in &addrs {
                    assert_eq!(
                        index.set_of(addr) as u64,
                        indexing.set_of(addr, num_sets),
                        "{indexing:?}, {num_sets} sets, addr {addr:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn xor_is_deterministic() {
        for addr in [3u64, 999, 1 << 40] {
            assert_eq!(
                Indexing::Xor.set_of(addr, 32),
                Indexing::Xor.set_of(addr, 32)
            );
        }
    }
}
