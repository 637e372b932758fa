//! The ways of each set in a doubly linked order.

/// The ways of each set in a doubly linked order, with O(1) moves to
/// either end and an O(1) read of the front.
///
/// FIFO keeps each set's ways here in fill order, and LIP/BIP/DIP keep a
/// one-set cache's stamped ways in stamp order, so `victim` reads the
/// front instead of scanning every way. Each set has `ways + 1` slots, and slot `ways` is
/// its sentinel: the sentinel's `next` is the head and its `prev` the
/// tail. Links are slot numbers within the set. A way outside its set's
/// order links to itself, so removing it again changes nothing.
#[derive(Clone, Debug, Default)]
pub(super) struct WayOrder {
    prev: Vec<u32>,
    next: Vec<u32>,
    ways: usize,
}

impl WayOrder {
    /// `num_sets` orders of no ways.
    pub(super) fn empty(num_sets: usize, ways: usize) -> Self {
        let slots: Vec<u32> = (0..num_sets).flat_map(|_| 0..=ways as u32).collect();
        WayOrder {
            prev: slots.clone(),
            next: slots,
            ways,
        }
    }

    /// `num_sets` orders of every way, lowest first.
    pub(super) fn full(num_sets: usize, ways: usize) -> Self {
        let mut order = Self::empty(num_sets, ways);
        for set in 0..num_sets {
            for way in 0..ways {
                order.push_back(set, way);
            }
        }
        order
    }

    /// The first way of `set` (its sentinel's slot when the order is
    /// empty).
    #[inline]
    pub(super) fn head(&self, set: usize) -> usize {
        let base = set * (self.ways + 1);
        self.next[base + self.ways] as usize
    }

    /// Takes `way` out of its set's order, if it is in it.
    #[inline]
    pub(super) fn remove(&mut self, set: usize, way: usize) {
        let base = set * (self.ways + 1);
        let (prev, next) = (self.prev[base + way], self.next[base + way]);
        self.next[base + prev as usize] = next;
        self.prev[base + next as usize] = prev;
        self.prev[base + way] = way as u32;
        self.next[base + way] = way as u32;
    }

    /// Moves `way` to the end of its set's order.
    #[inline]
    pub(super) fn push_back(&mut self, set: usize, way: usize) {
        self.remove(set, way);
        let base = set * (self.ways + 1);
        let tail = self.prev[base + self.ways] as usize;
        self.insert_after(base, tail, way);
    }

    /// Moves `way` to the front of its set's order.
    #[inline]
    pub(super) fn push_front(&mut self, set: usize, way: usize) {
        self.remove(set, way);
        self.insert_after(set * (self.ways + 1), self.ways, way);
    }

    #[inline]
    fn insert_after(&mut self, base: usize, at: usize, way: usize) {
        let next = self.next[base + at];
        self.prev[base + way] = at as u32;
        self.next[base + way] = next;
        self.next[base + at] = way as u32;
        self.prev[base + next as usize] = way as u32;
    }
}
