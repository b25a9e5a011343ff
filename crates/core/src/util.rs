//! Internal utilities.

/// A fixed-order bitset over entity indices (routers, channels, pipes)
/// used by the activity-gated cycle engine.
///
/// Determinism contract: membership is idempotent and iteration always
/// visits set bits in ascending index order, whatever order they were
/// set in — so the order in which wake-up events fire during a cycle
/// can never influence the order entities are evaluated in.
#[derive(Debug, Clone)]
pub(crate) struct ActiveSet {
    words: Vec<u64>,
}

impl ActiveSet {
    /// An empty set over `len` indices.
    pub(crate) fn new(len: usize) -> ActiveSet {
        ActiveSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Marks index `i` active (idempotent).
    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Marks index `i` inactive (idempotent).
    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Appends the active indices, in ascending order, to `out`.
    pub(crate) fn collect_into(&self, out: &mut Vec<usize>) {
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Appends the indices active in `self` or `other`, ascending.
    pub(crate) fn collect_union_into(&self, other: &ActiveSet, out: &mut Vec<usize>) {
        debug_assert_eq!(self.words.len(), other.words.len());
        for (w, (&a, &b)) in self.words.iter().zip(other.words.iter()).enumerate() {
            let mut bits = a | b;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// A calendar queue that holds its entries: one slot per future cycle,
/// modulo a power-of-two length, each slot a fixed-width bitset over
/// entity indices plus one storage cell per index.
///
/// The cycle engine files each in-flight flit or credit in the slot of
/// the cycle it is due and, each cycle, takes exactly the entries of the
/// one slot for `now` — idle cycles check a per-slot counter instead of
/// rescanning every entity, and no per-entity queue, due tracker or
/// front check exists. Bitset slots keep the busy end cheap too: at 1024
/// tiles a saturated cycle delivers ~2k channels, and extracting them
/// from bit words is linear where sorting a `Vec` slot each cycle was
/// O(n log n). Contracts the engine relies on:
///
/// * **One entry per (index, due cycle).** Each delay line the engine
///   models carries at most one entry per entity per cycle, so a cell
///   holds at most one value. [`Calendar::schedule`] asserts the cell is
///   free, so a second entry for the same index and cycle panics rather
///   than overwriting the first.
/// * **Horizon.** `new(horizon, capacity)` sizes the calendar to a power
///   of two of at least `horizon` slots, and every `schedule` from cycle
///   `now` must be due no more than `horizon` cycles later. The entries
///   outstanding at any moment then fall within `horizon` consecutive
///   cycles, no more than there are slots, so a slot never holds an
///   entry for a *future* wrap of its cycle, and every entry in the slot
///   of `now` is due at `now`. Entries are exact, never stale hints.
/// * **Ordering.** [`Calendar::due_into`] lists a slot's entries in
///   ascending index order (bit words walked low-to-high, like
///   [`ActiveSet::collect_into`]), so the order entries were filed in
///   can never influence the order entities are processed in.
#[derive(Debug, Clone)]
pub(crate) struct Calendar<T> {
    /// `len` slots × `words` bit words each, flattened: bit `i` of a
    /// slot is set iff that slot's cell for index `i` holds an entry.
    bits: Vec<u64>,
    /// Set-bit count per slot, so an idle slot costs one read.
    counts: Vec<u32>,
    /// `len` slots × `capacity` cells, slot-major. Allocated by the first
    /// `schedule`, so building a network touches none of it.
    cells: Vec<Option<T>>,
    words: usize,
    capacity: usize,
    mask: u64,
}

impl<T: Copy> Calendar<T> {
    /// A calendar for entity indices `0..capacity` whose entries are
    /// due at most `horizon` cycles after they are filed.
    pub(crate) fn new(horizon: u64, capacity: usize) -> Calendar<T> {
        let len = usize::try_from(horizon.max(1).next_power_of_two())
            .expect("calendar horizon fits usize");
        let words = capacity.div_ceil(64).max(1);
        Calendar {
            bits: vec![0; len * words],
            counts: vec![0; len],
            cells: Vec::new(),
            words,
            capacity,
            mask: len as u64 - 1,
        }
    }

    #[inline]
    fn slot(&self, cycle: u64) -> usize {
        (cycle & self.mask) as usize
    }

    /// Files `value` for index `i`, due at cycle `due`, as seen from cycle
    /// `now`.
    ///
    /// A due cycle at or before `now` is clamped to the next cycle: the
    /// engine takes a cycle's slot once, at the top of its phase, so
    /// anything filed mid-cycle (a zero-latency credit) lands strictly in
    /// the future.
    ///
    /// # Panics
    ///
    /// Panics if index `i` already has an entry due at `due`, or if
    /// `due` lies beyond the calendar's horizon.
    #[inline]
    pub(crate) fn schedule(&mut self, i: usize, due: u64, now: u64, value: T) {
        let due = due.max(now + 1);
        // INVARIANT: no entry is filed more slots ahead than the calendar
        // has, so its slot is next taken exactly at `due`. Checked in
        // release builds too: a violation would deliver silently early.
        assert!(due - now <= self.mask + 1, "due beyond calendar horizon");
        if self.cells.is_empty() {
            self.cells = vec![None; self.counts.len() * self.capacity];
        }
        let slot = self.slot(due);
        let word = &mut self.bits[slot * self.words + i / 64];
        let bit = 1u64 << (i % 64);
        assert!(
            *word & bit == 0,
            "calendar cell for index {i} due at cycle {due} is double-booked"
        );
        *word |= bit;
        self.counts[slot] += 1;
        self.cells[slot * self.capacity + i] = Some(value);
    }

    /// Appends the indices with an entry due at `now` to `out`,
    /// ascending. The entries stay filed until [`Self::take`] removes
    /// them.
    pub(crate) fn due_into(&self, now: u64, out: &mut Vec<usize>) {
        let slot = self.slot(now);
        if self.counts[slot] == 0 {
            return;
        }
        for (w, &word) in self.bits[slot * self.words..(slot + 1) * self.words]
            .iter()
            .enumerate()
        {
            let mut bits = word;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Removes and returns index `i`'s entry due at `now`, if it has one.
    #[inline]
    pub(crate) fn take(&mut self, now: u64, i: usize) -> Option<T> {
        let slot = self.slot(now);
        let word = &mut self.bits[slot * self.words + i / 64];
        let bit = 1u64 << (i % 64);
        if *word & bit == 0 {
            return None;
        }
        *word &= !bit;
        self.counts[slot] -= 1;
        self.cells[slot * self.capacity + i].take()
    }

    /// Entries filed, across every slot.
    pub(crate) fn len(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// Whether no entry is filed.
    pub(crate) fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Appends every filed entry to `out` as `(base + index, due, value)`.
    /// `next` is the first cycle whose slot has not been taken: every
    /// filed entry is due in `next..next + horizon`, so its slot names
    /// its due cycle exactly.
    pub(crate) fn pending_into(&self, next: u64, base: usize, out: &mut Vec<(usize, u64, T)>) {
        let mut idx = Vec::new();
        for due in next..=next + self.mask {
            idx.clear();
            self.due_into(due, &mut idx);
            let row = self.slot(due) * self.capacity;
            for &i in &idx {
                let value = self.cells[row + i].expect("a set bit names a filed cell");
                out.push((base + i, due, value));
            }
        }
    }
}

/// A tiny xorshift64* PRNG so the core crate stays dependency-free while
/// still supporting randomized (Valiant) routing deterministically.
#[derive(Debug, Clone)]
pub(crate) struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    pub(crate) fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: seed.max(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound`, free of modulo bias.
    ///
    /// Power-of-two bounds take a mask fast path that consumes exactly
    /// one draw and is bit-identical to the historical `next_u64() %
    /// bound` — the determinism goldens (all recorded on power-of-two
    /// node counts) are unaffected. Other bounds use mask-based
    /// rejection sampling: draw, mask down to the smallest all-ones
    /// mask covering `bound - 1`, retry on overshoot. Each retry
    /// accepts with probability > 1/2, so the loop terminates quickly.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let mask = u64::MAX >> (bound - 1).leading_zeros();
        loop {
            let draw = self.next_u64() & mask;
            if draw < bound {
                return draw;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn active_set_iterates_ascending_regardless_of_set_order() {
        let mut s = ActiveSet::new(130);
        for i in [129, 0, 64, 63, 65, 1] {
            s.set(i);
        }
        s.set(64); // idempotent
        let mut out = Vec::new();
        s.collect_into(&mut out);
        assert_eq!(out, vec![0, 1, 63, 64, 65, 129]);
        s.clear(64);
        s.clear(64);
        out.clear();
        s.collect_into(&mut out);
        assert_eq!(out, vec![0, 1, 63, 65, 129]);
    }

    #[test]
    fn active_set_union_is_sorted_and_deduplicated() {
        let mut a = ActiveSet::new(70);
        let mut b = ActiveSet::new(70);
        a.set(3);
        a.set(69);
        b.set(3);
        b.set(10);
        let mut out = Vec::new();
        a.collect_union_into(&b, &mut out);
        assert_eq!(out, vec![3, 10, 69]);
    }

    /// The power-of-two fast path must be draw-for-draw identical to
    /// the historical `next_u64() % bound`, or the committed
    /// determinism goldens (recorded on power-of-two node counts)
    /// would shift.
    #[test]
    fn below_pow2_matches_legacy_modulo() {
        for bound in [1u64, 2, 4, 16, 256, 1 << 20] {
            let mut fixed = XorShift64::new(0xDEAD);
            let mut legacy = XorShift64::new(0xDEAD);
            for _ in 0..200 {
                assert_eq!(fixed.below(bound), legacy.next_u64() % bound);
            }
            assert_eq!(fixed.state, legacy.state, "draw counts diverged");
        }
    }

    /// Rejection sampling is unbiased: over a full sweep of masked
    /// values each residue would appear equally often, unlike modulo
    /// reduction which over-weights low values. Spot-check the
    /// distribution stays flat within sampling noise.
    #[test]
    fn below_non_pow2_is_unbiased_and_in_range() {
        let mut r = XorShift64::new(99);
        let bound = 12u64;
        let mut counts = [0u32; 12];
        for _ in 0..12_000 {
            let v = r.below(bound);
            assert!(v < bound);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed bucket: {c}");
        }
    }

    /// Taking the slot of `now` yields exactly the entries due then, in
    /// ascending index order whatever order they were filed in, across
    /// bit words; later slots keep theirs.
    #[test]
    fn calendar_drains_ascending_and_only_its_slot() {
        let mut c = Calendar::new(6, 200);
        for (i, due, v) in [
            (130, 7, 'a'),
            (9, 5, 'b'),
            (63, 7, 'c'),
            (2, 5, 'd'),
            (64, 7, 'e'),
        ] {
            c.schedule(i, due, 3, v);
        }
        c.schedule(9, 4, 3, 'f'); // same index, another cycle
        assert_eq!(c.len(), 6);
        let drain = |c: &mut Calendar<char>, now: u64| {
            let mut idx = Vec::new();
            c.due_into(now, &mut idx);
            idx.iter()
                .map(|&i| (i, c.take(now, i).expect("listed entry")))
                .collect::<Vec<_>>()
        };
        assert_eq!(drain(&mut c, 6), vec![]);
        assert_eq!(drain(&mut c, 4), vec![(9, 'f')]);
        assert_eq!(drain(&mut c, 5), vec![(2, 'd'), (9, 'b')]);
        assert_eq!(drain(&mut c, 5), vec![]);
        assert_eq!(drain(&mut c, 7), vec![(63, 'c'), (64, 'e'), (130, 'a')]);
        assert!(c.is_empty());
        assert_eq!(c.take(7, 63), None);
    }

    /// A calendar reused for many more cycles than it has slots delivers
    /// every entry at its due cycle, with the full horizon in flight, and
    /// `pending_into` names every outstanding entry's due cycle.
    #[test]
    fn calendar_survives_many_wraps() {
        for horizon in [1u64, 2, 3, 4, 5, 8] {
            let mut c = Calendar::new(horizon, 3);
            let mut delivered = 0u64;
            for now in 0..200u64 {
                for i in 0..3 {
                    if let Some(filed) = c.take(now, i) {
                        assert_eq!(filed + horizon - i as u64 % horizon, now);
                        delivered += 1;
                    }
                }
                for i in 0..3 {
                    c.schedule(i, now + horizon - i as u64 % horizon, now, now);
                }
            }
            assert_eq!(delivered, 3 * 200 - c.len() as u64, "horizon {horizon}");
            let mut pending = Vec::new();
            c.pending_into(200, 10, &mut pending);
            assert_eq!(pending.len(), c.len());
            for (i, due, filed) in pending {
                assert_eq!(due, filed + horizon - (i - 10) as u64 % horizon);
                assert!((200..200 + horizon).contains(&due));
            }
        }
    }

    #[test]
    fn calendar_clamps_past_due_to_next_cycle() {
        let mut c = Calendar::new(2, 2);
        c.schedule(1, 10, 10, ()); // due == now: lands at now + 1
        assert_eq!(c.take(10, 1), None);
        assert_eq!(c.take(11, 1), Some(()));
        assert!(c.is_empty());
    }

    /// Two entries for one index and one cycle would share a cell; the
    /// second is caught instead of overwriting the first.
    #[test]
    #[should_panic(expected = "double-booked")]
    fn calendar_catches_a_double_booked_cell() {
        let mut c = Calendar::new(4, 8);
        c.schedule(5, 9, 6, 1u8);
        c.schedule(5, 9, 7, 2u8);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }
}
