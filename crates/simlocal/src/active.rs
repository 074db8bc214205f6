//! The engine's active-vertex set: a word-level bitset whose iteration
//! cost is proportional to the *active count*, not to `n`.
//!
//! A plain `Vec<bool>` (or a bare `Vec<u64>` scanned word by word) would
//! make every round pay `O(n)` or `O(n/64)` just to find the survivors —
//! which silently re-introduces the dense-engine cost model the sparse
//! engine exists to avoid: a protocol whose last vertex lingers for many
//! rounds (the long tail of a Lemma 6.1 decay) would pay the scan per
//! round. [`ActiveSet`] therefore keeps, next to the bit words, a sorted
//! list of **live word indices** (words with at least one set bit). Since
//! a live word implies at least one active vertex, `live.len() ≤ count`,
//! so iterating `live` and then the set bits of each word is `O(count)` —
//! per-round work stays proportional to the active set and total engine
//! work tracks `RoundSum(V)`.
//!
//! The set is built full and only ever shrinks (the engine's termination
//! semantics: a terminated vertex never revives), so all storage is
//! allocated once up front and never grows — part of the engine's
//! zero-alloc steady-state contract. Bits are cleared through
//! [`ActiveSet::retire`], which compacts the live list in the same sweep,
//! or [`ActiveSet::remove`], which defers compaction (the live list is
//! allowed to hold indices of words that have gone empty; iteration skips
//! them in one load each).

use graphcore::VertexId;

/// A monotonically-shrinking set of vertex ids `0..n`, stored as bit
/// words plus a sorted live-word index for `O(count)` iteration.
#[derive(Clone, Debug)]
pub struct ActiveSet {
    /// Bit `v & 63` of `words[v >> 6]` is set iff `v` is in the set.
    words: Vec<u64>,
    /// Sorted indices of words that may be nonzero: a superset of the
    /// nonzero words, compacted by [`ActiveSet::retire`].
    live: Vec<u32>,
    /// Number of set bits.
    count: usize,
    /// Size of the universe `n` (bits beyond it are never set).
    universe: usize,
}

/// Bit words with every vertex of `0..n` set.
pub(crate) fn full_words(n: usize) -> Vec<u64> {
    let mut words = vec![!0u64; n.div_ceil(64)];
    if !n.is_multiple_of(64) {
        if let Some(last) = words.last_mut() {
            *last = (1u64 << (n % 64)) - 1;
        }
    }
    words
}

/// Clears vertex `v`'s bit in `words`.
#[inline]
pub(crate) fn clear_bit(words: &mut [u64], v: VertexId) {
    words[(v as usize) >> 6] &= !(1u64 << (v as usize & 63));
}

impl ActiveSet {
    /// The full set `{0, …, n-1}`.
    pub fn full(n: usize) -> ActiveSet {
        let words = full_words(n);
        ActiveSet {
            live: (0..words.len() as u32).collect(),
            words,
            count: n,
            universe: n,
        }
    }

    /// Size of the universe the set draws from.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of vertices currently in the set.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        let vu = v as usize;
        vu < self.universe && (self.words[vu >> 6] >> (vu & 63)) & 1 != 0
    }

    /// The raw bit words — what [`NeighborView`](crate::NeighborView)
    /// reads for `is_terminated` (a terminated vertex is one whose bit is
    /// clear).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The live word indices, sorted ascending. A parallel traversal
    /// chunks this list; each entry is one `u64` load away from up to 64
    /// vertices.
    #[inline]
    pub fn live_words(&self) -> &[u32] {
        &self.live
    }

    /// Calls `f` for every member in ascending order. `O(count)`.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(VertexId)) {
        for &wi in &self.live {
            let mut bits = self.words[wi as usize];
            while bits != 0 {
                f((wi << 6) | bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Iterator over members in ascending order. `O(count)`.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.live.iter().flat_map(move |&wi| {
            let mut bits = self.words[wi as usize];
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let v = (wi << 6) | bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(v)
                }
            })
        })
    }

    /// Removes one vertex, without compacting the live list (its word's
    /// index stays until the next [`ActiveSet::retire`] sweep; iteration
    /// skips empty words at one load each). Returns whether `v` was in
    /// the set. Used by the dense reference engine; the sparse engine
    /// retires in bulk.
    pub fn remove(&mut self, v: VertexId) -> bool {
        if !self.contains(v) {
            return false;
        }
        let vu = v as usize;
        self.words[vu >> 6] &= !(1u64 << (vu & 63));
        self.count -= 1;
        true
    }

    /// The end-of-round sweep: visits every member in ascending order,
    /// removes those for which `retire` returns `true`, and drops words
    /// that went empty from the live list. `O(count)` and allocation-free
    /// (the live list is compacted in place).
    pub fn retire(&mut self, mut retire: impl FnMut(VertexId) -> bool) {
        let words = &mut self.words;
        let mut removed = 0usize;
        self.live.retain(|&wi| {
            let word = &mut words[wi as usize];
            let mut bits = *word;
            while bits != 0 {
                let v = (wi << 6) | bits.trailing_zeros();
                bits &= bits - 1;
                if retire(v) {
                    *word &= !(1u64 << (v & 63));
                    removed += 1;
                }
            }
            *word != 0
        });
        self.count -= removed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_set_covers_universe() {
        for n in [0, 1, 63, 64, 65, 130] {
            let s = ActiveSet::full(n);
            assert_eq!(s.count(), n);
            assert_eq!(s.universe(), n);
            assert_eq!(s.is_empty(), n == 0);
            let members: Vec<VertexId> = s.iter().collect();
            assert_eq!(members, (0..n as VertexId).collect::<Vec<_>>());
            assert!((0..n as VertexId).all(|v| s.contains(v)));
            assert!(!s.contains(n as VertexId));
        }
    }

    #[test]
    fn for_each_matches_iter() {
        let mut s = ActiveSet::full(200);
        s.retire(|v| v % 3 == 0);
        let mut via_for_each = Vec::new();
        s.for_each(|v| via_for_each.push(v));
        assert_eq!(via_for_each, s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn retire_removes_and_compacts() {
        let mut s = ActiveSet::full(256);
        // Empty out the second word entirely, plus some of the first.
        s.retire(|v| (64..128).contains(&v) || v < 10);
        assert_eq!(s.count(), 256 - 64 - 10);
        assert!(!s.contains(70));
        assert!(s.contains(10));
        assert!(
            !s.live_words().contains(&1),
            "word 1 went empty and must leave the live list"
        );
        // Ascending visit order.
        let mut prev = None;
        s.for_each(|v| {
            assert!(prev.is_none_or(|p| p < v));
            prev = Some(v);
        });
    }

    #[test]
    fn remove_defers_compaction_but_iteration_skips() {
        let mut s = ActiveSet::full(128);
        for v in 64..128 {
            assert!(s.remove(v));
        }
        assert!(!s.remove(64), "double remove is a no-op");
        assert_eq!(s.count(), 64);
        // Word 1 is empty but still listed live; iteration must skip it.
        assert!(s.live_words().contains(&1));
        assert_eq!(s.iter().count(), 64);
        // A retire sweep compacts it away.
        s.retire(|_| false);
        assert!(!s.live_words().contains(&1));
    }

    #[test]
    fn live_words_never_exceed_count() {
        let mut s = ActiveSet::full(64 * 40);
        // Leave one survivor per word: live words == count exactly.
        s.retire(|v| v % 64 != 7);
        assert_eq!(s.count(), 40);
        assert_eq!(s.live_words().len(), 40);
        // Thin out further: live words shrink with the count.
        s.retire(|v| (v >> 6) % 2 == 0);
        assert_eq!(s.count(), 20);
        assert_eq!(s.live_words().len(), 20);
        assert!(s.live_words().len() <= s.count());
    }
}
