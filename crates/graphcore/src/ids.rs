//! Vertex ID assignments.
//!
//! The paper's model gives every processor a unique ID; symmetry-breaking
//! lower bounds quantify over *all* legal ID assignments (the
//! `max_{I ∈ ID}` in the vertex-averaged complexity definition, §2).
//! Keeping the ID assignment separate from the vertex index lets experiments
//! measure complexity under identity, random, and adversarially-permuted ID
//! assignments.

use crate::csr::VertexId;
use rand::seq::SliceRandom;
use rand::Rng;

/// A bijective assignment of distinct IDs to vertices `0..n`.
///
/// IDs are `u64` drawn from a polynomial range `[0, n^c)` as the model
/// requires (IDs of `O(log n)` bits).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdAssignment {
    ids: Vec<u64>,
    /// Largest ID plus one (0 when empty), fixed at construction.
    space: u64,
}

impl IdAssignment {
    /// The one constructor: stores the ID space so [`Self::id_space`] is
    /// O(1) however often a protocol asks for it.
    fn with_ids(ids: Vec<u64>) -> Self {
        let space = ids.iter().copied().max().map_or(0, |m| m + 1);
        IdAssignment { ids, space }
    }

    /// The identity assignment: vertex `v` has ID `v`.
    pub fn identity(n: usize) -> Self {
        Self::with_ids((0..n as u64).collect())
    }

    /// A uniformly random permutation of `0..n` as IDs.
    pub fn random_permutation<R: Rng>(n: usize, rng: &mut R) -> Self {
        let mut ids: Vec<u64> = (0..n as u64).collect();
        ids.shuffle(rng);
        Self::with_ids(ids)
    }

    /// The adversarial assignment: vertex `v` has ID `n − 1 − v`.
    ///
    /// The vertex-averaged complexity definition (§2) takes a maximum over
    /// all legal ID assignments, so experiments must not be read off the
    /// identity assignment alone. Reversing the vertex order is the classic
    /// adversarial choice for this codebase's algorithms: the generators
    /// attach each vertex to earlier-ordered vertices, and the protocols
    /// break ties toward *larger* IDs, so reversed IDs anti-correlate the
    /// tie-breaking order with the construction order and lengthen
    /// ID-driven dependency chains. The ID space is `n`, identical to
    /// [`IdAssignment::identity`], so reduction schedules are comparable
    /// across modes.
    pub fn adversarial(n: usize) -> Self {
        Self::with_ids((0..n as u64).rev().collect())
    }

    /// Random distinct IDs from `[0, span)`, `span ≥ n` (sparse ID space,
    /// exercising algorithms whose round counts depend on the ID range).
    pub fn random_sparse<R: Rng>(n: usize, span: u64, rng: &mut R) -> Self {
        assert!(span >= n as u64, "span must be at least n");
        // Floyd's algorithm for a uniform random n-subset of [0, span),
        // then shuffle to decorrelate value order from vertex order.
        let mut chosen = std::collections::BTreeSet::new();
        for j in (span - n as u64)..span {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        let mut ids: Vec<u64> = chosen.into_iter().collect();
        ids.shuffle(rng);
        Self::with_ids(ids)
    }

    /// Builds from an explicit vector; panics if IDs are not distinct.
    pub fn from_vec(ids: Vec<u64>) -> Self {
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "IDs must be distinct"
        );
        Self::with_ids(ids)
    }

    /// The ID of vertex `v`.
    #[inline]
    pub fn id(&self, v: VertexId) -> u64 {
        self.ids[v as usize]
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Largest ID value plus one (the "ID space" size the algorithms see).
    pub fn id_space(&self) -> u64 {
        self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn identity_ids() {
        let a = IdAssignment::identity(4);
        assert_eq!(a.id(3), 3);
        assert_eq!(a.id_space(), 4);
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn adversarial_reverses_identity() {
        let a = IdAssignment::adversarial(5);
        assert_eq!((0..5).map(|v| a.id(v)).collect::<Vec<_>>(), [4, 3, 2, 1, 0]);
        // Same ID space as identity, so schedules stay comparable.
        assert_eq!(a.id_space(), IdAssignment::identity(5).id_space());
    }

    #[test]
    fn random_permutation_is_bijective() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = IdAssignment::random_permutation(100, &mut rng);
        let mut seen: Vec<u64> = (0..100).map(|v| a.id(v)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn random_sparse_distinct_and_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let a = IdAssignment::random_sparse(50, 10_000, &mut rng);
        let mut seen: Vec<u64> = (0..50).map(|v| a.id(v)).collect();
        assert!(seen.iter().all(|&x| x < 10_000));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 50);
    }

    #[test]
    fn id_space_is_max_plus_one_for_every_constructor() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let cases = [
            IdAssignment::identity(6),
            IdAssignment::random_permutation(6, &mut rng),
            IdAssignment::adversarial(6),
            IdAssignment::random_sparse(6, 1_000, &mut rng),
            IdAssignment::from_vec(vec![9, 2, 40, 7]),
            IdAssignment::identity(0),
            IdAssignment::from_vec(Vec::new()),
        ];
        for a in cases {
            let max = (0..a.len() as VertexId).map(|v| a.id(v)).max();
            assert_eq!(a.id_space(), max.map_or(0, |m| m + 1), "{a:?}");
        }
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn from_vec_rejects_duplicates() {
        IdAssignment::from_vec(vec![1, 2, 1]);
    }
}
