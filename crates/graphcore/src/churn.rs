//! Seeded edge churn over a fixed vertex set — the dynamic-graph
//! workload model.
//!
//! A [`ChurnPlan`] describes a deterministic sequence of edit batches
//! (edge inserts and deletes) over a base graph: [`churn_sequence`]
//! materializes the batches with a ChaCha-seeded RNG, validating each
//! delete against the evolving edge set and each insert against
//! non-adjacency, and [`apply`] splices a batch into the graph's sorted
//! edge list and refills the CSR from it.
//! The vertex set never changes, so a prior run's per-vertex outputs
//! stay index-aligned across batches — the invariant the engine's
//! warm-start seam (`simlocal`) relies on.

use crate::builder::from_sorted_edges;
use crate::csr::{Graph, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

/// A deterministic churn schedule: how many batches, how many edits per
/// batch, and the seed that pins the whole sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnPlan {
    /// RNG seed; equal plans over equal base graphs yield equal batches.
    pub seed: u64,
    /// Number of edit batches.
    pub batches: usize,
    /// Edge insertions per batch (between currently non-adjacent pairs).
    pub inserts_per_batch: usize,
    /// Edge deletions per batch (of currently present edges).
    pub deletes_per_batch: usize,
}

/// One batch of edits, valid against the graph state it was drawn for:
/// every delete is a present edge, every insert a absent non-loop pair.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EditBatch {
    /// Edges added (stored with `u < v`).
    pub inserts: Vec<(VertexId, VertexId)>,
    /// Edges removed (stored with `u < v`).
    pub deletes: Vec<(VertexId, VertexId)>,
}

impl EditBatch {
    /// Every vertex incident to an edit, sorted and deduplicated — the
    /// seeds of the engine's reactivation BFS. A warm start's `touched`
    /// set must hold *both* endpoints of every edit: the freeze rule
    /// relies on it (a frozen vertex is never an edit endpoint, so its
    /// incident edges are unchanged), and so does the one-BFS lemma (an
    /// edit joining two distance-0 vertices lies on no shortest path, so
    /// distances from the set agree in the old and the new graph).
    pub fn endpoints(&self) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .inserts
            .iter()
            .chain(&self.deletes)
            .flat_map(|&(u, v)| [u, v])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total edit count.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the batch contains no edits.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Draws the plan's batches against the evolving graph, starting from
/// `base`. Batch `i` is valid for (and [`apply`]-able to) the graph
/// produced by applying batches `0..i` in order.
///
/// Deletes are drawn uniformly from the current edges; inserts are
/// rejection-sampled uniform non-adjacent pairs. If the graph runs out
/// of edges (or of absent pairs) a batch simply carries fewer edits.
pub fn churn_sequence(base: &Graph, plan: &ChurnPlan) -> Vec<EditBatch> {
    assert!(base.n() >= 2, "churn needs at least two vertices");
    let n = base.n();
    let mut rng = ChaCha8Rng::seed_from_u64(plan.seed);
    // Current edge multiverse: dense vec for indexed deletion draws plus
    // a set for O(1) adjacency tests. Swap-remove keeps draws O(1); the
    // vec order is RNG-history-deterministic, so sequences reproduce.
    let mut edges: Vec<(VertexId, VertexId)> = base.edges().map(|(_, e)| e).collect();
    let mut present: HashSet<(VertexId, VertexId)> = edges.iter().copied().collect();
    let mut batches = Vec::with_capacity(plan.batches);
    for _ in 0..plan.batches {
        let mut batch = EditBatch::default();
        for _ in 0..plan.deletes_per_batch {
            if edges.is_empty() {
                break;
            }
            let i = rng.gen_range(0..edges.len());
            let e = edges.swap_remove(i);
            present.remove(&e);
            batch.deletes.push(e);
        }
        let max_edges = n * (n - 1) / 2;
        for _ in 0..plan.inserts_per_batch {
            if present.len() >= max_edges {
                break;
            }
            // Rejection sampling; sparse workloads accept almost surely.
            let e = loop {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v {
                    continue;
                }
                let e = if u < v { (u, v) } else { (v, u) };
                if !present.contains(&e) {
                    break e;
                }
            };
            present.insert(e);
            edges.push(e);
            batch.inserts.push(e);
        }
        batches.push(batch);
    }
    batches
}

/// Applies one batch to `g`, returning the edited graph (same vertex
/// set). Panics if a delete is absent or an insert already present —
/// batches are only valid against the graph they were drawn for.
///
/// The sorted edits are spliced into `g`'s already-sorted edge list in
/// one merge pass, then the CSR is refilled from it: `O(n + m)` with no
/// hashing and no re-sort. An edge deleted and re-inserted in the same
/// batch keeps its place.
pub fn apply(g: &Graph, batch: &EditBatch) -> Graph {
    let mut deletes = batch.deletes.clone();
    deletes.sort_unstable();
    let mut inserts: Vec<(VertexId, VertexId)> = batch
        .inserts
        .iter()
        .map(|&e| {
            assert!(e.0 != e.1, "insert {e:?}: self-loop");
            let (u, v) = (e.0.min(e.1), e.0.max(e.1));
            assert!((v as usize) < g.n(), "insert {e:?}: out of range");
            (u, v)
        })
        .collect();
    inserts.sort_unstable();
    if let Some(w) = inserts.windows(2).find(|w| w[0] == w[1]) {
        panic!("insert {:?}: edge already present", w[0]);
    }

    let mut edges = Vec::with_capacity(g.m() + inserts.len());
    let (mut d, mut i) = (0, 0);
    for (_, e) in g.edges() {
        if deletes.get(d) == Some(&e) {
            d += 1;
            continue;
        }
        while let Some(&x) = inserts.get(i).filter(|&&x| x < e) {
            edges.push(x);
            i += 1;
        }
        assert!(
            inserts.get(i) != Some(&e),
            "insert {e:?}: edge already present"
        );
        edges.push(e);
    }
    // Deletes are sorted, so the first unmatched one stops every later
    // match and is still pending here.
    if let Some(e) = deletes.get(d) {
        panic!("delete {e:?}: edge not present");
    }
    edges.extend_from_slice(&inserts[i..]);
    from_sorted_edges(g.n(), edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn plan(seed: u64) -> ChurnPlan {
        ChurnPlan {
            seed,
            batches: 4,
            inserts_per_batch: 3,
            deletes_per_batch: 2,
        }
    }

    #[test]
    fn sequence_is_deterministic() {
        let g = gen::grid(8, 8);
        let a = churn_sequence(&g, &plan(7));
        let b = churn_sequence(&g, &plan(7));
        assert_eq!(a, b);
        let c = churn_sequence(&g, &plan(8));
        assert_ne!(a, c, "different seeds give different sequences");
    }

    #[test]
    fn batches_apply_cleanly_in_order() {
        let base = gen::grid(6, 6);
        let batches = churn_sequence(&base, &plan(3));
        assert_eq!(batches.len(), 4);
        let mut g = base.clone();
        for b in &batches {
            assert_eq!(b.len(), 5);
            g = apply(&g, b);
            assert!(g.check_invariants());
            assert_eq!(g.n(), base.n(), "vertex set is fixed");
        }
        // Net edge drift: +3 −2 per batch.
        assert_eq!(g.m(), base.m() + 4);
    }

    /// The reference `apply`: the edge set through a `HashSet`, then a
    /// fresh sort-and-build.
    fn rebuild(g: &Graph, batch: &EditBatch) -> Graph {
        let mut present: HashSet<(VertexId, VertexId)> = g.edges().map(|(_, e)| e).collect();
        for &e in &batch.deletes {
            assert!(present.remove(&e), "delete {e:?}: edge not present");
        }
        for &e in &batch.inserts {
            assert!(e.0 != e.1, "insert {e:?}: self-loop");
            assert!(present.insert(e), "insert {e:?}: edge already present");
        }
        crate::GraphBuilder::new(g.n()).edges(present).build()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn apply_equals_rebuild(
            n in 2usize..60,
            p_millis in 0u64..150,
            gseed in 0u64..1000,
            cseed in 0u64..1000,
            batches in 1usize..5,
            inserts in 0usize..6,
            deletes in 0usize..6,
        ) {
            use rand::SeedableRng;
            let mut rng = ChaCha8Rng::seed_from_u64(gseed);
            let base = gen::gnp(n, p_millis as f64 / 1000.0, &mut rng).graph;
            let plan = ChurnPlan {
                seed: cseed,
                batches,
                inserts_per_batch: inserts,
                deletes_per_batch: deletes,
            };
            let mut g = base.clone();
            for batch in churn_sequence(&base, &plan) {
                // The same batch re-inserting one of its deletes.
                if let Some(&e) = batch.deletes.first().filter(|e| !batch.inserts.contains(e)) {
                    let mut again = batch.clone();
                    again.inserts.push(e);
                    proptest::prop_assert_eq!(apply(&g, &again), rebuild(&g, &again));
                }
                let next = apply(&g, &batch);
                proptest::prop_assert_eq!(&next, &rebuild(&g, &batch));
                g = next;
            }
        }
    }

    #[test]
    fn endpoints_are_sorted_unique() {
        let b = EditBatch {
            inserts: vec![(3, 5), (1, 3)],
            deletes: vec![(0, 1)],
        };
        assert_eq!(b.endpoints(), vec![0, 1, 3, 5]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    #[should_panic(expected = "edge not present")]
    fn apply_rejects_stale_delete() {
        let g = gen::path(4);
        let b = EditBatch {
            inserts: vec![],
            deletes: vec![(0, 3)],
        };
        apply(&g, &b);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn apply_rejects_duplicate_insert() {
        let g = gen::path(4);
        let b = EditBatch {
            inserts: vec![(0, 1)],
            deletes: vec![],
        };
        apply(&g, &b);
    }
}
