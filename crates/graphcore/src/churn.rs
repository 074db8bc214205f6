//! Seeded edge churn over a fixed vertex set — the dynamic-graph
//! workload model.
//!
//! A [`ChurnPlan`] describes a deterministic sequence of edit batches
//! (edge inserts and deletes) over a base graph: [`churn_sequence`]
//! materializes the batches with a ChaCha-seeded RNG, validating each
//! delete against the evolving edge set and each insert against
//! non-adjacency, and [`apply`] copies the graph around a batch's edits
//! run by run, rebuilding only the endpoints' neighbor lists.
//! The vertex set never changes, so a prior run's per-vertex outputs
//! stay index-aligned across batches — the invariant the engine's
//! warm-start seam (`simlocal`) relies on.

use crate::csr::{EdgeId, Graph, VertexId};
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
    /// vertices a warm start re-steps from round 1. A warm start's
    /// `touched` set must hold *both* endpoints of every edit: the
    /// propagation rule trusts every other vertex's incident edges to be
    /// unchanged.
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
/// set). Panics if a delete is absent or listed twice, or an insert
/// already present — batches are only valid against the graph they were
/// drawn for. An edge deleted and re-inserted in the same batch keeps
/// its place.
///
/// The edits are located by binary search in `g`'s sorted edge list, and
/// everything between them is copied as runs, so the cost is `O(n + m)`
/// at copy speed plus `O(k log m)` for `k` edits. Edge ids follow the
/// sorted list, so a surviving edge's new id is its old id plus the
/// inserts before it minus the deletes before it: a step function with
/// at most `2k` steps, tabulated run by run while the edge list is
/// copied and applied to the edge ids of every untouched vertex.
/// Untouched vertices' offsets shift by a running delta and their
/// neighbor lists copy as runs; only the endpoints' lists are rebuilt.
pub fn apply(g: &Graph, batch: &EditBatch) -> Graph {
    let (offsets, edges) = (g.neighbor_offsets(), g.edge_list());
    let (neighbors, edge_ids) = g.half_edges();
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
    let mut deletes = batch.deletes.clone();
    deletes.sort_unstable();
    if let Some(w) = deletes.windows(2).find(|w| w[0] == w[1]) {
        panic!("delete {:?}: edge not present", w[1]);
    }
    // Each delete's edge id; `None` once a re-insert cancels it.
    let mut del: Vec<Option<usize>> = deletes
        .iter()
        .map(|e| match edges.binary_search(e) {
            Ok(id) => Some(id),
            Err(_) => panic!("delete {e:?}: edge not present"),
        })
        .collect();
    // The edits as places in the old edge list: an insert goes before the
    // old edge at its place, a delete (`None`) drops the edge at its id.
    let mut edits: Vec<(usize, Option<(VertexId, VertexId)>)> = Vec::with_capacity(batch.len());
    for e in inserts {
        match edges.binary_search(&e) {
            Err(at) => edits.push((at, Some(e))),
            Ok(_) => match deletes.binary_search(&e) {
                Ok(j) => del[j] = None,
                Err(_) => panic!("insert {e:?}: edge already present"),
            },
        }
    }
    edits.extend(del.into_iter().flatten().map(|id| (id, None)));
    edits.sort_unstable_by_key(|&(at, e)| (at, e.is_none(), e));

    // One walk over the edits copies the runs of surviving edges between
    // them and numbers each insert. A surviving edge's new id is its old
    // id plus the inserts before it minus the deletes before it, so each
    // run's new ids are consecutive: `renumber[x]` is old edge `x`'s.
    // `changes` collects each endpoint's lost neighbors (`None`) and
    // gained ones (with the new edge id).
    let mut new_edges = Vec::with_capacity(edges.len() + edits.len());
    let mut renumber: Vec<EdgeId> = Vec::with_capacity(edges.len());
    let copy = |run: std::ops::Range<usize>, new_edges: &mut Vec<_>, renumber: &mut Vec<_>| {
        let base = new_edges.len() as EdgeId;
        renumber.extend(base..base + run.len() as EdgeId);
        new_edges.extend_from_slice(&edges[run]);
    };
    let mut changes = Vec::with_capacity(2 * edits.len());
    let mut at = 0;
    for (place, insert) in edits {
        copy(at..place, &mut new_edges, &mut renumber);
        match insert {
            Some((u, v)) => {
                let id = new_edges.len() as EdgeId;
                new_edges.push((u, v));
                changes.extend([(u, v, Some(id)), (v, u, Some(id))]);
                at = place;
            }
            None => {
                // Only the endpoints' rebuilt lists held the deleted edge.
                renumber.push(EdgeId::MAX);
                let (u, v) = edges[place];
                changes.extend([(u, v, None), (v, u, None)]);
                at = place + 1;
            }
        }
    }
    copy(at..edges.len(), &mut new_edges, &mut renumber);

    // The CSR: runs of untouched vertices copied, endpoints rebuilt.
    changes.sort_unstable_by_key(|&(x, y, _)| (x, y));
    let half_edges = u32::try_from(2 * new_edges.len()).expect("half-edge count overflows u32");
    let half_edges = half_edges as usize;
    let mut csr = Csr {
        offsets: Vec::with_capacity(offsets.len()),
        neighbors: Vec::with_capacity(half_edges),
        edge_ids: Vec::with_capacity(half_edges),
    };
    csr.offsets.push(0);
    let (old_max, mut top, mut dropped) = (g.max_degree(), 0, false);
    let (mut next, mut rest) = (0, &changes[..]);
    while let Some(&(x, _, _)) = rest.first() {
        let (mine, tail) = rest.split_at(rest.partition_point(|c| c.0 == x));
        rest = tail;
        let x = x as usize;
        csr.copy_run(g, next..x, &renumber);
        // Merge x's old list with its changes, both sorted by neighbor.
        let (lo, hi) = (offsets[x] as usize, offsets[x + 1] as usize);
        let mut i = lo;
        for &(_, y, id) in mine {
            while i < hi && neighbors[i] < y {
                csr.push(neighbors[i], renumber[edge_ids[i] as usize]);
                i += 1;
            }
            match id {
                Some(id) => csr.push(y, id),
                // The deleted edge: `neighbors[i] == y`.
                None => i += 1,
            }
        }
        for j in i..hi {
            csr.push(neighbors[j], renumber[edge_ids[j] as usize]);
        }
        csr.offsets.push(csr.neighbors.len() as u32);
        let degree = csr.neighbors.len() - csr.offsets[x] as usize;
        dropped |= hi - lo == old_max && degree < old_max;
        top = top.max(degree);
        next = x + 1;
    }
    csr.copy_run(g, next..g.n(), &renumber);
    // Δ stays exact: only an endpoint that held it and lost an edge can
    // lower it, and only then is a rescan needed.
    let max_degree = if dropped && top < old_max {
        csr.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    } else {
        top.max(old_max)
    };
    Graph::from_parts(
        csr.offsets,
        csr.neighbors,
        csr.edge_ids,
        new_edges,
        max_degree,
    )
}

/// The CSR arrays of a graph under construction by [`apply`].
struct Csr {
    offsets: Vec<u32>,
    neighbors: Vec<VertexId>,
    edge_ids: Vec<EdgeId>,
}

impl Csr {
    /// Appends one half-edge to the vertex being built.
    fn push(&mut self, neighbor: VertexId, id: EdgeId) {
        self.neighbors.push(neighbor);
        self.edge_ids.push(id);
    }

    /// Appends `g`'s vertices in `run`, which no edit touches: their
    /// offsets shift by one delta, their neighbor lists copy as one run,
    /// and their edge ids map through `renumber`.
    fn copy_run(&mut self, g: &Graph, run: std::ops::Range<usize>, renumber: &[EdgeId]) {
        let (offsets, (neighbors, edge_ids)) = (g.neighbor_offsets(), g.half_edges());
        let (lo, hi) = (offsets[run.start] as usize, offsets[run.end] as usize);
        let delta = (self.neighbors.len() as u32).wrapping_sub(lo as u32);
        let shifted = offsets[run.start + 1..=run.end]
            .iter()
            .map(|&o| o.wrapping_add(delta));
        self.offsets.extend(shifted);
        self.neighbors.extend_from_slice(&neighbors[lo..hi]);
        let ids = edge_ids[lo..hi].iter().map(|&e| renumber[e as usize]);
        self.edge_ids.extend(ids);
    }
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
    fn deleting_from_the_only_max_degree_vertex_rescans_delta() {
        // The star's center alone holds Δ = 7; losing an edge drops it to
        // 6, which only a rescan can tell from another vertex at 7.
        let g = gen::star(8);
        assert_eq!(g.max_degree(), 7);
        let b = EditBatch {
            inserts: vec![],
            deletes: vec![(0, 5)],
        };
        let next = apply(&g, &b);
        assert_eq!(next.max_degree(), 6);
        assert_eq!(next, rebuild(&g, &b));
        // Gaining edges below Δ elsewhere does not spare the rescan.
        let b = EditBatch {
            inserts: vec![(1, 2)],
            deletes: vec![(0, 3)],
        };
        assert_eq!(apply(&next, &b).max_degree(), 5);
        assert_eq!(apply(&next, &b), rebuild(&next, &b));
    }

    #[test]
    fn edits_at_the_first_and_last_vertex() {
        let g = gen::cycle(10);
        for b in [
            EditBatch {
                inserts: vec![(0, 5)],
                deletes: vec![(0, 9)],
            },
            EditBatch {
                inserts: vec![(4, 9), (0, 2)],
                deletes: vec![(8, 9), (0, 1)],
            },
            EditBatch {
                inserts: vec![(0, 9)],
                deletes: vec![(0, 9)],
            },
            // Two inserts in the same gap of the edge list.
            EditBatch {
                inserts: vec![(0, 5), (0, 3)],
                deletes: vec![],
            },
        ] {
            let next = apply(&g, &b);
            assert!(next.check_invariants());
            assert_eq!(next, rebuild(&g, &b));
        }
    }

    #[test]
    #[should_panic(expected = "edge not present")]
    fn apply_rejects_a_delete_listed_twice() {
        let g = gen::path(4);
        let b = EditBatch {
            inserts: vec![],
            deletes: vec![(1, 2), (1, 2)],
        };
        apply(&g, &b);
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
