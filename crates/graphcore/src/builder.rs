//! Edge-list graph construction.

use crate::csr::{EdgeId, Graph, VertexId};

/// Builds an undirected simple [`Graph`] from an edge list.
///
/// Self-loops are rejected (panic) and parallel edges are deduplicated
/// silently — generators may produce the same edge twice (e.g. overlapping
/// forests in [`crate::gen::forest_union`]) and the union is what's wanted.
///
/// ```
/// use graphcore::GraphBuilder;
/// let g = GraphBuilder::new(3).edges([(0, 1), (1, 2), (1, 0)]).build();
/// assert_eq!(g.m(), 2); // (1,0) deduplicated against (0,1)
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` vertices `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(
            n < u32::MAX as usize,
            "vertex count exceeds u32 index space"
        );
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Adds a single undirected edge `{u, v}`.
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.push(u, v);
        self
    }

    /// Adds many edges.
    pub fn edges<I: IntoIterator<Item = (VertexId, VertexId)>>(mut self, it: I) -> Self {
        for (u, v) in it {
            self.push(u, v);
        }
        self
    }

    /// In-place edge insertion for loop-heavy generators.
    pub fn push(&mut self, u: VertexId, v: VertexId) {
        assert_ne!(u, v, "self-loop {{{u},{u}}} rejected");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        self.edges.push(if u < v { (u, v) } else { (v, u) });
    }

    /// Finalizes into a CSR [`Graph`], deduplicating parallel edges.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        from_sorted_edges(self.n, self.edges)
    }
}

/// The CSR graph on `n` vertices with exactly `edges`, which must be
/// strictly ascending `(u, v)` pairs with `u < v < n`; edge `i` gets id
/// `i`.
///
/// One pass over the sorted list leaves every neighbor list sorted, with
/// no per-vertex sort: a vertex `x`'s pairs `(u, x)` with a lower `u`
/// all sort before its pairs `(x, v)` with a higher `v`, and each group
/// arrives in ascending order of the other endpoint.
fn from_sorted_edges(n: usize, edges: Vec<(VertexId, VertexId)>) -> Graph {
    let mut degree = vec![0u32; n];
    for &(u, v) in &edges {
        degree[u as usize] += 1;
        degree[v as usize] += 1;
    }
    let max_degree = degree.iter().copied().max().unwrap_or(0) as usize;

    // Prefix sums -> offsets; each degree slot becomes its vertex's fill
    // cursor, starting at the vertex's offset.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for d in &mut degree {
        let start = acc;
        acc = acc.checked_add(*d).expect("half-edge count overflows u32");
        offsets.push(acc);
        *d = start;
    }
    let mut cursor = degree;

    let mut neighbors = vec![0 as VertexId; acc as usize];
    let mut edge_ids = vec![0 as EdgeId; acc as usize];
    for (e, &(u, v)) in edges.iter().enumerate() {
        for (at, nb) in [(u, v), (v, u)] {
            let c = cursor[at as usize] as usize;
            neighbors[c] = nb;
            edge_ids[c] = e as EdgeId;
            cursor[at as usize] += 1;
        }
    }

    Graph::from_parts(offsets, neighbors, edge_ids, edges, max_degree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_parallel_edges() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 0), (0, 1), (2, 3)])
            .build();
        assert_eq!(g.m(), 2);
        assert!(g.check_invariants());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        GraphBuilder::new(2).edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        GraphBuilder::new(2).edge(0, 2);
    }

    #[test]
    fn sorted_adjacency_after_interleaved_roles() {
        // Vertex 2 is higher endpoint for (0,2),(1,2) and lower for (2,3),(2,4).
        let g = GraphBuilder::new(5)
            .edges([(2, 4), (0, 2), (2, 3), (1, 2)])
            .build();
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
        assert!(g.check_invariants());
    }

    /// The fill the sorted single pass replaced: edges in id order, then
    /// each vertex's list sorted by neighbor with its edge ids carried
    /// along.
    fn per_vertex_sorted(n: usize, edges: &[(VertexId, VertexId)]) -> Graph {
        let mut edges: Vec<_> = edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        edges.sort_unstable();
        edges.dedup();
        let mut lists: Vec<Vec<(VertexId, EdgeId)>> = vec![Vec::new(); n];
        for (e, &(u, v)) in edges.iter().enumerate() {
            lists[u as usize].push((v, e as EdgeId));
            lists[v as usize].push((u, e as EdgeId));
        }
        let (mut offsets, mut neighbors, mut edge_ids) = (vec![0u32], Vec::new(), Vec::new());
        for list in &mut lists {
            list.sort_unstable();
            neighbors.extend(list.iter().map(|&(u, _)| u));
            edge_ids.extend(list.iter().map(|&(_, e)| e));
            offsets.push(neighbors.len() as u32);
        }
        let max_degree = lists.iter().map(Vec::len).max().unwrap_or(0);
        Graph::from_parts(offsets, neighbors, edge_ids, edges, max_degree)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn sorted_fill_equals_per_vertex_sort(
            n in 2usize..40,
            raw in proptest::collection::vec((0u32..40, 0u32..40), 0..160),
        ) {
            // Endpoints folded into range, loops dropped; repeats and both
            // orientations of an edge stay in.
            let edges: Vec<_> = raw
                .iter()
                .map(|&(u, v)| (u % n as u32, v % n as u32))
                .filter(|&(u, v)| u != v)
                .collect();
            let built = GraphBuilder::new(n).edges(edges.iter().copied()).build();
            proptest::prop_assert_eq!(built, per_vertex_sorted(n, &edges));
        }
    }

    #[test]
    fn edge_ids_are_dense_and_consistent() {
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3), (3, 0)])
            .build();
        let mut seen = vec![false; g.m()];
        for (e, (u, v)) in g.edges() {
            assert!(!seen[e as usize]);
            seen[e as usize] = true;
            assert_eq!(g.edge_between(u, v), Some(e));
        }
        assert!(seen.iter().all(|&s| s));
    }
}
