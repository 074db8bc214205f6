//! Immutable undirected graph in compressed-sparse-row form.
//!
//! Every simulated protocol reads topology through this structure. Edges are
//! stored twice (once per endpoint) in the adjacency array; each directed
//! half-edge additionally records the id of the undirected edge it belongs
//! to, so edge-labelled outputs (edge colorings, matchings, forest
//! decompositions) can be expressed as `Vec<_>` indexed by [`EdgeId`].

use std::fmt;

/// Index of a vertex, `0..n`.
pub type VertexId = u32;

/// Index of an undirected edge, `0..m`.
pub type EdgeId = u32;

/// An immutable undirected simple graph in CSR form.
///
/// Construct via [`crate::builder::GraphBuilder`] or a generator in
/// [`crate::gen`]. Invariants (checked in debug builds and by the builder):
/// no self-loops, no parallel edges, neighbor lists sorted by vertex id,
/// edge ids in ascending `(u, v)` order.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` is the slice of `v`'s incident half-edges.
    offsets: Vec<u32>,
    /// Neighbor endpoint of each half-edge.
    neighbors: Vec<VertexId>,
    /// Undirected edge id of each half-edge.
    edge_ids: Vec<EdgeId>,
    /// Endpoints `(u, v)` with `u < v` for each undirected edge id.
    edges: Vec<(VertexId, VertexId)>,
    /// Maximum degree Δ, counted once at construction.
    max_degree: usize,
}

impl Graph {
    /// Builds a graph directly from CSR parts. Intended for the builder;
    /// panics if the invariants are violated.
    pub(crate) fn from_parts(
        offsets: Vec<u32>,
        neighbors: Vec<VertexId>,
        edge_ids: Vec<EdgeId>,
        edges: Vec<(VertexId, VertexId)>,
        max_degree: usize,
    ) -> Self {
        debug_assert_eq!(neighbors.len(), edge_ids.len());
        debug_assert_eq!(neighbors.len(), 2 * edges.len());
        debug_assert_eq!(
            *offsets.last().expect("nonempty offsets") as usize,
            neighbors.len()
        );
        let g = Graph {
            offsets,
            neighbors,
            edge_ids,
            edges,
            max_degree,
        };
        debug_assert!(g.check_invariants());
        g
    }

    /// Every vertex's neighbors and the aligned edge ids, concatenated in
    /// vertex order and indexed by [`Self::neighbor_offsets`] — for
    /// in-crate rewrites that copy most of a graph.
    pub(crate) fn half_edges(&self) -> (&[VertexId], &[EdgeId]) {
        (&self.neighbors, &self.edge_ids)
    }

    /// The edge list, sorted: edge `e`'s endpoints are entry `e`.
    pub(crate) fn edge_list(&self) -> &[(VertexId, VertexId)] {
        &self.edges
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.n() as VertexId
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Maximum degree Δ of the graph (0 for the empty graph). `O(1)`:
    /// stored when the graph is built.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// The raw CSR offset array: `n + 1` entries, where
    /// `offsets[v]..offsets[v+1]` spans `v`'s half-edges. Since it is the
    /// prefix sum of degrees, `offsets[b] - offsets[a]` is the total
    /// degree of the vertex range `a..b` in two loads — which is how the
    /// engine's parallel traversal balances degree-skewed graphs across
    /// workers without a per-vertex pass.
    #[inline]
    pub fn neighbor_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Sorted slice of `v`'s neighbors.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Undirected edge ids incident on `v`, aligned with [`Self::neighbors`].
    #[inline]
    pub fn incident_edges(&self, v: VertexId) -> &[EdgeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.edge_ids[lo..hi]
    }

    /// Pairs `(neighbor, edge id)` incident on `v`.
    #[inline]
    pub fn incidences(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.incident_edges(v).iter().copied())
    }

    /// Endpoints `(u, v)` with `u < v` of undirected edge `e`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e as usize]
    }

    /// Iterator over `(edge id, (u, v))` for all undirected edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, (VertexId, VertexId))> + '_ {
        self.edges
            .iter()
            .copied()
            .enumerate()
            .map(|(e, uv)| (e as EdgeId, uv))
    }

    /// Whether `{u, v}` is an edge. `O(log deg(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Edge id of `{u, v}` if present. `O(log deg(u))`.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|i| self.edge_ids[self.offsets[u as usize] as usize + i])
    }

    /// Given an endpoint `u` of edge `e`, returns the other endpoint.
    ///
    /// Panics if `u` is not an endpoint of `e`.
    #[inline]
    pub fn other_endpoint(&self, e: EdgeId, u: VertexId) -> VertexId {
        let (a, b) = self.edge_endpoints(e);
        if u == a {
            b
        } else {
            assert_eq!(u, b, "vertex {u} is not an endpoint of edge {e}");
            a
        }
    }

    /// Average degree `2m/n` (0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n() as f64
        }
    }

    /// Full invariant check; used by debug assertions and tests.
    pub fn check_invariants(&self) -> bool {
        let n = self.n() as u32;
        // offsets monotone
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return false;
        }
        if self.vertices().map(|v| self.degree(v)).max().unwrap_or(0) != self.max_degree {
            return false;
        }
        for v in self.vertices() {
            let nbrs = self.neighbors(v);
            // sorted strictly (no duplicates), in range, no self-loop
            if nbrs.windows(2).any(|w| w[0] >= w[1]) {
                return false;
            }
            if nbrs.iter().any(|&u| u >= n || u == v) {
                return false;
            }
            for (u, e) in self.incidences(v) {
                let (a, b) = self.edge_endpoints(e);
                if !((a == v && b == u) || (a == u && b == v)) {
                    return false;
                }
            }
        }
        self.edges.windows(2).all(|w| w[0] < w[1])
            && self.edges.iter().all(|&(a, b)| a < b && b < n)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, Δ={})",
            self.n(),
            self.m(),
            self.max_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;

    fn triangle() -> crate::Graph {
        GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.avg_degree(), 2.0);
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let g = triangle();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn edge_lookup() {
        let g = triangle();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        let e = g.edge_between(1, 2).unwrap();
        assert_eq!(g.edge_endpoints(e), (1, 2));
        assert_eq!(g.other_endpoint(e, 1), 2);
        assert_eq!(g.other_endpoint(e, 2), 1);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.check_invariants());
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(5).edges([(0, 4)]).build();
        assert_eq!(g.degree(1), 0);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn incidences_align() {
        let g = GraphBuilder::new(4).edges([(0, 1), (0, 2), (0, 3)]).build();
        for (u, e) in g.incidences(0) {
            assert_eq!(g.other_endpoint(e, 0), u);
        }
    }

    #[test]
    #[should_panic]
    fn other_endpoint_panics_for_non_endpoint() {
        let g = triangle();
        let e = g.edge_between(0, 1).unwrap();
        g.other_endpoint(e, 2);
    }
}
