//! Edge orientations (§5 of the paper).
//!
//! An *orientation* μ assigns each edge `{u,v}` a direction. The paper's
//! algorithms construct orientations with bounded **out-degree** (`O(a)`)
//! and bounded **length** (the longest directed path), then recolor along
//! them. This module stores an orientation densely (one byte of direction
//! per undirected edge) and provides the queries the paper defines:
//! out-degree, parents/children of a vertex, acyclicity, and length.

use crate::csr::{EdgeId, Graph, VertexId};

/// Direction of an undirected edge `(u, v)` with `u < v`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Oriented from the lower endpoint toward the higher: `u -> v`.
    LowToHigh,
    /// Oriented from the higher endpoint toward the lower: `v -> u`.
    HighToLow,
    /// Not (yet) oriented — Procedure Partial-Orientation (§7.8) leaves
    /// same-color intra-H-set edges unoriented.
    None,
}

/// An (possibly partial) orientation of a graph's edges.
#[derive(Clone, Debug)]
pub struct Orientation {
    dirs: Vec<Dir>,
}

impl Orientation {
    /// An all-unoriented orientation over `m` edges.
    pub fn unoriented(m: usize) -> Self {
        Orientation {
            dirs: vec![Dir::None; m],
        }
    }

    /// Builds from a per-edge "head" map: `head[e] = Some(v)` orients edge
    /// `e` toward endpoint `v`.
    pub fn from_heads(g: &Graph, heads: &[Option<VertexId>]) -> Self {
        assert_eq!(heads.len(), g.m());
        let mut o = Orientation::unoriented(g.m());
        for (e, (u, v)) in g.edges() {
            match heads[e as usize] {
                Some(h) if h == v => o.dirs[e as usize] = Dir::LowToHigh,
                Some(h) if h == u => o.dirs[e as usize] = Dir::HighToLow,
                Some(h) => panic!("head {h} is not an endpoint of edge {e}"),
                None => {}
            }
        }
        o
    }

    /// Orients edge `e` of `g` toward endpoint `head`.
    pub fn orient_toward(&mut self, g: &Graph, e: EdgeId, head: VertexId) {
        let (u, v) = g.edge_endpoints(e);
        self.dirs[e as usize] = if head == v {
            Dir::LowToHigh
        } else {
            assert_eq!(head, u, "head {head} is not an endpoint of edge {e}");
            Dir::HighToLow
        };
    }

    /// Raw direction of edge `e`.
    #[inline]
    pub fn dir(&self, e: EdgeId) -> Dir {
        self.dirs[e as usize]
    }

    /// The endpoint edge `e` points at, if oriented.
    #[inline]
    pub fn head(&self, g: &Graph, e: EdgeId) -> Option<VertexId> {
        let (u, v) = g.edge_endpoints(e);
        match self.dirs[e as usize] {
            Dir::LowToHigh => Some(v),
            Dir::HighToLow => Some(u),
            Dir::None => None,
        }
    }

    /// The endpoint edge `e` points away from, if oriented.
    #[inline]
    pub fn tail(&self, g: &Graph, e: EdgeId) -> Option<VertexId> {
        let (u, v) = g.edge_endpoints(e);
        match self.dirs[e as usize] {
            Dir::LowToHigh => Some(u),
            Dir::HighToLow => Some(v),
            Dir::None => None,
        }
    }

    /// Whether every edge has a direction.
    pub fn is_total(&self) -> bool {
        self.dirs.iter().all(|d| !matches!(d, Dir::None))
    }

    /// Number of oriented edges.
    pub fn oriented_count(&self) -> usize {
        self.dirs.iter().filter(|d| !matches!(d, Dir::None)).count()
    }

    /// Out-degree of vertex `v` under this orientation.
    pub fn out_degree(&self, g: &Graph, v: VertexId) -> usize {
        g.incident_edges(v)
            .iter()
            .filter(|&&e| self.tail(g, e) == Some(v))
            .count()
    }

    /// Maximum out-degree over all vertices — the paper's "out-degree of μ".
    pub fn max_out_degree(&self, g: &Graph) -> usize {
        g.vertices()
            .map(|v| self.out_degree(g, v))
            .max()
            .unwrap_or(0)
    }

    /// Out-neighbors ("parents under μ", §5) of `v`.
    pub fn parents(&self, g: &Graph, v: VertexId) -> Vec<VertexId> {
        g.incidences(v)
            .filter(|&(_, e)| self.tail(g, e) == Some(v))
            .map(|(u, _)| u)
            .collect()
    }

    /// In-neighbors ("children under μ", §5) of `v`.
    pub fn children(&self, g: &Graph, v: VertexId) -> Vec<VertexId> {
        g.incidences(v)
            .filter(|&(_, e)| self.head(g, e) == Some(v))
            .map(|(u, _)| u)
            .collect()
    }

    /// Whether the oriented part of the graph is acyclic (ignores
    /// unoriented edges). Kahn's algorithm on the directed subgraph.
    pub fn is_acyclic(&self, g: &Graph) -> bool {
        self.kahn(g, |_, _| {})
    }

    /// Length of the orientation: number of edges on the longest directed
    /// path (§5). Returns `None` if the oriented subgraph has a cycle.
    pub fn length(&self, g: &Graph) -> Option<usize> {
        // Longest directed path ending at each vertex.
        let mut depth = vec![0usize; g.n()];
        self.kahn(g, |v, u| {
            depth[u as usize] = depth[u as usize].max(depth[v as usize] + 1)
        })
        .then(|| depth.into_iter().max().unwrap_or(0))
    }

    /// Kahn's algorithm over the oriented edges: calls `arc(v, u)` for
    /// every arc `v -> u` once `v` is popped, so every arc into `v` has
    /// been seen by then. `false` on a directed cycle.
    fn kahn(&self, g: &Graph, mut arc: impl FnMut(VertexId, VertexId)) -> bool {
        let n = g.n();
        let mut indeg = vec![0u32; n];
        for (e, (u, v)) in g.edges() {
            match self.dirs[e as usize] {
                Dir::LowToHigh => indeg[v as usize] += 1,
                Dir::HighToLow => indeg[u as usize] += 1,
                Dir::None => {}
            }
        }
        let mut queue: Vec<VertexId> = g.vertices().filter(|&v| indeg[v as usize] == 0).collect();
        let mut processed = 0usize;
        while let Some(v) = queue.pop() {
            processed += 1;
            for (u, e) in g.incidences(v) {
                // `Dir` is relative to the edge's lower endpoint.
                let out = match self.dirs[e as usize] {
                    Dir::LowToHigh => v < u,
                    Dir::HighToLow => v > u,
                    Dir::None => false,
                };
                if out {
                    arc(v, u);
                    indeg[u as usize] -= 1;
                    if indeg[u as usize] == 0 {
                        queue.push(u);
                    }
                }
            }
        }
        processed == n
    }
}

/// Orients every edge toward the endpoint with the larger value of `key`
/// (ties by larger vertex index) — the "toward the higher color/ID"
/// primitive used throughout §7. The result is always acyclic when keys are
/// distinct per edge; with equal keys the vertex-index tiebreak keeps it
/// acyclic.
pub fn orient_by_key<K: Ord>(g: &Graph, key: impl Fn(VertexId) -> K) -> Orientation {
    let mut o = Orientation::unoriented(g.m());
    for (e, (u, v)) in g.edges() {
        let toward_v = match key(u).cmp(&key(v)) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => u < v,
        };
        o.dirs[e as usize] = if toward_v {
            Dir::LowToHigh
        } else {
            Dir::HighToLow
        };
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path4() -> Graph {
        GraphBuilder::new(4).edges([(0, 1), (1, 2), (2, 3)]).build()
    }

    #[test]
    fn orient_by_index_is_acyclic_with_right_length() {
        let g = path4();
        let o = orient_by_key(&g, |v| v);
        assert!(o.is_total());
        assert!(o.is_acyclic(&g));
        assert_eq!(o.length(&g), Some(3));
        assert_eq!(o.max_out_degree(&g), 1);
    }

    #[test]
    fn parents_and_children() {
        let g = path4();
        let o = orient_by_key(&g, |v| v);
        assert_eq!(o.parents(&g, 1), vec![2]);
        assert_eq!(o.children(&g, 1), vec![0]);
        assert_eq!(o.parents(&g, 3), Vec::<VertexId>::new());
    }

    #[test]
    fn cycle_detected() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build();
        // Orient 0->1, 1->2, 2->0: a directed triangle.
        let mut o = Orientation::unoriented(3);
        o.orient_toward(&g, g.edge_between(0, 1).unwrap(), 1);
        o.orient_toward(&g, g.edge_between(1, 2).unwrap(), 2);
        o.orient_toward(&g, g.edge_between(0, 2).unwrap(), 0);
        assert!(!o.is_acyclic(&g));
        assert_eq!(o.length(&g), None);
    }

    #[test]
    fn partial_orientation_ignores_unoriented() {
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build();
        let mut o = Orientation::unoriented(3);
        o.orient_toward(&g, g.edge_between(0, 1).unwrap(), 1);
        assert!(!o.is_total());
        assert_eq!(o.oriented_count(), 1);
        assert!(o.is_acyclic(&g));
        assert_eq!(o.length(&g), Some(1));
    }

    #[test]
    fn star_out_degree() {
        let g = GraphBuilder::new(5)
            .edges([(0, 1), (0, 2), (0, 3), (0, 4)])
            .build();
        // Orient all edges away from the center.
        let o = orient_by_key(&g, |v| if v == 0 { 0 } else { 1 });
        assert_eq!(o.out_degree(&g, 0), 4);
        assert_eq!(o.max_out_degree(&g), 4);
        assert_eq!(o.length(&g), Some(1));
    }

    #[test]
    fn from_heads_roundtrip() {
        let g = path4();
        let heads: Vec<Option<VertexId>> = g.edges().map(|(_, (u, _))| Some(u)).collect();
        let o = Orientation::from_heads(&g, &heads);
        for (e, (u, _)) in g.edges() {
            assert_eq!(o.head(&g, e), Some(u));
        }
        assert_eq!(o.length(&g), Some(3));
    }
}
