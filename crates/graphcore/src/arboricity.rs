//! Arboricity and degeneracy machinery.
//!
//! The arboricity `a(G)` is the minimum number of forests covering `E(G)`.
//! The paper's algorithms assume each vertex knows `a` (§6.1). For graphs
//! produced by [`crate::gen`] the arboricity is known by construction; for
//! arbitrary graphs this module provides:
//!
//! * [`degeneracy`] — the smallest `d` such that every subgraph has a
//!   vertex of degree ≤ d, computed by the linear-time peeling algorithm.
//!   It brackets arboricity: `a ≤ d ≤ 2a − 1`.
//! * [`nash_williams_lower_bound`] — the density bound
//!   `a ≥ max_H ⌈m(H)/(n(H)−1)⌉` evaluated on the degeneracy peeling
//!   suffixes (a practical, cheap family of witnesses that is exact on all
//!   our generator families).
//! * [`ArboricityEstimate`] — the bracket `[lower, upper]` plus the value
//!   algorithms should be parameterized with.

use crate::csr::{Graph, VertexId};

/// Result of estimating arboricity from structure alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArboricityEstimate {
    /// Nash–Williams density lower bound over peeling suffixes.
    pub lower: usize,
    /// Degeneracy (an upper bound on 2a−1, i.e. `a ≥ ⌈(d+1)/2⌉`… and also
    /// an upper bound on arboricity-like quantities used by the algorithms;
    /// `a ≤ d` always holds).
    pub upper: usize,
}

impl ArboricityEstimate {
    /// A safe value to feed algorithms that require `a` when the true
    /// arboricity is unknown: the degeneracy upper bound.
    pub fn safe_a(&self) -> usize {
        self.upper.max(1)
    }
}

/// Computes the degeneracy of `g` and a degeneracy ordering, via the
/// standard bucket-queue peeling in `O(n + m)`.
///
/// Returns `(degeneracy, order)` where `order` lists vertices in peeling
/// order (each vertex has ≤ degeneracy neighbors later in the order).
pub fn degeneracy_ordering(g: &Graph) -> (usize, Vec<VertexId>) {
    let n = g.n();
    if n == 0 {
        return (0, Vec::new());
    }
    let maxd = g.max_degree();
    let mut deg: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    // Bucket queue over degrees.
    let mut buckets: Vec<Vec<VertexId>> = vec![Vec::new(); maxd + 1];
    for v in g.vertices() {
        buckets[deg[v as usize]].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    let mut cur = 0usize;
    for _ in 0..n {
        // Find the lowest nonempty bucket holding a live vertex. `cur` can
        // drop by at most 1 per removal, so start a bit below.
        cur = cur.saturating_sub(1);
        let v = loop {
            match buckets[cur].pop() {
                Some(v) if !removed[v as usize] && deg[v as usize] == cur => break v,
                Some(_) => continue, // stale entry
                None => cur += 1,
            }
        };
        removed[v as usize] = true;
        degeneracy = degeneracy.max(cur);
        order.push(v);
        for &u in g.neighbors(v) {
            if !removed[u as usize] {
                let d = &mut deg[u as usize];
                *d -= 1;
                buckets[*d].push(u);
            }
        }
    }
    (degeneracy, order)
}

/// Degeneracy of `g` (0 for edgeless graphs).
pub fn degeneracy(g: &Graph) -> usize {
    degeneracy_ordering(g).0
}

/// Nash–Williams lower bound `a ≥ ⌈m(H)/(n(H)−1)⌉` maximized over the
/// suffixes of the degeneracy peeling order (the densest-core witnesses).
pub fn nash_williams_lower_bound(g: &Graph) -> usize {
    nash_williams_on_order(g, &degeneracy_ordering(g).1)
}

/// The Nash–Williams bound over the suffixes of a given peeling `order`.
fn nash_williams_on_order(g: &Graph, order: &[VertexId]) -> usize {
    let n = g.n();
    if n < 2 {
        return 0;
    }
    // Walk the peeling order backwards, growing the suffix subgraph and
    // counting the edges internal to it.
    let mut in_suffix = vec![false; n];
    let mut edges = 0usize;
    let mut best = if g.m() > 0 { 1 } else { 0 };
    for (k, &v) in order.iter().enumerate().rev() {
        edges += g
            .neighbors(v)
            .iter()
            .filter(|&&u| in_suffix[u as usize])
            .count();
        in_suffix[v as usize] = true;
        let size = n - k;
        if size >= 2 {
            best = best.max(edges.div_ceil(size - 1));
        }
    }
    best
}

/// Full bracket estimate, from a single degeneracy peel.
pub fn estimate(g: &Graph) -> ArboricityEstimate {
    let (d, order) = degeneracy_ordering(g);
    ArboricityEstimate {
        lower: nash_williams_on_order(g, &order),
        upper: d.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen;

    #[test]
    fn tree_is_1_degenerate() {
        let g = GraphBuilder::new(5)
            .edges([(0, 1), (1, 2), (1, 3), (3, 4)])
            .build();
        assert_eq!(degeneracy(&g), 1);
        assert_eq!(nash_williams_lower_bound(&g), 1);
    }

    #[test]
    fn cycle_is_2_degenerate_arboricity_2() {
        let g = gen::cycle(10);
        assert_eq!(degeneracy(&g), 2);
        // a(C_n) = 2 by Nash–Williams: m/(n-1) = 10/9 -> ceil = 2.
        assert_eq!(nash_williams_lower_bound(&g), 2);
    }

    #[test]
    fn clique_bounds() {
        let g = gen::clique(6);
        // degeneracy(K_6) = 5; a(K_6) = ceil(15/5) = 3.
        assert_eq!(degeneracy(&g), 5);
        assert_eq!(nash_williams_lower_bound(&g), 3);
        let est = estimate(&g);
        assert!(est.lower <= est.upper);
    }

    #[test]
    fn empty_and_trivial() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(degeneracy(&g), 0);
        assert_eq!(nash_williams_lower_bound(&g), 0);
        let g1 = GraphBuilder::new(1).build();
        assert_eq!(degeneracy(&g1), 0);
        assert_eq!(estimate(&g1).safe_a(), 1);
    }

    #[test]
    fn peeling_order_property() {
        // Every vertex has at most `degeneracy` neighbors later in the order.
        let g = gen::grid(8, 8);
        let (d, order) = degeneracy_ordering(&g);
        let mut pos = vec![0usize; g.n()];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for (i, &v) in order.iter().enumerate() {
            let later = g
                .neighbors(v)
                .iter()
                .filter(|&&u| pos[u as usize] > i)
                .count();
            assert!(later <= d, "vertex {v} has {later} later neighbors, d={d}");
        }
        assert_eq!(d, 2); // grids are 2-degenerate
    }

    #[test]
    fn estimate_matches_separate_bounds() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let graphs = [
            gen::path(0),
            gen::path(1),
            gen::path(30),
            gen::cycle(30),
            gen::star(30),
            gen::clique(9),
            gen::complete_bipartite(3, 7),
            gen::grid(5, 6),
            gen::toroid(5, 6),
            gen::binary_tree(31),
            gen::caterpillar(5, 3),
            gen::hypercube(4),
            gen::random_tree(100, &mut rng).graph,
            gen::forest_union(200, 3, &mut rng).graph,
            gen::nested_shells(6, 3).graph,
            gen::hub_forest(400, 2, 3, 40, &mut rng).graph,
            gen::gnm(100, 300, &mut rng).graph,
            gen::gnp(100, 0.05, &mut rng).graph,
            gen::preferential_attachment(100, 3, &mut rng).graph,
            gen::random_geometric(100, 0.15, &mut rng).graph,
        ];
        for g in &graphs {
            let expected = ArboricityEstimate {
                lower: nash_williams_lower_bound(g),
                upper: degeneracy(g).max(1),
            };
            assert_eq!(estimate(g), expected, "{g:?}");
        }
    }

    #[test]
    fn star_is_1_degenerate() {
        let g = gen::star(100);
        assert_eq!(degeneracy(&g), 1);
        assert_eq!(nash_williams_lower_bound(&g), 1);
    }
}
