//! Graph generators with arboricity known by construction.
//!
//! The paper's algorithms are parameterized by the arboricity `a`, assumed
//! known to every vertex (§6.1). The headline claims concern graph families
//! of **bounded arboricity** (planar, bounded genus, minor-free, …). Rather
//! than implementing planarity testing, we generate families whose
//! arboricity is provable by construction:
//!
//! * [`forest_union`] — the union of `k` random spanning forests has
//!   arboricity ≤ k by definition of arboricity (and = k whp for dense
//!   enough forests). This is the workhorse family: it realizes **any**
//!   target arboricity.
//! * [`random_tree`], [`path`], [`star`], [`caterpillar`], [`binary_tree`]
//!   — arboricity 1.
//! * [`cycle`], [`grid`], [`toroid`] — arboricity 2.
//! * [`hypercube`] — dimension-`d` cube, arboricity ≤ d (= ⌈d/2⌉·…, bounded).
//! * [`preferential_attachment`] — Barabási–Albert with out-parameter `m0`:
//!   every vertex beyond the seed adds ≤ m0 edges, so the graph is
//!   m0-degenerate, hence arboricity ≤ m0; exhibits the `a ≪ Δ` regime the
//!   Δ+1 rows of Table 1 exploit.
//! * [`hub_forest`] — a forest-union with planted high-degree hubs: keeps
//!   arboricity at `k` while pushing Δ to `Θ(√n)`; the separation workload
//!   for rows where the old bound depends on Δ and the new on `a`.
//! * [`gnm`], [`gnp`], [`clique`], [`complete_bipartite`] — dense /
//!   unstructured controls.
//!
//! Every generator returns a [`GenGraph`] bundling the graph with the
//! arboricity value algorithms should be run with (an upper bound that is
//! tight for the structured families).

use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;

mod random;
pub use random::{gnm, gnp, preferential_attachment, random_geometric};

/// A generated graph together with its by-construction arboricity bound.
#[derive(Clone, Debug)]
pub struct GenGraph {
    /// The graph.
    pub graph: Graph,
    /// Arboricity upper bound guaranteed by the construction (tight for
    /// the structured families; see each generator's docs).
    pub arboricity: usize,
    /// Human-readable family label for benchmark tables.
    pub family: &'static str,
}

/// Simple path on `n` vertices. Arboricity 1 (n ≥ 2).
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.push(v as VertexId - 1, v as VertexId);
    }
    b.build()
}

/// Cycle on `n ≥ 3` vertices. Arboricity 2.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.push(v as VertexId, ((v + 1) % n) as VertexId);
    }
    b.build()
}

/// Star with `n-1` leaves around vertex 0. Arboricity 1.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.push(0, v as VertexId);
    }
    b.build()
}

/// Complete graph `K_n`. Arboricity `⌈n/2⌉`.
pub fn clique(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.push(u as VertexId, v as VertexId);
        }
    }
    b.build()
}

/// Complete bipartite graph `K_{p,q}` (parts `0..p` and `p..p+q`).
pub fn complete_bipartite(p: usize, q: usize) -> Graph {
    let mut b = GraphBuilder::new(p + q);
    for u in 0..p {
        for v in 0..q {
            b.push(u as VertexId, (p + v) as VertexId);
        }
    }
    b.build()
}

/// `rows × cols` grid. Arboricity 2 (planar and 2-degenerate).
pub fn grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.push(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                b.push(idx(r, c), idx(r + 1, c));
            }
        }
    }
    b.build()
}

/// `rows × cols` torus (wrap-around grid), `rows, cols ≥ 3`. Arboricity ≤ 3
/// (4-regular planar-on-torus; 2m/(n−1) ≈ 4 ⇒ a = 3 for large sizes).
pub fn toroid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 3 && cols >= 3, "toroid needs both dimensions ≥ 3");
    let idx = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.push(idx(r, c), idx(r, (c + 1) % cols));
            b.push(idx(r, c), idx((r + 1) % rows, c));
        }
    }
    b.build()
}

/// Complete binary tree with `n` vertices (heap indexing). Arboricity 1.
pub fn binary_tree(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.push(((v - 1) / 2) as VertexId, v as VertexId);
    }
    b.build()
}

/// Caterpillar: a spine path of length `spine` with `legs` leaves per spine
/// vertex. Arboricity 1.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for s in 1..spine {
        b.push(s as VertexId - 1, s as VertexId);
    }
    for s in 0..spine {
        for l in 0..legs {
            b.push(s as VertexId, (spine + s * legs + l) as VertexId);
        }
    }
    b.build()
}

/// `d`-dimensional hypercube (`n = 2^d`). `d`-regular, arboricity ≤ d
/// (exactly `⌈d/2⌉ + …`; we report the degeneracy-style bound `d`).
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.push(v as VertexId, u as VertexId);
            }
        }
    }
    b.build()
}

/// Uniform random spanning tree edge set on vertices `0..n` via a random
/// permutation + random earlier attachment (a random recursive tree on a
/// shuffled vertex order — not uniform over all trees, but degree-light and
/// cheap; exactly `n−1` edges, acyclic, connected).
fn random_tree_edges<R: Rng>(n: usize, rng: &mut R) -> Vec<(VertexId, VertexId)> {
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    order.shuffle(rng);
    let mut edges = Vec::with_capacity(n.saturating_sub(1));
    for i in 1..n {
        let j = rng.gen_range(0..i);
        edges.push((order[j], order[i]));
    }
    edges
}

/// Random tree on `n` vertices. Arboricity 1.
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> GenGraph {
    let mut b = GraphBuilder::new(n);
    for (u, v) in random_tree_edges(n, rng) {
        b.push(u, v);
    }
    GenGraph {
        graph: b.build(),
        arboricity: 1,
        family: "random_tree",
    }
}

/// Union of `k` independent random spanning trees on `0..n`.
///
/// The edge set is covered by `k` forests by construction, so arboricity
/// ≤ k. (Overlapping edges are deduplicated; for n ≫ k the overlap is tiny
/// and the Nash–Williams density keeps the true arboricity at `k` for
/// k ≥ 2 — asserted probabilistically in tests.)
pub fn forest_union<R: Rng>(n: usize, k: usize, rng: &mut R) -> GenGraph {
    assert!(k >= 1);
    let mut b = GraphBuilder::new(n);
    for _ in 0..k {
        for (u, v) in random_tree_edges(n, rng) {
            b.push(u, v);
        }
    }
    GenGraph {
        graph: b.build(),
        arboricity: k,
        family: "forest_union",
    }
}

/// Nested shells — the adversarial instance for Procedure Partition.
///
/// Shells `S_0..S_levels` with `|S_i| = 2^(levels-i)`; every vertex of
/// `S_i` connects to `w` *consecutive* vertices of `S_{i+1}` (wrapping),
/// so each `S_{i+1}` vertex receives exactly `2w` back-edges (when
/// `w ≤ |S_{i+1}|`). Forward edges have out-degree `w` under the
/// shell-order (acyclic) orientation, so the arboricity is exactly `w`
/// (≤ w by the orientation, ≥ w by Nash–Williams density). With
/// `ε < 1` the threshold `(2+ε)w` sits *below* the interior degree `3w`,
/// so Procedure Partition peels exactly one shell per round: worst case
/// `Θ(log n)` while the vertex-averaged complexity stays `O(1)` — the
/// separation witness of Theorem 6.3.
pub fn nested_shells(levels: u32, w: usize) -> GenGraph {
    assert!(levels >= 1 && w >= 1);
    // Shell start offsets; shell i has 2^(levels - i) vertices.
    let sizes: Vec<usize> = (0..=levels).map(|i| 1usize << (levels - i)).collect();
    let starts: Vec<usize> = sizes
        .iter()
        .scan(0usize, |acc, &s| {
            let out = *acc;
            *acc += s;
            Some(out)
        })
        .collect();
    let n: usize = sizes.iter().sum();
    let mut b = GraphBuilder::new(n);
    for i in 0..levels as usize {
        let (cur, nxt) = (starts[i], starts[i + 1]);
        let next_size = sizes[i + 1];
        for j in 0..sizes[i] {
            for t in 0..w.min(next_size) {
                let partner = nxt + (j / 2 + t) % next_size;
                if cur + j != partner {
                    b.push((cur + j) as VertexId, partner as VertexId);
                }
            }
        }
    }
    GenGraph {
        graph: b.build(),
        arboricity: w,
        family: "nested_shells",
    }
}

/// Forest-union with planted hubs: arboricity stays ≤ `k + 1` while the
/// maximum degree is driven to ≈ `hub_degree`.
///
/// `hubs` vertices are each connected to `hub_degree` distinct random
/// non-hub vertices; all hub edges form a star forest (one extra forest),
/// hence the `+1`. This is the `a ≪ Δ` workload for Table 1's Δ+1 rows.
pub fn hub_forest<R: Rng>(
    n: usize,
    k: usize,
    hubs: usize,
    hub_degree: usize,
    rng: &mut R,
) -> GenGraph {
    assert!(
        hubs * hub_degree <= n.saturating_sub(hubs),
        "hub edges must fit disjointly"
    );
    let mut g = forest_union(n, k, rng);
    let mut b = GraphBuilder::new(n);
    for (_, (u, v)) in g.graph.edges() {
        b.push(u, v);
    }
    // Hubs are vertices 0..hubs; leaves are drawn disjointly from the rest
    // so the hub edges form a star forest (each non-hub touches ≤ 1 hub).
    let mut pool: Vec<VertexId> = (hubs as VertexId..n as VertexId).collect();
    pool.shuffle(rng);
    let mut next = 0usize;
    for h in 0..hubs {
        for _ in 0..hub_degree {
            b.push(h as VertexId, pool[next]);
            next += 1;
        }
    }
    g.graph = b.build();
    g.arboricity = k + 1;
    g.family = "hub_forest";
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arboricity;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn path_star_cycle_counts() {
        assert_eq!(path(10).m(), 9);
        assert_eq!(star(10).m(), 9);
        assert_eq!(cycle(10).m(), 10);
        assert_eq!(clique(5).m(), 10);
        assert_eq!(complete_bipartite(3, 4).m(), 12);
    }

    #[test]
    fn grid_and_toroid() {
        let g = grid(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 * 4 + 3 * 5); // horizontal + vertical
        let t = toroid(4, 5);
        assert_eq!(t.m(), 2 * 20);
        assert_eq!(t.max_degree(), 4);
    }

    #[test]
    fn binary_tree_is_tree() {
        let g = binary_tree(31);
        assert_eq!(g.m(), 30);
        assert_eq!(arboricity::degeneracy(&g), 1);
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(5, 3);
        assert_eq!(g.n(), 20);
        assert_eq!(g.m(), 4 + 15);
        assert_eq!(arboricity::degeneracy(&g), 1);
    }

    #[test]
    fn hypercube_regular() {
        let g = hypercube(4);
        assert_eq!(g.n(), 16);
        assert_eq!(g.m(), 32);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn random_tree_is_acyclic_connected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = random_tree(200, &mut rng);
        assert_eq!(t.graph.m(), 199);
        assert_eq!(arboricity::degeneracy(&t.graph), 1);
    }

    #[test]
    fn forest_union_arboricity_bracket() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for k in [1usize, 2, 4, 8] {
            let g = forest_union(500, k, &mut rng);
            let est = arboricity::estimate(&g.graph);
            assert!(
                est.lower <= g.arboricity,
                "NW lower bound {} exceeds construction bound {k}",
                est.lower
            );
            // Degeneracy can reach 2k−1 but never exceeds it for a k-forest
            // union.
            assert!(
                est.upper <= 2 * k,
                "degeneracy {} too large for k={k}",
                est.upper
            );
        }
    }

    #[test]
    fn nested_shells_structure() {
        let g = gen_shells(8, 3);
        // n = 2^9 - 1 = 511; every non-final shell vertex has w forward
        // edges; interior in-degree is 2w.
        assert_eq!(g.graph.n(), (1usize << 9) - 1);
        let est = arboricity::estimate(&g.graph);
        assert!(
            est.lower >= 2 && est.lower <= 3,
            "NW density near w: {}",
            est.lower
        );
        assert!(est.upper <= 2 * 3);
        // Interior degrees ≈ 3w.
        let deg_mid = g.graph.degree(300);
        assert!((6..=12).contains(&deg_mid), "interior degree {deg_mid}");
    }

    fn gen_shells(levels: u32, w: usize) -> super::GenGraph {
        super::nested_shells(levels, w)
    }

    #[test]
    fn hub_forest_separates_a_from_delta() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = hub_forest(2000, 2, 4, 100, &mut rng);
        assert!(g.graph.max_degree() >= 100);
        let est = arboricity::estimate(&g.graph);
        assert!(
            est.lower <= 3,
            "hubs must not raise density: lower={}",
            est.lower
        );
    }

    #[test]
    fn stored_max_degree_matches_scan() {
        use crate::churn::{apply, churn_sequence, ChurnPlan};
        let scan = |g: &Graph| g.vertices().map(|v| g.degree(v)).max().unwrap_or(0);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let graphs = [
            path(0),
            path(1),
            path(30),
            cycle(30),
            star(30),
            clique(9),
            complete_bipartite(3, 7),
            grid(5, 6),
            toroid(5, 6),
            binary_tree(31),
            caterpillar(5, 3),
            hypercube(4),
            random_tree(100, &mut rng).graph,
            forest_union(200, 3, &mut rng).graph,
            nested_shells(6, 3).graph,
            hub_forest(400, 2, 3, 40, &mut rng).graph,
            gnm(100, 300, &mut rng).graph,
            gnp(100, 0.05, &mut rng).graph,
            preferential_attachment(100, 3, &mut rng).graph,
            random_geometric(100, 0.15, &mut rng).graph,
        ];
        for g in &graphs {
            assert_eq!(g.max_degree(), scan(g), "{g:?}");
            if g.n() < 2 {
                continue;
            }
            let plan = ChurnPlan {
                seed: 9,
                batches: 3,
                inserts_per_batch: 4,
                deletes_per_batch: 4,
            };
            let mut h = g.clone();
            for batch in churn_sequence(g, &plan) {
                h = apply(&h, &batch);
                assert_eq!(h.max_degree(), scan(&h), "{g:?} after churn");
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let a = forest_union(100, 3, &mut ChaCha8Rng::seed_from_u64(42));
        let b = forest_union(100, 3, &mut ChaCha8Rng::seed_from_u64(42));
        assert_eq!(a.graph, b.graph);
    }
}
