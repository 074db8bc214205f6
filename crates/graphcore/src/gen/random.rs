//! Unstructured random graph generators.

use super::GenGraph;
use crate::arboricity;
use crate::builder::GraphBuilder;
use crate::csr::VertexId;
use rand::Rng;

/// Erdős–Rényi `G(n, m)`: `m` distinct uniform edges.
///
/// Arboricity is estimated post hoc (degeneracy bound) since it is not
/// known by construction.
pub fn gnm<R: Rng>(n: usize, m: usize, rng: &mut R) -> GenGraph {
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= max_m,
        "requested m={m} exceeds simple-graph maximum {max_m}"
    );
    let mut b = GraphBuilder::new(n);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    while chosen.len() < m {
        let u = rng.gen_range(0..n as VertexId);
        let v = rng.gen_range(0..n as VertexId);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            b.push(key.0, key.1);
        }
    }
    let graph = b.build();
    let a = arboricity::estimate(&graph).safe_a();
    GenGraph {
        graph,
        arboricity: a,
        family: "gnm",
    }
}

/// Erdős–Rényi `G(n, p)` via geometric skipping (O(n + m) expected).
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> GenGraph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut b = GraphBuilder::new(n);
    if p > 0.0 {
        if p >= 1.0 {
            for u in 0..n {
                for v in (u + 1)..n {
                    b.push(u as VertexId, v as VertexId);
                }
            }
        } else {
            // Iterate potential edges in lexicographic order, skipping
            // geometrically distributed gaps.
            let lq = (1.0 - p).ln();
            let mut v: i64 = 1;
            let mut w: i64 = -1;
            while (v as usize) < n {
                let r: f64 = rng.gen_range(f64::EPSILON..1.0);
                w += 1 + (r.ln() / lq).floor() as i64;
                while w >= v && (v as usize) < n {
                    w -= v;
                    v += 1;
                }
                if (v as usize) < n {
                    b.push(w as VertexId, v as VertexId);
                }
            }
        }
    }
    let graph = b.build();
    let a = arboricity::estimate(&graph).safe_a();
    GenGraph {
        graph,
        arboricity: a,
        family: "gnp",
    }
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m0 + 1` seed vertices; each subsequent vertex attaches to `m0` distinct
/// existing vertices chosen proportionally to degree.
///
/// Every vertex beyond the seed contributes ≤ `m0` edges "backwards", so
/// the graph is `m0 + seed`-degenerate; we report arboricity bound
/// `m0 + 1` (seed clique on `m0+1` vertices has arboricity `⌈(m0+1)/2⌉ ≤
/// m0`, and the attachment edges add one forest-per-slot in the worst
/// case — the degeneracy ordering gives `a ≤ degeneracy ≤ m0 + …`; we use
/// the measured degeneracy which is exact enough for benchmarks).
pub fn preferential_attachment<R: Rng>(n: usize, m0: usize, rng: &mut R) -> GenGraph {
    assert!(m0 >= 1 && n > m0, "need n > m0 ≥ 1");
    let mut b = GraphBuilder::new(n);
    // Degree-proportional sampling via the repeated-endpoints trick.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m0);
    let seed = m0 + 1;
    for u in 0..seed {
        for v in (u + 1)..seed {
            b.push(u as VertexId, v as VertexId);
            endpoints.push(u as VertexId);
            endpoints.push(v as VertexId);
        }
    }
    for v in seed..n {
        // Targets in draw order, so equal seeds build equal graphs (a
        // `HashSet` iterates in a per-process random order); `m0` is
        // tiny, so the linear `contains` is cheap.
        let mut targets: Vec<VertexId> = Vec::with_capacity(m0);
        while targets.len() < m0 {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for t in targets {
            b.push(v as VertexId, t);
            endpoints.push(v as VertexId);
            endpoints.push(t);
        }
    }
    let graph = b.build();
    let a = arboricity::estimate(&graph).safe_a();
    GenGraph {
        graph,
        arboricity: a,
        family: "preferential_attachment",
    }
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs at Euclidean distance ≤ `radius` (grid-bucketed, so the
/// cost is `O(n + m)` for sub-critical radii).
///
/// The natural model for sensor networks (example
/// `sensor_network_mis`); with `radius = c/√n` the expected degree is
/// `Θ(c²)` and the degeneracy — reported as the arboricity bound — stays
/// small.
pub fn random_geometric<R: Rng>(n: usize, radius: f64, rng: &mut R) -> GenGraph {
    assert!(radius > 0.0 && radius <= 1.0);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();
    let cells = ((1.0 / radius).floor() as usize).clamp(1, 4096);
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    let mut grid: Vec<Vec<VertexId>> = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in pts.iter().enumerate() {
        grid[cell_of(y) * cells + cell_of(x)].push(i as VertexId);
    }
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(n);
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = (cell_of(x), cell_of(y));
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let (nx, ny) = (cx as i64 + dx, cy as i64 + dy);
                if nx < 0 || ny < 0 || nx >= cells as i64 || ny >= cells as i64 {
                    continue;
                }
                for &j in &grid[ny as usize * cells + nx as usize] {
                    if (j as usize) <= i {
                        continue;
                    }
                    let (qx, qy) = pts[j as usize];
                    let (ddx, ddy) = (x - qx, y - qy);
                    if ddx * ddx + ddy * ddy <= r2 {
                        b.push(i as VertexId, j);
                    }
                }
            }
        }
    }
    let graph = b.build();
    let a = arboricity::estimate(&graph).safe_a();
    GenGraph {
        graph,
        arboricity: a,
        family: "random_geometric",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn gnm_exact_edge_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let g = gnm(100, 300, &mut rng);
        assert_eq!(g.graph.n(), 100);
        assert_eq!(g.graph.m(), 300);
        assert!(g.arboricity >= 1);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        assert_eq!(gnp(20, 0.0, &mut rng).graph.m(), 0);
        assert_eq!(gnp(20, 1.0, &mut rng).graph.m(), 190);
    }

    #[test]
    fn gnp_expected_density() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let g = gnp(400, 0.05, &mut rng);
        let expected = 0.05 * (400.0 * 399.0 / 2.0);
        let m = g.graph.m() as f64;
        assert!(
            (m - expected).abs() < 0.25 * expected,
            "m={m}, expected≈{expected}"
        );
    }

    #[test]
    fn ba_heavy_tail() {
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let g = preferential_attachment(2000, 2, &mut rng);
        // Sparse (m ≈ 2n) but with max degree well above average.
        assert!(g.graph.m() <= 2 * 2000 + 3);
        assert!(g.graph.max_degree() as f64 > 4.0 * g.graph.avg_degree());
        assert!(g.arboricity <= 6, "BA(m0=2) degeneracy should stay small");
    }

    #[test]
    fn ba_is_deterministic_per_seed() {
        let build = || {
            let g = preferential_attachment(500, 3, &mut ChaCha8Rng::seed_from_u64(18)).graph;
            g.edges().map(|(_, e)| e).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn rgg_matches_brute_force_on_small_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let n = 120;
        let radius = 0.17;
        // Re-derive the points with the same seed to brute-force check.
        let g = random_geometric(n, radius, &mut rng.clone());
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let mut expected = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                let (dx, dy) = (pts[i].0 - pts[j].0, pts[i].1 - pts[j].1);
                let within = dx * dx + dy * dy <= radius * radius;
                assert_eq!(
                    g.graph.has_edge(i as VertexId, j as VertexId),
                    within,
                    "pair ({i},{j}) mismatch"
                );
                expected += usize::from(within);
            }
        }
        assert_eq!(g.graph.m(), expected);
    }

    #[test]
    fn rgg_sparse_regime_low_arboricity() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let n = 3000;
        let g = random_geometric(n, 1.5 / (n as f64).sqrt(), &mut rng);
        assert!(
            g.arboricity <= 10,
            "sparse RGG degeneracy too high: {}",
            g.arboricity
        );
    }

    #[test]
    fn gnm_full_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let g = gnm(6, 15, &mut rng);
        assert_eq!(g.graph.m(), 15);
    }
}
