//! §7.7 — `O(k a)`-vertex-coloring in `O(a log^(k) n)` vertex-averaged
//! rounds (Theorem 7.16); for `k = ρ(n)` this gives `O(a log* n)` colors
//! in `O(a log* n)` vertex-averaged rounds (Corollary 7.17).
//!
//! The segmentation scheme with: 𝒜 = the in-set `(Δ+1)`-coloring
//! (`A + 1` colors since `Δ(G(H_j)) ≤ A`), ℬ = orient in-set edges toward
//! the higher 𝒜-color (acyclic, length ≤ `A` per set), 𝒞 = the
//! recoloring cascade over the segment: each vertex waits for all its
//! parents within the segment to recolor, then takes the smallest color of
//! the segment's `A + 1`-color palette unused by its parents.
//!
//! The cascade length in segment `s` is `O(a · log^(s) n)` (orientation
//! length `O(a)` per set times `O(log^(s) n)` sets), which with the decay
//! of Lemma 6.1 telescopes to the `O(a log^(k) n)` vertex-averaged bound.
//!
//! The [`Cascade`] driver runs the scheme; this module keeps the rule:
//! one window per segment, the smallest free color, in the segment's
//! palette copy.

use crate::inset::{smallest_free, Cascade, CascadeRule};
use crate::partition::EPSILON;
use crate::segmentation::{SegmentSchedule, Shape};

/// The §7.7 rule.
#[derive(Debug)]
pub struct KaRule {
    /// Number of segments `k ∈ [2, ρ(n)]`.
    pub k: u32,
}

impl CascadeRule for KaRule {
    type Pick = u64;
    type Output = u64;

    fn shape(&self) -> Shape {
        Shape::Segments(self.k)
    }

    fn pick(&self, cap: usize, seg: u32, parents: impl Iterator<Item = u64>) -> (u64, u64) {
        let rec = smallest_free(cap, parents);
        (rec, (seg as u64 - 1) * (cap as u64 + 1) + rec)
    }
}

/// The §7.7 protocol.
pub type ColoringKa = Cascade<KaRule>;

impl ColoringKa {
    /// Instance with `k` segments.
    pub fn new(arboricity: usize, k: u32) -> Self {
        Cascade::with_rule(arboricity, KaRule { k })
    }

    /// The `k = ρ(n)` instance of Corollary 7.17.
    pub fn rho_instance(arboricity: usize, n: u64) -> Self {
        Self::new(arboricity, crate::itlog::rho(n))
    }

    /// Total palette bound: `k · (A + 1) = O(k a)`.
    pub fn palette(&self, n: u64) -> u64 {
        let k = SegmentSchedule::new(n, self.rule.k, EPSILON).k();
        k as u64 * (self.cap() as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, Graph, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize, k: u32) -> (f64, u32, usize) {
        let p = ColoringKa::new(a, k);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            p.palette(g.n() as u64) as usize,
        ));
        out.metrics.check_identities().unwrap();
        (
            out.metrics.vertex_averaged(),
            out.metrics.worst_case(),
            verify::count_distinct(&out.outputs),
        )
    }

    #[test]
    fn proper_for_small_families_all_k() {
        for k in [2u32, 3] {
            run_and_verify(&gen::path(150), 1, k);
            run_and_verify(&gen::cycle(151), 2, k);
            run_and_verify(&gen::grid(10, 13), 2, k);
        }
    }

    #[test]
    fn proper_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(70);
        for a in [2usize, 4] {
            let gg = gen::forest_union(900, a, &mut rng);
            run_and_verify(&gg.graph, a, 2);
        }
    }

    #[test]
    fn rho_instance_proper() {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let gg = gen::forest_union(4096, 2, &mut rng);
        let p = ColoringKa::rho_instance(2, 4096);
        let ids = IdAssignment::identity(4096);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            &gg.graph,
            &out.outputs,
            p.palette(4096) as usize,
        ));
    }

    #[test]
    fn palette_linear_in_k_and_a() {
        assert_eq!(ColoringKa::new(2, 2).palette(1 << 14), 2 * 9);
        assert_eq!(ColoringKa::new(2, 3).palette(1 << 14), 3 * 9);
        assert_eq!(ColoringKa::new(4, 2).palette(1 << 14), 2 * 17);
    }

    #[test]
    fn fewer_colors_than_ka2_more_rounds() {
        // §7.7 trades palette (O(ka) vs O(ka²)) against cascade time.
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let gg = gen::forest_union(4096, 4, &mut rng);
        let ids = IdAssignment::identity(4096);
        let (_, _, used_ka) = run_and_verify(&gg.graph, 4, 2);
        let pk2 = crate::coloring::ka2::ColoringKa2::new(4, 2);
        let out = simlocal::Runner::new(&pk2, &gg.graph, &ids).run().unwrap();
        let used_ka2 = verify::count_distinct(&out.outputs);
        assert!(
            used_ka <= used_ka2,
            "O(ka) used {used_ka} colors, O(ka²) used {used_ka2}"
        );
    }

    #[test]
    fn va_flat_across_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        let g1 = gen::forest_union(1024, 2, &mut rng);
        let g2 = gen::forest_union(32768, 2, &mut rng);
        let (va1, _, _) = run_and_verify(&g1.graph, 2, 2);
        let (va2, _, _) = run_and_verify(&g2.graph, 2, 2);
        assert!(va2 <= va1 * 1.7 + 3.0, "VA grew too fast: {va1} -> {va2}");
    }
}
