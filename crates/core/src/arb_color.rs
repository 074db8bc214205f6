//! Procedure Arb-Color — the classical `O(a)`-coloring of \[8\]
//! (Theorem 5.15 of \[4\]), worst case `O(a log n)`.
//!
//! This is the "previous running time" baseline for Table 1's `O(ka)` row
//! and the residual-subgraph subroutine of §7.8: full Procedure Partition
//! (every H-set must exist before recoloring can begin, so *every* vertex
//! stays active for `Ω(log n)` rounds — the cost the paper's algorithms
//! avoid), an in-set `(Δ+1)`-coloring of each `G(H_i)` in parallel, and a
//! single global recoloring cascade over the acyclic orientation
//! (in-set toward the higher in-set color, cross-set toward the later set)
//! with the `A + 1`-color palette.
//!
//! The [`Cascade`] driver runs the scheme; this module keeps the rule:
//! one window for all sets, and the smallest free color.

use crate::inset::{smallest_free, Cascade, CascadeRule};
use crate::segmentation::Shape;

/// The Arb-Color rule.
#[derive(Debug)]
pub struct ArbColorRule;

impl CascadeRule for ArbColorRule {
    type Pick = u64;
    type Output = u64;

    fn shape(&self) -> Shape {
        Shape::Whole
    }

    fn pick(&self, cap: usize, _: u32, parents: impl Iterator<Item = u64>) -> (u64, u64) {
        let rec = smallest_free(cap, parents);
        (rec, rec)
    }
}

/// Procedure Arb-Color on the whole graph.
pub type ArbColor = Cascade<ArbColorRule>;

impl ArbColor {
    /// Standard instance.
    pub fn new(arboricity: usize) -> Self {
        Cascade::with_rule(arboricity, ArbColorRule)
    }

    /// Palette size `A + 1 = O(a)`.
    pub fn palette(&self) -> u64 {
        self.cap() as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, Graph, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize) -> (f64, u32) {
        let p = ArbColor::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            p.palette() as usize,
        ));
        (out.metrics.vertex_averaged(), out.metrics.worst_case())
    }

    #[test]
    fn proper_on_families() {
        run_and_verify(&gen::path(100), 1);
        run_and_verify(&gen::cycle(101), 2);
        run_and_verify(&gen::grid(9, 11), 2);
        let mut rng = ChaCha8Rng::seed_from_u64(80);
        for a in [2usize, 4] {
            let gg = gen::forest_union(700, a, &mut rng);
            run_and_verify(&gg.graph, a);
        }
    }

    #[test]
    fn every_vertex_pays_the_partition() {
        // The baseline's VA is pinned at ≥ L(n): the gap the paper's
        // algorithms exploit.
        let mut rng = ChaCha8Rng::seed_from_u64(81);
        let gg = gen::forest_union(4096, 2, &mut rng);
        let p = ArbColor::new(2);
        let ids = IdAssignment::identity(4096);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        let l = crate::itlog::partition_round_bound(4096, 2.0) as f64;
        assert!(out.metrics.vertex_averaged() >= l);
    }

    #[test]
    fn palette_is_a_plus_one_scale() {
        assert_eq!(ArbColor::new(2).palette(), 9);
        assert_eq!(ArbColor::new(5).palette(), 21);
    }

    #[test]
    fn va_grows_with_n_unlike_the_new_algorithms() {
        let mut rng = ChaCha8Rng::seed_from_u64(82);
        let g1 = gen::forest_union(512, 2, &mut rng);
        let g2 = gen::forest_union(8192, 2, &mut rng);
        let (va1, _) = run_and_verify(&g1.graph, 2);
        let (va2, _) = run_and_verify(&g2.graph, 2);
        assert!(
            va2 > va1 + 2.0,
            "baseline VA should grow with n: {va1} -> {va2}"
        );
    }
}
