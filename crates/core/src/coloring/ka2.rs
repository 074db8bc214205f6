//! §7.6 — `O(k a²)`-vertex-coloring in `O(log^(k) n)` vertex-averaged
//! rounds (Theorem 7.13); for `k = ρ(n)` this is `O(a² log* n)` colors in
//! `O(log* n)` vertex-averaged rounds (Corollaries 7.14/7.15).
//!
//! The segmentation scheme (§7.5) with: 𝒜 = the null algorithm, ℬ =
//! Procedure Parallelized-Forest-Decomposition's orientation (implicit —
//! parents are derivable from published join rounds), 𝒞 = the full
//! iterated Procedure Arb-Linial-Coloring on the segment's union, with a
//! disjoint palette copy per segment.
//!
//! Each segment's 𝒞 window opens once its partition window closes; a
//! vertex that joined H-set `h` in segment `s` idles until then, runs the
//! `O(log* n)` Linial steps against its parents *within the segment*, and
//! terminates. Segment `k` (holding all but an `O(1/log^(k-1) n)` fraction
//! of the vertices) closes after `O(log^(k) n + log* n)` rounds, which
//! dominates the vertex-averaged complexity.
//!
//! The [`Windowed`] driver runs the scheme; this module keeps the rule:
//! one window per segment, each with its own palette copy.

use crate::inset::LinialSchedule;
use crate::partition::EPSILON;
use crate::segmentation::{SegmentSchedule, Shape, WindowRule, Windowed};
use graphcore::IdAssignment;

/// The §7.6 rule.
#[derive(Debug)]
pub struct Ka2Rule {
    /// Number of segments `k ∈ [2, ρ(n)]` (clamped by the schedule).
    pub k: u32,
}

impl WindowRule for Ka2Rule {
    fn shape(&self) -> Shape {
        Shape::Segments(self.k)
    }

    fn tag(&self, linial: &LinialSchedule, seg: u32, c: u64) -> u64 {
        (seg as u64 - 1) * linial.final_palette().max(2) + c
    }
}

/// The §7.6 protocol.
pub type ColoringKa2 = Windowed<Ka2Rule>;

impl ColoringKa2 {
    /// Instance with `k` segments.
    pub fn new(arboricity: usize, k: u32) -> Self {
        Windowed::with_rule(arboricity, Ka2Rule { k })
    }

    /// The `k = ρ(n)` instance of Corollary 7.14 (maximum segmentation).
    pub fn rho_instance(arboricity: usize, n: u64) -> Self {
        Self::new(arboricity, crate::itlog::rho(n))
    }

    /// Per-segment palette width α (the Linial fixpoint, `O(a²)`).
    pub fn alpha(&self, ids: &IdAssignment) -> u64 {
        LinialSchedule::new(ids.id_space().max(2), self.cap() as u64).final_palette()
    }

    /// Total palette bound: `k · α = O(k a²)`.
    pub fn palette(&self, n: u64, ids: &IdAssignment) -> u64 {
        let k = SegmentSchedule::new(n, self.rule.k, EPSILON).k();
        k as u64 * self.alpha(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, Graph, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize, k: u32) -> (f64, u32, usize) {
        let p = ColoringKa2::new(a, k);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            p.palette(g.n() as u64, &ids) as usize,
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
        for k in [2u32, 3, 8] {
            run_and_verify(&gen::path(150), 1, k);
            run_and_verify(&gen::grid(12, 11), 2, k);
        }
    }

    #[test]
    fn proper_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(60);
        for k in [2u32, 3] {
            for a in [2usize, 4] {
                let gg = gen::forest_union(900, a, &mut rng);
                run_and_verify(&gg.graph, a, k);
            }
        }
    }

    #[test]
    fn rho_instance_colors_properly() {
        let mut rng = ChaCha8Rng::seed_from_u64(61);
        let gg = gen::forest_union(4096, 2, &mut rng);
        let p = ColoringKa2::rho_instance(2, 4096);
        let ids = IdAssignment::identity(4096);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            &gg.graph,
            &out.outputs,
            p.palette(4096, &ids) as usize,
        ));
    }

    #[test]
    fn larger_k_lower_vertex_average_more_colors() {
        // The §7.5 tradeoff: more segments ⇒ earlier retirement of the
        // bulk (lower VA) at the cost of more palette copies.
        let mut rng = ChaCha8Rng::seed_from_u64(62);
        let gg = gen::forest_union(1 << 14, 2, &mut rng);
        let (va2, _, _) = run_and_verify(&gg.graph, 2, 2);
        let (va4, _, _) = run_and_verify(&gg.graph, 2, 4);
        assert!(
            va4 <= va2,
            "k=4 should not be slower on average than k=2: {va4} vs {va2}"
        );
    }

    #[test]
    fn va_tracks_iterated_log_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(63);
        for n in [4096usize, 65536] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let p = ColoringKa2::new(2, 2);
            let _ids = IdAssignment::identity(n);
            let (va, _, _) = run_and_verify(&gg.graph, 2, 2);
            // Budget: segment-k window + Linial rounds + slack.
            let budget = (crate::itlog::iterated_log(n as u64, 2)
                + LinialSchedule::new(n as u64, p.cap() as u64).rounds() as u64
                + 4) as f64;
            assert!(va <= budget, "n={n}: VA={va} > budget={budget}");
        }
    }

    #[test]
    fn palette_grows_linearly_in_k() {
        let ids = IdAssignment::identity(1 << 14);
        let p2 = ColoringKa2::new(2, 2).palette(1 << 14, &ids);
        let p3 = ColoringKa2::new(2, 3).palette(1 << 14, &ids);
        assert_eq!(p3 / 3, p2 / 2);
    }
}
