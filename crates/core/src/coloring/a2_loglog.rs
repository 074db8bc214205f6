//! §7.3 — `O(a²)`-vertex-coloring in `O(log log n)` vertex-averaged rounds
//! (Theorem 7.6).
//!
//! Two phases:
//!
//! 1. Run Procedure Parallelized-Forest-Decomposition for
//!    `t = ⌊c'·log log n⌋` iterations, forming `H_1..H_t`; then run the
//!    full iterated Procedure Arb-Linial-Coloring (`O(log* n)` rounds) on
//!    the subgraph induced by their union, giving each member the color
//!    `⟨c, 1⟩`. All but `O(n / log n)` vertices live in this phase and
//!    terminate within `O(log log n + log* n)` rounds.
//! 2. The remaining vertices keep partitioning until every one has joined
//!    (round `L = O(log n)`), then run the same iterated coloring on the
//!    residual union with the disjoint palette `⟨c, 2⟩`.
//!
//! Phase-2 vertices pay `O(log n)` rounds, but there are only
//! `O(n / log n)` of them (Lemma 6.1), so the vertex-averaged complexity
//! is `O(log log n)` while the palette stays `O(a²)` — independent of `n`.
//!
//! Inside a phase union, a vertex's *conflict set* for the Linial steps is
//! its parents: same-set neighbors with higher IDs plus neighbors in later
//! sets of the same phase — at most `A` of them by the H-partition
//! property, which is exactly the cover-free budget.
//!
//! The [`Windowed`] driver runs the scheme; this module keeps the rule:
//! two phase windows, with the phase as the color's tag.

use crate::inset::LinialSchedule;
use crate::itlog;
use crate::partition::EPSILON;
use crate::segmentation::{self, Shape, WindowRule, Windowed};
use graphcore::IdAssignment;

/// The §7.3 rule.
#[derive(Debug)]
pub struct A2LogLogRule;

impl WindowRule for A2LogLogRule {
    fn shape(&self) -> Shape {
        Shape::TwoPhase
    }

    fn tag(&self, _: &LinialSchedule, phase: u32, c: u64) -> u64 {
        2 * c + phase as u64
    }
}

/// The §7.3 protocol.
pub type ColoringA2LogLog = Windowed<A2LogLogRule>;

impl ColoringA2LogLog {
    /// Standard instance.
    pub fn new(arboricity: usize) -> Self {
        Windowed::with_rule(arboricity, A2LogLogRule)
    }

    /// `t = ⌊c'·log log n⌋` with `c' = 1/log₂((2+ε)/2) = 1`, clamped ≥ 1
    /// (after `t` partition rounds at most `n / log n` vertices remain).
    pub fn phase1_sets(&self, n: u64) -> u32 {
        segmentation::phase1_sets(n)
    }

    /// Full-partition round bound `L`.
    pub fn full_rounds(&self, n: u64) -> u32 {
        itlog::partition_round_bound(n, EPSILON)
    }

    /// Shared Linial schedule (function of global knowledge only; the
    /// two phases do not read `n`).
    pub fn schedule(&self, ids: &IdAssignment) -> &LinialSchedule {
        &self.schedules(0, ids).1
    }

    /// Palette bound: two phase copies of the Linial fixpoint.
    pub fn palette(&self, ids: &IdAssignment) -> u64 {
        2 * self.schedule(ids).final_palette()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, Graph, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize) -> (f64, u32, usize) {
        let p = ColoringA2LogLog::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            p.palette(&ids) as usize,
        ));
        out.metrics.check_identities().unwrap();
        let used = verify::count_distinct(&out.outputs);
        (
            out.metrics.vertex_averaged(),
            out.metrics.worst_case(),
            used,
        )
    }

    #[test]
    fn proper_on_small_families() {
        run_and_verify(&gen::path(100), 1);
        run_and_verify(&gen::cycle(99), 2);
        run_and_verify(&gen::grid(11, 9), 2);
    }

    #[test]
    fn proper_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        for k in [2usize, 4] {
            let gg = gen::forest_union(900, k, &mut rng);
            run_and_verify(&gg.graph, k);
        }
    }

    #[test]
    fn colors_independent_of_n_theorem_7_6() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut palettes = Vec::new();
        for n in [512usize, 4096, 16384] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let (_, _, used) = run_and_verify(&gg.graph, 2);
            palettes.push(used);
        }
        // Used colors must not grow with n (O(a²) bound).
        assert!(
            palettes[2] <= palettes[0] * 2 + 8,
            "colors grew with n: {palettes:?}"
        );
    }

    #[test]
    fn vertex_averaged_loglog_shape() {
        // VA must stay near t + log* n, far below worst case (which is
        // Θ(log n) because of phase 2).
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for n in [1024usize, 8192] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let p = ColoringA2LogLog::new(2);
            let (va, wc, _) = run_and_verify(&gg.graph, 2);
            let t = p.phase1_sets(n as u64);
            let ids = IdAssignment::identity(n);
            let budget = (t + p.schedule(&ids).rounds() + 2) as f64;
            assert!(
                va <= budget,
                "n={n}: VA={va} exceeds loglog budget {budget}"
            );
            assert!((wc as f64) >= va, "worst case must dominate the average");
        }
    }

    #[test]
    fn worst_case_tracks_full_partition() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let gg = gen::forest_union(4096, 2, &mut rng);
        let p = ColoringA2LogLog::new(2);
        let ids = IdAssignment::identity(4096);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        // Phase-2 vertices terminate around L + log* n.
        let l = p.full_rounds(4096);
        assert!(out.metrics.worst_case() <= l + p.schedule(&ids).rounds() + 1);
    }

    #[test]
    fn phase_windows_ordered() {
        let p = ColoringA2LogLog::new(2);
        let n = 1 << 14;
        let t = p.phase1_sets(n);
        assert!(t >= 1);
        let windows = Shape::TwoPhase.windows(n, &None);
        let window_start = |h| windows.opens(windows.of(h), 0).unwrap();
        assert!(window_start(1) == t + 1);
        assert!(window_start(t + 1) > window_start(t));
    }
}
