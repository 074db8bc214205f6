//! §7.2 — `O(a² log n)`-vertex-coloring in `O(1)` vertex-averaged rounds
//! (Theorem 7.2).
//!
//! Procedure Parallelized-Forest-Decomposition runs underneath; the moment
//! an H-set forms, its vertices execute **one** round of Procedure
//! Arb-Linial-Coloring: vertex `v` picks a color from its cover-free set
//! `F_ID(v)` avoiding the sets of all its *parents* — same-set neighbors
//! with higher IDs and neighbors that have not joined yet. A later-joining
//! parent `u` then picks inside `F_ID(u)`, which `v` already avoided, so
//! the global coloring is proper (the induction of Theorem 7.2).
//!
//! Every vertex terminates one round after joining its H-set, so the
//! vertex-averaged complexity equals that of Procedure Partition plus one:
//! `O(1)`. The palette is the cover-free ground set — `O(A² log² n /
//! log² A)` with the polynomial construction (the paper's probabilistic
//! family gives `O(A² log n)`; see DESIGN.md substitutions).

use crate::coverfree::CoverFree;
use crate::forests::FState;
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition};

/// The §7.2 protocol.
#[derive(Debug, Default)]
pub struct ColoringA2LogN {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    /// Cached cover-free family (pure function of global knowledge).
    fam: ScheduleCell<CoverFree>,
}

impl ColoringA2LogN {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize) -> Self {
        ColoringA2LogN {
            arboricity,
            epsilon: 2.0,
            fam: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    /// The cover-free family every vertex derives from global knowledge.
    pub fn family(&self, ids: &IdAssignment) -> CoverFree {
        let space = ids.id_space().max(2);
        *self.fam.get(ScheduleKey::ids(space), || {
            CoverFree::for_palette(space, self.cap() as u64)
        })
    }

    /// Number of colors this instance can use (palette size).
    pub fn palette(&self, ids: &IdAssignment) -> u64 {
        self.family(ids).ground_size()
    }
}

impl Protocol for ColoringA2LogN {
    type State = FState;
    type Msg = FState;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> FState {
        FState::Active
    }

    fn publish(&self, state: &FState) -> FState {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, FState>) -> Transition<FState, u64> {
        match *ctx.state {
            FState::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, FState::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(FState::Joined { h: ctx.round })
                } else {
                    Transition::Continue(FState::Active)
                }
            }
            FState::Joined { h } => {
                // One round of Procedure Arb-Linial-Coloring against the
                // IDs of the parents.
                let my_id = ctx.my_id();
                let parent_ids: Vec<u64> = ctx
                    .view
                    .neighbors()
                    .filter(|(u, s)| match s {
                        FState::Active => true,
                        FState::Joined { h: j } => *j == h && ctx.ids.id(*u) > my_id,
                    })
                    .map(|(u, _)| ctx.ids.id(u))
                    .collect();
                let fam = self.family(ctx.ids);
                let color = fam.reduce(my_id, &parent_ids);
                Transition::Terminate(FState::Joined { h }, color)
            }
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        itlog::partition_round_bound(g.n() as u64, self.epsilon) + 8
    }

    fn phase_names(&self) -> &'static [&'static str] {
        &["partition", "arb_linial"]
    }

    fn phase_of(&self, state: &FState) -> simlocal::PhaseId {
        match state {
            FState::Active => 0,
            FState::Joined { .. } => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use simlocal::Runner;

    fn run_and_verify(g: &Graph, a: usize) -> (f64, u32, u64) {
        let p = ColoringA2LogN::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            p.palette(&ids) as usize,
        ));
        let used = verify::count_distinct(&out.outputs);
        (
            out.metrics.vertex_averaged(),
            out.metrics.worst_case(),
            used as u64,
        )
    }

    #[test]
    fn proper_on_structured_families() {
        run_and_verify(&gen::path(200), 1);
        run_and_verify(&gen::cycle(201), 2);
        run_and_verify(&gen::grid(15, 17), 2);
        run_and_verify(&gen::binary_tree(255), 1);
    }

    #[test]
    fn proper_on_forest_unions_and_ba() {
        let mut rng = ChaCha8Rng::seed_from_u64(30);
        for k in [2usize, 5] {
            let gg = gen::forest_union(700, k, &mut rng);
            run_and_verify(&gg.graph, gg.arboricity);
        }
        let ba = gen::preferential_attachment(600, 3, &mut rng);
        run_and_verify(&ba.graph, ba.arboricity);
    }

    #[test]
    fn vertex_averaged_constant_theorem_7_2() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut vas = Vec::new();
        for n in [512usize, 2048, 8192] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let (va, wc, _) = run_and_verify(&gg.graph, 2);
            assert!(va <= 3.0, "n={n}: VA={va}");
            assert!(wc >= 2);
            vas.push(va);
        }
        // VA does not grow with n (flat within noise).
        assert!(vas[2] <= vas[0] + 0.5);
    }

    #[test]
    fn random_ids_still_proper() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let gg = gen::forest_union(400, 3, &mut rng);
        let ids = IdAssignment::random_sparse(400, 1 << 20, &mut rng);
        let p = ColoringA2LogN::new(3);
        let out = Runner::new(&p, &gg.graph, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            &gg.graph,
            &out.outputs,
            p.palette(&ids) as usize,
        ));
    }

    #[test]
    fn color_count_scales_with_a_squared_not_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        let small = gen::forest_union(512, 2, &mut rng);
        let big = gen::forest_union(8192, 2, &mut rng);
        let ps = ColoringA2LogN::new(2).palette(&IdAssignment::identity(512));
        let pb = ColoringA2LogN::new(2).palette(&IdAssignment::identity(8192));
        // Palette grows polylogarithmically in n (log² factor), far below
        // linear growth.
        assert!(pb < ps * 8, "palette jumped {ps} -> {pb} for 16x n");
        run_and_verify(&small.graph, 2);
        run_and_verify(&big.graph, 2);
    }

    #[test]
    fn parallel_engine_identical() {
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let gg = gen::forest_union(1000, 2, &mut rng);
        let ids = IdAssignment::identity(1000);
        let p = ColoringA2LogN::new(2);
        let a = Runner::new(&p, &gg.graph, &ids).run().unwrap();
        let b = Runner::new(&p, &gg.graph, &ids).parallel().run().unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.metrics, b.metrics);
    }
}
