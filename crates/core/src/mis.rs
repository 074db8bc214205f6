//! Corollary 8.4 — maximal independent set in `O(a + log* n)`
//! vertex-averaged rounds, plus the classical Luby baseline.
//!
//! Extension-framework instantiation: inside each H-set, compute the
//! in-set `(A+1)`-coloring, then sweep the `A + 1` color classes; a vertex
//! joins the MIS in its slot iff no neighbor — in an earlier set, or in an
//! earlier slot of its own set — is already in the MIS (the reduction from
//! MIS to coloring, §3.2 of \[4\], run per H-set). Independence and
//! maximality extend across sets because later vertices always see the
//! committed outputs of earlier ones.
//!
//! The [`Extension`] driver runs the framework; this module keeps the
//! slot rule.

use crate::extension::{Extension, SlotRule};
use graphcore::{Graph, IdAssignment, VertexId};
use rand::Rng;
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// The Corollary 8.4 slot rule: join unless a decided neighbor joined.
#[derive(Debug)]
pub struct MisRule;

impl SlotRule for MisRule {
    type Decision = bool;
    // The decision reads only the neighbor view.
    const LOCAL: bool = true;

    fn decide(&self, _: &Graph, mut decided: impl Iterator<Item = bool>) -> bool {
        !decided.any(|in_mis| in_mis)
    }
}

/// The Corollary 8.4 protocol.
pub type MisExtension = Extension<MisRule>;

impl MisExtension {
    /// Standard instance.
    pub fn new(arboricity: usize) -> Self {
        Extension::with_rule(arboricity, MisRule)
    }
}

/// Luby's randomized MIS \[21\] — the classical baseline. Each phase is two
/// rounds: undecided vertices draw a random priority; a vertex whose
/// priority strictly beats all undecided neighbors' joins the MIS; in the
/// next round, neighbors of new MIS vertices retire as non-members.
/// `O(log n)` phases with high probability.
#[derive(Clone, Copy, Debug, Default)]
pub struct LubyMis;

/// Luby per-vertex state.
#[derive(Clone, Debug, PartialEq)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum SLuby {
    /// Undecided; carries this phase's priority draw.
    Drawing { priority: u64 },
    /// Declared itself in the MIS last round (neighbors retire now).
    Winner,
}

impl WireSize for SLuby {
    fn wire_bits(&self) -> u64 {
        match self {
            SLuby::Drawing { priority } => 1 + priority.wire_bits(),
            SLuby::Winner => 1,
        }
    }
}

impl Protocol for LubyMis {
    type State = SLuby;
    type Msg = SLuby;
    type Output = bool;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SLuby {
        // Priorities for round 1 are drawn in round 1 (the init value is a
        // placeholder nobody reads before then).
        SLuby::Drawing { priority: 0 }
    }

    // LOCAL-safe: priorities come from the per-(seed, vertex, round)
    // stream, resolution reads only active neighbors, and `max_rounds`
    // depends only on n (which edge churn never changes). No global
    // topology reads, so the warm-start propagation rule applies.
    fn is_local(&self) -> bool {
        true
    }

    fn publish(&self, state: &SLuby) -> SLuby {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, SLuby>) -> Transition<SLuby, bool> {
        match ctx.state {
            SLuby::Winner => Transition::Terminate(SLuby::Winner, true),
            SLuby::Drawing { .. } => {
                // Odd rounds: draw + publish. Even rounds: resolve.
                if ctx.round % 2 == 1 {
                    let p: u64 = ctx.rng().gen();
                    // Tie-break by ID to make wins unambiguous.
                    Transition::Continue(SLuby::Drawing {
                        priority: (p << 20) | (ctx.my_id() & 0xFFFFF),
                    })
                } else {
                    let my = match ctx.state {
                        SLuby::Drawing { priority } => *priority,
                        SLuby::Winner => unreachable!(),
                    };
                    // Retire if a neighbor won the previous resolution
                    // (terminated winners keep publishing `Winner`).
                    if ctx
                        .view
                        .neighbors()
                        .any(|(_, s)| matches!(s, SLuby::Winner))
                    {
                        return Transition::Terminate(SLuby::Drawing { priority: my }, false);
                    }
                    let beats_all = ctx.view.active_neighbors().all(|(_, s)| match s {
                        SLuby::Drawing { priority } => my > *priority,
                        SLuby::Winner => false,
                    });
                    if beats_all {
                        // Publish the win; terminate next round so
                        // neighbors observe it first.
                        Transition::Continue(SLuby::Winner)
                    } else {
                        Transition::Continue(SLuby::Drawing { priority: my })
                    }
                }
            }
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        64 * (g.n().max(2) as u32).ilog2() + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_mis(g: &Graph, a: usize) -> (f64, u32) {
        let p = MisExtension::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::maximal_independent_set(g, &out.outputs));
        out.metrics.check_identities().unwrap();
        (out.metrics.vertex_averaged(), out.metrics.worst_case())
    }

    #[test]
    fn valid_mis_on_families() {
        run_mis(&gen::path(100), 1);
        run_mis(&gen::cycle(101), 2);
        run_mis(&gen::grid(9, 12), 2);
        run_mis(&gen::star(40), 1);
        run_mis(&gen::clique(12), 6);
    }

    #[test]
    fn valid_mis_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(100);
        for a in [2usize, 4] {
            let gg = gen::forest_union(800, a, &mut rng);
            run_mis(&gg.graph, a);
        }
        let hub = gen::hub_forest(1500, 2, 3, 80, &mut rng);
        run_mis(&hub.graph, hub.arboricity);
    }

    #[test]
    fn va_flat_in_n_corollary_8_5() {
        let mut rng = ChaCha8Rng::seed_from_u64(101);
        let g1 = gen::forest_union(1024, 2, &mut rng);
        let g2 = gen::forest_union(32768, 2, &mut rng);
        let (va1, _) = run_mis(&g1.graph, 2);
        let (va2, _) = run_mis(&g2.graph, 2);
        assert!(va2 <= va1 * 1.7 + 3.0, "VA grew too fast: {va1} -> {va2}");
    }

    #[test]
    fn luby_produces_valid_mis() {
        let mut rng = ChaCha8Rng::seed_from_u64(102);
        let gg = gen::forest_union(600, 3, &mut rng);
        let ids = IdAssignment::identity(600);
        for seed in 0..5 {
            let out = simlocal::Runner::new(&LubyMis, &gg.graph, &ids)
                .seed(seed)
                .run()
                .unwrap();
            verify::assert_ok(verify::maximal_independent_set(&gg.graph, &out.outputs));
        }
    }

    #[test]
    fn luby_on_clique_and_star() {
        let ids = IdAssignment::identity(30);
        let out = simlocal::Runner::new(&LubyMis, &gen::clique(30), &ids)
            .run()
            .unwrap();
        verify::assert_ok(verify::maximal_independent_set(
            &gen::clique(30),
            &out.outputs,
        ));
        assert_eq!(out.outputs.iter().filter(|&&b| b).count(), 1);
        let out = simlocal::Runner::new(&LubyMis, &gen::star(30), &ids)
            .run()
            .unwrap();
        verify::assert_ok(verify::maximal_independent_set(
            &gen::star(30),
            &out.outputs,
        ));
    }
}
