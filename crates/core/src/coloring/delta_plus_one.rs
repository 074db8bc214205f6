//! Corollary 8.3 — `(Δ+1)`-vertex-coloring whose vertex-averaged
//! complexity depends on the arboricity, not on Δ.
//!
//! The extension framework (§8) instantiated with 𝒜 = a
//! `(deg+1)`-list-coloring inside each H-set: every vertex starts with the
//! list `{0..Δ}`; colors taken by already-decided neighbors (earlier sets,
//! or earlier slots of the same set) are crossed off. Inside `G(H_i)` the
//! degree is at most `A = O(a)`, so the in-set solver runs in
//! `O(poly(a) + log* n)` rounds: an in-set `(A+1)`-coloring (iterated
//! Linial + KW) provides a slot order, then `A + 1` greedy slots pick
//! final colors. A free color always exists because a vertex has at most
//! `deg(v) ≤ Δ` decided neighbors and `Δ + 1` list entries — the
//! "extension from any partial solution" property of vertex coloring.
//!
//! The paper plugs in the `O(√Δ log^2.5 Δ + log* n)` algorithm of \[13\];
//! our in-set solver is `O(a log a + a + log* n)` — both depend on `a`
//! only once Procedure Partition has capped the degree, which is the
//! claim under test (see DESIGN.md substitutions).

use crate::extension::IterationSchedule;
use crate::inset::DeltaPlusOneSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};
use std::sync::OnceLock;

/// Per-vertex state.
#[derive(Clone, Debug)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum SDp1 {
    /// Running Procedure Partition.
    Active,
    /// Joined H-set `h`; waiting for the iteration window.
    Joined { h: u32 },
    /// Running the in-set slot-order coloring.
    InSet { h: u32, c: u64 },
    /// Holding slot color `slot`, waiting for its greedy slot.
    Await { h: u32, slot: u64 },
    /// Final color fixed (terminal, published).
    Fin { h: u32, color: u64 },
}

/// Wire message for [`DeltaPlusOneColoring`]. An `Await` vertex's slot
/// and H-index are private while it holds for its greedy slot, and a
/// finished vertex only shows its color — neighbors never need the
/// H-index of a decided vertex.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // mirrors the `SDp1` conventions above
pub enum Dp1Msg {
    Active,
    Joined { h: u32 },
    InSet { h: u32, c: u64 },
    Await,
    Fin { color: u64 },
}

impl WireSize for Dp1Msg {
    fn wire_bits(&self) -> u64 {
        // 3-bit tag for five variants, then the payload.
        match self {
            Dp1Msg::Active | Dp1Msg::Await => 3,
            Dp1Msg::Joined { h } => 3 + h.wire_bits(),
            Dp1Msg::InSet { h, c } => 3 + h.wire_bits() + c.wire_bits(),
            Dp1Msg::Fin { color } => 3 + color.wire_bits(),
        }
    }
}

/// The Corollary 8.3 protocol.
#[derive(Debug)]
pub struct DeltaPlusOneColoring {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    sched: OnceLock<(DeltaPlusOneSchedule, IterationSchedule)>,
}

impl DeltaPlusOneColoring {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize) -> Self {
        DeltaPlusOneColoring {
            arboricity,
            epsilon: 2.0,
            sched: OnceLock::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    fn schedules(&self, ids: &IdAssignment) -> &(DeltaPlusOneSchedule, IterationSchedule) {
        self.sched.get_or_init(|| {
            let inset = DeltaPlusOneSchedule::new(ids.id_space().max(2), self.cap() as u64);
            let dur = inset.rounds() + self.cap() as u32 + 1;
            (inset, IterationSchedule::new(dur))
        })
    }
}

impl Protocol for DeltaPlusOneColoring {
    type State = SDp1;
    type Msg = Dp1Msg;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SDp1 {
        SDp1::Active
    }

    fn publish(&self, state: &SDp1) -> Dp1Msg {
        match state {
            SDp1::Active => Dp1Msg::Active,
            SDp1::Joined { h } => Dp1Msg::Joined { h: *h },
            SDp1::InSet { h, c } => Dp1Msg::InSet { h: *h, c: *c },
            SDp1::Await { .. } => Dp1Msg::Await,
            SDp1::Fin { color, .. } => Dp1Msg::Fin { color: *color },
        }
    }

    fn step(&self, ctx: StepCtx<'_, SDp1, Dp1Msg>) -> Transition<SDp1, u64> {
        let (inset, iters) = self.schedules(ctx.ids);
        let d = inset.rounds();
        match ctx.state.clone() {
            SDp1::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, Dp1Msg::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SDp1::Joined { h: ctx.round })
                } else {
                    Transition::Continue(SDp1::Active)
                }
            }
            SDp1::Joined { h } => match iters.local_round(h, ctx.round) {
                None => Transition::Continue(SDp1::Joined { h }),
                Some(_) => self.inset_step(&ctx, h, ctx.my_id(), 0, d),
            },
            SDp1::InSet { h, c } => {
                let i = iters
                    .local_round(h, ctx.round)
                    .expect("window already open");
                self.inset_step(&ctx, h, c, i, d)
            }
            SDp1::Await { h, slot } => {
                let i = iters
                    .local_round(h, ctx.round)
                    .expect("window already open");
                self.slot_step(&ctx, h, slot, i - d)
            }
            SDp1::Fin { .. } => unreachable!("terminal"),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let inset = DeltaPlusOneSchedule::new(n.max(2), self.cap() as u64);
        let dur = inset.rounds() + self.cap() as u32 + 1;
        IterationSchedule::new(dur).window_end(itlog::partition_round_bound(n, self.epsilon)) + 8
    }
}

impl DeltaPlusOneColoring {
    /// In-set slot-order coloring step `i ∈ 0..d`.
    fn inset_step(
        &self,
        ctx: &StepCtx<'_, SDp1, Dp1Msg>,
        h: u32,
        cur: u64,
        i: u32,
        d: u32,
    ) -> Transition<SDp1, u64> {
        let (inset, _) = self.schedules(ctx.ids);
        if i >= d {
            // Degenerate tiny-instance schedule.
            return self.slot_step(ctx, h, inset.finish(cur), i - d);
        }
        let peers: Vec<u64> = ctx
            .view
            .neighbors()
            .filter_map(|(u, s)| match s {
                Dp1Msg::InSet { h: j, c } if *j == h => Some(*c),
                // Peers entering the window this round still expose their
                // IDs as their initial colors.
                Dp1Msg::Joined { h: j } if *j == h => Some(ctx.ids.id(u)),
                _ => None,
            })
            .collect();
        let next = inset.step(i, cur, &peers);
        if i + 1 == d {
            Transition::Continue(SDp1::Await {
                h,
                slot: inset.finish(next),
            })
        } else {
            Transition::Continue(SDp1::InSet { h, c: next })
        }
    }

    /// Greedy slot step: when `slot_round` reaches my slot index, pick the
    /// smallest color of `{0..Δ}` unused by any decided neighbor.
    fn slot_step(
        &self,
        ctx: &StepCtx<'_, SDp1, Dp1Msg>,
        h: u32,
        slot: u64,
        slot_round: u32,
    ) -> Transition<SDp1, u64> {
        if (slot_round as u64) < slot {
            return Transition::Continue(SDp1::Await { h, slot });
        }
        let delta = ctx.graph.max_degree() as u64;
        let mut used = vec![false; delta as usize + 1];
        for (_, s) in ctx.view.neighbors() {
            if let Dp1Msg::Fin { color } = s {
                used[*color as usize] = true;
            }
        }
        let color = used
            .iter()
            .position(|&u| !u)
            .expect("Δ+1 list vs ≤ Δ neighbors") as u64;
        Transition::Terminate(SDp1::Fin { h, color }, color)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize) -> (f64, u32) {
        let p = DeltaPlusOneColoring::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            g.max_degree() + 1,
        ));
        out.metrics.check_identities().unwrap();
        (out.metrics.vertex_averaged(), out.metrics.worst_case())
    }

    #[test]
    fn proper_with_delta_plus_one_colors() {
        run_and_verify(&gen::path(100), 1);
        run_and_verify(&gen::cycle(101), 2);
        run_and_verify(&gen::grid(8, 13), 2);
        run_and_verify(&gen::star(50), 1);
    }

    #[test]
    fn proper_on_forest_unions_and_hubs() {
        let mut rng = ChaCha8Rng::seed_from_u64(90);
        for a in [2usize, 4] {
            let gg = gen::forest_union(600, a, &mut rng);
            run_and_verify(&gg.graph, a);
        }
        // The a ≪ Δ separation workload.
        let hub = gen::hub_forest(1200, 2, 3, 50, &mut rng);
        run_and_verify(&hub.graph, hub.arboricity);
    }

    #[test]
    fn uses_exactly_delta_plus_one_palette_on_star() {
        // Star: Δ = n−1 but a = 1; the center must still get a legal color.
        let g = gen::star(30);
        let p = DeltaPlusOneColoring::new(1);
        let ids = IdAssignment::identity(30);
        let out = simlocal::Runner::new(&p, &g, &ids).run().unwrap();
        assert!(out.outputs.iter().all(|&c| c <= 29));
        verify::assert_ok(verify::proper_vertex_coloring(&g, &out.outputs, 30));
    }

    #[test]
    fn va_depends_on_a_not_delta() {
        // Two graphs with the same arboricity but wildly different Δ must
        // have similar vertex-averaged complexity.
        let mut rng = ChaCha8Rng::seed_from_u64(91);
        let flat = gen::forest_union(2000, 2, &mut rng);
        let spiky = gen::hub_forest(2000, 1, 4, 120, &mut rng); // a ≤ 2, Δ ≥ 120
        let (va_flat, _) = run_and_verify(&flat.graph, 2);
        let (va_spiky, _) = run_and_verify(&spiky.graph, 2);
        assert!(
            va_spiky <= va_flat * 2.0 + 10.0,
            "VA should not blow up with Δ: flat={va_flat}, spiky={va_spiky}"
        );
    }

    #[test]
    fn deterministic_across_engines() {
        let mut rng = ChaCha8Rng::seed_from_u64(92);
        let gg = gen::forest_union(500, 2, &mut rng);
        let ids = IdAssignment::identity(500);
        let p = DeltaPlusOneColoring::new(2);
        let a = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        let b = simlocal::Runner::new(&p, &gg.graph, &ids)
            .parallel()
            .run()
            .unwrap();
        assert_eq!(a.outputs, b.outputs);
    }
}
