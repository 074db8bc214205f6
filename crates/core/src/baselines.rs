//! Worst-case reference algorithms — the "previous running time" columns
//! of Tables 1–2.
//!
//! All of these produce the same *kinds* of solutions as the §7/§8
//! protocols but follow the classical execution discipline: no vertex
//! retires early, so the vertex-averaged complexity equals (or tracks)
//! the worst case. Concretely:
//!
//! * [`GlobalLinial`] — Linial's `O(Δ²)`-coloring of the whole graph in
//!   `O(log* n)` rounds \[19\];
//! * [`GlobalLinialKw`] — classical `(Δ+1)`-coloring: iterated Linial
//!   then Kuhn–Wattenhofer reduction against **all** neighbors
//!   (`O(Δ log Δ + log* n)`; the stand-in for the `O(Δ + log* n)` of \[7\]
//!   and the `O(√Δ log^2.5 Δ + log* n)` of \[13\], see DESIGN.md);
//! * [`ArbLinialOneShot`] — `O(a² log² n)`-coloring from scratch:
//!   Procedure Forest-Decomposition (full `O(log n)` schedule for
//!   everyone) + one Arb-Linial round (the classical form of §7.2);
//! * [`ArbLinialFull`] — `O(a²)`-coloring from scratch: full forest
//!   decomposition + iterated Arb-Linial (`O(log n + log* n)` for every
//!   vertex — the \[8\] baseline of Table 1's rows 5–6);
//! * [`crate::forests::ForestDecompositionBaseline`] and
//!   [`crate::arb_color::ArbColor`] are the remaining baselines and live
//!   with their fast counterparts.

use crate::coverfree::CoverFree;
use crate::forests::FState;
use crate::inset::{DeltaPlusOneSchedule, LinialSchedule};
use crate::itlog;
use crate::partition::{degree_cap, partition_step, EPSILON};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Linial's `O(Δ²)`-coloring of the whole graph in `O(log* n)` rounds.
#[derive(Debug, Default)]
pub struct GlobalLinial {
    sched: ScheduleCell<LinialSchedule>,
}

impl GlobalLinial {
    /// Fresh instance.
    pub fn new() -> Self {
        GlobalLinial {
            sched: ScheduleCell::new(),
        }
    }

    fn schedule(&self, g: &Graph, ids: &IdAssignment) -> &LinialSchedule {
        let (space, delta) = (ids.id_space().max(2), g.max_degree().max(1) as u64);
        let key = ScheduleKey::ids(space).max_degree(delta);
        self.sched.get(key, || LinialSchedule::new(space, delta))
    }

    /// Final palette (`O(Δ²)`).
    pub fn palette(&self, g: &Graph, ids: &IdAssignment) -> u64 {
        self.schedule(g, ids).final_palette()
    }
}

impl Protocol for GlobalLinial {
    type State = u64;
    type Msg = u64;
    type Output = u64;

    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u64 {
        ids.id(v)
    }

    fn publish(&self, state: &u64) -> u64 {
        *state
    }

    fn step(&self, ctx: StepCtx<'_, u64>) -> Transition<u64, u64> {
        let sched = self.schedule(ctx.graph, ctx.ids);
        let i = ctx.round - 1;
        if i >= sched.rounds() {
            return Transition::Terminate(*ctx.state, *ctx.state);
        }
        let next = sched.round(&ctx, i, *ctx.state, |(_, &c)| Some(c));
        if i + 1 == sched.rounds() {
            Transition::Terminate(next, next)
        } else {
            Transition::Continue(next)
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        LinialSchedule::new(g.n().max(2) as u64, g.max_degree().max(1) as u64).rounds() + 4
    }
}

/// Classical `(Δ+1)`-coloring of the whole graph: iterated Linial then KW
/// reduction against all neighbors. Every vertex runs the full
/// deterministic schedule.
#[derive(Debug, Default)]
pub struct GlobalLinialKw {
    sched: ScheduleCell<DeltaPlusOneSchedule>,
}

impl GlobalLinialKw {
    /// Fresh instance.
    pub fn new() -> Self {
        GlobalLinialKw {
            sched: ScheduleCell::new(),
        }
    }

    fn schedule(&self, g: &Graph, ids: &IdAssignment) -> &DeltaPlusOneSchedule {
        let (space, delta) = (ids.id_space().max(2), g.max_degree().max(1) as u64);
        let key = ScheduleKey::ids(space).max_degree(delta);
        self.sched
            .get(key, || DeltaPlusOneSchedule::new(space, delta))
    }
}

impl Protocol for GlobalLinialKw {
    type State = u64;
    type Msg = u64;
    type Output = u64;

    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u64 {
        ids.id(v)
    }

    fn publish(&self, state: &u64) -> u64 {
        *state
    }

    fn step(&self, ctx: StepCtx<'_, u64>) -> Transition<u64, u64> {
        // Δ = 0: one color is a proper Δ+1 coloring. The schedule clamps
        // Δ to 1 (KW needs a degree cap), which would end in two colors.
        if ctx.graph.max_degree() == 0 {
            return Transition::Terminate(*ctx.state, 0);
        }
        let sched = self.schedule(ctx.graph, ctx.ids);
        let i = ctx.round - 1;
        if i >= sched.rounds() {
            return Transition::Terminate(*ctx.state, sched.finish(*ctx.state));
        }
        // The last round finishes the color into `0..Δ+1`.
        let next = sched.round(&ctx, i, *ctx.state, |(_, &c)| Some(c));
        if i + 1 == sched.rounds() {
            Transition::Terminate(next, next)
        } else {
            Transition::Continue(next)
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        DeltaPlusOneSchedule::new(g.n().max(2) as u64, g.max_degree().max(1) as u64).rounds() + 4
    }
}

/// `O(a² log² n)`-coloring the classical way: full Procedure
/// Forest-Decomposition, then one Arb-Linial round. Worst case (and
/// vertex average) `Θ(log n)`.
#[derive(Debug)]
pub struct ArbLinialOneShot {
    /// Known arboricity.
    pub arboricity: usize,
    fam: ScheduleCell<CoverFree>,
}

impl ArbLinialOneShot {
    /// Standard instance.
    pub fn new(arboricity: usize) -> Self {
        ArbLinialOneShot {
            arboricity,
            fam: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, EPSILON)
    }

    /// The cover-free family (palette = its ground set).
    pub fn family(&self, ids: &IdAssignment) -> CoverFree {
        let space = ids.id_space().max(2);
        *self.fam.get(ScheduleKey::ids(space), || {
            CoverFree::for_palette(space, self.cap() as u64)
        })
    }
}

impl Protocol for ArbLinialOneShot {
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
        let l = itlog::partition_round_bound(ctx.graph.n() as u64, EPSILON);
        let next = match ctx.state.clone() {
            FState::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, FState::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    FState::Joined { h: ctx.round }
                } else {
                    FState::Active
                }
            }
            s @ FState::Joined { .. } => s,
        };
        if ctx.round <= l {
            return Transition::Continue(next);
        }
        // Round L+1: everyone knows every join round; one Linial step.
        let FState::Joined { h } = next else {
            unreachable!("partition done by L")
        };
        let my_id = ctx.my_id();
        let parents: Vec<u64> = ctx
            .view
            .neighbors()
            .filter_map(|(u, s)| match s {
                FState::Active => unreachable!("partition done by L"),
                FState::Joined { h: j } => {
                    (*j > h || (*j == h && ctx.ids.id(u) > my_id)).then(|| ctx.ids.id(u))
                }
            })
            .collect();
        let color = self.family(ctx.ids).reduce(my_id, &parents);
        Transition::Terminate(next, color)
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        itlog::partition_round_bound(g.n() as u64, EPSILON) + 8
    }
}

/// `O(a²)`-coloring the classical way: full forest decomposition, then
/// the iterated Arb-Linial schedule. Worst case (and vertex average)
/// `Θ(log n + log* n)` — the \[8\] baseline.
#[derive(Debug)]
pub struct ArbLinialFull {
    /// Known arboricity.
    pub arboricity: usize,
    sched: ScheduleCell<LinialSchedule>,
}

/// State: partition mark plus the running color during the Linial phase.
#[derive(Clone, Debug, PartialEq)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum SAlf {
    /// Partition phase.
    Part(FState),
    /// Linial phase with current color.
    Color { h: u32, c: u64 },
}

impl WireSize for SAlf {
    fn wire_bits(&self) -> u64 {
        match self {
            SAlf::Part(fs) => 1 + fs.wire_bits(),
            SAlf::Color { h, c } => 1 + h.wire_bits() + c.wire_bits(),
        }
    }
}

impl ArbLinialFull {
    /// Standard instance.
    pub fn new(arboricity: usize) -> Self {
        ArbLinialFull {
            arboricity,
            sched: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, EPSILON)
    }

    /// Shared Linial schedule.
    pub fn schedule(&self, ids: &IdAssignment) -> &LinialSchedule {
        let space = ids.id_space().max(2);
        self.sched.get(ScheduleKey::ids(space), || {
            LinialSchedule::new(space, self.cap() as u64)
        })
    }
}

impl Protocol for ArbLinialFull {
    type State = SAlf;
    type Msg = SAlf;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SAlf {
        SAlf::Part(FState::Active)
    }

    fn publish(&self, state: &SAlf) -> SAlf {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, SAlf>) -> Transition<SAlf, u64> {
        let l = itlog::partition_round_bound(ctx.graph.n() as u64, EPSILON);
        let sched = self.schedule(ctx.ids);
        match ctx.state.clone() {
            SAlf::Part(fs) => {
                let next = match fs {
                    FState::Active => {
                        let active = ctx
                            .view
                            .neighbors()
                            .filter(|(_, s)| matches!(s, SAlf::Part(FState::Active)))
                            .count();
                        if partition_step(active, self.cap()) {
                            FState::Joined { h: ctx.round }
                        } else {
                            FState::Active
                        }
                    }
                    j @ FState::Joined { .. } => j,
                };
                if ctx.round <= l {
                    Transition::Continue(SAlf::Part(next))
                } else {
                    let FState::Joined { h } = next else {
                        unreachable!("partition done by L")
                    };
                    self.linial(&ctx, h, ctx.my_id(), ctx.round - l - 1, sched)
                }
            }
            SAlf::Color { h, c } => self.linial(&ctx, h, c, ctx.round - l - 1, sched),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        itlog::partition_round_bound(n, EPSILON)
            + LinialSchedule::new(n.max(2), self.cap() as u64).rounds()
            + 8
    }
}

impl ArbLinialFull {
    fn linial(
        &self,
        ctx: &StepCtx<'_, SAlf>,
        h: u32,
        cur: u64,
        i: u32,
        sched: &LinialSchedule,
    ) -> Transition<SAlf, u64> {
        if i >= sched.rounds() {
            return Transition::Terminate(SAlf::Color { h, c: cur }, cur);
        }
        let my_id = ctx.my_id();
        let next = sched.round(ctx, i, cur, |(u, s)| {
            let (j, col) = match s {
                SAlf::Part(FState::Joined { h: j }) => (*j, ctx.ids.id(u)),
                SAlf::Color { h: j, c } => (*j, *c),
                SAlf::Part(FState::Active) => unreachable!("partition done"),
            };
            (j > h || (j == h && ctx.ids.id(u) > my_id)).then_some(col)
        });
        if i + 1 == sched.rounds() {
            Transition::Terminate(SAlf::Color { h, c: next }, next)
        } else {
            Transition::Continue(SAlf::Color { h, c: next })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn global_linial_proper_delta_squared() {
        let g = gen::grid(10, 10);
        let ids = IdAssignment::identity(g.n());
        let p = GlobalLinial::new();
        let out = simlocal::Runner::new(&p, &g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            &g,
            &out.outputs,
            p.palette(&g, &ids) as usize,
        ));
        // log*-ish uniform termination.
        assert_eq!(
            out.metrics.worst_case() as f64,
            out.metrics.vertex_averaged()
        );
    }

    #[test]
    fn global_linial_kw_is_delta_plus_one() {
        let g = gen::cycle(200);
        let ids = IdAssignment::identity(200);
        let out = simlocal::Runner::new(&GlobalLinialKw::new(), &g, &ids)
            .run()
            .unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(&g, &out.outputs, 3));
    }

    #[test]
    fn global_linial_kw_uses_one_color_without_edges() {
        let g = graphcore::GraphBuilder::new(64).build();
        let ids = IdAssignment::identity(64);
        let out = simlocal::Runner::new(&GlobalLinialKw::new(), &g, &ids)
            .run()
            .unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(&g, &out.outputs, 1));
        assert!(out.metrics.termination_round.iter().all(|&t| t == 1));
    }

    #[test]
    fn one_shot_matches_fast_algorithm_colors() {
        // The classical one-shot and the §7.2 protocol compute the same
        // coloring family; the classical one just pays log n everywhere.
        let mut rng = ChaCha8Rng::seed_from_u64(150);
        let gg = gen::forest_union(1024, 2, &mut rng);
        let ids = IdAssignment::identity(1024);
        let base = ArbLinialOneShot::new(2);
        let slow = simlocal::Runner::new(&base, &gg.graph, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            &gg.graph,
            &slow.outputs,
            base.family(&ids).ground_size() as usize,
        ));
        let fast = crate::coloring::a2logn::ColoringA2LogN::new(2);
        let quick = simlocal::Runner::new(&fast, &gg.graph, &ids).run().unwrap();
        assert_eq!(slow.outputs, quick.outputs);
        assert!(
            slow.metrics.vertex_averaged() > 3.0 * quick.metrics.vertex_averaged(),
            "classical VA {} vs parallelized VA {}",
            slow.metrics.vertex_averaged(),
            quick.metrics.vertex_averaged()
        );
    }

    #[test]
    fn full_arb_linial_proper_a_squared() {
        let mut rng = ChaCha8Rng::seed_from_u64(151);
        let gg = gen::forest_union(2048, 2, &mut rng);
        let ids = IdAssignment::identity(2048);
        let p = ArbLinialFull::new(2);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            &gg.graph,
            &out.outputs,
            p.schedule(&ids).final_palette() as usize,
        ));
        // Everyone pays L + log* n.
        let l = itlog::partition_round_bound(2048, 2.0);
        assert!(out.metrics.vertex_averaged() >= l as f64);
    }
}
