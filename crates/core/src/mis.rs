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

use crate::extension::IterationSchedule;
use crate::inset::DeltaPlusOneSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use graphcore::{Graph, IdAssignment, VertexId};
use rand::Rng;
use simlocal::{Protocol, StepCtx, Transition, WireSize};
use std::sync::OnceLock;

/// Per-vertex state.
#[derive(Clone, Debug)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum SMis {
    /// Running Procedure Partition.
    Active,
    /// Joined H-set `h`, waiting for its iteration window.
    Joined { h: u32 },
    /// Running the in-set slot-order coloring.
    InSet { h: u32, c: u64 },
    /// Holding slot color, waiting for its decision slot.
    Await { h: u32, slot: u64 },
    /// Decided (terminal): `true` = in the MIS.
    Fin { h: u32, in_mis: bool },
}

/// Wire message for [`MisExtension`]. Neighbors need: the partition
/// status, a joiner's or in-set vertex's H-index and running color, and a
/// decided vertex's membership bit. An `Await` vertex's slot and H-index
/// are private (it is just holding until its decision round), and a
/// finished vertex's H-index never travels either — so both variants trim
/// to (near-)empty.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // mirrors the `SMis` conventions above
pub enum MisMsg {
    Active,
    Joined { h: u32 },
    InSet { h: u32, c: u64 },
    Await,
    Fin { in_mis: bool },
}

impl WireSize for MisMsg {
    fn wire_bits(&self) -> u64 {
        // 3-bit tag for five variants, then the payload.
        match self {
            MisMsg::Active | MisMsg::Await => 3,
            MisMsg::Joined { h } => 3 + h.wire_bits(),
            MisMsg::InSet { h, c } => 3 + h.wire_bits() + c.wire_bits(),
            MisMsg::Fin { in_mis } => 3 + in_mis.wire_bits(),
        }
    }
}

/// The Corollary 8.4 protocol.
#[derive(Debug)]
pub struct MisExtension {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    sched: OnceLock<(DeltaPlusOneSchedule, IterationSchedule)>,
}

impl MisExtension {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize) -> Self {
        MisExtension {
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

impl Protocol for MisExtension {
    type State = SMis;
    type Msg = MisMsg;
    type Output = bool;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SMis {
        SMis::Active
    }

    // LOCAL-safe: `init` is constant, the schedules are keyed only on the
    // ID space and the partition cap (fixed across edge edits — churn
    // never changes n), and `step` reads only the neighbor view, the
    // round counter, and the vertex's own ID. A vertex's trajectory is
    // therefore a function of its inputs, so warm starts may re-step only
    // the vertices whose inputs an edit changed.
    fn is_local(&self) -> bool {
        true
    }

    fn publish(&self, state: &SMis) -> MisMsg {
        match state {
            SMis::Active => MisMsg::Active,
            SMis::Joined { h } => MisMsg::Joined { h: *h },
            SMis::InSet { h, c } => MisMsg::InSet { h: *h, c: *c },
            SMis::Await { .. } => MisMsg::Await,
            SMis::Fin { in_mis, .. } => MisMsg::Fin { in_mis: *in_mis },
        }
    }

    fn step(&self, ctx: StepCtx<'_, SMis, MisMsg>) -> Transition<SMis, bool> {
        let (inset, iters) = self.schedules(ctx.ids);
        let d = inset.rounds();
        match ctx.state.clone() {
            SMis::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, MisMsg::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SMis::Joined { h: ctx.round })
                } else {
                    Transition::Continue(SMis::Active)
                }
            }
            SMis::Joined { h } => match iters.local_round(h, ctx.round) {
                None => Transition::Continue(SMis::Joined { h }),
                Some(_) => self.inset_step(&ctx, h, ctx.my_id(), 0, d),
            },
            SMis::InSet { h, c } => {
                let i = iters.local_round(h, ctx.round).expect("window open");
                self.inset_step(&ctx, h, c, i, d)
            }
            SMis::Await { h, slot } => {
                let i = iters.local_round(h, ctx.round).expect("window open");
                self.slot_step(&ctx, h, slot, i - d)
            }
            SMis::Fin { .. } => unreachable!("terminal"),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let inset = DeltaPlusOneSchedule::new(n.max(2), self.cap() as u64);
        let dur = inset.rounds() + self.cap() as u32 + 1;
        IterationSchedule::new(dur).window_end(itlog::partition_round_bound(n, self.epsilon)) + 8
    }

    fn phase_names(&self) -> &'static [&'static str] {
        &["partition", "await_window", "inset_color", "slot_sweep"]
    }

    fn phase_of(&self, state: &SMis) -> simlocal::PhaseId {
        match state {
            SMis::Active => 0,
            SMis::Joined { .. } => 1,
            SMis::InSet { .. } => 2,
            SMis::Await { .. } | SMis::Fin { .. } => 3,
        }
    }
}

impl MisExtension {
    fn inset_step(
        &self,
        ctx: &StepCtx<'_, SMis, MisMsg>,
        h: u32,
        cur: u64,
        i: u32,
        d: u32,
    ) -> Transition<SMis, bool> {
        let (inset, _) = self.schedules(ctx.ids);
        if i >= d {
            return self.slot_step(ctx, h, inset.finish(cur), i - d);
        }
        let peers: Vec<u64> = ctx
            .view
            .neighbors()
            .filter_map(|(u, s)| match s {
                MisMsg::InSet { h: j, c } if *j == h => Some(*c),
                // Peers entering the window this round still expose their
                // IDs as their initial colors.
                MisMsg::Joined { h: j } if *j == h => Some(ctx.ids.id(u)),
                _ => None,
            })
            .collect();
        let next = inset.step(i, cur, &peers);
        if i + 1 == d {
            Transition::Continue(SMis::Await {
                h,
                slot: inset.finish(next),
            })
        } else {
            Transition::Continue(SMis::InSet { h, c: next })
        }
    }

    fn slot_step(
        &self,
        ctx: &StepCtx<'_, SMis, MisMsg>,
        h: u32,
        slot: u64,
        slot_round: u32,
    ) -> Transition<SMis, bool> {
        if (slot_round as u64) < slot {
            return Transition::Continue(SMis::Await { h, slot });
        }
        let blocked = ctx
            .view
            .neighbors()
            .any(|(_, s)| matches!(s, MisMsg::Fin { in_mis: true }));
        Transition::Terminate(
            SMis::Fin {
                h,
                in_mis: !blocked,
            },
            !blocked,
        )
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
