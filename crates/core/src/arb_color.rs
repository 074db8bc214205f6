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
//! The protocol also runs on an *induced subgraph*: a membership predicate
//! restricts which neighbors exist. §7.8 uses this to color `G(V ∖ H)`
//! fragments identified by prefix strings.

use crate::inset::DeltaPlusOneSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Per-vertex state.
#[derive(Clone, Debug, PartialEq)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum SArb {
    /// Running Procedure Partition.
    Active,
    /// In H-set `h`, running the in-set coloring.
    InSet { h: u32, c: u64 },
    /// Holding in-set color `local`, waiting for the recolor window and
    /// its parents.
    Wait { h: u32, local: u64 },
    /// Recolored (terminal).
    Done { h: u32, local: u64, rec: u64 },
}

impl WireSize for SArb {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for four variants, then the payload.
        match self {
            SArb::Active => 2,
            SArb::InSet { h, c } => 2 + h.wire_bits() + c.wire_bits(),
            SArb::Wait { h, local } => 2 + h.wire_bits() + local.wire_bits(),
            SArb::Done { h, local, rec } => 2 + h.wire_bits() + local.wire_bits() + rec.wire_bits(),
        }
    }
}

/// Procedure Arb-Color on the whole graph.
#[derive(Debug)]
pub struct ArbColor {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    sched: ScheduleCell<DeltaPlusOneSchedule>,
}

impl ArbColor {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize) -> Self {
        ArbColor {
            arboricity,
            epsilon: 2.0,
            sched: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A`; the final palette is `A + 1` colors.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    /// Palette size `A + 1 = O(a)`.
    pub fn palette(&self) -> u64 {
        self.cap() as u64 + 1
    }

    fn schedule(&self, ids: &IdAssignment) -> &DeltaPlusOneSchedule {
        let space = ids.id_space().max(2);
        self.sched.get(ScheduleKey::ids(space), || {
            DeltaPlusOneSchedule::new(space, self.cap() as u64)
        })
    }

    fn full_rounds(&self, n: u64) -> u32 {
        itlog::partition_round_bound(n, self.epsilon)
    }
}

impl Protocol for ArbColor {
    type State = SArb;
    type Msg = SArb;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SArb {
        SArb::Active
    }

    fn publish(&self, state: &SArb) -> SArb {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, SArb>) -> Transition<SArb, u64> {
        let _n = ctx.graph.n() as u64;
        let sched = self.schedule(ctx.ids);
        let d = sched.rounds();
        match ctx.state.clone() {
            SArb::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, SArb::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SArb::InSet {
                        h: ctx.round,
                        c: ctx.my_id(),
                    })
                } else {
                    Transition::Continue(SArb::Active)
                }
            }
            SArb::InSet { h, c } => {
                let i = ctx.round - h - 1;
                if i >= d {
                    return self.wait_or_recolor(&ctx, d, h, sched.finish(c));
                }
                let peers: Vec<u64> = ctx
                    .view
                    .neighbors()
                    .filter_map(|(_, s)| match s {
                        SArb::InSet { h: j, c } if *j == h => Some(*c),
                        _ => None,
                    })
                    .collect();
                let next = sched.step(i, c, &peers);
                if i + 1 == d {
                    Transition::Continue(SArb::Wait {
                        h,
                        local: sched.finish(next),
                    })
                } else {
                    Transition::Continue(SArb::InSet { h, c: next })
                }
            }
            SArb::Wait { h, local } => self.wait_or_recolor(&ctx, d, h, local),
            SArb::Done { .. } => unreachable!("terminal"),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let d = DeltaPlusOneSchedule::new(n.max(2), self.cap() as u64).rounds();
        let l = self.full_rounds(n);
        l + d + (self.cap() as u32 + 1) * (l + 1) + 16
    }
}

impl ArbColor {
    fn wait_or_recolor(
        &self,
        ctx: &StepCtx<'_, SArb>,
        d: u32,
        h: u32,
        my_local: u64,
    ) -> Transition<SArb, u64> {
        let n = ctx.graph.n() as u64;
        let stay = SArb::Wait { h, local: my_local };
        // Single global window: all sets formed by L, all in-set colorings
        // done d rounds later.
        if ctx.round <= self.full_rounds(n) + d {
            return Transition::Continue(stay);
        }
        let mut used = vec![false; self.cap() + 1];
        for (_, s) in ctx.view.neighbors() {
            match s {
                SArb::Active => unreachable!("partition finished by the window"),
                SArb::InSet { .. } => return Transition::Continue(stay),
                SArb::Wait { h: j, local } => {
                    if *j > h || (*j == h && *local > my_local) {
                        return Transition::Continue(stay);
                    }
                }
                SArb::Done { h: j, local, rec } => {
                    if *j > h || (*j == h && *local > my_local) {
                        used[*rec as usize] = true;
                    }
                }
            }
        }
        let rec = used
            .iter()
            .position(|&u| !u)
            .expect("A+1 palette vs ≤ A parents") as u64;
        Transition::Terminate(
            SArb::Done {
                h,
                local: my_local,
                rec,
            },
            rec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
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
        let l = itlog::partition_round_bound(4096, 2.0) as f64;
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
