//! §7.8's Procedures Partial-Orientation and Arbdefective-Coloring
//! (Algorithms 1–2 of the paper), standalone.
//!
//! A `b`-arbdefective `c`-coloring assigns one of `c` colors to every
//! vertex such that each color class induces a subgraph of arboricity at
//! most `b`. The paper's recipe: H-partition the graph, color each
//! `G(H_i)` (the paper uses an `⌊a/t⌋`-defective `O(t²)`-coloring; we use
//! the *proper* in-set `(A+1)`-coloring — 0-defective, hence strictly
//! stronger, see DESIGN.md), orient every edge toward the higher
//! (set, color) pair — Procedure Partial-Orientation, here a *total*
//! acyclic orientation of out-degree ≤ `A` — and then have each vertex
//! wait for its parents and take the group least used among them
//! (Procedure Arbdefective-Coloring). With `k` groups, the per-group
//! out-degree is ≤ `⌊A/k⌋`, so each group's arboricity is ≤ `⌊A/k⌋`.
//!
//! This is the splitting engine of Procedure One-Plus-Eta-Arb-Col
//! ([`crate::one_plus_eta`] embeds a level-windowed copy); the standalone
//! protocol is exposed for direct use and direct testing against
//! [`graphcore::verify::arbdefective_coloring`].

use crate::inset::DeltaPlusOneSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Per-vertex state.
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `g` the chosen
/// group.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq)]
pub enum SArbDef {
    /// Running Procedure Partition.
    Active,
    /// In H-set `h`, running the in-set coloring.
    InSet { h: u32, c: u64 },
    /// Waiting for parents to pick groups.
    Wait { h: u32, local: u64 },
    /// Picked group `g` (terminal).
    Done { h: u32, local: u64, g: u32 },
}

impl WireSize for SArbDef {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for four variants, then the payload.
        match self {
            SArbDef::Active => 2,
            SArbDef::InSet { h, c } => 2 + h.wire_bits() + c.wire_bits(),
            SArbDef::Wait { h, local } => 2 + h.wire_bits() + local.wire_bits(),
            SArbDef::Done { h, local, g } => 2 + h.wire_bits() + local.wire_bits() + g.wire_bits(),
        }
    }
}

/// Procedure Arbdefective-Coloring: splits the graph into `k` groups of
/// arboricity ≤ `⌊A/k⌋` each.
#[derive(Debug)]
pub struct ArbdefectiveColoring {
    /// Known arboricity.
    pub arboricity: usize,
    /// Number of groups (the paper's `k`).
    pub k: u32,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    sched: ScheduleCell<DeltaPlusOneSchedule>,
}

impl ArbdefectiveColoring {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize, k: u32) -> Self {
        assert!(k >= 1);
        ArbdefectiveColoring {
            arboricity,
            k,
            epsilon: 2.0,
            sched: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A` — the orientation's out-degree bound.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    /// Arbdefect guarantee: every group has arboricity ≤ `⌊A/k⌋`.
    pub fn arbdefect(&self) -> usize {
        self.cap() / self.k as usize
    }

    fn schedule(&self, ids: &IdAssignment) -> &DeltaPlusOneSchedule {
        let space = ids.id_space().max(2);
        self.sched.get(ScheduleKey::ids(space), || {
            DeltaPlusOneSchedule::new(space, self.cap() as u64)
        })
    }
}

impl Protocol for ArbdefectiveColoring {
    type State = SArbDef;
    type Msg = SArbDef;
    type Output = u32;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SArbDef {
        SArbDef::Active
    }

    fn publish(&self, state: &SArbDef) -> SArbDef {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, SArbDef>) -> Transition<SArbDef, u32> {
        let sched = self.schedule(ctx.ids);
        let d = sched.rounds();
        match ctx.state.clone() {
            SArbDef::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, SArbDef::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SArbDef::InSet {
                        h: ctx.round,
                        c: ctx.my_id(),
                    })
                } else {
                    Transition::Continue(SArbDef::Active)
                }
            }
            SArbDef::InSet { h, c } => {
                let i = ctx.round - h - 1;
                if i >= d {
                    return self.pick(&ctx, h, sched.finish(c));
                }
                let peers: Vec<u64> = ctx
                    .view
                    .neighbors()
                    .filter_map(|(_, s)| match s {
                        SArbDef::InSet { h: j, c } if *j == h => Some(*c),
                        _ => None,
                    })
                    .collect();
                let next = sched.step(i, c, &peers);
                if i + 1 == d {
                    Transition::Continue(SArbDef::Wait {
                        h,
                        local: sched.finish(next),
                    })
                } else {
                    Transition::Continue(SArbDef::InSet { h, c: next })
                }
            }
            SArbDef::Wait { h, local } => self.pick(&ctx, h, local),
            SArbDef::Done { .. } => unreachable!("terminal"),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let l = itlog::partition_round_bound(n, self.epsilon);
        let d = DeltaPlusOneSchedule::new(n.max(2), self.cap() as u64).rounds();
        // Partition + per-set coloring + the backward pick cascade whose
        // length is the orientation length ≤ (A+1)·ℓ.
        l + d + (self.cap() as u32 + 1) * (l + 1) + 16
    }
}

impl ArbdefectiveColoring {
    /// Waits for every parent under the partial orientation (same-set
    /// higher in-set color, later set, or still active / still coloring)
    /// to pick; then takes the group least used among them.
    fn pick(&self, ctx: &StepCtx<'_, SArbDef>, h: u32, my_local: u64) -> Transition<SArbDef, u32> {
        let stay = SArbDef::Wait { h, local: my_local };
        let mut counts = vec![0u32; self.k as usize];
        for (_, s) in ctx.view.neighbors() {
            match s {
                // Future parents: not yet oriented — wait.
                SArbDef::Active => return Transition::Continue(stay),
                SArbDef::InSet { h: j, .. } => {
                    if *j >= h {
                        return Transition::Continue(stay);
                    }
                }
                SArbDef::Wait { h: j, local } => {
                    if *j > h || (*j == h && *local > my_local) {
                        return Transition::Continue(stay);
                    }
                }
                SArbDef::Done { h: j, local, g } => {
                    if *j > h || (*j == h && *local > my_local) {
                        counts[*g as usize] += 1;
                    }
                }
            }
        }
        let g = counts
            .iter()
            .enumerate()
            .min_by_key(|&(_, c)| *c)
            .map(|(i, _)| i as u32)
            .expect("k ≥ 1 groups");
        Transition::Terminate(
            SArbDef::Done {
                h,
                local: my_local,
                g,
            },
            g,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize, k: u32) {
        let p = ArbdefectiveColoring::new(a, k);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        let colors: Vec<u64> = out.outputs.iter().map(|&g| g as u64).collect();
        verify::assert_ok(verify::arbdefective_coloring(
            g,
            &colors,
            p.arbdefect(),
            k as usize,
        ));
        out.metrics.check_identities().unwrap();
    }

    #[test]
    fn splits_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(400);
        for (a, k) in [(4usize, 4u32), (4, 8), (8, 4)] {
            let gg = gen::forest_union(500, a, &mut rng);
            run_and_verify(&gg.graph, a, k);
        }
    }

    #[test]
    fn k_one_is_trivial_split() {
        // One group: arbdefect bound is A itself — trivially valid.
        let mut rng = ChaCha8Rng::seed_from_u64(401);
        let gg = gen::forest_union(200, 2, &mut rng);
        run_and_verify(&gg.graph, 2, 1);
    }

    #[test]
    fn large_k_gives_arboricity_zero_groups() {
        // k > A: every group must be an independent-ish set (arboricity
        // 0 = no edges inside a group).
        let mut rng = ChaCha8Rng::seed_from_u64(402);
        let gg = gen::forest_union(300, 2, &mut rng);
        let p = ArbdefectiveColoring::new(2, 64);
        assert_eq!(p.arbdefect(), 0);
        let ids = IdAssignment::identity(300);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        let colors: Vec<u64> = out.outputs.iter().map(|&g| g as u64).collect();
        // Arbdefect 0 means the coloring is a *proper* coloring.
        verify::assert_ok(verify::proper_vertex_coloring(&gg.graph, &colors, 64));
    }

    #[test]
    fn groups_feed_recursion() {
        // The one_plus_eta contract: the largest group is strictly
        // sparser than the input (arboricity ≤ A/k < a for k > (2+ε)).
        let mut rng = ChaCha8Rng::seed_from_u64(403);
        let gg = gen::forest_union(800, 8, &mut rng);
        let p = ArbdefectiveColoring::new(8, 20);
        assert!(p.arbdefect() < 8);
        let ids = IdAssignment::identity(800);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        for g_idx in 0..20u32 {
            let members: Vec<bool> = out.outputs.iter().map(|&g| g == g_idx).collect();
            let sub = graphcore::InducedSubgraph::new(&gg.graph, &members);
            let nw = graphcore::arboricity::nash_williams_lower_bound(&sub.graph);
            assert!(nw <= p.arbdefect(), "group {g_idx} too dense: NW={nw}");
        }
    }
}
