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

use crate::inset::LinialSchedule;
use crate::partition::{degree_cap, partition_step};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use crate::segmentation::SegmentSchedule;
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Per-vertex state.
#[derive(Clone, Debug, PartialEq)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum SKa2 {
    /// Running Procedure Partition.
    Active,
    /// Joined H-set `h`; waiting for the segment's 𝒞 window.
    Joined { h: u32 },
    /// Running the segment-wide iterated Linial coloring.
    Coloring { h: u32, color: u64 },
}

impl WireSize for SKa2 {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for three variants, then the payload.
        match self {
            SKa2::Active => 2,
            SKa2::Joined { h } => 2 + h.wire_bits(),
            SKa2::Coloring { h, color } => 2 + h.wire_bits() + color.wire_bits(),
        }
    }
}

/// The §7.6 protocol.
#[derive(Debug)]
pub struct ColoringKa2 {
    /// Known arboricity.
    pub arboricity: usize,
    /// Number of segments `k ∈ [2, ρ(n)]` (clamped by the schedule).
    pub k: u32,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    sched: ScheduleCell<(SegmentSchedule, LinialSchedule)>,
}

impl ColoringKa2 {
    /// Instance with `ε = 2`.
    pub fn new(arboricity: usize, k: u32) -> Self {
        ColoringKa2 {
            arboricity,
            k,
            epsilon: 2.0,
            sched: ScheduleCell::new(),
        }
    }

    /// The `k = ρ(n)` instance of Corollary 7.14 (maximum segmentation).
    pub fn rho_instance(arboricity: usize, n: u64) -> Self {
        Self::new(arboricity, crate::itlog::rho(n))
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    fn schedules(&self, n: u64, ids: &IdAssignment) -> &(SegmentSchedule, LinialSchedule) {
        let space = ids.id_space().max(2);
        self.sched.get(ScheduleKey::ids(space).n(n), || {
            (
                SegmentSchedule::new(n, self.k, self.epsilon),
                LinialSchedule::new(space, self.cap() as u64),
            )
        })
    }

    /// Per-segment palette width α (the Linial fixpoint, `O(a²)`).
    pub fn alpha(&self, ids: &IdAssignment) -> u64 {
        LinialSchedule::new(ids.id_space().max(2), self.cap() as u64).final_palette()
    }

    /// Total palette bound: `k · α = O(k a²)`.
    pub fn palette(&self, n: u64, ids: &IdAssignment) -> u64 {
        let k = SegmentSchedule::new(n, self.k, self.epsilon).k();
        k as u64 * self.alpha(ids)
    }
}

impl Protocol for ColoringKa2 {
    type State = SKa2;
    type Msg = SKa2;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SKa2 {
        SKa2::Active
    }

    fn publish(&self, state: &SKa2) -> SKa2 {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, SKa2>) -> Transition<SKa2, u64> {
        let n = ctx.graph.n() as u64;
        let (segs, linial) = self.schedules(n, ctx.ids);
        match ctx.state.clone() {
            SKa2::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, SKa2::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SKa2::Joined { h: ctx.round })
                } else {
                    Transition::Continue(SKa2::Active)
                }
            }
            SKa2::Joined { h } => {
                let start = segs.c_start(segs.segment_of(h), 0);
                if ctx.round < start {
                    return Transition::Continue(SKa2::Joined { h });
                }
                self.linial_step(&ctx, segs, linial, h, ctx.my_id(), ctx.round - start)
            }
            SKa2::Coloring { h, color } => {
                let start = segs.c_start(segs.segment_of(h), 0);
                self.linial_step(&ctx, segs, linial, h, color, ctx.round - start)
            }
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        SegmentSchedule::new(n, self.k, self.epsilon).total_partition_rounds()
            + LinialSchedule::new(n.max(2), self.cap() as u64).rounds()
            + 8
    }
}

impl ColoringKa2 {
    fn linial_step(
        &self,
        ctx: &StepCtx<'_, SKa2>,
        segs: &SegmentSchedule,
        linial: &LinialSchedule,
        h: u32,
        cur: u64,
        i: u32,
    ) -> Transition<SKa2, u64> {
        let seg = segs.segment_of(h);
        let encode = |c: u64| (seg as u64 - 1) * linial.final_palette().max(2) + c;
        if i >= linial.rounds() {
            // Degenerate schedule (tiny instance).
            return Transition::Terminate(SKa2::Coloring { h, color: cur }, encode(cur));
        }
        let my_id = ctx.my_id();
        // Parents within my segment: same-set neighbors with higher IDs
        // and neighbors in later sets of the same segment.
        let parents: Vec<u64> = ctx
            .view
            .neighbors()
            .filter_map(|(u, s)| {
                let (j, col) = match s {
                    SKa2::Active => return None,
                    SKa2::Joined { h: j } => (*j, ctx.ids.id(u)),
                    SKa2::Coloring { h: j, color } => (*j, *color),
                };
                let is_parent =
                    segs.segment_of(j) == seg && (j > h || (j == h && ctx.ids.id(u) > my_id));
                is_parent.then_some(col)
            })
            .collect();
        let next = linial.step(i, cur, &parents);
        if i + 1 == linial.rounds() {
            Transition::Terminate(SKa2::Coloring { h, color: next }, encode(next))
        } else {
            Transition::Continue(SKa2::Coloring { h, color: next })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
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
