//! §7.7 — `O(k a)`-vertex-coloring in `O(a log^(k) n)` vertex-averaged
//! rounds (Theorem 7.16); for `k = ρ(n)` this gives `O(a log* n)` colors
//! in `O(a log* n)` vertex-averaged rounds (Corollary 7.17).
//!
//! The segmentation scheme with: 𝒜 = the in-set `(Δ+1)`-coloring
//! (`A + 1` colors since `Δ(G(H_j)) ≤ A`), ℬ = orient in-set edges toward
//! the higher 𝒜-color (acyclic, length ≤ `A` per set), 𝒞 = the
//! recoloring cascade over the segment: each vertex waits for all its
//! parents within the segment to recolor, then takes the smallest color of
//! the segment's `A + 1`-color palette unused by its parents.
//!
//! The cascade length in segment `s` is `O(a · log^(s) n)` (orientation
//! length `O(a)` per set times `O(log^(s) n)` sets), which with the decay
//! of Lemma 6.1 telescopes to the `O(a log^(k) n)` vertex-averaged bound.

use crate::inset::DeltaPlusOneSchedule;
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
pub enum SKa {
    /// Running Procedure Partition.
    Active,
    /// In H-set `h`, running the in-set coloring (current color `c`).
    InSet { h: u32, c: u64 },
    /// Holding final in-set color `local`, waiting for the segment's
    /// recolor window and its parents.
    Wait { h: u32, local: u64 },
    /// Recolored (terminal, published for children).
    Done { h: u32, local: u64, rec: u64 },
}

impl WireSize for SKa {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for four variants, then the payload.
        match self {
            SKa::Active => 2,
            SKa::InSet { h, c } => 2 + h.wire_bits() + c.wire_bits(),
            SKa::Wait { h, local } => 2 + h.wire_bits() + local.wire_bits(),
            SKa::Done { h, local, rec } => 2 + h.wire_bits() + local.wire_bits() + rec.wire_bits(),
        }
    }
}

/// The §7.7 protocol.
#[derive(Debug)]
pub struct ColoringKa {
    /// Known arboricity.
    pub arboricity: usize,
    /// Number of segments `k ∈ [2, ρ(n)]`.
    pub k: u32,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    sched: ScheduleCell<(SegmentSchedule, DeltaPlusOneSchedule)>,
}

impl ColoringKa {
    /// Instance with `ε = 2`.
    pub fn new(arboricity: usize, k: u32) -> Self {
        ColoringKa {
            arboricity,
            k,
            epsilon: 2.0,
            sched: ScheduleCell::new(),
        }
    }

    /// The `k = ρ(n)` instance of Corollary 7.17.
    pub fn rho_instance(arboricity: usize, n: u64) -> Self {
        Self::new(arboricity, crate::itlog::rho(n))
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    fn schedules(&self, n: u64, ids: &IdAssignment) -> &(SegmentSchedule, DeltaPlusOneSchedule) {
        let space = ids.id_space().max(2);
        self.sched.get(ScheduleKey::ids(space).n(n), || {
            (
                SegmentSchedule::new(n, self.k, self.epsilon),
                DeltaPlusOneSchedule::new(space, self.cap() as u64),
            )
        })
    }

    /// Total palette bound: `k · (A + 1) = O(k a)`.
    pub fn palette(&self, n: u64) -> u64 {
        let k = SegmentSchedule::new(n, self.k, self.epsilon).k();
        k as u64 * (self.cap() as u64 + 1)
    }
}

impl Protocol for ColoringKa {
    type State = SKa;
    type Msg = SKa;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SKa {
        SKa::Active
    }

    fn publish(&self, state: &SKa) -> SKa {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, SKa>) -> Transition<SKa, u64> {
        let n = ctx.graph.n() as u64;
        let (segs, inset) = self.schedules(n, ctx.ids);
        let d = inset.rounds();
        match ctx.state.clone() {
            SKa::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, SKa::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SKa::InSet {
                        h: ctx.round,
                        c: ctx.my_id(),
                    })
                } else {
                    Transition::Continue(SKa::Active)
                }
            }
            SKa::InSet { h, c } => {
                let i = ctx.round - h - 1;
                if i >= d {
                    return self.wait_or_recolor(&ctx, segs, d, h, inset.finish(c));
                }
                let peers: Vec<u64> = ctx
                    .view
                    .neighbors()
                    .filter_map(|(_, s)| match s {
                        SKa::InSet { h: j, c } if *j == h => Some(*c),
                        _ => None,
                    })
                    .collect();
                let next = inset.step(i, c, &peers);
                if i + 1 == d {
                    Transition::Continue(SKa::Wait {
                        h,
                        local: inset.finish(next),
                    })
                } else {
                    Transition::Continue(SKa::InSet { h, c: next })
                }
            }
            SKa::Wait { h, local } => self.wait_or_recolor(&ctx, segs, d, h, local),
            SKa::Done { .. } => unreachable!("Done is terminal"),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let segs = SegmentSchedule::new(n, self.k, self.epsilon);
        let d = DeltaPlusOneSchedule::new(n.max(2), self.cap() as u64).rounds();
        segs.total_partition_rounds()
            + d
            + (self.cap() as u32 + 1) * (segs.total_partition_rounds() + 1)
            + 16
    }
}

impl ColoringKa {
    fn wait_or_recolor(
        &self,
        ctx: &StepCtx<'_, SKa>,
        segs: &SegmentSchedule,
        d: u32,
        h: u32,
        my_local: u64,
    ) -> Transition<SKa, u64> {
        let seg = segs.segment_of(h);
        let stay = SKa::Wait { h, local: my_local };
        if ctx.round < segs.c_start(seg, d) {
            return Transition::Continue(stay);
        }
        // Parents within the segment: same-set higher in-set color, or
        // later set of the same segment.
        let mut used = vec![false; self.cap() + 1];
        for (_, s) in ctx.view.neighbors() {
            match s {
                SKa::Active => {}
                SKa::InSet { h: j, .. } => {
                    if segs.segment_of(*j) == seg && *j >= h {
                        return Transition::Continue(stay);
                    }
                }
                SKa::Wait { h: j, local } => {
                    if segs.segment_of(*j) == seg && (*j > h || (*j == h && *local > my_local)) {
                        return Transition::Continue(stay);
                    }
                }
                SKa::Done { h: j, local, rec } => {
                    if segs.segment_of(*j) == seg && (*j > h || (*j == h && *local > my_local)) {
                        used[*rec as usize] = true;
                    }
                }
            }
        }
        let rec = used
            .iter()
            .position(|&u| !u)
            .expect("A+1 palette vs ≤ A parents") as u64;
        let fin = (seg as u64 - 1) * (self.cap() as u64 + 1) + rec;
        Transition::Terminate(
            SKa::Done {
                h,
                local: my_local,
                rec,
            },
            fin,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize, k: u32) -> (f64, u32, usize) {
        let p = ColoringKa::new(a, k);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            p.palette(g.n() as u64) as usize,
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
        for k in [2u32, 3] {
            run_and_verify(&gen::path(150), 1, k);
            run_and_verify(&gen::cycle(151), 2, k);
            run_and_verify(&gen::grid(10, 13), 2, k);
        }
    }

    #[test]
    fn proper_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(70);
        for a in [2usize, 4] {
            let gg = gen::forest_union(900, a, &mut rng);
            run_and_verify(&gg.graph, a, 2);
        }
    }

    #[test]
    fn rho_instance_proper() {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let gg = gen::forest_union(4096, 2, &mut rng);
        let p = ColoringKa::rho_instance(2, 4096);
        let ids = IdAssignment::identity(4096);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            &gg.graph,
            &out.outputs,
            p.palette(4096) as usize,
        ));
    }

    #[test]
    fn palette_linear_in_k_and_a() {
        assert_eq!(ColoringKa::new(2, 2).palette(1 << 14), 2 * 9);
        assert_eq!(ColoringKa::new(2, 3).palette(1 << 14), 3 * 9);
        assert_eq!(ColoringKa::new(4, 2).palette(1 << 14), 2 * 17);
    }

    #[test]
    fn fewer_colors_than_ka2_more_rounds() {
        // §7.7 trades palette (O(ka) vs O(ka²)) against cascade time.
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let gg = gen::forest_union(4096, 4, &mut rng);
        let ids = IdAssignment::identity(4096);
        let (_, _, used_ka) = run_and_verify(&gg.graph, 4, 2);
        let pk2 = crate::coloring::ka2::ColoringKa2::new(4, 2);
        let out = simlocal::Runner::new(&pk2, &gg.graph, &ids).run().unwrap();
        let used_ka2 = verify::count_distinct(&out.outputs);
        assert!(
            used_ka <= used_ka2,
            "O(ka) used {used_ka} colors, O(ka²) used {used_ka2}"
        );
    }

    #[test]
    fn va_flat_across_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        let g1 = gen::forest_union(1024, 2, &mut rng);
        let g2 = gen::forest_union(32768, 2, &mut rng);
        let (va1, _, _) = run_and_verify(&g1.graph, 2, 2);
        let (va2, _, _) = run_and_verify(&g2.graph, 2, 2);
        assert!(va2 <= va1 * 1.7 + 3.0, "VA grew too fast: {va1} -> {va2}");
    }
}
