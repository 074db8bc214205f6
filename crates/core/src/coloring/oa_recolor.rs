//! §7.4 — `O(a)`-vertex-coloring in `O(a log log n)` vertex-averaged
//! rounds (Theorem 7.9).
//!
//! Two phases split at `t = ⌊log log n⌋` H-sets:
//!
//! 1. Upon formation of each `H_i`, color `G(H_i)` with the in-set
//!    `(Δ+1)`-coloring (`Δ(G(H_i)) ≤ A`, so `A+1` colors) and orient
//!    in-set edges toward the higher color, cross-set edges toward the
//!    later set — an acyclic orientation of out-degree ≤ `A` and in-set
//!    length ≤ `A`. After the phase boundary, *recolor*: every vertex
//!    waits for all its parents (within the phase union) to pick, then
//!    takes the smallest color of `{0..A}` unused by its parents and
//!    outputs `⟨c, 1⟩`.
//! 2. The residual `O(n / log n)` vertices repeat the same with palette
//!    tag `⟨c, 2⟩` after the full partition finishes.
//!
//! Total palette `2(A+1) = O(a)`. The recoloring cascade is bounded by the
//! orientation length `O(a · log log n)` in phase 1 and `O(a · log n)` in
//! phase 2 — but phase 2 only holds `O(n / log n)` vertices, giving the
//! `O(a log log n)` vertex-averaged bound (plus the in-set coloring's
//! `O(a log a + log* n)`; see DESIGN.md on the substituted inner routine).

use crate::inset::DeltaPlusOneSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};
use std::sync::OnceLock;

/// Per-vertex state.
#[derive(Clone, Debug, PartialEq)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum S74 {
    /// Running Procedure Partition.
    Active,
    /// In H-set `h`, running the in-set coloring with current color `c`
    /// (IDs until the window opens).
    InSet { h: u32, c: u64 },
    /// Holds a final in-set color; waiting for the recolor window and for
    /// its parents to recolor.
    WaitRecolor { h: u32, local: u64 },
    /// Recolored (published so children can proceed).
    Done { h: u32, local: u64, rec: u64 },
}

impl WireSize for S74 {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for four variants, then the payload.
        match self {
            S74::Active => 2,
            S74::InSet { h, c } => 2 + h.wire_bits() + c.wire_bits(),
            S74::WaitRecolor { h, local } => 2 + h.wire_bits() + local.wire_bits(),
            S74::Done { h, local, rec } => 2 + h.wire_bits() + local.wire_bits() + rec.wire_bits(),
        }
    }
}

/// The §7.4 protocol.
#[derive(Debug, Default)]
pub struct ColoringOaRecolor {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    sched: OnceLock<DeltaPlusOneSchedule>,
}

impl ColoringOaRecolor {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize) -> Self {
        ColoringOaRecolor {
            arboricity,
            epsilon: 2.0,
            sched: OnceLock::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    /// Phase-1 set count `t = ⌊log log n⌋`, clamped ≥ 1.
    pub fn phase1_sets(&self, n: u64) -> u32 {
        (itlog::iterated_log(n.max(4), 2) as u32).max(1)
    }

    /// Full partition bound `L`.
    pub fn full_rounds(&self, n: u64) -> u32 {
        itlog::partition_round_bound(n, self.epsilon)
    }

    /// In-set coloring schedule (global knowledge only).
    pub fn schedule(&self, ids: &IdAssignment) -> &DeltaPlusOneSchedule {
        self.sched
            .get_or_init(|| DeltaPlusOneSchedule::new(ids.id_space().max(2), self.cap() as u64))
    }

    /// Total palette: two phase copies of `A + 1` colors.
    pub fn palette(&self) -> u64 {
        2 * (self.cap() as u64 + 1)
    }

    /// Recolor-window start for the phase of H-set `h`.
    fn recolor_start(&self, n: u64, d: u32, h: u32) -> u32 {
        let t = self.phase1_sets(n);
        if h <= t {
            t + d + 1
        } else {
            self.full_rounds(n).max(t) + d + 1
        }
    }

    fn phase_bit(&self, n: u64, h: u32) -> u64 {
        u64::from(h > self.phase1_sets(n))
    }
}

impl Protocol for ColoringOaRecolor {
    type State = S74;
    type Msg = S74;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> S74 {
        S74::Active
    }

    fn publish(&self, state: &S74) -> S74 {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, S74>) -> Transition<S74, u64> {
        let _n = ctx.graph.n() as u64;
        let sched = self.schedule(ctx.ids);
        let d = sched.rounds();
        match ctx.state.clone() {
            S74::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, S74::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(S74::InSet {
                        h: ctx.round,
                        c: ctx.my_id(),
                    })
                } else {
                    Transition::Continue(S74::Active)
                }
            }
            S74::InSet { h, c } => {
                // In-set (Δ+1)-coloring window is [h+1, h+d].
                let i = ctx.round - h - 1;
                if i >= d {
                    // Empty schedule (tiny instance): ID is already < A+1.
                    return self.wait_or_recolor(&ctx, h, sched.finish(c));
                }
                let peers: Vec<u64> = ctx
                    .view
                    .neighbors()
                    .filter_map(|(_, s)| match s {
                        S74::InSet { h: j, c } if *j == h => Some(*c),
                        _ => None,
                    })
                    .collect();
                let next = sched.step(i, c, &peers);
                if i + 1 == d {
                    Transition::Continue(S74::WaitRecolor {
                        h,
                        local: sched.finish(next),
                    })
                } else {
                    Transition::Continue(S74::InSet { h, c: next })
                }
            }
            S74::WaitRecolor { h, local } => self.wait_or_recolor(&ctx, h, local),
            S74::Done { .. } => unreachable!("Done is a terminal state"),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let d = DeltaPlusOneSchedule::new(n.max(2), self.cap() as u64).rounds();
        // Phase-2 recolor cascade is bounded by (A+1) per set across L sets.
        self.full_rounds(n) + d + (self.cap() as u32 + 1) * (self.full_rounds(n) + 1) + 16
    }
}

impl ColoringOaRecolor {
    /// Recolor attempt: if the window is open and every parent in the
    /// phase union has recolored, pick the smallest free color and finish.
    fn wait_or_recolor(
        &self,
        ctx: &StepCtx<'_, S74>,
        h: u32,
        my_local: u64,
    ) -> Transition<S74, u64> {
        let n = ctx.graph.n() as u64;
        let d = self.schedule(ctx.ids).rounds();
        let stay = S74::WaitRecolor { h, local: my_local };
        if ctx.round < self.recolor_start(n, d, h) {
            return Transition::Continue(stay);
        }
        let t = self.phase1_sets(n);
        let in_my_phase = |j: u32| (j <= t) == (h <= t);
        // Parents: same-set neighbors with a higher in-set color, or
        // same-phase neighbors in a later set. A parent that has not
        // recolored yet forces another waiting round; recolored parents'
        // colors are blocked.
        let mut used = vec![false; self.cap() + 1];
        for (_, s) in ctx.view.neighbors() {
            match s {
                // Other phase still partitioning — not in my union.
                S74::Active => {}
                S74::InSet { h: j, .. } => {
                    // Still coloring: a (potential) parent unless it is a
                    // same-set peer that cannot outrank an already-decided
                    // local color — be conservative and wait.
                    if in_my_phase(*j) && *j >= h {
                        return Transition::Continue(stay);
                    }
                }
                S74::WaitRecolor { h: j, local } => {
                    if in_my_phase(*j) && (*j > h || (*j == h && *local > my_local)) {
                        return Transition::Continue(stay);
                    }
                }
                S74::Done { h: j, local, rec } => {
                    if in_my_phase(*j) && (*j > h || (*j == h && *local > my_local)) {
                        used[*rec as usize] = true;
                    }
                }
            }
        }
        let rec = used
            .iter()
            .position(|&u| !u)
            .expect("A+1 palette vs ≤ A parents") as u64;
        let fin = rec * 2 + self.phase_bit(n, h);
        Transition::Terminate(
            S74::Done {
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

    fn run_and_verify(g: &Graph, a: usize) -> (f64, u32, usize) {
        let p = ColoringOaRecolor::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            p.palette() as usize,
        ));
        out.metrics.check_identities().unwrap();
        (
            out.metrics.vertex_averaged(),
            out.metrics.worst_case(),
            verify::count_distinct(&out.outputs),
        )
    }

    #[test]
    fn proper_on_small_families() {
        run_and_verify(&gen::path(120), 1);
        run_and_verify(&gen::cycle(121), 2);
        run_and_verify(&gen::grid(9, 14), 2);
        run_and_verify(&gen::binary_tree(127), 1);
    }

    #[test]
    fn proper_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(50);
        for k in [2usize, 4] {
            let gg = gen::forest_union(800, k, &mut rng);
            run_and_verify(&gg.graph, k);
        }
    }

    #[test]
    fn palette_is_linear_in_a_theorem_7_9() {
        let mut rng = ChaCha8Rng::seed_from_u64(51);
        for (k, n) in [(2usize, 2048usize), (4, 2048), (8, 4096)] {
            let gg = gen::forest_union(n, k, &mut rng);
            let p = ColoringOaRecolor::new(k);
            let (_, _, used) = run_and_verify(&gg.graph, k);
            assert!(used as u64 <= p.palette());
            // Linear in a: 2(⌊4a⌋+1).
            assert!(p.palette() <= 8 * k as u64 + 2);
        }
    }

    #[test]
    fn worst_case_minus_average_grows_with_n() {
        // The in-set coloring schedule is an additive term shared by VA
        // and WC; the separation the theorem claims is in the tails:
        // WC − VA ≈ L(n) − t(n) = Θ(log n) − Θ(log log n).
        let mut rng = ChaCha8Rng::seed_from_u64(52);
        let g1 = gen::forest_union(1024, 2, &mut rng);
        let g2 = gen::forest_union(32768, 2, &mut rng);
        let (va1, wc1, _) = run_and_verify(&g1.graph, 2);
        let (va2, wc2, _) = run_and_verify(&g2.graph, 2);
        let gap1 = wc1 as f64 - va1;
        let gap2 = wc2 as f64 - va2;
        assert!(gap2 > gap1 + 2.0, "gap did not widen: {gap1} -> {gap2}");
    }

    #[test]
    fn va_scales_loglog_not_log() {
        // Between n=1k and n=64k, log n doubles+ but loglog/logstar barely
        // move: VA growth must stay under 65%.
        let mut rng = ChaCha8Rng::seed_from_u64(53);
        let g1 = gen::forest_union(1024, 2, &mut rng);
        let g2 = gen::forest_union(65536, 2, &mut rng);
        let (va1, _, _) = run_and_verify(&g1.graph, 2);
        let (va2, _, _) = run_and_verify(&g2.graph, 2);
        assert!(va2 <= va1 * 1.65 + 2.0, "VA grew too fast: {va1} -> {va2}");
    }

    #[test]
    fn identity_vs_permuted_ids_both_proper() {
        let mut rng = ChaCha8Rng::seed_from_u64(54);
        let gg = gen::forest_union(500, 3, &mut rng);
        let ids = IdAssignment::random_permutation(500, &mut rng);
        let p = ColoringOaRecolor::new(3);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            &gg.graph,
            &out.outputs,
            p.palette() as usize,
        ));
    }
}
