//! §7.3 — `O(a²)`-vertex-coloring in `O(log log n)` vertex-averaged rounds
//! (Theorem 7.6).
//!
//! Two phases:
//!
//! 1. Run Procedure Parallelized-Forest-Decomposition for
//!    `t = ⌊c'·log log n⌋` iterations, forming `H_1..H_t`; then run the
//!    full iterated Procedure Arb-Linial-Coloring (`O(log* n)` rounds) on
//!    the subgraph induced by their union, giving each member the color
//!    `⟨c, 1⟩`. All but `O(n / log n)` vertices live in this phase and
//!    terminate within `O(log log n + log* n)` rounds.
//! 2. The remaining vertices keep partitioning until every one has joined
//!    (round `L = O(log n)`), then run the same iterated coloring on the
//!    residual union with the disjoint palette `⟨c, 2⟩`.
//!
//! Phase-2 vertices pay `O(log n)` rounds, but there are only
//! `O(n / log n)` of them (Lemma 6.1), so the vertex-averaged complexity
//! is `O(log log n)` while the palette stays `O(a²)` — independent of `n`.
//!
//! Inside a phase union, a vertex's *conflict set* for the Linial steps is
//! its parents: same-set neighbors with higher IDs plus neighbors in later
//! sets of the same phase — at most `A` of them by the H-partition
//! property, which is exactly the cover-free budget.

use crate::inset::LinialSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Per-vertex state.
#[derive(Clone, Debug, PartialEq)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum S73 {
    /// Running Procedure Partition.
    Active,
    /// Joined H-set `h`; waiting for its phase's coloring window.
    Joined { h: u32 },
    /// In the coloring window with a current Linial color.
    Coloring { h: u32, color: u64 },
}

impl WireSize for S73 {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for three variants, then the payload.
        match self {
            S73::Active => 2,
            S73::Joined { h } => 2 + h.wire_bits(),
            S73::Coloring { h, color } => 2 + h.wire_bits() + color.wire_bits(),
        }
    }
}

/// The §7.3 protocol.
#[derive(Debug, Default)]
pub struct ColoringA2LogLog {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    /// Lazily computed Linial schedule (a pure function of the globally
    /// known ID space and `A`; cached so steps don't recompute it).
    sched: std::sync::OnceLock<LinialSchedule>,
}

impl ColoringA2LogLog {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize) -> Self {
        ColoringA2LogLog {
            arboricity,
            epsilon: 2.0,
            sched: std::sync::OnceLock::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    /// `t = ⌊c'·log log n⌋` with `c' = 1/log₂((2+ε)/2)`, clamped ≥ 1
    /// (after `t` partition rounds at most `n / log n` vertices remain).
    pub fn phase1_sets(&self, n: u64) -> u32 {
        let c_prime = 1.0 / ((2.0 + self.epsilon) / 2.0).log2();
        let ll = itlog::iterated_log(n.max(4), 2) as f64;
        ((c_prime * ll).floor() as u32).max(1)
    }

    /// Full-partition round bound `L`.
    pub fn full_rounds(&self, n: u64) -> u32 {
        itlog::partition_round_bound(n, self.epsilon)
    }

    /// Shared Linial schedule (function of global knowledge only).
    pub fn schedule(&self, ids: &IdAssignment) -> &LinialSchedule {
        self.sched
            .get_or_init(|| LinialSchedule::new(ids.id_space().max(2), self.cap() as u64))
    }

    /// Palette bound: two phase copies of the Linial fixpoint.
    pub fn palette(&self, ids: &IdAssignment) -> u64 {
        2 * self.schedule(ids).final_palette()
    }

    /// Window start round of the phase containing H-set `h`.
    fn window_start(&self, n: u64, h: u32) -> u32 {
        let t = self.phase1_sets(n);
        if h <= t {
            t + 1
        } else {
            self.full_rounds(n).max(t) + 1
        }
    }

    /// Phase tag (1 or 2) of H-set `h`.
    fn phase_of(&self, n: u64, h: u32) -> u64 {
        if h <= self.phase1_sets(n) {
            0
        } else {
            1
        }
    }

    /// Encodes the pair ⟨c, phase⟩ into a single color value.
    fn encode(&self, c: u64, phase: u64) -> u64 {
        2 * c + phase
    }
}

/// The color a neighbor currently exposes for Linial purposes: its
/// published Linial color if it has started coloring, otherwise its ID
/// (the paper treats IDs as initial colors).
fn exposed_color(ids: &IdAssignment, u: VertexId, s: &S73) -> u64 {
    match s {
        S73::Coloring { color, .. } => *color,
        _ => ids.id(u),
    }
}

impl Protocol for ColoringA2LogLog {
    type State = S73;
    type Msg = S73;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> S73 {
        S73::Active
    }

    fn publish(&self, state: &S73) -> S73 {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, S73>) -> Transition<S73, u64> {
        let n = ctx.graph.n() as u64;
        match ctx.state.clone() {
            S73::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, S73::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(S73::Joined { h: ctx.round })
                } else {
                    Transition::Continue(S73::Active)
                }
            }
            S73::Joined { h } => {
                let start = self.window_start(n, h);
                if ctx.round < start {
                    return Transition::Continue(S73::Joined { h });
                }
                // First Linial step (or immediate finish if the schedule
                // is empty for tiny inputs).
                self.coloring_step(&ctx, h, ctx.my_id(), ctx.round - start)
            }
            S73::Coloring { h, color } => {
                let start = self.window_start(n, h);
                self.coloring_step(&ctx, h, color, ctx.round - start)
            }
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        self.full_rounds(n).max(self.phase1_sets(n))
            + LinialSchedule::new(n.max(2), self.cap() as u64).rounds()
            + 8
    }
}

impl ColoringA2LogLog {
    /// Executes Linial step `i` of the window for a vertex in H-set `h`
    /// currently colored `cur`; terminates after the last step.
    fn coloring_step(
        &self,
        ctx: &StepCtx<'_, S73>,
        h: u32,
        cur: u64,
        i: u32,
    ) -> Transition<S73, u64> {
        let n = ctx.graph.n() as u64;
        let sched = self.schedule(ctx.ids);
        let phase = self.phase_of(n, h);
        if i >= sched.rounds() {
            // Empty schedule (tiny instance): the ID itself is the color.
            return Transition::Terminate(S73::Coloring { h, color: cur }, self.encode(cur, phase));
        }
        let t = self.phase1_sets(n);
        let in_my_phase = |j: u32| (j <= t) == (h <= t);
        let my_id = ctx.my_id();
        let parents: Vec<u64> = ctx
            .view
            .neighbors()
            .filter(|(u, s)| match s {
                S73::Active => false, // other phase still partitioning: not in my union
                S73::Joined { h: j } | S73::Coloring { h: j, .. } => {
                    in_my_phase(*j) && (*j > h || (*j == h && ctx.ids.id(*u) > my_id))
                }
            })
            .map(|(u, s)| exposed_color(ctx.ids, u, s))
            .collect();
        let next = sched.step(i, cur, &parents);
        if i + 1 == sched.rounds() {
            Transition::Terminate(S73::Coloring { h, color: next }, self.encode(next, phase))
        } else {
            Transition::Continue(S73::Coloring { h, color: next })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize) -> (f64, u32, usize) {
        let p = ColoringA2LogLog::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            p.palette(&ids) as usize,
        ));
        out.metrics.check_identities().unwrap();
        let used = verify::count_distinct(&out.outputs);
        (
            out.metrics.vertex_averaged(),
            out.metrics.worst_case(),
            used,
        )
    }

    #[test]
    fn proper_on_small_families() {
        run_and_verify(&gen::path(100), 1);
        run_and_verify(&gen::cycle(99), 2);
        run_and_verify(&gen::grid(11, 9), 2);
    }

    #[test]
    fn proper_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(40);
        for k in [2usize, 4] {
            let gg = gen::forest_union(900, k, &mut rng);
            run_and_verify(&gg.graph, k);
        }
    }

    #[test]
    fn colors_independent_of_n_theorem_7_6() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let mut palettes = Vec::new();
        for n in [512usize, 4096, 16384] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let (_, _, used) = run_and_verify(&gg.graph, 2);
            palettes.push(used);
        }
        // Used colors must not grow with n (O(a²) bound).
        assert!(
            palettes[2] <= palettes[0] * 2 + 8,
            "colors grew with n: {palettes:?}"
        );
    }

    #[test]
    fn vertex_averaged_loglog_shape() {
        // VA must stay near t + log* n, far below worst case (which is
        // Θ(log n) because of phase 2).
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for n in [1024usize, 8192] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let p = ColoringA2LogLog::new(2);
            let (va, wc, _) = run_and_verify(&gg.graph, 2);
            let t = p.phase1_sets(n as u64);
            let ids = IdAssignment::identity(n);
            let budget = (t + p.schedule(&ids).rounds() + 2) as f64;
            assert!(
                va <= budget,
                "n={n}: VA={va} exceeds loglog budget {budget}"
            );
            assert!((wc as f64) >= va, "worst case must dominate the average");
        }
    }

    #[test]
    fn worst_case_tracks_full_partition() {
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let gg = gen::forest_union(4096, 2, &mut rng);
        let p = ColoringA2LogLog::new(2);
        let ids = IdAssignment::identity(4096);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        // Phase-2 vertices terminate around L + log* n.
        let l = p.full_rounds(4096);
        assert!(out.metrics.worst_case() <= l + p.schedule(&ids).rounds() + 1);
    }

    #[test]
    fn phase_windows_ordered() {
        let p = ColoringA2LogLog::new(2);
        let n = 1 << 14;
        let t = p.phase1_sets(n);
        assert!(t >= 1);
        assert!(p.window_start(n, 1) == t + 1);
        assert!(p.window_start(n, t + 1) > p.window_start(n, t));
    }
}
