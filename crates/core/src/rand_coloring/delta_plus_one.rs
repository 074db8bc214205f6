//! §9.2 — randomized `(Δ+1)`-vertex-coloring with `O(1)` vertex-averaged
//! complexity w.h.p. (Theorem 9.1; Procedure Rand-Delta-Plus1 of \[4\], a
//! Luby-style variant \[21\]).
//!
//! Each *phase* is two rounds (the LOCAL-model realization of "draw and
//! compare within one round"):
//!
//! 1. **Propose.** With probability ½ an undecided vertex draws a color
//!    uniformly from `{0..Δ} ∖ F_v` (`F_v` = final colors of decided
//!    neighbors) and publishes it.
//! 2. **Resolve.** A proposer whose color collides with no neighbor's
//!    simultaneous proposal and no newly-final neighbor color fixes it as
//!    final and terminates.
//!
//! A vertex succeeds in a phase with probability ≥ ¼, so the active set
//! decays geometrically in expectation and w.h.p. — vertex-averaged
//! complexity `O(1)` — while the worst case is `Θ(log n)` w.h.p.

use graphcore::{Graph, IdAssignment, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Per-vertex state.
#[derive(Clone, Debug, PartialEq)]
pub enum SRand {
    /// No live proposal this phase.
    Idle,
    /// Proposed a color this phase.
    Proposed(u64),
    /// Final color (terminal, published).
    Final(u64),
}

impl WireSize for SRand {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for three variants, then the payload.
        match self {
            SRand::Idle => 2,
            SRand::Proposed(c) | SRand::Final(c) => 2 + c.wire_bits(),
        }
    }
}

/// The §9.2 protocol. The palette may be overridden (the §9.3 algorithm
/// reuses this logic per H-set with palette `A + 1`).
#[derive(Clone, Copy, Debug)]
pub struct RandDeltaPlusOne {
    /// Palette size; `None` = `Δ + 1` read from the graph.
    pub palette: Option<u64>,
}

impl RandDeltaPlusOne {
    /// Standard `(Δ+1)`-coloring instance.
    pub fn new() -> Self {
        RandDeltaPlusOne { palette: None }
    }

    /// Effective palette size on `g`.
    pub fn palette_on(&self, g: &Graph) -> u64 {
        self.palette.unwrap_or(g.max_degree() as u64 + 1)
    }
}

impl Default for RandDeltaPlusOne {
    fn default() -> Self {
        Self::new()
    }
}

impl Protocol for RandDeltaPlusOne {
    type State = SRand;
    type Msg = SRand;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SRand {
        SRand::Idle
    }

    fn publish(&self, state: &SRand) -> SRand {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, SRand>) -> Transition<SRand, u64> {
        let palette = self.palette_on(ctx.graph);
        if ctx.round % 2 == 1 {
            // Propose.
            let mut rng = ctx.rng();
            if !rng.gen_bool(0.5) {
                return Transition::Continue(SRand::Idle);
            }
            let taken: Vec<u64> = ctx
                .view
                .neighbors()
                .filter_map(|(_, s)| match s {
                    SRand::Final(c) => Some(*c),
                    _ => None,
                })
                .collect();
            let free: Vec<u64> = (0..palette).filter(|c| !taken.contains(c)).collect();
            let &c = free
                .choose(&mut rng)
                .expect("palette Δ+1 exceeds the number of decided neighbors");
            Transition::Continue(SRand::Proposed(c))
        } else {
            // Resolve.
            match *ctx.state {
                SRand::Idle => Transition::Continue(SRand::Idle),
                SRand::Proposed(c) => {
                    let conflict = ctx.view.neighbors().any(|(_, s)| match s {
                        SRand::Proposed(c2) | SRand::Final(c2) => *c2 == c,
                        SRand::Idle => false,
                    });
                    if conflict {
                        Transition::Continue(SRand::Idle)
                    } else {
                        Transition::Terminate(SRand::Final(c), c)
                    }
                }
                SRand::Final(_) => unreachable!("terminal"),
            }
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        // O(log n) phases w.h.p.; generous slack before declaring failure.
        128 * (g.n().max(4) as u32).ilog2() + 256
    }

    fn phase_names(&self) -> &'static [&'static str] {
        &["undecided", "proposed"]
    }

    fn phase_of(&self, state: &SRand) -> simlocal::PhaseId {
        // Attribution is by the state the round is entered with: rounds
        // entered without a live proposal vs. rounds spent resolving one.
        match state {
            SRand::Idle => 0,
            SRand::Proposed(_) | SRand::Final(_) => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_seeded(g: &Graph, seed: u64) -> (Vec<u64>, f64, u32) {
        let p = RandDeltaPlusOne::new();
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).seed(seed).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            g.max_degree() + 1,
        ));
        (
            out.outputs,
            out.metrics.vertex_averaged(),
            out.metrics.worst_case(),
        )
    }

    #[test]
    fn proper_across_seeds_and_families() {
        for seed in 0..5 {
            run_seeded(&gen::cycle(101), seed);
            run_seeded(&gen::grid(9, 9), seed);
            run_seeded(&gen::clique(15), seed);
            run_seeded(&gen::star(40), seed);
        }
    }

    #[test]
    fn proper_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(130);
        let gg = gen::gnp(400, 0.02, &mut rng);
        run_seeded(&gg.graph, 7);
        let ba = gen::preferential_attachment(500, 3, &mut rng);
        run_seeded(&ba.graph, 8);
    }

    #[test]
    fn vertex_averaged_constant_theorem_9_1() {
        // VA stays bounded (≈ 2·(expected 4 phases)) as n grows.
        let mut rng = ChaCha8Rng::seed_from_u64(131);
        let mut vas = Vec::new();
        for n in [512usize, 4096, 32768] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let (_, va, _) = run_seeded(&gg.graph, 99);
            assert!(va <= 12.0, "n={n}: VA={va} not O(1)");
            vas.push(va);
        }
        assert!(vas[2] <= vas[0] + 2.0, "VA drifting upward: {vas:?}");
    }

    #[test]
    fn worst_case_exceeds_average() {
        let mut rng = ChaCha8Rng::seed_from_u64(132);
        let gg = gen::forest_union(16384, 2, &mut rng);
        let (_, va, wc) = run_seeded(&gg.graph, 5);
        assert!((wc as f64) > 2.0 * va, "wc={wc} va={va}");
    }

    #[test]
    fn different_seeds_different_colorings() {
        let g = gen::cycle(64);
        let (a, _, _) = run_seeded(&g, 1);
        let (b, _, _) = run_seeded(&g, 2);
        assert_ne!(a, b);
    }
}
