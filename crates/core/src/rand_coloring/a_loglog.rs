//! §9.3 — randomized `O(a log log n)`-vertex-coloring with `O(1)`
//! vertex-averaged complexity w.h.p. (Theorem 9.2).
//!
//! Two phases around `t = ⌊2 log log n⌋` H-sets:
//!
//! 1. Upon formation of `H_i` (`i ≤ t`), its members run the §9.2
//!    propose/resolve game *within the set* with palette `{0..A}`; the
//!    final color is the pair `⟨c, i⟩` — a disjoint palette copy per set,
//!    so cross-set edges inside phase 1 are safe by construction. Most
//!    vertices finish here in `O(1)` expected phases.
//! 2. The `O(n / log² n)` survivors share a *single* extra palette copy
//!    and are processed from the last H-set backwards: a vertex proposes
//!    only once all its neighbors in later sets (and its not-yet-joined
//!    neighbors) have finalized, avoiding their colors — possible because
//!    it has at most `A` neighbors in `H_{≥j}` and the copy has `A + 1`
//!    colors.
//!
//! Total palette `(t + 1)(A + 1) = O(a log log n)`; the phase-2 tail costs
//! `O(log² n)` rounds w.h.p. but touches `O(n / log² n)` vertices, keeping
//! the vertex-averaged complexity `O(1)` w.h.p.

use crate::itlog;
use crate::partition::{degree_cap, partition_step, EPSILON};
use graphcore::{Graph, IdAssignment, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Per-vertex state.
#[derive(Clone, Debug, PartialEq)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum SRal {
    /// Running Procedure Partition.
    Active,
    /// In H-set `h`, no live proposal.
    Idle { h: u32 },
    /// In H-set `h`, proposed `c` this phase.
    Proposed { h: u32, c: u64 },
    /// Final (terminal): the globally encoded color.
    Final { h: u32, c: u64 },
}

impl SRal {
    fn h(&self) -> Option<u32> {
        match self {
            SRal::Active => None,
            SRal::Idle { h } | SRal::Proposed { h, .. } | SRal::Final { h, .. } => Some(*h),
        }
    }
}

impl WireSize for SRal {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for four variants, then the payload.
        match self {
            SRal::Active => 2,
            SRal::Idle { h } => 2 + h.wire_bits(),
            SRal::Proposed { h, c } | SRal::Final { h, c } => 2 + h.wire_bits() + c.wire_bits(),
        }
    }
}

/// The §9.3 protocol.
#[derive(Clone, Copy, Debug)]
pub struct RandALogLog {
    /// Known arboricity.
    pub arboricity: usize,
}

impl RandALogLog {
    /// Standard instance.
    pub fn new(arboricity: usize) -> Self {
        RandALogLog { arboricity }
    }

    /// Degree threshold `A`; per-copy palette is `A + 1`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, EPSILON)
    }

    /// Phase-1 set count `t = ⌊2 log log n⌋`, clamped ≥ 1.
    pub fn phase1_sets(&self, n: u64) -> u32 {
        ((2 * itlog::iterated_log(n.max(4), 2)) as u32).max(1)
    }

    /// Total palette bound `(t + 1)(A + 1) = O(a log log n)`.
    pub fn palette(&self, n: u64) -> u64 {
        (self.phase1_sets(n) as u64 + 1) * (self.cap() as u64 + 1)
    }

    /// Encodes a local color for a vertex of H-set `h`.
    fn encode(&self, n: u64, h: u32, c: u64) -> u64 {
        let t = self.phase1_sets(n);
        let copy = if h <= t { h as u64 - 1 } else { t as u64 };
        copy * (self.cap() as u64 + 1) + c
    }
}

impl Protocol for RandALogLog {
    type State = SRal;
    type Msg = SRal;
    type Output = u64;

    fn publish(&self, state: &SRal) -> SRal {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, SRal>) -> Transition<SRal, u64> {
        let n = ctx.graph.n() as u64;
        let t = self.phase1_sets(n);
        let a1 = self.cap() as u64 + 1;
        match ctx.state.clone() {
            SRal::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, SRal::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SRal::Idle { h: ctx.round })
                } else {
                    Transition::Continue(SRal::Active)
                }
            }
            SRal::Idle { h } => {
                // Propose on odd global rounds only (resolve rounds are
                // even), keeping all proposers aligned.
                if ctx.round.is_multiple_of(2) {
                    return Transition::Continue(SRal::Idle { h });
                }
                let phase2 = h > t;
                if phase2 {
                    // Wait for all later/unjoined neighbors to finalize.
                    let ready = ctx.view.neighbors().all(|(_, s)| match s {
                        SRal::Active => false,
                        SRal::Final { .. } => true,
                        other => other.h().is_some_and(|j| j <= h),
                    });
                    if !ready {
                        return Transition::Continue(SRal::Idle { h });
                    }
                }
                let mut rng = ctx.rng();
                if !rng.gen_bool(0.5) {
                    return Transition::Continue(SRal::Idle { h });
                }
                // Blocked colors: finalized conflict-relevant neighbors.
                // Phase 1: same-set only (other sets use other copies).
                // Phase 2: any phase-2 neighbor in H_{≥h} (shared copy).
                let taken: Vec<u64> = ctx
                    .view
                    .neighbors()
                    .filter_map(|(_, s)| match s {
                        SRal::Final { h: j, c } => {
                            let relevant = if phase2 { *j > t } else { *j == h };
                            // Decode back to the local color.
                            relevant.then(|| *c % a1)
                        }
                        _ => None,
                    })
                    .collect();
                let free: Vec<u64> = (0..a1).filter(|c| !taken.contains(c)).collect();
                let &c = free
                    .choose(&mut rng)
                    .expect("A+1 colors vs ≤ A relevant neighbors");
                Transition::Continue(SRal::Proposed { h, c })
            }
            SRal::Proposed { h, c } => {
                let phase2 = h > t;
                let conflict = ctx.view.neighbors().any(|(_, s)| match s {
                    SRal::Proposed { h: j, c: c2 } => {
                        let relevant = if phase2 { *j > t } else { *j == h };
                        relevant && *c2 == c
                    }
                    SRal::Final { h: j, c: c2 } => {
                        let relevant = if phase2 { *j > t } else { *j == h };
                        relevant && *c2 % a1 == c
                    }
                    _ => false,
                });
                if conflict {
                    Transition::Continue(SRal::Idle { h })
                } else {
                    let fin = self.encode(n, h, c);
                    Transition::Terminate(SRal::Final { h, c: fin }, fin)
                }
            }
            SRal::Final { .. } => unreachable!("terminal"),
        }
    }

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SRal {
        SRal::Active
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let lg = (g.n().max(4) as u32).ilog2();
        // Phase 2 is sequential over O(log n) sets, O(log n) phases each
        // w.h.p.
        64 * lg * lg + 512
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_seeded(g: &Graph, a: usize, seed: u64) -> (f64, u32, usize) {
        let p = RandALogLog::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).seed(seed).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(
            g,
            &out.outputs,
            p.palette(g.n() as u64) as usize,
        ));
        (
            out.metrics.vertex_averaged(),
            out.metrics.worst_case(),
            verify::count_distinct(&out.outputs),
        )
    }

    #[test]
    fn proper_across_seeds_and_families() {
        for seed in 0..4 {
            run_seeded(&gen::cycle(101), 2, seed);
            run_seeded(&gen::grid(9, 10), 2, seed);
            run_seeded(&gen::path(80), 1, seed);
        }
    }

    #[test]
    fn proper_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(140);
        for a in [2usize, 4] {
            let gg = gen::forest_union(800, a, &mut rng);
            run_seeded(&gg.graph, a, 3);
        }
    }

    #[test]
    fn va_constant_theorem_9_2() {
        let mut rng = ChaCha8Rng::seed_from_u64(141);
        let mut vas = Vec::new();
        for n in [1024usize, 8192, 32768] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let (va, _, _) = run_seeded(&gg.graph, 2, 11);
            assert!(va <= 16.0, "n={n}: VA={va} not O(1)");
            vas.push(va);
        }
        assert!(vas[2] <= vas[0] + 3.0, "VA drifting upward: {vas:?}");
    }

    #[test]
    fn colors_scale_with_a_loglog_not_delta() {
        // Hub graphs: Δ large, palette must stay (t+1)(A+1).
        let mut rng = ChaCha8Rng::seed_from_u64(142);
        let hub = gen::hub_forest(2000, 2, 4, 300, &mut rng);
        let p = RandALogLog::new(hub.arboricity);
        let (_, _, used) = run_seeded(&hub.graph, hub.arboricity, 9);
        assert!(used as u64 <= p.palette(2000));
        assert!((p.palette(2000) as usize) < hub.graph.max_degree());
    }
}
