//! Forest decompositions (§7.1).
//!
//! **Procedure Parallelized-Forest-Decomposition** (Theorem 7.1): run
//! Procedure Partition; *immediately* upon joining an H-set a vertex
//! orients its incident edges (same-set edges toward the higher ID,
//! edges to not-yet-joined neighbors toward them) and labels its out-edges
//! with distinct labels — one extra round after joining, so the
//! vertex-averaged complexity stays `O(1)` while the output is a valid
//! partition of `E` into `A = ⌊(2+ε)a⌋` oriented forests.
//!
//! **Procedure Forest-Decomposition** (\[8\]; the baseline): identical
//! output, but the orientation/labeling step happens only after the whole
//! partition has finished — every vertex stays busy for the full
//! `O(log n)` worst-case schedule, which is what the paper's "previous
//! running time" column measures.
//!
//! In the state-read LOCAL model a vertex cannot see *simultaneous*
//! joiners during the join round itself, so joining is a two-step
//! handshake: publish the join mark in round `i`, read same-round marks
//! and emit the orientation in round `i+1`. This shifts every termination
//! round by exactly +1 and changes no asymptotics.

use crate::itlog;
use crate::partition::{degree_cap, partition_step, EPSILON};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Per-vertex state during forest decomposition — entirely
/// neighbor-visible, so it doubles as the wire message.
#[derive(Clone, Debug, PartialEq)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum FState {
    /// Still running Procedure Partition.
    Active,
    /// Joined H-set `h` (published so neighbors can exclude this vertex
    /// from their active counts and learn set membership).
    Joined { h: u32 },
}

impl WireSize for FState {
    fn wire_bits(&self) -> u64 {
        match self {
            FState::Active => 1,
            FState::Joined { h } => 1 + h.wire_bits(),
        }
    }
}

/// Per-vertex output: the H-index plus this vertex's outgoing edges with
/// their forest labels (labels are `0..out_degree`, globally `< A`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForestOut {
    /// H-set index (1-based) — equals the join round.
    pub h_index: u32,
    /// `(neighbor, forest label)` for each edge oriented out of this
    /// vertex.
    pub out_edges: Vec<(VertexId, u32)>,
}

/// Decides the out-edges of a vertex `v` that joined H-set `h`, given its
/// neighbors' published states. Shared by the parallelized and the
/// baseline protocol (and by every protocol embedding a forest
/// decomposition).
///
/// Out-edges go to: same-set neighbors with a higher ID, and neighbors
/// that have not joined any set yet (they will join a later one). Labels
/// are assigned in neighbor order.
pub fn decide_out_edges<S, M>(
    ctx: &StepCtx<'_, S, M>,
    h: u32,
    set_of: impl Fn(&M) -> Option<u32>,
) -> Vec<(VertexId, u32)> {
    let my_id = ctx.my_id();
    let mut out = Vec::new();
    for (u, s) in ctx.view.neighbors() {
        let outgoing = match set_of(s) {
            Some(j) if j == h => ctx.ids.id(u) > my_id, // same set: toward higher ID
            Some(j) => j > h,                           // cross-set edges point at the later set
            None => true, // still active -> will join a later set -> toward u
        };
        if outgoing {
            let label = out.len() as u32;
            out.push((u, label));
        }
    }
    out
}

/// Procedure Parallelized-Forest-Decomposition (Theorem 7.1).
#[derive(Clone, Copy, Debug)]
pub struct ParallelizedForestDecomposition {
    /// Known arboricity.
    pub arboricity: usize,
}

impl ParallelizedForestDecomposition {
    /// Standard instance.
    pub fn new(arboricity: usize) -> Self {
        ParallelizedForestDecomposition { arboricity }
    }

    /// Threshold `A` = number of forests produced.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, EPSILON)
    }
}

impl Protocol for ParallelizedForestDecomposition {
    type State = FState;
    type Msg = FState;
    type Output = ForestOut;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> FState {
        FState::Active
    }

    fn publish(&self, state: &FState) -> FState {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, FState>) -> Transition<FState, ForestOut> {
        match *ctx.state {
            FState::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, FState::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(FState::Joined { h: ctx.round })
                } else {
                    Transition::Continue(FState::Active)
                }
            }
            FState::Joined { h } => {
                // Round h+1: read same-round joiners, orient and label.
                let out = decide_out_edges(&ctx, h, |s| match s {
                    FState::Active => None,
                    FState::Joined { h } => Some(*h),
                });
                Transition::Terminate(
                    FState::Joined { h },
                    ForestOut {
                        h_index: h,
                        out_edges: out,
                    },
                )
            }
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        itlog::partition_round_bound(g.n() as u64, EPSILON) + 8
    }

    fn phase_names(&self) -> &'static [&'static str] {
        &["partition", "orient"]
    }

    fn phase_of(&self, state: &FState) -> simlocal::PhaseId {
        match state {
            FState::Active => 0,
            FState::Joined { .. } => 1,
        }
    }
}

/// Procedure Forest-Decomposition of \[8\] — the worst-case baseline. Same
/// output, but no vertex terminates before the full partition schedule
/// `L(n, ε)` has elapsed; orientation and labeling happen in round
/// `L + 1` for everyone.
#[derive(Clone, Copy, Debug)]
pub struct ForestDecompositionBaseline {
    /// Known arboricity.
    pub arboricity: usize,
}

impl ForestDecompositionBaseline {
    /// Standard instance.
    pub fn new(arboricity: usize) -> Self {
        ForestDecompositionBaseline { arboricity }
    }

    fn schedule_end(&self, g: &Graph) -> u32 {
        itlog::partition_round_bound(g.n() as u64, EPSILON)
    }
}

impl Protocol for ForestDecompositionBaseline {
    type State = FState;
    type Msg = FState;
    type Output = ForestOut;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> FState {
        FState::Active
    }

    fn publish(&self, state: &FState) -> FState {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, FState>) -> Transition<FState, ForestOut> {
        let next = match ctx.state.clone() {
            FState::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, FState::Active))
                    .count();
                if partition_step(active, degree_cap(self.arboricity, EPSILON)) {
                    FState::Joined { h: ctx.round }
                } else {
                    FState::Active
                }
            }
            s @ FState::Joined { .. } => s,
        };
        // Everyone waits out the full worst-case schedule, then orients.
        if ctx.round > self.schedule_end(ctx.graph) {
            let h = match next {
                FState::Joined { h } => h,
                FState::Active => unreachable!("partition must finish within L(n, ε)"),
            };
            let out = decide_out_edges(&ctx, h, |s| match s {
                FState::Active => None,
                FState::Joined { h } => Some(*h),
            });
            Transition::Terminate(
                next,
                ForestOut {
                    h_index: h,
                    out_edges: out,
                },
            )
        } else {
            Transition::Continue(next)
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        self.schedule_end(g) + 8
    }
}

/// Assembles per-vertex [`ForestOut`]s into per-edge `(labels, heads)`
/// arrays for [`graphcore::verify::forest_decomposition`]. Returns an
/// error if some edge is claimed by both or neither endpoint.
pub fn assemble(
    g: &Graph,
    outs: &[ForestOut],
) -> Result<(Vec<u32>, Vec<Option<VertexId>>), String> {
    let mut labels = vec![u32::MAX; g.m()];
    let mut heads: Vec<Option<VertexId>> = vec![None; g.m()];
    for v in g.vertices() {
        for &(u, label) in &outs[v as usize].out_edges {
            let e = g
                .edge_between(v, u)
                .ok_or_else(|| format!("vertex {v} claims non-edge ({v},{u})"))?;
            if heads[e as usize].is_some() {
                return Err(format!("edge {e} oriented by both endpoints"));
            }
            heads[e as usize] = Some(u);
            labels[e as usize] = label;
        }
    }
    for (e, _) in g.edges() {
        if heads[e as usize].is_none() {
            return Err(format!("edge {e} oriented by neither endpoint"));
        }
    }
    Ok((labels, heads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_decomposition(g: &Graph, a: usize) -> (f64, u32) {
        let p = ParallelizedForestDecomposition::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        let (labels, heads) = assemble(g, &out.outputs).unwrap();
        verify::assert_ok(verify::forest_decomposition(g, &labels, &heads, p.cap()));
        // H-partition property as well.
        let h: Vec<u32> = out.outputs.iter().map(|o| o.h_index).collect();
        verify::assert_ok(verify::h_partition(g, &h, p.cap()));
        (out.metrics.vertex_averaged(), out.metrics.worst_case())
    }

    #[test]
    fn valid_on_trees_grids_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(20);
        check_decomposition(&gen::random_tree(300, &mut rng).graph, 1);
        check_decomposition(&gen::grid(17, 13), 2);
        for k in [2usize, 4] {
            let gg = gen::forest_union(600, k, &mut rng);
            check_decomposition(&gg.graph, k);
        }
    }

    #[test]
    fn vertex_averaged_constant_theorem_7_1() {
        // VA ≤ 1 + Σ decay = O(1): with ε = 2 the bound is 3 (join +1).
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for n in [512usize, 2048, 8192] {
            let gg = gen::forest_union(n, 2, &mut rng);
            let (va, _) = check_decomposition(&gg.graph, 2);
            assert!(va <= 3.0, "n={n}: VA={va} not O(1)");
        }
    }

    #[test]
    fn baseline_pays_worst_case_everywhere() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let gg = gen::forest_union(1024, 2, &mut rng);
        let ids = IdAssignment::identity(gg.graph.n());
        let base = ForestDecompositionBaseline::new(2);
        let out = simlocal::Runner::new(&base, &gg.graph, &ids).run().unwrap();
        let l = itlog::partition_round_bound(1024, 2.0);
        assert!(out.metrics.worst_case() == l + 1);
        // Every vertex pays the full schedule: VA == worst case.
        assert_eq!(out.metrics.vertex_averaged(), (l + 1) as f64);
        // Output is still a valid decomposition.
        let (labels, heads) = assemble(&gg.graph, &out.outputs).unwrap();
        verify::assert_ok(verify::forest_decomposition(
            &gg.graph,
            &labels,
            &heads,
            degree_cap(2, 2.0),
        ));
    }

    #[test]
    fn parallelized_beats_baseline_on_average() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let gg = gen::forest_union(4096, 3, &mut rng);
        let ids = IdAssignment::identity(gg.graph.n());
        let fast = simlocal::Runner::new(&ParallelizedForestDecomposition::new(3), &gg.graph, &ids)
            .run()
            .unwrap();
        let slow = simlocal::Runner::new(&ForestDecompositionBaseline::new(3), &gg.graph, &ids)
            .run()
            .unwrap();
        assert!(fast.metrics.vertex_averaged() * 3.0 < slow.metrics.vertex_averaged());
        // Same H-indices, hence same orientation.
        let fh: Vec<u32> = fast.outputs.iter().map(|o| o.h_index).collect();
        let sh: Vec<u32> = slow.outputs.iter().map(|o| o.h_index).collect();
        assert_eq!(fh, sh);
    }

    #[test]
    fn labels_within_out_degree() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let gg = gen::forest_union(400, 2, &mut rng);
        let p = ParallelizedForestDecomposition::new(2);
        let ids = IdAssignment::identity(gg.graph.n());
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        for o in &out.outputs {
            assert!(o.out_edges.len() <= p.cap());
            for (i, &(_, label)) in o.out_edges.iter().enumerate() {
                assert_eq!(label as usize, i);
            }
        }
    }

    #[test]
    fn assemble_rejects_incomplete() {
        let g = gen::path(3);
        let outs = vec![
            ForestOut {
                h_index: 1,
                out_edges: vec![(1, 0)],
            },
            ForestOut {
                h_index: 1,
                out_edges: vec![],
            }, // edge (1,2) unclaimed
            ForestOut {
                h_index: 1,
                out_edges: vec![],
            },
        ];
        assert!(assemble(&g, &outs).is_err());
    }
}
