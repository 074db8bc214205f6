//! §1.2's two-subtask pipeline as a real protocol.
//!
//! The paper motivates vertex-averaged complexity with a task made of two
//! subtasks 𝒜 → ℬ: "It would be better to execute the second task in
//! each processor once it terminates, rather than waiting for all
//! processors to complete the first task. This may result in asynchronous
//! start of the second task, which requires more sophisticated
//! algorithms, but significantly improves the running times of the
//! majority of processors."
//!
//! [`ColorThenCensus`] implements exactly that: 𝒜 is the §7.2 coloring
//! (`O(1)` vertex-averaged), ℬ is a *neighborhood census* — each vertex
//! reports how many distinct colors appear in its closed neighborhood,
//! aggregated over `b_rounds` rounds of local gossip. ℬ at a vertex can
//! only start once the vertex **and all its neighbors** hold 𝒜-outputs
//! (the local readiness condition — the "sophistication" asynchronous
//! start demands), so its start time is `max over N⁺(v)` of the 𝒜
//! termination rounds: still `O(1)` on average by the decay argument,
//! versus the global `Θ(log n)` a synchronized barrier would charge every
//! vertex.

use crate::coverfree::CoverFree;
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Per-vertex state.
/// Field conventions: `h` is the H-set index, `color` the 𝒜 output,
/// `seen` the census accumulator, `left` the remaining ℬ rounds.
#[allow(missing_docs)]
#[derive(Clone, Debug)]
pub enum SPipe {
    /// 𝒜: running Procedure Partition.
    Active,
    /// 𝒜: joined H-set `h`; colors next round.
    Joined { h: u32 },
    /// 𝒜 done (at round `at`); waiting for all neighbors to hold colors
    /// (ℬ readiness).
    Colored { color: u64, at: u32 },
    /// ℬ: gossiping the census.
    Census {
        color: u64,
        at: u32,
        seen: Vec<u64>,
        left: u32,
    },
}

/// Wire message of the pipeline. Neighbors need the partition status,
/// a joiner's H-index, and — once 𝒜 is done — the color. The census
/// accumulator `seen`, the remaining-rounds counter `left`, and the
/// 𝒜-completion round `at` are private bookkeeping: publishing `seen`
/// would put an `O(Δ log n)`-bit vector on the wire every gossip round
/// for data no neighbor reads.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // mirrors the `SPipe` conventions above
pub enum PipeMsg {
    Active,
    Joined { h: u32 },
    HasColor { color: u64 },
}

impl WireSize for PipeMsg {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for three variants, then the payload.
        match self {
            PipeMsg::Active => 2,
            PipeMsg::Joined { h } => 2 + h.wire_bits(),
            PipeMsg::HasColor { color } => 2 + color.wire_bits(),
        }
    }
}

/// Output of the pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipeOut {
    /// The 𝒜 (coloring) output.
    pub color: u64,
    /// Round in which 𝒜's output was fixed at this vertex.
    pub a_done_round: u32,
    /// Distinct colors observed in the closed neighborhood during ℬ.
    pub distinct_in_neighborhood: usize,
}

/// 𝒜 = §7.2 coloring, ℬ = `b_rounds` of neighborhood census, started
/// per-vertex as soon as the local readiness condition holds.
#[derive(Debug)]
pub struct ColorThenCensus {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    /// Length of subtask ℬ.
    pub b_rounds: u32,
    fam: ScheduleCell<CoverFree>,
}

impl ColorThenCensus {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize, b_rounds: u32) -> Self {
        ColorThenCensus {
            arboricity,
            epsilon: 2.0,
            b_rounds: b_rounds.max(1),
            fam: ScheduleCell::new(),
        }
    }

    fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    fn family(&self, ids: &IdAssignment) -> CoverFree {
        let space = ids.id_space().max(2);
        *self.fam.get(ScheduleKey::ids(space), || {
            CoverFree::for_palette(space, self.cap() as u64)
        })
    }
}

/// The 𝒜-output a neighbor currently exposes, if any.
fn color_of(m: &PipeMsg) -> Option<u64> {
    match m {
        PipeMsg::HasColor { color } => Some(*color),
        _ => None,
    }
}

impl Protocol for ColorThenCensus {
    type State = SPipe;
    type Msg = PipeMsg;
    type Output = PipeOut;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SPipe {
        SPipe::Active
    }

    fn publish(&self, state: &SPipe) -> PipeMsg {
        match state {
            SPipe::Active => PipeMsg::Active,
            SPipe::Joined { h } => PipeMsg::Joined { h: *h },
            SPipe::Colored { color, .. } | SPipe::Census { color, .. } => {
                PipeMsg::HasColor { color: *color }
            }
        }
    }

    fn step(&self, ctx: StepCtx<'_, SPipe, PipeMsg>) -> Transition<SPipe, PipeOut> {
        match ctx.state.clone() {
            SPipe::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, PipeMsg::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SPipe::Joined { h: ctx.round })
                } else {
                    Transition::Continue(SPipe::Active)
                }
            }
            SPipe::Joined { h } => {
                // One Arb-Linial round (the §7.2 𝒜).
                let my_id = ctx.my_id();
                let parents: Vec<u64> = ctx
                    .view
                    .neighbors()
                    .filter(|(u, s)| match s {
                        PipeMsg::Active => true,
                        PipeMsg::Joined { h: j } => *j == h && ctx.ids.id(*u) > my_id,
                        _ => false,
                    })
                    .map(|(u, _)| ctx.ids.id(u))
                    .collect();
                let color = self.family(ctx.ids).reduce(my_id, &parents);
                Transition::Continue(SPipe::Colored {
                    color,
                    at: ctx.round,
                })
            }
            SPipe::Colored { color, at } => {
                // ℬ readiness: every neighbor holds an 𝒜-output.
                if ctx.view.neighbors().all(|(_, s)| color_of(s).is_some()) {
                    self.census_step(&ctx, color, at, Vec::new(), self.b_rounds)
                } else {
                    Transition::Continue(SPipe::Colored { color, at })
                }
            }
            SPipe::Census {
                color,
                at,
                seen,
                left,
            } => self.census_step(&ctx, color, at, seen, left),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        itlog::partition_round_bound(g.n() as u64, self.epsilon) + self.b_rounds + 8
    }

    fn phase_names(&self) -> &'static [&'static str] {
        &["partition", "color", "await", "census"]
    }

    fn phase_of(&self, state: &SPipe) -> simlocal::PhaseId {
        match state {
            SPipe::Active => 0,
            SPipe::Joined { .. } => 1,
            SPipe::Colored { .. } => 2,
            SPipe::Census { .. } => 3,
        }
    }
}

impl ColorThenCensus {
    fn census_step(
        &self,
        ctx: &StepCtx<'_, SPipe, PipeMsg>,
        color: u64,
        at: u32,
        mut seen: Vec<u64>,
        left: u32,
    ) -> Transition<SPipe, PipeOut> {
        for (_, s) in ctx.view.neighbors() {
            if let Some(c) = color_of(s) {
                if !seen.contains(&c) {
                    seen.push(c);
                }
            }
        }
        if !seen.contains(&color) {
            seen.push(color);
        }
        if left <= 1 {
            let out = PipeOut {
                color,
                a_done_round: at,
                distinct_in_neighborhood: seen.len(),
            };
            Transition::Terminate(
                SPipe::Census {
                    color,
                    at,
                    seen,
                    left: 0,
                },
                out,
            )
        } else {
            Transition::Continue(SPipe::Census {
                color,
                at,
                seen,
                left: left - 1,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn pipeline_outputs_proper_coloring_and_census() {
        let mut rng = ChaCha8Rng::seed_from_u64(700);
        let gg = gen::forest_union(400, 2, &mut rng);
        let ids = IdAssignment::identity(400);
        let p = ColorThenCensus::new(2, 5);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        let colors: Vec<u64> = out.outputs.iter().map(|o| o.color).collect();
        verify::assert_ok(verify::proper_vertex_coloring(
            &gg.graph,
            &colors,
            usize::MAX,
        ));
        // The census must count at least the closed-neighborhood truth
        // (gossip can only add colors from 2-hop ripples of ℬ overlap —
        // here neighbors republish only their own colors, so equality).
        for v in gg.graph.vertices() {
            let mut truth: Vec<u64> = gg
                .graph
                .neighbors(v)
                .iter()
                .map(|&u| colors[u as usize])
                .chain([colors[v as usize]])
                .collect();
            truth.sort_unstable();
            truth.dedup();
            assert_eq!(
                out.outputs[v as usize].distinct_in_neighborhood,
                truth.len(),
                "vertex {v} census mismatch"
            );
        }
    }

    #[test]
    fn asynchronous_start_beats_global_barrier_on_average() {
        let mut rng = ChaCha8Rng::seed_from_u64(701);
        let gg = gen::forest_union(8192, 2, &mut rng);
        let ids = IdAssignment::identity(8192);
        let b = 6;
        let p = ColorThenCensus::new(2, b);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        // Average completion with async start…
        let async_avg = out.metrics.vertex_averaged();
        // …vs the synchronized discipline: everyone waits for the global
        // 𝒜 worst case before running ℬ.
        let a_worst = out.outputs.iter().map(|o| o.a_done_round).max().unwrap();
        let sync_avg = (a_worst + 1 + b) as f64;
        assert!(
            async_avg + 1.0 < sync_avg,
            "async {async_avg} should beat synchronized {sync_avg}"
        );
        out.metrics.check_identities().unwrap();
    }

    #[test]
    fn readiness_condition_orders_census_after_neighbors() {
        // ℬ never starts before a neighbor's 𝒜-output exists, so every
        // observed census already includes all neighbor colors — checked
        // exhaustively by the first test; here: termination ordering.
        let mut rng = ChaCha8Rng::seed_from_u64(702);
        let gg = gen::forest_union(600, 3, &mut rng);
        let ids = IdAssignment::identity(600);
        let p = ColorThenCensus::new(3, 4);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        for v in gg.graph.vertices() {
            let term = out.metrics.termination_round[v as usize];
            for &u in gg.graph.neighbors(v) {
                let u_a = out.outputs[u as usize].a_done_round;
                assert!(
                    term >= u_a + p.b_rounds,
                    "vertex {v} finished ℬ before neighbor {u} finished 𝒜"
                );
            }
        }
    }
}
