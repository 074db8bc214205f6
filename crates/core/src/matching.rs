//! Corollary 8.8 — maximal matching in `O(poly(a) + log* n)`
//! vertex-averaged rounds (output-commit definition; see
//! [`crate::extension`]), plus an assembler and validity checks.
//!
//! Extension-framework instantiation. Inside the window of `H_i`:
//!
//! * **𝒜 (in-set edges).** The in-set `(A+1)`-vertex-coloring sequences
//!   the set; per forest label `f` and color `ĉ`, each *unmatched* vertex
//!   with color `ĉ` picks one unmatched forest-`f` child and matches it.
//!   Within a sub-slot the pickers are pairwise non-adjacent and each
//!   target has a unique forest-`f` parent, so picks never collide; the
//!   two-round cadence (pick + relay) keeps published matched-flags
//!   current.
//! * **ℬ (edges to earlier sets).** Per label `j`, an unmatched vertex
//!   claims the edge to an earlier, still-unmatched neighbor whose
//!   label-`j` out-edge names it (at most one such neighbor can conflict
//!   per sub-slot because an earlier vertex has one label-`j` out-edge).
//!
//! A vertex commits at the end of its window. If it is unmatched it stays
//! passively reachable — later neighbors may still claim it — and
//! terminates once it is matched or every neighbor has committed (no
//! further claims are possible). Its published matched-flag is then
//! frozen-correct, which is all later claimants consult.

use crate::extension::{metrics_from_commits, IterationSchedule};
use crate::forests::decide_out_edges;
use crate::inset::DeltaPlusOneSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, RoundMetrics, SimOutcome, StepCtx, Transition, WireSize};
use std::sync::OnceLock;

/// Working data of a joined vertex.
#[derive(Clone, Debug)]
pub struct MmCore {
    /// H-set index.
    pub h: u32,
    /// My out-edges `(neighbor, forest label)`.
    pub out_labels: Vec<(VertexId, u32)>,
    /// Current in-set coloring value.
    pub c: u64,
    /// My matching partner, if any.
    pub matched: Option<VertexId>,
    /// Commit round (end of my window).
    pub committed: Option<u32>,
}

impl MmCore {}

/// The neighbor-visible slice of [`MmCore`]: the commit *round* is
/// private output bookkeeping — neighbors only ever ask *whether* a
/// vertex has committed, so a single bit travels in its place.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // field meanings mirror `MmCore`
pub struct MmWire {
    pub h: u32,
    pub out_labels: Vec<(VertexId, u32)>,
    pub c: u64,
    pub matched: Option<VertexId>,
    pub committed: bool,
}

impl MmWire {
    fn label_to(&self, u: VertexId) -> Option<u32> {
        self.out_labels
            .iter()
            .find(|&&(w, _)| w == u)
            .map(|&(_, l)| l)
    }
}

/// Wire message for [`MatchingExtension`].
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // mirrors the `SMm` conventions below
pub enum MmMsg {
    Active,
    Joined { h: u32 },
    Run(MmWire),
}

impl WireSize for MmMsg {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for three variants, then the payload.
        match self {
            MmMsg::Active => 2,
            MmMsg::Joined { h } => 2 + h.wire_bits(),
            MmMsg::Run(w) => {
                2 + w.h.wire_bits()
                    + w.out_labels.wire_bits()
                    + w.c.wire_bits()
                    + w.matched.wire_bits()
                    + w.committed.wire_bits()
            }
        }
    }
}

/// Per-vertex state.
#[derive(Clone, Debug)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum SMm {
    /// Running Procedure Partition.
    Active,
    /// Joined H-set `h`; labeling happens next round.
    Joined { h: u32 },
    /// Labeled and working.
    Run(MmCore),
}

/// Per-vertex output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MmOut {
    /// Round in which the output was committed.
    pub commit_round: u32,
    /// Matching partner, if matched.
    pub matched: Option<VertexId>,
}

/// The Corollary 8.8 protocol.
#[derive(Debug)]
pub struct MatchingExtension {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    sched: OnceLock<(DeltaPlusOneSchedule, IterationSchedule)>,
}

impl MatchingExtension {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize) -> Self {
        MatchingExtension {
            arboricity,
            epsilon: 2.0,
            sched: OnceLock::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    fn schedules(&self, ids: &IdAssignment) -> &(DeltaPlusOneSchedule, IterationSchedule) {
        self.sched.get_or_init(|| {
            let inset = DeltaPlusOneSchedule::new(ids.id_space().max(2), self.cap() as u64);
            let cap = self.cap() as u32;
            let dur = inset.rounds() + 2 * cap * (cap + 1) + 2 * cap;
            (inset, IterationSchedule::new(dur))
        })
    }
}

impl Protocol for MatchingExtension {
    type State = SMm;
    type Msg = MmMsg;
    type Output = MmOut;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SMm {
        SMm::Active
    }

    fn publish(&self, state: &SMm) -> MmMsg {
        match state {
            SMm::Active => MmMsg::Active,
            SMm::Joined { h } => MmMsg::Joined { h: *h },
            SMm::Run(core) => MmMsg::Run(MmWire {
                h: core.h,
                out_labels: core.out_labels.clone(),
                c: core.c,
                matched: core.matched,
                committed: core.committed.is_some(),
            }),
        }
    }

    fn step(&self, ctx: StepCtx<'_, SMm, MmMsg>) -> Transition<SMm, MmOut> {
        match ctx.state.clone() {
            SMm::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, MmMsg::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SMm::Joined { h: ctx.round })
                } else {
                    Transition::Continue(SMm::Active)
                }
            }
            SMm::Joined { h } => {
                let out_labels = decide_out_edges(&ctx, h, |s| match s {
                    MmMsg::Active => None,
                    MmMsg::Joined { h } => Some(*h),
                    MmMsg::Run(core) => Some(core.h),
                });
                Transition::Continue(SMm::Run(MmCore {
                    h,
                    out_labels,
                    c: ctx.my_id(),
                    matched: None,
                    committed: None,
                }))
            }
            SMm::Run(mut core) => {
                // Adopt claims on me (someone published "matched to me").
                if core.matched.is_none() {
                    let me = ctx.v;
                    for (u, s) in ctx.view.neighbors() {
                        if let MmMsg::Run(other) = s {
                            if other.matched == Some(me) {
                                core.matched = Some(u);
                                break;
                            }
                        }
                    }
                }
                if core.committed.is_some() {
                    return self.park_or_finish(&ctx, core);
                }
                let (inset, iters) = self.schedules(ctx.ids);
                let d = inset.rounds();
                let cap = self.cap() as u32;
                let Some(local) = iters.local_round(core.h, ctx.round) else {
                    return Transition::Continue(SMm::Run(core));
                };
                if local < d {
                    let h = core.h;
                    let peers: Vec<u64> = ctx
                        .view
                        .neighbors()
                        .filter_map(|(u, s)| match s {
                            MmMsg::Run(c2) if c2.h == h => Some(c2.c),
                            MmMsg::Joined { h: j } if *j == h => Some(ctx.ids.id(u)),
                            _ => None,
                        })
                        .collect();
                    core.c = inset.step(local, core.c, &peers);
                    if local + 1 == d {
                        core.c = inset.finish(core.c);
                    }
                    return Transition::Continue(SMm::Run(core));
                }
                if d == 0 && local == 0 {
                    core.c = inset.finish(core.c);
                }
                let t = local - d;
                let sa = 2 * cap * (cap + 1);
                if t < sa {
                    if t % 2 == 0 && core.matched.is_none() {
                        let sub = t / 2;
                        let (f, chat) = (sub / (cap + 1), (sub % (cap + 1)) as u64);
                        if core.c == chat {
                            self.pick_in_set_child(&ctx, &mut core, f);
                        }
                    }
                    return Transition::Continue(SMm::Run(core));
                }
                let t = t - sa;
                if t < 2 * cap {
                    if t.is_multiple_of(2) && core.matched.is_none() {
                        self.claim_earlier(&ctx, &mut core, t / 2);
                    }
                    return Transition::Continue(SMm::Run(core));
                }
                core.committed = Some(ctx.round);
                self.park_or_finish(&ctx, core)
            }
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let inset = DeltaPlusOneSchedule::new(n.max(2), self.cap() as u64);
        let cap = self.cap() as u32;
        let dur = inset.rounds() + 2 * cap * (cap + 1) + 2 * cap;
        IterationSchedule::new(dur).window_end(itlog::partition_round_bound(n, self.epsilon)) + 16
    }

    fn phase_names(&self) -> &'static [&'static str] {
        &["partition", "label", "window"]
    }

    fn phase_of(&self, state: &SMm) -> simlocal::PhaseId {
        match state {
            SMm::Active => 0,
            SMm::Joined { .. } => 1,
            SMm::Run(_) => 2,
        }
    }
}

impl MatchingExtension {
    /// Sub-slot (f, ĉ): match one unmatched forest-`f` child.
    fn pick_in_set_child(&self, ctx: &StepCtx<'_, SMm, MmMsg>, core: &mut MmCore, f: u32) {
        let me = ctx.v;
        for (u, s) in ctx.view.neighbors() {
            let MmMsg::Run(child) = s else { continue };
            if child.h == core.h && child.label_to(me) == Some(f) && child.matched.is_none() {
                core.matched = Some(u);
                return;
            }
        }
    }

    /// ℬ sub-slot `j`: claim the edge to one unmatched earlier neighbor
    /// whose label-`j` out-edge names me.
    fn claim_earlier(&self, ctx: &StepCtx<'_, SMm, MmMsg>, core: &mut MmCore, j: u32) {
        let me = ctx.v;
        for (u, s) in ctx.view.neighbors() {
            let MmMsg::Run(earlier) = s else { continue };
            if earlier.h < core.h && earlier.label_to(me) == Some(j) && earlier.matched.is_none() {
                core.matched = Some(u);
                return;
            }
        }
    }

    /// After committing: terminate once matched (flag frozen-correct) or
    /// once every neighbor has committed (no further claims possible).
    fn park_or_finish(
        &self,
        ctx: &StepCtx<'_, SMm, MmMsg>,
        core: MmCore,
    ) -> Transition<SMm, MmOut> {
        let done = core.matched.is_some()
            || ctx.view.neighbors().all(|(u, s)| {
                ctx.view.is_terminated(u) || matches!(s, MmMsg::Run(o) if o.committed)
            });
        if done {
            let out = MmOut {
                commit_round: core.committed.expect("committed before finishing"),
                matched: core.matched,
            };
            Transition::Terminate(SMm::Run(core), out)
        } else {
            Transition::Continue(SMm::Run(core))
        }
    }
}

/// Assembles per-vertex outputs into the per-edge matching indicator and
/// the commit-round metrics. Errors on asymmetric claims.
pub fn assemble(g: &Graph, out: &SimOutcome<MmOut>) -> Result<(Vec<bool>, RoundMetrics), String> {
    let mut in_matching = vec![false; g.m()];
    for v in g.vertices() {
        if let Some(u) = out.outputs[v as usize].matched {
            if out.outputs[u as usize].matched != Some(v) {
                return Err(format!(
                    "asymmetric claim: {v} says matched to {u}, {u} says {:?}",
                    out.outputs[u as usize].matched
                ));
            }
            let e = g
                .edge_between(v, u)
                .ok_or_else(|| format!("matched pair ({v},{u}) is not an edge"))?;
            in_matching[e as usize] = true;
        }
    }
    let commits: Vec<u32> = out.outputs.iter().map(|o| o.commit_round).collect();
    Ok((in_matching, metrics_from_commits(&commits)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize) -> (f64, u32) {
        let p = MatchingExtension::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        let (mm, commit_metrics) = assemble(g, &out).unwrap();
        verify::assert_ok(verify::maximal_matching(g, &mm));
        commit_metrics.check_identities().unwrap();
        (
            commit_metrics.vertex_averaged(),
            commit_metrics.worst_case(),
        )
    }

    #[test]
    fn valid_on_small_families() {
        run_and_verify(&gen::path(60), 1);
        run_and_verify(&gen::cycle(61), 2);
        run_and_verify(&gen::star(25), 1);
        run_and_verify(&gen::grid(7, 8), 2);
        run_and_verify(&gen::clique(10), 5);
    }

    #[test]
    fn valid_on_forest_unions_and_hubs() {
        let mut rng = ChaCha8Rng::seed_from_u64(120);
        for a in [2usize, 3] {
            let gg = gen::forest_union(400, a, &mut rng);
            run_and_verify(&gg.graph, a);
        }
        let hub = gen::hub_forest(800, 1, 3, 40, &mut rng);
        run_and_verify(&hub.graph, hub.arboricity);
    }

    #[test]
    fn path2_matches_its_edge() {
        let (mm, _) = {
            let g = gen::path(2);
            let p = MatchingExtension::new(1);
            let ids = IdAssignment::identity(2);
            let out = simlocal::Runner::new(&p, &g, &ids).run().unwrap();
            assemble(&g, &out).unwrap()
        };
        assert_eq!(mm, vec![true]);
    }

    #[test]
    fn commit_va_flat_in_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(121);
        let g1 = gen::forest_union(512, 2, &mut rng);
        let g2 = gen::forest_union(8192, 2, &mut rng);
        let (va1, _) = run_and_verify(&g1.graph, 2);
        let (va2, _) = run_and_verify(&g2.graph, 2);
        assert!(
            va2 <= va1 * 1.6 + 3.0,
            "commit VA grew too fast: {va1} -> {va2}"
        );
    }
}
