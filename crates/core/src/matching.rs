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
//!
//! A vertex's state and message share one [`MmWire`] record through an
//! `Arc`: publishing is a reference-count increment, and a step copies the
//! record ([`Arc::make_mut`]) only in a round that changes a field, so an
//! idle window round copies nothing. The head of every oriented edge
//! claims it (the parent in 𝒜, the later endpoint in ℬ), so only
//! out-neighbors can publish a claim on a vertex and adoption walks the
//! out-edges alone.

use crate::extension::{metrics_from_commits, EdgeSlot, EdgeWindow};
use crate::forests::decide_out_edges;
use crate::partition::{degree_cap, partition_step};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, RoundMetrics, SimOutcome, StepCtx, Transition, WireSize};
use std::sync::Arc;

/// Working data of a joined vertex.
#[derive(Clone, Debug)]
pub struct MmCore {
    /// What neighbors see; the published [`MmMsg::Run`] shares it.
    pub wire: Arc<MmWire>,
    /// Commit round (end of my window); `wire.committed` is set with it.
    pub committed: Option<u32>,
}

/// The neighbor-visible record of a labeled vertex: the commit *round* is
/// private output bookkeeping — neighbors only ever ask *whether* a
/// vertex has committed, so a single bit travels in its place.
#[derive(Clone, Debug, PartialEq)]
pub struct MmWire {
    /// H-set index.
    pub h: u32,
    /// My out-edges `(neighbor, forest label)`.
    pub out_labels: Vec<(VertexId, u32)>,
    /// Current in-set coloring value.
    pub c: u64,
    /// My matching partner, if any.
    pub matched: Option<VertexId>,
    /// Whether I have committed.
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
    Run(Arc<MmWire>),
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
#[allow(missing_docs)] // `h` is the 1-based H-set index
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
    window: ScheduleCell<EdgeWindow>,
}

impl MatchingExtension {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize) -> Self {
        MatchingExtension {
            arboricity,
            epsilon: 2.0,
            window: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
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
            SMm::Run(core) => MmMsg::Run(Arc::clone(&core.wire)),
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
                    wire: Arc::new(MmWire {
                        h,
                        out_labels,
                        c: ctx.my_id(),
                        matched: None,
                        committed: false,
                    }),
                    committed: None,
                }))
            }
            SMm::Run(mut core) => {
                // Adopt a claim on me (someone published "matched to me").
                adopt(&ctx, &mut core.wire);
                if core.committed.is_some() {
                    return park_or_finish(&ctx, core);
                }
                let space = ctx.ids.id_space();
                let window = self.window.get(ScheduleKey::ids(space), || {
                    EdgeWindow::new(space, self.cap())
                });
                let (h, me) = (core.wire.h, ctx.v);
                match window.slot(h, ctx.round) {
                    EdgeSlot::Color(i) => {
                        let c = window.recolor(&ctx, i, core.wire.c, |(u, s)| match s {
                            MmMsg::Run(o) if o.h == h => Some(o.c),
                            MmMsg::Joined { h: j } if *j == h => Some(ctx.ids.id(u)),
                            _ => None,
                        });
                        if c != core.wire.c {
                            Arc::make_mut(&mut core.wire).c = c;
                        }
                    }
                    // Match one unmatched forest-`f` child.
                    EdgeSlot::InSet { f, chat } if core.wire.c == chat => {
                        claim(&ctx, &mut core.wire, |o| {
                            o.h == h && o.label_to(me) == Some(f)
                        })
                    }
                    // Claim one unmatched earlier neighbor whose label-`j` edge names me.
                    EdgeSlot::Cross(j) => claim(&ctx, &mut core.wire, |o| {
                        o.h < h && o.label_to(me) == Some(j)
                    }),
                    EdgeSlot::Commit => {
                        core.committed = Some(ctx.round);
                        Arc::make_mut(&mut core.wire).committed = true;
                        return park_or_finish(&ctx, core);
                    }
                    EdgeSlot::Wait | EdgeSlot::InSet { .. } | EdgeSlot::Relay => {}
                }
                Transition::Continue(SMm::Run(core))
            }
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        EdgeWindow::new(n, self.cap()).max_rounds(n, self.epsilon)
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

/// Adopts the first claim on me among my out-neighbors — the heads that
/// claim my out-edges.
fn adopt(ctx: &StepCtx<'_, SMm, MmMsg>, wire: &mut Arc<MmWire>) {
    let me = ctx.v;
    let claims_me = |s: &MmMsg| matches!(s, MmMsg::Run(o) if o.matched == Some(me));
    if wire.matched.is_none() {
        let heads = &wire.out_labels;
        if let Some(&(u, _)) = heads.iter().find(|&&(u, _)| claims_me(ctx.view.msg_of(u))) {
            Arc::make_mut(wire).matched = Some(u);
        }
    }
    debug_assert!(
        ctx.view
            .neighbors()
            .all(|(u, s)| !claims_me(s) || wire.matched == Some(u)),
        "vertex {me}: a neighbor other than its partner claimed it"
    );
}

/// Unless matched already, matches me to the first unmatched neighbor
/// that `serves` selects.
fn claim(ctx: &StepCtx<'_, SMm, MmMsg>, wire: &mut Arc<MmWire>, serves: impl Fn(&MmWire) -> bool) {
    if wire.matched.is_some() {
        return;
    }
    let partner = ctx
        .view
        .neighbors()
        .find(|(_, s)| matches!(s, MmMsg::Run(o) if serves(o) && o.matched.is_none()))
        .map(|(u, _)| u);
    if partner.is_some() {
        Arc::make_mut(wire).matched = partner;
    }
}

/// After committing: terminate once matched (flag frozen-correct) or
/// once every neighbor has committed (no further claims possible).
fn park_or_finish(ctx: &StepCtx<'_, SMm, MmMsg>, core: MmCore) -> Transition<SMm, MmOut> {
    let done = core.wire.matched.is_some()
        || ctx
            .view
            .neighbors()
            .all(|(u, s)| ctx.view.is_terminated(u) || matches!(s, MmMsg::Run(o) if o.committed));
    if done {
        let out = MmOut {
            commit_round: core.committed.expect("committed before finishing"),
            matched: core.wire.matched,
        };
        Transition::Terminate(SMm::Run(core), out)
    } else {
        Transition::Continue(SMm::Run(core))
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
