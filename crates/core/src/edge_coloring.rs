//! Corollary 8.6 — deterministic `(2Δ−1)`-edge-coloring in `O(poly(a) +
//! log* n)` vertex-averaged rounds (output-commit definition; see
//! [`crate::extension`]).
//!
//! Extension-framework instantiation. Inside the window of H-set `H_i`:
//!
//! * **𝒜 (in-set edges).** An in-set `(A+1)`-vertex-coloring provides a
//!   conflict-free schedule; then, per forest label `f` and vertex color
//!   `ĉ`, every vertex with in-set color `ĉ` assigns colors to the edges
//!   of its forest-`f` *children* (in-set neighbors whose label-`f`
//!   out-edge points at it). Within a sub-slot the assigned edges form
//!   disjoint stars around non-adjacent centers, so simultaneous picks
//!   never collide; each sub-slot takes two rounds (assign + relay) so
//!   the endpoint tables neighbors consult are always current.
//! * **ℬ (edges to earlier sets).** Cross edges are grouped by the label
//!   the *earlier* endpoint gave them; an earlier endpoint has at most one
//!   label-`j` out-edge in total, so in sub-slot `j` each earlier vertex
//!   has at most one incident edge being colored and no conflicts arise.
//!
//! Every choice avoids the published incident-color tables of both
//! endpoints (≤ `2Δ−2` blocked colors), so the `2Δ−1` palette always has
//! a free color — the extension property of edge coloring. A vertex
//! *commits* its output at the end of its window; it then keeps relaying
//! its table (adopting colors that later neighbors give its remaining
//! cross edges) until all incident edges are colored, and terminates.
//!
//! A vertex's state and message share one [`EcWire`] record through an
//! `Arc`: publishing is a reference-count increment, and a step copies the
//! record ([`Arc::make_mut`]) only in a round that changes a field, so an
//! idle window round copies nothing. The head of every oriented edge
//! colors it (the parent in 𝒜, the later endpoint in ℬ), so only
//! out-neighbors publish colors for a vertex's edges and adoption walks
//! the out-edges alone; the edges a vertex colors are its in-edges, so
//! [`EcOut::assigned`] is its table without the out-neighbors.

use crate::extension::{metrics_from_commits, EdgeSlot, EdgeWindow};
use crate::forests::decide_out_edges;
use crate::partition::{degree_cap, partition_step};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{EdgeId, Graph, IdAssignment, VertexId};
use simlocal::{Protocol, RoundMetrics, SimOutcome, StepCtx, Transition, WireSize};
use std::sync::Arc;

/// Working data carried by a vertex from H-set membership to termination.
#[derive(Clone, Debug)]
pub struct EcCore {
    /// What neighbors see; the published [`EcMsg::Run`] shares it.
    pub wire: Arc<EcWire>,
    /// Round in which the output was committed (end of the window).
    pub committed: Option<u32>,
}

/// The neighbor-visible record of a labeled vertex: the commit round is
/// private — neighbors consult only the incident-color `table` (and the
/// labels/coloring that schedule it).
#[derive(Clone, Debug, PartialEq)]
pub struct EcWire {
    /// H-set index.
    pub h: u32,
    /// My out-edges `(neighbor, forest label)`, fixed once labeled.
    pub out_labels: Vec<(VertexId, u32)>,
    /// In-set color: the ID until the window's coloring completes.
    pub c: u64,
    /// Colors of incident edges this vertex knows, `(neighbor, color)`.
    pub table: Vec<(VertexId, u64)>,
}

impl EcWire {
    fn label_to(&self, u: VertexId) -> Option<u32> {
        self.out_labels
            .iter()
            .find(|&&(w, _)| w == u)
            .map(|&(_, l)| l)
    }

    fn color_of(&self, u: VertexId) -> Option<u64> {
        self.table.iter().find(|&&(w, _)| w == u).map(|&(_, c)| c)
    }
}

/// Wire message for [`EdgeColoringExtension`].
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // mirrors the `SEc` conventions below
pub enum EcMsg {
    Active,
    Joined { h: u32 },
    Run(Arc<EcWire>),
}

impl WireSize for EcMsg {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for three variants, then the payload.
        match self {
            EcMsg::Active => 2,
            EcMsg::Joined { h } => 2 + h.wire_bits(),
            EcMsg::Run(w) => {
                2 + w.h.wire_bits()
                    + w.out_labels.wire_bits()
                    + w.c.wire_bits()
                    + w.table.wire_bits()
            }
        }
    }
}

/// Per-vertex state.
#[derive(Clone, Debug)]
#[allow(missing_docs)] // `h` is the 1-based H-set index
pub enum SEc {
    /// Running Procedure Partition.
    Active,
    /// Joined H-set `h`; labels are decided next round.
    Joined { h: u32 },
    /// Labeled and working (before, during, or after the window).
    Run(EcCore),
}

/// Per-vertex output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EcOut {
    /// Round in which this vertex's output was committed.
    pub commit_round: u32,
    /// Edge colors this vertex assigned, as `(neighbor, color)`.
    pub assigned: Vec<(VertexId, u64)>,
}

/// The Corollary 8.6 protocol.
#[derive(Debug)]
pub struct EdgeColoringExtension {
    /// Known arboricity.
    pub arboricity: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    window: ScheduleCell<EdgeWindow>,
}

impl EdgeColoringExtension {
    /// Standard instance (ε = 2).
    pub fn new(arboricity: usize) -> Self {
        EdgeColoringExtension {
            arboricity,
            epsilon: 2.0,
            window: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }

    /// Edge palette `2Δ − 1`.
    pub fn palette(g: &Graph) -> u64 {
        (2 * g.max_degree()).saturating_sub(1).max(1) as u64
    }
}

impl Protocol for EdgeColoringExtension {
    type State = SEc;
    type Msg = EcMsg;
    type Output = EcOut;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SEc {
        SEc::Active
    }

    fn publish(&self, state: &SEc) -> EcMsg {
        match state {
            SEc::Active => EcMsg::Active,
            SEc::Joined { h } => EcMsg::Joined { h: *h },
            SEc::Run(core) => EcMsg::Run(Arc::clone(&core.wire)),
        }
    }

    fn step(&self, ctx: StepCtx<'_, SEc, EcMsg>) -> Transition<SEc, EcOut> {
        match ctx.state.clone() {
            SEc::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, EcMsg::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(SEc::Joined { h: ctx.round })
                } else {
                    Transition::Continue(SEc::Active)
                }
            }
            SEc::Joined { h } => {
                let out_labels = decide_out_edges(&ctx, h, |s| match s {
                    EcMsg::Active => None,
                    EcMsg::Joined { h } => Some(*h),
                    EcMsg::Run(core) => Some(core.h),
                });
                Transition::Continue(SEc::Run(EcCore {
                    wire: Arc::new(EcWire {
                        h,
                        out_labels,
                        c: ctx.my_id(),
                        table: Vec::new(),
                    }),
                    committed: None,
                }))
            }
            SEc::Run(mut core) => {
                // Always adopt colors that neighbors assigned to my edges.
                adopt(&ctx, &mut core.wire);
                if core.committed.is_some() {
                    return relay_or_finish(&ctx, core);
                }
                let space = ctx.ids.id_space();
                let window = self.window.get(ScheduleKey::ids(space), || {
                    EdgeWindow::new(space, self.cap())
                });
                let (h, me) = (core.wire.h, ctx.v);
                match window.slot(h, ctx.round) {
                    EdgeSlot::Color(i) => {
                        let c = window.recolor(&ctx, i, core.wire.c, |(u, s)| match s {
                            EcMsg::Run(o) if o.h == h => Some(o.c),
                            EcMsg::Joined { h: j } if *j == h => Some(ctx.ids.id(u)),
                            _ => None,
                        });
                        if c != core.wire.c {
                            Arc::make_mut(&mut core.wire).c = c;
                        }
                    }
                    // Color my in-set forest-`f` children's edges.
                    EdgeSlot::InSet { f, chat } if core.wire.c == chat => {
                        assign(&ctx, &mut core.wire, |o| {
                            o.h == h && o.label_to(me) == Some(f)
                        })
                    }
                    // Color the cross edges labeled `j` by their earlier end.
                    EdgeSlot::Cross(j) => assign(&ctx, &mut core.wire, |o| {
                        o.h < h && o.label_to(me) == Some(j)
                    }),
                    // Window over: commit, then relay until complete.
                    EdgeSlot::Commit => {
                        core.committed = Some(ctx.round);
                        return relay_or_finish(&ctx, core);
                    }
                    EdgeSlot::Wait | EdgeSlot::InSet { .. } | EdgeSlot::Relay => {}
                }
                Transition::Continue(SEc::Run(core))
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

    fn phase_of(&self, state: &SEc) -> simlocal::PhaseId {
        match state {
            SEc::Active => 0,
            SEc::Joined { .. } => 1,
            SEc::Run(_) => 2,
        }
    }
}

/// Adopts the colors my out-neighbors — the heads that color my
/// out-edges — assigned to my edges.
fn adopt(ctx: &StepCtx<'_, SEc, EcMsg>, wire: &mut Arc<EcWire>) {
    let me = ctx.v;
    let shown = |s: &EcMsg| match s {
        EcMsg::Run(o) => o.color_of(me),
        _ => None,
    };
    for i in 0..wire.out_labels.len() {
        let u = wire.out_labels[i].0;
        if wire.color_of(u).is_none() {
            if let Some(color) = shown(ctx.view.msg_of(u)) {
                Arc::make_mut(wire).table.push((u, color));
            }
        }
    }
    debug_assert!(
        ctx.view
            .neighbors()
            .all(|(u, s)| wire.color_of(u).is_some() || shown(s).is_none()),
        "vertex {me}: a neighbor outside its out-edges colored one of its edges"
    );
}

/// Gives each edge to a neighbor that `serves` selects, and that I do not
/// know yet, the first color free at both endpoints.
fn assign(ctx: &StepCtx<'_, SEc, EcMsg>, wire: &mut Arc<EcWire>, serves: impl Fn(&EcWire) -> bool) {
    let palette = EdgeColoringExtension::palette(ctx.graph);
    for (u, s) in ctx.view.neighbors() {
        let EcMsg::Run(other) = s else { continue };
        if !serves(other) || wire.color_of(u).is_some() {
            continue;
        }
        let mut blocked: Vec<u64> = wire.table.iter().map(|&(_, c)| c).collect();
        blocked.extend(other.table.iter().map(|&(_, c)| c));
        let color = (0..palette)
            .find(|c| !blocked.contains(c))
            .expect("2Δ−1 palette vs ≤ 2Δ−2 blocked colors");
        Arc::make_mut(wire).table.push((u, color));
    }
}

/// After committing: relay until every incident edge is colored. The
/// edges I colored are my in-edges, so my output share is the table
/// without my out-neighbors.
fn relay_or_finish(ctx: &StepCtx<'_, SEc, EcMsg>, core: EcCore) -> Transition<SEc, EcOut> {
    if core.wire.table.len() == ctx.degree() {
        let wire = &core.wire;
        let mine = wire.table.iter().filter(|e| wire.label_to(e.0).is_none());
        let out = EcOut {
            commit_round: core.committed.expect("committed before finishing"),
            assigned: mine.copied().collect(),
        };
        Transition::Terminate(SEc::Run(core), out)
    } else {
        Transition::Continue(SEc::Run(core))
    }
}

/// Assembles per-vertex outputs into a per-edge color array and the
/// commit-round metrics. Errors if an edge is colored twice or never.
pub fn assemble(g: &Graph, out: &SimOutcome<EcOut>) -> Result<(Vec<u64>, RoundMetrics), String> {
    let mut colors = vec![u64::MAX; g.m()];
    let mut owner: Vec<Option<VertexId>> = vec![None; g.m()];
    for v in g.vertices() {
        for &(u, c) in &out.outputs[v as usize].assigned {
            let e: EdgeId = g
                .edge_between(v, u)
                .ok_or_else(|| format!("vertex {v} colored non-edge ({v},{u})"))?;
            if let Some(o) = owner[e as usize] {
                return Err(format!("edge {e} colored by both {o} and {v}"));
            }
            owner[e as usize] = Some(v);
            colors[e as usize] = c;
        }
    }
    for (e, _) in g.edges() {
        if owner[e as usize].is_none() {
            return Err(format!("edge {e} never colored"));
        }
    }
    let commits: Vec<u32> = out.outputs.iter().map(|o| o.commit_round).collect();
    Ok((colors, metrics_from_commits(&commits)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize) -> (f64, u32, f64) {
        let p = EdgeColoringExtension::new(a);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        let (colors, commit_metrics) = assemble(g, &out).unwrap();
        verify::assert_ok(verify::proper_edge_coloring(
            g,
            &colors,
            EdgeColoringExtension::palette(g) as usize,
        ));
        commit_metrics.check_identities().unwrap();
        (
            commit_metrics.vertex_averaged(),
            commit_metrics.worst_case(),
            out.metrics.vertex_averaged(),
        )
    }

    #[test]
    fn proper_on_small_families() {
        run_and_verify(&gen::path(60), 1);
        run_and_verify(&gen::cycle(61), 2);
        run_and_verify(&gen::star(25), 1);
        run_and_verify(&gen::grid(7, 9), 2);
    }

    #[test]
    fn proper_on_forest_unions_and_hubs() {
        let mut rng = ChaCha8Rng::seed_from_u64(110);
        for a in [2usize, 3] {
            let gg = gen::forest_union(400, a, &mut rng);
            run_and_verify(&gg.graph, a);
        }
        let hub = gen::hub_forest(800, 1, 3, 40, &mut rng);
        run_and_verify(&hub.graph, hub.arboricity);
    }

    #[test]
    fn commit_va_flat_in_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(111);
        let g1 = gen::forest_union(512, 2, &mut rng);
        let g2 = gen::forest_union(8192, 2, &mut rng);
        let (va1, _, _) = run_and_verify(&g1.graph, 2);
        let (va2, _, _) = run_and_verify(&g2.graph, 2);
        assert!(
            va2 <= va1 * 1.6 + 3.0,
            "commit VA grew too fast: {va1} -> {va2}"
        );
    }

    #[test]
    fn star_uses_delta_colors() {
        // K_{1,n}: Δ = n−1 edges all share the center: exactly Δ colors.
        let g = gen::star(12);
        let p = EdgeColoringExtension::new(1);
        let ids = IdAssignment::identity(12);
        let out = simlocal::Runner::new(&p, &g, &ids).run().unwrap();
        let (colors, _) = assemble(&g, &out).unwrap();
        let distinct = verify::count_distinct(&colors);
        assert_eq!(distinct, 11);
    }

    #[test]
    fn relay_tail_exceeds_commit_rounds() {
        // Engine termination (with relays) is later than commit rounds,
        // never earlier.
        let mut rng = ChaCha8Rng::seed_from_u64(112);
        let gg = gen::forest_union(400, 2, &mut rng);
        let p = EdgeColoringExtension::new(2);
        let ids = IdAssignment::identity(400);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        let (_, commit_metrics) = assemble(&gg.graph, &out).unwrap();
        for v in gg.graph.vertices() {
            assert!(
                out.metrics.termination_round[v as usize]
                    >= commit_metrics.termination_round[v as usize]
            );
        }
    }
}
