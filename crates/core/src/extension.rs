//! §8 — solving *problems of extension from any partial solution* with
//! vertex-averaged complexity `O(f(a, n))` instead of worst-case
//! `f(Δ, n)` (Theorem 8.2).
//!
//! The framework: run Procedure Parallelized-Forest-Decomposition; in
//! iteration `i`, once `H_i` exists, run the worst-case algorithm 𝒜 on
//! `G(H_i)` — whose maximum degree is `O(a)` regardless of Δ — extending
//! the partial solution computed on `H_1 ∪ … ∪ H_{i-1}`; for edge-labelled
//! problems an auxiliary algorithm ℬ then fixes the edges crossing to
//! earlier sets. Iterations are sequential, but the active-set decay makes
//! the *average* number of rounds `O(T_𝒜 + T_ℬ)` (Corollary 6.4).
//!
//! This module provides the deterministic iteration timetable shared by
//! the concrete instantiations, and the driver of the vertex problems.
//! [`Extension`] runs the whole framework for a problem whose 𝒜 is "color
//! `G(H_i)` with the in-set `(A+1)`-coloring, then let its `A + 1` color
//! classes decide one slot at a time against every decided neighbor". A
//! [`SlotRule`] keeps what differs per result — the slot decision, its
//! payload, and whether the decision reads only local inputs:
//!
//! * [`crate::coloring::delta_plus_one`] — `(Δ+1)`-vertex-coloring
//!   (Corollary 8.3): the smallest color of `{0..Δ}` free among the
//!   decided neighbors; it reads Δ, so it is not local;
//! * [`crate::mis`] — maximal independent set (Corollary 8.4): join
//!   unless a decided neighbor joined.
//!
//! The edge-labelled problems write their windows with [`EdgeWindow`]:
//!
//! * [`crate::edge_coloring`] — `(2Δ−1)`-edge-coloring (Corollary 8.6);
//! * [`crate::matching`] — maximal matching (Corollary 8.8), which shares
//!   the edge-window slots of [`EdgeWindow`] with edge coloring.
//!
//! ## Timetable
//!
//! Each iteration is given the same fixed budget `dur` (a worst-case bound
//! on `T_𝒜 + T_ℬ` inside an H-set, derivable from global knowledge).
//! Iteration `i`'s *work window* is
//! `[window_start(i), window_start(i) + dur)` with
//! `window_start(i) = i + 1 + (i-1)·dur`: it opens after `H_i` has formed
//! (round `i`, visible in round `i+1`) and after window `i−1` has closed.
//! A vertex of `H_i` therefore commits by round `O(i · dur)`, and the
//! exponential decay `n_i ≤ (2/(2+ε))^{i-1} n` gives
//! `Σ_i n_i · i · dur = O(n · dur)` — vertex-averaged `O(dur)`.
//!
//! ## Output-commit semantics for edge-labelled problems
//!
//! When ℬ colors/claims an edge `{x, v}` whose earlier endpoint `x` has
//! already finished its own iteration, later claims on *other* edges at
//! `x` must learn about it. The only 1-hop route is `x` itself, so `x`
//! keeps *relaying* (republishing its incident-edge table) until all its
//! cross edges are settled. Following the paper's §2 (Feuilloley's first
//! definition, which the authors note is equivalent): `x`'s measured
//! running time is the round its own output was *committed*; the
//! subsequent relay rounds carry no computation on `x`'s output. Concrete
//! protocols report commit rounds in their outputs, and
//! [`metrics_from_commits`] rebuilds the round metrics under that
//! definition. EXPERIMENTS.md reports both numbers.

use crate::inset::DeltaPlusOneSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step, EPSILON};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, RoundMetrics, StepCtx, Transition, WireSize};

/// The fixed-budget iteration timetable of Theorem 8.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IterationSchedule {
    /// Per-iteration budget (worst-case `T_𝒜 + T_ℬ` rounds inside a set).
    pub dur: u32,
}

impl IterationSchedule {
    /// Builds a timetable with the given per-iteration budget (≥ 1).
    pub fn new(dur: u32) -> Self {
        IterationSchedule { dur: dur.max(1) }
    }

    /// First round of iteration `h`'s work window (`h ≥ 1`). Opens two
    /// rounds after `H_h` forms: one round for the membership mark to
    /// become visible, one for the labeling handshake some instantiations
    /// perform.
    pub fn window_start(&self, h: u32) -> u32 {
        h + 2 + (h - 1) * self.dur
    }

    /// Last round of iteration `h`'s work window.
    pub fn window_end(&self, h: u32) -> u32 {
        self.window_start(h) + self.dur - 1
    }

    /// The local work-round index (0-based) of global round `round` within
    /// iteration `h`'s window, or `None` if the window hasn't opened.
    pub fn local_round(&self, h: u32, round: u32) -> Option<u32> {
        (round >= self.window_start(h)).then(|| round - self.window_start(h))
    }
}

/// The edge-labelled work window: `d` in-set `(A+1)`-coloring rounds, then
/// 𝒜's `A·(A+1)` sub-slots (forest label × color) and ℬ's `A` (label),
/// each a work round and a relay round, then the commit. With `d = 0` the
/// IDs already fit the palette and `finish` is the identity.
#[derive(Clone, Debug)]
pub struct EdgeWindow {
    inset: DeltaPlusOneSchedule,
    iters: IterationSchedule,
    cap: u32,
}

/// A round of `H_h`'s [`EdgeWindow`]: wait, in-set coloring round `i`, 𝒜
/// sub-slot `(f, ĉ)` (vertices colored `chat` serve their forest-`f`
/// children), ℬ sub-slot `j` (serve the cross edges labelled `j` by their
/// earlier endpoint), relay, or commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants are described above
pub enum EdgeSlot {
    Wait,
    Color(u32),
    InSet { f: u32, chat: u64 },
    Cross(u32),
    Relay,
    Commit,
}

impl EdgeWindow {
    /// The timetable for IDs in `0..id_space` and degree threshold `cap`.
    pub fn new(id_space: u64, cap: usize) -> Self {
        let inset = DeltaPlusOneSchedule::new(id_space.max(2), cap as u64);
        let cap = cap as u32;
        let iters = IterationSchedule::new(inset.rounds() + 2 * cap * (cap + 1) + 2 * cap);
        EdgeWindow { inset, iters, cap }
    }

    /// Round cap for `n` vertices: the last window's end plus a relay margin.
    pub fn max_rounds(&self, n: u64) -> u32 {
        let last = itlog::partition_round_bound(n, EPSILON);
        self.iters.window_end(last) + 16
    }

    /// The slot of global round `round` in `H_h`'s window.
    pub fn slot(&self, h: u32, round: u32) -> EdgeSlot {
        let Some(local) = self.iters.local_round(h, round) else {
            return EdgeSlot::Wait;
        };
        let Some(t) = local.checked_sub(self.inset.rounds()) else {
            return EdgeSlot::Color(local);
        };
        let (sub, k) = (t / 2, self.cap + 1);
        let in_set = self.cap * k;
        if sub >= in_set + self.cap {
            EdgeSlot::Commit
        } else if t % 2 == 1 {
            EdgeSlot::Relay
        } else if sub < in_set {
            EdgeSlot::InSet {
                f: sub / k,
                chat: (sub % k) as u64,
            }
        } else {
            EdgeSlot::Cross(sub - in_set)
        }
    }

    /// In-set coloring round `i` of a vertex colored `my`, against the
    /// colors `peer` reads off its same-set neighbors' messages; finished
    /// into `0..A+1` on the last round.
    pub fn recolor<S, M>(
        &self,
        ctx: &StepCtx<'_, S, M>,
        i: u32,
        my: u64,
        peer: impl Fn((VertexId, &M)) -> Option<u64>,
    ) -> u64 {
        self.inset.round(ctx, i, my, peer)
    }
}

/// Per-vertex state of the [`Extension`] driver.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // `h` is the 1-based H-set index, `c` the running in-set color
pub enum ExtState<D> {
    /// Running Procedure Partition.
    Active,
    /// Joined H-set `h`; waiting for its iteration window.
    Joined { h: u32 },
    /// Running the in-set slot-order coloring.
    InSet { h: u32, c: u64 },
    /// Holding slot `slot`, waiting for it.
    Await { h: u32, slot: u64 },
    /// Decided (terminal, published).
    Fin { h: u32, decision: D },
}

/// Wire message of the [`Extension`] driver. An `Await` vertex's slot and
/// H-index are private while it holds for its slot, and a decided vertex
/// only shows its decision — neighbors never need the H-index of a
/// decided vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // mirrors the `ExtState` conventions above
pub enum ExtMsg<D> {
    Active,
    Joined { h: u32 },
    InSet { h: u32, c: u64 },
    Await,
    Fin { decision: D },
}

impl<D: WireSize> WireSize for ExtMsg<D> {
    fn wire_bits(&self) -> u64 {
        // 3-bit tag for five variants, then the payload.
        match self {
            ExtMsg::Active | ExtMsg::Await => 3,
            ExtMsg::Joined { h } => 3 + h.wire_bits(),
            ExtMsg::InSet { h, c } => 3 + h.wire_bits() + c.wire_bits(),
            ExtMsg::Fin { decision } => 3 + decision.wire_bits(),
        }
    }
}

/// What one vertex-extension result keeps; [`Extension`] does the rest.
pub trait SlotRule: Sync {
    /// What a vertex decides in its slot: its output, and all its
    /// neighbors see of it from then on.
    type Decision: Copy + std::fmt::Debug + PartialEq + Send + Sync + WireSize;

    /// Whether the decision reads only LOCAL inputs
    /// ([`Protocol::is_local`]).
    const LOCAL: bool;

    /// The decision of a vertex whose decided neighbors decided
    /// `decided` — earlier sets, and earlier slots of its own set.
    fn decide(&self, g: &Graph, decided: impl Iterator<Item = Self::Decision>) -> Self::Decision;
}

/// The extension framework of Theorem 8.2 for vertex problems: partition,
/// then in H-set `h`'s iteration window an in-set `(A+1)`-coloring, whose
/// color is the vertex's slot, then `A + 1` slots in which the vertices
/// of each color class decide.
#[derive(Debug)]
pub struct Extension<R> {
    /// Known arboricity.
    pub arboricity: usize,
    /// What the result keeps.
    pub rule: R,
    sched: ScheduleCell<(DeltaPlusOneSchedule, IterationSchedule)>,
}

impl<R: SlotRule> Extension<R> {
    pub(crate) fn with_rule(arboricity: usize, rule: R) -> Self {
        Extension {
            arboricity,
            rule,
            sched: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, EPSILON)
    }

    /// The in-set schedule and the iteration timetable: `d` coloring
    /// rounds plus `A + 1` slots per window.
    fn schedules(&self, ids: &IdAssignment) -> &(DeltaPlusOneSchedule, IterationSchedule) {
        let space = ids.id_space().max(2);
        self.sched.get(ScheduleKey::ids(space), || {
            let inset = DeltaPlusOneSchedule::new(space, self.cap() as u64);
            let dur = inset.rounds() + self.cap() as u32 + 1;
            (inset, IterationSchedule::new(dur))
        })
    }

    /// Window round `i` of a vertex of H-set `h`: in-set coloring round
    /// `i < d` from color `cur`, else slot round `i - d` holding slot
    /// `cur`.
    fn window_step(
        &self,
        ctx: &StepCtx<'_, ExtState<R::Decision>, ExtMsg<R::Decision>>,
        inset: &DeltaPlusOneSchedule,
        h: u32,
        cur: u64,
        i: u32,
    ) -> Transition<ExtState<R::Decision>, R::Decision> {
        let d = inset.rounds();
        if i < d {
            let next = inset.round(ctx, i, cur, |(u, s)| match *s {
                ExtMsg::InSet { h: j, c } if j == h => Some(c),
                // Peers entering the window this round still expose their
                // IDs as their initial colors.
                ExtMsg::Joined { h: j } if j == h => Some(ctx.ids.id(u)),
                _ => None,
            });
            return Transition::Continue(if i + 1 == d {
                ExtState::Await { h, slot: next }
            } else {
                ExtState::InSet { h, c: next }
            });
        }
        // With an empty schedule (tiny instance) the ID is the slot.
        if ((i - d) as u64) < cur {
            return Transition::Continue(ExtState::Await { h, slot: cur });
        }
        let decided = ctx.view.neighbors().filter_map(|(_, s)| match *s {
            ExtMsg::Fin { decision } => Some(decision),
            _ => None,
        });
        let decision = self.rule.decide(ctx.graph, decided);
        Transition::Terminate(ExtState::Fin { h, decision }, decision)
    }
}

impl<R: SlotRule> Protocol for Extension<R> {
    type State = ExtState<R::Decision>;
    type Msg = ExtMsg<R::Decision>;
    type Output = R::Decision;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> Self::State {
        ExtState::Active
    }

    // The schedules are keyed only on the ID space and the partition cap
    // (fixed across edge edits — churn never changes n), and `step` reads
    // only the neighbor view, the round counter, the vertex's own ID and
    // whatever the rule's decision reads.
    fn is_local(&self) -> bool {
        R::LOCAL
    }

    fn publish(&self, state: &Self::State) -> Self::Msg {
        match *state {
            ExtState::Active => ExtMsg::Active,
            ExtState::Joined { h } => ExtMsg::Joined { h },
            ExtState::InSet { h, c } => ExtMsg::InSet { h, c },
            ExtState::Await { .. } => ExtMsg::Await,
            ExtState::Fin { decision, .. } => ExtMsg::Fin { decision },
        }
    }

    fn step(
        &self,
        ctx: StepCtx<'_, Self::State, Self::Msg>,
    ) -> Transition<Self::State, Self::Output> {
        let (inset, iters) = self.schedules(ctx.ids);
        let (h, cur) = match *ctx.state {
            ExtState::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, ExtMsg::Active))
                    .count();
                return if partition_step(active, self.cap()) {
                    Transition::Continue(ExtState::Joined { h: ctx.round })
                } else {
                    Transition::Continue(ExtState::Active)
                };
            }
            ExtState::Joined { h } => (h, ctx.my_id()),
            ExtState::InSet { h, c } => (h, c),
            ExtState::Await { h, slot } => (h, slot),
            ExtState::Fin { .. } => unreachable!("terminal"),
        };
        match iters.local_round(h, ctx.round) {
            Some(i) => self.window_step(&ctx, inset, h, cur, i),
            None => Transition::Continue(*ctx.state),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let inset = DeltaPlusOneSchedule::new(n.max(2), self.cap() as u64);
        let dur = inset.rounds() + self.cap() as u32 + 1;
        IterationSchedule::new(dur).window_end(itlog::partition_round_bound(n, EPSILON)) + 8
    }

    fn phase_names(&self) -> &'static [&'static str] {
        &["partition", "await_window", "inset_color", "slot_sweep"]
    }

    fn phase_of(&self, state: &Self::State) -> simlocal::PhaseId {
        match state {
            ExtState::Active => 0,
            ExtState::Joined { .. } => 1,
            ExtState::InSet { .. } => 2,
            ExtState::Await { .. } | ExtState::Fin { .. } => 3,
        }
    }
}

/// Rebuilds round metrics under the output-commit definition: vertex `v`'s
/// running time is `commits[v]` (the round its output was fixed), even if
/// it kept relaying afterwards. The activity series follows from the
/// commit rounds ([`RoundMetrics::active_per_round`]).
pub fn metrics_from_commits(commits: &[u32]) -> RoundMetrics {
    RoundMetrics {
        termination_round: commits.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn windows_are_disjoint_and_ordered() {
        let s = IterationSchedule::new(7);
        for h in 1..20 {
            assert!(s.window_start(h) > h, "window must open after H_{h} forms");
            assert!(s.window_end(h) < s.window_start(h + 1));
        }
    }

    #[test]
    fn local_round_math() {
        let s = IterationSchedule::new(5);
        let w = s.window_start(3);
        assert_eq!(s.local_round(3, w - 1), None);
        assert_eq!(s.local_round(3, w), Some(0));
        assert_eq!(s.local_round(3, w + 4), Some(4));
    }

    #[test]
    fn commit_metrics_identities() {
        let m = metrics_from_commits(&[1, 3, 2, 3]);
        assert_eq!(m.worst_case(), 3);
        assert_eq!(m.round_sum(), 9);
        assert_eq!(m.active_per_round(), vec![4, 3, 2]);
        m.check_identities().unwrap();
    }

    #[test]
    fn commit_metrics_empty() {
        let m = metrics_from_commits(&[]);
        assert_eq!(m.worst_case(), 0);
        assert!(m.check_identities().is_ok());
    }

    proptest! {
        // The derived series equals the direct O(n·rounds) construction:
        // a vertex committing in round c is active in rounds 1..=c, and
        // one committing in round 0 in none.
        #[test]
        fn commit_series_matches_direct_count(
            commits in proptest::collection::vec(0u32..40, 0..80),
        ) {
            let worst = commits.iter().copied().max().unwrap_or(0);
            let mut direct = vec![0usize; worst as usize];
            for &c in &commits {
                for slot in direct.iter_mut().take(c as usize) {
                    *slot += 1;
                }
            }
            let m = metrics_from_commits(&commits);
            prop_assert_eq!(m.active_per_round(), direct);
            prop_assert!(m.check_identities().is_ok());
        }
    }
}
