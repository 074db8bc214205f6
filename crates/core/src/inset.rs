//! In-H-set coloring subroutines shared by the §7 and §8 protocols.
//!
//! Procedure Partition guarantees every vertex at most `A = ⌊(2+ε)a⌋`
//! neighbors inside its own H-set (and ahead of it), so inside a set the
//! maximum relevant degree is `A` no matter how large Δ(G) is. Two
//! deterministic subroutines exploit this:
//!
//! * [`LinialSchedule`] — iterated Linial color reduction
//!   (Procedure Arb-Linial-Coloring's engine): from ID-colors down to the
//!   `O(A²)` fixpoint in `O(log* n)` synchronized steps;
//! * [`KwSchedule`] — Kuhn–Wattenhofer batched color reduction: from the
//!   `O(A²)` palette down to exactly `A + 1` colors in `O(A log A)`
//!   synchronized steps. Together they give the `(Δ+1)`-coloring-within-a-
//!   set used as "the (Δ+1)-coloring algorithm of \[7\]" in §7.4/§7.7/§8
//!   (substitution documented in DESIGN.md: `O(A log A + log* n)` instead
//!   of \[7\]'s `O(A + log* n)`; both depend on `a` only).
//!
//! Both schedules are pure functions of globally known quantities
//! (`id_space`, `A`), so every vertex derives the same round layout — the
//! synchronization the paper's phase analyses assume. A protocol runs one
//! of their rounds with [`LinialSchedule::round`] or
//! [`DeltaPlusOneSchedule::round`], which read the neighbors' colors
//! through the protocol's own filter.
//!
//! [`Cascade`] is the driver of the family that colors each H-set with
//! the in-set `(A+1)`-coloring, orients in-set edges toward the higher
//! in-set color and cross-set edges toward the later set, then runs a
//! cascade down that orientation: a vertex waits for its parents in its
//! window (see [`crate::segmentation::Shape`]) and picks. A
//! [`CascadeRule`] keeps what differs per result — the windows, which
//! decide when the cascade opens and which neighbors are parents, and
//! what a vertex picks:
//!
//! * [`crate::coloring::oa_recolor`] — two phases, smallest free color
//!   (Theorem 7.9);
//! * [`crate::coloring::ka`] — one window per segment, smallest free
//!   color (Theorem 7.16);
//! * [`crate::arb_color`] — one window for all sets, smallest free color
//!   (\[8\]);
//! * [`crate::arbdefective`] — an open window, the group least used by
//!   the parents (§7.8).

use crate::coverfree::{reduction_schedule, CoverFree};
use crate::partition::{degree_cap, partition_step, EPSILON};
use crate::schedule_cell::ScheduleCell;
use crate::segmentation::{SegmentSchedule, Shape};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Iterated Linial reduction schedule.
#[derive(Clone, Debug)]
pub struct LinialSchedule {
    fams: Vec<CoverFree>,
    p0: u64,
}

impl LinialSchedule {
    /// Schedule reducing a palette of `p0` initial colors (typically the
    /// ID space) against unions of up to `a_bound` conflicting sets.
    pub fn new(p0: u64, a_bound: u64) -> Self {
        LinialSchedule {
            fams: reduction_schedule(p0, a_bound),
            p0: p0.max(2),
        }
    }

    /// Number of synchronized rounds (`O(log* p0)`).
    pub fn rounds(&self) -> u32 {
        self.fams.len() as u32
    }

    /// Palette size after the full schedule (`O(a_bound²)`).
    pub fn final_palette(&self) -> u64 {
        self.fams.last().map(|f| f.ground_size()).unwrap_or(self.p0)
    }

    /// Executes step `i ∈ 0..rounds()`: `my` is this vertex's current
    /// color, `others` the current colors of its conflicting neighbors
    /// (≤ `a_bound` of them). Returns the new color.
    pub fn step(&self, i: u32, my: u64, others: &[u64]) -> u64 {
        self.fams[i as usize].reduce(my, others)
    }

    /// Step `i` of a vertex colored `my`, against the colors `peer` reads
    /// off its conflicting neighbors' messages.
    pub fn round<S, M>(
        &self,
        ctx: &StepCtx<'_, S, M>,
        i: u32,
        my: u64,
        peer: impl FnMut((VertexId, &M)) -> Option<u64>,
    ) -> u64 {
        let others: Vec<u64> = ctx.view.neighbors().filter_map(peer).collect();
        self.step(i, my, &others)
    }
}

/// Kuhn–Wattenhofer batched color reduction schedule: palette `p0` down to
/// `k = cap + 1` colors, where `cap` bounds the relevant degree.
///
/// Each *pass* splits the palette into blocks of `2k` colors and spends
/// `k` rounds folding the upper half of every block into the lower half
/// (one color class per round re-picks a free color among its ≤ `cap`
/// relevant neighbors); a pass maps palette `p` to `⌈p/(2k)⌉·k`.
#[derive(Clone, Debug)]
pub struct KwSchedule {
    /// Target palette size (`cap + 1`).
    k: u64,
    /// Palette size before each pass.
    passes: Vec<u64>,
}

impl KwSchedule {
    /// Builds the schedule from the starting palette and the degree cap.
    pub fn new(p0: u64, cap: u64) -> Self {
        let k = cap + 1;
        let mut passes = Vec::new();
        let mut p = p0;
        while p > k {
            passes.push(p);
            p = p.div_ceil(2 * k) * k;
            assert!(passes.len() <= 64, "KW schedule failed to converge");
        }
        KwSchedule { k, passes }
    }

    /// Final palette size `k = cap + 1`.
    pub fn final_palette(&self) -> u64 {
        self.k
    }

    /// Total synchronized rounds: `k` per pass.
    pub fn rounds(&self) -> u32 {
        (self.passes.len() as u64 * self.k) as u32
    }

    /// Executes KW round `i ∈ 0..rounds()` for a vertex currently colored
    /// `my`, with `others` the current colors of its relevant neighbors.
    /// Returns the (possibly unchanged) new color.
    ///
    /// Colors live in `0..passes[pass]` during a pass and are compacted to
    /// `0..⌈p/(2k)⌉·k` at the pass boundary (a pure relabeling folded into
    /// the first round of the next pass — callers never see it).
    pub fn step(&self, i: u32, my: u64, others: &[u64]) -> u64 {
        let k = self.k;
        let pass = (i as u64 / k) as usize;
        let t = i as u64 % k;
        let my = if t == 0 && pass > 0 {
            Self::compact(self.passes[pass - 1], k, my)
        } else {
            my
        };
        let block = my / (2 * k);
        let pos = my % (2 * k);
        if pos != k + t {
            return my;
        }
        // Re-pick: smallest position in [0, k) not used by a relevant
        // neighbor currently sitting in the lower half of my block.
        // Neighbors' colors may still be in the previous pass's space on
        // the compaction round, so compact them the same way.
        let mut used = vec![false; k as usize];
        for &oc in others {
            let oc = if t == 0 && pass > 0 {
                Self::compact(self.passes[pass - 1], k, oc)
            } else {
                oc
            };
            if oc / (2 * k) == block && oc % (2 * k) < k {
                used[(oc % (2 * k)) as usize] = true;
            }
        }
        let free = used
            .iter()
            .position(|&u| !u)
            .expect("cap+1 candidates vs ≤ cap neighbors") as u64;
        block * (2 * k) + free
    }

    /// Pass-boundary relabeling: color in block layout `2k` → dense layout
    /// `k` per block.
    fn compact(_prev_palette: u64, k: u64, c: u64) -> u64 {
        let block = c / (2 * k);
        let pos = c % (2 * k);
        debug_assert!(pos < k, "compaction requires the upper half to be empty");
        block * k + pos
    }

    /// The color each vertex should report after the last round (applies
    /// the final pass's compaction).
    pub fn finish(&self, my: u64) -> u64 {
        if self.passes.is_empty() {
            my
        } else {
            Self::compact(*self.passes.last().unwrap(), self.k, my)
        }
    }
}

/// The full in-set `(cap+1)`-coloring schedule: iterated Linial from IDs,
/// then KW reduction to `cap + 1` colors.
#[derive(Clone, Debug)]
pub struct DeltaPlusOneSchedule {
    /// Phase 1.
    pub linial: LinialSchedule,
    /// Phase 2.
    pub kw: KwSchedule,
}

impl DeltaPlusOneSchedule {
    /// Builds the schedule for vertices with IDs in `0..id_space` and
    /// relevant degree at most `cap`.
    pub fn new(id_space: u64, cap: u64) -> Self {
        let linial = LinialSchedule::new(id_space, cap);
        let kw = KwSchedule::new(linial.final_palette(), cap);
        DeltaPlusOneSchedule { linial, kw }
    }

    /// Total synchronized rounds (`O(log* n + cap·log cap)`).
    pub fn rounds(&self) -> u32 {
        self.linial.rounds() + self.kw.rounds()
    }

    /// Executes round `i ∈ 0..rounds()`; colors start as IDs.
    pub fn step(&self, i: u32, my: u64, others: &[u64]) -> u64 {
        if i < self.linial.rounds() {
            self.linial.step(i, my, others)
        } else {
            self.kw.step(i - self.linial.rounds(), my, others)
        }
    }

    /// Final color extraction after the last round: in `0..cap+1`.
    pub fn finish(&self, my: u64) -> u64 {
        self.kw.finish(my)
    }

    /// Round `i` of a vertex colored `my`, against the colors `peer`
    /// reads off its relevant neighbors' messages; finished into
    /// `0..cap+1` on the last round.
    pub fn round<S, M>(
        &self,
        ctx: &StepCtx<'_, S, M>,
        i: u32,
        my: u64,
        peer: impl FnMut((VertexId, &M)) -> Option<u64>,
    ) -> u64 {
        let others: Vec<u64> = ctx.view.neighbors().filter_map(peer).collect();
        let c = self.step(i, my, &others);
        if i + 1 == self.rounds() {
            self.finish(c)
        } else {
            c
        }
    }
}

/// The smallest color of `0..=cap` not in `taken` (which holds at most
/// `cap` colors).
pub(crate) fn smallest_free(cap: usize, taken: impl Iterator<Item = u64>) -> u64 {
    let mut used = vec![false; cap + 1];
    for c in taken {
        used[c as usize] = true;
    }
    used.iter()
        .position(|&u| !u)
        .expect("cap+1 colors vs ≤ cap taken") as u64
}

/// Per-vertex state of the [`Cascade`] driver, published whole.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // `h` is the 1-based H-set index, `c` the running in-set color, `local` the final one
pub enum CascadeState<P> {
    /// Running Procedure Partition.
    Active,
    /// In H-set `h`, running the in-set coloring (IDs until it starts).
    InSet { h: u32, c: u64 },
    /// Holding its in-set color; waiting for its window to open and for
    /// its parents to pick.
    Wait { h: u32, local: u64 },
    /// Picked (terminal; published so its children can proceed).
    Done { h: u32, local: u64, pick: P },
}

impl<P: WireSize> WireSize for CascadeState<P> {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for four variants, then the payload.
        match self {
            CascadeState::Active => 2,
            CascadeState::InSet { h, c } => 2 + h.wire_bits() + c.wire_bits(),
            CascadeState::Wait { h, local } => 2 + h.wire_bits() + local.wire_bits(),
            CascadeState::Done { h, local, pick } => {
                2 + h.wire_bits() + local.wire_bits() + pick.wire_bits()
            }
        }
    }
}

/// What one cascade result keeps; [`Cascade`] does the rest.
pub trait CascadeRule: Sync {
    /// What a vertex picks once its parents have.
    type Pick: Copy + std::fmt::Debug + PartialEq + Send + Sync + WireSize;
    /// Per-vertex output.
    type Output: Clone + Send + Sync;

    /// How the result groups H-sets into windows. A window's cascade
    /// opens once the in-set colorings of its sets are done; its
    /// vertices' parents are their neighbors in the same window.
    fn shape(&self) -> Shape;

    /// The pick and output of a vertex of window `w` whose parents
    /// picked `parents` (at most `cap` of them).
    fn pick(
        &self,
        cap: usize,
        w: u32,
        parents: impl Iterator<Item = Self::Pick>,
    ) -> (Self::Pick, Self::Output);
}

/// Partition, the in-set `(A+1)`-coloring of every H-set as soon as it
/// forms, then a cascade over each window of sets once it opens.
#[derive(Debug)]
pub struct Cascade<R> {
    /// Known arboricity.
    pub arboricity: usize,
    /// What the result keeps.
    pub rule: R,
    sched: ScheduleCell<(Option<SegmentSchedule>, DeltaPlusOneSchedule)>,
}

impl<R: CascadeRule> Cascade<R> {
    pub(crate) fn with_rule(arboricity: usize, rule: R) -> Self {
        Cascade {
            arboricity,
            rule,
            sched: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, EPSILON)
    }

    /// The segment layout and the in-set schedule (functions of global
    /// knowledge only, built once per instance).
    fn schedules(
        &self,
        n: u64,
        ids: &IdAssignment,
    ) -> &(Option<SegmentSchedule>, DeltaPlusOneSchedule) {
        let space = ids.id_space().max(2);
        let shape = self.rule.shape();
        self.sched.get(shape.key(space, n), || {
            (
                shape.segments(n),
                DeltaPlusOneSchedule::new(space, self.cap() as u64),
            )
        })
    }

    /// A vertex of H-set `h` holding in-set color `local`: once its
    /// window is open and every parent has picked, it picks.
    fn pick(
        &self,
        ctx: &StepCtx<'_, CascadeState<R::Pick>>,
        segments: &Option<SegmentSchedule>,
        d: u32,
        h: u32,
        local: u64,
    ) -> Transition<CascadeState<R::Pick>, R::Output> {
        let stay = Transition::Continue(CascadeState::Wait { h, local });
        let windows = self.rule.shape().windows(ctx.graph.n() as u64, segments);
        let w = windows.of(h);
        let opens = windows.opens(w, d);
        if opens.is_some_and(|start| ctx.round < start) {
            return stay;
        }
        // Parents: same-window neighbors in later sets, or in my set with
        // a higher in-set color. A window that opens has all its sets
        // formed by then, so a still-active neighbor is no parent; in an
        // open one it is a future parent.
        let parent = |j: u32, l: u64| windows.of(j) == w && (j > h || (j == h && l > local));
        for (_, s) in ctx.view.neighbors() {
            let waits = match *s {
                CascadeState::Active => opens.is_none(),
                CascadeState::InSet { h: j, .. } => windows.of(j) == w && j >= h,
                CascadeState::Wait { h: j, local: l } => parent(j, l),
                CascadeState::Done { .. } => false,
            };
            if waits {
                return stay;
            }
        }
        let parents = ctx.view.neighbors().filter_map(|(_, s)| match *s {
            CascadeState::Done {
                h: j,
                local: l,
                pick,
            } if parent(j, l) => Some(pick),
            _ => None,
        });
        let (pick, out) = self.rule.pick(self.cap(), w, parents);
        Transition::Terminate(CascadeState::Done { h, local, pick }, out)
    }
}

impl<R: CascadeRule> Protocol for Cascade<R> {
    type State = CascadeState<R::Pick>;
    type Msg = CascadeState<R::Pick>;
    type Output = R::Output;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> Self::State {
        CascadeState::Active
    }

    fn publish(&self, state: &Self::State) -> Self::Msg {
        *state
    }

    fn step(&self, ctx: StepCtx<'_, Self::State>) -> Transition<Self::State, Self::Output> {
        let n = ctx.graph.n() as u64;
        let (segments, inset) = self.schedules(n, ctx.ids);
        let d = inset.rounds();
        match *ctx.state {
            CascadeState::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, CascadeState::Active))
                    .count();
                if partition_step(active, self.cap()) {
                    Transition::Continue(CascadeState::InSet {
                        h: ctx.round,
                        c: ctx.my_id(),
                    })
                } else {
                    Transition::Continue(CascadeState::Active)
                }
            }
            CascadeState::InSet { h, c } => {
                // The in-set coloring runs in rounds [h+1, h+d].
                let i = ctx.round - h - 1;
                if i >= d {
                    // Empty schedule (tiny instance): the ID is < A+1.
                    return self.pick(&ctx, segments, d, h, c);
                }
                let next = inset.round(&ctx, i, c, |(_, s)| match *s {
                    CascadeState::InSet { h: j, c } if j == h => Some(c),
                    _ => None,
                });
                if i + 1 == d {
                    Transition::Continue(CascadeState::Wait { h, local: next })
                } else {
                    Transition::Continue(CascadeState::InSet { h, c: next })
                }
            }
            CascadeState::Wait { h, local } => self.pick(&ctx, segments, d, h, local),
            CascadeState::Done { .. } => unreachable!("Done is terminal"),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let shape = self.rule.shape();
        let l = shape.windows(n, &shape.segments(n)).partition_end();
        let d = DeltaPlusOneSchedule::new(n.max(2), self.cap() as u64).rounds();
        // The cascade is bounded by (A+1) per set across all sets.
        l + d + (self.cap() as u32 + 1) * (l + 1) + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, Graph};

    /// Centralized synchronous driver over an arbitrary graph: every
    /// vertex applies the schedule against ALL its neighbors. Validity
    /// requires max degree ≤ cap.
    fn drive_delta_plus_one(g: &Graph, cap: u64) -> Vec<u64> {
        let sched = DeltaPlusOneSchedule::new(g.n() as u64, cap);
        let mut colors: Vec<u64> = (0..g.n() as u64).collect();
        for i in 0..sched.rounds() {
            let prev = colors.clone();
            for v in g.vertices() {
                let others: Vec<u64> = g.neighbors(v).iter().map(|&u| prev[u as usize]).collect();
                colors[v as usize] = sched.step(i, prev[v as usize], &others);
            }
        }
        colors.iter().map(|&c| sched.finish(c)).collect()
    }

    #[test]
    fn linial_schedule_properties() {
        let s = LinialSchedule::new(1 << 20, 4);
        assert!(s.rounds() >= 1 && s.rounds() <= 8);
        assert!(s.final_palette() <= 2000);
    }

    #[test]
    fn kw_schedule_shrinks_to_cap_plus_one() {
        let s = KwSchedule::new(500, 4);
        assert_eq!(s.final_palette(), 5);
        assert!(s.rounds() > 0);
        // Pass count ~ log(500/5)/log(10): a handful.
        assert!(s.rounds() <= 5 * 10);
    }

    #[test]
    fn kw_noop_when_already_small() {
        let s = KwSchedule::new(4, 5);
        assert_eq!(s.rounds(), 0);
        assert_eq!(s.finish(3), 3);
    }

    #[test]
    fn full_schedule_colors_cycle() {
        let g = gen::cycle(97);
        let colors = drive_delta_plus_one(&g, 2);
        verify::assert_ok(verify::proper_vertex_coloring(&g, &colors, 3));
        assert!(colors.iter().all(|&c| c < 3));
    }

    #[test]
    fn full_schedule_colors_grid() {
        let g = gen::grid(12, 12);
        let colors = drive_delta_plus_one(&g, 4);
        verify::assert_ok(verify::proper_vertex_coloring(&g, &colors, 5));
    }

    #[test]
    fn full_schedule_colors_path_and_star() {
        let p = gen::path(64);
        let colors = drive_delta_plus_one(&p, 2);
        verify::assert_ok(verify::proper_vertex_coloring(&p, &colors, 3));
        let s = gen::star(20);
        let colors = drive_delta_plus_one(&s, 19);
        verify::assert_ok(verify::proper_vertex_coloring(&s, &colors, 20));
    }

    #[test]
    fn intermediate_linial_colorings_stay_proper() {
        let g = gen::cycle(50);
        let sched = LinialSchedule::new(50, 2);
        let mut colors: Vec<u64> = (0..50).collect();
        for i in 0..sched.rounds() {
            let prev = colors.clone();
            for v in g.vertices() {
                let others: Vec<u64> = g.neighbors(v).iter().map(|&u| prev[u as usize]).collect();
                colors[v as usize] = sched.step(i, prev[v as usize], &others);
            }
            verify::assert_ok(verify::proper_vertex_coloring(&g, &colors, usize::MAX));
        }
        assert!(colors.iter().all(|&c| c < sched.final_palette()));
    }

    #[test]
    fn rounds_scale_with_cap_not_n() {
        // Linial rounds grow like log* n; KW rounds like cap·log(cap).
        let small = DeltaPlusOneSchedule::new(1 << 10, 4).rounds();
        let big = DeltaPlusOneSchedule::new(1 << 40, 4).rounds();
        assert!(
            big <= small + 4 * 3,
            "rounds grew too fast: {small} -> {big}"
        );
    }
}
