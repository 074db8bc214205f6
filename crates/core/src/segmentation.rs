//! §7.5 — the *segmentation* scheme, the windows the §7.3–§7.8
//! protocols color in, and the windowed Arb-Linial driver.
//!
//! The vertices are retired in `k` **segments**: segment `k` is formed
//! first and consists of the first `≈ c·log^(k) n` H-sets, segment `k−1`
//! of the next `≈ c·log^(k−1) n`, …, down to segment 1, which absorbs
//! whatever remains of the full partition schedule. Because the active set
//! decays exponentially (Lemma 6.1), only `O(n / log^(s) n)` vertices
//! survive to segment `s < k`, so even though later segments pay longer
//! windows, the vertex-averaged total is dominated by segment `k`'s
//! `O(log^(k) n)`.
//!
//! [`SegmentSchedule`] is the deterministic global round layout every
//! vertex derives from `(n, k, ε)`: the partition window of each segment
//! and the start of its algorithm-𝒞 window. [`Shape`] names the ways the
//! protocols group H-sets into windows — the two phases of §7.3–§7.4, the
//! segments, one window for all sets, or one that never closes — which
//! each run resolves into the window of every H-set and the round each
//! window opens.
//!
//! [`Windowed`] is the driver of the windowed Arb-Linial family: a vertex
//! joins an H-set by Procedure Partition, idles until its window opens,
//! then runs the iterated Arb-Linial coloring against its parents in the
//! window (same-set neighbors with higher IDs and neighbors in later sets)
//! and terminates. A [`WindowRule`] keeps what differs per result — the
//! shape and how a color is tagged:
//!
//! * [`crate::coloring::a2_loglog`] — two phases (Theorem 7.6);
//! * [`crate::coloring::ka2`] — one window per segment (Theorem 7.13).
//!
//! The cascade driver [`crate::inset::Cascade`] colors in the same
//! windows.

use crate::inset::LinialSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step, EPSILON};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// Deterministic segment layout for one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentSchedule {
    /// `windows[i] = (segment index s, first round, last round)` in
    /// formation order (`i = 0` is segment `k`). Segment indices run from
    /// `k` down to 1; rounds are inclusive.
    windows: Vec<(u32, u32, u32)>,
}

impl SegmentSchedule {
    /// Builds the layout for `k ∈ [2, ρ(n)]` segments (values above
    /// `ρ(n)` are clamped, matching the paper's parameter range).
    pub fn new(n: u64, k: u32, epsilon: f64) -> Self {
        assert!(k >= 2, "segmentation needs k ≥ 2");
        let k = k.min(itlog::rho(n)).max(2);
        let c = (2.0 / epsilon).ceil() as u64;
        let full = itlog::partition_round_bound(n, epsilon) as u64;
        let mut windows = Vec::with_capacity(k as usize);
        let mut next_start: u64 = 1;
        for s in (2..=k).rev() {
            let len = (c * itlog::iterated_log(n, s)).max(1);
            windows.push((s, next_start as u32, (next_start + len - 1) as u32));
            next_start += len;
        }
        // Segment 1 covers the rest of the full partition schedule (and at
        // least c·log n rounds), guaranteeing every vertex joins a window.
        let len1 = (c * itlog::iterated_log(n, 1))
            .max(full.saturating_sub(next_start - 1))
            .max(1);
        windows.push((1, next_start as u32, (next_start + len1 - 1) as u32));
        SegmentSchedule { windows }
    }

    /// Number of segments.
    pub fn k(&self) -> u32 {
        self.windows.len() as u32
    }

    /// The segment whose partition window contains round `h` (i.e. the
    /// segment of a vertex that joined H-set `H_h`). Rounds beyond the
    /// last window belong to segment 1.
    pub fn segment_of(&self, h: u32) -> u32 {
        for &(s, start, end) in &self.windows {
            if h >= start && h <= end {
                return s;
            }
        }
        1
    }

    /// Inclusive partition window `(first, last)` of segment `s`.
    pub fn window(&self, s: u32) -> (u32, u32) {
        let &(_, start, end) = self
            .windows
            .iter()
            .find(|&&(seg, _, _)| seg == s)
            .expect("segment index out of range");
        (start, end)
    }

    /// Last round of the whole partition layout.
    pub fn total_partition_rounds(&self) -> u32 {
        self.windows.last().expect("nonempty").2
    }

    /// First round of segment `s`'s algorithm-𝒞 window, given that the
    /// per-H-set algorithms 𝒜/ℬ take `d_ab` deterministic rounds after a
    /// set forms: all sets of the segment are formed by `window(s).1` and
    /// have finished 𝒜/ℬ `d_ab` rounds later.
    pub fn c_start(&self, s: u32, d_ab: u32) -> u32 {
        self.window(s).1 + d_ab + 1
    }
}

/// The phase-1 set count `t = ⌊log log n⌋` of §7.3–§7.4, clamped ≥ 1:
/// after `t` partition rounds at most `n / log n` vertices remain.
pub(crate) fn phase1_sets(n: u64) -> u32 {
    (itlog::iterated_log(n.max(4), 2) as u32).max(1)
}

/// How a protocol groups its H-sets into windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// §7.3–§7.4: H-sets `1..=t` with `t = ⌊log log n⌋`, then the rest
    /// once the full partition has formed them.
    TwoPhase,
    /// §7.5: the `k` segments of a [`SegmentSchedule`].
    Segments(u32),
    /// One window for every H-set, once the full partition has formed
    /// them (\[8\]'s Arb-Color).
    Whole,
    /// One window that never closes: every set formed so far or later
    /// belongs to it.
    Open,
}

impl Shape {
    /// The schedule-cache key: segments read `n`, the other shapes only
    /// the ID space.
    pub(crate) fn key(self, id_space: u64, n: u64) -> ScheduleKey {
        match self {
            Shape::Segments(_) => ScheduleKey::ids(id_space).n(n),
            _ => ScheduleKey::ids(id_space),
        }
    }

    /// The segment layout a run caches, for [`Shape::Segments`].
    pub(crate) fn segments(self, n: u64) -> Option<SegmentSchedule> {
        match self {
            Shape::Segments(k) => Some(SegmentSchedule::new(n, k, EPSILON)),
            _ => None,
        }
    }

    /// This shape's windows on `n` vertices; `segments` is the layout
    /// [`Shape::segments`] built.
    pub(crate) fn windows(self, n: u64, segments: &Option<SegmentSchedule>) -> Windows<'_> {
        let full = || itlog::partition_round_bound(n, EPSILON);
        match self {
            Shape::TwoPhase => Windows::TwoPhase {
                t: phase1_sets(n),
                full: full(),
            },
            Shape::Segments(_) => Windows::Segments(
                segments
                    .as_ref()
                    .expect("segments are built with the schedule"),
            ),
            Shape::Whole => Windows::Whole { full: full() },
            Shape::Open => Windows::Open { full: full() },
        }
    }
}

/// A [`Shape`] resolved for one run: which window each H-set belongs to,
/// and when each window opens. Windows are numbered as the shape numbers
/// them: phase 0 then 1, segment `k` down to 1, and 0 for one window.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Windows<'a> {
    /// `t` is the phase-1 set count, `full` the partition bound.
    TwoPhase {
        t: u32,
        full: u32,
    },
    Segments(&'a SegmentSchedule),
    Whole {
        full: u32,
    },
    Open {
        full: u32,
    },
}

impl Windows<'_> {
    /// The window of H-set `h`.
    pub(crate) fn of(&self, h: u32) -> u32 {
        match self {
            Windows::TwoPhase { t, .. } => u32::from(h > *t),
            Windows::Segments(segs) => segs.segment_of(h),
            Windows::Whole { .. } | Windows::Open { .. } => 0,
        }
    }

    /// The first round of window `w`'s algorithm-𝒞 stage, given that the
    /// per-set stage takes `d` rounds after a set forms: every set of the
    /// window has formed, and finished that stage, by then. `None` for an
    /// open window, which never waits.
    pub(crate) fn opens(&self, w: u32, d: u32) -> Option<u32> {
        let last_set = match self {
            Windows::TwoPhase { t, full } => {
                if w == 0 {
                    *t
                } else {
                    (*full).max(*t)
                }
            }
            Windows::Segments(segs) => return Some(segs.c_start(w, d)),
            Windows::Whole { full } => *full,
            Windows::Open { .. } => return None,
        };
        Some(last_set + d + 1)
    }

    /// The round by which every H-set has formed.
    pub(crate) fn partition_end(&self) -> u32 {
        match self {
            Windows::TwoPhase { t, full } => (*full).max(*t),
            Windows::Segments(segs) => segs.total_partition_rounds(),
            Windows::Whole { full } | Windows::Open { full } => *full,
        }
    }
}

/// Per-vertex state of the [`Windowed`] driver, published whole.
#[derive(Clone, Copy, Debug, PartialEq)]
#[allow(missing_docs)] // `h` is the 1-based H-set index, `color` the running Linial color
pub enum WindowState {
    /// Running Procedure Partition.
    Active,
    /// Joined H-set `h`; waiting for its window to open.
    Joined { h: u32 },
    /// Running the iterated Arb-Linial coloring of its window.
    Coloring { h: u32, color: u64 },
}

impl WireSize for WindowState {
    fn wire_bits(&self) -> u64 {
        // 2-bit tag for three variants, then the payload.
        match self {
            WindowState::Active => 2,
            WindowState::Joined { h } => 2 + h.wire_bits(),
            WindowState::Coloring { h, color } => 2 + h.wire_bits() + color.wire_bits(),
        }
    }
}

/// What one windowed Arb-Linial result keeps; [`Windowed`] does the rest.
pub trait WindowRule: Sync {
    /// How the result groups H-sets into windows.
    fn shape(&self) -> Shape;

    /// The output of a vertex of window `w` whose final Linial color is
    /// `c`: each window gets its own copy of the palette.
    fn tag(&self, linial: &LinialSchedule, w: u32, c: u64) -> u64;
}

/// Partition, then the iterated Arb-Linial coloring of each window of
/// H-sets once it opens.
#[derive(Debug)]
pub struct Windowed<R> {
    /// Known arboricity.
    pub arboricity: usize,
    /// What the result keeps.
    pub rule: R,
    sched: ScheduleCell<(Option<SegmentSchedule>, LinialSchedule)>,
}

impl<R: WindowRule> Windowed<R> {
    pub(crate) fn with_rule(arboricity: usize, rule: R) -> Self {
        Windowed {
            arboricity,
            rule,
            sched: ScheduleCell::new(),
        }
    }

    /// Degree threshold `A`.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, EPSILON)
    }

    /// The segment layout and the Linial schedule (functions of global
    /// knowledge only, built once per instance).
    pub(crate) fn schedules(
        &self,
        n: u64,
        ids: &IdAssignment,
    ) -> &(Option<SegmentSchedule>, LinialSchedule) {
        let space = ids.id_space().max(2);
        let shape = self.rule.shape();
        self.sched.get(shape.key(space, n), || {
            (
                shape.segments(n),
                LinialSchedule::new(space, self.cap() as u64),
            )
        })
    }
}

impl<R: WindowRule> Protocol for Windowed<R> {
    type State = WindowState;
    type Msg = WindowState;
    type Output = u64;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> WindowState {
        WindowState::Active
    }

    fn publish(&self, state: &WindowState) -> WindowState {
        *state
    }

    fn step(&self, ctx: StepCtx<'_, WindowState>) -> Transition<WindowState, u64> {
        let n = ctx.graph.n() as u64;
        let (h, cur) = match *ctx.state {
            WindowState::Active => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, s)| matches!(s, WindowState::Active))
                    .count();
                return if partition_step(active, self.cap()) {
                    Transition::Continue(WindowState::Joined { h: ctx.round })
                } else {
                    Transition::Continue(WindowState::Active)
                };
            }
            WindowState::Joined { h } => (h, None),
            WindowState::Coloring { h, color } => (h, Some(color)),
        };
        let (segments, linial) = self.schedules(n, ctx.ids);
        let windows = self.rule.shape().windows(n, segments);
        let w = windows.of(h);
        let start = windows.opens(w, 0).expect("Arb-Linial windows close");
        let cur = match cur {
            Some(color) => color,
            None if ctx.round < start => return Transition::Continue(WindowState::Joined { h }),
            // The paper treats IDs as initial colors.
            None => ctx.my_id(),
        };
        let i = ctx.round - start;
        let next = if i < linial.rounds() {
            // Parents: same-set neighbors with higher IDs and neighbors in
            // later sets of the window — at most `A` of them. Those that
            // have not started coloring expose their IDs.
            let my_id = ctx.my_id();
            linial.round(&ctx, i, cur, |(u, s)| {
                let (j, col) = match s {
                    WindowState::Active => return None,
                    WindowState::Joined { h: j } => (*j, ctx.ids.id(u)),
                    WindowState::Coloring { h: j, color } => (*j, *color),
                };
                let parent = windows.of(j) == w && (j > h || (j == h && ctx.ids.id(u) > my_id));
                parent.then_some(col)
            })
        } else {
            // Empty schedule (tiny instance): the ID itself is the color.
            cur
        };
        let state = WindowState::Coloring { h, color: next };
        if i + 1 >= linial.rounds() {
            Transition::Terminate(state, self.rule.tag(linial, w, next))
        } else {
            Transition::Continue(state)
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let shape = self.rule.shape();
        shape.windows(n, &shape.segments(n)).partition_end()
            + LinialSchedule::new(n.max(2), self.cap() as u64).rounds()
            + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_contiguous_and_ordered() {
        let sch = SegmentSchedule::new(1 << 16, 3, 2.0);
        assert_eq!(sch.k(), 3);
        let (s3, e3) = sch.window(3);
        let (s2, e2) = sch.window(2);
        let (s1, e1) = sch.window(1);
        assert_eq!(s3, 1);
        assert_eq!(s2, e3 + 1);
        assert_eq!(s1, e2 + 1);
        assert!(e1 >= itlog::partition_round_bound(1 << 16, 2.0));
    }

    #[test]
    fn window_lengths_follow_iterated_logs() {
        let n = 1u64 << 16;
        let sch = SegmentSchedule::new(n, 3, 2.0);
        // ε=2 ⇒ c=1: segment 3 has log^(3) n = 2 rounds, segment 2 has
        // log^(2) n = 4 rounds.
        let (a, b) = sch.window(3);
        assert_eq!(b - a + 1, itlog::iterated_log(n, 3) as u32);
        let (a, b) = sch.window(2);
        assert_eq!(b - a + 1, itlog::iterated_log(n, 2) as u32);
    }

    #[test]
    fn segment_of_maps_every_round() {
        let sch = SegmentSchedule::new(1 << 12, 4, 2.0);
        let mut seen = std::collections::BTreeSet::new();
        for h in 1..=sch.total_partition_rounds() {
            let s = sch.segment_of(h);
            assert!(s >= 1 && s <= sch.k());
            seen.insert(s);
        }
        // Every segment is hit, and rounds past the end fall into 1.
        assert_eq!(seen.len() as u32, sch.k());
        assert_eq!(sch.segment_of(sch.total_partition_rounds() + 5), 1);
    }

    #[test]
    fn k_clamped_to_rho() {
        let n = 1u64 << 16; // ρ(65536) is small
        let sch = SegmentSchedule::new(n, 99, 2.0);
        assert!(sch.k() <= itlog::rho(n));
        assert!(sch.k() >= 2);
    }

    #[test]
    fn c_start_after_window_and_dab() {
        let sch = SegmentSchedule::new(1 << 16, 2, 2.0);
        let (_, end) = sch.window(2);
        assert_eq!(sch.c_start(2, 7), end + 8);
    }

    #[test]
    fn smaller_epsilon_longer_windows() {
        let a = SegmentSchedule::new(1 << 16, 2, 2.0);
        let b = SegmentSchedule::new(1 << 16, 2, 0.5);
        assert!(b.total_partition_rounds() > a.total_partition_rounds());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn schedules_deterministic_and_total_per_k() {
        for k in 2..6u32 {
            for n in [256u64, 1 << 14, 1 << 20] {
                let a = SegmentSchedule::new(n, k, 2.0);
                let b = SegmentSchedule::new(n, k, 2.0);
                assert_eq!(a, b, "schedule must be deterministic");
                // Total partition rounds cover the analytic bound.
                assert!(
                    a.total_partition_rounds() >= itlog::partition_round_bound(n, 2.0),
                    "n={n}, k={k}"
                );
            }
        }
    }

    #[test]
    fn segment_indices_decrease_along_rounds() {
        let sch = SegmentSchedule::new(1 << 16, 4, 2.0);
        let mut last = u32::MAX;
        for h in 1..=sch.total_partition_rounds() {
            let s = sch.segment_of(h);
            assert!(
                s <= last,
                "segment index must be non-increasing over rounds"
            );
            last = s;
        }
        assert_eq!(last, 1);
    }

    #[test]
    fn later_segments_have_geometrically_longer_windows() {
        let n = 1u64 << 32;
        let sch = SegmentSchedule::new(n, 4, 2.0);
        let mut prev_len = 0u32;
        for s in (1..=sch.k()).rev() {
            let (a, b) = sch.window(s);
            let len = b - a + 1;
            assert!(
                len >= prev_len,
                "segment {s} window shrank: {len} < {prev_len}"
            );
            prev_len = len;
        }
    }
}
