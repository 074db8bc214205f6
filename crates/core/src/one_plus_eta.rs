//! §7.8 — Procedure One-Plus-Eta-Arb-Col: `O(a^{1+η})`-vertex-coloring
//! with vertex-averaged complexity polylogarithmic-in-`n` (Theorem 7.21).
//!
//! The recursion: at level `ℓ` (arboricity budget `a_ℓ = ⌊a/C^{ℓ-1}⌋`),
//! each current subgraph runs `r = ⌈2 log log n⌉` rounds of Procedure
//! Partition. The vertices that joined one of the `r` H-sets form `H`;
//! Procedure H-Arbdefective-Coloring splits them into `q = 5C` groups of
//! arboricity ≤ `a_{ℓ+1}` each (every vertex waits for its parents under
//! the partial orientation and takes the group least used among them),
//! and each group recurses as its own subgraph. The `O(n / log² n)`
//! residual vertices run Procedure Arb-Color on their residual subgraph.
//! When the budget drops below `C`, the leaf subgraphs are colored with
//! the two-phase `O(a²)` algorithm of §7.3.
//!
//! A subgraph is identified by its **prefix string** (the group chosen at
//! each level); two neighbors interact at level `ℓ` iff their prefixes
//! agree — the distributed realization of the paper's color-string
//! argument. The final color injectively encodes (prefix, branch kind,
//! leaf color), so edges between different branches are properly colored
//! by construction and only leaf-internal edges need the leaf algorithms'
//! guarantees.
//!
//! Substitutions (DESIGN.md): the `⌊a/t⌋`-defective `O(t²)`-coloring
//! inside Procedure Partial-Orientation is replaced by a *proper* in-set
//! `(A_ℓ+1)`-coloring (a 0-defective coloring — strictly stronger, total
//! orientation, same arbdefective guarantee); Procedure
//! One-Plus-Eta-Legal-Coloring on the residual is replaced by Procedure
//! Arb-Color (fewer colors, `O(a log n)` worst case on `O(n / log² n)`
//! vertices — a vanishing vertex-averaged contribution).

use crate::inset::{DeltaPlusOneSchedule, LinialSchedule};
use crate::itlog;
use crate::partition::{degree_cap, partition_step};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// What a vertex is currently doing (published alongside its prefix).
#[derive(Clone, Debug, PartialEq)]
/// Field conventions: `h` is the 1-based H-set index, `c` a current
/// Linial/KW color value, `local` a final in-set color, `rec` a
/// recolored palette entry.
#[allow(missing_docs)] // field meanings are shared across the state machines (see the note above)
pub enum Mode {
    /// Level partition, not yet joined (`h = None`) or joined set `h`.
    LevelPart { h: Option<u32> },
    /// Level in-set coloring with current value `c`.
    LevelInSet { h: u32, c: u64 },
    /// Waiting for parents to pick groups; `local` is the final in-set
    /// color.
    LevelWait { h: u32, local: u64 },
    /// Picked group `g`; descends when the next level starts.
    LevelPicked { h: u32, local: u64, g: u32 },
    /// Residual branch (level = `prefix.len() + 1`): partitioning.
    ResPart { h: Option<u32> },
    /// Residual in-set coloring.
    ResInSet { h: u32, c: u64 },
    /// Residual recolor wait.
    ResWait { h: u32, local: u64 },
    /// Base (§7.3) branch: partitioning.
    BasePart { h: Option<u32> },
    /// Base iterated-Linial coloring.
    BaseColor { h: u32, c: u64 },
    /// Terminal: kind 0 = base, 1 = residual; `rec` is the leaf color.
    Done {
        h: u32,
        local: u64,
        rec: u64,
        kind: u8,
    },
}

/// Published per-vertex state.
#[derive(Clone, Debug, PartialEq)]
pub struct OpeState {
    /// Groups picked at completed levels (the color-string prefix).
    pub prefix: Vec<u32>,
    /// Current activity.
    pub mode: Mode,
}

/// Per-level schedule entry.
#[derive(Clone, Copy, Debug)]
#[allow(dead_code)]
struct LevelInfo {
    /// Arboricity budget at this level.
    a: usize,
    /// Degree threshold `A_ℓ = ⌊(2+ε) a_ℓ⌋`.
    cap: usize,
    /// First round of the level.
    start: u32,
    /// In-set coloring rounds.
    d: u32,
    /// Wait/pick window length.
    w: u32,
}

/// The full deterministic timetable.
#[derive(Clone, Debug)]
struct OpeSchedule {
    /// Partition rounds per level, `r = ⌈2 log log n⌉`.
    r: u32,
    levels: Vec<LevelInfo>,
    /// First round of the base phase.
    base_start: u32,
    /// Base arboricity budget (< C) and threshold.
    base_cap: usize,
    /// Base phase-1 set count `t_b`.
    base_t: u32,
    /// Full-partition bound `L(n, ε)`.
    full: u32,
    /// Linial schedule for the base leaves.
    base_linial: LinialSchedule,
    /// In-set schedules per level (same index as `levels`) and for the
    /// residual branches.
    level_inset: Vec<DeltaPlusOneSchedule>,
}

/// The §7.8 protocol.
#[derive(Debug)]
pub struct OnePlusEtaArbCol {
    /// Known arboricity.
    pub arboricity: usize,
    /// The constant `C` of the recursion (`η = Θ(1/log C)`), ≥ 2.
    pub c_const: usize,
    /// ε ∈ (0, 2].
    pub epsilon: f64,
    sched: ScheduleCell<OpeSchedule>,
}

impl OnePlusEtaArbCol {
    /// Instance with ε = 2 and the given `C`.
    pub fn new(arboricity: usize, c_const: usize) -> Self {
        assert!(c_const >= 2, "C must be at least 2");
        OnePlusEtaArbCol {
            arboricity,
            c_const,
            epsilon: 2.0,
            sched: ScheduleCell::new(),
        }
    }

    /// Number of groups per recursive level, `q = 5C` (the paper's
    /// `k = t = (3+ε)C` with ε = 2).
    pub fn q(&self) -> u32 {
        5 * self.c_const as u32
    }

    fn schedule(&self, n: u64, ids: &IdAssignment) -> &OpeSchedule {
        let ids_space = ids.id_space().max(2);
        self.sched.get(ScheduleKey::ids(ids_space).n(n), || {
            let r = (2 * itlog::iterated_log(n.max(4), 2) as u32).max(2);
            let mut levels = Vec::new();
            let mut level_inset = Vec::new();
            let mut a = self.arboricity.max(1);
            let mut start = 1u32;
            while a >= self.c_const {
                let cap = degree_cap(a, self.epsilon);
                let inset = DeltaPlusOneSchedule::new(ids_space, cap as u64);
                let d = inset.rounds();
                let w = (cap as u32 + 2) * r + 2;
                levels.push(LevelInfo {
                    a,
                    cap,
                    start,
                    d,
                    w,
                });
                level_inset.push(inset);
                start += r + d + w;
                a /= self.c_const;
            }
            let base_cap = degree_cap(a.max(1), self.epsilon);
            OpeSchedule {
                r,
                levels,
                base_start: start,
                base_cap,
                base_t: (itlog::iterated_log(n.max(4), 2) as u32).max(1),
                full: itlog::partition_round_bound(n, self.epsilon),
                base_linial: LinialSchedule::new(ids_space, base_cap as u64),
                level_inset,
            }
        })
    }

    /// Injective encoding of (prefix, kind, leaf color) into one `u64`.
    pub fn encode(&self, prefix: &[u32], kind: u8, rec: u64) -> u64 {
        let q = self.q() as u64;
        let mut enc: u64 = 1;
        for &g in prefix {
            enc = enc * (q + 2) + (g as u64 + 1);
        }
        enc = enc * 2 + kind as u64;
        // Leaf colors are bounded by max(2·base fixpoint, caps + 1); use a
        // fixed generous modulus so decoding is well-defined.
        enc * (1 << 20) + rec
    }

    /// Loose palette bound for verification: distinct encodings possible.
    pub fn palette_bound(&self, n: u64, ids: &IdAssignment) -> u64 {
        let s = self.schedule(n, ids);
        let q = self.q() as u64;
        let depth = s.levels.len() as u32;
        // Branch count ≤ Σ_{ℓ≤depth} q^ℓ · 2 and leaf colors < 2^20;
        // the bound is deliberately loose — tests count used colors.
        (q + 2).pow(depth + 1) * 2 * (1 << 20)
    }
}

/// Branch comparison: are two vertices currently in the same subgraph for
/// the purposes of `my` (prefix equality plus compatible mode family)?
fn same_level_branch(my_prefix: &[u32], other: &OpeState) -> bool {
    my_prefix == other.prefix.as_slice()
        && matches!(
            other.mode,
            Mode::LevelPart { .. }
                | Mode::LevelInSet { .. }
                | Mode::LevelWait { .. }
                | Mode::LevelPicked { .. }
        )
}

fn same_res_branch(my_prefix: &[u32], other: &OpeState) -> bool {
    my_prefix == other.prefix.as_slice()
        && matches!(
            other.mode,
            Mode::ResPart { .. }
                | Mode::ResInSet { .. }
                | Mode::ResWait { .. }
                | Mode::Done { kind: 1, .. }
        )
}

fn same_base_branch(my_prefix: &[u32], other: &OpeState) -> bool {
    my_prefix == other.prefix.as_slice()
        && matches!(
            other.mode,
            Mode::BasePart { .. } | Mode::BaseColor { .. } | Mode::Done { kind: 0, .. }
        )
}

impl WireSize for Mode {
    fn wire_bits(&self) -> u64 {
        // 4-bit tag for ten variants, then the payload.
        4 + match self {
            Mode::LevelPart { h } | Mode::ResPart { h } | Mode::BasePart { h } => h.wire_bits(),
            Mode::LevelInSet { h, c } | Mode::ResInSet { h, c } | Mode::BaseColor { h, c } => {
                h.wire_bits() + c.wire_bits()
            }
            Mode::LevelWait { h, local } | Mode::ResWait { h, local } => {
                h.wire_bits() + local.wire_bits()
            }
            Mode::LevelPicked { h, local, g } => h.wire_bits() + local.wire_bits() + g.wire_bits(),
            Mode::Done {
                h,
                local,
                rec,
                kind,
            } => h.wire_bits() + local.wire_bits() + rec.wire_bits() + kind.wire_bits(),
        }
    }
}

impl WireSize for OpeState {
    fn wire_bits(&self) -> u64 {
        self.prefix.wire_bits() + self.mode.wire_bits()
    }
}

impl Protocol for OnePlusEtaArbCol {
    type State = OpeState;
    // Every field is neighbor-read: the branch predicates compare full
    // prefixes, and each mode payload schedules some peer. Nothing to trim.
    type Msg = OpeState;
    type Output = u64;

    fn init(&self, g: &Graph, ids: &IdAssignment, _: VertexId) -> OpeState {
        let s = self.schedule(g.n() as u64, ids);
        let mode = if s.levels.is_empty() {
            Mode::BasePart { h: None }
        } else {
            Mode::LevelPart { h: None }
        };
        OpeState {
            prefix: Vec::new(),
            mode,
        }
    }

    fn publish(&self, state: &OpeState) -> OpeState {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, OpeState>) -> Transition<OpeState, u64> {
        let n = ctx.graph.n() as u64;
        let s = self.schedule(n, ctx.ids);
        let st = ctx.state.clone();
        match st.mode {
            Mode::LevelPart { .. }
            | Mode::LevelInSet { .. }
            | Mode::LevelWait { .. }
            | Mode::LevelPicked { .. } => self.level_step(&ctx, s, st),
            Mode::ResPart { .. } | Mode::ResInSet { .. } | Mode::ResWait { .. } => {
                self.residual_step(&ctx, s, st)
            }
            Mode::BasePart { .. } | Mode::BaseColor { .. } => self.base_step(&ctx, s, st),
            Mode::Done { .. } => unreachable!("terminal"),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let ids = IdAssignment::identity(g.n().max(1));
        let s = self.schedule(n, &ids);
        // Residual branches end by their start + L + d + cascade; the base
        // ends by base_start + L + linial; take a generous union bound.
        let tail = s.full
            + DeltaPlusOneSchedule::new(n.max(2), degree_cap(self.arboricity, 2.0) as u64).rounds()
            + (degree_cap(self.arboricity, 2.0) as u32 + 2) * (s.full + 2)
            + s.base_linial.rounds();
        s.base_start + tail + 64
    }
}

impl OnePlusEtaArbCol {
    /// Steps a vertex inside recursive level `ℓ = prefix.len() + 1`.
    fn level_step(
        &self,
        ctx: &StepCtx<'_, OpeState>,
        s: &OpeSchedule,
        st: OpeState,
    ) -> Transition<OpeState, u64> {
        let lev = st.prefix.len();
        let info = s.levels[lev];
        let prefix = &st.prefix;
        let round = ctx.round;
        match st.mode {
            Mode::LevelPart { h: None } => {
                // Partition window: [start, start + r).
                if round >= info.start + s.r {
                    // Did not join: branch to the residual.
                    return Transition::Continue(OpeState {
                        prefix: st.prefix.clone(),
                        mode: Mode::ResPart { h: None },
                    });
                }
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, o)| {
                        same_level_branch(prefix, o)
                            && matches!(o.mode, Mode::LevelPart { h: None })
                    })
                    .count();
                let mode = if partition_step(active, info.cap) {
                    Mode::LevelPart {
                        h: Some(round - info.start + 1),
                    }
                } else {
                    Mode::LevelPart { h: None }
                };
                Transition::Continue(OpeState {
                    prefix: st.prefix.clone(),
                    mode,
                })
            }
            Mode::LevelPart { h: Some(h) } => {
                // Wait for the in-set coloring window, then run it.
                let cstart = info.start + s.r;
                if round < cstart {
                    return Transition::Continue(st);
                }
                self.level_inset_step(ctx, s, st.prefix.clone(), h, ctx.my_id(), round - cstart)
            }
            Mode::LevelInSet { h, c } => {
                let cstart = info.start + s.r;
                self.level_inset_step(ctx, s, st.prefix.clone(), h, c, round - cstart)
            }
            Mode::LevelWait { h, local } => {
                // Arbdefective pick: wait for all parents within the
                // level's H-union to pick their groups.
                let q = self.q();
                let mut counts = vec![0u32; q as usize];
                for (_, o) in ctx.view.neighbors() {
                    if !same_level_branch(prefix, o) {
                        continue;
                    }
                    match o.mode {
                        Mode::LevelPart { h: None } => {}
                        Mode::LevelPart { h: Some(j) } | Mode::LevelInSet { h: j, .. }
                            // Still coloring: every joined peer is a
                            // potential parent — wait.
                            if j >= h => {
                                return Transition::Continue(st);
                            }
                        Mode::LevelWait { h: j, local: l2 }
                            if (j > h || (j == h && l2 > local)) => {
                                return Transition::Continue(st);
                            }
                        Mode::LevelPicked { h: j, local: l2, g }
                            if (j > h || (j == h && l2 > local)) => {
                                counts[g as usize] += 1;
                            }
                        _ => {}
                    }
                }
                let g = counts
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, c)| *c)
                    .map(|(i, _)| i as u32)
                    .expect("q ≥ 1 groups");
                Transition::Continue(OpeState {
                    prefix: st.prefix.clone(),
                    mode: Mode::LevelPicked { h, local, g },
                })
            }
            Mode::LevelPicked { h, local, g } => {
                // Descend when the next phase (level ℓ+1 or base) starts.
                let next_start = s
                    .levels
                    .get(lev + 1)
                    .map(|l| l.start)
                    .unwrap_or(s.base_start);
                if round < next_start {
                    return Transition::Continue(OpeState {
                        prefix: st.prefix.clone(),
                        mode: Mode::LevelPicked { h, local, g },
                    });
                }
                let mut prefix = st.prefix.clone();
                prefix.push(g);
                let mode = if lev + 1 < s.levels.len() {
                    Mode::LevelPart { h: None }
                } else {
                    Mode::BasePart { h: None }
                };
                Transition::Continue(OpeState { prefix, mode })
            }
            _ => unreachable!(),
        }
    }

    fn level_inset_step(
        &self,
        ctx: &StepCtx<'_, OpeState>,
        s: &OpeSchedule,
        prefix: Vec<u32>,
        h: u32,
        cur: u64,
        i: u32,
    ) -> Transition<OpeState, u64> {
        let lev = prefix.len();
        let inset = &s.level_inset[lev];
        let d = inset.rounds();
        if i >= d {
            return Transition::Continue(OpeState {
                prefix,
                mode: Mode::LevelWait {
                    h,
                    local: inset.finish(cur),
                },
            });
        }
        let peers: Vec<u64> = ctx
            .view
            .neighbors()
            .filter_map(|(u, o)| {
                if !same_level_branch(&prefix, o) {
                    return None;
                }
                match o.mode {
                    Mode::LevelInSet { h: j, c } if j == h => Some(c),
                    Mode::LevelPart { h: Some(j) } if j == h => Some(ctx.ids.id(u)),
                    _ => None,
                }
            })
            .collect();
        let next = inset.step(i, cur, &peers);
        let mode = if i + 1 == d {
            Mode::LevelWait {
                h,
                local: inset.finish(next),
            }
        } else {
            Mode::LevelInSet { h, c: next }
        };
        Transition::Continue(OpeState { prefix, mode })
    }

    /// Residual (Arb-Color) branch at level `prefix.len() + 1`.
    fn residual_step(
        &self,
        ctx: &StepCtx<'_, OpeState>,
        s: &OpeSchedule,
        st: OpeState,
    ) -> Transition<OpeState, u64> {
        let lev = st.prefix.len();
        let info = s.levels[lev];
        let rs = info.start + s.r; // residual branch start
        let prefix = &st.prefix;
        let round = ctx.round;
        match st.mode {
            Mode::ResPart { h: None } => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, o)| {
                        same_res_branch(prefix, o) && matches!(o.mode, Mode::ResPart { h: None })
                    })
                    .count();
                let mode = if partition_step(active, info.cap) {
                    Mode::ResPart {
                        h: Some(round - rs + 1),
                    }
                } else {
                    Mode::ResPart { h: None }
                };
                Transition::Continue(OpeState {
                    prefix: st.prefix.clone(),
                    mode,
                })
            }
            Mode::ResPart { h: Some(h) } => {
                // In-set coloring window opens after the full partition
                // bound (everyone has a set by then).
                let cstart = rs + s.full + 1;
                if round < cstart {
                    return Transition::Continue(st);
                }
                self.res_inset_step(ctx, s, st.prefix.clone(), h, ctx.my_id(), round - cstart)
            }
            Mode::ResInSet { h, c } => {
                let cstart = rs + s.full + 1;
                self.res_inset_step(ctx, s, st.prefix.clone(), h, c, round - cstart)
            }
            Mode::ResWait { h, local } => {
                // Recolor: wait for parents (same-set higher local color
                // or later set) in the residual branch, then take the
                // smallest free color of {0..cap}.
                let mut used = vec![false; info.cap + 1];
                for (_, o) in ctx.view.neighbors() {
                    if !same_res_branch(prefix, o) {
                        continue;
                    }
                    match o.mode {
                        Mode::ResPart { .. } | Mode::ResInSet { .. } => {
                            return Transition::Continue(st)
                        }
                        Mode::ResWait { h: j, local: l2 } if (j > h || (j == h && l2 > local)) => {
                            return Transition::Continue(st);
                        }
                        Mode::Done {
                            h: j,
                            local: l2,
                            rec,
                            kind: 1,
                        } if (j > h || (j == h && l2 > local)) => {
                            used[rec as usize] = true;
                        }
                        _ => {}
                    }
                }
                let rec = used
                    .iter()
                    .position(|&u| !u)
                    .expect("cap+1 palette vs ≤ cap parents") as u64;
                let value = self.encode(prefix, 1, rec);
                Transition::Terminate(
                    OpeState {
                        prefix: st.prefix.clone(),
                        mode: Mode::Done {
                            h,
                            local,
                            rec,
                            kind: 1,
                        },
                    },
                    value,
                )
            }
            _ => unreachable!(),
        }
    }

    fn res_inset_step(
        &self,
        ctx: &StepCtx<'_, OpeState>,
        s: &OpeSchedule,
        prefix: Vec<u32>,
        h: u32,
        cur: u64,
        i: u32,
    ) -> Transition<OpeState, u64> {
        let lev = prefix.len();
        let inset = &s.level_inset[lev];
        let d = inset.rounds();
        if i >= d {
            return Transition::Continue(OpeState {
                prefix,
                mode: Mode::ResWait {
                    h,
                    local: inset.finish(cur),
                },
            });
        }
        let peers: Vec<u64> = ctx
            .view
            .neighbors()
            .filter_map(|(u, o)| {
                if !same_res_branch(&prefix, o) {
                    return None;
                }
                match o.mode {
                    Mode::ResInSet { h: j, c } if j == h => Some(c),
                    Mode::ResPart { h: Some(j) } if j == h => Some(ctx.ids.id(u)),
                    _ => None,
                }
            })
            .collect();
        let next = inset.step(i, cur, &peers);
        let mode = if i + 1 == d {
            Mode::ResWait {
                h,
                local: inset.finish(next),
            }
        } else {
            Mode::ResInSet { h, c: next }
        };
        Transition::Continue(OpeState { prefix, mode })
    }

    /// Base (§7.3 two-phase) branch within a leaf subgraph.
    fn base_step(
        &self,
        ctx: &StepCtx<'_, OpeState>,
        s: &OpeSchedule,
        st: OpeState,
    ) -> Transition<OpeState, u64> {
        let prefix = &st.prefix;
        let round = ctx.round;
        let bs = s.base_start;
        match st.mode {
            Mode::BasePart { h: None } => {
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, o)| {
                        same_base_branch(prefix, o) && matches!(o.mode, Mode::BasePart { h: None })
                    })
                    .count();
                let mode = if partition_step(active, s.base_cap) {
                    Mode::BasePart {
                        h: Some(round - bs + 1),
                    }
                } else {
                    Mode::BasePart { h: None }
                };
                Transition::Continue(OpeState {
                    prefix: st.prefix.clone(),
                    mode,
                })
            }
            Mode::BasePart { h: Some(h) } => {
                let start = self.base_window_start(s, h);
                if round < start {
                    return Transition::Continue(st);
                }
                self.base_color_step(ctx, s, st.prefix.clone(), h, ctx.my_id(), round - start)
            }
            Mode::BaseColor { h, c } => {
                let start = self.base_window_start(s, h);
                self.base_color_step(ctx, s, st.prefix.clone(), h, c, round - start)
            }
            _ => unreachable!(),
        }
    }

    /// Start round of the base-phase Linial window for base set `h`.
    fn base_window_start(&self, s: &OpeSchedule, h: u32) -> u32 {
        if h <= s.base_t {
            s.base_start + s.base_t + 1
        } else {
            s.base_start + s.full.max(s.base_t) + 1
        }
    }

    fn base_color_step(
        &self,
        ctx: &StepCtx<'_, OpeState>,
        s: &OpeSchedule,
        prefix: Vec<u32>,
        h: u32,
        cur: u64,
        i: u32,
    ) -> Transition<OpeState, u64> {
        let sched = &s.base_linial;
        let phase_bit = u64::from(h > s.base_t);
        if i >= sched.rounds() {
            let rec = 2 * cur + phase_bit;
            let value = self.encode(&prefix, 0, rec);
            return Transition::Terminate(
                OpeState {
                    prefix,
                    mode: Mode::Done {
                        h,
                        local: cur,
                        rec,
                        kind: 0,
                    },
                },
                value,
            );
        }
        let my_id = ctx.my_id();
        let in_my_phase = |j: u32| (j <= s.base_t) == (h <= s.base_t);
        let parents: Vec<u64> = ctx
            .view
            .neighbors()
            .filter_map(|(u, o)| {
                if !same_base_branch(&prefix, o) {
                    return None;
                }
                let (j, col) = match o.mode {
                    Mode::BasePart { h: Some(j) } => (j, ctx.ids.id(u)),
                    Mode::BaseColor { h: j, c } => (j, c),
                    _ => return None,
                };
                (in_my_phase(j) && (j > h || (j == h && ctx.ids.id(u) > my_id))).then_some(col)
            })
            .collect();
        let next = sched.step(i, cur, &parents);
        if i + 1 == sched.rounds() {
            let rec = 2 * next + phase_bit;
            let value = self.encode(&prefix, 0, rec);
            Transition::Terminate(
                OpeState {
                    prefix,
                    mode: Mode::Done {
                        h,
                        local: next,
                        rec,
                        kind: 0,
                    },
                },
                value,
            )
        } else {
            Transition::Continue(OpeState {
                prefix,
                mode: Mode::BaseColor { h, c: next },
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

    fn run_and_verify(g: &Graph, a: usize, c: usize) -> (f64, u32, usize) {
        let p = OnePlusEtaArbCol::new(a, c);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(g, &out.outputs, usize::MAX));
        out.metrics.check_identities().unwrap();
        (
            out.metrics.vertex_averaged(),
            out.metrics.worst_case(),
            verify::count_distinct(&out.outputs),
        )
    }

    #[test]
    fn base_only_when_a_below_c() {
        // a < C: pure base (§7.3) path.
        run_and_verify(&gen::path(120), 1, 4);
        run_and_verify(&gen::grid(10, 11), 2, 4);
    }

    #[test]
    fn one_recursive_level() {
        let mut rng = ChaCha8Rng::seed_from_u64(160);
        let gg = gen::forest_union(600, 4, &mut rng);
        run_and_verify(&gg.graph, 4, 4);
    }

    #[test]
    fn two_recursive_levels() {
        let mut rng = ChaCha8Rng::seed_from_u64(161);
        let gg = gen::forest_union(800, 16, &mut rng);
        run_and_verify(&gg.graph, 16, 4);
    }

    #[test]
    fn proper_across_c_values() {
        let mut rng = ChaCha8Rng::seed_from_u64(162);
        let gg = gen::forest_union(700, 8, &mut rng);
        for c in [2usize, 4, 8] {
            run_and_verify(&gg.graph, 8, c);
        }
    }

    #[test]
    fn color_count_reasonable() {
        // Colors should scale with a^(1+η)·poly(C), far below n.
        let mut rng = ChaCha8Rng::seed_from_u64(163);
        let gg = gen::forest_union(4000, 8, &mut rng);
        let (_, _, used) = run_and_verify(&gg.graph, 8, 4);
        assert!(used < 1200, "used {used} colors for a=8 on n=4000");
    }

    #[test]
    fn va_grows_like_loglog_not_log() {
        // The §7.8 separation is in the growth rate over n: the recursive
        // descent costs O(log a · log log n) per vertex (every vertex pays
        // the level windows), while the classical [5]-style execution pays
        // O(log a · log n). Between n = 1k and n = 64k, log n doubles+
        // while log log n moves by ~1 — VA growth must stay small.
        let mut rng = ChaCha8Rng::seed_from_u64(164);
        let g1 = gen::forest_union(1024, 8, &mut rng);
        let g2 = gen::forest_union(32768, 8, &mut rng);
        let (va1, wc1, _) = run_and_verify(&g1.graph, 8, 4);
        let (va2, wc2, _) = run_and_verify(&g2.graph, 8, 4);
        assert!(va1 <= wc1 as f64 && va2 <= wc2 as f64);
        assert!(va2 <= va1 * 1.4 + 8.0, "VA grew too fast: {va1} -> {va2}");
    }

    #[test]
    fn encoding_is_injective_on_samples() {
        let p = OnePlusEtaArbCol::new(16, 4);
        let mut seen = std::collections::HashSet::new();
        for prefix in [vec![], vec![0], vec![1], vec![0, 0], vec![0, 19]] {
            for kind in [0u8, 1] {
                for rec in [0u64, 1, 77] {
                    assert!(
                        seen.insert(p.encode(&prefix, kind, rec)),
                        "collision at {prefix:?} {kind} {rec}"
                    );
                }
            }
        }
    }
}
