//! §7.8's Procedure Legal-Coloring (Algorithm 3 of the paper, from \[5\]).
//!
//! Iteratively refines the graph into sparser and sparser vertex-disjoint
//! subgraphs: while the arboricity budget `α` exceeds the parameter `p`,
//! every current subgraph is split by Procedure Arbdefective-Coloring
//! into `p` groups of arboricity ≤ `⌊(3+ε)α/p⌋` each; when `α ≤ p`, every
//! leaf subgraph is colored *legally* with the Arb-Color recipe
//! (Theorem 5.15 of \[4\]) using its own `A+1`-color palette copy — the
//! unique leaf index (the group-choice prefix) keeps the copies disjoint,
//! so the union is a proper coloring of `G` with `p^{levels}·O(p) =
//! O(a^{1+η})` colors for `p = 2^{O(1/η)}`.
//!
//! Our standing substitution applies here as well (DESIGN.md): the inner
//! defective coloring of each `G(H_i)` is replaced by the proper in-set
//! `(A+1)`-coloring, which makes the partial orientation total and only
//! improves the split guarantee.
//!
//! Unlike [`crate::one_plus_eta`] (which embeds a *budgeted* partition of
//! `r = O(log log n)` rounds per level and diverts the remainder), this
//! procedure runs every level's partition to completion — the classical
//! `O(log a · log n)`-worst-case discipline. It is both a faithful
//! rendering of Algorithm 3 and the natural worst-case baseline for the
//! §7.8 row.

use crate::inset::DeltaPlusOneSchedule;
use crate::itlog;
use crate::partition::{degree_cap, partition_step, EPSILON};
use crate::schedule_cell::{ScheduleCell, ScheduleKey};
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition, WireSize};

/// What a vertex is doing (published with its prefix).
/// Field conventions: `h` is the 1-based H-set index within the current
/// level, `c` a running color value, `local` a final in-set color, `g`
/// a chosen group, `rec` a final leaf color.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq)]
pub enum LcMode {
    /// Refinement level: partitioning the current subgraph.
    Part { h: Option<u32> },
    /// Refinement level: in-set coloring.
    InSet { h: u32, c: u64 },
    /// Refinement level: waiting for parents to pick groups.
    Wait { h: u32, local: u64 },
    /// Picked a group; descends at the next level boundary.
    Picked { h: u32, local: u64, g: u32 },
    /// Leaf: partitioning for the Arb-Color pass.
    LeafPart { h: Option<u32> },
    /// Leaf: in-set coloring.
    LeafInSet { h: u32, c: u64 },
    /// Leaf: recolor wait.
    LeafWait { h: u32, local: u64 },
    /// Terminal with the leaf color `rec`.
    Done { h: u32, local: u64, rec: u64 },
}

/// Published state: prefix of group choices plus the current mode.
#[derive(Clone, Debug, PartialEq)]
pub struct LcState {
    /// Group chosen at each completed refinement level.
    pub prefix: Vec<u32>,
    /// Current activity.
    pub mode: LcMode,
}

impl WireSize for LcMode {
    fn wire_bits(&self) -> u64 {
        // 3-bit tag for eight variants, then the payload.
        match self {
            LcMode::Part { h } | LcMode::LeafPart { h } => 3 + h.wire_bits(),
            LcMode::InSet { h, c } | LcMode::LeafInSet { h, c } => {
                3 + h.wire_bits() + c.wire_bits()
            }
            LcMode::Wait { h, local } | LcMode::LeafWait { h, local } => {
                3 + h.wire_bits() + local.wire_bits()
            }
            LcMode::Picked { h, local, g } => 3 + h.wire_bits() + local.wire_bits() + g.wire_bits(),
            LcMode::Done { h, local, rec } => {
                3 + h.wire_bits() + local.wire_bits() + rec.wire_bits()
            }
        }
    }
}

impl WireSize for LcState {
    fn wire_bits(&self) -> u64 {
        // The group-choice prefix travels with the mode (same-branch
        // filtering needs it), so its heap payload is charged too.
        self.prefix.wire_bits() + self.mode.wire_bits()
    }
}

/// Deterministic per-level timetable.
#[derive(Clone, Debug)]
struct LcSchedule {
    /// Arboricity budget and degree threshold per refinement level.
    levels: Vec<(usize, usize)>,
    /// Level start rounds (levels.len() + 1 entries; last = leaf start).
    starts: Vec<u32>,
    /// Full-partition bound `L(n, ε)`.
    full: u32,
    /// Leaf arboricity budget (≤ p) and threshold.
    leaf_cap: usize,
    /// In-set schedules per level and for the leaf pass.
    insets: Vec<DeltaPlusOneSchedule>,
    leaf_inset: DeltaPlusOneSchedule,
}

/// Procedure Legal-Coloring.
#[derive(Debug)]
pub struct LegalColoring {
    /// Known arboricity.
    pub arboricity: usize,
    /// The refinement parameter `p` (≥ 6 so the budget shrinks with ε=2).
    pub p: u32,
    sched: ScheduleCell<LcSchedule>,
}

impl LegalColoring {
    /// Standard instance.
    pub fn new(arboricity: usize, p: u32) -> Self {
        assert!(p >= 6, "p must exceed 3+ε = 5 for the budget to shrink");
        LegalColoring {
            arboricity,
            p,
            sched: ScheduleCell::new(),
        }
    }

    fn schedule(&self, n: u64, ids: &IdAssignment) -> &LcSchedule {
        let ids_space = ids.id_space().max(2);
        self.sched.get(ScheduleKey::ids(ids_space).n(n), || {
            let full = itlog::partition_round_bound(n, EPSILON);
            let mut levels = Vec::new();
            let mut insets = Vec::new();
            let mut starts = vec![1u32];
            let mut alpha = self.arboricity.max(1);
            while alpha > self.p as usize {
                let cap = degree_cap(alpha, EPSILON);
                let inset = DeltaPlusOneSchedule::new(ids_space, cap as u64);
                let dur = full + inset.rounds() + (cap as u32 + 1) * (full + 1) + 4;
                levels.push((alpha, cap));
                insets.push(inset);
                starts.push(starts.last().unwrap() + dur);
                // α ← ⌊(3+ε)·α/p⌋, clamped ≥ 1 (the paper's line 15 with
                // the defect term dropped by our 0-defect substitution).
                alpha = (((3.0 + EPSILON) * alpha as f64) / self.p as f64).floor() as usize;
                alpha = alpha.max(1);
            }
            let leaf_cap = degree_cap(alpha, EPSILON);
            let leaf_inset = DeltaPlusOneSchedule::new(ids_space, leaf_cap as u64);
            LcSchedule {
                levels,
                starts,
                full,
                leaf_cap,
                insets,
                leaf_inset,
            }
        })
    }

    /// Injective encoding of (prefix, leaf color).
    pub fn encode(&self, prefix: &[u32], rec: u64) -> u64 {
        let mut enc: u64 = 1;
        for &g in prefix {
            enc = enc * (self.p as u64 + 1) + (g as u64 + 1);
        }
        enc * (1 << 16) + rec
    }

    /// Loose palette bound for verification: distinct encodings possible.
    /// The prefix part of [`LegalColoring::encode`] is bounded by
    /// `(p+1)^(depth+1)` and the leaf color occupies the low 16 bits; the
    /// bound is deliberately loose — tests count used colors.
    pub fn palette_bound(&self, n: u64, ids: &IdAssignment) -> u64 {
        let depth = self.schedule(n, ids).levels.len() as u32;
        (self.p as u64 + 1).pow(depth + 1) * (1 << 16)
    }

    fn same_branch(my_prefix: &[u32], other: &LcState) -> bool {
        my_prefix == other.prefix.as_slice()
    }
}

impl Protocol for LegalColoring {
    type State = LcState;
    type Msg = LcState;
    type Output = u64;

    fn init(&self, g: &Graph, ids: &IdAssignment, _: VertexId) -> LcState {
        let s = self.schedule(g.n() as u64, ids);
        let mode = if s.levels.is_empty() {
            LcMode::LeafPart { h: None }
        } else {
            LcMode::Part { h: None }
        };
        LcState {
            prefix: Vec::new(),
            mode,
        }
    }

    fn publish(&self, state: &LcState) -> LcState {
        state.clone()
    }

    fn step(&self, ctx: StepCtx<'_, LcState>) -> Transition<LcState, u64> {
        let n = ctx.graph.n() as u64;
        let s = self.schedule(n, ctx.ids);
        let st = ctx.state.clone();
        let lev = st.prefix.len();
        let round = ctx.round;
        match st.mode {
            LcMode::Part { h: None } => {
                let cap = s.levels[lev].1;
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, o)| {
                        Self::same_branch(&st.prefix, o)
                            && matches!(o.mode, LcMode::Part { h: None })
                    })
                    .count();
                let mode = if partition_step(active, cap) {
                    LcMode::Part {
                        h: Some(round - s.starts[lev] + 1),
                    }
                } else {
                    LcMode::Part { h: None }
                };
                Transition::Continue(LcState {
                    prefix: st.prefix,
                    mode,
                })
            }
            LcMode::Part { h: Some(h) } => {
                let cstart = s.starts[lev] + s.full + 1;
                if round < cstart {
                    return Transition::Continue(st);
                }
                self.level_inset(&ctx, s, st.prefix, h, ctx.my_id(), round - cstart)
            }
            LcMode::InSet { h, c } => {
                let cstart = s.starts[lev] + s.full + 1;
                self.level_inset(&ctx, s, st.prefix, h, c, round - cstart)
            }
            LcMode::Wait { h, local } => {
                // Backward group-pick cascade over the whole level.
                let mut counts = vec![0u32; self.p as usize];
                for (_, o) in ctx.view.neighbors() {
                    if !Self::same_branch(&st.prefix, o) {
                        continue;
                    }
                    match &o.mode {
                        LcMode::Part { .. } | LcMode::InSet { .. } => {
                            return Transition::Continue(st)
                        }
                        LcMode::Wait { h: j, local: l2 }
                            if (*j > h || (*j == h && *l2 > local)) =>
                        {
                            return Transition::Continue(st);
                        }
                        LcMode::Picked { h: j, local: l2, g }
                            if (*j > h || (*j == h && *l2 > local)) =>
                        {
                            counts[*g as usize] += 1;
                        }
                        _ => {}
                    }
                }
                let g = counts
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, c)| *c)
                    .map(|(i, _)| i as u32)
                    .expect("p ≥ 1 groups");
                Transition::Continue(LcState {
                    prefix: st.prefix,
                    mode: LcMode::Picked { h, local, g },
                })
            }
            LcMode::Picked { h, local, g } => {
                if round < s.starts[lev + 1] {
                    return Transition::Continue(LcState {
                        prefix: st.prefix,
                        mode: LcMode::Picked { h, local, g },
                    });
                }
                let mut prefix = st.prefix;
                prefix.push(g);
                let mode = if prefix.len() < s.levels.len() {
                    LcMode::Part { h: None }
                } else {
                    LcMode::LeafPart { h: None }
                };
                Transition::Continue(LcState { prefix, mode })
            }
            LcMode::LeafPart { h: None } => {
                let leaf_start = *s.starts.last().unwrap();
                let active = ctx
                    .view
                    .neighbors()
                    .filter(|(_, o)| {
                        Self::same_branch(&st.prefix, o)
                            && matches!(o.mode, LcMode::LeafPart { h: None })
                    })
                    .count();
                let mode = if partition_step(active, s.leaf_cap) {
                    LcMode::LeafPart {
                        h: Some(round - leaf_start + 1),
                    }
                } else {
                    LcMode::LeafPart { h: None }
                };
                Transition::Continue(LcState {
                    prefix: st.prefix,
                    mode,
                })
            }
            LcMode::LeafPart { h: Some(h) } => {
                let cstart = s.starts.last().unwrap() + s.full + 1;
                if round < cstart {
                    return Transition::Continue(st);
                }
                self.leaf_inset(&ctx, s, st.prefix, h, ctx.my_id(), round - cstart)
            }
            LcMode::LeafInSet { h, c } => {
                let cstart = s.starts.last().unwrap() + s.full + 1;
                self.leaf_inset(&ctx, s, st.prefix, h, c, round - cstart)
            }
            LcMode::LeafWait { h, local } => {
                // Arb-Color recolor within the leaf.
                let mut used = vec![false; s.leaf_cap + 1];
                for (_, o) in ctx.view.neighbors() {
                    if !Self::same_branch(&st.prefix, o) {
                        continue;
                    }
                    match &o.mode {
                        LcMode::LeafPart { .. } | LcMode::LeafInSet { .. } => {
                            return Transition::Continue(st)
                        }
                        LcMode::LeafWait { h: j, local: l2 }
                            if (*j > h || (*j == h && *l2 > local)) =>
                        {
                            return Transition::Continue(st);
                        }
                        LcMode::Done {
                            h: j,
                            local: l2,
                            rec,
                        } if (*j > h || (*j == h && *l2 > local)) => {
                            used[*rec as usize] = true;
                        }
                        _ => {}
                    }
                }
                let rec = used
                    .iter()
                    .position(|&u| !u)
                    .expect("A+1 palette vs ≤ A parents") as u64;
                let value = self.encode(&st.prefix, rec);
                Transition::Terminate(
                    LcState {
                        prefix: st.prefix,
                        mode: LcMode::Done { h, local, rec },
                    },
                    value,
                )
            }
            LcMode::Done { .. } => unreachable!("terminal"),
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        let n = g.n() as u64;
        let ids = IdAssignment::identity(g.n().max(1));
        let s = self.schedule(n, &ids);
        let leaf_tail =
            s.full + s.leaf_inset.rounds() + (s.leaf_cap as u32 + 1) * (s.full + 1) + 32;
        s.starts.last().unwrap() + leaf_tail
    }
}

impl LegalColoring {
    fn level_inset(
        &self,
        ctx: &StepCtx<'_, LcState>,
        s: &LcSchedule,
        prefix: Vec<u32>,
        h: u32,
        cur: u64,
        i: u32,
    ) -> Transition<LcState, u64> {
        let lev = prefix.len();
        let inset = &s.insets[lev];
        let d = inset.rounds();
        if i >= d {
            return Transition::Continue(LcState {
                prefix,
                mode: LcMode::Wait {
                    h,
                    local: inset.finish(cur),
                },
            });
        }
        let next = inset.round(ctx, i, cur, |(u, o)| {
            if !Self::same_branch(&prefix, o) {
                return None;
            }
            match &o.mode {
                LcMode::InSet { h: j, c } if *j == h => Some(*c),
                LcMode::Part { h: Some(j) } if *j == h => Some(ctx.ids.id(u)),
                _ => None,
            }
        });
        let mode = if i + 1 == d {
            LcMode::Wait { h, local: next }
        } else {
            LcMode::InSet { h, c: next }
        };
        Transition::Continue(LcState { prefix, mode })
    }

    fn leaf_inset(
        &self,
        ctx: &StepCtx<'_, LcState>,
        s: &LcSchedule,
        prefix: Vec<u32>,
        h: u32,
        cur: u64,
        i: u32,
    ) -> Transition<LcState, u64> {
        let inset = &s.leaf_inset;
        let d = inset.rounds();
        if i >= d {
            return Transition::Continue(LcState {
                prefix,
                mode: LcMode::LeafWait {
                    h,
                    local: inset.finish(cur),
                },
            });
        }
        let next = inset.round(ctx, i, cur, |(u, o)| {
            if !Self::same_branch(&prefix, o) {
                return None;
            }
            match &o.mode {
                LcMode::LeafInSet { h: j, c } if *j == h => Some(*c),
                LcMode::LeafPart { h: Some(j) } if *j == h => Some(ctx.ids.id(u)),
                _ => None,
            }
        });
        let mode = if i + 1 == d {
            LcMode::LeafWait { h, local: next }
        } else {
            LcMode::LeafInSet { h, c: next }
        };
        Transition::Continue(LcState { prefix, mode })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize, p: u32) -> usize {
        let pr = LegalColoring::new(a, p);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&pr, g, &ids).run().unwrap();
        verify::assert_ok(verify::proper_vertex_coloring(g, &out.outputs, usize::MAX));
        out.metrics.check_identities().unwrap();
        verify::count_distinct(&out.outputs)
    }

    #[test]
    fn leaf_only_when_a_below_p() {
        run_and_verify(&gen::path(100), 1, 6);
        run_and_verify(&gen::grid(9, 10), 2, 6);
    }

    #[test]
    fn one_refinement_level() {
        let mut rng = ChaCha8Rng::seed_from_u64(500);
        let gg = gen::forest_union(500, 8, &mut rng);
        run_and_verify(&gg.graph, 8, 6);
    }

    #[test]
    fn two_refinement_levels() {
        let mut rng = ChaCha8Rng::seed_from_u64(501);
        let gg = gen::forest_union(600, 10, &mut rng);
        // α: 10 → ⌊50/6⌋ = 8 → ⌊40/6⌋ = 6 ≤ p: two levels.
        run_and_verify(&gg.graph, 10, 6);
    }

    #[test]
    fn larger_p_fewer_colors_per_exponent() {
        let mut rng = ChaCha8Rng::seed_from_u64(502);
        let gg = gen::forest_union(700, 12, &mut rng);
        let c6 = run_and_verify(&gg.graph, 12, 6);
        let c12 = run_and_verify(&gg.graph, 12, 12);
        // p = 12 skips refinement entirely (α = 12 ≤ p): pure Arb-Color,
        // minimal colors. p = 6 refines once and pays palette copies.
        assert!(c12 <= c6, "p=12 used {c12} vs p=6 used {c6}");
    }

    #[test]
    fn matches_one_plus_eta_color_scale() {
        // Same input: Legal-Coloring (classical) and One-Plus-Eta
        // (vertex-averaged) both land in the O(a^{1+η}) color regime.
        let mut rng = ChaCha8Rng::seed_from_u64(503);
        let gg = gen::forest_union(800, 8, &mut rng);
        let legal = run_and_verify(&gg.graph, 8, 6);
        let ids = IdAssignment::identity(800);
        let ope = crate::one_plus_eta::OnePlusEtaArbCol::new(8, 4);
        let out = simlocal::Runner::new(&ope, &gg.graph, &ids).run().unwrap();
        let ope_colors = verify::count_distinct(&out.outputs);
        assert!(
            legal < 400 && ope_colors < 400,
            "legal={legal} ope={ope_colors}"
        );
    }
}
