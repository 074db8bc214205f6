//! Incremental re-solve: warm-starting a run from a prior outcome after
//! a batch of edge edits.
//!
//! # What a step reads
//!
//! The step of vertex `v` in round `t` reads only `v`'s state, the
//! messages and activity bits that `v`'s neighbors show entering round
//! `t`, the round, the run seed, the IDs, and `v`'s own incident edges;
//! `init` reads only `v`'s incident edges and the IDs. Protocols declare
//! this with [`Protocol::is_local`]; for any other protocol a warm run
//! ([`Runner::run_warm`](crate::Runner::run_warm)) falls back to a full
//! cold re-solve, which is always correct.
//!
//! # The propagation rule
//!
//! Editing edge `{a, b}` changes only the incident edges of `a` and `b`,
//! so most vertices see exactly what they saw in the prior run. The warm
//! engine compares the run on the edited graph with the prior run's
//! [`Replay`] log and re-steps only the **dirty** vertices, those whose
//! inputs differ from the logged ones:
//!
//! * Edit endpoints are dirty from round 1. If an endpoint's
//!   `publish(init)` differs from its logged first entry, its neighbors
//!   are dirty from round 1 too.
//! * Each dirty vertex is compared with the log at every round it steps,
//!   including the round it terminates in. If the message or the
//!   activity it shows entering round `t + 1` differs from the log,
//!   every clean neighbor that the log still shows active in round
//!   `t + 1` turns dirty from round `t + 1`.
//! * Every other vertex stays **clean**: it keeps its logged messages,
//!   termination round and output, and is never stepped.
//!
//! The rule is exact, by induction over rounds. Suppose that entering
//! round `t` every dirty vertex holds the state a cold run on the edited
//! graph would give it, and every vertex shows its neighbors what that
//! cold run would. A clean vertex `u` still active in round `t` is no
//! edit endpoint, and none of its neighbors showed it anything new in
//! rounds `1..=t` — that would have dirtied it — so every step it took
//! read its logged inputs, and it shows its logged message and activity
//! entering round `t + 1` exactly as the cold run does. A dirty vertex
//! steps against the live slots of its dirty neighbors and the logged
//! slots of its clean ones, which by the hypothesis are the cold run's,
//! so it reaches the cold run's next state. A dirty vertex that has
//! terminated shows its final message from then on, and the log shows a
//! constant message too once its own vertex has terminated: any later
//! difference therefore already shows in the round after the dirty
//! vertex terminated, which its last comparison covered. So warm outputs
//! and the chained replay are **byte-identical** to a cold full
//! re-solve, and the stepped set is exactly the set of vertices whose
//! inputs differ — the two properties the proptests in this module pin.
//!
//! # Catch-up
//!
//! The log holds messages, not states, so a vertex that turns dirty at
//! round `t > 1` has no state to resume from. It rebuilds it by
//! re-stepping rounds `1..t` from `init` against the logged messages and
//! activity of its neighbors: its inputs in those rounds are the logged
//! ones (otherwise it would have turned dirty sooner), so it republishes
//! its logged messages — debug builds assert it — and needs no state log
//! and no protocol hook. It then steps with the other dirty vertices
//! until it terminates. The catch-up reads a view slab of its own,
//! because the live slots of dirty neighbors already hold round-`t`
//! messages.
//!
//! # Cost accounting and the chained replay
//!
//! The warm outcome's metrics are the **update cost**: clean vertices
//! report termination round 0 and each dirty vertex its full termination
//! round, catch-up included, so `EngineStats::steps` counts every step
//! taken and `RoundMetrics::vertex_averaged` is the vertex-averaged
//! update cost of the batch.
//!
//! The chained [`Replay`] costs the frontier too. Its histories sit in
//! copy-on-write chunks of 64 vertices: a warm run clones the chunk list
//! (one reference count per chunk) and copies only the chunks that hold
//! a dirty vertex before it writes that vertex's new history.

use crate::active::{clear_bit, ActiveSet};
use crate::engine::{EngineError, EngineStats, RunConfig, SimOutcome};
use crate::kernel::{Kernel, Slots};
use crate::obs::{Metric, Registry};
use crate::observer::NoObserver;
use crate::protocol::Protocol;
use graphcore::{Graph, IdAssignment, VertexId};
use std::sync::Arc;
use std::time::Instant;

/// Vertices per copy-on-write history chunk of a [`Replay`].
const CHUNK: usize = 64;

/// The message log of a completed run: everything a later warm start
/// needs to replay the run's visible behavior without re-stepping it.
///
/// Vertex `v`'s history holds at index `t` the message `v` had published
/// entering round `t + 1` (index 0 is its initial publish). A vertex
/// stops publishing when it terminates, so its history has `term[v] + 1`
/// entries and the last one is its terminal broadcast. Histories are
/// frozen once written and stored in copy-on-write chunks of `CHUNK`
/// vertices, so a warm run's log shares every chunk without a dirty
/// vertex with the prior log.
#[derive(Clone, Debug)]
pub struct Replay<M> {
    history: Vec<Arc<[Arc<[M]>]>>,
    term: Vec<u32>,
}

impl<M: Clone> Replay<M> {
    /// Number of vertices the log covers.
    pub fn n(&self) -> usize {
        self.term.len()
    }

    /// Cold-equivalent termination round of each vertex — for a warm
    /// run's replay this is the round a fresh cold run would report,
    /// not the (zeroed-for-clean) update-cost metric.
    pub fn term(&self) -> &[u32] {
        &self.term
    }

    /// The history of vertex `v`.
    fn history(&self, v: usize) -> &[M] {
        &self.history[v / CHUNK][v % CHUNK]
    }

    /// The message of `v` visible to its neighbors entering `round`
    /// (1-based); after `v` terminates this stays its final broadcast.
    fn msg_entering(&self, v: usize, round: u32) -> &M {
        let h = self.history(v);
        &h[(round as usize - 1).min(h.len() - 1)]
    }

    /// Whether `v` is still active in `round` (has not terminated before
    /// it).
    fn active_in(&self, v: usize, round: u32) -> bool {
        self.term[v] >= round
    }
}

/// Everything a warm start needs from the previous solve: the replay
/// log and outputs it produced, the graph it ran on, and the vertices
/// incident to the edits that turned that graph into the current one
/// (see [`graphcore::churn::EditBatch::endpoints`]).
pub struct WarmStart<'a, M, O> {
    /// Replay log of the prior run (cold or itself warm).
    pub replay: &'a Replay<M>,
    /// Per-vertex outputs of the prior run.
    pub outputs: &'a [O],
    /// The pre-edit graph the prior run executed on. The warm run only
    /// checks it: it must have the current graph's vertex count, and
    /// debug builds check that `touched` holds every vertex whose
    /// adjacency differs between it and the current graph.
    pub old_graph: &'a Graph,
    /// Vertices incident to an inserted or deleted edge. It must hold
    /// *both* endpoints of every edit: the propagation rule re-steps
    /// them from round 1 and trusts every other vertex's incident edges
    /// to be unchanged (see the module docs).
    pub touched: &'a [VertexId],
}

/// What the warm engine decided and did, beyond the outcome itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmStats {
    /// Dirty vertices: the edit endpoints and every vertex whose step
    /// inputs differ from the prior run's log (see the module docs).
    /// Each was re-stepped from round 1; `n` on a full re-solve.
    pub reactivated: usize,
    /// Whether the run fell back to a full cold re-solve because the
    /// protocol does not declare [`Protocol::is_local`].
    pub full_resolve: bool,
}

/// A completed warm run: the update-cost outcome (clean vertices have
/// termination round 0), the chained replay log for the next batch, and
/// the reactivation accounting.
pub struct WarmOutcome<M, O> {
    /// Update-cost outcome; `outputs` are byte-identical to a cold
    /// re-solve on the edited graph.
    pub outcome: SimOutcome<O>,
    /// Replay log equivalent to the one a cold re-solve would record —
    /// feed it to the next batch's [`WarmStart`].
    pub replay: Replay<M>,
    /// Reactivation accounting.
    pub stats: WarmStats,
}

/// `(cold outcome, replay log)` pair produced by a recorded run.
pub type Recorded<P> = (
    SimOutcome<<P as Protocol>::Output>,
    Replay<<P as Protocol>::Msg>,
);

/// Cold run that also records the [`Replay`] log. Sequential;
/// byte-identical outputs to [`Runner::run`](crate::Runner::run).
pub(crate) fn run_recorded<P: Protocol>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
) -> Result<Recorded<P>, EngineError> {
    assert_eq!(ids.len(), g.n(), "ID assignment must cover all vertices");
    let n = g.n();
    let max_rounds = cfg.max_rounds.unwrap_or_else(|| protocol.max_rounds(g));
    let run_t0 = Instant::now();

    let mut states: Vec<P::State> = g.vertices().map(|v| protocol.init(g, ids, v)).collect();
    let mut msgs: Vec<P::Msg> = states.iter().map(|s| protocol.publish(s)).collect();
    let mut msgs_next = msgs.clone();
    let mut outputs: Vec<Option<P::Output>> = vec![None; n];
    let mut termination_round = vec![0u32; n];
    let mut active = ActiveSet::full(n);

    // Every publish, round-major: `log[starts[t]..starts[t + 1]]` holds,
    // in vertex order, the message each vertex still active in round `t`
    // published in it (round 0: the initial publishes).
    let mut log = msgs.clone();
    let mut starts = vec![0];

    let mut stats = EngineStats::default();
    let mut round: u32 = 0;
    while !active.is_empty() {
        round += 1;
        if round > max_rounds {
            return Err(EngineError::RoundLimitExceeded {
                max_rounds,
                still_active: active.count(),
            });
        }
        let kernel = Kernel {
            protocol,
            graph: g,
            ids,
            msgs: &msgs,
            active_words: active.words(),
            round,
            seed: cfg.seed,
        };
        let mut slots = Slots::new(0, &mut states, &mut outputs, &mut termination_round);
        let (live, words) = (active.live_words(), active.words());
        kernel.step_words::<NoObserver>(live, words, &mut slots, &mut msgs_next, &mut []);
        stats.msg_bits += slots.bits;
        stats.max_msg_bits = stats.max_msg_bits.max(slots.max_bits);
        starts.push(log.len());
        active.retire(|v| {
            let vu = v as usize;
            log.push(msgs_next[vu].clone());
            std::mem::swap(&mut msgs[vu], &mut msgs_next[vu]);
            termination_round[vu] == round
        });
    }

    stats.wall = run_t0.elapsed();
    // Gather the histories chunk by chunk: visiting the vertices in
    // order, each one's round-`t` message is the next unread entry of
    // round `t`.
    let mut cursor = starts;
    let history = (0..n)
        .step_by(CHUNK)
        .map(|lo| {
            (lo..n.min(lo + CHUNK))
                .map(|v| {
                    (0..=termination_round[v] as usize)
                        .map(|t| {
                            cursor[t] += 1;
                            log[cursor[t] - 1].clone()
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("terminated vertex without an output"))
        .collect();
    Ok((
        SimOutcome::derived(outputs, termination_round.clone(), stats),
        Replay {
            history,
            term: termination_round,
        },
    ))
}

/// Sets (`on`) or clears vertex `v`'s bit in `words`.
#[inline]
fn set_bit(words: &mut [u64], v: VertexId, on: bool) {
    let (wi, bit) = ((v as usize) >> 6, v as usize & 63);
    words[wi] = (words[wi] & !(1 << bit)) | (u64::from(on) << bit);
}

/// Writes the message and activity `log` shows for `u` entering `round`
/// into the view `msgs`/`words`.
#[inline]
fn show_logged<M: Clone>(
    log: &Replay<M>,
    msgs: &mut [M],
    words: &mut [u64],
    u: VertexId,
    round: u32,
) {
    let uu = u as usize;
    msgs[uu].clone_from(log.msg_entering(uu, round));
    set_bit(words, u, log.active_in(uu, round));
}

/// The first vertex outside `touched` whose neighbors differ between
/// `old` and `new` — the edit endpoint a caller forgot, if any.
fn uncovered_edit(old: &Graph, new: &Graph, touched: &[VertexId]) -> Option<VertexId> {
    let mut covered = vec![false; new.n()];
    for &v in touched {
        covered[v as usize] = true;
    }
    new.vertices()
        .find(|&v| !covered[v as usize] && old.neighbors(v) != new.neighbors(v))
}

/// Dirty-slot marker of a clean vertex.
const CLEAN: u32 = u32::MAX;

/// One warm run's working set: the dirty vertices in compact slots, and
/// two full-size view slabs (indexed by vertex, as `NeighborView` reads
/// them) — one for the stepping rounds, one for catch-ups.
struct Warm<'a, P: Protocol> {
    protocol: &'a P,
    g: &'a Graph,
    ids: &'a IdAssignment,
    seed: u64,
    log: &'a Replay<P::Msg>,
    /// Each vertex's dirty slot, or [`CLEAN`].
    slot: Vec<u32>,
    /// Per dirty slot: its vertex, state, output, termination round (0
    /// while active) and new history.
    dirty: Vec<VertexId>,
    states: Vec<P::State>,
    outputs: Vec<Option<P::Output>>,
    term: Vec<u32>,
    history: Vec<Vec<P::Msg>>,
    /// The stepping rounds' view: live slots for dirty vertices; a clean
    /// vertex's slot is refreshed from the log before each step that
    /// reads it.
    msgs: Vec<P::Msg>,
    words: Vec<u64>,
    /// The catch-up's view, refreshed from the log before each step.
    catch_msgs: Vec<P::Msg>,
    catch_words: Vec<u64>,
    stats: EngineStats,
}

impl<'a, P: Protocol> Warm<'a, P> {
    /// Steps dirty slot `k` in `round` against the catch-up view or the
    /// stepping view; returns the message it publishes.
    fn step(&mut self, k: usize, round: u32, catch_up: bool) -> P::Msg {
        let v = self.dirty[k];
        let (msgs, active_words) = if catch_up {
            (&self.catch_msgs, &self.catch_words)
        } else {
            (&self.msgs, &self.words)
        };
        let kernel = Kernel {
            protocol: self.protocol,
            graph: self.g,
            ids: self.ids,
            msgs,
            active_words,
            round,
            seed: self.seed,
        };
        let mut slots = Slots::new(
            v as usize,
            &mut self.states[k..=k],
            &mut self.outputs[k..=k],
            &mut self.term[k..=k],
        );
        let m = kernel.step::<NoObserver>(v, &mut slots, &mut []);
        self.stats.msg_bits += slots.bits;
        self.stats.max_msg_bits = self.stats.max_msg_bits.max(slots.max_bits);
        m
    }

    /// Makes clean vertex `u` dirty from `round`: initializes it, catches
    /// it up through round `round - 1` against the log, and shows its
    /// live message and activity. Returns its dirty slot.
    fn enter(&mut self, u: VertexId, round: u32) -> u32 {
        let k = self.dirty.len();
        self.slot[u as usize] = k as u32;
        self.dirty.push(u);
        let state = self.protocol.init(self.g, self.ids, u);
        self.history.push(vec![self.protocol.publish(&state)]);
        self.states.push(state);
        self.outputs.push(None);
        self.term.push(0);
        let (g, log) = (self.g, self.log);
        for s in 1..round {
            for &w in g.neighbors(u).iter().chain([&u]) {
                show_logged(log, &mut self.catch_msgs, &mut self.catch_words, w, s);
            }
            let m = self.step(k, s, true);
            debug_assert!(
                self.term[k] == 0 && m == *log.msg_entering(u as usize, s + 1),
                "catch-up step of vertex {u} in round {s} diverged from the log"
            );
            self.history[k].push(m);
        }
        let shown = self.history[k].last().expect("history starts at init");
        self.msgs[u as usize].clone_from(shown);
        set_bit(&mut self.words, u, true);
        k as u32
    }

    /// Runs the propagation rule from the edit endpoints `touched` until
    /// every dirty vertex has terminated.
    fn run(&mut self, touched: &[VertexId], max_rounds: u32) -> Result<(), EngineError> {
        let (g, log) = (self.g, self.log);
        let mut live = Vec::new();
        for &e in touched {
            assert!((e as usize) < g.n(), "edit endpoint {e} out of range");
            if self.slot[e as usize] == CLEAN {
                live.push(self.enter(e, 1));
            }
        }
        // An endpoint whose initial publish changed dirties its
        // neighbors from round 1 (every vertex is active in round 1).
        for i in 0..live.len() {
            let (k, e) = (live[i] as usize, self.dirty[live[i] as usize]);
            if self.history[k][0] != *log.msg_entering(e as usize, 1) {
                for &w in g.neighbors(e) {
                    if self.slot[w as usize] == CLEAN {
                        live.push(self.enter(w, 1));
                    }
                }
            }
        }

        let (mut next, mut published) = (Vec::new(), Vec::new());
        let mut round: u32 = 0;
        while !live.is_empty() {
            round += 1;
            if round > max_rounds {
                return Err(EngineError::RoundLimitExceeded {
                    max_rounds,
                    still_active: live.len(),
                });
            }
            for &k in &live {
                for &w in g.neighbors(self.dirty[k as usize]) {
                    if self.slot[w as usize] == CLEAN {
                        show_logged(log, &mut self.msgs, &mut self.words, w, round);
                    }
                }
                published.push(self.step(k as usize, round, false));
            }
            // Publish, and compare what each stepped vertex shows entering
            // the next round with the log.
            for (&k, m) in live.iter().zip(published.drain(..)) {
                let (ku, v) = (k as usize, self.dirty[k as usize]);
                let done = self.term[ku] == round;
                let vu = v as usize;
                let differs =
                    done == log.active_in(vu, round + 1) || m != *log.msg_entering(vu, round + 1);
                self.msgs[vu].clone_from(&m);
                self.history[ku].push(m);
                if done {
                    clear_bit(&mut self.words, v);
                } else {
                    next.push(k);
                }
                if differs {
                    for &w in g.neighbors(v) {
                        if self.slot[w as usize] == CLEAN && log.active_in(w as usize, round + 1) {
                            next.push(self.enter(w, round + 1));
                        }
                    }
                }
            }
            std::mem::swap(&mut live, &mut next);
            next.clear();
        }
        Ok(())
    }
}

/// Incremental re-solve of `g` (the post-edit graph) warm-started from
/// `prior`. See the module docs for the propagation rule; outputs and
/// the returned replay are byte-identical to a cold re-solve, while the
/// outcome's metrics measure the update cost only.
pub(crate) fn run_warm<P: Protocol>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
    obs: Option<&Registry>,
    prior: WarmStart<'_, P::Msg, P::Output>,
) -> Result<WarmOutcome<P::Msg, P::Output>, EngineError> {
    assert_eq!(ids.len(), g.n(), "ID assignment must cover all vertices");
    let n = g.n();
    assert_eq!(prior.old_graph.n(), n, "churn keeps the vertex set fixed");
    assert_eq!(prior.replay.n(), n, "replay log must cover all vertices");
    assert_eq!(
        prior.outputs.len(),
        n,
        "prior outputs must cover all vertices"
    );
    debug_assert!(
        uncovered_edit(prior.old_graph, g, prior.touched).is_none(),
        "vertex {:?} changed neighbors but is not in `touched`: \
         `touched` must hold both endpoints of every edit",
        uncovered_edit(prior.old_graph, g, prior.touched)
    );
    let ob = obs.map(|r| r.handle(0));

    if !protocol.is_local() {
        // No locality declaration: the only sound move is a full cold
        // re-solve (which also refreshes the replay log).
        let (outcome, replay) = run_recorded(protocol, g, ids, cfg)?;
        if let Some(o) = ob {
            o.add(Metric::EngineWarmRuns, 1);
            o.add(Metric::EngineWarmFullResolves, 1);
            o.add(Metric::EngineReactivated, n as u64);
        }
        return Ok(WarmOutcome {
            outcome,
            replay,
            stats: WarmStats {
                reactivated: n,
                full_resolve: true,
            },
        });
    }

    let run_t0 = Instant::now();
    let log = prior.replay;
    // Every slot of the view slabs is written before it is read; the
    // filler only sizes them.
    let filler = prior
        .touched
        .first()
        .map(|&e| log.msg_entering(e as usize, 1));
    let slab = |len| filler.map_or_else(Vec::new, |m| vec![m.clone(); len]);
    let mut warm = Warm {
        protocol,
        g,
        ids,
        seed: cfg.seed,
        log,
        slot: vec![CLEAN; n],
        dirty: Vec::new(),
        states: Vec::new(),
        outputs: Vec::new(),
        term: Vec::new(),
        history: Vec::new(),
        msgs: slab(n),
        words: vec![0; n.div_ceil(64)],
        catch_msgs: slab(n),
        catch_words: vec![0; n.div_ceil(64)],
        stats: EngineStats::default(),
    };
    let max_rounds = cfg.max_rounds.unwrap_or_else(|| protocol.max_rounds(g));
    warm.run(prior.touched, max_rounds)?;
    let reactivated = warm.dirty.len();
    if let Some(o) = ob {
        o.add(Metric::EngineWarmRuns, 1);
        o.add(Metric::EngineReactivated, reactivated as u64);
    }

    // Clean vertices carry the prior run forward; dirty ones overwrite
    // their output, termination round and (copy-on-write) history.
    let Warm {
        dirty,
        outputs: dirty_outputs,
        term: dirty_term,
        history: dirty_history,
        mut stats,
        ..
    } = warm;
    let mut outputs = prior.outputs.to_vec();
    let mut termination_round = vec![0u32; n];
    let mut term = log.term.clone();
    let mut history = log.history.clone();
    let dirty = dirty.into_iter().zip(dirty_outputs).zip(dirty_term);
    for (((v, out), t), h) in dirty.zip(dirty_history) {
        let vu = v as usize;
        outputs[vu] = out.expect("dirty vertex without an output");
        termination_round[vu] = t;
        term[vu] = t;
        Arc::make_mut(&mut history[vu / CHUNK])[vu % CHUNK] = h.into();
    }
    stats.wall = run_t0.elapsed();
    Ok(WarmOutcome {
        outcome: SimOutcome::derived(outputs, termination_round, stats),
        replay: Replay { history, term },
        stats: WarmStats {
            reactivated,
            full_resolve: false,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{StepCtx, Transition};
    use crate::Runner;
    use graphcore::churn::{apply, churn_sequence, ChurnPlan};
    use graphcore::gen;
    use rand::Rng;

    /// Deterministic local protocol with degree-dependent init: floods
    /// the max ID seen for `horizon` rounds, then outputs it together
    /// with the vertex's degree-at-init.
    struct MaxIdFlood {
        horizon: u32,
    }

    impl Protocol for MaxIdFlood {
        type State = (u64, u64, u32); // (max id seen, init degree, rounds done)
        type Msg = u64;
        type Output = (u64, u64);

        fn init(&self, g: &Graph, ids: &IdAssignment, v: VertexId) -> Self::State {
            (ids.id(v), g.degree(v) as u64, 0)
        }

        fn publish(&self, s: &Self::State) -> u64 {
            s.0
        }

        fn step(
            &self,
            ctx: StepCtx<'_, Self::State, u64>,
        ) -> Transition<Self::State, Self::Output> {
            let (mut best, deg, done) = *ctx.state;
            for (_, &m) in ctx.view.neighbors() {
                best = best.max(m);
            }
            if done + 1 >= self.horizon {
                Transition::Terminate((best, deg, done + 1), (best, deg))
            } else {
                Transition::Continue((best, deg, done + 1))
            }
        }

        fn is_local(&self) -> bool {
            true
        }
    }

    /// Randomized decay-style protocol: each round a vertex flips a
    /// seeded coin biased by its count of still-active neighbors and the
    /// coins it saw last round; termination rounds vary per vertex, so
    /// warm runs get a rich clean/dirty mix.
    struct CoinDecay;

    impl Protocol for CoinDecay {
        type State = (u64, u32); // (last coin, credits)
        type Msg = u64;
        type Output = (u64, u32); // (final coin, termination credits)

        fn init(&self, g: &Graph, _: &IdAssignment, v: VertexId) -> Self::State {
            (g.degree(v) as u64, 0)
        }

        fn publish(&self, s: &Self::State) -> u64 {
            s.0
        }

        fn step(
            &self,
            ctx: StepCtx<'_, Self::State, u64>,
        ) -> Transition<Self::State, Self::Output> {
            let mut rng = ctx.rng();
            let mut acc = ctx.state.0;
            let mut live = 0u32;
            for (u, &m) in ctx.view.neighbors() {
                acc = acc.wrapping_mul(31).wrapping_add(m);
                if !ctx.view.is_terminated(u) {
                    live += 1;
                }
            }
            let coin = acc ^ rng.gen::<u64>();
            let credits = ctx.state.1 + 1;
            // Die out faster as the active neighborhood thins.
            if coin % (live as u64 + 2) == 0 || credits > 12 {
                Transition::Terminate((coin, credits), (coin, credits))
            } else {
                Transition::Continue((coin, credits))
            }
        }

        fn is_local(&self) -> bool {
            true
        }
    }

    /// CoinDecay publishing only its coin's low bit: a vertex whose state
    /// or activity changed often still shows the same message, so inputs
    /// that differ in activity alone are common.
    struct CoarseDecay;

    impl Protocol for CoarseDecay {
        type State = (u64, u32);
        type Msg = u64;
        type Output = (u64, u32);

        fn init(&self, g: &Graph, ids: &IdAssignment, v: VertexId) -> Self::State {
            CoinDecay.init(g, ids, v)
        }

        fn publish(&self, s: &Self::State) -> u64 {
            s.0 & 1
        }

        fn step(
            &self,
            ctx: StepCtx<'_, Self::State, u64>,
        ) -> Transition<Self::State, Self::Output> {
            CoinDecay.step(ctx)
        }

        fn is_local(&self) -> bool {
            true
        }
    }

    /// CoinDecay without the locality flag — forces the fallback.
    struct OpaqueDecay;

    impl Protocol for OpaqueDecay {
        type State = (u64, u32);
        type Msg = u64;
        type Output = (u64, u32);

        fn init(&self, g: &Graph, ids: &IdAssignment, v: VertexId) -> Self::State {
            CoinDecay.init(g, ids, v)
        }

        fn publish(&self, s: &Self::State) -> u64 {
            s.0
        }

        fn step(
            &self,
            ctx: StepCtx<'_, Self::State, u64>,
        ) -> Transition<Self::State, Self::Output> {
            CoinDecay.step(ctx)
        }
    }

    fn ids(n: usize) -> IdAssignment {
        IdAssignment::identity(n)
    }

    /// Seeded G(n, p) sample.
    fn rg(n: usize, p: f64, seed: u64) -> Graph {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        gen::gnp(n, p, &mut rng).graph
    }

    /// Cold run + warm chain over every churn batch, asserting the warm
    /// outputs/replay match a cold re-solve on each edited graph.
    fn assert_warm_matches_cold<P>(protocol: &P, base: &Graph, plan: &ChurnPlan, seed: u64)
    where
        P: Protocol,
        P::Output: PartialEq + std::fmt::Debug,
        P::Msg: PartialEq + std::fmt::Debug,
    {
        let idv = ids(base.n());
        let cfg = RunConfig::seeded(seed);
        let (cold0, mut replay) = run_recorded(protocol, base, &idv, cfg).unwrap();
        let mut outputs = cold0.outputs;
        let mut g = base.clone();
        for (bi, batch) in churn_sequence(base, plan).iter().enumerate() {
            let old = g.clone();
            g = apply(&g, batch);
            let warm = run_warm(
                protocol,
                &g,
                &idv,
                cfg,
                None,
                WarmStart {
                    replay: &replay,
                    outputs: &outputs,
                    old_graph: &old,
                    touched: &batch.endpoints(),
                },
            )
            .unwrap();
            let cold = Runner::new(protocol, &g, &idv).config(cfg).run().unwrap();
            assert_eq!(warm.outcome.outputs, cold.outputs, "batch {bi}: outputs");
            assert_eq!(
                warm.replay.term, cold.metrics.termination_round,
                "batch {bi}: cold-equivalent termination rounds"
            );
            assert!(!warm.stats.full_resolve);
            assert!(warm.stats.reactivated <= base.n());
            // The replay must chain: its history is what a recorded cold
            // run on the edited graph would have logged.
            let (_, cold_replay) = run_recorded(protocol, &g, &idv, cfg).unwrap();
            assert_eq!(
                warm.replay.history, cold_replay.history,
                "batch {bi}: replay log"
            );
            // Update-cost metrics stay internally consistent.
            warm.outcome.metrics.check_identities().unwrap();
            outputs = warm.outcome.outputs;
            replay = warm.replay;
        }
    }

    /// The vertices whose step inputs differ between the `old` log and
    /// `new`, a recorded cold run of the edited graph `g`: the edit
    /// endpoints, plus every vertex with a neighbor that shows it a
    /// different message or activity in some round up to its old
    /// termination round.
    fn input_difference_set<M: Clone + PartialEq>(
        g: &Graph,
        touched: &[VertexId],
        old: &Replay<M>,
        new: &Replay<M>,
    ) -> Vec<bool> {
        let differs = |u: usize, t: u32| {
            old.msg_entering(u, t) != new.msg_entering(u, t)
                || old.active_in(u, t) != new.active_in(u, t)
        };
        g.vertices()
            .map(|v| {
                touched.contains(&v)
                    || g.neighbors(v)
                        .iter()
                        .any(|&u| (1..=old.term[v as usize]).any(|t| differs(u as usize, t)))
            })
            .collect()
    }

    /// Cold run + warm chain over every churn batch, asserting that each
    /// warm run steps exactly the input difference set of its batch and
    /// ends where a recorded cold re-solve does.
    fn assert_steps_input_difference_set<P>(protocol: &P, base: &Graph, plan: &ChurnPlan, seed: u64)
    where
        P: Protocol,
        P::Output: PartialEq + std::fmt::Debug,
    {
        let idv = ids(base.n());
        let cfg = RunConfig::seeded(seed);
        let (cold0, mut replay) = run_recorded(protocol, base, &idv, cfg).unwrap();
        let mut outputs = cold0.outputs;
        let mut g = base.clone();
        for (bi, batch) in churn_sequence(base, plan).iter().enumerate() {
            let next = apply(&g, batch);
            let touched = batch.endpoints();
            let warm = run_warm(
                protocol,
                &next,
                &idv,
                cfg,
                None,
                WarmStart {
                    replay: &replay,
                    outputs: &outputs,
                    old_graph: &g,
                    touched: &touched,
                },
            )
            .unwrap();
            let (cold, cold_replay) = run_recorded(protocol, &next, &idv, cfg).unwrap();
            assert_eq!(warm.outcome.outputs, cold.outputs, "batch {bi}: outputs");
            assert!(
                warm.replay.history == cold_replay.history,
                "batch {bi}: log"
            );
            let expected = input_difference_set(&next, &touched, &replay, &cold_replay);
            let stepped: Vec<bool> = warm
                .outcome
                .metrics
                .termination_round
                .iter()
                .map(|&t| t > 0)
                .collect();
            assert_eq!(stepped, expected, "batch {bi}: stepped set");
            let dirty = expected.iter().filter(|&&d| d).count();
            assert_eq!(warm.stats.reactivated, dirty, "batch {bi}: reactivated");
            (g, outputs, replay) = (next, warm.outcome.outputs, warm.replay);
        }
    }

    #[test]
    fn recorded_run_matches_plain_run() {
        let g = rg(120, 0.05, 9);
        let idv = ids(g.n());
        let cfg = RunConfig::seeded(3);
        let (rec, replay) = run_recorded(&CoinDecay, &g, &idv, cfg).unwrap();
        let plain = Runner::new(&CoinDecay, &g, &idv).config(cfg).run().unwrap();
        assert_eq!(rec.outputs, plain.outputs);
        assert_eq!(
            rec.metrics.termination_round,
            plain.metrics.termination_round
        );
        assert_eq!(rec.stats.steps, plain.stats.steps);
        assert_eq!(replay.term(), plain.metrics.termination_round.as_slice());
        for v in 0..g.n() {
            assert_eq!(replay.history(v).len() as u32, replay.term[v] + 1);
            assert_eq!(
                *replay.msg_entering(v, replay.term[v] + 5),
                *replay.history(v).last().unwrap(),
                "terminal broadcast is sticky"
            );
        }
    }

    #[test]
    fn warm_chain_matches_cold_flood() {
        let plan = ChurnPlan {
            seed: 11,
            batches: 3,
            inserts_per_batch: 2,
            deletes_per_batch: 2,
        };
        assert_warm_matches_cold(&MaxIdFlood { horizon: 4 }, &gen::grid(9, 9), &plan, 5);
    }

    #[test]
    fn warm_chain_matches_cold_coin_decay() {
        let plan = ChurnPlan {
            seed: 4,
            batches: 3,
            inserts_per_batch: 3,
            deletes_per_batch: 2,
        };
        assert_warm_matches_cold(&CoinDecay, &rg(90, 0.04, 2), &plan, 8);
    }

    #[test]
    fn single_edit_on_a_long_path_freezes_the_far_side() {
        // Editing one end of a 400-path reactivates only vertices near
        // the endpoints — the far side stays clean.
        let g = gen::path(400);
        let idv = ids(400);
        let cfg = RunConfig::seeded(1);
        let p = MaxIdFlood { horizon: 3 };
        let (cold, replay) = run_recorded(&p, &g, &idv, cfg).unwrap();
        let batch = graphcore::churn::EditBatch {
            inserts: vec![(0, 2)],
            deletes: vec![],
        };
        let g2 = apply(&g, &batch);
        let warm = run_warm(
            &p,
            &g2,
            &idv,
            cfg,
            None,
            WarmStart {
                replay: &replay,
                outputs: &cold.outputs,
                old_graph: &g,
                touched: &batch.endpoints(),
            },
        )
        .unwrap();
        let cold2 = Runner::new(&p, &g2, &idv).config(cfg).run().unwrap();
        assert_eq!(warm.outcome.outputs, cold2.outputs);
        // A new max ID travels at most term = 3 hops from {0, 2}: a
        // handful of vertices, not the whole path.
        assert!(
            warm.stats.reactivated <= 8,
            "reactivated {} of 400",
            warm.stats.reactivated
        );
        // Clean vertices report zero update cost.
        let zeros = warm
            .outcome
            .metrics
            .termination_round
            .iter()
            .filter(|&&t| t == 0)
            .count();
        assert_eq!(zeros, 400 - warm.stats.reactivated);
        warm.outcome.metrics.check_identities().unwrap();
    }

    #[test]
    fn shortcut_edit_reactivates_the_input_difference_set() {
        // (0, 200) is a shortcut across a 400-path: inserting it, then
        // deleting it again, must re-step exactly the vertices whose
        // inputs differ from the prior log. Neither endpoint's initial
        // publish changes (it is its ID); 0's max-ID view changes at once
        // and travels two hops before the 3-round horizon ends, while
        // 200's never changes what it publishes.
        let g = gen::path(400);
        let idv = ids(400);
        let cfg = RunConfig::seeded(4);
        let p = MaxIdFlood { horizon: 3 };
        let (cold, replay) = run_recorded(&p, &g, &idv, cfg).unwrap();
        let insert = graphcore::churn::EditBatch {
            inserts: vec![(0, 200)],
            deletes: vec![],
        };
        let delete = graphcore::churn::EditBatch {
            inserts: vec![],
            deletes: vec![(0, 200)],
        };
        let (mut old, mut outputs, mut replay) = (g, cold.outputs, replay);
        for batch in [insert, delete] {
            let new = apply(&old, &batch);
            let touched = batch.endpoints();
            let warm = run_warm(
                &p,
                &new,
                &idv,
                cfg,
                None,
                WarmStart {
                    replay: &replay,
                    outputs: &outputs,
                    old_graph: &old,
                    touched: &touched,
                },
            )
            .unwrap();
            let (_, cold_replay) = run_recorded(&p, &new, &idv, cfg).unwrap();
            let expected = input_difference_set(&new, &touched, &replay, &cold_replay);
            let stepped: Vec<bool> = warm
                .outcome
                .metrics
                .termination_round
                .iter()
                .map(|&t| t > 0)
                .collect();
            assert_eq!(stepped, expected);
            let dirty: Vec<usize> = (0..400).filter(|&v| stepped[v]).collect();
            assert_eq!(dirty, [0, 1, 2, 200]);
            assert_eq!(warm.stats.reactivated, 4);
            let cold = Runner::new(&p, &new, &idv).config(cfg).run().unwrap();
            assert_eq!(warm.outcome.outputs, cold.outputs);
            (old, outputs, replay) = (new, warm.outcome.outputs, warm.replay);
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the adjacency check is debug-only")]
    #[should_panic(expected = "must hold both endpoints")]
    fn touched_without_both_endpoints_trips_the_adjacency_check() {
        // Only 0 named for the shortcut (0, 200): vertex 200 gains a
        // neighbor but would never be re-stepped.
        let g = gen::path(400);
        let idv = ids(400);
        let cfg = RunConfig::seeded(4);
        let p = MaxIdFlood { horizon: 3 };
        let (cold, replay) = run_recorded(&p, &g, &idv, cfg).unwrap();
        let batch = graphcore::churn::EditBatch {
            inserts: vec![(0, 200)],
            deletes: vec![],
        };
        let _ = run_warm(
            &p,
            &apply(&g, &batch),
            &idv,
            cfg,
            None,
            WarmStart {
                replay: &replay,
                outputs: &cold.outputs,
                old_graph: &g,
                touched: &[0],
            },
        );
    }

    #[test]
    fn no_radius_falls_back_to_full_resolve() {
        let g = rg(60, 0.06, 7);
        let idv = ids(60);
        let cfg = RunConfig::seeded(2);
        let (cold, replay) = run_recorded(&OpaqueDecay, &g, &idv, cfg).unwrap();
        let batch = graphcore::churn::EditBatch {
            inserts: vec![],
            deletes: vec![g.edges().next().unwrap().1],
        };
        let g2 = apply(&g, &batch);
        let warm = run_warm(
            &OpaqueDecay,
            &g2,
            &idv,
            cfg,
            None,
            WarmStart {
                replay: &replay,
                outputs: &cold.outputs,
                old_graph: &g,
                touched: &batch.endpoints(),
            },
        )
        .unwrap();
        assert!(warm.stats.full_resolve);
        assert_eq!(warm.stats.reactivated, 60);
        let cold2 = Runner::new(&OpaqueDecay, &g2, &idv)
            .config(cfg)
            .run()
            .unwrap();
        assert_eq!(warm.outcome.outputs, cold2.outputs);
    }

    #[test]
    fn empty_touched_set_reactivates_nothing() {
        let g = gen::cycle(50);
        let idv = ids(50);
        let cfg = RunConfig::seeded(6);
        let p = MaxIdFlood { horizon: 2 };
        let (cold, replay) = run_recorded(&p, &g, &idv, cfg).unwrap();
        let warm = run_warm(
            &p,
            &g,
            &idv,
            cfg,
            None,
            WarmStart {
                replay: &replay,
                outputs: &cold.outputs,
                old_graph: &g,
                touched: &[],
            },
        )
        .unwrap();
        assert_eq!(warm.stats.reactivated, 0);
        assert_eq!(warm.outcome.outputs, cold.outputs);
        assert_eq!(warm.outcome.stats.rounds, 0);
        assert_eq!(warm.replay.term, replay.term);
    }

    mod warm_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            // The headline pin: across random graphs, churn seeds, and
            // batch shapes, the incremental re-solve chain is
            // byte-identical to cold re-solves — for a deterministic
            // and a randomized protocol.
            #[test]
            fn incremental_equals_cold(
                n in 20usize..80,
                p_millis in 20u64..90,
                gseed in 0u64..1000,
                cseed in 0u64..1000,
                run_seed in 0u64..1000,
                batches in 1usize..4,
                inserts in 0usize..5,
                deletes in 0usize..5,
            ) {
                let g = rg(n, p_millis as f64 / 1000.0, gseed);
                let plan = ChurnPlan {
                    seed: cseed,
                    batches,
                    inserts_per_batch: inserts,
                    deletes_per_batch: deletes,
                };
                assert_warm_matches_cold(&CoinDecay, &g, &plan, run_seed);
                assert_warm_matches_cold(
                    &MaxIdFlood { horizon: 3 },
                    &g,
                    &plan,
                    run_seed,
                );
            }

            // The stepped set is exactly the vertices whose step inputs
            // differ from the prior log: nothing clean is re-stepped.
            #[test]
            fn stepped_set_is_the_input_difference_set(
                n in 20usize..80,
                p_millis in 20u64..90,
                gseed in 0u64..1000,
                cseed in 0u64..1000,
                run_seed in 0u64..1000,
                batches in 1usize..4,
                inserts in 0usize..5,
                deletes in 0usize..5,
            ) {
                let g = rg(n, p_millis as f64 / 1000.0, gseed);
                let plan = ChurnPlan {
                    seed: cseed,
                    batches,
                    inserts_per_batch: inserts,
                    deletes_per_batch: deletes,
                };
                assert_steps_input_difference_set(&CoinDecay, &g, &plan, run_seed);
                assert_steps_input_difference_set(&CoarseDecay, &g, &plan, run_seed);
                for horizon in [3, 6] {
                    assert_steps_input_difference_set(
                        &MaxIdFlood { horizon },
                        &g,
                        &plan,
                        run_seed,
                    );
                }
            }
        }
    }
}
