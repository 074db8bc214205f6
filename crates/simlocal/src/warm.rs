//! Incremental re-solve: warm-starting a run from a prior outcome after
//! a batch of edge edits.
//!
//! # The freeze rule
//!
//! In the LOCAL model, a vertex's trajectory through round `t` is a
//! function of the edges incident to its radius-`t` ball (plus one hop,
//! because `init` may read the vertex's own incident edges — its degree).
//! Editing edge `{a, b}` only changes the incident-edge sets of `a` and
//! `b`, so a vertex `u` whose cold run terminated in round `T_u` is
//! untouched by the edit whenever every edit endpoint is farther than
//! `T_u` from `u`. Such a vertex is **frozen**: its entire message
//! trajectory, termination round, and output are byte-identical between
//! the old cold run and a fresh cold run on the edited graph.
//!
//! One BFS from the edit endpoints decides the rule, and it does not
//! matter in which graph it runs. Both endpoints of every edit are
//! sources, at distance 0, while every vertex after the first on a
//! shortest path from the sources sits at distance ≥ 1 — so no edited
//! edge lies on a shortest path, the paths use only edges common to
//! both graphs, and the pre-edit and post-edit distances are equal.
//! (This is why `touched` must hold both endpoints of every edit; debug
//! builds re-check the equality with a second BFS.)
//!
//! The warm engine therefore re-steps only the vertices within the
//! dependence ball of an edit, serving every frozen vertex's per-round
//! messages and activity schedule from a [`Replay`] log recorded by the
//! prior run. A step reads only its own and its neighbors' slots, so the
//! recorded schedule is advanced only on the **boundary** — the frozen
//! neighbors of stepping vertices — and every other frozen slot is left
//! as it started. Each slot starts from `publish(init)`, which for a
//! frozen vertex is its logged first publish: it is never an edit
//! endpoint, so `init` sees the same incident edges. By induction over
//! rounds the stepping vertices see exactly the slabs a cold run on the
//! edited graph would show them, so warm outputs are **byte-identical**
//! to a cold full re-solve — the property the proptests in this module
//! pin.
//!
//! Protocols opt in by overriding
//! [`Protocol::dependence_radius`](crate::Protocol::dependence_radius):
//! `Some(r)` declares that a vertex's trajectory depends on at most its
//! `min(own rounds, r) + 1`-ball (any protocol whose `init`/`step` obey
//! LOCAL locality can declare `Some(u32::MAX)`); `None` (the default)
//! makes [`run_warm`] fall back to a full cold re-solve, which is always
//! correct.
//!
//! The warm outcome's metrics are the **update cost**: frozen vertices
//! report termination round 0 and the activity series counts stepping
//! vertices only, so `RoundMetrics::vertex_averaged` is the
//! vertex-averaged update cost of the batch.
//!
//! The chained [`Replay`] costs the frontier too: a frozen vertex's
//! history is shared with the prior log by reference count, and only
//! the stepped vertices' histories are new — published into one
//! round-major log during the run and gathered per vertex at the end.

use crate::active::{clear_bit, full_words, ActiveSet};
use crate::engine::{EngineError, EngineStats, RunConfig, SimOutcome};
use crate::kernel::{Kernel, Slots};
use crate::obs::{Metric, Registry};
use crate::observer::NoObserver;
use crate::protocol::Protocol;
use graphcore::{Graph, IdAssignment, VertexId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// The message log of a completed run: everything a later warm start
/// needs to replay the run's visible behavior without re-stepping it.
///
/// `history[v][t]` is the message `v` had published entering round
/// `t + 1` (`history[v][0]` is its initial publish). A vertex stops
/// publishing when it terminates, so `history[v].len() == term[v] + 1`
/// and the final entry is its terminal broadcast. Histories are frozen
/// once written and shared by reference count, so a warm run's log
/// reuses every frozen vertex's history from the prior log.
#[derive(Clone, Debug)]
pub struct Replay<M> {
    history: Vec<Arc<[M]>>,
    term: Vec<u32>,
}

impl<M: Clone> Replay<M> {
    /// Number of vertices the log covers.
    pub fn n(&self) -> usize {
        self.term.len()
    }

    /// Cold-equivalent termination round of each vertex — for a warm
    /// run's replay this is the round a fresh cold run would report,
    /// not the (zeroed-for-frozen) update-cost metric.
    pub fn term(&self) -> &[u32] {
        &self.term
    }

    /// The message of `v` visible to its neighbors entering `round`
    /// (1-based); after `v` terminates this stays its final broadcast.
    fn msg_entering(&self, v: usize, round: u32) -> &M {
        let h = &self.history[v];
        &h[(round as usize - 1).min(h.len() - 1)]
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
    /// The pre-edit graph the prior run executed on.
    pub old_graph: &'a Graph,
    /// Vertices incident to an inserted or deleted edge: it must hold
    /// *both* endpoints of every edit, because the freeze rule and the
    /// one-BFS lemma (see the module docs) both depend on it.
    pub touched: &'a [VertexId],
}

/// What the warm engine decided and did, beyond the outcome itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmStats {
    /// Vertices re-stepped (inside the dependence ball of an edit).
    pub reactivated: usize,
    /// Whether the run fell back to a full cold re-solve because the
    /// protocol declared no dependence radius.
    pub full_resolve: bool,
}

/// A completed warm run: the update-cost outcome (frozen vertices have
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

/// Multi-source BFS distances from `sources` (u32::MAX = unreachable).
fn multi_bfs(g: &Graph, sources: &[VertexId]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue = VecDeque::with_capacity(sources.len());
    for &s in sources {
        let su = s as usize;
        assert!(su < g.n(), "edit endpoint {s} out of range");
        if dist[su] != 0 {
            dist[su] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// The warm loop: steps the vertices `stepping` marks with the round
/// kernel, against a message slab whose frozen boundary slots replay the
/// prior run's log on the cold schedule, and records every stepped
/// message. Frozen vertices carry the prior run's outputs, log, and cold
/// termination round forward unchanged; the outcome's termination
/// rounds stay 0 for them (update cost). With every vertex stepping (and
/// no prior) it is a recorded cold run.
fn replay_loop<P: Protocol>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
    stepping: &[bool],
    prior: Option<&WarmStart<'_, P::Msg, P::Output>>,
) -> Result<Recorded<P>, EngineError> {
    let n = g.n();
    let max_rounds = cfg.max_rounds.unwrap_or_else(|| protocol.max_rounds(g));
    let run_t0 = Instant::now();
    // With every vertex stepping no frozen slot ever reads the log.
    let empty = Replay {
        history: Vec::new(),
        term: Vec::new(),
    };
    let (prior, prior_outputs) = prior.map_or((&empty, &[][..]), |w| (w.replay, w.outputs));

    // Slabs. Every slot holds a state (`init` is pure) and its initial
    // publish — for a frozen vertex, the first entry of its log — but
    // only stepping vertices are ever stepped.
    let mut states: Vec<P::State> = g.vertices().map(|v| protocol.init(g, ids, v)).collect();
    let mut msgs: Vec<P::Msg> = states.iter().map(|s| protocol.publish(s)).collect();
    let mut msgs_next = msgs.clone();
    let mut outputs: Vec<Option<P::Output>> = vec![None; n];
    let mut termination_round = vec![0u32; n];

    // Two activity structures: `active` drives iteration (stepping
    // vertices only); `visible` is the snapshot NeighborView serves and
    // follows the *cold* schedule — frozen vertices stay visible-active
    // until their recorded termination round.
    let mut visible = full_words(n);
    let mut active = ActiveSet::full(n);
    active.retire(|v| !stepping[v as usize]);
    // The frozen neighbors of stepping vertices: the only frozen slots a
    // step reads, so the only ones whose recorded schedule is advanced.
    let mut boundary: Vec<VertexId> = active
        .iter()
        .flat_map(|v| g.neighbors(v))
        .copied()
        .filter(|&u| !stepping[u as usize])
        .collect();
    boundary.sort_unstable();
    boundary.dedup();

    // Stepped vertices' publishes, round-major: `log[starts[t]..starts[t
    // + 1]]` holds, in vertex order, the message each stepping vertex
    // still active in round `t` published in it (round 0: the initial
    // publishes).
    let mut log: Vec<P::Msg> = active.iter().map(|v| msgs[v as usize].clone()).collect();
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
            active_words: &visible,
            round,
            seed: cfg.seed,
        };
        let mut slots = Slots::new(0, &mut states, &mut outputs, &mut termination_round);
        let (live, words) = (active.live_words(), active.words());
        kernel.step_words(live, words, &mut slots, &mut msgs_next, &mut NoObserver);
        stats.msg_bits += slots.bits;
        stats.max_msg_bits = stats.max_msg_bits.max(slots.max_bits);
        starts.push(log.len());
        active.retire(|v| {
            let vu = v as usize;
            log.push(msgs_next[vu].clone());
            std::mem::swap(&mut msgs[vu], &mut msgs_next[vu]);
            let done = termination_round[vu] == round;
            if done {
                clear_bit(&mut visible, v);
            }
            done
        });
        // Advance the boundary's recorded schedule: refresh the message
        // slots of those that stepped in this cold round, hide those
        // that terminated in it.
        boundary.retain(|&u| {
            let uu = u as usize;
            let term = prior.term[uu];
            if term >= round {
                // The message the cold run would show entering round + 1.
                msgs[uu] = prior.msg_entering(uu, round + 1).clone();
            }
            if term == round {
                clear_bit(&mut visible, u);
            }
            term > round
        });
    }

    stats.wall = run_t0.elapsed();
    // Gather each stepped vertex's history from the log: visiting them
    // in vertex order, each one's round-`t` message is the next unread
    // entry of round `t`.
    let mut cursor = starts;
    let mut history = Vec::with_capacity(n);
    let mut term_cold = termination_round.clone();
    let outputs = (0..n)
        .map(|v| {
            if stepping[v] {
                let rounds = 0..=termination_round[v] as usize;
                history.push(
                    rounds
                        .map(|t| {
                            let i = cursor[t];
                            cursor[t] += 1;
                            log[i].clone()
                        })
                        .collect(),
                );
                outputs[v].take().expect("stepped vertex without an output")
            } else {
                term_cold[v] = prior.term[v];
                history.push(Arc::clone(&prior.history[v]));
                prior_outputs[v].clone()
            }
        })
        .collect();
    Ok((
        SimOutcome::derived(outputs, termination_round, stats),
        Replay {
            history,
            term: term_cold,
        },
    ))
}

/// Cold run that also records the [`Replay`] log: the warm loop with
/// every vertex stepping and nothing frozen. Sequential; byte-identical
/// outputs to [`Runner::run`](crate::Runner::run).
pub(crate) fn run_recorded<P: Protocol>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
) -> Result<Recorded<P>, EngineError> {
    assert_eq!(ids.len(), g.n(), "ID assignment must cover all vertices");
    replay_loop(protocol, g, ids, cfg, &vec![true; g.n()], None)
}

/// Incremental re-solve of `g` (the post-edit graph) warm-started from
/// `prior`. See the module docs for the freeze rule; outputs and the
/// returned replay are byte-identical to a cold re-solve, while the
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
    let ob = obs.map(|r| r.handle(0));

    let Some(radius) = protocol.dependence_radius(g) else {
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
    };

    // Freeze rule: re-step exactly the vertices with an edit endpoint
    // inside their dependence ball. Distances from the edit endpoints
    // agree in the old and the new topology (module docs), so one BFS
    // decides it.
    let dist = multi_bfs(g, prior.touched);
    debug_assert!(
        dist == multi_bfs(prior.old_graph, prior.touched),
        "edit-endpoint distances differ between the old and new graph: \
         `touched` must hold both endpoints of every edit"
    );
    let stepping: Vec<bool> = (0..n)
        .map(|v| dist[v] <= prior.replay.term[v].min(radius))
        .collect();
    let reactivated = stepping.iter().filter(|&&b| b).count();
    if let Some(o) = ob {
        o.add(Metric::EngineWarmRuns, 1);
        o.add(Metric::EngineReactivated, reactivated as u64);
    }

    let (outcome, replay) = replay_loop(protocol, g, ids, cfg, &stepping, Some(&prior))?;
    Ok(WarmOutcome {
        outcome,
        replay,
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

        fn dependence_radius(&self, _: &Graph) -> Option<u32> {
            Some(u32::MAX)
        }
    }

    /// Randomized decay-style protocol: each round a vertex flips a
    /// seeded coin biased by its count of still-active neighbors and the
    /// coins it saw last round; termination rounds vary per vertex, so
    /// warm runs get a rich frozen/stepping mix.
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

        fn dependence_radius(&self, _: &Graph) -> Option<u32> {
            Some(u32::MAX)
        }
    }

    /// CoinDecay without the locality declaration — forces the fallback.
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
            assert_eq!(replay.history[v].len() as u32, replay.term[v] + 1);
            assert_eq!(
                *replay.msg_entering(v, replay.term[v] + 5),
                *replay.history[v].last().unwrap(),
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
        // Editing one end of a 400-path reactivates only the dependence
        // ball of the endpoints — the far side stays frozen.
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
        // Ball radius is term + 1 = 4 around vertices {0, 2}: a handful
        // of vertices, not the whole path.
        assert!(
            warm.stats.reactivated <= 8,
            "reactivated {} of 400",
            warm.stats.reactivated
        );
        // Frozen vertices report zero update cost.
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
    fn shortcut_edit_reactivates_the_min_distance_ball() {
        // (0, 200) is a shortcut across a 400-path: inserting it, then
        // deleting it again, must re-step exactly the vertices within
        // their termination round of an endpoint under the smaller of
        // the pre- and post-edit distances — which the single BFS gives.
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
            let (dist_old, dist_new) = (multi_bfs(&old, &touched), multi_bfs(&new, &touched));
            let expected: Vec<bool> = (0..400)
                .map(|v| dist_old[v].min(dist_new[v]) <= replay.term[v])
                .collect();
            let stepped: Vec<bool> = warm
                .outcome
                .metrics
                .termination_round
                .iter()
                .map(|&t| t > 0)
                .collect();
            assert_eq!(stepped, expected);
            assert_eq!(warm.stats.reactivated, 4 + 7, "{{0..=3}} and {{197..=203}}");
            let cold = Runner::new(&p, &new, &idv).config(cfg).run().unwrap();
            assert_eq!(warm.outcome.outputs, cold.outputs);
            (old, outputs, replay) = (new, warm.outcome.outputs, warm.replay);
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "the lemma check is debug-only")]
    #[should_panic(expected = "must hold both endpoints")]
    fn touched_without_both_endpoints_trips_the_lemma_check() {
        // Only 0 named for the shortcut (0, 200): from {0}, vertex 200
        // is 200 hops away before the edit and 1 after it.
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
        }
    }
}
