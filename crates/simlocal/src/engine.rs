//! The synchronous round engine: a data-oriented core doing *sparse
//! rounds* — per-round work proportional to the number of **active**
//! vertices, so the wall-clock cost of a whole simulation tracks
//! `RoundSum(V) = Σ_v r(v)` (the paper's Equation 1) instead of
//! `n × worst-case`.
//!
//! ## Data layout
//!
//! All per-vertex data lives in struct-of-arrays slabs, allocated once at
//! run start and never resized:
//!
//! * a **private state slab** (`Vec<P::State>`), mutated in place and
//!   never read by anyone but its own vertex;
//! * a **published message slab** (`Vec<P::Msg>`) — the only thing
//!   [`NeighborView`](crate::NeighborView) serves — and its double
//!   buffer, into which each step writes its [`Protocol::publish`]ed
//!   message, charged its
//!   [`WireSize::wire_bits`](crate::wire::WireSize::wire_bits);
//! * output and termination-round slabs, written once per vertex;
//! * the [`ActiveSet`] bitset, whose live-word index makes per-round
//!   iteration `O(active)` rather than `O(n)` (see [`crate::active`]).
//!
//! Adjacency is read straight from the CSR graph
//! ([`Graph::neighbors`] returns a slice into the shared arrays) — the
//! engine builds no per-vertex neighbor structures of its own.
//!
//! ## Round structure
//!
//! Each round has a step phase and a retire phase. The step phase runs
//! the in-place round kernel (`kernel.rs`) over every active
//! vertex against the *previous* round's message snapshot and the bitset
//! as it stood when the round began; nothing a step can observe is
//! mutated during it, which is what makes the parallel fan-out (chunks
//! of the live-word list on scoped threads, each owning the slots of its
//! vertex range) trivially equal to the sequential path. The retire
//! phase then swaps the new messages into the visible slab, clears the
//! bits of vertices that terminated, and compacts the live-word list —
//! all in one `O(active)` sweep.
//!
//! Observers ride the same kernel: on observed runs each worker's slots
//! tally its steps and terminations per phase, and the coordinating
//! thread sums the tallies into the round's one [`RoundRecord`].
//! Property tests pin every mode, observed and unobserved, byte-identical
//! to the retained dense engine in [`crate::reference`].
//!
//! A recorded run ([`Runner::run_recorded`]) is the same loop with a
//! message log attached: the initial publishes, then in each retire
//! sweep every stepped vertex's new message in vertex order. The log is
//! round-major, so its shape follows from the termination rounds alone,
//! and [`Replay`](crate::warm::Replay) gathers it into the per-vertex
//! histories a warm start replays.
//!
//! ## Allocation discipline
//!
//! Every slab is sized at run start and the active set only shrinks, so
//! steady-state sequential rounds allocate **nothing** (the `zero_alloc`
//! integration test pins this). Thread fan-out itself allocates
//! (stacks), and a recorded run's log grows as it goes, so the zero-alloc
//! contract is a guarantee of the sequential, unrecorded path.

use crate::active::ActiveSet;
use crate::kernel::{phase_tally, Kernel, Slots};
use crate::metrics::RoundMetrics;
use crate::obs::{Metric, Registry, ShardObs};
use crate::observer::{add_tallies, NoObserver, Observer, PhaseTally, RoundRecord};
use crate::protocol::Protocol;
use graphcore::{Graph, IdAssignment};
use std::time::{Duration, Instant};

/// Default active-set size above which a parallel-mode round fans out to
/// worker threads — the [`EngineTuning`] auto-pick's ceiling. Below it,
/// thread spawn/join overhead dominates the step work of typical
/// protocols.
pub const DEFAULT_PAR_THRESHOLD: usize = 4096;

/// Engine tuning in one place: everything about *how* the engine runs a
/// protocol that does not change *what* it computes. The default is
/// all-auto — every knob resolved from the graph shape at run start:
///
/// ```
/// use simlocal::EngineTuning;
/// let tuning = EngineTuning::default()   // auto everything, or:
///     .par_threshold(512)                // fan out above 512 active
///     .workers(4);                       // on exactly 4 workers
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTuning {
    par_threshold: Option<usize>,
    workers: Option<usize>,
}

impl EngineTuning {
    /// Sets the active-set size at which parallel mode engages threads.
    /// Auto picks [`DEFAULT_PAR_THRESHOLD`], lowered for dense graphs
    /// (heavier steps amortize fan-out sooner).
    pub fn par_threshold(mut self, threshold: usize) -> Self {
        self.par_threshold = Some(threshold);
        self
    }

    /// Sets the worker-thread count for parallel rounds (min 1). Auto
    /// uses the machine's available parallelism. Forcing a count above
    /// the core count is legal — useful for exercising the parallel
    /// path deterministically on small machines. Sequential runs use one
    /// worker whatever this says.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Resolves every auto knob against the graph:
    /// `(par_threshold, workers)`. A sequential run has one worker and
    /// never asks for the core count.
    pub(crate) fn resolve(&self, g: &Graph, parallel: bool) -> (usize, usize) {
        let par_threshold = self.par_threshold.unwrap_or_else(|| {
            // Dense graphs do more work per step (neighbor walks), so
            // fan-out pays for itself at smaller active sets.
            let scale = 1.0 + g.avg_degree() / 4.0;
            ((DEFAULT_PAR_THRESHOLD as f64 / scale) as usize).clamp(256, DEFAULT_PAR_THRESHOLD)
        });
        let workers = match self.workers {
            _ if !parallel => 1,
            Some(w) => w,
            None => std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1),
        };
        (par_threshold, workers)
    }
}

/// Engine configuration, as [`Runner::config`] takes it whole; the
/// [`Runner`] builder sets each field on its own:
///
/// ```
/// use simlocal::{EngineTuning, RunConfig};
/// let cfg = RunConfig {
///     parallel: true,
///     max_rounds: Some(100),
///     tuning: EngineTuning::default().par_threshold(512),
///     ..RunConfig::seeded(7)
/// };
/// assert_eq!(cfg.seed, 7);
/// assert!(cfg.parallel);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct RunConfig {
    /// Seed for randomized protocols (ignored by deterministic ones).
    pub seed: u64,
    /// Allow rounds to fan out across threads (subject to the cutover).
    pub parallel: bool,
    /// Override the protocol's round cap (`None` = ask the protocol).
    pub max_rounds: Option<u32>,
    /// Engine tuning (par threshold, workers).
    pub tuning: EngineTuning,
}

impl RunConfig {
    /// Config with the given seed, otherwise default.
    pub fn seeded(seed: u64) -> RunConfig {
        RunConfig {
            seed,
            ..RunConfig::default()
        }
    }
}

/// What the engine itself measured about a completed run (independent of
/// any observer).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Rounds executed.
    pub rounds: u32,
    /// Total `step` invocations — equals `RoundSum(V)`; in the sparse
    /// engine this is also the total number of vertex touches and of
    /// published messages (one per step, final broadcasts included).
    pub steps: u64,
    /// Total message bits published: the sum of
    /// [`WireSize::wire_bits`](crate::wire::WireSize::wire_bits) over
    /// every published message (initial-state broadcasts excluded, final
    /// broadcasts included).
    pub msg_bits: u64,
    /// Largest single published message, in bits — the number the CONGEST
    /// audit compares against `c·log₂ n`.
    pub max_msg_bits: u64,
    /// Rounds that actually fanned out to worker threads.
    pub parallel_rounds: u32,
}

/// A completed simulation: every vertex's output, the round metrics, and
/// the engine's own run statistics.
#[derive(Clone, Debug)]
pub struct SimOutcome<O> {
    /// Final output of each vertex.
    pub outputs: Vec<O>,
    /// Termination rounds and activity series.
    pub metrics: RoundMetrics,
    /// Wall time and work accounting for the run.
    pub stats: EngineStats,
}

impl<O> SimOutcome<O> {
    /// The outcome of a completed run, built from its one per-vertex
    /// record: `stats.rounds` and `stats.steps` are derived from the
    /// termination rounds (the worst case and `RoundSum(V)`), exactly
    /// as the metrics derive the activity series. `stats` supplies the
    /// rest (wall time, wire bits, parallel rounds).
    pub(crate) fn derived(
        outputs: Vec<O>,
        termination_round: Vec<u32>,
        stats: EngineStats,
    ) -> Self {
        let metrics = RoundMetrics { termination_round };
        let stats = EngineStats {
            rounds: metrics.worst_case(),
            steps: metrics.round_sum(),
            ..stats
        };
        SimOutcome {
            outputs,
            metrics,
            stats,
        }
    }
}

/// Engine failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// Some vertices were still active after the round cap — the protocol
    /// livelocked or the cap is too tight. Carries the cap and the number
    /// of vertices still active.
    RoundLimitExceeded {
        /// The cap that was hit.
        max_rounds: u32,
        /// Vertices that had not terminated.
        still_active: usize,
    },
    /// An actor-backend run stopped making round progress — a shard
    /// crashed, a link broke, or the stall watchdog's timeout elapsed
    /// without a full round completing. Instead of hanging on the
    /// barrier, the run aborts with a per-shard diagnostic snapshot.
    Stalled {
        /// The earliest round any shard was draining when it stalled.
        round: u32,
        /// Human-readable snapshot: the guilty shard and every shard's
        /// last completed round, barrier state, and link status.
        diagnostic: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::RoundLimitExceeded {
                max_rounds,
                still_active,
            } => write!(
                f,
                "{still_active} vertices still active after {max_rounds} rounds"
            ),
            EngineError::Stalled { round, diagnostic } => {
                write!(f, "actor run stalled at round {round}: {diagnostic}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The execution entry point: borrows a protocol, a graph, and an ID
/// assignment, then runs after optional configuration.
///
/// ```
/// use simlocal::{Protocol, Runner, StepCtx, Transition};
/// use graphcore::{gen, Graph, IdAssignment, VertexId};
///
/// struct EmitId;
/// impl Protocol for EmitId {
///     type State = ();
///     type Msg = ();
///     type Output = u64;
///     fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
///     fn publish(&self, _: &()) {}
///     fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u64> {
///         Transition::Terminate((), ctx.my_id())
///     }
/// }
///
/// let g = gen::cycle(5);
/// let ids = IdAssignment::identity(5);
/// let out = Runner::new(&EmitId, &g, &ids).run().unwrap();
/// assert_eq!(out.outputs, vec![0, 1, 2, 3, 4]);
/// ```
pub struct Runner<'a, P: Protocol> {
    protocol: &'a P,
    graph: &'a Graph,
    ids: &'a IdAssignment,
    cfg: RunConfig,
    obs: Option<&'a crate::obs::Registry>,
}

impl<'a, P: Protocol> Runner<'a, P> {
    /// New runner with the default [`RunConfig`].
    pub fn new(protocol: &'a P, graph: &'a Graph, ids: &'a IdAssignment) -> Self {
        Runner {
            protocol,
            graph,
            ids,
            cfg: RunConfig::default(),
            obs: None,
        }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, cfg: RunConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the run seed (randomized protocols).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Enables parallel round execution (subject to the cutover); runs
    /// are sequential by default.
    pub fn parallel(mut self) -> Self {
        self.cfg.parallel = true;
        self
    }

    /// Overrides the protocol's round cap.
    pub fn max_rounds(mut self, cap: u32) -> Self {
        self.cfg.max_rounds = Some(cap);
        self
    }

    /// Replaces the engine tuning (par threshold, workers) in one call.
    pub fn tuning(mut self, tuning: EngineTuning) -> Self {
        self.cfg.tuning = tuning;
        self
    }

    /// Attaches a metrics registry (see [`crate::obs`]). Engine-level
    /// series land in the registry's global slots: phase laps and the
    /// round-wall histogram per round, the counts once from the
    /// completed run's [`EngineStats`]. The per-vertex hot loop is
    /// untouched.
    pub fn obs(mut self, registry: &'a crate::obs::Registry) -> Self {
        self.obs = Some(registry);
        self
    }

    /// Runs unobserved — the zero-overhead path.
    pub fn run(self) -> Result<SimOutcome<P::Output>, EngineError> {
        self.run_with(&mut NoObserver)
    }

    /// Cold run that also records the [`Replay`](crate::warm::Replay) log
    /// a later warm start replays (see [`crate::warm`]). It is
    /// [`Runner::run`] with every setting honored (parallel mode, tuning,
    /// the attached registry) and a message log attached, so its outputs,
    /// metrics and stats are the plain run's.
    pub fn run_recorded(self) -> Result<crate::warm::Recorded<P>, EngineError> {
        let mut log = Vec::new();
        let out = execute(
            self.protocol,
            self.graph,
            self.ids,
            self.cfg,
            &mut NoObserver,
            self.obs,
            Some(&mut log),
        )?;
        let replay = crate::warm::Replay::gather(&log, &out.metrics);
        Ok((out, replay))
    }

    /// Incremental re-solve after a batch of edge edits, warm-started
    /// from a prior run's replay log. Outputs are byte-identical to a
    /// cold re-solve on the edited graph; the outcome's metrics measure
    /// the update cost (see [`crate::warm`] for the propagation rule).
    pub fn run_warm(
        self,
        prior: crate::warm::WarmStart<'_, P::Msg, P::Output>,
    ) -> Result<crate::warm::WarmOutcome<P::Msg, P::Output>, EngineError> {
        crate::warm::run_warm(
            self.protocol,
            self.graph,
            self.ids,
            self.cfg,
            self.obs,
            prior,
        )
    }

    /// Runs with `observer` attached: it receives one [`RoundRecord`]
    /// per round.
    pub fn run_with<Ob: Observer>(
        self,
        observer: &mut Ob,
    ) -> Result<SimOutcome<P::Output>, EngineError> {
        execute(
            self.protocol,
            self.graph,
            self.ids,
            self.cfg,
            observer,
            self.obs,
            None,
        )
    }
}

/// Splits the live-word list into at most `workers` contiguous chunks of
/// roughly equal *work*, writing chunk boundaries (indices into `live`)
/// into `cuts`. Work per word is its population count plus the CSR
/// degree sum of its 64 vertex slots (read straight off the offsets
/// array), so degree-skewed graphs still balance. Deterministic, and
/// allocation-free once `cuts` has capacity `workers + 1`.
fn fill_balanced_cuts(
    g: &Graph,
    live: &[u32],
    words: &[u64],
    workers: usize,
    cuts: &mut Vec<usize>,
) {
    let n = g.n();
    let offsets = g.neighbor_offsets();
    let weight = |wi: u32| -> u64 {
        let lo = (wi as usize) << 6;
        let hi = (lo + 64).min(n);
        (offsets[hi] - offsets[lo]) as u64 + words[wi as usize].count_ones() as u64
    };
    let total: u64 = live.iter().map(|&wi| weight(wi)).sum();
    let target = total.div_ceil(workers as u64).max(1);
    cuts.clear();
    cuts.push(0);
    let mut acc = 0u64;
    for (i, &wi) in live.iter().enumerate() {
        acc += weight(wi);
        if acc >= target && cuts.len() < workers && i + 1 < live.len() {
            cuts.push(i + 1);
            acc = 0;
        }
    }
    cuts.push(live.len());
}

/// One fanned-out step phase: each chunk of live words steps on its own
/// scoped thread against the shared snapshot, writing only the slots and
/// `next` messages of its vertex range and its own phase tally (one per
/// worker in `tallies`). Returns the round's wire-bit total and widest
/// message.
fn step_parallel<P: Protocol, Ob: Observer>(
    kernel: &Kernel<'_, P>,
    live: &[u32],
    cuts: &[usize],
    slots: Slots<'_, P>,
    next: &mut [P::Msg],
    tallies: &mut [Vec<PhaseTally>],
) -> (u64, u64) {
    // Chunk k owns every vertex from its first live word up to the next
    // chunk's first live word, so the slab splits are disjoint.
    let (mut rest, mut rest_next) = (slots, next);
    let mut parts = Vec::with_capacity(cuts.len() - 1);
    for &cut in &cuts[1..cuts.len() - 1] {
        let at = (live[cut] as usize) << 6;
        let (next_head, next_tail) = rest_next.split_at_mut(at - rest.base);
        let (head, tail) = rest.split_at(at);
        parts.push((head, next_head));
        (rest, rest_next) = (tail, next_tail);
    }
    parts.push((rest, rest_next));
    let words = kernel.active_words;
    let bits: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .zip(cuts.windows(2))
            .zip(tallies.iter_mut())
            .map(|(((mut part, next), w), phases)| {
                let chunk = &live[w[0]..w[1]];
                scope.spawn(move || {
                    kernel.step_words::<Ob>(chunk, words, &mut part, next, phases);
                    (part.bits, part.max_bits)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("step panicked"))
            .collect()
    });
    bits.iter()
        .fold((0, 0), |(sum, max), &(s, m)| (sum + s, max.max(m)))
}

/// Adds the elapsed time since `t0` to phase counter `m` — a no-op when
/// either the obs handle or the phase mark is absent.
#[inline]
fn obs_lap(ob: Option<ShardObs<'_>>, m: Metric, t0: Option<Instant>) {
    if let (Some(o), Some(t0)) = (ob, t0) {
        o.add(m, t0.elapsed().as_nanos() as u64);
    }
}

/// The sparse-round engine body, monomorphized over the observer. With
/// `log` present it also appends every publish to it, round-major: the
/// initial publishes, then each round's in vertex order.
fn execute<P: Protocol, Ob: Observer>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
    observer: &mut Ob,
    obs: Option<&Registry>,
    mut log: Option<&mut Vec<P::Msg>>,
) -> Result<SimOutcome<P::Output>, EngineError> {
    assert_eq!(ids.len(), g.n(), "ID assignment must cover all vertices");
    let n = g.n();
    let max_rounds = cfg.max_rounds.unwrap_or_else(|| protocol.max_rounds(g));
    let (par_threshold, workers) = cfg.tuning.resolve(g, cfg.parallel);
    // Metrics handle — engine series are global (shard-agnostic), so the
    // slot-0 handle serves. Every `ob` touch in the loop below times a
    // phase, a handful of times per round and never per vertex; the
    // counts are copied from the outcome once the run completes.
    let ob = obs.map(|r| r.handle(0));
    let obs_on = ob.is_some();

    let run_t0 = Instant::now();
    // The struct-of-arrays slabs. `msgs` is the visible snapshot that
    // NeighborView serves; `msgs_next` is the kernel's write buffer.
    let mut states: Vec<P::State> = g.vertices().map(|v| protocol.init(g, ids, v)).collect();
    let mut msgs: Vec<P::Msg> = states.iter().map(|s| protocol.publish(s)).collect();
    let mut msgs_next = msgs.clone();
    if let Some(log) = log.as_deref_mut() {
        log.extend_from_slice(&msgs);
    }
    let mut outputs: Vec<Option<P::Output>> = vec![None; n];
    let mut termination_round = vec![0u32; n];
    let mut active = ActiveSet::full(n);
    let mut cuts: Vec<usize> = Vec::with_capacity(workers + 1);
    // One phase tally per worker, summed into the round's record.
    let mut tallies = vec![phase_tally::<P, Ob>(protocol); workers];
    let mut round_phases = phase_tally::<P, Ob>(protocol);
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
        let stepped = active.count();
        let round_t0 = (Ob::ENABLED || obs_on).then(Instant::now);

        let fan_out = workers > 1 && stepped >= par_threshold;
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
        let (round_bits, round_max_bits) = if fan_out {
            stats.parallel_rounds += 1;
            let scan_t0 = obs_on.then(Instant::now);
            fill_balanced_cuts(g, active.live_words(), active.words(), workers, &mut cuts);
            obs_lap(ob, Metric::EngineScanNs, scan_t0);
            let step_t0 = obs_on.then(Instant::now);
            let bits = step_parallel::<P, Ob>(
                &kernel,
                active.live_words(),
                &cuts,
                slots,
                &mut msgs_next,
                &mut tallies,
            );
            obs_lap(ob, Metric::EngineStepNs, step_t0);
            bits
        } else {
            let step_t0 = obs_on.then(Instant::now);
            let (live, words) = (active.live_words(), active.words());
            kernel.step_words::<Ob>(live, words, &mut slots, &mut msgs_next, &mut tallies[0]);
            obs_lap(ob, Metric::EngineStepNs, step_t0);
            (slots.bits, slots.max_bits)
        };

        // Retire sweep: expose the new messages (logging them on a
        // recorded run) and drop the vertices that terminated this round
        // from the active set.
        let retire_t0 = obs_on.then(Instant::now);
        active.retire(|v| {
            let vu = v as usize;
            std::mem::swap(&mut msgs[vu], &mut msgs_next[vu]);
            if let Some(log) = log.as_deref_mut() {
                log.push(msgs[vu].clone());
            }
            termination_round[vu] == round
        });
        obs_lap(ob, Metric::EngineRetireNs, retire_t0);

        stats.msg_bits += round_bits;
        stats.max_msg_bits = stats.max_msg_bits.max(round_max_bits);
        let wall = round_t0.map_or(Duration::ZERO, |t0| t0.elapsed());
        if let Some(o) = ob {
            o.observe(Metric::EngineRoundWallNs, wall.as_nanos() as u64);
        }
        if Ob::ENABLED {
            round_phases.fill(PhaseTally::default());
            for t in &mut tallies {
                add_tallies(&mut round_phases, t);
                t.fill(PhaseTally::default());
            }
            observer.on_round_end(&RoundRecord {
                round,
                active: stepped,
                msg_bits: round_bits,
                max_msg_bits: round_max_bits,
                wall,
                phases: &round_phases,
            });
        }
    }

    stats.wall = run_t0.elapsed();
    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("terminated vertex must have an output"))
        .collect();
    let out = SimOutcome::derived(outputs, termination_round, stats);
    if let Some(o) = ob {
        let s = &out.stats;
        for (m, v) in [
            (Metric::EngineRounds, s.rounds as u64),
            (Metric::EngineFastRounds, s.rounds as u64),
            (Metric::EngineParallelRounds, s.parallel_rounds as u64),
            (Metric::EngineSteps, s.steps),
            (Metric::EngineMsgBits, s.msg_bits),
        ] {
            o.add(m, v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Protocol, StepCtx, Transition};
    use crate::trace::TraceLog;
    use graphcore::{gen, Graph, IdAssignment, VertexId};
    use rand::Rng;

    /// Terminates in round 1 outputting its own ID: the trivial protocol.
    struct Instant;
    impl Protocol for Instant {
        type State = ();
        type Msg = ();
        type Output = u64;
        fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
        fn publish(&self, _: &()) {}
        fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u64> {
            Transition::Terminate((), ctx.my_id())
        }
    }

    /// Vertex v waits v rounds then outputs the round it terminated in.
    struct Staircase;
    impl Protocol for Staircase {
        type State = ();
        type Msg = ();
        type Output = u32;
        fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
        fn publish(&self, _: &()) {}
        fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u32> {
            if ctx.round > ctx.v {
                Transition::Terminate((), ctx.round)
            } else {
                Transition::Continue(())
            }
        }
    }

    /// Flood-max: publish the largest ID seen; terminate after `rounds`.
    struct FloodMax {
        rounds: u32,
    }
    impl Protocol for FloodMax {
        type State = u64;
        type Msg = u64;
        type Output = u64;
        fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u64 {
            ids.id(v)
        }
        fn publish(&self, s: &u64) -> u64 {
            *s
        }
        fn step(&self, ctx: StepCtx<'_, u64>) -> Transition<u64, u64> {
            let best = ctx
                .view
                .neighbors()
                .map(|(_, &s)| s)
                .chain([*ctx.state])
                .max()
                .unwrap();
            if ctx.round >= self.rounds {
                Transition::Terminate(best, best)
            } else {
                Transition::Continue(best)
            }
        }
    }

    /// Never terminates — must hit the round cap.
    struct Livelock;
    impl Protocol for Livelock {
        type State = ();
        type Msg = ();
        type Output = ();
        fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
        fn publish(&self, _: &()) {}
        fn step(&self, _: StepCtx<'_, ()>) -> Transition<(), ()> {
            Transition::Continue(())
        }
        fn max_rounds(&self, _: &Graph) -> u32 {
            10
        }
    }

    /// Coin-flip terminator: exercises the RNG plumbing.
    struct CoinFlip;
    impl Protocol for CoinFlip {
        type State = ();
        type Msg = ();
        type Output = u32;
        fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
        fn publish(&self, _: &()) {}
        fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u32> {
            if ctx.rng().gen_bool(0.5) {
                Transition::Terminate((), ctx.round)
            } else {
                Transition::Continue(())
            }
        }
    }

    fn ids(n: usize) -> IdAssignment {
        IdAssignment::identity(n)
    }

    /// Tuning that forces genuine thread fan-out on every round, even on
    /// a single-core machine.
    fn fan_out_tuning() -> EngineTuning {
        EngineTuning::default().par_threshold(1).workers(4)
    }

    #[test]
    fn instant_protocol_metrics() {
        let g = gen::cycle(5);
        let out = Runner::new(&Instant, &g, &ids(5)).run().unwrap();
        assert_eq!(out.metrics.worst_case(), 1);
        assert_eq!(out.metrics.vertex_averaged(), 1.0);
        assert_eq!(out.outputs, vec![0, 1, 2, 3, 4]);
        out.metrics.check_identities().unwrap();
    }

    #[test]
    fn staircase_round_counts() {
        let g = gen::path(4);
        let out = Runner::new(&Staircase, &g, &ids(4)).run().unwrap();
        assert_eq!(out.metrics.termination_round, vec![1, 2, 3, 4]);
        assert_eq!(out.metrics.active_per_round(), vec![4, 3, 2, 1]);
        assert_eq!(out.metrics.round_sum(), 10);
        out.metrics.check_identities().unwrap();
    }

    #[test]
    fn engine_work_equals_round_sum() {
        let g = gen::path(6);
        let out = Runner::new(&Staircase, &g, &ids(6)).run().unwrap();
        assert_eq!(out.stats.steps, out.metrics.round_sum());
        assert_eq!(out.stats.rounds, out.metrics.worst_case());
        assert_eq!(out.stats.msg_bits, 0, "() messages cost zero wire bits");
        assert_eq!(out.stats.max_msg_bits, 0);
        assert_eq!(out.stats.parallel_rounds, 0);
    }

    #[test]
    fn flood_max_converges_on_path() {
        let g = gen::path(3);
        let out = Runner::new(&FloodMax { rounds: 3 }, &g, &ids(3))
            .run()
            .unwrap();
        assert_eq!(out.outputs, vec![2, 2, 2]);
        // Three rounds × three vertices × 64-bit messages.
        assert_eq!(out.stats.msg_bits, 9 * 64);
        assert_eq!(out.stats.max_msg_bits, 64);
    }

    #[test]
    fn terminated_neighbor_message_stays_readable() {
        // Vertex 0 terminates in round 1; vertex 1 reads 0's final message
        // in round 2 without 0 being stepped again.
        struct ReadsDead;
        impl Protocol for ReadsDead {
            type State = u32;
            type Msg = u32;
            type Output = u32;
            fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> u32 {
                0
            }
            fn publish(&self, s: &u32) -> u32 {
                *s
            }
            fn step(&self, ctx: StepCtx<'_, u32>) -> Transition<u32, u32> {
                if ctx.v == 0 {
                    return Transition::Terminate(77, 77);
                }
                if ctx.view.is_terminated(0) {
                    Transition::Terminate(0, *ctx.view.msg_of(0))
                } else {
                    Transition::Continue(0)
                }
            }
        }
        let g = gen::path(2);
        let out = Runner::new(&ReadsDead, &g, &ids(2)).run().unwrap();
        assert_eq!(out.outputs[1], 77);
        assert_eq!(out.metrics.termination_round, vec![1, 2]);
    }

    #[test]
    fn private_state_is_not_what_neighbors_see() {
        // The state/wire split: state carries a private counter that never
        // reaches the wire; the message only carries the public value.
        // Neighbors must see the projection, and the engine must charge
        // only the message's bits.
        #[derive(Clone)]
        struct S {
            public: u32,
            _scratch: [u64; 8], // 64 bytes of private scratch
        }
        struct Split;
        impl Protocol for Split {
            type State = S;
            type Msg = u32;
            type Output = u32;
            fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> S {
                S {
                    public: ids.id(v) as u32,
                    _scratch: [0; 8],
                }
            }
            fn publish(&self, s: &S) -> u32 {
                s.public
            }
            fn step(&self, ctx: StepCtx<'_, S, u32>) -> Transition<S, u32> {
                let sum: u32 = ctx.view.neighbors().map(|(_, &m)| m).sum();
                if ctx.round == 2 {
                    Transition::Terminate(ctx.state.clone(), sum)
                } else {
                    Transition::Continue(S {
                        public: sum,
                        _scratch: [99; 8],
                    })
                }
            }
        }
        let g = gen::path(3);
        let out = Runner::new(&Split, &g, &ids(3)).run().unwrap();
        // Round 1 messages: ids 0,1,2 → round-1 sums 1,2,1 published.
        // Round 2 reads those sums: outputs 2, 0+… = [2, 2, 2]? Compute:
        // v0 reads v1's msg 2 → 2; v1 reads 1+1=2; v2 reads v1's 2 → 2.
        assert_eq!(out.outputs, vec![2, 2, 2]);
        // Six steps, each publishing a 32-bit message — the 64-byte
        // scratch never hits the wire.
        assert_eq!(out.stats.msg_bits, 6 * 32);
        assert_eq!(out.stats.max_msg_bits, 32);
    }

    #[test]
    fn livelock_reports_error() {
        let g = gen::cycle(4);
        let err = Runner::new(&Livelock, &g, &ids(4)).run().unwrap_err();
        assert_eq!(
            err,
            EngineError::RoundLimitExceeded {
                max_rounds: 10,
                still_active: 4
            }
        );
        assert!(err.to_string().contains("still active"));
    }

    #[test]
    fn max_rounds_override_wins() {
        let g = gen::cycle(4);
        let err = Runner::new(&Livelock, &g, &ids(4))
            .max_rounds(3)
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::RoundLimitExceeded {
                max_rounds: 3,
                still_active: 4
            }
        );
    }

    #[test]
    fn parallel_equals_sequential_deterministic() {
        let g = gen::grid(6, 7);
        let n = g.n();
        let seq = Runner::new(&Staircase, &g, &ids(n)).run().unwrap();
        // Forced workers + threshold 1: genuine fan-out on every round,
        // even on one core.
        let par = Runner::new(&Staircase, &g, &ids(n))
            .parallel()
            .tuning(fan_out_tuning())
            .run()
            .unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.metrics, par.metrics);
        assert_eq!(seq.stats.steps, par.stats.steps);
        assert!(par.stats.parallel_rounds > 0, "cutover at 1 must fan out");
    }

    #[test]
    fn parallel_equals_sequential_randomized() {
        let g = gen::cycle(64);
        let seq = Runner::new(&CoinFlip, &g, &ids(64))
            .seed(1234)
            .run()
            .unwrap();
        let par = Runner::new(&CoinFlip, &g, &ids(64))
            .seed(1234)
            .parallel()
            .tuning(fan_out_tuning())
            .run()
            .unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.metrics, par.metrics);
        assert!(par.stats.parallel_rounds > 0);
    }

    #[test]
    fn adaptive_cutover_keeps_small_rounds_sequential() {
        let g = gen::cycle(16);
        let out = Runner::new(&Staircase, &g, &ids(16))
            .parallel()
            .tuning(EngineTuning::default().par_threshold(1000).workers(4))
            .run()
            .unwrap();
        assert_eq!(
            out.stats.parallel_rounds, 0,
            "active set never reaches threshold"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let g = gen::cycle(64);
        let a = Runner::new(&CoinFlip, &g, &ids(64)).seed(1).run().unwrap();
        let b = Runner::new(&CoinFlip, &g, &ids(64)).seed(2).run().unwrap();
        assert_ne!(a.metrics.termination_round, b.metrics.termination_round);
    }

    #[test]
    fn empty_graph_runs() {
        let g = graphcore::GraphBuilder::new(0).build();
        let out = Runner::new(&Instant, &g, &ids(0)).run().unwrap();
        assert_eq!(out.metrics.n(), 0);
        assert_eq!(out.metrics.worst_case(), 0);
        assert_eq!(out.stats.rounds, 0);
        assert_eq!(out.stats.steps, 0);
    }

    #[test]
    fn telemetry_matches_engine_accounting() {
        let g = gen::path(5);
        let mut t = TraceLog::new();
        let out = Runner::new(&FloodMax { rounds: 2 }, &g, &ids(5))
            .run_with(&mut t)
            .unwrap();
        let active: Vec<usize> = t.records().map(|r| r.active).collect();
        assert_eq!(active, out.metrics.active_per_round());
        assert_eq!(t.steps(), out.stats.steps);
        let bits = t.records().map(|r| r.msg_bits);
        assert_eq!(bits.sum::<u64>(), out.stats.msg_bits);
        let widest = t.records().map(|r| r.max_msg_bits).max();
        assert_eq!(widest, Some(out.stats.max_msg_bits));
        assert_eq!(t.rounds(), out.stats.rounds);
        // Every vertex terminates exactly once, in its recorded round.
        for (i, r) in t.records().enumerate() {
            let ended = out.metrics.termination_round.iter();
            let ended = ended.filter(|&&tr| tr as usize == i + 1).count();
            assert_eq!(r.terminations(), ended as u64);
        }
        assert_eq!(t.terminations(), 5);
    }

    #[test]
    fn config_builder_reaches_engine() {
        let g = gen::cycle(8);
        let cfg = RunConfig {
            parallel: false,
            tuning: EngineTuning::default().par_threshold(123),
            ..RunConfig::seeded(9)
        };
        let out = Runner::new(&CoinFlip, &g, &ids(8))
            .config(cfg)
            .run()
            .unwrap();
        let again = Runner::new(&CoinFlip, &g, &ids(8)).seed(9).run().unwrap();
        assert_eq!(out.outputs, again.outputs);
    }

    #[test]
    fn auto_tuning_resolves_from_graph_shape() {
        let sparse = gen::cycle(1000);
        let (threshold, workers) = EngineTuning::default().resolve(&sparse, true);
        assert!(threshold <= DEFAULT_PAR_THRESHOLD);
        assert!(threshold >= 256);
        assert!(workers >= 1);
        // Denser graph → lower threshold (heavier steps amortize sooner).
        let dense = gen::clique(64);
        let (dense_threshold, _) = EngineTuning::default().resolve(&dense, true);
        assert!(dense_threshold <= threshold);
        // Explicit settings win over auto.
        let forced = EngineTuning::default().par_threshold(7).workers(3);
        assert_eq!(forced.resolve(&sparse, true), (7, 3));
        // A sequential run has one worker, auto or forced.
        assert_eq!(forced.resolve(&sparse, false), (7, 1));
        let auto = EngineTuning::default().resolve(&sparse, false);
        assert_eq!(auto, (threshold, 1));
    }
}
