//! The actor backend: vertex shards exchanging messages over a
//! [`Transport`], pinned byte-identical to the sync engine.
//!
//! Where [`crate::engine`] iterates one shared slab, this backend splits
//! the vertex set into contiguous **shards**, each owned by its own
//! thread. A shard holds the private states of its vertices and a full
//! mirror of the published-message slab; each round it steps its active
//! vertices against that mirror, broadcasts one [`Batch`] of published
//! messages, and then *drains*: the [`RoundBarrier`] releases round
//! `r + 1` only once every live shard's round-`r` batch has been received
//! and applied. A shard whose last vertex terminates marks its final
//! batch `retiring`, deregistering from the barrier — peers stop
//! expecting batches from it, so per-round traffic and work stay
//! proportional to the active set, the same sparsity contract the sync
//! engine keeps.
//!
//! ## Byte-identity
//!
//! A step is a pure function of `(state, previous-round messages,
//! active-set snapshot, round, seed)` — randomness comes from the
//! per-`(seed, vertex, round)` stream in [`crate::rng`] — and the barrier
//! hands every shard exactly the sync engine's snapshot: messages as
//! published at the end of round `r - 1`, activity as it stood when round
//! `r` began. Outputs, termination rounds, and wire accounting therefore
//! merge into a [`SimOutcome`] equal field-for-field to the sync engine's
//! (`parallel_rounds` excepted — it describes sync-engine thread fan-out
//! and reads 0 here), which the property tests in
//! `tests/actor_backend.rs` pin across transports and shard counts. Both
//! engines step through the same round kernel (`kernel.rs`); only
//! the iteration (a shard's owned active list) and the snapshot (the
//! shard's mirror) differ.
//!
//! ## Initial messages
//!
//! Every processor is assumed to know the graph and ID assignment, so
//! each shard derives the *round-1* message of every vertex locally from
//! [`Protocol::init`] + [`Protocol::publish`] instead of exchanging an
//! extra round-0 batch — matching the sync engine, which charges initial
//! broadcasts zero wire bits.
//!
//! ## Failure semantics and the stall watchdog
//!
//! Shards are fail-stop. A shard that panics (or, over TCP, whose socket
//! drops) before retiring cannot satisfy the barrier; peers detect this
//! as a transport `Lost` event for a still-live shard — or, where link
//! loss is invisible, as a stalled `recv` after the watchdog timeout
//! ([`crate::transport::RECV_STALL_TIMEOUT`], tightened per run with
//! [`ActorRunner::stall_timeout`]). Either way the drain returns a
//! [`BarrierStall`] instead of hanging, the shard exits with its partial
//! state, and the merge turns the per-shard snapshots (last completed
//! round, barrier state, link status, crash payloads) into one
//! [`EngineError::Stalled`] naming the guilty shard. A shard thread that
//! never returns at all (a livelocked `step`) is beyond an in-process
//! watchdog's reach — fail-stop plus slow is the covered class.
//! Round-cap exhaustion is not a failure of this kind: every live shard
//! hits the cap at the same round (they advance in lockstep), stops
//! without broadcasting, and reports its local still-active count; the
//! merge sums them into the same [`EngineError::RoundLimitExceeded`] the
//! sync engine returns.
//!
//! ## Observers
//!
//! The observer sees the run on the coordinating thread *after* it ends:
//! on observed runs each shard logs one [`RoundRecord`] per round it
//! stepped — its active count, wire bits and per-phase tallies — in a
//! [`TraceLog`], and the merge sums the shards' records round by round
//! into the sync engine's records. They match it exactly, except per-round wall times, which
//! are the slowest shard's step time here. Failed runs (round cap)
//! still hand over the rounds that completed, like the sync engine's
//! as-you-go hook. A shard's records cost `O(rounds × phases)` memory;
//! unobserved runs record nothing.

use crate::active::{clear_bit, full_words};
use crate::engine::{EngineError, EngineStats, RunConfig, SimOutcome};
use crate::kernel::{phase_tally, Kernel, Slots};
use crate::obs::{Metric, Registry};
use crate::observer::{add_tallies, NoObserver, Observer, PhaseTally, RoundRecord};
use crate::protocol::Protocol;
use crate::trace::TraceLog;
use crate::transport::{
    channel_mesh, tcp_loopback_mesh, Batch, Recv, Transport, TransportStats, Update,
};
use crate::wire::WireCodec;
use graphcore::{Graph, IdAssignment, VertexId};
use std::time::{Duration, Instant};

/// Why a shard's barrier drain stopped making progress — the raw
/// material of the watchdog diagnostic in [`EngineError::Stalled`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierStall {
    /// Round being drained when progress stopped.
    pub round: u32,
    /// The transport-level event behind the stall.
    pub kind: StallKind,
    /// Live peers whose round-`round` batch had not arrived (peers
    /// already buffered one round ahead are excluded — they are not
    /// the ones holding the barrier).
    pub missing: Vec<usize>,
}

/// The transport-level event behind a [`BarrierStall`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// Nothing arrived within the stall timeout — a peer is wedged or
    /// slow past the watchdog's patience.
    Timeout,
    /// This live peer's link dropped before it retired (a crashed
    /// shard, detected by link loss rather than silence).
    PeerLost(usize),
    /// Every incoming link closed while batches were still owed.
    Closed,
}

impl std::fmt::Display for StallKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StallKind::Timeout => write!(f, "recv timed out"),
            StallKind::PeerLost(p) => write!(f, "link to shard {p} lost before it retired"),
            StallKind::Closed => write!(f, "every incoming link closed"),
        }
    }
}

/// Releases round `r + 1` only when every live shard's round-`r` batch
/// has been received and applied, and tracks which shards have retired.
///
/// Peers run at most one round ahead (they cannot finish round `r`
/// without this shard's round-`r` batch), so a batch for `round + 1` may
/// arrive mid-drain and is buffered; anything further ahead is a protocol
/// violation.
pub struct RoundBarrier<M> {
    live: Vec<bool>,
    pending: Vec<Option<Batch<M>>>,
    /// Which peers delivered their batch in the current drain — what
    /// lets a stall report name exactly who is being waited on.
    seen: Vec<bool>,
}

impl<M> RoundBarrier<M> {
    /// Barrier for shard `me` in a `shards`-way mesh: every other shard
    /// starts live.
    pub fn new(shards: usize, me: usize) -> RoundBarrier<M> {
        let mut live = vec![true; shards];
        live[me] = false;
        RoundBarrier {
            live,
            pending: (0..shards).map(|_| None).collect(),
            seen: vec![false; shards],
        }
    }

    /// Shards still expected to publish next round.
    pub fn live_peers(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Which shards are live, indexed by shard id (never this one). Read
    /// at the start of round `r`, these are exactly the peers whose last
    /// round is ≥ `r` — the ones this shard's round-`r` batch goes to.
    pub fn live(&self) -> &[bool] {
        &self.live
    }

    /// Receives until every live shard's round-`round` batch has been
    /// handed to `apply`, buffering one-round-ahead arrivals and marking
    /// retiring shards dead for subsequent rounds.
    ///
    /// Genuine failures — a recv timeout, a live peer's link dropping
    /// before it retired, every link closing with batches still owed —
    /// return a [`BarrierStall`] so the engine's watchdog can abort with
    /// a diagnostic instead of hanging. Protocol *violations* (a batch
    /// from a retired shard, a peer running two rounds ahead) still
    /// panic: they are bugs, not runtime conditions.
    pub fn drain<T: Transport<M>>(
        &mut self,
        transport: &mut T,
        round: u32,
        mut apply: impl FnMut(Batch<M>),
    ) -> Result<(), BarrierStall> {
        let mut need = self.live_peers();
        self.seen.iter_mut().for_each(|s| *s = false);
        for slot in &mut self.pending {
            if slot.as_ref().is_some_and(|b| b.round == round) {
                let b = slot.take().expect("checked above");
                need -= 1;
                self.seen[b.from] = true;
                if b.retiring {
                    self.live[b.from] = false;
                }
                apply(b);
            }
        }
        while need > 0 {
            match transport.recv() {
                Recv::Batch(b) => {
                    assert!(
                        self.live[b.from],
                        "batch from retired shard {} in round {round}",
                        b.from
                    );
                    if b.round == round {
                        need -= 1;
                        self.seen[b.from] = true;
                        if b.retiring {
                            self.live[b.from] = false;
                        }
                        apply(b);
                    } else if b.round == round + 1 {
                        let prev = self.pending[b.from].replace(b);
                        assert!(prev.is_none(), "peer ran two rounds ahead of the barrier");
                    } else {
                        panic!(
                            "round-{} batch while draining round {round}: barrier violated",
                            b.round
                        );
                    }
                }
                // A closed link is clean when the peer already retired —
                // or when its retiring batch sits buffered one round
                // ahead: per-peer FIFO means everything it owed this
                // round arrived before that batch, so the shard finished
                // its last round and left while we were still draining
                // this one. A live shard vanishing otherwise is a crash.
                Recv::Lost(p) => {
                    let clean =
                        !self.live[p] || self.pending[p].as_ref().is_some_and(|b| b.retiring);
                    if !clean {
                        return Err(self.stall(round, StallKind::PeerLost(p)));
                    }
                }
                Recv::Closed => return Err(self.stall(round, StallKind::Closed)),
                Recv::Stalled => return Err(self.stall(round, StallKind::Timeout)),
            }
        }
        Ok(())
    }

    fn stall(&self, round: u32, kind: StallKind) -> BarrierStall {
        let missing = (0..self.live.len())
            .filter(|&p| self.live[p] && !self.seen[p] && self.pending[p].is_none())
            .collect();
        BarrierStall {
            round,
            kind,
            missing,
        }
    }
}

/// Balanced contiguous vertex ranges, one per shard: the first `n % k`
/// shards own one extra vertex. Contiguity is what lets the merge
/// recover global vertex order by concatenating shard results in shard
/// order.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<(VertexId, VertexId)> {
    let base = n / shards;
    let extra = n % shards;
    let mut lo = 0usize;
    (0..shards)
        .map(|s| {
            let len = base + usize::from(s < extra);
            let range = (lo as VertexId, (lo + len) as VertexId);
            lo += len;
            range
        })
        .collect()
}

/// What one shard hands back to the merge.
struct ShardResult<P: Protocol> {
    outputs: Vec<Option<P::Output>>,
    term: Vec<u32>,
    msg_bits: u64,
    max_msg_bits: u64,
    /// `Some(count)` when the shard hit the round cap with `count`
    /// vertices still active.
    still_active: Option<usize>,
    /// `Some` when the shard's barrier drain failed — the watchdog
    /// snapshot the merge folds into [`EngineError::Stalled`].
    stalled: Option<BarrierStall>,
    /// Last round this shard fully completed (broadcast and drained).
    last_round: u32,
    /// The transport's tallies, read at retirement (before lingering).
    transport: TransportStats,
    /// Peer retirements the barrier had registered when this shard
    /// retired.
    deregistered: u64,
    /// One record per round this shard stepped, over its own vertices
    /// (observed runs only).
    log: TraceLog,
}

impl<P: Protocol> ShardResult<P> {
    /// Records the retired shard `sid`'s counts into its registry slots,
    /// once per completed run: its rounds, its steps (the sum of its
    /// vertices' termination rounds), its wire bits, its retirement and
    /// deregistrations, and its transport's tallies.
    fn record(&self, reg: &Registry, sid: usize) {
        let t = &self.transport;
        for (m, v) in [
            (Metric::ActorRounds, self.last_round as u64),
            (
                Metric::ActorSteps,
                self.term.iter().map(|&r| r as u64).sum(),
            ),
            (Metric::ActorMsgBits, self.msg_bits),
            (Metric::ActorRetire, 1),
            (Metric::ActorDeregister, self.deregistered),
            (Metric::TransportBatchesOut, t.batches_out),
            (Metric::TransportBatchesIn, t.batches_in),
            (Metric::TransportEntriesOut, t.entries_out),
            (Metric::TransportEntriesIn, t.entries_in),
            (Metric::TransportBytesOut, t.bytes_out),
            (Metric::TransportBytesIn, t.bytes_in),
            (Metric::TransportFramesIn, t.frames_in),
        ] {
            reg.add(m, sid, v);
        }
        reg.set(Metric::TransportInboxDepth, sid, t.inbox_depth);
    }
}

/// The per-shard worker: owns `lo..hi`, mirrors the rest.
#[allow(clippy::too_many_arguments)]
fn shard_main<P: Protocol, Ob: Observer, T: Transport<P::Msg>>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
    sid: usize,
    shards: usize,
    lo: VertexId,
    hi: VertexId,
    mut transport: T,
    obs: Option<&Registry>,
) -> ShardResult<P> {
    let ob = obs.map(|r| r.handle(sid));
    let max_rounds = cfg.max_rounds.unwrap_or_else(|| protocol.max_rounds(g));
    // Derive every vertex's initial message locally (init is pure), keep
    // private states only for owned vertices.
    let mut all: Vec<P::State> = g.vertices().map(|v| protocol.init(g, ids, v)).collect();
    let mut msgs: Vec<P::Msg> = all.iter().map(|s| protocol.publish(s)).collect();
    let mut states: Vec<P::State> = all.drain(lo as usize..hi as usize).collect();
    drop(all);
    let mut active_words = full_words(g.n());
    let mut active: Vec<VertexId> = (lo..hi).collect();
    let mut result = ShardResult::<P> {
        outputs: vec![None; states.len()],
        term: vec![0; states.len()],
        msg_bits: 0,
        max_msg_bits: 0,
        still_active: None,
        stalled: None,
        last_round: 0,
        transport: TransportStats::default(),
        deregistered: 0,
        log: TraceLog::new(),
    };
    let mut phases = phase_tally::<P, Ob>(protocol);
    let mut barrier = RoundBarrier::new(shards, sid);
    // A retiring shard's final tallies, taken before it lingers.
    let retire = |result: &mut ShardResult<P>, barrier: &RoundBarrier<P::Msg>, t: &T| {
        result.transport = t.stats();
        result.deregistered = (shards - 1 - barrier.live_peers()) as u64;
    };

    if active.is_empty() {
        // Nothing to own (more shards than vertices): deregister from the
        // barrier immediately — peers consume this at their round 1.
        transport.broadcast(
            Batch {
                from: sid,
                round: 1,
                retiring: true,
                entries: Vec::new(),
            },
            barrier.live(),
        );
        retire(&mut result, &barrier, &transport);
        transport.linger();
        return result;
    }

    let mut round: u32 = 0;
    loop {
        round += 1;
        if round > max_rounds {
            // Live shards advance in lockstep, so every one of them stops
            // here in the same round without broadcasting; the merge sums
            // the local counts into the sync engine's error.
            result.still_active = Some(active.len());
            return result;
        }
        let round_t0 = Ob::ENABLED.then(Instant::now);
        let compute_t0 = ob.is_some().then(Instant::now);
        // Step phase: the round kernel steps owned active vertices
        // against the mirror snapshot, writing owned slots only.
        let kernel = Kernel {
            protocol,
            graph: g,
            ids,
            msgs: &msgs,
            active_words: &active_words,
            round,
            seed: cfg.seed,
        };
        let mut slots = Slots::new(
            lo as usize,
            &mut states,
            &mut result.outputs,
            &mut result.term,
        );
        let mut entries: Vec<Update<P::Msg>> = active
            .iter()
            .map(|&v| Update {
                v,
                msg: kernel.step::<Ob>(v, &mut slots, &mut phases),
                terminated: false,
            })
            .collect();
        let (round_bits, round_max) = (slots.bits, slots.max_bits);
        result.msg_bits += round_bits;
        result.max_msg_bits = result.max_msg_bits.max(round_max);
        if let Some(t0) = round_t0 {
            result.log.on_round_end(&RoundRecord {
                round,
                active: active.len(),
                msg_bits: round_bits,
                max_msg_bits: round_max,
                wall: t0.elapsed(),
                phases: &phases,
            });
            phases.fill(PhaseTally::default());
        }

        // Retire phase, local half: fold this shard's fresh messages into
        // the mirror; terminated vertices leave the activity snapshot.
        for e in &mut entries {
            e.terminated = result.term[(e.v - lo) as usize] == round;
            msgs[e.v as usize] = e.msg.clone();
            if e.terminated {
                clear_bit(&mut active_words, e.v);
            }
        }
        active.retain(|&v| result.term[(v - lo) as usize] != round);
        let retiring = active.is_empty();
        transport.broadcast(
            Batch {
                from: sid,
                round,
                retiring,
                entries,
            },
            barrier.live(),
        );
        if let (Some(o), Some(t0)) = (&ob, compute_t0) {
            let ns = t0.elapsed().as_nanos() as u64;
            o.add(Metric::ActorComputeNs, ns);
            o.observe(Metric::ActorComputeHistNs, ns);
        }
        if retiring {
            // Deregistered: peers stop expecting batches from this shard,
            // and whatever they publish from here on is irrelevant to it
            // — but leave gracefully so nothing in flight is lost.
            result.last_round = round;
            retire(&mut result, &barrier, &transport);
            transport.linger();
            return result;
        }
        // Retire phase, remote half: the barrier hands over every live
        // peer's round-`round` batch before round `round + 1` may begin.
        let wait_t0 = ob.is_some().then(Instant::now);
        let drained = barrier.drain(&mut transport, round, |batch| {
            for e in batch.entries {
                msgs[e.v as usize] = e.msg;
                if e.terminated {
                    clear_bit(&mut active_words, e.v);
                }
            }
        });
        if let (Some(o), Some(t0)) = (&ob, wait_t0) {
            let ns = t0.elapsed().as_nanos() as u64;
            o.add(Metric::ActorBarrierWaitNs, ns);
            o.observe(Metric::ActorBarrierWaitHistNs, ns);
        }
        if let Err(stall) = drained {
            // Watchdog: hand the partial state back instead of hanging —
            // the merge builds the diagnostic.
            result.stalled = Some(stall);
            return result;
        }
        result.last_round = round;
    }
}

/// Best-effort text of a thread panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Folds per-shard failure snapshots into one [`EngineError::Stalled`]:
/// names the guilty shard (a crashed one outright, otherwise the peer
/// most shards were waiting on) and lists every shard's last completed
/// round, barrier state, and link status.
fn stall_error<P: Protocol>(joined: &[Result<ShardResult<P>, String>]) -> EngineError {
    let shards = joined.len();
    let mut missed = vec![0usize; shards];
    let mut round = u32::MAX;
    for res in joined.iter().flatten() {
        if let Some(stall) = &res.stalled {
            round = round.min(stall.round);
            for &p in &stall.missing {
                if p < shards {
                    missed[p] += 1;
                }
            }
        }
    }
    if round == u32::MAX {
        // No shard recorded a stall round (e.g. every shard crashed):
        // report the round after the furthest completed one.
        round = joined
            .iter()
            .flatten()
            .map(|r| r.last_round)
            .max()
            .unwrap_or(0)
            + 1;
    }
    let guilty = joined
        .iter()
        .position(|r| r.is_err())
        .or_else(|| {
            missed
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .max_by_key(|&(_, &c)| c)
                .map(|(p, _)| p)
        })
        .map(|p| format!("shard {p}"))
        .unwrap_or_else(|| "an unidentified shard".to_string());
    let lines: Vec<String> = joined
        .iter()
        .enumerate()
        .map(|(sid, r)| match r {
            Err(msg) => format!("shard {sid}: crashed ({msg})"),
            Ok(res) => {
                let state = match (&res.stalled, res.still_active) {
                    (Some(stall), _) => format!(
                        "stalled draining round {} ({}; awaiting {:?})",
                        stall.round, stall.kind, stall.missing
                    ),
                    (None, Some(n)) => format!("hit the round cap with {n} active"),
                    (None, None) => "retired cleanly".to_string(),
                };
                format!(
                    "shard {sid}: last completed round {}, {state}",
                    res.last_round
                )
            }
        })
        .collect();
    EngineError::Stalled {
        round,
        diagnostic: format!(
            "{guilty} stopped the run; per-shard state: [{}]",
            lines.join("; ")
        ),
    }
}

/// Hands `observer` one record per round, summed over the shard logs
/// that recorded it (every shard steps rounds 1 through its last): counts
/// add, the widest message and the wall time are the shards' largest.
fn merge_rounds<'l, Ob: Observer>(logs: impl Iterator<Item = &'l TraceLog>, observer: &mut Ob) {
    let mut shard_rounds: Vec<_> = logs.map(TraceLog::records).collect();
    let mut phases = Vec::new();
    loop {
        let mut parts = shard_rounds.iter_mut().filter_map(Iterator::next);
        let Some(mut record) = parts.next() else {
            return;
        };
        phases.clear();
        phases.extend_from_slice(record.phases);
        for part in parts {
            record.active += part.active;
            record.msg_bits += part.msg_bits;
            record.max_msg_bits = record.max_msg_bits.max(part.max_msg_bits);
            record.wall = record.wall.max(part.wall);
            add_tallies(&mut phases, part.phases);
        }
        observer.on_round_end(&RoundRecord {
            phases: &phases,
            ..record
        });
    }
}

/// Runs the shard workers on scoped threads and merges their results into
/// the sync engine's `SimOutcome` shape.
fn run_actors<P: Protocol, Ob: Observer, T: Transport<P::Msg>>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    cfg: RunConfig,
    observer: &mut Ob,
    obs: Option<&Registry>,
    endpoints: Vec<T>,
) -> Result<SimOutcome<P::Output>, EngineError> {
    assert_eq!(ids.len(), g.n(), "ID assignment must cover all vertices");
    let run_t0 = Instant::now();
    let shards = endpoints.len();
    let ranges = shard_ranges(g.n(), shards);
    let max_rounds = cfg.max_rounds.unwrap_or_else(|| protocol.max_rounds(g));

    // Join errors become per-shard crash records, not propagated panics:
    // a crashed shard is exactly the failure the watchdog exists to
    // diagnose (its peers will have stalled waiting on it).
    let joined: Vec<Result<ShardResult<P>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(&ranges)
            .enumerate()
            .map(|(sid, (tr, &(lo, hi)))| {
                scope.spawn(move || {
                    shard_main::<P, Ob, T>(protocol, g, ids, cfg, sid, shards, lo, hi, tr, obs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|p| panic_message(p.as_ref())))
            .collect()
    });
    if joined.iter().any(|r| match r {
        Err(_) => true,
        Ok(res) => res.stalled.is_some(),
    }) {
        return Err(stall_error(&joined));
    }
    let results: Vec<ShardResult<P>> = joined
        .into_iter()
        .map(|r| r.expect("crash handled above"))
        .collect();

    // Runs even when the round cap was hit — the sync engine's hook
    // fires as-you-go, so completed rounds must be visible either way.
    merge_rounds(results.iter().map(|res| &res.log), observer);

    let still_active: usize = results.iter().filter_map(|r| r.still_active).sum();
    if results.iter().any(|r| r.still_active.is_some()) {
        return Err(EngineError::RoundLimitExceeded {
            max_rounds,
            still_active,
        });
    }
    if let Some(reg) = obs {
        for (sid, res) in results.iter().enumerate() {
            res.record(reg, sid);
        }
    }

    let mut stats = EngineStats::default();
    let mut outputs: Vec<P::Output> = Vec::with_capacity(g.n());
    let mut termination_round: Vec<u32> = Vec::with_capacity(g.n());
    for res in results {
        stats.msg_bits += res.msg_bits;
        stats.max_msg_bits = stats.max_msg_bits.max(res.max_msg_bits);
        termination_round.extend(res.term);
        outputs.extend(
            res.outputs
                .into_iter()
                .map(|o| o.expect("terminated vertex must have an output")),
        );
    }
    stats.wall = run_t0.elapsed();
    Ok(SimOutcome::derived(outputs, termination_round, stats))
}

/// Execution entry point for the actor backend — the [`Runner`]
/// (crate::Runner) shape, plus a shard count and a transport choice:
///
/// ```
/// use simlocal::asyncengine::ActorRunner;
/// use simlocal::{Protocol, StepCtx, Transition};
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
/// let out = ActorRunner::new(&EmitId, &g, &ids).shards(2).run().unwrap();
/// assert_eq!(out.outputs, vec![0, 1, 2, 3, 4]);
/// ```
///
/// `run`/`run_with` exchange batches over in-process channels and work
/// for every protocol; `run_tcp`/`run_tcp_with` move them through a
/// loopback TCP mesh and additionally require `Protocol::Msg:
/// WireCodec`. `RunConfig::parallel` and the engine tuning knobs are
/// sync-engine concerns and are ignored here; `seed` and `max_rounds`
/// apply unchanged.
pub struct ActorRunner<'a, P: Protocol> {
    protocol: &'a P,
    graph: &'a Graph,
    ids: &'a IdAssignment,
    cfg: RunConfig,
    shards: usize,
    stall_timeout: Option<Duration>,
    obs: Option<&'a Registry>,
}

impl<'a, P: Protocol> ActorRunner<'a, P> {
    /// New actor runner with the default [`RunConfig`] and auto shard
    /// count (the machine's available parallelism).
    pub fn new(protocol: &'a P, graph: &'a Graph, ids: &'a IdAssignment) -> Self {
        ActorRunner {
            protocol,
            graph,
            ids,
            cfg: RunConfig::default(),
            shards: 0,
            stall_timeout: None,
            obs: None,
        }
    }

    /// Tightens the stall watchdog: how long a shard may sit at the
    /// round barrier with nothing arriving before the run aborts with
    /// [`EngineError::Stalled`] and a per-shard diagnostic (default
    /// [`RECV_STALL_TIMEOUT`](crate::transport::RECV_STALL_TIMEOUT)).
    pub fn stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Attaches a metrics registry ([`crate::obs`]): shard threads
    /// time compute vs barrier wait per round, and a completed run
    /// copies each shard's rounds, steps, wire bits and transport I/O
    /// into its per-shard slots once. The registry must be sized for at
    /// least the resolved shard count. Outcomes are byte-identical with
    /// or without a registry (proptest-pinned).
    pub fn obs(mut self, registry: &'a Registry) -> Self {
        self.obs = Some(registry);
        self
    }

    /// Sets the shard count; `0` restores the auto pick. The outcome is
    /// byte-identical for every shard count — only concurrency changes.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
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

    /// Overrides the protocol's round cap.
    pub fn max_rounds(mut self, cap: u32) -> Self {
        self.cfg.max_rounds = Some(cap);
        self
    }

    /// Shard count after resolving auto and clamping to the vertex count
    /// (extra shards would only ever send one empty retiring batch).
    fn resolved_shards(&self) -> usize {
        let want = if self.shards == 0 {
            std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1)
        } else {
            self.shards
        };
        want.clamp(1, self.graph.n().max(1))
    }

    /// Runs over in-process channels, unobserved.
    pub fn run(self) -> Result<SimOutcome<P::Output>, EngineError> {
        self.run_with(&mut NoObserver)
    }

    /// Runs over in-process channels with `observer` attached (it
    /// receives the merged round records after the run — see module
    /// docs).
    pub fn run_with<Ob: Observer>(
        self,
        observer: &mut Ob,
    ) -> Result<SimOutcome<P::Output>, EngineError> {
        let mut mesh = channel_mesh::<P::Msg>(self.resolved_shards());
        if let Some(t) = self.stall_timeout {
            for tr in &mut mesh {
                tr.set_stall_timeout(t);
            }
        }
        run_actors::<P, Ob, _>(
            self.protocol,
            self.graph,
            self.ids,
            self.cfg,
            observer,
            self.obs,
            mesh,
        )
    }

    /// Runs over a loopback TCP mesh (length-prefixed [`WireCodec`]
    /// frames), unobserved.
    ///
    /// # Panics
    /// On socket setup failure (bind/connect/accept on 127.0.0.1).
    pub fn run_tcp(self) -> Result<SimOutcome<P::Output>, EngineError>
    where
        P::Msg: WireCodec + 'static,
    {
        self.run_tcp_with(&mut NoObserver)
    }

    /// Runs over a loopback TCP mesh with `observer` attached.
    ///
    /// # Panics
    /// On socket setup failure (bind/connect/accept on 127.0.0.1).
    pub fn run_tcp_with<Ob: Observer>(
        self,
        observer: &mut Ob,
    ) -> Result<SimOutcome<P::Output>, EngineError>
    where
        P::Msg: WireCodec + 'static,
    {
        let mut mesh = tcp_loopback_mesh::<P::Msg>(self.resolved_shards())
            .expect("loopback TCP mesh setup failed");
        if let Some(t) = self.stall_timeout {
            for tr in &mut mesh {
                tr.set_stall_timeout(t);
            }
        }
        run_actors::<P, Ob, _>(
            self.protocol,
            self.graph,
            self.ids,
            self.cfg,
            observer,
            self.obs,
            mesh,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Runner;
    use crate::protocol::{StepCtx, Transition};
    use crate::trace::testing::counts;
    use crate::trace::TraceLog;
    use graphcore::gen;

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

    /// Flood-max over u64 IDs; terminates after a fixed round count.
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

    fn ids(n: usize) -> IdAssignment {
        IdAssignment::identity(n)
    }

    #[test]
    fn ranges_are_balanced_and_cover() {
        assert_eq!(shard_ranges(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(shard_ranges(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
        assert_eq!(shard_ranges(0, 2), vec![(0, 0), (0, 0)]);
    }

    #[test]
    fn matches_sync_engine_across_shard_counts() {
        let g = gen::grid(6, 7);
        let n = g.n();
        let sync = Runner::new(&Staircase, &g, &ids(n)).run().unwrap();
        for shards in [1, 3, 8] {
            let actor = ActorRunner::new(&Staircase, &g, &ids(n))
                .shards(shards)
                .run()
                .unwrap();
            assert_eq!(actor.outputs, sync.outputs, "{shards} shards");
            assert_eq!(actor.metrics, sync.metrics, "{shards} shards");
            assert_eq!(actor.stats.steps, sync.stats.steps);
            assert_eq!(actor.stats.rounds, sync.stats.rounds);
        }
    }

    #[test]
    fn more_shards_than_vertices() {
        let g = gen::path(3);
        let out = ActorRunner::new(&Staircase, &g, &ids(3))
            .shards(64)
            .run()
            .unwrap();
        assert_eq!(out.metrics.termination_round, vec![1, 2, 3]);
    }

    /// The transport tallies a run must report, derived from its
    /// termination rounds: shard `s` sends its round-`r` batch (its
    /// vertices still active in round `r`) to every peer whose last round
    /// is ≥ `r`. A shard's last round is its vertices' latest termination
    /// round (1 for a shard that owns nothing: it sends one empty round-1
    /// batch).
    fn expected_sends(term: &[u32], shards: usize) -> (u64, u64) {
        let ranges = shard_ranges(term.len(), shards);
        let own = |s: usize| &term[ranges[s].0 as usize..ranges[s].1 as usize];
        let last: Vec<u32> = (0..shards)
            .map(|s| own(s).iter().copied().max().unwrap_or(1))
            .collect();
        let (mut batches, mut entries) = (0, 0);
        for s in 0..shards {
            for r in 1..=last[s] {
                let peers = (0..shards).filter(|&p| p != s && last[p] >= r).count() as u64;
                batches += peers;
                entries += peers * own(s).iter().filter(|&&t| t >= r).count() as u64;
            }
        }
        (batches, entries)
    }

    #[test]
    fn transport_counts_follow_from_termination_rounds() {
        // Staircase shards retire one after another, so every round's
        // live set differs; a shard's last batch races its peers' exits.
        // The counts must not depend on that race, on either transport.
        // The runner caps the shard count at n, hence `(3, 5)` runs 3.
        for (n, shards) in [(13, 1), (13, 3), (13, 4), (3, 5)] {
            let (g, ids) = (gen::path(n), ids(n));
            for tcp in [false, true] {
                for _ in 0..3 {
                    let reg = Registry::new(shards);
                    let runner = ActorRunner::new(&Staircase, &g, &ids)
                        .shards(shards)
                        .obs(&reg);
                    let out = if tcp { runner.run_tcp() } else { runner.run() }.unwrap();
                    assert_eq!(
                        (
                            reg.total(Metric::TransportBatchesOut),
                            reg.total(Metric::TransportEntriesOut)
                        ),
                        expected_sends(&out.metrics.termination_round, shards.min(n)),
                        "n={n} shards={shards} tcp={tcp}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_graph_runs() {
        let g = graphcore::GraphBuilder::new(0).build();
        let out = ActorRunner::new(&Staircase, &g, &ids(0))
            .shards(2)
            .run()
            .unwrap();
        assert_eq!(out.metrics.n(), 0);
        assert_eq!(out.stats.rounds, 0);
    }

    #[test]
    fn wire_accounting_matches_sync() {
        let g = gen::grid(5, 5);
        let n = g.n();
        let sync = Runner::new(&FloodMax { rounds: 4 }, &g, &ids(n))
            .run()
            .unwrap();
        let actor = ActorRunner::new(&FloodMax { rounds: 4 }, &g, &ids(n))
            .shards(4)
            .run()
            .unwrap();
        assert_eq!(actor.stats.msg_bits, sync.stats.msg_bits);
        assert_eq!(actor.stats.max_msg_bits, sync.stats.max_msg_bits);
        assert_eq!(actor.stats.steps, sync.stats.steps);
    }

    #[test]
    fn round_cap_error_matches_sync() {
        let g = gen::cycle(4);
        let sync = Runner::new(&Livelock, &g, &ids(4)).run().unwrap_err();
        let actor = ActorRunner::new(&Livelock, &g, &ids(4))
            .shards(2)
            .run()
            .unwrap_err();
        assert_eq!(actor, sync);
        assert_eq!(
            actor,
            EngineError::RoundLimitExceeded {
                max_rounds: 10,
                still_active: 4
            }
        );
    }

    #[test]
    fn telemetry_replay_matches_sync_observer() {
        let g = gen::grid(4, 5);
        let n = g.n();
        let mut sync_t = TraceLog::new();
        let sync = Runner::new(&Staircase, &g, &ids(n))
            .run_with(&mut sync_t)
            .unwrap();
        let mut actor_t = TraceLog::new();
        let actor = ActorRunner::new(&Staircase, &g, &ids(n))
            .shards(3)
            .run_with(&mut actor_t)
            .unwrap();
        assert_eq!(actor.outputs, sync.outputs);
        // The merged records carry everything the sync engine's do but
        // the machine-dependent wall time: per-round active, bits and
        // per-phase steps and terminations.
        assert_eq!(counts(&actor_t), counts(&sync_t));
        let active: Vec<usize> = sync_t.records().map(|r| r.active).collect();
        assert_eq!(active, sync.metrics.active_per_round());
        assert_eq!(sync_t.terminations(), n as u64);
    }

    #[test]
    fn tcp_loopback_matches_channels() {
        let g = gen::grid(4, 4);
        let n = g.n();
        let chan = ActorRunner::new(&FloodMax { rounds: 3 }, &g, &ids(n))
            .shards(3)
            .run()
            .unwrap();
        let tcp = ActorRunner::new(&FloodMax { rounds: 3 }, &g, &ids(n))
            .shards(3)
            .run_tcp()
            .unwrap();
        assert_eq!(tcp.outputs, chan.outputs);
        assert_eq!(tcp.metrics, chan.metrics);
        assert_eq!(tcp.stats.msg_bits, chan.stats.msg_bits);
        assert_eq!(tcp.stats.max_msg_bits, chan.stats.max_msg_bits);
    }

    #[test]
    fn barrier_buffers_one_round_ahead() {
        // Direct barrier exercise: peer 1's round-2 batch arrives while
        // round 1 is still draining peer 2.
        struct Scripted {
            queue: std::collections::VecDeque<Recv<u64>>,
        }
        impl Transport<u64> for Scripted {
            fn broadcast(&mut self, _: Batch<u64>, _: &[bool]) {}
            fn recv(&mut self) -> Recv<u64> {
                self.queue.pop_front().expect("script exhausted")
            }
        }
        let b = |from: usize, round: u32, retiring: bool| Batch::<u64> {
            from,
            round,
            retiring,
            entries: Vec::new(),
        };
        let mut tr = Scripted {
            queue: [
                Recv::Batch(b(1, 1, false)),
                Recv::Batch(b(1, 2, true)),
                Recv::Batch(b(2, 1, true)),
                Recv::Lost(2),
            ]
            .into(),
        };
        let mut barrier = RoundBarrier::<u64>::new(3, 0);
        assert_eq!(barrier.live(), [false, true, true]);
        let mut seen = Vec::new();
        barrier
            .drain(&mut tr, 1, |b| seen.push((b.from, b.round)))
            .unwrap();
        assert_eq!(seen, vec![(1, 1), (2, 1)]);
        assert_eq!(barrier.live_peers(), 1, "shard 2 retired at round 1");
        // Shard 1's retiring round-2 batch is only buffered: it is still
        // owed this shard's round-2 batch.
        assert_eq!(barrier.live(), [false, true, false]);
        barrier
            .drain(&mut tr, 2, |b| seen.push((b.from, b.round)))
            .unwrap();
        assert_eq!(
            seen,
            vec![(1, 1), (2, 1), (1, 2)],
            "buffered batch consumed"
        );
        assert_eq!(barrier.live_peers(), 0);
        // With no live peers the barrier needs nothing — and must not recv.
        barrier
            .drain(&mut tr, 3, |_| panic!("no live peers"))
            .unwrap();
    }

    #[test]
    fn barrier_turns_failures_into_stall_reports() {
        struct Scripted {
            queue: std::collections::VecDeque<Recv<u64>>,
        }
        impl Transport<u64> for Scripted {
            fn broadcast(&mut self, _: Batch<u64>, _: &[bool]) {}
            fn recv(&mut self) -> Recv<u64> {
                self.queue.pop_front().expect("script exhausted")
            }
        }
        // A live peer's link dropping before it retired is a stall, and
        // the report names exactly the peers still owed this round.
        let mut tr = Scripted {
            queue: [Recv::Lost(1)].into(),
        };
        let mut barrier = RoundBarrier::<u64>::new(2, 0);
        let err = barrier.drain(&mut tr, 1, |_| {}).unwrap_err();
        assert_eq!(err.kind, StallKind::PeerLost(1));
        assert_eq!(err.round, 1);
        assert_eq!(err.missing, vec![1]);
        // A recv timeout reports every live peer still owed.
        let mut tr = Scripted {
            queue: [Recv::Stalled].into(),
        };
        let mut barrier = RoundBarrier::<u64>::new(3, 0);
        let err = barrier.drain(&mut tr, 2, |_| {}).unwrap_err();
        assert_eq!(err.kind, StallKind::Timeout);
        assert_eq!(err.missing, vec![1, 2]);
        // A peer that already delivered is not "missing".
        let b = Batch::<u64> {
            from: 1,
            round: 3,
            retiring: false,
            entries: Vec::new(),
        };
        let mut tr = Scripted {
            queue: [Recv::Batch(b), Recv::Stalled].into(),
        };
        let mut barrier = RoundBarrier::<u64>::new(3, 0);
        let err = barrier.drain(&mut tr, 3, |_| {}).unwrap_err();
        assert_eq!(err.missing, vec![2]);
    }
}
