//! The sparse engine is an optimization, not a semantics change: across
//! graph families, seeds, and execution modes it must produce outcomes
//! identical to the retained naive engine (`simlocal::reference`), and
//! its observer must see exactly one record per round, whose per-phase
//! tallies match what the steps themselves saw.

use graphcore::{gen, Graph, IdAssignment, VertexId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simlocal::{
    run_reference, ActorRunner, EngineTuning, NoObserver, Observer, PhaseId, PhaseTally, Protocol,
    RoundRecord, Runner, SimOutcome, StepCtx, TraceLog, Transition, WireCodec,
};
use std::sync::Mutex;
use std::time::Duration;

/// Tuning that forces genuine thread fan-out on every round, regardless
/// of the host's core count.
fn fan_out() -> EngineTuning {
    EngineTuning::default().par_threshold(1).workers(4)
}

/// Randomized geometric decay: each vertex terminates with probability
/// 1/2 per round, outputting its termination round — the canonical
/// fast-decay workload (active set halves every round in expectation).
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

/// Deterministic neighbor-reading protocol: flood the maximum ID for a
/// few rounds, then everyone outputs the best seen. Exercises the
/// published-state buffer (every step reads neighbors).
struct FloodMax;
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
        if ctx.round >= 4 {
            Transition::Terminate(best, best)
        } else {
            Transition::Continue(best)
        }
    }
}

/// Mixed-lifetime protocol that reads *terminated* neighbors: a vertex
/// retires once its index-parity round arrives and a terminated neighbor
/// (if any) has been observed — staggers terminations across rounds and
/// checks the final-broadcast semantics.
struct Stagger;
impl Protocol for Stagger {
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
        let dead = ctx.view.terminated_neighbors().count() as u32;
        if ctx.round > ctx.v % 7 {
            Transition::Terminate(dead, ctx.round + dead)
        } else {
            Transition::Continue(dead)
        }
    }
    // Phase attribution for the observer tests: rounds entered before
    // any neighbor died vs. after.
    fn phase_names(&self) -> &'static [&'static str] {
        &["quiet", "draining"]
    }
    fn phase_of(&self, state: &u32) -> PhaseId {
        (*state > 0) as PhaseId
    }
}

/// A phase that goes back and forth, as `rand_delta_plus_one`'s
/// undecided ↔ proposed does: each round a vertex proposes or stays
/// idle on a coin, and a proposing vertex terminates on a second coin.
struct Blink;
impl Protocol for Blink {
    type State = u8;
    type Msg = u8;
    type Output = u32;
    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> u8 {
        0
    }
    fn publish(&self, s: &u8) -> u8 {
        *s
    }
    fn step(&self, ctx: StepCtx<'_, u8>) -> Transition<u8, u32> {
        let mut rng = ctx.rng();
        if *ctx.state == 1 && rng.gen_bool(0.5) {
            Transition::Terminate(1, ctx.round)
        } else {
            Transition::Continue(rng.gen_bool(0.5) as u8)
        }
    }
    fn phase_names(&self) -> &'static [&'static str] {
        &["idle", "proposed"]
    }
    fn phase_of(&self, state: &u8) -> PhaseId {
        *state
    }
}

/// Wraps a protocol and records, from inside `step`, the round, the
/// phase of the state the vertex entered it with, and whether it
/// terminated — the oracle the engines' per-phase tallies must match.
struct Oracle<'p, P> {
    inner: &'p P,
    seen: Mutex<Vec<(u32, PhaseId, bool)>>,
}

impl<'p, P> Oracle<'p, P> {
    fn new(inner: &'p P) -> Self {
        Oracle {
            inner,
            seen: Mutex::new(Vec::new()),
        }
    }

    /// What the steps saw, as per-round, per-phase tallies.
    fn tallies(self, phases: usize) -> Vec<Vec<PhaseTally>> {
        let mut out: Vec<Vec<PhaseTally>> = Vec::new();
        for (round, phase, terminated) in self.seen.into_inner().unwrap() {
            let r = round as usize - 1;
            if out.len() <= r {
                out.resize(r + 1, vec![PhaseTally::default(); phases]);
            }
            out[r][phase as usize].steps += 1;
            out[r][phase as usize].terminations += u64::from(terminated);
        }
        out
    }
}

impl<P: Protocol> Protocol for Oracle<'_, P> {
    type State = P::State;
    type Msg = P::Msg;
    type Output = P::Output;
    fn init(&self, g: &Graph, ids: &IdAssignment, v: VertexId) -> P::State {
        self.inner.init(g, ids, v)
    }
    fn publish(&self, s: &P::State) -> P::Msg {
        self.inner.publish(s)
    }
    fn step(&self, ctx: StepCtx<'_, P::State, P::Msg>) -> Transition<P::State, P::Output> {
        let (round, phase) = (ctx.round, self.inner.phase_of(ctx.state));
        let t = self.inner.step(ctx);
        let terminated = matches!(t, Transition::Terminate(..));
        self.seen.lock().unwrap().push((round, phase, terminated));
        t
    }
    fn phase_names(&self) -> &'static [&'static str] {
        self.inner.phase_names()
    }
    fn phase_of(&self, s: &P::State) -> PhaseId {
        self.inner.phase_of(s)
    }
}

/// A protocol whose wire is narrower than its state: the private state
/// carries a visit counter and heap scratch that never travel; the
/// published message is a trimmed enum with a variable-width (heap)
/// payload in one variant. Exercises the split slabs, the exact
/// `WireSize` accounting, and neighbor reads of a non-state message.
struct SplitWire;

#[derive(Clone)]
struct SplitState {
    level: u32,
    visits: u32,       // private: number of times this vertex stepped
    scratch: Vec<u64>, // private: grows every round, must never be charged
}

#[derive(Clone, Debug, PartialEq)]
enum SplitMsg {
    Probe { level: u32 },
    Done { level: u32, path: Vec<u32> },
}

impl simlocal::WireSize for SplitMsg {
    fn wire_bits(&self) -> u64 {
        match self {
            SplitMsg::Probe { level } => 1 + level.wire_bits(),
            SplitMsg::Done { level, path } => 1 + level.wire_bits() + path.wire_bits(),
        }
    }
}

impl Protocol for SplitWire {
    type State = SplitState;
    type Msg = SplitMsg;
    type Output = u32;
    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) -> SplitState {
        SplitState {
            level: 0,
            visits: 0,
            scratch: Vec::new(),
        }
    }
    fn publish(&self, s: &SplitState) -> SplitMsg {
        if s.visits > s.level {
            SplitMsg::Done {
                level: s.level,
                path: vec![s.level; (s.level % 3) as usize],
            }
        } else {
            SplitMsg::Probe { level: s.level }
        }
    }
    fn step(&self, ctx: StepCtx<'_, SplitState, SplitMsg>) -> Transition<SplitState, u32> {
        let max_nb_level = ctx
            .view
            .neighbors()
            .map(|(_, m)| match m {
                SplitMsg::Probe { level } => *level,
                SplitMsg::Done { level, .. } => *level + 1,
            })
            .max()
            .unwrap_or(0);
        let mut s = ctx.state.clone();
        s.level = s.level.max(max_nb_level);
        s.visits += 1;
        s.scratch.push(ctx.round as u64); // private heap growth
        if ctx.round > ctx.v % 5 {
            let out = s.level;
            s.visits = s.level + 1; // publish a Done message on the way out
            Transition::Terminate(s, out)
        } else {
            Transition::Continue(s)
        }
    }
}

/// Messages that own heap data: each vertex publishes a variable-length
/// `Vec<u64>` trail of the values it has seen. Pins the retire sweep's
/// swap of a fresh message into the visible slab — a stale or aliased
/// buffer would show up as a wrong neighbor read.
struct HeapTrail;
impl Protocol for HeapTrail {
    type State = Vec<u64>;
    type Msg = Vec<u64>;
    type Output = u64;
    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> Vec<u64> {
        vec![ids.id(v); (v % 3) as usize + 1]
    }
    fn publish(&self, s: &Vec<u64>) -> Vec<u64> {
        s.clone()
    }
    fn step(&self, ctx: StepCtx<'_, Vec<u64>>) -> Transition<Vec<u64>, u64> {
        let seen: u64 = ctx
            .view
            .neighbors()
            .map(|(_, m)| {
                m.iter()
                    .fold(m.len() as u64, |a, &x| a.wrapping_mul(31) ^ x)
            })
            .fold(0, u64::wrapping_add);
        let mut s = ctx.state.clone();
        s.truncate(3);
        s.push(seen);
        if ctx.round > ctx.v % 4 + 1 {
            Transition::Terminate(s, seen)
        } else {
            Transition::Continue(s)
        }
    }
}

/// A log's records with the machine-dependent wall time zeroed: every
/// count a round record carries.
fn counts(log: &TraceLog) -> Vec<RoundRecord<'_>> {
    let counted = |r| RoundRecord {
        wall: Duration::ZERO,
        ..r
    };
    log.records().map(counted).collect()
}

/// The engines an observer can ride.
#[derive(Clone, Copy, Debug)]
enum Engine {
    Sequential,
    FannedOut,
    ActorChannels,
    ActorTcp,
}

fn run_on<P, Ob>(engine: Engine, p: &P, g: &Graph, seed: u64, ob: &mut Ob) -> SimOutcome<P::Output>
where
    P: Protocol,
    P::Msg: WireCodec + 'static,
    Ob: Observer,
{
    let ids = IdAssignment::identity(g.n());
    let actor = || ActorRunner::new(p, g, &ids).seed(seed).shards(3);
    match engine {
        Engine::Sequential => Runner::new(p, g, &ids).seed(seed).run_with(ob),
        Engine::FannedOut => Runner::new(p, g, &ids)
            .seed(seed)
            .parallel()
            .tuning(fan_out())
            .run_with(ob),
        Engine::ActorChannels => actor().run_with(ob),
        Engine::ActorTcp => actor().run_tcp_with(ob),
    }
    .unwrap()
}

/// On each engine, the observer's records split every round by phase
/// exactly as the steps saw it from inside (the [`Oracle`]), one record
/// per round: `active` is the activity series, the terminations sum to
/// `n`, and the observed outcome equals the unobserved one.
fn assert_records_match_oracle<P>(p: &P, g: &Graph, seed: u64, engines: &[Engine])
where
    P: Protocol,
    P::Msg: WireCodec + 'static,
    P::Output: PartialEq + std::fmt::Debug,
{
    let phases = p.phase_names().len();
    for &engine in engines {
        let oracle = Oracle::new(p);
        let mut log = TraceLog::with_phases(p.phase_names());
        let out = run_on(engine, &oracle, g, seed, &mut log);
        let recorded: Vec<Vec<PhaseTally>> = log.records().map(|r| r.phases.to_vec()).collect();
        assert_eq!(
            recorded,
            oracle.tallies(phases),
            "{engine:?}: per-phase tallies"
        );
        let rounds: Vec<u32> = log.records().map(|r| r.round).collect();
        assert_eq!(
            rounds,
            (1..=out.stats.rounds).collect::<Vec<_>>(),
            "{engine:?}"
        );
        let active: Vec<usize> = log.records().map(|r| r.active).collect();
        assert_eq!(active, out.metrics.active_per_round(), "{engine:?}: active");
        assert_eq!(log.terminations(), g.n() as u64, "{engine:?}: terminations");
        let plain = run_on(engine, p, g, seed, &mut NoObserver);
        assert_eq!(plain.outputs, out.outputs, "{engine:?}: observed outputs");
        assert_eq!(plain.metrics, out.metrics, "{engine:?}: observed metrics");
    }
}

/// A graph from one of four families, chosen by `pick`.
fn family_graph(pick: u8, n: usize, a: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match pick % 4 {
        0 => gen::forest_union(n, a, &mut rng).graph,
        1 => gen::gnp(n, 3.0 / n as f64, &mut rng).graph,
        2 => gen::cycle(n.max(3)),
        _ => gen::grid(3, n.div_ceil(3).max(2)),
    }
}

fn assert_outcomes_identical<P>(p: &P, g: &Graph, seed: u64)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let ids = IdAssignment::identity(g.n());
    let sparse = Runner::new(p, g, &ids).seed(seed).run().unwrap();
    let par = Runner::new(p, g, &ids)
        .seed(seed)
        .parallel()
        .tuning(fan_out())
        .run()
        .unwrap();
    let dense = run_reference(p, g, &ids, seed).unwrap();
    // Observed runs step through the same in-place kernel as unobserved
    // ones (tallying phases as they go): attaching an observer must not
    // change a byte — wire stats included — sequentially or under real
    // fan-out.
    let mut seq_t = TraceLog::new();
    let observed = Runner::new(p, g, &ids)
        .seed(seed)
        .run_with(&mut seq_t)
        .unwrap();
    let mut par_t = TraceLog::new();
    let observed_par = Runner::new(p, g, &ids)
        .seed(seed)
        .parallel()
        .tuning(fan_out())
        .run_with(&mut par_t)
        .unwrap();
    for (label, other) in [("observed", &observed), ("observed-par", &observed_par)] {
        assert_eq!(sparse.outputs, other.outputs, "{label} outputs");
        assert_eq!(sparse.metrics, other.metrics, "{label} metrics");
        assert_eq!(sparse.stats.steps, other.stats.steps, "{label} steps");
        assert_eq!(sparse.stats.msg_bits, other.stats.msg_bits, "{label} bits");
        assert_eq!(
            sparse.stats.max_msg_bits, other.stats.max_msg_bits,
            "{label} max bits"
        );
    }
    // Per-round active, bits, max bits and per-phase tallies.
    assert_eq!(counts(&seq_t), counts(&par_t), "per-round records");
    assert_eq!(sparse.outputs, dense.outputs, "sparse vs reference outputs");
    assert_eq!(sparse.metrics, dense.metrics, "sparse vs reference metrics");
    assert_eq!(sparse.outputs, par.outputs, "seq vs par outputs");
    assert_eq!(sparse.metrics, par.metrics, "seq vs par metrics");
    assert_eq!(sparse.stats.steps, par.stats.steps, "seq vs par work");
    // One step — and one published message — per active vertex-round:
    // total steps equal RoundSum in every mode.
    assert_eq!(sparse.stats.steps, sparse.metrics.round_sum());
    assert_eq!(par.stats.steps, sparse.metrics.round_sum());
    // The dense engine publishes the same messages (its metrics match
    // above) but touches n per round.
    assert_eq!(dense.stats.rounds, sparse.stats.rounds);
    assert_eq!(dense.stats.rounds as u64 * g.n() as u64, dense.stats.steps);
    // Wire accounting is part of the engine contract: total and peak
    // message bits must be identical in every execution mode.
    assert_eq!(
        sparse.stats.msg_bits, dense.stats.msg_bits,
        "seq vs dense bits"
    );
    assert_eq!(sparse.stats.msg_bits, par.stats.msg_bits, "seq vs par bits");
    assert_eq!(
        sparse.stats.max_msg_bits, dense.stats.max_msg_bits,
        "seq vs dense max bits"
    );
    assert_eq!(
        sparse.stats.max_msg_bits, par.stats.max_msg_bits,
        "seq vs par max bits"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn coinflip_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        a in 1usize..4,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, a, gseed);
        assert_outcomes_identical(&CoinFlip, &g, seed);
    }

    #[test]
    fn floodmax_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        gseed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, 2, gseed);
        assert_outcomes_identical(&FloodMax, &g, 0);
    }

    #[test]
    fn stagger_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        gseed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, 2, gseed);
        assert_outcomes_identical(&Stagger, &g, 0);
    }

    #[test]
    fn splitwire_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        gseed in any::<u64>(),
    ) {
        // The Msg ≠ State protocol: trimmed heap-payload messages must
        // not change outcomes or accounting across engines.
        let g = family_graph(pick, n, 2, gseed);
        assert_outcomes_identical(&SplitWire, &g, 0);
    }

    #[test]
    fn heap_messages_identical_across_engines(
        pick in any::<u8>(),
        n in 4usize..120,
        gseed in any::<u64>(),
    ) {
        // Msg = Vec<u64>: messages that own heap data retire by swap.
        let g = family_graph(pick, n, 2, gseed);
        assert_outcomes_identical(&HeapTrail, &g, 0);
    }

    #[test]
    fn per_round_wire_totals_identical_seq_and_par(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
    ) {
        // Per-round WireSize totals (not just run totals) are identical
        // between sequential and parallel execution.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let mut seq = TraceLog::new();
        Runner::new(&SplitWire, &g, &ids).run_with(&mut seq).unwrap();
        let mut par = TraceLog::new();
        Runner::new(&SplitWire, &g, &ids)
            .parallel()
            .tuning(fan_out())
            .run_with(&mut par)
            .unwrap();
        prop_assert_eq!(counts(&seq), counts(&par));
    }

    #[test]
    fn traced_equals_untraced_with_split_wire(
        pick in any::<u8>(),
        n in 4usize..80,
        gseed in any::<u64>(),
    ) {
        // Tracing must not perturb the split engine: outputs, metrics,
        // and wire accounting identical with and without observers.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let plain = Runner::new(&SplitWire, &g, &ids).run().unwrap();
        let mut obs = TraceLog::new();
        let traced = Runner::new(&SplitWire, &g, &ids).run_with(&mut obs).unwrap();
        prop_assert_eq!(&plain.outputs, &traced.outputs);
        prop_assert_eq!(&plain.metrics, &traced.metrics);
        prop_assert_eq!(plain.stats.msg_bits, traced.stats.msg_bits);
        prop_assert_eq!(plain.stats.max_msg_bits, traced.stats.max_msg_bits);
        let bits = obs.records().map(|r| r.msg_bits);
        prop_assert_eq!(bits.sum::<u64>(), plain.stats.msg_bits);
        let widest = obs.records().map(|r| r.max_msg_bits).max();
        prop_assert_eq!(widest.unwrap_or(0), plain.stats.max_msg_bits);
    }

    #[test]
    fn round_records_match_in_step_oracle(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // The parallel engine and the actor shards *execute* steps out of
        // order, but each round's per-phase steps and terminations must
        // be what the steps saw — for a phase that only moves forward
        // (Stagger) and for one that goes back and forth (Blink).
        let g = family_graph(pick, n, 2, gseed);
        let engines = [Engine::Sequential, Engine::FannedOut, Engine::ActorChannels];
        assert_records_match_oracle(&Stagger, &g, seed, &engines);
        assert_records_match_oracle(&Blink, &g, seed, &engines);
    }

    #[test]
    fn hook_totals_match_engine_accounting(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // Σ active == Σ phase steps == RoundSum, and each round's
        // terminations are the vertices whose termination round it is.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let mut obs = TraceLog::new();
        let out = Runner::new(&CoinFlip, &g, &ids).seed(seed).run_with(&mut obs).unwrap();
        prop_assert_eq!(obs.steps(), out.metrics.round_sum());
        prop_assert_eq!(out.stats.steps, out.metrics.round_sum());
        let phase_steps: u64 = obs.records().flat_map(|r| r.phases).map(|t| t.steps).sum();
        prop_assert_eq!(phase_steps, out.metrics.round_sum());
        for r in obs.records() {
            let ended = out.metrics.termination_round.iter().filter(|&&t| t == r.round);
            prop_assert_eq!(r.terminations(), ended.count() as u64);
        }
        prop_assert_eq!(obs.terminations(), g.n() as u64);
    }

    #[test]
    fn tracing_observer_preserves_engine_equivalence(
        pick in any::<u8>(),
        n in 4usize..80,
        gseed in any::<u64>(),
    ) {
        // Attaching the full tracing stack must not perturb outcomes:
        // a traced sparse run still matches the dense reference engine
        // byte-for-byte, and the trace totals match the engine's.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let mut obs = TraceLog::with_phases(Stagger.phase_names());
        let traced = Runner::new(&Stagger, &g, &ids).run_with(&mut obs).unwrap();
        let dense = run_reference(&Stagger, &g, &ids, 0).unwrap();
        prop_assert_eq!(&traced.outputs, &dense.outputs);
        prop_assert_eq!(&traced.metrics, &dense.metrics);
        prop_assert_eq!(obs.steps(), traced.metrics.round_sum());
        prop_assert_eq!(obs.terminations() as usize, g.n());
        prop_assert_eq!(obs.rounds(), traced.stats.rounds);
    }

    #[test]
    fn telemetry_series_match_metrics(n in 4usize..100, seed in any::<u64>()) {
        let g = gen::cycle(n.max(3));
        let ids = IdAssignment::identity(g.n());
        let mut t = TraceLog::new();
        let out = Runner::new(&CoinFlip, &g, &ids).seed(seed).run_with(&mut t).unwrap();
        let active: Vec<usize> = t.records().map(|r| r.active).collect();
        prop_assert_eq!(&active, &out.metrics.active_per_round());
        prop_assert_eq!(active.iter().sum::<usize>() as u64, out.metrics.round_sum());
        prop_assert_eq!(t.terminations() as usize, g.n());
    }

    #[test]
    fn derived_series_matches_trace_events(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // The activity series is derived from termination rounds, not
        // pushed per round: it must equal each round record's active
        // count and its per-phase steps — sync sequential, sync fanned
        // out, and the actor backend over channels.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let mut seq = TraceLog::new();
        let out_seq = Runner::new(&Stagger, &g, &ids).seed(seed).run_with(&mut seq).unwrap();
        let mut par = TraceLog::new();
        let out_par = Runner::new(&Stagger, &g, &ids)
            .seed(seed)
            .parallel()
            .tuning(fan_out())
            .run_with(&mut par)
            .unwrap();
        let mut actor = TraceLog::new();
        let out_actor = ActorRunner::new(&Stagger, &g, &ids)
            .seed(seed)
            .shards(3)
            .run_with(&mut actor)
            .unwrap();
        for (label, log, out) in [
            ("seq", &seq, &out_seq),
            ("par", &par, &out_par),
            ("actor", &actor, &out_actor),
        ] {
            let (mut active, mut steps) = (Vec::new(), Vec::new());
            for (i, r) in log.records().enumerate() {
                prop_assert_eq!(r.round as usize, i + 1, "{}", label);
                active.push(r.active);
                steps.push(r.phases.iter().map(|t| t.steps as usize).sum::<usize>());
            }
            let series = out.metrics.active_per_round();
            prop_assert_eq!(&active, &series, "{}: record active", label);
            prop_assert_eq!(&steps, &series, "{}: phase steps per round", label);
            prop_assert_eq!(out.stats.rounds as usize, series.len(), "{}: rounds", label);
            prop_assert!(out.metrics.check_identities().is_ok(), "{}", label);
        }
    }
}

#[test]
fn observer_hooks_fire_exactly_per_contract() {
    let g = gen::grid(4, 5);
    let ids = IdAssignment::identity(g.n());
    let mut obs = TraceLog::with_phases(Stagger.phase_names());
    let out = Runner::new(&Stagger, &g, &ids).run_with(&mut obs).unwrap();

    // One record per round, in order, with the active-set size and one
    // tally per named phase.
    assert_eq!(obs.rounds(), out.stats.rounds);
    let series = out.metrics.active_per_round();
    for (i, r) in obs.records().enumerate() {
        assert_eq!(r.round as usize, i + 1);
        assert_eq!(r.active, series[i]);
        assert_eq!(r.phases.len(), Stagger.phase_names().len());
        assert_eq!(
            r.phases.iter().map(|t| t.steps as usize).sum::<usize>(),
            r.active
        );
    }
    // Each step counts under `phase_of` the state the vertex entered
    // the round with; Stagger's is 0 until a neighbor dies.
    assert_eq!(obs.records().next().unwrap().phases[1].steps, 0);
    assert!(obs.records().any(|r| r.phases[1].steps > 0));
    // Termination: each vertex once, in its termination round.
    for r in obs.records() {
        let ended = out
            .metrics
            .termination_round
            .iter()
            .filter(|&&t| t == r.round);
        assert_eq!(r.terminations(), ended.count() as u64);
    }
    assert_eq!(obs.terminations(), g.n() as u64);
}

#[test]
fn round_records_match_in_step_oracle_over_tcp() {
    // The TCP mesh merges the same shard records as the channels.
    let g = gen::grid(5, 7);
    assert_records_match_oracle(&Stagger, &g, 3, &[Engine::ActorTcp]);
    assert_records_match_oracle(&Blink, &g, 3, &[Engine::ActorTcp]);
}

#[test]
fn observed_and_unobserved_runs_are_identical() {
    let g = gen::grid(5, 6);
    let ids = IdAssignment::identity(g.n());
    let plain = Runner::new(&CoinFlip, &g, &ids).seed(11).run().unwrap();
    let mut t = TraceLog::new();
    let observed = Runner::new(&CoinFlip, &g, &ids)
        .seed(11)
        .run_with(&mut t)
        .unwrap();
    assert_eq!(plain.outputs, observed.outputs);
    assert_eq!(plain.metrics, observed.metrics);
    assert_eq!(plain.stats.steps, observed.stats.steps);
}
