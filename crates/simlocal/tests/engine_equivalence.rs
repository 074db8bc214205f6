//! The sparse engine is an optimization, not a semantics change: across
//! graph families, seeds, and execution modes it must produce outcomes
//! identical to the retained naive engine (`simlocal::reference`), and
//! its observer hooks must fire exactly per contract.

use graphcore::{gen, Graph, IdAssignment, VertexId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simlocal::{
    run_reference, ActorRunner, EngineTuning, Observer, Protocol, RoundRecord, Runner, StepCtx,
    StepEvent, TraceEvent, TraceLog, Transition,
};

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
    // Phase attribution for the observer-sequence tests: rounds entered
    // before any neighbor died vs. after.
    fn phase_names(&self) -> &'static [&'static str] {
        &["quiet", "draining"]
    }
    fn phase_of(&self, state: &u32) -> simlocal::PhaseId {
        (*state > 0) as simlocal::PhaseId
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

/// Per-round `(active, msg_bits, max_msg_bits)` — every round-end field
/// but the machine-dependent wall time — and the termination events, in
/// order, that a trace recorded.
type RoundsAndTerminations = (Vec<(usize, u64, u64)>, Vec<(VertexId, u32)>);
fn rounds_and_terminations(log: &TraceLog) -> RoundsAndTerminations {
    let (mut rounds, mut terminations) = (Vec::new(), Vec::new());
    for e in &log.events {
        match *e {
            TraceEvent::RoundEnd {
                active,
                msg_bits,
                max_msg_bits,
                ..
            } => rounds.push((active, msg_bits, max_msg_bits)),
            TraceEvent::Terminate { v, round } => terminations.push((v, round)),
            _ => {}
        }
    }
    (rounds, terminations)
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
    // ones (hooks inline when sequential, replayed in chunk order when
    // fanned out): attaching an observer must not change a byte — wire
    // stats included — sequentially or under real fan-out.
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
    // Per-round active / bits / max bits and the termination order.
    assert_eq!(
        rounds_and_terminations(&seq_t),
        rounds_and_terminations(&par_t),
        "per-round records and hook order"
    );
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
        prop_assert_eq!(rounds_and_terminations(&seq).0, rounds_and_terminations(&par).0);
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
        let (rounds, _) = rounds_and_terminations(&obs);
        prop_assert_eq!(rounds.iter().map(|r| r.1).sum::<u64>(), plain.stats.msg_bits);
        prop_assert_eq!(rounds.iter().map(|r| r.2).max().unwrap_or(0), plain.stats.max_msg_bits);
    }

    #[test]
    fn hook_sequence_identical_sequential_and_parallel(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
    ) {
        // The parallel engine may *execute* steps out of order, but the
        // observer must see the exact same hook sequence as a sequential
        // run — same events, same order, same phase attributions.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let mut seq = Counting::default();
        let out_seq = Runner::new(&Stagger, &g, &ids).run_with(&mut seq).unwrap();
        let mut par = Counting::default();
        let out_par = Runner::new(&Stagger, &g, &ids)
            .parallel()
            .tuning(fan_out())
            .run_with(&mut par)
            .unwrap();
        prop_assert_eq!(out_seq.outputs, out_par.outputs);
        prop_assert_eq!(&seq.round_starts, &par.round_starts);
        // Step events carry vertex, round, phase, and termination flag.
        prop_assert_eq!(&seq.steps, &par.steps);
        // Round records match field-for-field except machine-dependent wall.
        prop_assert_eq!(seq.round_ends.len(), par.round_ends.len());
        for (s, p) in seq.round_ends.iter().zip(&par.round_ends) {
            prop_assert_eq!(
                (s.round, s.active, s.msg_bits, s.max_msg_bits),
                (p.round, p.active, p.msg_bits, p.max_msg_bits)
            );
        }
    }

    #[test]
    fn hook_totals_match_engine_accounting(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // Σ on_step == Σ round-end active == RoundSum, and a step
        // reports termination exactly once per vertex.
        let g = family_graph(pick, n, 2, gseed);
        let ids = IdAssignment::identity(g.n());
        let mut obs = Counting::default();
        let out = Runner::new(&CoinFlip, &g, &ids).seed(seed).run_with(&mut obs).unwrap();
        prop_assert_eq!(obs.steps.len() as u64, out.metrics.round_sum());
        prop_assert_eq!(out.stats.steps, out.metrics.round_sum());
        let active: u64 = obs.round_ends.iter().map(|r| r.active as u64).sum();
        prop_assert_eq!(active, out.metrics.round_sum());
        let mut vs: Vec<VertexId> = obs.steps.iter().filter(|e| e.terminated).map(|e| e.v).collect();
        prop_assert_eq!(vs.len(), g.n());
        vs.sort_unstable();
        vs.dedup();
        prop_assert_eq!(vs.len(), g.n(), "termination must be reported once per vertex");
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
        prop_assert_eq!(obs.step_events(), traced.metrics.round_sum());
        prop_assert_eq!(obs.terminate_events() as usize, g.n());
        prop_assert_eq!(obs.rounds(), traced.stats.rounds);
    }

    #[test]
    fn telemetry_series_match_metrics(n in 4usize..100, seed in any::<u64>()) {
        let g = gen::cycle(n.max(3));
        let ids = IdAssignment::identity(g.n());
        let mut t = TraceLog::new();
        let out = Runner::new(&CoinFlip, &g, &ids).seed(seed).run_with(&mut t).unwrap();
        let (rounds, terminations) = rounds_and_terminations(&t);
        let active: Vec<usize> = rounds.iter().map(|r| r.0).collect();
        prop_assert_eq!(&active, &out.metrics.active_per_round());
        prop_assert_eq!(active.iter().sum::<usize>() as u64, out.metrics.round_sum());
        prop_assert_eq!(terminations.len(), g.n());
    }

    #[test]
    fn derived_series_matches_trace_events(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // The activity series is derived from termination rounds, not
        // pushed per round: it must equal what the engine announced at
        // each round start and the step events it fired in that round —
        // sync sequential, sync fanned out, and the actor backend over
        // channels.
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
            let (mut starts, mut steps) = (Vec::new(), Vec::new());
            for e in &log.events {
                match *e {
                    TraceEvent::RoundStart { round, active } => {
                        prop_assert_eq!(round as usize, starts.len() + 1, "{}", label);
                        starts.push(active);
                        steps.push(0usize);
                    }
                    TraceEvent::Step { round, .. } => {
                        prop_assert_eq!(round as usize, steps.len(), "{}", label);
                        *steps.last_mut().unwrap() += 1;
                    }
                    _ => {}
                }
            }
            let series = out.metrics.active_per_round();
            prop_assert_eq!(&starts, &series, "{}: round-start active", label);
            prop_assert_eq!(&steps, &series, "{}: step events per round", label);
            prop_assert_eq!(out.stats.rounds as usize, series.len(), "{}: rounds", label);
            prop_assert!(out.metrics.check_identities().is_ok(), "{}", label);
        }
    }
}

/// Observer that records every hook invocation.
#[derive(Default, Clone, Debug)]
struct Counting {
    round_starts: Vec<(u32, usize)>,
    round_ends: Vec<RoundRecord>,
    steps: Vec<StepEvent>,
}

impl Observer for Counting {
    fn on_round_start(&mut self, round: u32, active: usize) {
        self.round_starts.push((round, active));
    }
    fn on_step(&mut self, event: &StepEvent) {
        self.steps.push(*event);
    }
    fn on_round_end(&mut self, record: &RoundRecord) {
        self.round_ends.push(record.clone());
    }
}

#[test]
fn observer_hooks_fire_exactly_per_contract() {
    let g = gen::grid(4, 5);
    let ids = IdAssignment::identity(g.n());
    let mut obs = Counting::default();
    let out = Runner::new(&Stagger, &g, &ids).run_with(&mut obs).unwrap();
    let rounds = out.stats.rounds as usize;

    // Round hooks: once per round, in order, with the active-set size.
    assert_eq!(obs.round_starts.len(), rounds);
    assert_eq!(obs.round_ends.len(), rounds);
    let series = out.metrics.active_per_round();
    for (i, &(round, active)) in obs.round_starts.iter().enumerate() {
        assert_eq!(round as usize, i + 1);
        assert_eq!(active, series[i]);
        assert_eq!(obs.round_ends[i].round as usize, i + 1);
        assert_eq!(obs.round_ends[i].active, active);
    }

    // on_step: exactly once per (active vertex, round) — i.e. for every
    // vertex, rounds 1..=termination_round, and nothing else.
    let mut expected_steps = Vec::new();
    for v in g.vertices() {
        for r in 1..=out.metrics.termination_round[v as usize] {
            expected_steps.push((v, r));
        }
    }
    let mut got: Vec<(VertexId, u32)> = obs.steps.iter().map(|e| (e.v, e.round)).collect();
    got.sort_unstable();
    expected_steps.sort_unstable();
    assert_eq!(got, expected_steps);
    assert_eq!(obs.steps.len() as u64, out.metrics.round_sum());

    // Each step reports its phase — `phase_of` the state the vertex
    // entered the round with; Stagger's is 0 until a neighbor dies.
    assert!(obs.steps.iter().any(|e| e.phase == 1));
    assert!(obs.steps.iter().all(|e| e.round > 1 || e.phase == 0));

    // Termination: reported exactly once per vertex, at its termination
    // round.
    let terminates: Vec<&StepEvent> = obs.steps.iter().filter(|e| e.terminated).collect();
    assert_eq!(terminates.len(), g.n());
    for e in &terminates {
        assert_eq!(out.metrics.termination_round[e.v as usize], e.round);
    }
    let mut vs: Vec<VertexId> = terminates.iter().map(|e| e.v).collect();
    vs.sort_unstable();
    vs.dedup();
    assert_eq!(vs.len(), g.n());
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
