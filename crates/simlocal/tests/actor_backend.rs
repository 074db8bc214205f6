//! The actor backend is an execution strategy, not a semantics change:
//! across graph families, seeds, and shard counts it must produce
//! outcomes byte-identical to the sync sparse engine and the dense
//! reference oracle — outputs, metrics, step/publication counts, and the
//! exact wire accounting (`msg_bits` / `max_msg_bits`) — over in-process
//! channels and over the loopback-TCP transport.

use graphcore::{gen, Graph, IdAssignment, VertexId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simlocal::{
    run_reference, ActorRunner, Protocol, Runner, StepCtx, Transition, WireCodec, WireSize,
};

/// Randomized geometric decay: each vertex terminates with probability
/// 1/2 per round — exercises the per-(seed, vertex, round) RNG streams
/// that make steps pure functions across backends.
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
/// few rounds — every step reads peer messages, so a shard working from
/// a stale or incomplete mirror produces visibly wrong outputs.
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

/// Staggered terminations that read *terminated* neighbors: checks the
/// final-broadcast semantics (a retired vertex's last message stays
/// readable) and the active-bit snapshots across shard boundaries.
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
}

/// A heap-payload message with a hand-written codec: the TCP transport
/// must round-trip variable-width frames without disturbing the exact
/// `WireSize` accounting (which is charged at publication, not on the
/// socket).
#[derive(Clone, Debug, PartialEq)]
struct VecMsg {
    level: u32,
    path: Vec<u32>,
}

impl WireSize for VecMsg {
    fn wire_bits(&self) -> u64 {
        self.level.wire_bits() + self.path.wire_bits()
    }
}

impl WireCodec for VecMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.level.encode(out);
        self.path.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Option<VecMsg> {
        Some(VecMsg {
            level: u32::decode(buf)?,
            path: Vec::<u32>::decode(buf)?,
        })
    }
}

/// Flood-style protocol over [`VecMsg`]: the published path grows with
/// the vertex's level, so message widths vary per vertex and per round.
struct VecFlood;
impl Protocol for VecFlood {
    type State = u32;
    type Msg = VecMsg;
    type Output = u32;
    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u32 {
        (ids.id(v) % 5) as u32
    }
    fn publish(&self, s: &u32) -> VecMsg {
        VecMsg {
            level: *s,
            path: vec![*s; (*s % 4) as usize],
        }
    }
    fn step(&self, ctx: StepCtx<'_, u32, VecMsg>) -> Transition<u32, u32> {
        let best = ctx
            .view
            .neighbors()
            .map(|(_, m)| m.level + m.path.len() as u32)
            .chain([*ctx.state])
            .max()
            .unwrap();
        if ctx.round > ctx.v % 4 {
            Transition::Terminate(best, best)
        } else {
            Transition::Continue(best)
        }
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

/// The shard counts the acceptance criteria pin: serial, small fan-out,
/// and the machine's own parallelism.
fn shard_counts() -> Vec<usize> {
    let ncpu = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1);
    let mut counts = vec![1, 4, ncpu];
    counts.dedup();
    counts
}

/// Pins every actor run (all shard counts, channel transport) to the
/// sync sparse engine and the dense oracle, field by field.
fn assert_actor_matches_sync<P>(p: &P, g: &Graph, seed: u64)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let ids = IdAssignment::identity(g.n());
    let sync = Runner::new(p, g, &ids).seed(seed).run().unwrap();
    let dense = run_reference(p, g, &ids, seed).unwrap();
    assert_eq!(sync.outputs, dense.outputs, "sync vs oracle outputs");
    assert_eq!(sync.metrics, dense.metrics, "sync vs oracle metrics");
    for shards in shard_counts() {
        let actor = ActorRunner::new(p, g, &ids)
            .seed(seed)
            .shards(shards)
            .run()
            .unwrap();
        assert_eq!(sync.outputs, actor.outputs, "{shards}-shard outputs");
        assert_eq!(sync.metrics, actor.metrics, "{shards}-shard metrics");
        assert_eq!(sync.stats.steps, actor.stats.steps, "{shards}-shard steps");
        assert_eq!(
            sync.stats.msg_bits, actor.stats.msg_bits,
            "{shards}-shard msg_bits"
        );
        assert_eq!(
            sync.stats.max_msg_bits, actor.stats.max_msg_bits,
            "{shards}-shard max_msg_bits"
        );
        assert_eq!(
            sync.stats.rounds, actor.stats.rounds,
            "{shards}-shard rounds"
        );
        // One step (one published message) per active vertex-round on
        // the actor path too.
        assert_eq!(actor.stats.steps, actor.metrics.round_sum());
    }
}

/// Same pinning over the loopback-TCP transport (messages cross as
/// length-prefixed codec frames instead of moved values).
fn assert_tcp_matches_sync<P>(p: &P, g: &Graph, seed: u64, shards: usize)
where
    P: Protocol,
    P::Msg: WireCodec + 'static,
    P::Output: PartialEq + std::fmt::Debug,
{
    let ids = IdAssignment::identity(g.n());
    let sync = Runner::new(p, g, &ids).seed(seed).run().unwrap();
    let tcp = ActorRunner::new(p, g, &ids)
        .seed(seed)
        .shards(shards)
        .run_tcp()
        .unwrap();
    assert_eq!(sync.outputs, tcp.outputs, "tcp outputs");
    assert_eq!(sync.metrics, tcp.metrics, "tcp metrics");
    assert_eq!(sync.stats.steps, tcp.stats.steps, "tcp steps");
    assert_eq!(sync.stats.msg_bits, tcp.stats.msg_bits, "tcp msg_bits");
    assert_eq!(
        sync.stats.max_msg_bits, tcp.stats.max_msg_bits,
        "tcp max_msg_bits"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn coinflip_actor_matches_sync(
        pick in any::<u8>(),
        n in 4usize..100,
        a in 1usize..4,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, a, gseed);
        assert_actor_matches_sync(&CoinFlip, &g, seed);
    }

    #[test]
    fn floodmax_actor_matches_sync(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, 2, gseed);
        assert_actor_matches_sync(&FloodMax, &g, seed);
    }

    #[test]
    fn stagger_actor_matches_sync(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, 2, gseed);
        assert_actor_matches_sync(&Stagger, &g, seed);
    }

    #[test]
    fn vecflood_actor_matches_sync(
        pick in any::<u8>(),
        n in 4usize..100,
        gseed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let g = family_graph(pick, n, 2, gseed);
        assert_actor_matches_sync(&VecFlood, &g, seed);
    }
}

proptest! {
    // TCP meshes cost real sockets per case; a smaller case count still
    // sweeps families × shard counts × seeds.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn floodmax_tcp_matches_sync(
        pick in any::<u8>(),
        n in 4usize..60,
        gseed in any::<u64>(),
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let g = family_graph(pick, n, 2, gseed);
        assert_tcp_matches_sync(&FloodMax, &g, seed, shards);
    }

    #[test]
    fn vecflood_tcp_matches_sync(
        pick in any::<u8>(),
        n in 4usize..60,
        gseed in any::<u64>(),
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        // Variable-width heap payloads over real frames.
        let g = family_graph(pick, n, 2, gseed);
        assert_tcp_matches_sync(&VecFlood, &g, seed, shards);
    }
}

#[test]
fn coinflip_tcp_matches_sync_fixed_config() {
    // The deterministic loopback-TCP pin the CI smoke relies on: unit
    // messages (zero-width frames payload-wise) across 3 shards.
    let g = gen::grid(5, 8);
    assert_tcp_matches_sync(&CoinFlip, &g, 7, 3);
}

#[test]
fn actor_matches_sync_across_id_permutations() {
    // Shard merges must respect vertex order, not ID order: a random
    // permutation decouples the two.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let g = gen::forest_union(80, 2, &mut rng).graph;
    let ids = IdAssignment::random_permutation(g.n(), &mut rng);
    let sync = Runner::new(&FloodMax, &g, &ids).seed(1).run().unwrap();
    let actor = ActorRunner::new(&FloodMax, &g, &ids)
        .seed(1)
        .shards(3)
        .run()
        .unwrap();
    assert_eq!(sync.outputs, actor.outputs);
    assert_eq!(sync.metrics, actor.metrics);
    assert_eq!(sync.stats.msg_bits, actor.stats.msg_bits);
}
