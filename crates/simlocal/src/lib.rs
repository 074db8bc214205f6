#![warn(missing_docs)]

//! # simlocal — a synchronous LOCAL-model round simulator
//!
//! The substrate the paper reasons about (§1.1): an `n`-vertex graph whose
//! vertices are processors operating in synchronous rounds, exchanging
//! messages with their neighbors. A protocol keeps a *private* per-vertex
//! [`Protocol::State`] and, each round, publishes an explicit
//! [`Protocol::Msg`] (via [`Protocol::publish`]) that neighbors read the
//! following round — the wire is separate from the state, so scratch data
//! never travels. Each published message is charged its encoded size in
//! bits through [`wire::WireSize`], giving the engine exact communication
//! accounting (`EngineStats::msg_bits` / `max_msg_bits`) alongside the
//! round metrics — including the CONGEST question "do all messages fit in
//! O(log n) bits?".
//!
//! ## Termination semantics (§2 of the paper)
//!
//! The paper's convention: once a vertex decides its final output it sends
//! the output once to all neighbors and terminates completely — no further
//! computation or communication. Here, a terminating vertex's final state
//! stays readable by neighbors forever (the one final broadcast, remembered
//! by the recipients), and the vertex is never stepped again. A vertex's
//! *running time* is the index of the round in which it terminates; the
//! engine records it for every vertex, giving
//!
//! * **vertex-averaged complexity** `Σ_v r(v) / n` ([`metrics::RoundMetrics::vertex_averaged`]),
//! * **worst-case complexity** `max_v r(v)` ([`metrics::RoundMetrics::worst_case`]),
//! * the active-vertex decay series `active[i]` used by Lemma 6.1 figures.
//!
//! ## Determinism
//!
//! Randomized protocols draw from a per-`(run seed, vertex, round)` ChaCha
//! stream ([`rng::vertex_round_rng`]), so a step is a pure function of its
//! inputs; sequential and parallel execution produce byte-identical
//! outcomes (tested against the naive engine in [`reference`](mod@reference)).
//!
//! ## Execution API
//!
//! [`Runner`] is the single entry point — a builder over a protocol,
//! graph, and ID assignment:
//!
//! ```
//! # use simlocal::{Protocol, Runner, StepCtx, Transition};
//! # use graphcore::{gen, Graph, IdAssignment, VertexId};
//! # struct P;
//! # impl Protocol for P {
//! #     type State = ();
//! #     type Msg = ();
//! #     type Output = u64;
//! #     fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}
//! #     fn publish(&self, _: &()) {}
//! #     fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u64> {
//! #         Transition::Terminate((), ctx.my_id())
//! #     }
//! # }
//! # let (g, ids) = (gen::cycle(4), IdAssignment::identity(4));
//! let outcome = Runner::new(&P, &g, &ids).seed(7).parallel().run().unwrap();
//! assert_eq!(outcome.stats.steps, outcome.metrics.round_sum());
//! ```
//!
//! `run()` is the zero-overhead unobserved path; `run_with(&mut observer)`
//! attaches an [`Observer`], which receives one [`RoundRecord`] per
//! round with the round's steps and terminations per phase (see
//! [`observer`]).
//! The engine does sparse rounds — per-round work proportional to the
//! active set — so wall time tracks `RoundSum`, not `n × worst-case`.

pub mod active;
pub mod asyncengine;
pub mod engine;
mod kernel;
pub mod metrics;
pub mod obs;
pub mod observer;
pub mod protocol;
pub mod reference;
pub mod rng;
pub mod trace;
pub mod transport;
pub mod warm;
pub mod wire;

pub use active::ActiveSet;
pub use asyncengine::{ActorRunner, BarrierStall, RoundBarrier, StallKind};
pub use engine::{
    EngineError, EngineStats, EngineTuning, RunConfig, Runner, SimOutcome, DEFAULT_PAR_THRESHOLD,
};
pub use metrics::{Percentiles, RoundMetrics};
pub use observer::{NoObserver, Observer, PhaseTally, RoundRecord};
pub use protocol::{NeighborView, PhaseId, Protocol, StepCtx, Transition};
pub use reference::run_reference;
pub use trace::{Histogram, PhaseBreakdown, TraceLog};
pub use warm::{Replay, WarmOutcome, WarmStart, WarmStats};

pub use transport::{
    Batch, ChannelTransport, Recv, TcpTransport, Transport, TransportStats, Update,
};
pub use wire::{WireCodec, WireSize};
