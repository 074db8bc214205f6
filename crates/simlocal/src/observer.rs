//! Execution observers: pluggable per-round instrumentation.
//!
//! The engine is monomorphized over an [`Observer`] type. The default,
//! [`NoObserver`], has `ENABLED = false` and empty inline hooks, so an
//! unobserved run compiles to exactly the bare engine — no timestamps are
//! taken and no callback code is emitted. Attaching an observer (e.g.
//! [`Telemetry`]) turns on per-round wall-clock timing and the full hook
//! sequence:
//!
//! 1. [`Observer::on_round_start`] — before any vertex steps;
//! 2. [`Observer::on_phase`] — once per `(active vertex, round)`, carrying
//!    the [`PhaseId`] of the subroutine that consumed the round (computed
//!    via [`Protocol::phase_of`](crate::Protocol::phase_of) from the state
//!    the vertex entered the round with);
//! 3. [`Observer::on_step`] — once per `(active vertex, round)`, in
//!    deterministic vertex order, after the vertex's transition is
//!    computed (identical in sequential and parallel modes); `on_phase`
//!    for the same vertex fires immediately before it;
//! 4. [`Observer::on_terminate`] — once per vertex, in its final round;
//! 5. [`Observer::on_round_end`] — with the round's [`RoundRecord`].
//!
//! Observers compose with [`Tee`]; the tracing/profiling observers built
//! on these hooks live in [`crate::trace`].

use crate::protocol::PhaseId;
use graphcore::VertexId;
use std::time::Duration;

/// Everything the engine measured about one completed round.
#[derive(Clone, Debug)]
pub struct RoundRecord {
    /// Round number (1-based).
    pub round: u32,
    /// Vertices that stepped this round (the paper's `n_i`).
    pub active: usize,
    /// Messages published this round — every stepped vertex publishes
    /// once, including the final broadcast of vertices that terminate.
    pub publications: usize,
    /// Wire bits published this round: the sum of `WireSize::wire_bits`
    /// over every message published this round (heap payloads counted).
    pub msg_bits: u64,
    /// Largest single message published this round, in bits.
    pub max_msg_bits: u64,
    /// Wall-clock time of the round (step + publish phases).
    pub wall: Duration,
}

/// Per-round instrumentation hooks. All hooks default to no-ops; see the
/// module docs for the exact firing sequence.
pub trait Observer {
    /// When `false`, the engine skips per-round clock reads entirely.
    /// [`NoObserver`] is the only implementation that should disable this.
    const ENABLED: bool = true;

    /// A round is about to execute with `active` live vertices.
    fn on_round_start(&mut self, round: u32, active: usize) {
        let _ = (round, active);
    }

    /// Vertex `v` is about to be counted as stepped in `round`; `phase` is
    /// the [`PhaseId`] of the subroutine the round belonged to (from
    /// [`Protocol::phase_of`](crate::Protocol::phase_of) on the state the
    /// vertex entered the round with). Fires exactly once per active
    /// vertex per round, immediately before [`Observer::on_step`] for the
    /// same vertex, and only on observed runs.
    fn on_phase(&mut self, v: VertexId, round: u32, phase: PhaseId) {
        let _ = (v, round, phase);
    }

    /// Vertex `v` stepped in `round` (fires exactly once per active
    /// vertex per round, in deterministic vertex order).
    fn on_step(&mut self, v: VertexId, round: u32) {
        let _ = (v, round);
    }

    /// Vertex `v` terminated in `round` (fires exactly once per vertex).
    fn on_terminate(&mut self, v: VertexId, round: u32) {
        let _ = (v, round);
    }

    /// A round finished; `record` carries its telemetry.
    fn on_round_end(&mut self, record: &RoundRecord) {
        let _ = record;
    }
}

/// The zero-cost default observer: all hooks compile to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoObserver;

impl Observer for NoObserver {
    const ENABLED: bool = false;
}

/// Built-in telemetry collector: per-round wall time, publication counts,
/// wire-bit accounting, and the active-set decay series.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// `active[i]` = vertices stepped in round `i + 1`.
    pub active: Vec<usize>,
    /// `publications[i]` = messages published in round `i + 1`.
    pub publications: Vec<u64>,
    /// `msg_bits[i]` = wire bits published in round `i + 1`.
    pub msg_bits: Vec<u64>,
    /// `max_msg_bits[i]` = widest message published in round `i + 1`.
    pub max_msg_bits: Vec<u64>,
    /// `wall[i]` = wall-clock duration of round `i + 1`.
    pub wall: Vec<Duration>,
    /// `(vertex, round)` termination events in engine order.
    pub terminations: Vec<(VertexId, u32)>,
}

impl Telemetry {
    /// Fresh, empty collector.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Number of rounds observed.
    pub fn rounds(&self) -> usize {
        self.active.len()
    }

    /// Total states published across the run (equals `RoundSum`).
    pub fn total_publications(&self) -> u64 {
        self.publications.iter().sum()
    }

    /// Total wire bits published across the run.
    pub fn total_msg_bits(&self) -> u64 {
        self.msg_bits.iter().sum()
    }

    /// Widest single message observed across the run, in bits.
    pub fn peak_msg_bits(&self) -> u64 {
        self.max_msg_bits.iter().copied().max().unwrap_or(0)
    }

    /// Total wall-clock time across all observed rounds.
    pub fn total_wall(&self) -> Duration {
        self.wall.iter().sum()
    }
}

impl Observer for Telemetry {
    fn on_terminate(&mut self, v: VertexId, round: u32) {
        self.terminations.push((v, round));
    }

    fn on_round_end(&mut self, record: &RoundRecord) {
        debug_assert_eq!(record.round as usize, self.active.len() + 1);
        self.active.push(record.active);
        self.publications.push(record.publications as u64);
        self.msg_bits.push(record.msg_bits);
        self.max_msg_bits.push(record.max_msg_bits);
        self.wall.push(record.wall);
    }
}

/// Forwards every hook to two observers, so telemetry, tracing, and
/// profiling compose in a single run: `Tee(a, Tee(b, c))` nests freely.
///
/// `ENABLED` is the OR of the halves, so teeing with [`NoObserver`]
/// keeps the other half fully observed.
#[derive(Clone, Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Observer, B: Observer> Observer for Tee<A, B> {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    fn on_round_start(&mut self, round: u32, active: usize) {
        self.0.on_round_start(round, active);
        self.1.on_round_start(round, active);
    }

    fn on_phase(&mut self, v: VertexId, round: u32, phase: PhaseId) {
        self.0.on_phase(v, round, phase);
        self.1.on_phase(v, round, phase);
    }

    fn on_step(&mut self, v: VertexId, round: u32) {
        self.0.on_step(v, round);
        self.1.on_step(v, round);
    }

    fn on_terminate(&mut self, v: VertexId, round: u32) {
        self.0.on_terminate(v, round);
        self.1.on_terminate(v, round);
    }

    fn on_round_end(&mut self, record: &RoundRecord) {
        self.0.on_round_end(record);
        self.1.on_round_end(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_accumulates() {
        let mut t = Telemetry::new();
        t.on_round_start(1, 3);
        t.on_step(0, 1);
        t.on_terminate(2, 1);
        t.on_round_end(&RoundRecord {
            round: 1,
            active: 3,
            publications: 3,
            msg_bits: 24,
            max_msg_bits: 8,
            wall: Duration::from_micros(5),
        });
        t.on_round_end(&RoundRecord {
            round: 2,
            active: 2,
            publications: 2,
            msg_bits: 16,
            max_msg_bits: 8,
            wall: Duration::from_micros(3),
        });
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.active, vec![3, 2]);
        assert_eq!(t.total_publications(), 5);
        assert_eq!(t.total_msg_bits(), 40);
        assert_eq!(t.peak_msg_bits(), 8);
        assert_eq!(t.total_wall(), Duration::from_micros(8));
        assert_eq!(t.terminations, vec![(2, 1)]);
    }

    #[test]
    fn no_observer_is_disabled() {
        // Read through a generic fn so the flag is checked the way the
        // engine sees it (and clippy accepts the non-literal assert).
        fn enabled<Ob: Observer>() -> bool {
            Ob::ENABLED
        }
        assert!(!enabled::<NoObserver>());
        assert!(enabled::<Telemetry>());
    }

    #[test]
    fn tee_forwards_to_both_and_ors_enabled() {
        fn enabled<Ob: Observer>() -> bool {
            Ob::ENABLED
        }
        assert!(!enabled::<Tee<NoObserver, NoObserver>>());
        assert!(enabled::<Tee<NoObserver, Telemetry>>());
        assert!(enabled::<Tee<Telemetry, NoObserver>>());

        let mut tee = Tee(Telemetry::new(), Telemetry::new());
        tee.on_round_start(1, 2);
        tee.on_phase(0, 1, 0);
        tee.on_step(0, 1);
        tee.on_terminate(1, 1);
        tee.on_round_end(&RoundRecord {
            round: 1,
            active: 2,
            publications: 2,
            msg_bits: 16,
            max_msg_bits: 8,
            wall: Duration::from_micros(7),
        });
        for t in [&tee.0, &tee.1] {
            assert_eq!(t.rounds(), 1);
            assert_eq!(t.active, vec![2]);
            assert_eq!(t.terminations, vec![(1, 1)]);
        }
    }
}
