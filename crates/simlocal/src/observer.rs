//! Execution observers: pluggable per-round instrumentation.
//!
//! The engine is monomorphized over an [`Observer`] type. The default,
//! [`NoObserver`], has `ENABLED = false` and empty inline hooks, so an
//! unobserved run compiles to exactly the bare engine — no timestamps are
//! taken and no callback code is emitted. Attaching an observer (e.g.
//! [`TraceLog`](crate::trace::TraceLog)) turns on per-round wall-clock
//! timing and the full hook sequence:
//!
//! 1. [`Observer::on_round_start`] — before any vertex steps;
//! 2. [`Observer::on_step`] — once per `(active vertex, round)`, in
//!    deterministic vertex order (identical in sequential and parallel
//!    modes and on the actor backend), with the vertex's [`StepEvent`]:
//!    the [`PhaseId`] of the subroutine that consumed the round (computed
//!    via [`Protocol::phase_of`](crate::Protocol::phase_of) from the state
//!    the vertex entered the round with) and whether it terminated;
//! 3. [`Observer::on_round_end`] — with the round's [`RoundRecord`].
//!
//! Observers compose with [`Tee`]; the tracing observers built on these
//! hooks live in [`crate::trace`]. Run-level counts (the activity series,
//! rounds, steps) are not observer business: they follow from the
//! termination rounds in [`RoundMetrics`](crate::RoundMetrics).

use crate::protocol::PhaseId;
use graphcore::VertexId;
use std::time::Duration;

/// Everything the engine measured about one completed round.
#[derive(Clone, Debug)]
pub struct RoundRecord {
    /// Round number (1-based).
    pub round: u32,
    /// Vertices that stepped this round (the paper's `n_i`); each
    /// published one message, final broadcasts included.
    pub active: usize,
    /// Wire bits published this round: the sum of `WireSize::wire_bits`
    /// over every message published this round (heap payloads counted).
    pub msg_bits: u64,
    /// Largest single message published this round, in bits.
    pub max_msg_bits: u64,
    /// Wall-clock time of the round (step + publish phases).
    pub wall: Duration,
}

/// One vertex's step in one round, as [`Observer::on_step`] reports it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepEvent {
    /// The vertex that stepped.
    pub v: VertexId,
    /// The round it stepped in (1-based).
    pub round: u32,
    /// [`Protocol::phase_of`](crate::Protocol::phase_of) the state the
    /// vertex entered the round with.
    pub phase: PhaseId,
    /// Whether the vertex terminated in this step — true exactly once
    /// per vertex, in its termination round.
    pub terminated: bool,
}

/// Per-round instrumentation hooks. All hooks default to no-ops; see the
/// module docs for the exact firing sequence.
pub trait Observer {
    /// When `false`, the engine skips per-round clock reads and phase
    /// attribution entirely. [`NoObserver`] is the only implementation
    /// that should disable this.
    const ENABLED: bool = true;

    /// A round is about to execute with `active` live vertices.
    fn on_round_start(&mut self, round: u32, active: usize) {
        let _ = (round, active);
    }

    /// A vertex stepped (fires exactly once per active vertex per round,
    /// in deterministic vertex order, and only on observed runs).
    fn on_step(&mut self, event: &StepEvent) {
        let _ = event;
    }

    /// A round finished; `record` carries its measurements.
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

/// Forwards every hook to two observers, so tracing and phase accounting
/// compose in a single run: `Tee(a, Tee(b, c))` nests freely.
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

    fn on_step(&mut self, event: &StepEvent) {
        self.0.on_step(event);
        self.1.on_step(event);
    }

    fn on_round_end(&mut self, record: &RoundRecord) {
        self.0.on_round_end(record);
        self.1.on_round_end(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEvent, TraceLog};

    fn record(round: u32, active: usize) -> RoundRecord {
        RoundRecord {
            round,
            active,
            msg_bits: 8 * active as u64,
            max_msg_bits: 8,
            wall: Duration::from_micros(7),
        }
    }

    #[test]
    fn no_observer_is_disabled() {
        // Read through a generic fn so the flag is checked the way the
        // engine sees it (and clippy accepts the non-literal assert).
        fn enabled<Ob: Observer>() -> bool {
            Ob::ENABLED
        }
        assert!(!enabled::<NoObserver>());
        assert!(enabled::<TraceLog>());
    }

    #[test]
    fn tee_forwards_to_both_and_ors_enabled() {
        fn enabled<Ob: Observer>() -> bool {
            Ob::ENABLED
        }
        assert!(!enabled::<Tee<NoObserver, NoObserver>>());
        assert!(enabled::<Tee<NoObserver, TraceLog>>());
        assert!(enabled::<Tee<TraceLog, NoObserver>>());

        let mut tee = Tee(TraceLog::new(), TraceLog::new());
        tee.on_round_start(1, 2);
        tee.on_step(&StepEvent {
            v: 0,
            round: 1,
            phase: 0,
            terminated: false,
        });
        tee.on_step(&StepEvent {
            v: 1,
            round: 1,
            phase: 0,
            terminated: true,
        });
        tee.on_round_end(&record(1, 2));
        for t in [&tee.0, &tee.1] {
            assert_eq!(t.rounds(), 1);
            assert_eq!(t.step_events(), 2);
            assert_eq!(
                t.events[0],
                TraceEvent::RoundStart {
                    round: 1,
                    active: 2
                }
            );
            assert_eq!(t.events[3], TraceEvent::Terminate { v: 1, round: 1 });
        }
    }
}
