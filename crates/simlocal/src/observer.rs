//! Execution observers: pluggable per-round instrumentation.
//!
//! The engine is monomorphized over an [`Observer`] type. The default,
//! [`NoObserver`], has `ENABLED = false` and an empty inline hook, so an
//! unobserved run compiles to exactly the bare engine — no timestamps are
//! taken, no phase is evaluated and no callback code is emitted.
//! Attaching an observer (e.g. [`TraceLog`](crate::trace::TraceLog))
//! turns on per-round wall-clock timing and phase attribution, and the
//! engine hands it one [`RoundRecord`] per completed round, in round
//! order, through [`Observer::on_round_end`].
//!
//! A record carries the round's counts split by phase: for each
//! [`PhaseId`](crate::PhaseId) of
//! [`Protocol::phase_names`](crate::Protocol::phase_names),
//! how many vertices stepped in it — the phase being
//! [`Protocol::phase_of`](crate::Protocol::phase_of) the state the vertex
//! entered the round with — and how many of those terminated. Records
//! are identical in sequential and parallel modes and on the actor
//! backend, wall time aside. Run-level counts (the activity series,
//! rounds, steps) are not observer business: they follow from the
//! termination rounds in [`RoundMetrics`](crate::RoundMetrics).

use std::time::Duration;

/// One phase's share of a round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTally {
    /// Vertices that stepped in this phase.
    pub steps: u64,
    /// Those of them that terminated in the step.
    pub terminations: u64,
}

/// Everything the engine measured about one completed round. It borrows
/// its phase tallies from the engine, so handing an observer a round
/// allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundRecord<'a> {
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
    /// The round's steps and terminations per phase, indexed by
    /// [`PhaseId`](crate::PhaseId); one entry per name in
    /// [`Protocol::phase_names`](crate::Protocol::phase_names).
    pub phases: &'a [PhaseTally],
}

impl RoundRecord<'_> {
    /// Vertices that terminated this round.
    pub fn terminations(&self) -> u64 {
        self.phases.iter().map(|t| t.terminations).sum()
    }
}

/// Adds `part` into `acc`, phase by phase.
pub(crate) fn add_tallies(acc: &mut [PhaseTally], part: &[PhaseTally]) {
    for (a, p) in acc.iter_mut().zip(part) {
        a.steps += p.steps;
        a.terminations += p.terminations;
    }
}

/// Per-round instrumentation: the engine calls
/// [`on_round_end`](Observer::on_round_end) once per completed round, in
/// round order, on observed runs only.
pub trait Observer {
    /// When `false`, the engine skips per-round clock reads and phase
    /// attribution entirely. [`NoObserver`] is the only implementation
    /// that should disable this.
    const ENABLED: bool = true;

    /// A round finished; `record` carries its measurements.
    fn on_round_end(&mut self, record: &RoundRecord<'_>);
}

/// The zero-cost default observer: its hook compiles to nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoObserver;

impl Observer for NoObserver {
    const ENABLED: bool = false;

    fn on_round_end(&mut self, _: &RoundRecord<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceLog;

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
}
