//! The one round kernel every engine drives.
//!
//! A round steps each active vertex against a read-only snapshot — the
//! messages published at the end of the previous round and the activity
//! words as they stood when the round began — and writes the vertex's
//! new state, output, and termination round into *its own* slots. States
//! are private and outputs and termination rounds are per-vertex, and
//! the freshly published message goes where no step reads it: a double
//! buffer (sync and warm engines) or the outgoing batch (actor shards).
//! Nothing a step can observe changes mid-round, so any split of the
//! vertex set into disjoint slot ranges (parallel chunks, actor shards)
//! steps to the same bytes as one sequential pass.
//!
//! The engines differ only in what they iterate and where the snapshot
//! comes from. Each then runs its own retire sweep, exposing the fresh
//! messages — the sync and warm engines `std::mem::swap` them in from
//! the double buffer, so no message is cloned to be published — and
//! clearing the bits of vertices that terminated. On observed runs each
//! caller also hands the kernel its own per-phase tally of steps and
//! terminations, which the engine folds into the round's
//! [`RoundRecord`](crate::observer::RoundRecord).

use crate::observer::{Observer, PhaseTally};
use crate::protocol::{NeighborView, Protocol, StepCtx, Transition};
use crate::wire::WireSize;
use graphcore::{Graph, IdAssignment, VertexId};

/// A zeroed per-phase tally for `protocol`'s phases, to hand to
/// [`Kernel::step`]; empty when `Ob` does not observe.
pub(crate) fn phase_tally<P: Protocol, Ob: Observer>(protocol: &P) -> Vec<PhaseTally> {
    let phases = if Ob::ENABLED {
        protocol.phase_names().len()
    } else {
        0
    };
    vec![PhaseTally::default(); phases]
}

/// The per-vertex slabs one kernel caller writes: slot `v - base` of each
/// belongs to vertex `v`. Also tallies the wire bits it published.
pub(crate) struct Slots<'s, P: Protocol> {
    pub(crate) base: usize,
    states: &'s mut [P::State],
    outputs: &'s mut [Option<P::Output>],
    term: &'s mut [u32],
    /// Wire bits published through these slots.
    pub(crate) bits: u64,
    /// Widest single message published through these slots.
    pub(crate) max_bits: u64,
}

impl<'s, P: Protocol> Slots<'s, P> {
    /// Slots for vertices `base..base + states.len()`; all three slabs
    /// must have the same length.
    pub(crate) fn new(
        base: usize,
        states: &'s mut [P::State],
        outputs: &'s mut [Option<P::Output>],
        term: &'s mut [u32],
    ) -> Self {
        debug_assert!(outputs.len() == states.len() && term.len() == states.len());
        Slots {
            base,
            states,
            outputs,
            term,
            bits: 0,
            max_bits: 0,
        }
    }

    /// Splits at vertex `at`: the slots below it and the slots from it
    /// on, each with a fresh bit tally.
    pub(crate) fn split_at(self, at: usize) -> (Self, Self) {
        let i = at - self.base;
        let (s0, s1) = self.states.split_at_mut(i);
        let (o0, o1) = self.outputs.split_at_mut(i);
        let (t0, t1) = self.term.split_at_mut(i);
        (
            Slots::new(self.base, s0, o0, t0),
            Slots::new(at, s1, o1, t1),
        )
    }
}

/// The read-only snapshot one round steps against.
pub(crate) struct Kernel<'a, P: Protocol> {
    pub(crate) protocol: &'a P,
    pub(crate) graph: &'a Graph,
    pub(crate) ids: &'a IdAssignment,
    /// Every vertex's message as published at the end of the last round.
    pub(crate) msgs: &'a [P::Msg],
    /// Activity bit words as they stood when the round began.
    pub(crate) active_words: &'a [u64],
    pub(crate) round: u32,
    pub(crate) seed: u64,
}

impl<P: Protocol> Kernel<'_, P> {
    /// Steps vertex `v`, writing its results into its slots and — when
    /// `Ob` observes — adding the step to `phases` under `phase_of` its
    /// pre-step state; returns the message it publishes. (`phases` is an
    /// argument rather than a `Slots` field: as a field it slowed the
    /// unobserved step loop of a neighbour-reading protocol by about a
    /// third on a 2-vCPU x86-64 host.)
    #[inline]
    pub(crate) fn step<Ob: Observer>(
        &self,
        v: VertexId,
        slots: &mut Slots<'_, P>,
        phases: &mut [PhaseTally],
    ) -> P::Msg {
        let i = v as usize - slots.base;
        let state = &slots.states[i];
        let phase = if Ob::ENABLED {
            self.protocol.phase_of(state) as usize
        } else {
            0
        };
        let ctx = StepCtx {
            graph: self.graph,
            ids: self.ids,
            v,
            round: self.round,
            state,
            view: NeighborView {
                graph: self.graph,
                v,
                msgs: self.msgs,
                active_words: self.active_words,
            },
            run_seed: self.seed,
        };
        let (s, out) = match self.protocol.step(ctx) {
            Transition::Continue(s) => (s, None),
            Transition::Terminate(s, o) => (s, Some(o)),
        };
        let m = self.protocol.publish(&s);
        let mb = m.wire_bits();
        slots.bits += mb;
        slots.max_bits = slots.max_bits.max(mb);
        slots.states[i] = s;
        if Ob::ENABLED {
            let count = phases.len();
            let tally = phases.get_mut(phase).unwrap_or_else(|| {
                panic!("phase_of returned phase {phase}, but the protocol names {count} phases")
            });
            tally.steps += 1;
            tally.terminations += u64::from(out.is_some());
        }
        if let Some(o) = out {
            slots.outputs[i] = Some(o);
            slots.term[i] = self.round;
        }
        m
    }

    /// Steps every vertex whose bit is set in `words[wi]`, for each `wi`
    /// in `live` (ascending), in vertex order, writing each published
    /// message into the double buffer `next` (slot `v - slots.base`).
    pub(crate) fn step_words<Ob: Observer>(
        &self,
        live: &[u32],
        words: &[u64],
        slots: &mut Slots<'_, P>,
        next: &mut [P::Msg],
        phases: &mut [PhaseTally],
    ) {
        for &wi in live {
            let mut bits = words[wi as usize];
            while bits != 0 {
                let v = (wi << 6) | bits.trailing_zeros();
                next[v as usize - slots.base] = self.step::<Ob>(v, slots, phases);
                bits &= bits - 1;
            }
        }
    }
}
