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
//! clearing the bits of vertices that terminated. Observer hooks fire
//! inline, in step order, or — through [`Record`] — buffer for an
//! in-order replay on the coordinating thread.

use crate::observer::{Observer, StepEvent};
use crate::protocol::{NeighborView, Protocol, StepCtx, Transition};
use crate::wire::WireSize;
use graphcore::{Graph, IdAssignment, VertexId};
use std::marker::PhantomData;

/// An observer that buffers step events for a later in-order replay
/// (parallel chunks, actor shards) — only when `Ob` is a real observer;
/// unobserved runs record nothing and never evaluate phases.
pub(crate) struct Record<'e, Ob>(
    pub(crate) &'e mut Vec<StepEvent>,
    pub(crate) PhantomData<Ob>,
);

impl<Ob: Observer> Observer for Record<'_, Ob> {
    const ENABLED: bool = Ob::ENABLED;

    fn on_step(&mut self, event: &StepEvent) {
        self.0.push(*event);
    }
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
    /// Steps vertex `v`, writing its results into its slots and firing
    /// its `on_step` hook; returns the message it publishes.
    #[inline]
    pub(crate) fn step<Ob: Observer>(
        &self,
        v: VertexId,
        slots: &mut Slots<'_, P>,
        ob: &mut Ob,
    ) -> P::Msg {
        let i = v as usize - slots.base;
        let state = &slots.states[i];
        let phase = if Ob::ENABLED {
            self.protocol.phase_of(state)
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
        let terminated = out.is_some();
        if let Some(o) = out {
            slots.outputs[i] = Some(o);
            slots.term[i] = self.round;
        }
        if Ob::ENABLED {
            ob.on_step(&StepEvent {
                v,
                round: self.round,
                phase,
                terminated,
            });
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
        ob: &mut Ob,
    ) {
        for &wi in live {
            let mut bits = words[wi as usize];
            while bits != 0 {
                let v = (wi << 6) | bits.trailing_zeros();
                next[v as usize - slots.base] = self.step(v, slots, ob);
                bits &= bits - 1;
            }
        }
    }
}
