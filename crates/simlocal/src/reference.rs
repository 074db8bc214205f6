//! The naive dense engine, retained as an executable specification.
//!
//! This is the semantics the sparse engine in [`crate::engine`] must
//! reproduce byte-for-byte: every round clones the full state and message
//! vectors, scans all `n` vertices, steps the active ones against the
//! previous round's message snapshot, publishes each stepped vertex's new
//! message, and swaps the buffers. It does `O(n)` work per round
//! regardless of activity — which is exactly why it exists only as a
//! correctness oracle (see the `sparse_matches_reference` property test)
//! and as the slow side of the engine benchmarks, never as the production
//! path.

use crate::active::ActiveSet;
use crate::engine::{EngineError, SimOutcome};
use crate::metrics::RoundMetrics;
use crate::protocol::{NeighborView, Protocol, StepCtx, Transition};
use crate::wire::WireSize;
use graphcore::{Graph, IdAssignment};

/// Runs `protocol` with the dense per-round scan. Sequential only; the
/// returned [`SimOutcome::stats`] counts the dense engine's real work
/// (`n` touches per round), so comparing `stats.steps` against the sparse
/// engine's quantifies the work saved.
pub fn run_reference<P: Protocol>(
    protocol: &P,
    g: &Graph,
    ids: &IdAssignment,
    seed: u64,
) -> Result<SimOutcome<P::Output>, EngineError> {
    assert_eq!(ids.len(), g.n(), "ID assignment must cover all vertices");
    let n = g.n();
    let max_rounds = protocol.max_rounds(g);
    let t0 = std::time::Instant::now();

    let mut prev: Vec<P::State> = g.vertices().map(|v| protocol.init(g, ids, v)).collect();
    let mut prev_msgs: Vec<P::Msg> = prev.iter().map(|s| protocol.publish(s)).collect();
    let mut active = ActiveSet::full(n);
    let mut outputs: Vec<Option<P::Output>> = vec![None; n];
    let mut termination_round = vec![0u32; n];
    let mut stats = crate::engine::EngineStats::default();

    let mut round: u32 = 0;
    let mut remaining = n;
    while remaining > 0 {
        round += 1;
        if round > max_rounds {
            return Err(EngineError::RoundLimitExceeded {
                max_rounds,
                still_active: remaining,
            });
        }
        let mut next: Vec<P::State> = prev.clone();
        let mut next_msgs: Vec<P::Msg> = prev_msgs.clone();
        let mut next_active = active.clone();
        for v in g.vertices() {
            if !active.contains(v) {
                continue;
            }
            let ctx = StepCtx {
                graph: g,
                ids,
                v,
                round,
                state: &prev[v as usize],
                view: NeighborView {
                    graph: g,
                    v,
                    msgs: &prev_msgs,
                    active_words: active.words(),
                },
                run_seed: seed,
            };
            let (s, output) = match protocol.step(ctx) {
                Transition::Continue(s) => (s, None),
                Transition::Terminate(s, o) => (s, Some(o)),
            };
            let msg = protocol.publish(&s);
            let bits = msg.wire_bits();
            stats.msg_bits += bits;
            stats.max_msg_bits = stats.max_msg_bits.max(bits);
            next_msgs[v as usize] = msg;
            next[v as usize] = s;
            if let Some(o) = output {
                outputs[v as usize] = Some(o);
                next_active.remove(v);
                termination_round[v as usize] = round;
                remaining -= 1;
            }
        }
        prev = next;
        prev_msgs = next_msgs;
        active = next_active;
        stats.steps += n as u64; // dense: every vertex is touched
    }

    stats.rounds = round;
    stats.wall = t0.elapsed();
    let outputs = outputs
        .into_iter()
        .map(|o| o.expect("terminated vertex must have an output"))
        .collect();
    Ok(SimOutcome {
        outputs,
        metrics: RoundMetrics { termination_round },
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Runner;
    use crate::protocol::{Protocol, StepCtx, Transition};
    use graphcore::{gen, Graph, IdAssignment, VertexId};

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

    #[test]
    fn reference_agrees_with_sparse_on_staircase() {
        let g = gen::path(6);
        let ids = IdAssignment::identity(6);
        let dense = run_reference(&Staircase, &g, &ids, 0).unwrap();
        let sparse = Runner::new(&Staircase, &g, &ids).run().unwrap();
        assert_eq!(dense.outputs, sparse.outputs);
        assert_eq!(dense.metrics, sparse.metrics);
    }

    #[test]
    fn dense_work_is_n_per_round() {
        let g = gen::path(4);
        let ids = IdAssignment::identity(4);
        let dense = run_reference(&Staircase, &g, &ids, 0).unwrap();
        let sparse = Runner::new(&Staircase, &g, &ids).run().unwrap();
        // Dense touches n per round (16); sparse touches RoundSum (10).
        assert_eq!(dense.stats.steps, 16);
        assert_eq!(sparse.stats.steps, 10);
        // Both publish once per actual step: RoundSum messages.
        assert_eq!(dense.metrics.round_sum(), sparse.stats.steps);
    }
}
