//! The engine's zero-alloc steady-state contract, enforced with a
//! counting global allocator: once the slabs are hoisted before round 1,
//! sequential rounds of the in-place round kernel allocate nothing — for
//! a word-sized message and for an inline message wider than 32 bytes.
//!
//! The measurement trick: run the same protocol on the same graph for
//! two very different round counts and compare *allocation-call counts*.
//! Setup cost is identical (same `n`, same hoisted capacities), so any
//! difference would have to come from per-round allocations — equal
//! counts therefore mean the steady state allocates zero. This catches
//! regressions a capacity `debug_assert` cannot (e.g. a fresh `Vec` per
//! round that never grows, or an allocating iterator adapter).
//!
//! The allocator counts calls per thread, and the measuring thread reads
//! its own count: the runs are sequential (`run_counting` asserts that
//! no round fanned out), so every allocation they make happens on that
//! thread, and what other threads of the test process allocate
//! meanwhile cannot leak into the comparison.

use graphcore::{gen, Graph, IdAssignment, VertexId};
use simlocal::{Protocol, Runner, StepCtx, Transition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocation calls made by this thread. `const`-initialised and
    /// without a destructor, so counting never allocates itself.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation calls this thread makes while running `f`.
fn alloc_calls_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.with(Cell::get);
    f();
    ALLOC_CALLS.with(Cell::get) - before
}

/// Every vertex stays active for exactly `rounds` rounds, then
/// terminates: the worst case for steady-state round cost (the active
/// set never shrinks until the end), which is exactly what we want to
/// amortize over.
struct Countdown {
    rounds: u32,
}

impl Protocol for Countdown {
    type State = u64;
    type Msg = u64;
    type Output = u64;
    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u64 {
        ids.id(v)
    }
    fn publish(&self, s: &u64) -> u64 {
        *s
    }
    fn step(&self, ctx: StepCtx<'_, u64, u64>) -> Transition<u64, u64> {
        // Read neighbor messages so the slab-access path is exercised.
        let best = ctx.view.neighbors().fold(*ctx.state, |a, (_, &m)| a.max(m));
        if ctx.round >= self.rounds {
            Transition::Terminate(best, best)
        } else {
            Transition::Continue(best)
        }
    }
}

/// [`Countdown`] with a 48-byte inline message: wider than any
/// register-sized copy, still heap-free.
struct WideCountdown {
    rounds: u32,
}

impl Protocol for WideCountdown {
    type State = u64;
    type Msg = [u64; 6];
    type Output = u64;
    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u64 {
        ids.id(v)
    }
    fn publish(&self, s: &u64) -> [u64; 6] {
        [*s; 6]
    }
    fn step(&self, ctx: StepCtx<'_, u64, [u64; 6]>) -> Transition<u64, u64> {
        let best = ctx
            .view
            .neighbors()
            .fold(*ctx.state, |a, (_, m)| a.max(m[5]));
        if ctx.round >= self.rounds {
            Transition::Terminate(best, best)
        } else {
            Transition::Continue(best)
        }
    }
}

fn run_counting<P: Protocol>(p: &P, g: &Graph, ids: &IdAssignment, rounds: u32) -> u64 {
    let mut stats_rounds = 0;
    let calls = alloc_calls_during(|| {
        let out = Runner::new(p, g, ids).run().unwrap();
        stats_rounds = out.stats.rounds;
        assert_eq!(out.stats.steps, g.n() as u64 * rounds as u64);
        // No round fanned out to worker threads, so this thread's count
        // covers the whole run.
        assert_eq!(out.stats.parallel_rounds, 0);
        drop(out);
    });
    assert_eq!(stats_rounds, rounds, "protocol must run the full schedule");
    calls
}

#[test]
fn steady_state_sequential_rounds_allocate_nothing() {
    let g = gen::cycle(1 << 12);
    let ids = IdAssignment::identity(g.n());

    // Warm up process-lazy allocations (test-harness I/O, etc.) and any
    // one-time engine state, so the measured runs start from parity.
    run_counting(&Countdown { rounds: 2 }, &g, &ids, 2);

    const SHORT: u32 = 8;
    const LONG: u32 = 200;

    // Word-sized message.
    let short = run_counting(&Countdown { rounds: SHORT }, &g, &ids, SHORT);
    let long = run_counting(&Countdown { rounds: LONG }, &g, &ids, LONG);
    assert_eq!(
        short,
        long,
        "u64 messages: {} extra allocation calls across {} extra rounds",
        long.saturating_sub(short),
        LONG - SHORT
    );

    // A 48-byte inline message through the same kernel: the double
    // buffer is hoisted and the retire sweep swaps, so it must not
    // allocate either.
    let short = run_counting(&WideCountdown { rounds: SHORT }, &g, &ids, SHORT);
    let long = run_counting(&WideCountdown { rounds: LONG }, &g, &ids, LONG);
    assert_eq!(
        short,
        long,
        "[u64; 6] messages: {} extra allocation calls across {} extra rounds",
        long.saturating_sub(short),
        LONG - SHORT
    );
}
