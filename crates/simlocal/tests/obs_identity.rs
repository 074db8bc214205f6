//! The obs registry is an observer, never a participant: attaching it to
//! a run must leave outputs, metrics, and `EngineStats` byte-identical to
//! the same run without it — on the sync engine, sequential and fanned
//! out, observed and unobserved, and on the actor backend. Its counts
//! are copied from each completed run's record: they must equal the
//! run's `EngineStats`, add up across the runs a registry outlives, and
//! stay at zero for a run that fails. A documented-names drift test pins
//! DESIGN.md's metric list to the registry enumeration.

use graphcore::{gen, Graph, IdAssignment, VertexId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use simlocal::obs::{metric_names, Metric, MetricKind, Registry, ALL_METRICS, METRICS};
use simlocal::{
    ActorRunner, EngineError, EngineTuning, Protocol, Runner, SimOutcome, StepCtx, TraceLog,
    Transition,
};

/// Randomized geometric decay (state-free, message-free): exercises the
/// per-(seed, vertex, round) RNG streams.
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

/// Neighbor-reading flood with real message bits: exercises the wire
/// accounting the registry copies.
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

/// A graph from one of four families, chosen by `pick`.
fn family_graph(pick: u8, n: usize, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    match pick % 4 {
        0 => gen::forest_union(n, 2, &mut rng).graph,
        1 => gen::gnp(n, 3.0 / n as f64, &mut rng).graph,
        2 => gen::cycle(n.max(3)),
        _ => gen::grid(3, n.div_ceil(3).max(2)),
    }
}

/// Everything observable about a run except wall-clock, which obs may not
/// change: outputs, round metrics, and each `EngineStats` counter.
fn assert_runs_identical<O: PartialEq + std::fmt::Debug>(
    plain: &SimOutcome<O>,
    observed: &SimOutcome<O>,
    label: &str,
) {
    assert_eq!(plain.outputs, observed.outputs, "{label}: outputs");
    assert_eq!(plain.metrics, observed.metrics, "{label}: metrics");
    assert_eq!(plain.stats.rounds, observed.stats.rounds, "{label}: rounds");
    assert_eq!(plain.stats.steps, observed.stats.steps, "{label}: steps");
    assert_eq!(
        plain.stats.msg_bits, observed.stats.msg_bits,
        "{label}: msg_bits"
    );
    assert_eq!(
        plain.stats.max_msg_bits, observed.stats.max_msg_bits,
        "{label}: max_msg_bits"
    );
}

/// Sync engine (sequential, or fanned out on every round): an
/// obs-attached run — with or without an observer on top — is identical
/// to the plain run, and the engine counts equal its stats.
fn check_sync<P>(p: &P, g: &Graph, seed: u64, fan_out: bool, observed: bool, label: &str)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let ids = IdAssignment::identity(g.n());
    let runner = || {
        let r = Runner::new(p, g, &ids).seed(seed);
        if fan_out {
            r.parallel()
                .tuning(EngineTuning::default().par_threshold(1).workers(4))
        } else {
            r
        }
    };
    let plain = runner().run().unwrap();
    let reg = Registry::new(1);
    let with_obs = runner().obs(&reg);
    let observed = if observed {
        with_obs.run_with(&mut TraceLog::new())
    } else {
        with_obs.run()
    }
    .unwrap();
    assert_runs_identical(&plain, &observed, label);
    assert_eq!(
        reg.total(Metric::EngineRounds),
        observed.stats.rounds as u64,
        "{label}: EngineRounds"
    );
    assert_eq!(
        reg.total(Metric::EngineFastRounds),
        reg.total(Metric::EngineRounds),
        "{label}: every round runs the in-place kernel"
    );
    assert_eq!(
        reg.total(Metric::EngineParallelRounds),
        observed.stats.parallel_rounds as u64,
        "{label}: EngineParallelRounds"
    );
    assert_eq!(
        reg.total(Metric::EngineSteps),
        observed.stats.steps,
        "{label}: EngineSteps"
    );
    assert_eq!(
        reg.total(Metric::EngineMsgBits),
        observed.stats.msg_bits,
        "{label}: EngineMsgBits"
    );
}

/// Actor backend: obs-attached run matches the plain sync run, and the
/// per-shard counts add up to the merged stats.
fn check_actor<P>(p: &P, g: &Graph, seed: u64, shards: usize)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
{
    let ids = IdAssignment::identity(g.n());
    let plain = Runner::new(p, g, &ids).seed(seed).run().unwrap();
    let reg = Registry::new(shards);
    let observed = ActorRunner::new(p, g, &ids)
        .seed(seed)
        .shards(shards)
        .obs(&reg)
        .run()
        .unwrap();
    assert_runs_identical(&plain, &observed, "actor");
    assert_eq!(
        reg.total(Metric::ActorSteps),
        observed.stats.steps,
        "ActorSteps across shards"
    );
    assert_eq!(
        reg.total(Metric::ActorMsgBits),
        observed.stats.msg_bits,
        "ActorMsgBits across shards"
    );
    assert_eq!(
        reg.total(Metric::ActorRetire),
        shards as u64,
        "every shard retires exactly once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn coinflip_obs_is_invisible(
        pick in any::<u8>(),
        n in 4usize..80,
        gseed in any::<u64>(),
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let g = family_graph(pick, n, gseed);
        check_sync(&CoinFlip, &g, seed, false, false, "sync");
        check_sync(&CoinFlip, &g, seed, false, true, "sync observed");
        check_sync(&CoinFlip, &g, seed, true, false, "sync fan-out");
        check_sync(&CoinFlip, &g, seed, true, true, "sync fan-out observed");
        check_actor(&CoinFlip, &g, seed, shards);
    }

    #[test]
    fn floodmax_obs_is_invisible(
        pick in any::<u8>(),
        n in 4usize..80,
        gseed in any::<u64>(),
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let g = family_graph(pick, n, gseed);
        check_sync(&FloodMax, &g, seed, false, false, "sync");
        check_sync(&FloodMax, &g, seed, false, true, "sync observed");
        check_sync(&FloodMax, &g, seed, true, false, "sync fan-out");
        check_sync(&FloodMax, &g, seed, true, true, "sync fan-out observed");
        check_actor(&FloodMax, &g, seed, shards);
    }
}

/// The count series: every counter except the `_ns` timings.
fn count_series() -> impl Iterator<Item = Metric> {
    ALL_METRICS.iter().copied().filter(|&m| {
        let def = &METRICS[m as usize];
        def.kind == MetricKind::Counter && !def.name.ends_with("_ns_total")
    })
}

#[test]
fn actor_counts_accumulate_across_runs() {
    // A transport's tallies restart with every run; the registry's slots
    // must add each completed run's on top of the last. Every actor and
    // transport count is fixed by the run, so on two and three shards
    // alike a second run adds exactly what the first one recorded.
    let g = gen::grid(5, 8);
    let ids = IdAssignment::identity(g.n());
    for shards in [2, 3] {
        let run = |reg: &Registry| {
            ActorRunner::new(&FloodMax, &g, &ids)
                .seed(7)
                .shards(shards)
                .obs(reg)
                .run()
                .unwrap()
        };
        let (once, twice) = (Registry::new(3), Registry::new(3));
        run(&once);
        run(&twice);
        run(&twice);
        for m in count_series().filter(|m| {
            let name = METRICS[*m as usize].name;
            name.starts_with("simlocal_actor_") || name.starts_with("simlocal_transport_")
        }) {
            for sid in 0..3 {
                assert_eq!(
                    twice.value(m, sid),
                    2 * once.value(m, sid),
                    "{} shard {sid} of {shards}",
                    METRICS[m as usize].name
                );
            }
        }
        assert_eq!(twice.total(Metric::ActorRetire), 2 * shards as u64);
        assert!(twice.total(Metric::TransportEntriesOut) > 0);
    }
}

#[test]
fn failed_runs_record_no_counts() {
    // A run that hits its round cap returns no `EngineStats`, so it adds
    // no count either; its timings are still recorded. FloodMax needs
    // four rounds.
    let g = gen::grid(4, 6);
    let ids = IdAssignment::identity(g.n());
    let cap_error = EngineError::RoundLimitExceeded {
        max_rounds: 3,
        still_active: g.n(),
    };
    let reg = Registry::new(3);
    let sync = Runner::new(&FloodMax, &g, &ids).max_rounds(3).obs(&reg);
    assert_eq!(sync.run().unwrap_err(), cap_error);
    let actor = ActorRunner::new(&FloodMax, &g, &ids)
        .shards(3)
        .max_rounds(3);
    assert_eq!(actor.obs(&reg).run().unwrap_err(), cap_error);
    for m in count_series() {
        assert_eq!(reg.total(m), 0, "{}", METRICS[m as usize].name);
    }
    assert_eq!(reg.histogram(Metric::EngineRoundWallNs, 0).count(), 3);
    assert!(reg.total(Metric::ActorComputeNs) > 0);
}

#[test]
fn tcp_export_has_per_shard_barrier_and_byte_series() {
    // The acceptance pin: a metrics-enabled loopback-TCP actor run
    // exports a JSONL snapshot with per-shard barrier-wait and
    // transport-byte series, while staying byte-identical to sync.
    let g = gen::grid(5, 8);
    let ids = IdAssignment::identity(g.n());
    let plain = Runner::new(&FloodMax, &g, &ids).seed(7).run().unwrap();
    let reg = Registry::new(3);
    let tcp = ActorRunner::new(&FloodMax, &g, &ids)
        .seed(7)
        .shards(3)
        .obs(&reg)
        .run_tcp()
        .unwrap();
    assert_runs_identical(&plain, &tcp, "tcp");
    let line = reg.jsonl_snapshot("tcp");
    // The slots of one series in the snapshot line, by shard label.
    let slots = |name: &str| -> String {
        let start = line.find(&format!("\"{name}\":{{")).expect(name) + name.len() + 4;
        line[start..start + line[start..].find('}').unwrap()].to_string()
    };
    let (waits, bytes) = (
        slots("simlocal_actor_barrier_wait_ns_total"),
        slots("simlocal_transport_bytes_out_total"),
    );
    for shard in 0..3 {
        assert_eq!(
            waits.matches(&format!("\"{shard}\":")).count(),
            1,
            "per-shard barrier-wait series for shard {shard}: {waits}"
        );
        let sent = reg.value(Metric::TransportBytesOut, shard);
        assert!(sent > 0, "shard {shard} meters real socket bytes");
        assert!(
            bytes.contains(&format!("\"{shard}\":{sent}")),
            "per-shard transport-bytes series for shard {shard}: {bytes}"
        );
    }
}

#[test]
fn design_doc_metric_names_match_registry() {
    // DESIGN.md's Observability section enumerates every metric in
    // backticks; this pins the two lists together so neither drifts.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md at the repo root");
    let documented: std::collections::BTreeSet<&str> = text
        .split('`')
        .skip(1)
        .step_by(2) // odd segments = backticked spans
        .filter(|s| {
            s.starts_with("simlocal_")
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
        .collect();
    let registry: std::collections::BTreeSet<&str> = metric_names().into_iter().collect();
    let undocumented: Vec<_> = registry.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&registry).collect();
    assert!(
        undocumented.is_empty(),
        "metrics missing from DESIGN.md's Observability section: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "DESIGN.md documents metrics the registry does not export: {stale:?}"
    );
}
