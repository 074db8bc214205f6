//! The engine perf trajectory: measured vertex-round throughput, its JSON
//! schema, and the one-sided regression gate behind `bench-diff --perf`.
//!
//! Correctness metrics have been regression-gated since PR 2
//! (`bench-diff --check` over [`crate::results::SuiteResult`]); raw engine
//! speed was informational-only. This module starts the perf paper-trail:
//! a small fixed suite of engine workloads is measured in *vertex-rounds
//! per second* (`EngineStats::steps / wall` — the unit of ROADMAP item 2's
//! ≥10⁸ target on n = 2²⁰), the best-of-reps numbers are written to a
//! schema-versioned JSON summary, and the committed baseline
//! (`results/BENCH_engine.json`) becomes a one-sided gate: ci.sh re-runs
//! the suite and fails when any entry's throughput drops more than the
//! tolerance (default 25%) below the baseline. Speedups never fail the
//! gate — they are the cue to refresh the baseline so the trajectory
//! ratchets forward (see EXPERIMENTS.md for the refresh procedure).
//!
//! The suite is the repository's only micro-benchmark instrument, so it
//! also holds the engine's two cost comparisons as paired entries:
//! `decay_dense_n20` runs the dense `run_reference` oracle on
//! `decay_seq_n20`'s workload (sparse vs dense rounds), and
//! `flood_par_n20` runs `flood_seq_n20`'s workload on the parallel sync
//! engine with 2 workers (sequential vs parallel).
//!
//! Wall-clock is machine-dependent, which is exactly why the correctness
//! gate ignores it; the perf gate is the opposite trade, so the baseline
//! records the hardware it was measured on (`host` note) and must be
//! refreshed when the reference machine changes.

use crate::results::{fnum, quote, Json};
use graphcore::{gen, Graph, IdAssignment, VertexId};
use simlocal::{ActorRunner, EngineStats, EngineTuning, Protocol, Runner, StepCtx, Transition};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Version of the JSON schema written by [`PerfSummary::to_json`]. Bump on
/// any incompatible change; `bench-diff --perf` refuses mismatched
/// versions. Version 2 added the optional obs-snapshot ratio
/// (`barrier_wait_frac`) to entries.
pub const PERF_SCHEMA_VERSION: u64 = 2;

/// Vertex count of the standard perf workloads (ROADMAP item 2's n = 2²⁰).
pub const PERF_N: usize = 1 << 20;

/// Timed repetitions per entry; the best (fastest) rep is recorded, which
/// is the standard trick for throughput gates — the minimum is the run
/// least perturbed by the machine.
pub const PERF_REPS: usize = 5;

/// One measured workload: identity, size, the engine work it performed,
/// and the best observed throughput.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfEntry {
    /// Stable entry id (`decay_seq_n20`, ...).
    pub id: String,
    /// Vertex count of the workload.
    pub n: usize,
    /// Rounds the engine ran (identical across reps — checked).
    pub rounds: u32,
    /// Total vertex-rounds (`EngineStats::steps` = `RoundSum`).
    pub vertex_rounds: u64,
    /// Fastest rep's wall time, in nanoseconds.
    pub best_wall_ns: u64,
    /// `vertex_rounds / best_wall` in rounds/second — the gated number.
    pub vr_per_sec: f64,
    /// Fraction of actor-shard time spent blocked on the round barrier
    /// (`Σ barrier_wait_ns / (Σ barrier_wait_ns + Σ compute_ns)` over
    /// shards), measured by one extra obs-enabled run after the timed
    /// reps. Context only — never gated. `None` for entries where it
    /// does not apply.
    pub barrier_wait_frac: Option<f64>,
}

/// A whole perf run: schema version, free-form context notes (hardware,
/// pre-change reference numbers), and one entry per workload.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfSummary {
    /// Schema version (see [`PERF_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Context notes: never compared, always carried (the committed
    /// baseline uses them to record the measurement hardware and the
    /// pre-rewrite engine's numbers).
    pub notes: Vec<String>,
    /// Measured entries, in suite order.
    pub entries: Vec<PerfEntry>,
}

impl PerfSummary {
    /// Bundles measured entries under the current schema.
    pub fn new(notes: Vec<String>, entries: Vec<PerfEntry>) -> PerfSummary {
        PerfSummary {
            schema_version: PERF_SCHEMA_VERSION,
            notes,
            entries,
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let notes: Vec<String> = self.notes.iter().map(|s| quote(s)).collect();
        let _ = writeln!(out, "  \"notes\": [{}],", notes.join(", "));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            let extras = e
                .barrier_wait_frac
                .map(|r| format!(", \"barrier_wait_frac\": {}", fnum(r)))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "    {{\"id\": {}, \"n\": {}, \"rounds\": {}, \"vertex_rounds\": {}, \
                 \"best_wall_ns\": {}, \"vr_per_sec\": {}{}}}{}",
                quote(&e.id),
                e.n,
                e.rounds,
                e.vertex_rounds,
                e.best_wall_ns,
                fnum(e.vr_per_sec),
                extras,
                comma
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a document produced by [`PerfSummary::to_json`].
    pub fn from_json(text: &str) -> Result<PerfSummary, String> {
        let v = Json::parse(text)?;
        let schema_version = v.get_u64("schema_version")?;
        if schema_version != PERF_SCHEMA_VERSION {
            return Err(format!(
                "perf schema version {schema_version} unsupported (expected {PERF_SCHEMA_VERSION})"
            ));
        }
        let notes = v
            .get("notes")?
            .as_array()?
            .iter()
            .map(|s| Ok(s.as_str()?.to_string()))
            .collect::<Result<Vec<_>, String>>()?;
        let entries = v
            .get("entries")?
            .as_array()?
            .iter()
            .map(|e| {
                // The snapshot ratio is optional: absent on entries it
                // does not apply to.
                let barrier = e.get("barrier_wait_frac").ok().map(|v| v.as_f64());
                Ok(PerfEntry {
                    id: e.get("id")?.as_str()?.to_string(),
                    n: e.get_u64("n")? as usize,
                    rounds: e.get_u64("rounds")? as u32,
                    vertex_rounds: e.get_u64("vertex_rounds")?,
                    best_wall_ns: e.get_u64("best_wall_ns")?,
                    vr_per_sec: e.get("vr_per_sec")?.as_f64()?,
                    barrier_wait_frac: barrier.transpose()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(PerfSummary {
            schema_version,
            notes,
            entries,
        })
    }

    /// Writes the JSON document to `path` (creating parent directories).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Reads and parses a summary from `path`.
    pub fn read(path: &Path) -> Result<PerfSummary, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The one-sided perf gate: failures when a fresh entry's throughput drops
/// more than `tol` (relative) below the baseline's, when an entry is
/// missing or unexpected, or when the *work* changed (same id must mean
/// the same workload — a `vertex_rounds` or `n` mismatch means the suite
/// changed and the baseline must be refreshed, not tolerated).
/// Improvements never fail; [`perf_notes`] reports them.
pub fn diff_perf(baseline: &PerfSummary, fresh: &PerfSummary, tol: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for b in &baseline.entries {
        let Some(f) = fresh.entries.iter().find(|f| f.id == b.id) else {
            failures.push(format!("entry `{}` missing from the fresh run", b.id));
            continue;
        };
        if f.n != b.n || f.vertex_rounds != b.vertex_rounds || f.rounds != b.rounds {
            failures.push(format!(
                "entry `{}` measures different work (baseline n={} rounds={} vr={}, \
                 fresh n={} rounds={} vr={}) — refresh the baseline",
                b.id, b.n, b.rounds, b.vertex_rounds, f.n, f.rounds, f.vertex_rounds
            ));
            continue;
        }
        let floor = b.vr_per_sec * (1.0 - tol);
        if f.vr_per_sec < floor {
            failures.push(format!(
                "entry `{}` throughput regressed: {} vs baseline {} vertex-rounds/sec \
                 (floor {} at tol {tol})",
                b.id,
                fmt_throughput(f.vr_per_sec),
                fmt_throughput(b.vr_per_sec),
                fmt_throughput(floor)
            ));
        }
    }
    for f in &fresh.entries {
        if !baseline.entries.iter().any(|b| b.id == f.id) {
            failures.push(format!(
                "entry `{}` not in the baseline — refresh it to start gating the new entry",
                f.id
            ));
        }
    }
    failures
}

/// Informational notes for a perf comparison: entries that got faster by
/// more than `tol` (the cue to refresh the committed baseline so the gate
/// ratchets forward).
pub fn perf_notes(baseline: &PerfSummary, fresh: &PerfSummary, tol: f64) -> Vec<String> {
    let mut notes = Vec::new();
    for b in &baseline.entries {
        if let Some(f) = fresh.entries.iter().find(|f| f.id == b.id) {
            if f.vr_per_sec > b.vr_per_sec * (1.0 + tol) {
                notes.push(format!(
                    "entry `{}` improved: {} vs baseline {} vertex-rounds/sec — \
                     consider refreshing the baseline",
                    b.id,
                    fmt_throughput(f.vr_per_sec),
                    fmt_throughput(b.vr_per_sec)
                ));
            }
        }
    }
    notes
}

/// Human-readable throughput (`123.4M`-style).
pub fn fmt_throughput(vr_per_sec: f64) -> String {
    if vr_per_sec >= 1e9 {
        format!("{:.2}G", vr_per_sec / 1e9)
    } else if vr_per_sec >= 1e6 {
        format!("{:.1}M", vr_per_sec / 1e6)
    } else if vr_per_sec >= 1e3 {
        format!("{:.1}k", vr_per_sec / 1e3)
    } else {
        format!("{vr_per_sec:.0}")
    }
}

/// Runs `rep` `reps` times and keeps the fastest wall time. Each rep
/// returns the work it performed alongside its wall; panics if reps
/// disagree on the work — a nondeterministic workload cannot be a perf
/// baseline.
fn best_of<W: PartialEq + std::fmt::Debug>(
    id: &str,
    reps: usize,
    mut rep: impl FnMut() -> (W, Duration),
) -> (W, u64) {
    assert!(reps >= 1, "at least one rep");
    let (work, mut best) = rep();
    for _ in 1..reps {
        let (w, wall) = rep();
        assert_eq!(
            w, work,
            "perf workload `{id}` must be deterministic across reps"
        );
        best = best.min(wall);
    }
    (work, best.as_nanos() as u64)
}

/// An entry whose gated throughput is `units` per second of `best_wall_ns`.
fn entry(
    id: &str,
    n: usize,
    rounds: u32,
    vertex_rounds: u64,
    best_wall_ns: u64,
    units: u64,
) -> PerfEntry {
    PerfEntry {
        id: id.to_string(),
        n,
        rounds,
        vertex_rounds,
        best_wall_ns,
        vr_per_sec: units as f64 / (best_wall_ns.max(1) as f64 / 1e9),
        barrier_wait_frac: None,
    }
}

/// Times `reps` runs of `run` and records the fastest, using the engine's
/// own wall measurement (`EngineStats::wall`, which includes slab init but
/// not graph generation). Panics if reps disagree on the work performed.
pub fn measure(id: &str, n: usize, reps: usize, mut run: impl FnMut() -> EngineStats) -> PerfEntry {
    let ((steps, rounds), best_wall_ns) = best_of(id, reps, || {
        let stats = run();
        ((stats.steps, stats.rounds), stats.wall)
    });
    entry(id, n, rounds, steps, best_wall_ns, steps)
}

/// Neighbor-free geometric decay: vertex `v` terminates in round
/// `1 + trailing_zeros(v + 1)`, so half the active set leaves every round
/// and `RoundSum ≈ 2n` over `log₂ n + 1` rounds. `Msg = ()` and the step
/// body is a couple of integer ops, so the measurement isolates the
/// engine's own per-step overhead — the number ROADMAP item 2 targets.
pub struct PureDecay;

impl Protocol for PureDecay {
    type State = u64;
    type Msg = ();
    type Output = u64;
    fn init(&self, _: &Graph, ids: &IdAssignment, v: VertexId) -> u64 {
        ids.id(v)
    }
    fn publish(&self, _: &u64) {}
    fn step(&self, ctx: StepCtx<'_, u64, ()>) -> Transition<u64, u64> {
        let life = 1 + (ctx.v as u64 + 1).trailing_zeros();
        if ctx.round >= life {
            Transition::Terminate(*ctx.state, *ctx.state)
        } else {
            Transition::Continue(ctx.state + 1)
        }
    }
}

/// Neighbor-reading variant: same termination schedule, but every step
/// floods the maximum published value over the graph, so the measurement
/// includes the CSR neighbor walk and the message-slab reads.
pub struct FloodDecay;

impl Protocol for FloodDecay {
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
            .map(|(_, &m)| m)
            .chain([*ctx.state])
            .max()
            .unwrap();
        let life = 1 + (ctx.v as u64 + 1).trailing_zeros();
        if ctx.round >= life {
            Transition::Terminate(best, best)
        } else {
            Transition::Continue(best)
        }
    }
}

/// What every suite entry measures on: the vertex count, the rep count,
/// and the `n`-vertex cycle (deterministic, O(n) to build, degree 2) with
/// identity IDs that the engine entries run their decay protocols on.
struct SuiteInput {
    n: usize,
    reps: usize,
    g: Graph,
    ids: IdAssignment,
}

/// A suite entry: measures its workload under the id it is given.
type EntryFn = fn(&str, &SuiteInput) -> PerfEntry;

/// The perf suite, in run order: the one list of `(id, measurement)`
/// pairs that [`run_suite`] runs and [`suite_ids`] names.
const SUITE: [(&str, EntryFn); 10] = [
    ("decay_seq_n20", |id, s| {
        measure(id, s.n, s.reps, || {
            Runner::new(&PureDecay, &s.g, &s.ids)
                .run()
                .expect("decay workload terminates")
                .stats
        })
    }),
    ("flood_seq_n20", |id, s| {
        measure(id, s.n, s.reps, || {
            Runner::new(&FloodDecay, &s.g, &s.ids)
                .run()
                .expect("flood workload terminates")
                .stats
        })
    }),
    // The parallel sync engine on `flood_seq_n20`'s workload, on a fixed
    // 2 workers so the measured work layout is machine-independent: the
    // sequential-vs-parallel comparison. Byte-identical engines, so its
    // steps/rounds equal the sequential entry's.
    ("flood_par_n20", |id, s| {
        measure(id, s.n, s.reps, || {
            Runner::new(&FloodDecay, &s.g, &s.ids)
                .parallel()
                .tuning(EngineTuning::default().workers(2))
                .run()
                .expect("flood workload terminates")
                .stats
        })
    }),
    ("decay_actor_n20", decay_actor_n20),
    // Harness trial throughput: the engine entries above gate the
    // per-step cost, this one gates the whole pipeline around the engine
    // (plan → cache → schedule → sink, including seeded graph
    // generation, ID assignment, and verification).
    ("harness_table2_quick", |id, s| {
        harness_table2_quick(id, s.reps)
    }),
    // File-source ingestion throughput (Matrix Market parse + normalize).
    ("ingest_parse_n20", |id, s| {
        ingest_parse_n20(id, s.n, s.reps)
    }),
    // Churn update throughput (edit splice + warm-start re-solve).
    ("warm_update_n15", |id, s| warm_update_n15(id, s.reps)),
    // Linial color-reduction throughput (one cover-free step per vertex).
    ("a2logn_seq_n20", |id, s| a2logn_seq_n20(id, s.n, s.reps)),
    // Edge-window throughput (mostly idle rounds of long windows).
    ("edge_col_seq_n12", |id, s| edge_col_seq_n12(id, s.reps)),
    // The dense oracle on `decay_seq_n20`'s workload: every round touches
    // all n vertices, so against the sparse entry this is the gap the
    // sparse-round engine exists for (work ∝ RoundSum vs n × rounds).
    // `vertex_rounds` is the simulated RoundSum, as for the sparse entry,
    // so the two throughputs compare directly. It runs last because its
    // full-slab clones leave the allocator in a state that slowed the
    // entry after it (`flood_seq_n20` read about 30% lower throughput
    // there on a 2-vCPU host).
    ("decay_dense_n20", |id, s| {
        measure(id, s.n, s.reps, || {
            let out = simlocal::run_reference(&PureDecay, &s.g, &s.ids, 0)
                .expect("decay workload terminates");
            EngineStats {
                steps: out.metrics.round_sum(),
                ..out.stats
            }
        })
    }),
];

/// Runs every suite entry on `n` vertices, best of `reps` each.
pub fn run_suite(n: usize, reps: usize) -> Vec<PerfEntry> {
    let input = SuiteInput {
        n,
        reps,
        g: gen::cycle(n),
        ids: IdAssignment::identity(n),
    };
    SUITE.iter().map(|(id, run)| run(id, &input)).collect()
}

/// Ids of the suite entries, in run order, for `--list` output.
pub fn suite_ids() -> Vec<&'static str> {
    SUITE.iter().map(|(id, _)| *id).collect()
}

/// The actor backend on the decay workload, at a fixed 4 shards so the
/// measured work layout is machine-independent. Its steps/rounds equal
/// the sync entries' (byte-identical backends). One extra, *untimed*
/// obs-enabled run follows the timed reps, which stay metrics-free so the
/// gated wall numbers carry no instrumentation overhead; its barrier-wait
/// ratio rides along as context (`diff_perf` never compares it).
fn decay_actor_n20(id: &str, s: &SuiteInput) -> PerfEntry {
    use simlocal::obs::{Metric, Registry};
    let mut e = measure(id, s.n, s.reps, || {
        ActorRunner::new(&PureDecay, &s.g, &s.ids)
            .shards(4)
            .run()
            .expect("decay workload runs on the actor backend")
            .stats
    });
    let reg = Registry::new(4);
    ActorRunner::new(&PureDecay, &s.g, &s.ids)
        .shards(4)
        .obs(&reg)
        .run()
        .expect("decay workload runs on the actor backend");
    let wait = reg.total(Metric::ActorBarrierWaitNs);
    let busy = wait + reg.total(Metric::ActorComputeNs);
    e.barrier_wait_frac = (busy > 0).then(|| wait as f64 / busy as f64);
    e
}

/// Measures the Linial color-reduction kernel: `ColoringA2LogN` (a = 2,
/// identity IDs) on the `n`-vertex `forest_union(a = 2)` (seed 1) on the
/// sequential sync engine. Outside the partition, the protocol's only
/// per-vertex work is one [`algos::coverfree::CoverFree::reduce`] when
/// its H-set forms, so this entry moves with the kernel. The graph is
/// built outside the timed region.
fn a2logn_seq_n20(id: &str, n: usize, reps: usize) -> PerfEntry {
    use algos::coloring::a2logn::ColoringA2LogN;
    let g = crate::forest_workload(n, 2, 1).graph;
    let ids = IdAssignment::identity(n);
    let p = ColoringA2LogN::new(2);
    measure(id, n, reps, || {
        Runner::new(&p, &g, &ids)
            .run()
            .expect("a2logn terminates on a forest union")
            .stats
    })
}

/// Measures the edge-window protocols: `EdgeColoringExtension` (a = 3,
/// identity IDs) on the 2^12-vertex `forest_union(a = 3)` (seed 54,
/// Table 2's T2.2 seed and its largest quick size) on the sequential sync
/// engine. A vertex waits out long fixed-budget windows and changes what
/// its neighbours see in only a few of those rounds, so this entry moves
/// with the cost of an idle round. The graph is built outside the timed
/// region.
fn edge_col_seq_n12(id: &str, reps: usize) -> PerfEntry {
    use algos::edge_coloring::EdgeColoringExtension;
    const N: usize = 1 << 12;
    let g = crate::forest_workload(N, 3, 54).graph;
    let ids = IdAssignment::identity(N);
    let p = EdgeColoringExtension::new(3);
    measure(id, N, reps, || {
        Runner::new(&p, &g, &ids)
            .run()
            .expect("edge coloring terminates on a forest union")
            .stats
    })
}

/// Measures the cost of absorbing edge churn: 50 batches of one insert
/// and one delete on the 2^15-vertex `forest_union(a = 2)`, each applied
/// with [`graphcore::churn::apply`] and re-solved with Luby's MIS warm-
/// started from the previous batch's replay (`Runner::run_warm`). For
/// this entry `vr_per_sec` is **batches per second**; `rounds` is the
/// batch count, `n` the vertex count, and `vertex_rounds` the total warm
/// re-steps, catch-up included. Those are a few dozen per batch, so the
/// work-drift check pins the propagation rule's dirty sets, while the
/// time goes mostly to the `O(n + m)` copies around them: the edited
/// CSR, the view slabs and the replay's chunk list. The graph, the
/// recorded cold solve, and the churn plan are built outside the timed
/// region.
fn warm_update_n15(id: &str, reps: usize) -> PerfEntry {
    use algos::mis::LubyMis;
    use graphcore::churn::{self, ChurnPlan};
    const N: usize = 1 << 15;
    const BATCHES: usize = 50;
    let base = crate::forest_workload(N, 2, 1).graph;
    let ids = crate::Trial::identity(1).ids(N);
    let cfg = crate::cfg(1);
    let (cold, cold_replay) = Runner::new(&LubyMis, &base, &ids)
        .config(cfg)
        .run_recorded()
        .expect("Luby's MIS terminates");
    let plan = ChurnPlan {
        seed: 1,
        batches: BATCHES,
        inserts_per_batch: 1,
        deletes_per_batch: 1,
    };
    let batches = churn::churn_sequence(&base, &plan);
    let (resteps, best_wall_ns) = best_of(id, reps, || {
        let (mut g, mut outputs) = (base.clone(), cold.outputs.clone());
        let mut replay = cold_replay.clone();
        let mut resteps = 0u64;
        let t0 = Instant::now();
        for batch in &batches {
            let next = churn::apply(&g, batch);
            let warm = Runner::new(&LubyMis, &next, &ids)
                .config(cfg)
                .run_warm(simlocal::WarmStart {
                    replay: &replay,
                    outputs: &outputs,
                    old_graph: &g,
                    touched: &batch.endpoints(),
                })
                .expect("Luby's MIS terminates");
            resteps += warm.outcome.stats.steps;
            (g, outputs, replay) = (next, warm.outcome.outputs, warm.replay);
        }
        (resteps, t0.elapsed())
    });
    entry(id, N, BATCHES as u32, resteps, best_wall_ns, BATCHES as u64)
}

/// Measures [`graphcore::io`] ingestion throughput: parsing a Matrix
/// Market document of `n` edges held in memory and normalizing it
/// (dedupe, self-loop drop, component count, arboricity estimate). For
/// this entry `vr_per_sec` is **edges per second** through parse +
/// normalize; `rounds` is 1, `n` the normalized vertex count, and
/// `vertex_rounds` the raw edge count, so the work-drift check still
/// pins the measured document. The document is built outside the timed
/// region — the gate covers ingestion, not formatting.
fn ingest_parse_n20(id: &str, n: usize, reps: usize) -> PerfEntry {
    use graphcore::io::{normalize, parse_raw, FileFormat, NormalizeOptions};
    let text = graphcore::io::to_matrix_market(&gen::cycle(n));
    let ((vertices, m_raw), best_wall_ns) = best_of(id, reps, || {
        let t0 = Instant::now();
        let raw = parse_raw(&text, FileFormat::MatrixMarket).expect("generated document parses");
        let (graph, report) = normalize(&raw, NormalizeOptions::default());
        ((graph.n(), report.m_raw as u64), t0.elapsed())
    });
    entry(id, vertices, 1, m_raw, best_wall_ns, m_raw)
}

/// Measures the full table2 quick plan (identity IDs, seed 0, sync
/// backend, one worker) executed silently through the trial pipeline.
/// For this entry `vr_per_sec` is **trials per second** — the sustained
/// trial throughput of the harness itself; `rounds` carries the trial
/// count, `n` the total vertices across trials, and `vertex_rounds` the
/// summed `RoundSum`, so the perf gate's work-drift check still pins the
/// measured workload to the suite declarations.
fn harness_table2_quick(id: &str, reps: usize) -> PerfEntry {
    use crate::pipeline::{plan_rows, run_plan, CollectSink, WorkloadCache};
    use crate::spec::SpecKind;
    let cli = crate::Cli::parse_from(["--quick".to_string()]).expect("static flags parse");
    let specs = crate::suites::table2();
    let ((trials, total_n, pubs), best_wall_ns) = best_of(id, reps, || {
        let cache = WorkloadCache::new();
        let mut next_id = 0u64;
        let (mut trials, mut total_n, mut pubs) = (0u64, 0u64, 0u64);
        let t0 = Instant::now();
        for spec in &specs {
            if let SpecKind::Rows {
                workloads, runs, ..
            } = &spec.kind
            {
                let plan = plan_rows(&cli, workloads, runs, &mut next_id);
                let mut sink = CollectSink::default();
                run_plan(&plan, 1, &cache, None, &mut sink);
                trials += sink.rows.len() as u64;
                total_n += sink.rows.iter().map(|r| r.n as u64).sum::<u64>();
                pubs += sink.rows.iter().map(|r| r.pubs).sum::<u64>();
            }
        }
        ((trials, total_n, pubs), t0.elapsed())
    });
    entry(
        id,
        total_n as usize,
        trials as u32,
        pubs,
        best_wall_ns,
        trials,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfSummary {
        PerfSummary::new(
            vec!["host: test".into()],
            vec![
                PerfEntry {
                    id: "a".into(),
                    n: 1024,
                    rounds: 11,
                    vertex_rounds: 2048,
                    best_wall_ns: 1000,
                    vr_per_sec: 2.048e9,
                    barrier_wait_frac: None,
                },
                PerfEntry {
                    id: "b".into(),
                    n: 1024,
                    rounds: 11,
                    vertex_rounds: 2048,
                    best_wall_ns: 2000,
                    vr_per_sec: 1.024e9,
                    barrier_wait_frac: Some(0.25),
                },
            ],
        )
    }

    #[test]
    fn perf_json_round_trips() {
        let s = sample();
        let parsed = PerfSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed.schema_version, s.schema_version);
        assert_eq!(parsed.notes, s.notes);
        assert_eq!(parsed.entries.len(), s.entries.len());
        for (a, b) in parsed.entries.iter().zip(&s.entries) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.vertex_rounds, b.vertex_rounds);
            assert!((a.vr_per_sec - b.vr_per_sec).abs() / b.vr_per_sec < 1e-6);
            assert_eq!(a.barrier_wait_frac, b.barrier_wait_frac);
        }
    }

    #[test]
    fn perf_gate_ignores_snapshot_ratios() {
        // The obs ratio is context, not gated work: a fresh run whose
        // ratio differs (or is absent) passes against the baseline.
        let base = sample();
        let mut fresh = sample();
        fresh.entries[0].barrier_wait_frac = Some(0.5);
        fresh.entries[1].barrier_wait_frac = None;
        assert!(diff_perf(&base, &fresh, 0.25).is_empty());
    }

    #[test]
    fn perf_gate_is_one_sided() {
        let base = sample();
        let mut fresh = sample();
        // 10% slower at tol 0.25: passes.
        fresh.entries[0].vr_per_sec = base.entries[0].vr_per_sec * 0.9;
        assert!(diff_perf(&base, &fresh, 0.25).is_empty());
        // 30% slower: fails.
        fresh.entries[0].vr_per_sec = base.entries[0].vr_per_sec * 0.7;
        let failures = diff_perf(&base, &fresh, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"));
        // 2x faster: passes, but noted.
        fresh.entries[0].vr_per_sec = base.entries[0].vr_per_sec * 2.0;
        assert!(diff_perf(&base, &fresh, 0.25).is_empty());
        assert_eq!(perf_notes(&base, &fresh, 0.25).len(), 1);
    }

    #[test]
    fn perf_gate_rejects_workload_drift() {
        let base = sample();
        let mut fresh = sample();
        fresh.entries[1].vertex_rounds += 1;
        let failures = diff_perf(&base, &fresh, 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("different work"));
        // Missing and extra entries both fail.
        let mut fresh = sample();
        fresh.entries[0].id = "c".into();
        let failures = diff_perf(&base, &fresh, 0.25);
        assert_eq!(failures.len(), 2);
    }

    #[test]
    fn measure_records_best_rep() {
        let g = gen::cycle(64);
        let ids = IdAssignment::identity(64);
        let e = measure("t", 64, 3, || {
            Runner::new(&PureDecay, &g, &ids).run().unwrap().stats
        });
        assert_eq!(e.n, 64);
        assert_eq!(e.rounds, 7, "64 vertices decay in log2(64)+1 rounds");
        assert!(e.vertex_rounds > 64, "RoundSum ≈ 2n");
        assert!(e.vr_per_sec > 0.0);
    }

    #[test]
    fn suite_ids_are_unique() {
        let ids = suite_ids();
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(
            unique.len(),
            ids.len(),
            "duplicate perf entry id in {ids:?}"
        );
    }
}
