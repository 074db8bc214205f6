//! End-to-end benchmark of the distsym workspace.
//!
//! Four workloads, each stressing different layers (see `README.md` for
//! why each exists and which metric each layer should move):
//!
//! * [`Workload::Table2Quick`] regenerates the quick Table 2 suite through
//!   the trial pipeline ([`table2`]);
//! * [`Workload::IngestSolve`] ingests a 2^20-vertex edge-list file and
//!   solves it on the sync engine ([`solve`]);
//! * [`Workload::ActorSolve`] solves the same graph, generated in memory,
//!   on the 2-shard actor backend ([`solve`]);
//! * [`Workload::ChurnUpdates`] absorbs edge churn with the warm-start
//!   engine ([`churn`]).
//!
//! Every layer is measured from outside, by timing calls into the
//! workspace's public functions ([`spans`]) and by reading the existing
//! `simlocal::obs` registry; nothing is instrumented inside the program.
//! A run sets up its inputs several times (the median is `setup_s`),
//! then repeats passes until its time is up, checking every output.

pub mod churn;
pub mod report;
pub mod solve;
pub mod spans;
pub mod stats;
pub mod table2;

use report::{peak_rss_mib, Outcome};
use simlocal::obs::{Metric, Registry};
use stats::{median, percentile, ratio};
use std::collections::BTreeMap;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Regenerate the quick Table 2 suite (trial pipeline).
    Table2Quick,
    /// Edge-list file → verified solutions on the sync engine.
    IngestSolve,
    /// In-memory graph → verified solutions on the actor backend.
    ActorSolve,
    /// Warm-start updates under edge churn.
    ChurnUpdates,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Table2Quick,
        Workload::IngestSolve,
        Workload::ActorSolve,
        Workload::ChurnUpdates,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table2Quick => "table2_quick",
            Workload::IngestSolve => "ingest_solve",
            Workload::ActorSolve => "actor_solve",
            Workload::ChurnUpdates => "churn_updates",
        }
    }

    /// Resolves a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is what the benchmark measures;
/// [`Sizes::tiny`] lets tests run every workload in about a second.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Table 2 experiment ids to run (empty = the whole suite).
    pub table2_filters: Vec<String>,
    /// Vertices of the `ingest_solve` / `actor_solve` graph.
    pub solve_n: usize,
    /// Vertices of the `churn_updates` graph.
    pub churn_n: usize,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Sizes {
        Sizes {
            table2_filters: Vec::new(),
            solve_n: 1 << 20,
            churn_n: 1 << 15,
        }
    }

    /// A configuration small enough for unit tests.
    pub fn tiny() -> Sizes {
        Sizes {
            table2_filters: vec!["T2.1f".to_string()],
            solve_n: 1 << 10,
            churn_n: 1 << 9,
        }
    }
}

/// How one run is driven.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Seeds graph generation, the engines and the churn plan.
    pub seed: u64,
    /// How long the passes run (at least one pass, two when traced).
    pub seconds: f64,
    /// Traced run: alternate untraced and traced passes and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

/// Runs one workload and returns its metrics and check counts.
pub fn run(w: Workload, cfg: &RunCfg, sizes: &Sizes) -> Outcome {
    match w {
        Workload::Table2Quick => table2::run(cfg, sizes),
        Workload::IngestSolve => solve::run(cfg, sizes, solve::Source::File),
        Workload::ActorSolve => solve::run(cfg, sizes, solve::Source::Memory),
        Workload::ChurnUpdates => churn::run(cfg, sizes),
    }
}

/// Where traced runs write their spans, relative to the repository root.
const TRACE_DIR: &str = "target/benchmark/trace";

/// Writes a traced run's spans (a side output: failing to write them is
/// reported, not fatal).
pub(crate) fn write_trace(tr: &spans::Tracer, workload: &str) {
    match tr.write(std::path::Path::new(TRACE_DIR), workload) {
        Ok([jsonl, chrome]) => eprintln!("spans: {} {}", jsonl.display(), chrome.display()),
        Err(e) => eprintln!("spans: cannot write {TRACE_DIR}: {e}"),
    }
}

/// Fewest set-ups per run; `setup_s` is the median of all of them.
const MIN_SETUPS: usize = 3;

/// Set-up repeats until it has taken this long in total (after its
/// minimum count). A cheap set-up thus reports the median of many samples
/// spread over a second, not of a few that one slow moment of a shared
/// host can cover.
const SETUP_BUDGET_S: f64 = 1.0;

/// Upper limit on set-up repetitions.
const MAX_SETUPS: usize = 1000;

/// Runs `f` at least [`MIN_SETUPS`] times and until [`SETUP_BUDGET_S`]
/// has passed (at most [`MAX_SETUPS`] times), timing each call, and keeps
/// the last result. Earlier results are dropped before the next call so
/// set-up never holds two copies of its input.
pub(crate) fn set_up<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut last = None;
    let mut secs: Vec<f64> = Vec::new();
    while secs.len() < MIN_SETUPS
        || (secs.iter().sum::<f64>() < SETUP_BUDGET_S && secs.len() < MAX_SETUPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("set-up ran at least once"), secs)
}

/// Pass bookkeeping shared by the workloads: how many passes to run and
/// which to trace, each pass's wall time, and the time to each solution
/// in the untraced passes.
pub(crate) struct Passes {
    cfg: RunCfg,
    setup_s: Vec<f64>,
    start: Instant,
    started: u32,
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    solution_ms: Vec<f64>,
}

impl Passes {
    /// Starts the measured window after set-up took `setup_s`.
    pub(crate) fn new(cfg: &RunCfg, setup_s: Vec<f64>) -> Passes {
        Passes {
            cfg: *cfg,
            setup_s,
            start: Instant::now(),
            started: 0,
            untraced_s: Vec::new(),
            traced_s: Vec::new(),
            solution_ms: Vec::new(),
        }
    }

    /// The next pass — `(index, traced)` — or `None` once the time is up.
    /// A traced run alternates, starting untraced, so the tracing
    /// overhead is measured within the run.
    pub(crate) fn next(&mut self) -> Option<(u32, bool)> {
        let min = if self.cfg.trace { 2 } else { 1 };
        if self.started >= min && self.start.elapsed().as_secs_f64() >= self.cfg.seconds {
            return None;
        }
        let i = self.started;
        self.started += 1;
        Some((i, self.cfg.trace && i % 2 == 1))
    }

    /// Records a finished pass's wall time.
    pub(crate) fn pass_done(&mut self, traced: bool, secs: f64) {
        if traced {
            self.traced_s.push(secs);
        } else {
            self.untraced_s.push(secs);
        }
    }

    /// Records the time one solution took (untraced passes only feed
    /// the report).
    pub(crate) fn solution_done(&mut self, traced: bool, secs: f64) {
        if !traced {
            self.solution_ms.push(secs * 1e3);
        }
    }

    /// Total wall time of the traced passes — the denominator of every
    /// layer share.
    pub(crate) fn traced_wall_s(&self) -> f64 {
        self.traced_s.iter().sum()
    }

    /// Median untraced time to a solution, in milliseconds.
    pub(crate) fn solution_p50_ms(&self) -> f64 {
        percentile(&self.solution_ms, 50.0)
    }

    /// The run's metrics: end-to-end for an untraced run; for a traced
    /// run, `layers` over a zero for every layer this workload bypasses,
    /// plus the tracing overhead.
    pub(crate) fn finish(
        self,
        attempted: u64,
        failed: u64,
        layers: BTreeMap<String, f64>,
    ) -> Outcome {
        let mut metrics = BTreeMap::new();
        if self.cfg.trace {
            for d in report::per_layer() {
                metrics.insert(d.name, 0.0);
            }
            for (name, v) in layers {
                assert!(
                    metrics.contains_key(&name),
                    "undeclared layer metric `{name}`"
                );
                metrics.insert(name, v);
            }
            metrics.insert(
                "trace.overhead_frac".into(),
                ratio(median(&self.traced_s), median(&self.untraced_s)) - 1.0,
            );
        } else {
            metrics.insert("setup_s".into(), median(&self.setup_s));
            metrics.insert("time_to_solution_p50_ms".into(), self.solution_p50_ms());
            metrics.insert(
                "time_to_solution_p99_ms".into(),
                percentile(&self.solution_ms, 99.0),
            );
            metrics.insert("peak_rss_mib".into(), peak_rss_mib());
        }
        Outcome {
            attempted,
            failed,
            metrics,
        }
    }
}

/// The `simlocal::obs` counters that traced passes recorded for the
/// registry, sync-engine, actor and transport layers. Each traced pass
/// attaches a fresh registry, so its counters are that pass's alone.
#[derive(Default)]
pub(crate) struct ObsSums {
    secs: BTreeMap<&'static str, f64>,
    rounds: u64,
    fast_rounds: u64,
    actor_wait_s: f64,
    first_pass_counts: Option<BTreeMap<&'static str, u64>>,
}

impl ObsSums {
    /// Adds one traced pass's registry.
    pub(crate) fn add(&mut self, reg: &Registry) {
        use Metric::*;
        let secs = |m| reg.total(m) as f64 / 1e9;
        for (name, m) in [
            ("registry.construct_frac", HarnessQueueNs),
            ("registry.engine_frac", HarnessRunNs),
            ("registry.verify_frac", HarnessVerifyNs),
            ("engine.step_frac", EngineStepNs),
            ("engine.publish_frac", EnginePublishNs),
            ("engine.retire_frac", EngineRetireNs),
            ("actor.compute_frac", ActorComputeNs),
        ] {
            *self.secs.entry(name).or_default() += secs(m);
        }
        self.rounds += reg.total(EngineRounds);
        self.fast_rounds += reg.total(EngineFastRounds);
        self.actor_wait_s += secs(ActorBarrierWaitNs);
        // Every pass of a workload does the same work, so the first traced
        // pass's counts are the run's exact counts.
        self.first_pass_counts.get_or_insert_with(|| {
            [
                ("engine.vertex_rounds", EngineSteps),
                ("engine.msg_bits", EngineMsgBits),
                ("transport.entries", TransportEntriesOut),
                ("transport.batches", TransportBatchesOut),
            ]
            .into_iter()
            .map(|(name, m)| (name, reg.total(m)))
            .collect()
        });
    }

    /// Writes the layer metrics, as shares of `wall` seconds of traced
    /// passes where they are times.
    pub(crate) fn layers(&self, wall: f64, out: &mut BTreeMap<String, f64>) {
        for (name, s) in &self.secs {
            out.insert(name.to_string(), ratio(*s, wall));
        }
        out.insert(
            "engine.fast_round_frac".into(),
            ratio(self.fast_rounds as f64, self.rounds as f64),
        );
        let compute = self.secs.get("actor.compute_frac").copied().unwrap_or(0.0);
        out.insert(
            "actor.barrier_wait_frac".into(),
            ratio(self.actor_wait_s, self.actor_wait_s + compute),
        );
        for (name, v) in self.first_pass_counts.iter().flatten() {
            out.insert(name.to_string(), *v as f64);
        }
    }
}
