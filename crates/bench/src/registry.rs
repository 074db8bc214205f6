//! The declarative algorithm registry: every algorithm the harness knows,
//! as one [`AlgoSpec`] declaration behind the dyn-erased [`ErasedAlgo`]
//! trait.
//!
//! The registry replaces the eight monomorphized `run_*` wrappers and the
//! 17-arm `coloring_row` dispatch the harness grew up with: each algorithm
//! now declares its name, its [`Problem`], its constructor over
//! `(GenGraph, Params)`, its claimed palette-cap function, and its paper
//! bound tag — and **exactly one** code path constructs the protocol,
//! runs it recording its rounds ([`TraceLog`]), verifies the output
//! through [`Problem::verify_output`], and assembles the [`Row`] with
//! the run's [`PhaseBreakdown`].
//!
//! Consumers resolve algorithms by name ([`find`]) or enumerate them
//! ([`all`]), then execute through **one** entry point:
//! [`AlgoSpec::try_exec`] (or [`AlgoSpec::exec`], which panics on an
//! engine error), driven by an [`ExecOptions`] value. The options
//! select the execution mode (sequential / parallel) and the backend —
//! so the spec-driven binaries (via [`crate::spec::execute`]), the
//! `trace` binary, the root `distsym` CLI and the end-to-end benchmark
//! all go through the same construct → run → verify path, and every
//! run returns its round log. Registering a new algorithm here makes it
//! immediately runnable and traceable.

use crate::{cfg, Row, Trial};
use algos::{baselines, coloring, edge_coloring, forests, matching, mis, pipeline, rand_coloring};
use graphcore::churn::{self, ChurnPlan};
use graphcore::{gen::GenGraph, verify, Graph, IdAssignment, VertexId};
use simlocal::obs::Metric as ObsMetric;
use simlocal::{
    ActorRunner, EngineError, EngineStats, PhaseBreakdown, Protocol, Runner, SimOutcome, TraceLog,
    WarmOutcome, WarmStart,
};
use std::sync::OnceLock;

/// Which execution engine runs the protocol. Both backends are pinned
/// byte-identical (outputs, metrics, `EngineStats`, wire accounting) by
/// the `actor_backend` proptest suite, so the choice is purely about
/// *how* the rounds execute, never *what* they compute.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The sync sparse engine ([`simlocal::Runner`]) — sequential, or
    /// fanning each round out over `std::thread::scope` workers when
    /// [`ExecOptions::parallel`] is set.
    #[default]
    Sync,
    /// The actor backend ([`simlocal::ActorRunner`]): vertex shards as
    /// threads exchanging `Protocol::Msg` batches over in-process
    /// channels through a round barrier. `shards == 0` = auto (the
    /// machine's available parallelism).
    Actor {
        /// Shard count (`0` = auto).
        shards: usize,
    },
}

impl Backend {
    /// Parses a `--backend` value: `sync`, `actor` (auto shards), or
    /// `actor:K` (fixed shard count).
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "sync" => Ok(Backend::Sync),
            "actor" => Ok(Backend::Actor { shards: 0 }),
            _ => match s.strip_prefix("actor:") {
                Some(k) => k
                    .parse::<usize>()
                    .ok()
                    .filter(|&k| k >= 1)
                    .map(|shards| Backend::Actor { shards })
                    .ok_or_else(|| {
                        format!("--backend actor:K requires a positive shard count, got `{k}`")
                    }),
                None => Err(format!(
                    "unknown backend `{s}` (expected sync, actor, or actor:K)"
                )),
            },
        }
    }

    /// Stable label for listings and logs.
    pub fn label(&self) -> String {
        match self {
            Backend::Sync => "sync".to_string(),
            Backend::Actor { shards: 0 } => "actor".to_string(),
            Backend::Actor { shards } => format!("actor:{shards}"),
        }
    }

    /// A metrics registry sized for this backend's runs: the global
    /// slots alone for the sync engine, one per-shard slot per actor
    /// shard (the machine's available parallelism for auto).
    pub fn metrics_registry(&self) -> simlocal::obs::Registry {
        let shards = match *self {
            Backend::Sync => 1,
            Backend::Actor { shards: 0 } => std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1),
            Backend::Actor { shards } => shards,
        };
        simlocal::obs::Registry::new(shards)
    }

    /// The `--list` enumeration every harness binary prints: each
    /// selectable backend with its one-line description.
    pub fn describe_all() -> Vec<(&'static str, &'static str)> {
        vec![
            (
                "sync",
                "sparse synchronous engine (default; trace and distsym run take --parallel \
                 to fan rounds out over worker threads)",
            ),
            (
                "actor",
                "actor backend: vertex shards over channels, auto shard count",
            ),
            (
                "actor:K",
                "actor backend with K shards (byte-identical for every K)",
            ),
        ]
    }
}

/// The problem an algorithm solves. Owns the single verification path:
/// every row's `colors`/`valid` pair comes from [`Problem::verify_output`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// Proper vertex coloring against a claimed palette cap.
    VertexColoring,
    /// Proper edge coloring against a claimed palette cap.
    EdgeColoring,
    /// Maximal independent set.
    Mis,
    /// Maximal matching.
    MaximalMatching,
    /// Forest decomposition into a claimed number of forests.
    Forests,
}

impl Problem {
    /// Stable label for listings and docs.
    pub fn label(&self) -> &'static str {
        match self {
            Problem::VertexColoring => "vertex-coloring",
            Problem::EdgeColoring => "edge-coloring",
            Problem::Mis => "mis",
            Problem::MaximalMatching => "maximal-matching",
            Problem::Forests => "forests",
        }
    }

    /// Verifies a solution and reports the distinct-color count. `cap` is
    /// the algorithm's claimed palette cap (`usize::MAX` = no palette
    /// claim); set problems ignore it. This is the only place in the
    /// harness where outputs are judged.
    pub fn verify_output(&self, g: &Graph, sol: &Solution, cap: usize) -> Verdict {
        match (self, sol) {
            (Problem::VertexColoring, Solution::VertexColors(colors)) => Verdict {
                colors: verify::count_distinct(colors),
                valid: verify::proper_vertex_coloring(g, colors, cap).is_ok(),
            },
            (Problem::EdgeColoring, Solution::EdgeColors(colors)) => Verdict {
                colors: verify::count_distinct(colors),
                valid: verify::proper_edge_coloring(g, colors, cap).is_ok(),
            },
            (Problem::Mis, Solution::InSet(in_set)) => Verdict {
                colors: 0,
                valid: verify::maximal_independent_set(g, in_set).is_ok(),
            },
            (Problem::MaximalMatching, Solution::Matched(matched)) => Verdict {
                colors: 0,
                valid: verify::maximal_matching(g, matched).is_ok(),
            },
            // A forest decomposition is judged against the *algorithm's*
            // claimed forest count (carried in the solution, not the
            // palette cap): the baseline claims nothing (`claimed == 0`),
            // so assembling at all is its success criterion.
            (
                Problem::Forests,
                Solution::Forest {
                    labels,
                    heads,
                    claimed,
                },
            ) => {
                if *claimed == 0 {
                    Verdict {
                        colors: 0,
                        valid: true,
                    }
                } else {
                    Verdict {
                        colors: *claimed,
                        valid: verify::forest_decomposition(g, labels, heads, *claimed).is_ok(),
                    }
                }
            }
            _ => Verdict::INVALID,
        }
    }
}

/// A problem solution in verifiable form, extracted from a protocol's
/// [`SimOutcome`] by the algorithm's adapter. `PartialEq` backs the
/// dynamic-mode warm ≡ cold equivalence check.
#[derive(Clone, Debug, PartialEq)]
pub enum Solution {
    /// Per-vertex colors.
    VertexColors(Vec<u64>),
    /// Per-edge colors (CSR edge order).
    EdgeColors(Vec<u64>),
    /// Per-vertex set membership (MIS).
    InSet(Vec<bool>),
    /// Per-vertex matched flag.
    Matched(Vec<bool>),
    /// Forest decomposition: per-vertex forest labels + parent pointers,
    /// plus the number of forests the algorithm claims (`0` = no claim,
    /// assembly alone is checked).
    Forest {
        /// Forest index per vertex.
        labels: Vec<u32>,
        /// Parent ("head") per vertex, if any.
        heads: Vec<Option<VertexId>>,
        /// Claimed forest count (`0` = unclaimed).
        claimed: usize,
    },
}

/// Outcome of [`Problem::verify_output`].
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// Distinct colors used (0 for set problems).
    pub colors: usize,
    /// Whether the output passed the problem's verifier.
    pub valid: bool,
}

impl Verdict {
    /// The verdict on an output that could not even be assembled.
    pub const INVALID: Verdict = Verdict {
        colors: 0,
        valid: false,
    };
}

/// Per-run algorithm parameters. All fields default to 0 = "unset"; each
/// algorithm reads only what it declares (e.g. `k` for the segmentation
/// schemes, `c` for One-Plus-Eta's recursion constant).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Params {
    /// Segmentation parameter `k` (ka / ka2).
    pub k: u32,
    /// One-Plus-Eta recursion constant `C` (0 = the default 4).
    pub c: usize,
}

impl Params {
    /// Parameters with segmentation `k` set.
    pub fn k(k: u32) -> Params {
        Params {
            k,
            ..Params::default()
        }
    }

    /// Parameters with One-Plus-Eta constant `C` set.
    pub fn c(c: usize) -> Params {
        Params {
            c,
            ..Params::default()
        }
    }
}

/// Per-window Lemma 6.1 decay claim: the active set must shrink by
/// `ratio` per `stride`-round window, above `floor`, after `grace`
/// warm-up windows (see `bounds::geometric_decay_violations`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecayClaim {
    /// Required per-window shrink factor in `(0, 1)`.
    pub ratio: f64,
    /// Window width in rounds.
    pub stride: usize,
    /// Counts at or below this floor are exempt.
    pub floor: f64,
    /// Leading windows exempt from the check.
    pub grace: usize,
}

/// Options for one erased execution: what to run it on, and how.
///
/// Construct with [`ExecOptions::new`] (sequential, sync backend) and
/// override per call site.
#[derive(Clone, Copy, Debug)]
pub struct ExecOptions<'a> {
    /// Experiment tag recorded in [`Row::exp`].
    pub exp: &'a str,
    /// The workload graph (with its generation metadata).
    pub gg: &'a GenGraph,
    /// Algorithm parameters (`k`, `C`, …).
    pub params: Params,
    /// Seed / ID-assignment trial.
    pub trial: &'a Trial,
    /// Run on the parallel engine.
    pub parallel: bool,
    /// Execution backend (sync engine or actor shards).
    pub backend: Backend,
    /// Metrics registry handed to the runner and fed the harness-level
    /// trial timings: each completed run adds its engine, actor and
    /// transport counts once from its outcome, while phase laps and
    /// barrier waits are timed as it goes. `None` (the default) keeps
    /// every run on the zero-cost path. For the actor backend the
    /// registry must be sized for the resolved shard count
    /// ([`Backend::metrics_registry`]).
    pub metrics: Option<&'a simlocal::obs::Registry>,
}

impl<'a> ExecOptions<'a> {
    /// Sequential execution on the sync backend.
    pub fn new(exp: &'a str, gg: &'a GenGraph, trial: &'a Trial) -> ExecOptions<'a> {
        ExecOptions {
            exp,
            gg,
            params: Params::default(),
            trial,
            parallel: false,
            backend: Backend::default(),
            metrics: None,
        }
    }

    /// Sets the algorithm parameters.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Selects sequential (`false`) or parallel (`true`) execution.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Selects the execution backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a metrics registry (see [`simlocal::obs`]).
    pub fn metrics(mut self, registry: &'a simlocal::obs::Registry) -> Self {
        self.metrics = Some(registry);
        self
    }
}

/// What [`AlgoSpec::try_exec`] produced: the verified row, the engine
/// stats, the run's round log and the phase breakdown derived from it.
pub struct ExecOutcome {
    /// The verified measurement row.
    pub row: Row,
    /// Engine work/wall accounting.
    pub stats: EngineStats,
    /// Per-phase RoundSum / termination accounting.
    pub breakdown: PhaseBreakdown,
    /// The exportable round log: one record per round, split by phase.
    pub trace: TraceLog,
}

impl ExecOutcome {
    /// The verified row, for callers that need nothing else.
    pub fn into_row(self) -> Row {
        self.row
    }
}

/// A dyn-erased algorithm: the one run path behind every table row and
/// trace. Implemented once, generically, by the adapter that
/// [`AlgoSpec`] constructors build — never by hand.
pub trait ErasedAlgo: Send + Sync {
    /// Row label for a run with `params` (k-parameterized algorithms
    /// encode `k` so sweeps summarize as distinct configurations).
    fn label(&self, params: Params) -> String;

    /// The palette cap a run with these parameters claims, as verified
    /// against and recorded in [`Row::cap`] (`usize::MAX` = no claim).
    fn cap_for(&self, gg: &GenGraph, params: Params, ids: &IdAssignment) -> usize;

    /// The one execution path: construct, run as the options dictate
    /// with the rounds recorded, verify, and return the row, the stats
    /// and the round log — or the engine's error when the run did not
    /// complete.
    fn try_exec(&self, opts: &ExecOptions<'_>) -> Result<ExecOutcome, EngineError>;

    /// Dynamic mode: cold-solve the workload once with a replay log
    /// recorded, then warm-start ([`simlocal::warm`]) through each batch
    /// of the seeded churn plan, returning one verified update-cost
    /// [`Row`] per batch. A row's round metrics count only *recomputed*
    /// work: the engine re-steps only the vertices whose inputs the edit
    /// changed, and every other vertex terminates at round 0. Its
    /// `reactivated` field is the fraction of vertices re-stepped (1.0
    /// when the protocol does not declare [`Protocol::is_local`] and the
    /// engine falls back to a full re-solve). The warm engine compares
    /// re-stepped messages with the prior log, which is why every
    /// registered protocol's `Msg` is `PartialEq`: this method is generic
    /// over all of them. `check_cold` additionally cold-solves
    /// every edited graph and asserts the warm solution is identical —
    /// the equivalence oracle the tests and the CI smoke run through.
    /// With a metrics registry attached, the cold solve records its
    /// engine counts and one harness trial, and each warm run its warm
    /// counts. Always executes on the sync engine (the warm path lives
    /// there); the options' backend is ignored.
    fn exec_dynamic(&self, opts: &ExecOptions<'_>, plan: &ChurnPlan, check_cold: bool) -> Vec<Row>;
}

/// One registered algorithm: identity, problem, paper-bound tag, optional
/// Lemma 6.1 decay claim, and the erased runner.
pub struct AlgoSpec {
    /// Registry name (resolved by [`find`]; also the default row label).
    pub name: &'static str,
    /// The problem this algorithm solves (selects the verifier).
    pub problem: Problem,
    /// The paper (or baseline-analysis) bound this algorithm claims.
    pub bound: &'static str,
    /// Geometric active-set decay claim, where the paper makes one.
    pub decay: Option<DecayClaim>,
    /// CONGEST-width claim: the widest message this algorithm ever
    /// publishes fits in `c·log₂ n` wire bits. `None` for algorithms whose
    /// messages scale with the degree (the extension-framework `Run`
    /// payloads) or with a recursion prefix — those are LOCAL-only.
    /// `spec::execute` turns the claim into a [`crate::Bound::CongestWidth`]
    /// check on every selected run.
    pub congest: Option<f64>,
    algo: Box<dyn ErasedAlgo>,
}

impl AlgoSpec {
    /// See [`ErasedAlgo::label`].
    pub fn label(&self, params: Params) -> String {
        self.algo.label(params)
    }

    /// See [`ErasedAlgo::cap_for`].
    pub fn cap_for(&self, gg: &GenGraph, params: Params, ids: &IdAssignment) -> usize {
        self.algo.cap_for(gg, params, ids)
    }

    /// See [`ErasedAlgo::try_exec`] — the single entry point every
    /// consumer (spec engine, trace binary, `distsym` CLI, end-to-end
    /// benchmark) goes through.
    pub fn try_exec(&self, opts: &ExecOptions<'_>) -> Result<ExecOutcome, EngineError> {
        self.algo.try_exec(opts)
    }

    /// [`AlgoSpec::try_exec`] for workloads the caller knows terminate
    /// (spec tables, tests): panics on an engine error.
    pub fn exec(&self, opts: &ExecOptions<'_>) -> ExecOutcome {
        self.try_exec(opts).expect("protocol terminates")
    }

    /// See [`ErasedAlgo::exec_dynamic`] — the dynamic-mode entry point
    /// behind the `scenarios` churn experiments and the warm ≡ cold
    /// equivalence tests.
    pub fn exec_dynamic(
        &self,
        opts: &ExecOptions<'_>,
        plan: &ChurnPlan,
        check_cold: bool,
    ) -> Vec<Row> {
        self.algo.exec_dynamic(opts, plan, check_cold)
    }

    fn decay(mut self, ratio: f64, stride: usize, floor: f64, grace: usize) -> AlgoSpec {
        self.decay = Some(DecayClaim {
            ratio,
            stride,
            floor,
            grace,
        });
        self
    }

    /// Declare that every message fits in `c·log₂ n` wire bits (CONGEST).
    fn congest(mut self, c: f64) -> AlgoSpec {
        self.congest = Some(c);
        self
    }
}

/// What an adapter's extractor pulls out of a finished run: the solution
/// in verifiable form, plus commit-level metrics for problems whose
/// headline numbers are output-commit based (edge coloring, matching).
struct Extracted {
    solution: Solution,
    commit: Option<simlocal::RoundMetrics>,
}

/// The one generic adapter behind every [`AlgoSpec`]: `build` constructs
/// the protocol, `cap` states its claimed palette, `extract` turns the
/// outcome into a verifiable [`Solution`].
struct Algo<P, B, C, E> {
    name: &'static str,
    problem: Problem,
    label: fn(&'static str, Params) -> String,
    build: B,
    cap: C,
    extract: E,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P, B, C, E> Algo<P, B, C, E>
where
    P: Protocol,
    B: Fn(&GenGraph, Params) -> P + Send + Sync,
    C: Fn(&P, &GenGraph, &IdAssignment) -> usize + Send + Sync,
    E: Fn(&P, &Graph, &SimOutcome<P::Output>) -> Result<Extracted, String> + Send + Sync,
{
    /// The engine configuration an [`ExecOptions`] value asks for.
    fn run_cfg(o: &ExecOptions<'_>) -> simlocal::RunConfig {
        simlocal::RunConfig {
            parallel: o.parallel,
            ..cfg(o.trial.seed)
        }
    }

    /// Runs `p` under the backend the options select, recording its
    /// rounds into `log`. The two backends are byte-identical, so callers
    /// never need to know which ran.
    fn run_backend(
        p: &P,
        ids: &IdAssignment,
        o: &ExecOptions<'_>,
        log: &mut TraceLog,
    ) -> Result<SimOutcome<P::Output>, EngineError> {
        match o.backend {
            Backend::Sync => {
                let mut r = Runner::new(p, &o.gg.graph, ids).config(Self::run_cfg(o));
                if let Some(m) = o.metrics {
                    r = r.obs(m);
                }
                r.run_with(log)
            }
            Backend::Actor { shards } => {
                let mut r = ActorRunner::new(p, &o.gg.graph, ids)
                    .shards(shards)
                    .config(Self::run_cfg(o));
                if let Some(m) = o.metrics {
                    r = r.obs(m);
                }
                r.run_with(log)
            }
        }
    }

    /// Extracts and verifies a finished run's solution. Assembly failure
    /// (e.g. inconsistent edge labels) is an invalid verdict, not a
    /// panic: the bound checks reject the row.
    fn judge(
        &self,
        p: &P,
        g: &Graph,
        out: &SimOutcome<P::Output>,
        cap: usize,
    ) -> (Verdict, Option<Extracted>) {
        match (self.extract)(p, g, out) {
            Ok(e) => (self.problem.verify_output(g, &e.solution, cap), Some(e)),
            Err(_) => (Verdict::INVALID, None),
        }
    }

    /// The measurement row of a judged run on `o`'s workload.
    fn row(
        &self,
        o: &ExecOptions<'_>,
        metrics: &simlocal::RoundMetrics,
        verdict: Verdict,
        stats: &EngineStats,
        cap: usize,
    ) -> Row {
        Row::from_metrics(
            o.exp,
            &(self.label)(self.name, o.params),
            o.gg.family,
            o.gg.graph.n(),
            o.gg.arboricity,
            metrics,
            verdict.colors,
            verdict.valid,
        )
        .with_stats(stats)
        .with_trial(o.trial)
        .with_cap(cap)
    }
}

impl<P, B, C, E> ErasedAlgo for Algo<P, B, C, E>
where
    P: Protocol,
    B: Fn(&GenGraph, Params) -> P + Send + Sync,
    C: Fn(&P, &GenGraph, &IdAssignment) -> usize + Send + Sync,
    E: Fn(&P, &Graph, &SimOutcome<P::Output>) -> Result<Extracted, String> + Send + Sync,
{
    fn label(&self, params: Params) -> String {
        (self.label)(self.name, params)
    }

    fn cap_for(&self, gg: &GenGraph, params: Params, ids: &IdAssignment) -> usize {
        let p = (self.build)(gg, params);
        (self.cap)(&p, gg, ids)
    }

    fn exec_dynamic(&self, o: &ExecOptions<'_>, plan: &ChurnPlan, check_cold: bool) -> Vec<Row> {
        let ExecOptions {
            gg, params, trial, ..
        } = *o;
        let ids = trial.ids(gg.graph.n());
        // Cold recorded solve of the base graph seeds the warm chain; it
        // counts as the call's one harness trial.
        let p0 = (self.build)(gg, params);
        let mut cold = Runner::new(&p0, &gg.graph, &ids).config(Self::run_cfg(o));
        if let Some(m) = o.metrics {
            cold = cold.obs(m);
            m.add(ObsMetric::HarnessTrials, 0, 1);
        }
        let (out0, mut replay) = cold.run_recorded().expect("protocol terminates");
        let mut outputs = out0.outputs;
        let mut cur = gg.graph.clone();
        let mut rows = Vec::with_capacity(plan.batches);
        for (i, batch) in churn::churn_sequence(&gg.graph, plan).iter().enumerate() {
            let edited = GenGraph {
                graph: churn::apply(&cur, batch),
                // The generators' structural guarantee does not survive
                // editing, but the algorithms' `a` parameter must stay
                // fixed across batches (a protocol keyed on a freshly
                // recomputed `a` would not be local anyway).
                arboricity: gg.arboricity,
                family: gg.family,
            };
            let p = (self.build)(&edited, params);
            let touched = batch.endpoints();
            let mut runner = Runner::new(&p, &edited.graph, &ids).config(Self::run_cfg(o));
            if let Some(m) = o.metrics {
                runner = runner.obs(m);
            }
            let WarmOutcome {
                outcome,
                replay: next_replay,
                stats,
            } = runner
                .run_warm(WarmStart {
                    replay: &replay,
                    outputs: &outputs,
                    old_graph: &cur,
                    touched: &touched,
                })
                .expect("protocol terminates");
            let cap = (self.cap)(&p, &edited, &ids);
            // The headline metrics are always the warm engine's update
            // cost (commit-based overrides would re-report cold work).
            let (verdict, extracted) = self.judge(&p, &edited.graph, &outcome, cap);
            let solution = extracted.map(|e| e.solution);
            if check_cold {
                let pc = (self.build)(&edited, params);
                let cold = Runner::new(&pc, &edited.graph, &ids)
                    .config(Self::run_cfg(o))
                    .run()
                    .expect("protocol terminates");
                let cold_solution = (self.extract)(&pc, &edited.graph, &cold)
                    .ok()
                    .map(|e| e.solution);
                assert_eq!(
                    solution, cold_solution,
                    "warm batch {i} diverged from the cold re-solve"
                );
            }
            // Churn keeps the vertex set, so `o`'s workload size stands.
            let n = edited.graph.n().max(1) as f64;
            rows.push(
                self.row(o, &outcome.metrics, verdict, &outcome.stats, cap)
                    .with_reactivated(stats.reactivated as f64 / n),
            );
            replay = next_replay;
            outputs = outcome.outputs;
            cur = edited.graph;
        }
        rows
    }

    fn try_exec(&self, o: &ExecOptions<'_>) -> Result<ExecOutcome, EngineError> {
        let ExecOptions {
            gg, params, trial, ..
        } = *o;
        // Harness-level trial timings (queue = setup before the engine
        // starts, run = engine wall, verify = extract + judge). Global
        // series, so any shard handle works.
        let mob = o.metrics.map(|r| r.handle(0));
        let queue_t0 = mob.is_some().then(std::time::Instant::now);
        let p = (self.build)(gg, params);
        let ids = trial.ids(gg.graph.n());
        let cap = (self.cap)(&p, gg, &ids);
        let mut log = TraceLog::with_phases(p.phase_names());
        if let (Some(m), Some(t0)) = (mob, queue_t0) {
            m.add_elapsed(ObsMetric::HarnessQueueNs, t0);
        }
        let run_t0 = mob.is_some().then(std::time::Instant::now);
        let out = Self::run_backend(&p, &ids, o, &mut log)?;
        if let (Some(m), Some(t0)) = (mob, run_t0) {
            m.add_elapsed(ObsMetric::HarnessRunNs, t0);
            m.add(ObsMetric::HarnessTrials, 1);
        }
        let verify_t0 = mob.is_some().then(std::time::Instant::now);
        let (verdict, extracted) = self.judge(&p, &gg.graph, &out, cap);
        let commit = extracted.and_then(|e| e.commit);
        if let (Some(m), Some(t0)) = (mob, verify_t0) {
            m.add_elapsed(ObsMetric::HarnessVerifyNs, t0);
        }
        let metrics = commit.as_ref().unwrap_or(&out.metrics);
        let breakdown = PhaseBreakdown::from_log(&log);
        let row = self
            .row(o, metrics, verdict, &out.stats, cap)
            .with_trace(&out.metrics, &breakdown);
        Ok(ExecOutcome {
            row,
            stats: out.stats,
            breakdown,
            trace: log,
        })
    }
}

fn plain_label(name: &'static str, _params: Params) -> String {
    name.to_string()
}

/// Builds a vertex-coloring spec (output `u64`, solution = the outputs).
fn coloring_spec<P, B, C>(name: &'static str, bound: &'static str, build: B, cap: C) -> AlgoSpec
where
    P: Protocol<Output = u64> + 'static,
    B: Fn(&GenGraph, Params) -> P + Send + Sync + 'static,
    C: Fn(&P, &GenGraph, &IdAssignment) -> usize + Send + Sync + 'static,
{
    coloring_spec_labelled(name, bound, plain_label, build, cap)
}

fn coloring_spec_labelled<P, B, C>(
    name: &'static str,
    bound: &'static str,
    label: fn(&'static str, Params) -> String,
    build: B,
    cap: C,
) -> AlgoSpec
where
    P: Protocol<Output = u64> + 'static,
    B: Fn(&GenGraph, Params) -> P + Send + Sync + 'static,
    C: Fn(&P, &GenGraph, &IdAssignment) -> usize + Send + Sync + 'static,
{
    AlgoSpec {
        name,
        problem: Problem::VertexColoring,
        bound,
        decay: None,
        congest: None,
        algo: Box::new(Algo {
            name,
            problem: Problem::VertexColoring,
            label,
            build,
            cap,
            extract: |_p: &P, _g: &Graph, out: &SimOutcome<u64>| {
                Ok(Extracted {
                    solution: Solution::VertexColors(out.outputs.clone()),
                    commit: None,
                })
            },
            _marker: std::marker::PhantomData,
        }),
    }
}

/// Builds a spec for any problem whose solution needs a custom extractor
/// (set problems, edge-labelled problems, forests).
fn spec_with_extract<P, B, C, E>(
    name: &'static str,
    problem: Problem,
    bound: &'static str,
    build: B,
    cap: C,
    extract: E,
) -> AlgoSpec
where
    P: Protocol + 'static,
    B: Fn(&GenGraph, Params) -> P + Send + Sync + 'static,
    C: Fn(&P, &GenGraph, &IdAssignment) -> usize + Send + Sync + 'static,
    E: Fn(&P, &Graph, &SimOutcome<P::Output>) -> Result<Extracted, String> + Send + Sync + 'static,
{
    AlgoSpec {
        name,
        problem,
        bound,
        decay: None,
        congest: None,
        algo: Box::new(Algo {
            name,
            problem,
            label: plain_label,
            build,
            cap,
            extract,
            _marker: std::marker::PhantomData,
        }),
    }
}

fn no_cap<P>(_p: &P, _gg: &GenGraph, _ids: &IdAssignment) -> usize {
    usize::MAX
}

/// Builds the full registry, in stable enumeration order (colorings in
/// the order of the old `coloring_row` dispatch, then the set problems).
/// Labels and cap formulas are byte-compatible with the pre-registry
/// wiring — the committed `results/table2.quick.json` baseline depends
/// on that.
fn build_registry() -> Vec<AlgoSpec> {
    vec![
        coloring_spec(
            "a2logn",
            "Thm 7.2: O(a² log n) colors in O(1) VA",
            |gg, _| coloring::a2logn::ColoringA2LogN::new(gg.arboricity),
            |p, _gg, ids| p.palette(ids) as usize,
        )
        .decay(0.5, 1, 8.0, 1)
        .congest(4.0),
        coloring_spec(
            "a2_loglog",
            "Thm 7.6: O(a² log n) colors in O(log log n) VA",
            |gg, _| coloring::a2_loglog::ColoringA2LogLog::new(gg.arboricity),
            |p, _gg, ids| p.palette(ids) as usize,
        )
        .congest(10.0),
        coloring_spec(
            "oa_recolor",
            "Thm 7.7: O(a) colors via recoloring",
            |gg, _| coloring::oa_recolor::ColoringOaRecolor::new(gg.arboricity),
            |p, _gg, _ids| p.palette() as usize,
        )
        .congest(17.0),
        // k-parameterized algorithms carry k in the label so sweeps over k
        // summarize as distinct configurations.
        coloring_spec_labelled(
            "ka2",
            "Thm 7.5: O(ka²) colors in O(log^(k) n) VA",
            |_, p| format!("ka2:k{}", p.k),
            |gg, params| coloring::ka2::ColoringKa2::new(gg.arboricity, params.k),
            |p, gg, ids| p.palette(gg.graph.n() as u64, ids) as usize,
        )
        .congest(10.0),
        coloring_spec(
            "ka2_rho",
            "Thm 7.5 at k = ρ(n): O(log* n) VA",
            |gg, _| coloring::ka2::ColoringKa2::rho_instance(gg.arboricity, gg.graph.n() as u64),
            |p, gg, ids| p.palette(gg.graph.n() as u64, ids) as usize,
        )
        .congest(10.0),
        coloring_spec_labelled(
            "ka",
            "Thm 7.13: O(ka) colors in O(a log^(k) n) VA",
            |_, p| format!("ka:k{}", p.k),
            |gg, params| coloring::ka::ColoringKa::new(gg.arboricity, params.k),
            |p, gg, _ids| p.palette(gg.graph.n() as u64) as usize,
        )
        .congest(17.0),
        coloring_spec(
            "ka_rho",
            "Thm 7.13 at k = ρ(n): O(a log* n) VA",
            |gg, _| coloring::ka::ColoringKa::rho_instance(gg.arboricity, gg.graph.n() as u64),
            |p, gg, _ids| p.palette(gg.graph.n() as u64) as usize,
        )
        .congest(17.0),
        coloring_spec(
            "delta_plus_one",
            "Thm 7.9: Δ+1 colors, a-dependent VA",
            |gg, _| coloring::delta_plus_one::DeltaPlusOneColoring::new(gg.arboricity),
            |_p, gg, _ids| gg.graph.max_degree() + 1,
        )
        .congest(10.0),
        coloring_spec(
            "legal_coloring",
            "[5]-style legal-coloring discipline (Algorithm 3)",
            |gg, _| algos::legal_coloring::LegalColoring::new(gg.arboricity.max(1), 6),
            |p, gg, ids| p.palette_bound(gg.graph.n() as u64, ids) as usize,
        ),
        coloring_spec_labelled(
            "one_plus_eta",
            "Thm 7.8: O(a^{1+η}) colors in O(log a · log log n) VA",
            |name, p| {
                if p.c == 0 {
                    name.to_string()
                } else {
                    format!("one_plus_eta C={}", p.c)
                }
            },
            |gg, params| {
                let c = if params.c == 0 { 4 } else { params.c };
                algos::one_plus_eta::OnePlusEtaArbCol::new(gg.arboricity, c)
            },
            |p, gg, ids| p.palette_bound(gg.graph.n() as u64, ids) as usize,
        ),
        coloring_spec(
            "rand_delta_plus_one",
            "Thm 9.1: Δ+1 colors in O(1) VA w.h.p.",
            |_gg, _| rand_coloring::delta_plus_one::RandDeltaPlusOne::new(),
            |p, gg, _ids| p.palette_on(&gg.graph) as usize,
        )
        .decay(0.9, 2, 32.0, 2)
        .congest(7.0),
        coloring_spec(
            "rand_a_loglog",
            "Thm 9.2: O(a log log n) colors in O(1) VA w.h.p.",
            |gg, _| rand_coloring::a_loglog::RandALogLog::new(gg.arboricity),
            |p, gg, _ids| p.palette(gg.graph.n() as u64) as usize,
        )
        .congest(10.0),
        coloring_spec(
            "arb_color_baseline",
            "[8] Arb-Color: O(a) colors, Θ(log n) WC",
            |gg, _| algos::arb_color::ArbColor::new(gg.arboricity),
            |p, _gg, _ids| p.palette() as usize,
        )
        .congest(17.0),
        coloring_spec(
            "arb_linial_oneshot",
            "[8] one-shot Arb-Linial baseline",
            |gg, _| baselines::ArbLinialOneShot::new(gg.arboricity),
            |p, _gg, ids| p.family(ids).ground_size() as usize,
        )
        .congest(4.0),
        coloring_spec(
            "arb_linial_full",
            "[8] full Arb-Linial: O(a) colors, Θ(log n) WC",
            |gg, _| baselines::ArbLinialFull::new(gg.arboricity),
            |p, _gg, ids| p.schedule(ids).final_palette() as usize,
        )
        .congest(10.0),
        coloring_spec(
            "global_linial",
            "Linial's global coloring baseline",
            |_gg, _| baselines::GlobalLinial::new(),
            |p, gg, ids| p.palette(&gg.graph, ids) as usize,
        )
        .congest(7.0),
        coloring_spec(
            "global_linial_kw",
            "Linial + KW reduction: Δ+1 colors, Θ(Δ + log* n) WC",
            |_gg, _| baselines::GlobalLinialKw::new(),
            |_p, gg, _ids| gg.graph.max_degree() + 1,
        )
        .congest(7.0),
        // The §1.2 pipeline: coloring then census, as one protocol. Its
        // coloring output is verified; it claims no palette cap.
        spec_with_extract(
            "color_then_census",
            Problem::VertexColoring,
            "§1.2 pipeline: 𝒜 (coloring) then ℬ (census), per-vertex start",
            |gg, _| pipeline::ColorThenCensus::new(gg.arboricity, 4),
            no_cap,
            |_p, _g, out: &SimOutcome<pipeline::PipeOut>| {
                Ok(Extracted {
                    solution: Solution::VertexColors(out.outputs.iter().map(|o| o.color).collect()),
                    commit: None,
                })
            },
        )
        .congest(7.0),
        spec_with_extract(
            "mis_extension",
            Problem::Mis,
            "§8: MIS in O(poly(a) + log* n) VA",
            |gg, _| mis::MisExtension::new(gg.arboricity),
            no_cap,
            |_p, _g, out: &SimOutcome<bool>| {
                Ok(Extracted {
                    solution: Solution::InSet(out.outputs.clone()),
                    commit: None,
                })
            },
        )
        .congest(10.0),
        spec_with_extract(
            "mis_luby",
            Problem::Mis,
            "Luby's randomized MIS baseline",
            |_gg, _| mis::LubyMis,
            no_cap,
            |_p, _g, out: &SimOutcome<bool>| {
                Ok(Extracted {
                    solution: Solution::InSet(out.outputs.clone()),
                    commit: None,
                })
            },
        )
        .congest(7.0),
        spec_with_extract(
            "edge_col_extension",
            Problem::EdgeColoring,
            "§8: (2Δ−1)-edge-coloring, commit metrics",
            |gg, _| edge_coloring::EdgeColoringExtension::new(gg.arboricity),
            |_p, gg: &GenGraph, _ids: &IdAssignment| {
                edge_coloring::EdgeColoringExtension::palette(&gg.graph) as usize
            },
            |_p, g: &Graph, out| {
                let (colors, commit) = edge_coloring::assemble(g, out)?;
                Ok(Extracted {
                    solution: Solution::EdgeColors(colors),
                    commit: Some(commit),
                })
            },
        ),
        spec_with_extract(
            "matching_extension",
            Problem::MaximalMatching,
            "§8: maximal matching, commit metrics",
            |gg, _| matching::MatchingExtension::new(gg.arboricity),
            no_cap,
            |_p, g: &Graph, out| {
                let (matched, commit) = matching::assemble(g, out)?;
                Ok(Extracted {
                    solution: Solution::Matched(matched),
                    commit: Some(commit),
                })
            },
        ),
        spec_with_extract(
            "forest_parallelized",
            Problem::Forests,
            "Thm 7.1: forest decomposition in O(1) VA",
            |gg, _| forests::ParallelizedForestDecomposition::new(gg.arboricity),
            no_cap,
            |p: &forests::ParallelizedForestDecomposition, g: &Graph, out| {
                let (labels, heads) = forests::assemble(g, &out.outputs)?;
                Ok(Extracted {
                    solution: Solution::Forest {
                        labels,
                        heads,
                        claimed: p.cap(),
                    },
                    commit: None,
                })
            },
        )
        .congest(4.0),
        spec_with_extract(
            "forest_baseline",
            Problem::Forests,
            "worst-case forest-decomposition baseline",
            |gg, _| forests::ForestDecompositionBaseline::new(gg.arboricity),
            no_cap,
            |_p, g: &Graph, out| {
                let (labels, heads) = forests::assemble(g, &out.outputs)?;
                Ok(Extracted {
                    solution: Solution::Forest {
                        labels,
                        heads,
                        claimed: 0,
                    },
                    commit: None,
                })
            },
        )
        .congest(4.0),
    ]
}

/// Every registered algorithm, in stable enumeration order.
pub fn all() -> &'static [AlgoSpec] {
    static REGISTRY: OnceLock<Vec<AlgoSpec>> = OnceLock::new();
    REGISTRY.get_or_init(build_registry)
}

/// Resolves an algorithm by registry name.
pub fn find(name: &str) -> Option<&'static AlgoSpec> {
    all().iter().find(|s| s.name == name)
}

/// Like [`find`] but panics with the known-name list — the right behavior
/// for spec tables and binaries, where an unknown name is a wiring bug.
pub fn get(name: &str) -> &'static AlgoSpec {
    find(name).unwrap_or_else(|| {
        let known: Vec<&str> = all().iter().map(|s| s.name).collect();
        panic!("unknown algorithm `{name}` (known: {})", known.join(", "))
    })
}
