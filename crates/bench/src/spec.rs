//! The declarative experiment layer: [`ExperimentSpec`] tables executed
//! by one shared [`execute`] engine.
//!
//! Each harness binary (`table1`, `table2`, `figures`, `scenarios`,
//! `ablations`) is now a data declaration — workload builders, algorithm
//! names resolved from [`crate::registry`], sweep modifiers, and the
//! [`Bound`] set — plus a single `execute` call that uniformly handles
//! experiment filtering, trial sweeps, row/summary printing, JSON
//! emission, `--list`, and tail bound enforcement. The suite tables
//! themselves live in [`crate::suites`].

use crate::pipeline::{self, WorkloadCache, WorkloadKey};
use crate::registry::{self, Params, Problem};
use crate::{
    bounds, n_sweep, print_rows, print_summaries, summarize, Bound, Cli, Row, SuiteResult,
    TrialSummary,
};
use std::fmt;
use std::path::{Path, PathBuf};

/// Hub degree for the `a ≪ Δ` hub workloads, as a function of `n` and the
/// problem under test.
///
/// Coloring experiments (T1.7, T1.9) exist to show VA depending on the
/// arboricity `a` rather than on `Δ`, so the hub degree grows unboundedly
/// as `⌊√n⌋`. The extension-framework set/edge problems relay every hub
/// edge through passive intermediate states, so their engine cost scales
/// with `Δ · relays`; capping at `min(⌊√n⌋, 128)` keeps full-scale runs
/// (n = 2^16) tractable while preserving `Δ ≫ a` by two orders of
/// magnitude. The cap used to be applied inconsistently (T2.1 used a bare
/// `√n` while T2.2/T2.3 capped at 128, with no stated reason); this
/// function is now the single source of truth for every hub row.
pub fn hub_degree_for(n: usize, problem: Problem) -> usize {
    let sqrt = (n as f64).sqrt() as usize;
    match problem {
        Problem::VertexColoring => sqrt,
        _ => sqrt.min(128),
    }
}

/// A declarative workload: expanded into concrete
/// [`GenGraph`](graphcore::gen::GenGraph)s by
/// [`execute`] (over the standard `n` sweep unless pinned).
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// `forest_union(n, a, seed)` for every `n` in the sweep × every `a`.
    Forest {
        /// Arboricities to cross with the `n` sweep.
        arbs: &'static [usize],
        /// Workload seed.
        seed: u64,
    },
    /// `hub_workload(n, a, hub_degree_for(n, problem), seed)` for every
    /// `n` in the sweep.
    Hub {
        /// Arboricity (≥ 2).
        a: usize,
        /// Workload seed.
        seed: u64,
    },
    /// A single `forest_union` at a fixed size (quick/full variants).
    ForestAt {
        /// Vertex count under `--quick`.
        n_quick: usize,
        /// Vertex count for full runs.
        n_full: usize,
        /// Arboricity.
        a: usize,
        /// Workload seed.
        seed: u64,
    },
    /// An ingested graph file (edge list, DIMACS, or Matrix Market —
    /// format sniffed by [`graphcore::io::ingest_path`]), normalized and
    /// cache-keyed by path + content hash. Fixed-size: `--quick` does not
    /// trim it.
    File {
        /// Repo-relative path to the graph file.
        path: &'static str,
        /// Restrict to the largest connected component.
        largest_component: bool,
    },
}

impl WorkloadSpec {
    /// Expands into cacheable [`WorkloadKey`]s, in deterministic order;
    /// the pipeline generates each through its
    /// [`WorkloadCache`]. `problem` selects
    /// the hub degree policy (see [`hub_degree_for`]), which the key
    /// carries pre-resolved so equal keys mean equal graphs.
    pub fn keys(&self, quick: bool, problem: Problem) -> Vec<WorkloadKey> {
        match self {
            WorkloadSpec::Forest { arbs, seed } => n_sweep(quick)
                .into_iter()
                .flat_map(|n| {
                    arbs.iter()
                        .map(move |&a| WorkloadKey::Forest { n, a, seed: *seed })
                })
                .collect(),
            WorkloadSpec::Hub { a, seed } => n_sweep(quick)
                .into_iter()
                .map(|n| WorkloadKey::Hub {
                    n,
                    a: *a,
                    hub_degree: hub_degree_for(n, problem),
                    seed: *seed,
                })
                .collect(),
            WorkloadSpec::ForestAt {
                n_quick,
                n_full,
                a,
                seed,
            } => {
                let n = if quick { *n_quick } else { *n_full };
                vec![WorkloadKey::Forest {
                    n,
                    a: *a,
                    seed: *seed,
                }]
            }
            // Planning a file workload resolves its identity: the content
            // hash pins the bytes the cache key stands for, and one
            // ingestion resolves `n` so `max_n` filters and parameter
            // sweeps plan without touching the cache.
            WorkloadSpec::File {
                path,
                largest_component,
            } => {
                let bytes = std::fs::read(path)
                    .unwrap_or_else(|e| panic!("read workload file {path}: {e}"));
                let gg = pipeline::file_workload(path, *largest_component);
                vec![WorkloadKey::File {
                    path,
                    hash: graphcore::io::content_hash(&bytes),
                    n: gg.graph.n(),
                    largest_component: *largest_component,
                }]
            }
        }
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::Forest { arbs, seed } => {
                write!(f, "forest_union(n ∈ sweep, a ∈ {arbs:?}, seed {seed})")
            }
            WorkloadSpec::Hub { a, seed } => {
                write!(f, "hub(n ∈ sweep, a={a}, Δ=hub_degree_for(n), seed {seed})")
            }
            WorkloadSpec::ForestAt {
                n_quick,
                n_full,
                a,
                seed,
            } => write!(
                f,
                "forest_union(n={n_quick} quick / {n_full} full, a={a}, seed {seed})"
            ),
            WorkloadSpec::File {
                path,
                largest_component,
            } => {
                let lcc = if *largest_component {
                    ", largest-cc"
                } else {
                    ""
                };
                write!(f, "file({path}{lcc})")
            }
        }
    }
}

/// How a run's [`Params`] are chosen per workload graph.
#[derive(Clone, Debug)]
pub enum ParamSpec {
    /// One fixed parameter set.
    Fixed(Params),
    /// Sweep the segmentation parameter `k` over `2..=ρ(n)`.
    KSweep,
    /// Sweep the One-Plus-Eta constant `C` over the given values.
    CSweep(&'static [usize]),
}

impl ParamSpec {
    /// Concrete parameter sets for an `n`-vertex workload.
    pub fn expand(&self, n: usize) -> Vec<Params> {
        match self {
            ParamSpec::Fixed(p) => vec![*p],
            ParamSpec::KSweep => (2..=algos::itlog::rho(n as u64)).map(Params::k).collect(),
            ParamSpec::CSweep(cs) => cs.iter().map(|&c| Params::c(c)).collect(),
        }
    }
}

impl fmt::Display for ParamSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamSpec::Fixed(p) if *p == Params::default() => Ok(()),
            ParamSpec::Fixed(p) if p.c != 0 => write!(f, " C={}", p.c),
            ParamSpec::Fixed(p) => write!(f, " k={}", p.k),
            ParamSpec::KSweep => write!(f, " k ∈ 2..=ρ(n)"),
            ParamSpec::CSweep(cs) => write!(f, " C ∈ {cs:?}"),
        }
    }
}

/// One `(experiment id, algorithm)` pairing inside an [`ExperimentSpec`],
/// with optional per-run sweep modifiers.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Experiment id the produced rows carry (e.g. `"T1.4"`).
    pub exp: &'static str,
    /// Registry name of the algorithm (see [`registry::find`]).
    pub algo: &'static str,
    /// Parameter selection per workload.
    pub params: ParamSpec,
    /// Skip workload graphs larger than this (expensive baselines).
    pub max_n: usize,
    /// Minimum engine seeds under `--quick` (randomized headline rows).
    pub min_seeds_quick: u64,
    /// Minimum engine seeds for full runs.
    pub min_seeds_full: u64,
}

impl RunSpec {
    /// A run with default modifiers (full sweep, single parameter set).
    pub fn new(exp: &'static str, algo: &'static str) -> RunSpec {
        RunSpec {
            exp,
            algo,
            params: ParamSpec::Fixed(Params::default()),
            max_n: usize::MAX,
            min_seeds_quick: 1,
            min_seeds_full: 1,
        }
    }

    /// Fix the segmentation parameter `k`.
    pub fn k(mut self, k: u32) -> RunSpec {
        self.params = ParamSpec::Fixed(Params::k(k));
        self
    }

    /// Sweep `k` over `2..=ρ(n)` per workload.
    pub fn ksweep(mut self) -> RunSpec {
        self.params = ParamSpec::KSweep;
        self
    }

    /// Sweep the One-Plus-Eta constant `C` over the given values.
    pub fn csweep(mut self, cs: &'static [usize]) -> RunSpec {
        self.params = ParamSpec::CSweep(cs);
        self
    }

    /// Skip workloads with more than `n` vertices.
    pub fn max_n(mut self, n: usize) -> RunSpec {
        self.max_n = n;
        self
    }

    /// Require at least `m` engine seeds in every mode (quick and full).
    pub fn min_seeds(mut self, m: u64) -> RunSpec {
        self.min_seeds_quick = m;
        self.min_seeds_full = m;
        self
    }

    /// Require at least `q` seeds under `--quick` and `f` otherwise.
    pub fn min_seeds_qf(mut self, q: u64, f: u64) -> RunSpec {
        self.min_seeds_quick = q;
        self.min_seeds_full = f;
        self
    }
}

/// A custom experiment body: prints its own series, returns inline bound
/// violations (empty = pass).
pub type CustomFn = fn(&Cli) -> Vec<String>;

/// A hook run over a spec's freshly produced rows (e.g. the F.5
/// per-`n` aggregate print).
pub type PostFn = fn(&Cli, &[Row]);

/// How an experiment executes.
pub enum SpecKind {
    /// The standard declarative shape: workloads × runs × trials → rows,
    /// summarized, JSON'd, and bound-checked by [`execute`].
    Rows {
        /// Workload builders, expanded in order.
        workloads: Vec<WorkloadSpec>,
        /// The `(exp, algo)` pairings to run.
        runs: Vec<RunSpec>,
        /// Bounds enforced over this spec's summaries (the global
        /// all-valid / palette-within-cap checks are always added).
        bounds: Vec<Bound>,
        /// Optional post-processing over the produced rows.
        post: Option<PostFn>,
    },
    /// A dynamic-graph experiment: cold-solve each workload once, then
    /// replay a seeded [`graphcore::churn::ChurnPlan`] through the
    /// warm-start engine ([`crate::registry::AlgoSpec::exec_dynamic`]),
    /// producing one update-cost row per edit batch. The rows' va/wc/
    /// median/p95/p99 measure rounds *recomputed* per batch (clean
    /// vertices cost 0), and each row carries the reactivated-vertex
    /// fraction, which [`Bound::UpdateLocality`] gates.
    Dynamic {
        /// Workload builders, expanded in order.
        workloads: Vec<WorkloadSpec>,
        /// The `(exp, algo)` pairings to run.
        runs: Vec<RunSpec>,
        /// The seeded edit schedule every run replays.
        plan: graphcore::churn::ChurnPlan,
        /// Bounds enforced over this spec's summaries.
        bounds: Vec<Bound>,
    },
    /// A bespoke experiment (non-Row series like F.1/F.2, the §1.2
    /// scenarios, engine ablations) with a descriptive listing entry.
    Custom {
        /// Algorithms involved (listing only).
        algos: &'static str,
        /// Workloads used (listing only).
        workloads: &'static str,
        /// Inline checks applied (listing only).
        checks: &'static str,
        /// The experiment body.
        run: CustomFn,
    },
}

/// One experiment in a suite's declaration table.
pub struct ExperimentSpec {
    /// Primary id (`--list` key; custom specs filter on it).
    pub id: &'static str,
    /// Human-readable title (row tables print it).
    pub title: &'static str,
    /// How it executes.
    pub kind: SpecKind,
}

impl ExperimentSpec {
    /// A standard rows spec.
    pub fn rows(
        id: &'static str,
        title: &'static str,
        workloads: Vec<WorkloadSpec>,
        runs: Vec<RunSpec>,
        bounds: Vec<Bound>,
    ) -> ExperimentSpec {
        ExperimentSpec {
            id,
            title,
            kind: SpecKind::Rows {
                workloads,
                runs,
                bounds,
                post: None,
            },
        }
    }

    /// Attach a post-processing hook to a rows spec.
    pub fn with_post(mut self, f: PostFn) -> ExperimentSpec {
        if let SpecKind::Rows { post, .. } = &mut self.kind {
            *post = Some(f);
        }
        self
    }

    /// A dynamic (churn) spec.
    pub fn dynamic(
        id: &'static str,
        title: &'static str,
        workloads: Vec<WorkloadSpec>,
        runs: Vec<RunSpec>,
        plan: graphcore::churn::ChurnPlan,
        bounds: Vec<Bound>,
    ) -> ExperimentSpec {
        ExperimentSpec {
            id,
            title,
            kind: SpecKind::Dynamic {
                workloads,
                runs,
                plan,
                bounds,
            },
        }
    }

    /// A custom-bodied spec.
    pub fn custom(
        id: &'static str,
        title: &'static str,
        algos: &'static str,
        workloads: &'static str,
        checks: &'static str,
        run: CustomFn,
    ) -> ExperimentSpec {
        ExperimentSpec {
            id,
            title,
            kind: SpecKind::Custom {
                algos,
                workloads,
                checks,
                run,
            },
        }
    }
}

/// Prints the `--list` report: every experiment id, its algorithms,
/// workloads, and enforced bounds.
fn print_list(suite: &str, specs: &[ExperimentSpec]) {
    println!("{suite}: registered experiments\n");
    for spec in specs {
        println!("{} — {}", spec.id, spec.title);
        match &spec.kind {
            SpecKind::Rows {
                workloads,
                runs,
                bounds,
                ..
            } => {
                for w in workloads {
                    println!("  workload:  {w}");
                }
                for r in runs {
                    let algo = registry::get(r.algo);
                    let mut mods = String::new();
                    if r.max_n != usize::MAX {
                        mods.push_str(&format!(" (n ≤ {})", r.max_n));
                    }
                    if r.min_seeds_quick > 1 || r.min_seeds_full > 1 {
                        mods.push_str(&format!(
                            " (seeds ≥ {}/{})",
                            r.min_seeds_quick, r.min_seeds_full
                        ));
                    }
                    if let Some(c) = algo.congest {
                        mods.push_str(&format!(" (CONGEST ≤ {c}·log₂n)"));
                    }
                    println!(
                        "  run:       {:<7} {}{}{} [{}] — {}",
                        r.exp,
                        r.algo,
                        r.params,
                        mods,
                        algo.problem.label(),
                        algo.bound
                    );
                }
                for b in bounds {
                    println!("  bound:     {b}");
                }
            }
            SpecKind::Dynamic {
                workloads,
                runs,
                plan,
                bounds,
            } => {
                for w in workloads {
                    println!("  workload:  {w}");
                }
                println!("  churn:     {}", churn_label(plan));
                for r in runs {
                    let algo = registry::get(r.algo);
                    println!(
                        "  run:       {:<7} {} [{}] — warm-start update cost per batch",
                        r.exp,
                        r.algo,
                        algo.problem.label()
                    );
                }
                for b in bounds {
                    println!("  bound:     {b}");
                }
            }
            SpecKind::Custom {
                algos,
                workloads,
                checks,
                ..
            } => {
                println!("  algos:     {algos}");
                println!("  workload:  {workloads}");
                println!("  checks:    {checks}");
            }
        }
    }
    println!("\nglobal bounds: all-valid, palette-within-cap");
    println!(
        "trial scheduler: --jobs N worker threads (default 1 = sequential oracle, \
         0 = NCPU); results are byte-identical for every N"
    );
    crate::print_backends();
}

/// One-line description of a churn plan for listings and the index.
fn churn_label(plan: &graphcore::churn::ChurnPlan) -> String {
    format!(
        "{} batches × (+{} / −{}) edges, seed {}",
        plan.batches, plan.inserts_per_batch, plan.deletes_per_batch, plan.seed
    )
}

/// A `--metrics PATH` export, shared by the suite binaries and `trace`:
/// one registry, sized for the backend, that every run of the
/// invocation records into, and the JSONL stream of its cumulative
/// snapshots at `PATH`.
pub struct MetricsExport {
    /// The registry the runs record into.
    pub registry: simlocal::obs::Registry,
    path: PathBuf,
    jsonl: std::fs::File,
}

impl MetricsExport {
    /// Sizes the registry for `backend` and creates `path` (creating
    /// parent directories).
    pub fn create(path: &Path, backend: registry::Backend) -> Result<MetricsExport, String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let jsonl = std::fs::File::create(path)
            .map_err(|e| format!("create metrics JSONL {}: {e}", path.display()))?;
        Ok(MetricsExport {
            registry: backend.metrics_registry(),
            path: path.to_path_buf(),
            jsonl,
        })
    }

    /// Appends one snapshot line tagged `tag`.
    pub fn snapshot(&self, tag: &str) -> Result<(), String> {
        self.registry
            .write_jsonl_snapshot(&mut &self.jsonl, tag)
            .map_err(|e| format!("write metrics snapshot: {e}"))
    }

    /// Ends the export: a last snapshot tagged `tag` and the one-line
    /// `#obs` summary.
    pub fn finish(self, tag: &str) -> Result<(), String> {
        use simlocal::obs::Metric;
        self.snapshot(tag)?;
        let r = &self.registry;
        println!(
            "#obs trials={} engine_rounds={} actor_rounds={} steps={} msg_bits={} \
             barrier_wait_ns={} transport_bytes_out={} jsonl={}",
            r.total(Metric::HarnessTrials),
            r.total(Metric::EngineRounds),
            r.total(Metric::ActorRounds),
            r.total(Metric::EngineSteps) + r.total(Metric::ActorSteps),
            r.total(Metric::EngineMsgBits) + r.total(Metric::ActorMsgBits),
            r.total(Metric::ActorBarrierWaitNs),
            r.total(Metric::TransportBytesOut),
            self.path.display(),
        );
        Ok(())
    }
}

/// Produces all rows for one `Rows`-kind spec, honoring per-run filters —
/// a thin shim over the pipeline layers: plan ([`pipeline::plan_rows`]) →
/// schedule ([`pipeline::run_plan`], `--jobs` workers over the shared
/// [`WorkloadCache`]) → sink ([`pipeline::CollectSink`]).
fn rows_for(
    cli: &Cli,
    metrics: Option<&simlocal::obs::Registry>,
    workloads: &[WorkloadSpec],
    runs: &[RunSpec],
    cache: &WorkloadCache,
    next_id: &mut u64,
) -> Vec<Row> {
    let plan = pipeline::plan_rows(cli, workloads, runs, next_id);
    let mut sink = pipeline::CollectSink::default();
    pipeline::run_plan(&plan, cli.effective_jobs(), cache, metrics, &mut sink);
    sink.rows
}

/// Produces all update-cost rows for one `Dynamic` spec: per selected
/// run × workload × trial, one [`registry::AlgoSpec::exec_dynamic`] call
/// replays the churn plan through the warm-start engine and yields one
/// row per edit batch. Executed inline (no job pipeline): a dynamic
/// trial is a sequential chain of warm starts, so there is nothing to
/// schedule out of order.
fn dynamic_rows(
    cli: &Cli,
    metrics: Option<&simlocal::obs::Registry>,
    workloads: &[WorkloadSpec],
    runs: &[RunSpec],
    plan: &graphcore::churn::ChurnPlan,
    cache: &WorkloadCache,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for run in runs.iter().filter(|r| cli.wants(r.exp)) {
        let algo = registry::get(run.algo);
        let keys: Vec<WorkloadKey> = workloads
            .iter()
            .flat_map(|w| w.keys(cli.quick, algo.problem))
            .collect();
        let min = if cli.quick {
            run.min_seeds_quick
        } else {
            run.min_seeds_full
        };
        for key in keys.iter().filter(|k| k.n() <= run.max_n) {
            let gg = cache.get(*key, metrics);
            for t in cli.sweep_with_min_seeds(min).trials() {
                for params in run.params.expand(key.n()) {
                    let mut opts = registry::ExecOptions::new(run.exp, &gg, t).params(params);
                    if let Some(m) = metrics {
                        opts = opts.metrics(m);
                    }
                    rows.extend(algo.exec_dynamic(&opts, plan, false));
                }
            }
        }
    }
    rows
}

/// The shared suite engine: a thin shim over the pipeline layers. Every
/// selected `Rows` experiment is planned ([`pipeline::plan_rows`]),
/// scheduled across `--jobs` workers over one invocation-wide
/// [`WorkloadCache`] ([`pipeline::run_plan`]), and collected in a
/// [`pipeline::CollectSink`]; this function only owns the
/// printing, JSON emission, and tail bound enforcement (exiting nonzero
/// on violation). `--list` prints the table instead and exits 0.
pub fn execute(suite: &'static str, specs: &[ExperimentSpec], cli: &Cli) -> SuiteResult {
    if cli.list {
        print_list(suite, specs);
        std::process::exit(0);
    }
    // `--metrics PATH`: one registry spans the whole invocation. A JSONL
    // snapshot is appended to PATH after every `Rows` or `Dynamic`
    // experiment that ran (tag = experiment id), and a last one tagged
    // `final` when the suite ends.
    let export = cli
        .metrics
        .as_ref()
        .map(|p| MetricsExport::create(p, cli.backend).unwrap_or_else(|e| panic!("{e}")));
    let metrics_reg = export.as_ref().map(|x| &x.registry);
    let snapshot = |tag: &str| {
        if let Some(x) = &export {
            x.snapshot(tag).unwrap_or_else(|e| panic!("{e}"));
        }
    };
    // One workload cache and one job-id space span the invocation, so
    // graphs are shared across specs and every job of a suite run has a
    // globally unique, stable id.
    let cache = WorkloadCache::new();
    let mut next_job_id = 0u64;
    let mut all_rows: Vec<Row> = Vec::new();
    let mut inline: Vec<String> = Vec::new();
    let mut active_bounds: Vec<Bound> = vec![Bound::AllValid, Bound::PaletteWithinCap];
    for spec in specs {
        match &spec.kind {
            SpecKind::Rows {
                workloads,
                runs,
                bounds,
                post,
            } => {
                let rows = rows_for(cli, metrics_reg, workloads, runs, &cache, &mut next_job_id);
                if rows.is_empty() {
                    continue;
                }
                snapshot(spec.id);
                print_rows(spec.title, &rows);
                if let Some(post) = post {
                    post(cli, &rows);
                }
                active_bounds.extend(bounds.iter().cloned());
                // Registry CONGEST-width claims become per-run checks:
                // declared once on the AlgoSpec, enforced on every
                // experiment that runs the algorithm.
                for run in runs.iter().filter(|r| cli.wants(r.exp)) {
                    if let Some(c) = registry::get(run.algo).congest {
                        let dup = active_bounds.iter().any(|b| {
                            matches!(b, Bound::CongestWidth { exp, algo, .. }
                                if *exp == run.exp && *algo == run.algo)
                        });
                        if !dup {
                            active_bounds.push(Bound::CongestWidth {
                                exp: run.exp,
                                algo: run.algo,
                                c,
                            });
                        }
                    }
                }
                all_rows.extend(rows);
            }
            SpecKind::Dynamic {
                workloads,
                runs,
                plan,
                bounds,
            } => {
                let rows = dynamic_rows(cli, metrics_reg, workloads, runs, plan, &cache);
                if rows.is_empty() {
                    continue;
                }
                snapshot(spec.id);
                print_rows(spec.title, &rows);
                active_bounds.extend(bounds.iter().cloned());
                all_rows.extend(rows);
            }
            SpecKind::Custom { run, .. } => {
                if cli.wants(spec.id) {
                    inline.extend(run(cli));
                }
            }
        }
    }
    let summaries: Vec<TrialSummary> = summarize(&all_rows);
    if !summaries.is_empty() {
        print_summaries(
            &format!("{suite} summary (per experiment configuration)"),
            &summaries,
        );
    }
    let result = SuiteResult::new(
        suite,
        cli.quick,
        cli.seeds,
        cli.id_mode_labels(),
        summaries.clone(),
    );
    if let Some(path) = &cli.json {
        result.write(path).expect("write results JSON");
        println!("results written to {}", path.display());
    }
    if let Some(x) = export {
        x.finish("final").unwrap_or_else(|e| panic!("{e}"));
    }
    if !inline.is_empty() {
        eprintln!("\n[{suite}] INLINE BOUND VIOLATIONS:");
        for v in &inline {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    bounds::enforce(suite, &active_bounds, &summaries);
    result
}

/// Renders the per-experiment index for EXPERIMENTS.md from the suite
/// declaration tables — the generated block between the
/// `BEGIN/END GENERATED EXPERIMENT INDEX` markers. A test asserts the
/// committed file matches, so the index cannot drift from the specs.
pub fn render_index(suites: &[(&'static str, Vec<ExperimentSpec>)]) -> String {
    let mut out = String::new();
    out.push_str("| id | suite | experiment | runs | workloads | bounds |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for (suite, specs) in suites {
        for spec in specs {
            let (runs, workloads, checks) = match &spec.kind {
                SpecKind::Rows {
                    workloads,
                    runs,
                    bounds,
                    ..
                } => {
                    let runs = runs
                        .iter()
                        .map(|r| format!("{}: {}{}", r.exp, r.algo, r.params))
                        .collect::<Vec<_>>()
                        .join("; ");
                    let workloads = workloads
                        .iter()
                        .map(|w| w.to_string())
                        .collect::<Vec<_>>()
                        .join("; ");
                    let checks = if bounds.is_empty() {
                        "—".to_string()
                    } else {
                        bounds
                            .iter()
                            .map(|b| b.to_string())
                            .collect::<Vec<_>>()
                            .join("; ")
                    };
                    (runs, workloads, checks)
                }
                SpecKind::Dynamic {
                    workloads,
                    runs,
                    plan,
                    bounds,
                } => {
                    let runs = runs
                        .iter()
                        .map(|r| format!("{}: {} (dynamic)", r.exp, r.algo))
                        .collect::<Vec<_>>()
                        .join("; ");
                    let workloads = workloads
                        .iter()
                        .map(|w| w.to_string())
                        .chain(std::iter::once(format!("churn: {}", churn_label(plan))))
                        .collect::<Vec<_>>()
                        .join("; ");
                    let checks = if bounds.is_empty() {
                        "—".to_string()
                    } else {
                        bounds
                            .iter()
                            .map(|b| b.to_string())
                            .collect::<Vec<_>>()
                            .join("; ")
                    };
                    (runs, workloads, checks)
                }
                SpecKind::Custom {
                    algos,
                    workloads,
                    checks,
                    ..
                } => (algos.to_string(), workloads.to_string(), checks.to_string()),
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} |\n",
                spec.id, suite, spec.title, runs, workloads, checks
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metricscheck::check_metrics;
    use crate::results::Json;

    #[test]
    fn dynamic_specs_append_a_metrics_snapshot() {
        let path =
            std::env::temp_dir().join(format!("spec-dynamic-metrics-{}.jsonl", std::process::id()));
        let args = ["--quick", "--metrics", path.to_str().unwrap()];
        let cli = Cli::parse_from(args.map(String::from)).unwrap();
        let specs = [ExperimentSpec::dynamic(
            "D.t",
            "D.t: churn with a metrics export",
            vec![WorkloadSpec::ForestAt {
                n_quick: 256,
                n_full: 256,
                a: 2,
                seed: 3,
            }],
            vec![RunSpec::new("D.t", "mis_luby")],
            graphcore::churn::ChurnPlan {
                seed: 4,
                batches: 2,
                inserts_per_batch: 1,
                deletes_per_batch: 1,
            },
            vec![],
        )];
        execute("spec-test", &specs, &cli);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let (_, failures) = check_metrics(&text);
        assert!(failures.is_empty(), "{failures:?}");
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        let tags: Vec<&str> = lines
            .iter()
            .map(|l| l.get("tag").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(tags, ["D.t", "final"]);
        // The spec's own line already holds its warm runs, its one trial
        // and the counts of the cold solve that seeds the chain.
        let counter = |name| {
            let counters = lines[0].get("counters").unwrap();
            counters.get(name).and_then(|m| m.get_u64("")).unwrap()
        };
        let warm_runs = counter("simlocal_engine_warm_runs_total");
        assert_eq!(warm_runs, 2, "one warm run per churn batch");
        assert_eq!(counter("simlocal_harness_trials_total"), 1);
        let g = crate::forest_workload(256, 2, 3).graph;
        let ids = graphcore::IdAssignment::identity(g.n());
        let cold = simlocal::Runner::new(&algos::mis::LubyMis, &g, &ids)
            .seed(0)
            .run()
            .unwrap();
        let rounds = counter("simlocal_engine_rounds_total");
        assert_eq!(rounds, u64::from(cold.stats.rounds));
        assert_eq!(counter("simlocal_engine_steps_total"), cold.stats.steps);
    }
}
