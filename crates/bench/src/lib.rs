#![warn(missing_docs)]

//! # benchharness — regenerating the paper's tables and figures
//!
//! Shared machinery for the harness binaries (`table1`, `table2`,
//! `figures`, `scenarios`, `ablations`, `bench-diff`, `trace`, `perf`),
//! organized as a two-level declarative layer:
//!
//! * [`registry`] — every algorithm as one [`registry::AlgoSpec`]
//!   declaration (name, problem, constructor, palette-cap function,
//!   paper-bound tag) behind the dyn-erased [`registry::ErasedAlgo`]
//!   trait, so exactly one code path constructs, runs, observes,
//!   verifies, and turns a run into a [`Row`];
//! * [`spec`] + [`suites`] — every experiment as one
//!   [`spec::ExperimentSpec`] entry executed by the shared
//!   [`spec::execute`] engine (filtering, trial sweeps, printing, JSON,
//!   `--list`, bound enforcement).
//!
//! The conformance layer lives in three submodules: [`trials`] sweeps each
//! experiment over engine seeds × ID assignments and aggregates rows into
//! [`TrialSummary`]s, [`results`] serializes summaries to schema-versioned
//! JSON under `results/` (compared by the `bench-diff` regression gate),
//! and [`bounds`] holds the paper-derived checks every harness binary
//! enforces before exiting.
//!
//! Every row is printed in a fixed-width table **and** as a CSV-ish
//! `#csv` line so results can be scraped; EXPERIMENTS.md records the
//! paper-vs-measured comparison per experiment id, with its index
//! regenerated from the [`suites`] tables.

pub mod bounds;
pub mod metricscheck;
pub mod perf;
pub mod pipeline;
pub mod registry;
pub mod results;
pub mod spec;
pub mod suites;
pub mod trials;

pub use bounds::Bound;
pub use results::{diff, SuiteResult, SCHEMA_VERSION};
pub use trials::{print_summaries, summarize, IdMode, Stats, Sweep, Trial, TrialSummary};

use graphcore::gen::GenGraph;
use simlocal::{EngineStats, PhaseBreakdown, RoundMetrics, RunConfig};

/// One phase's share of a run's `RoundSum`, as reported by the protocol's
/// [`Protocol::phase_of`](simlocal::Protocol::phase_of) attribution (see
/// [`PhaseBreakdown`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSum {
    /// Phase name (from
    /// [`Protocol::phase_names`](simlocal::Protocol::phase_names)).
    pub name: String,
    /// Rounds this phase consumed, summed over all vertices.
    pub round_sum: u64,
}

/// One measurement row — a single trial of one experiment configuration.
#[derive(Clone, Debug)]
pub struct Row {
    /// Experiment id (e.g. "T1.4").
    pub exp: String,
    /// Algorithm label.
    pub algo: String,
    /// Workload label.
    pub family: String,
    /// Vertices.
    pub n: usize,
    /// Arboricity parameter the algorithm was run with.
    pub a: usize,
    /// Vertex-averaged complexity (rounds).
    pub va: f64,
    /// Worst-case complexity (rounds).
    pub wc: u32,
    /// Median termination round.
    pub median: u32,
    /// 95th percentile termination round.
    pub p95: u32,
    /// 99th percentile termination round — the distribution's deep tail,
    /// between `p95` and the worst case. Informational like `median`.
    pub p99: u32,
    /// Number of distinct colors in the output (0 for set problems).
    pub colors: usize,
    /// Whether the output passed its verifier *within the palette cap*.
    pub valid: bool,
    /// Engine wall-clock time for the run, in milliseconds.
    pub wall_ms: f64,
    /// Messages published by the engine: one per step, so the run's
    /// engine RoundSum ([`EngineStats::steps`]).
    pub pubs: u64,
    /// Total wire bits across every published message
    /// ([`simlocal::WireSize`] accounting).
    pub msg_bits: u64,
    /// Wire bits per vertex (`msg_bits / n`) — the communication analogue
    /// of the vertex-averaged round complexity.
    pub avg_msg_bits: f64,
    /// Largest single published message, in wire bits — the CONGEST-width
    /// witness ([`Bound::CongestWidth`] checks it against `c·log₂ n`).
    pub max_msg_bits: u64,
    /// The algorithm's claimed palette cap the output was verified
    /// against (`usize::MAX` for set problems with no palette).
    pub cap: usize,
    /// Engine seed this trial ran with.
    pub seed: u64,
    /// ID-assignment mode label ([`IdMode::label`]).
    pub ids: &'static str,
    /// Per-round active-set series (`active_series[i]` = vertices active
    /// in round `i + 1`, the paper's `n_i`) — the Lemma 6.1 decay data.
    pub active_series: Vec<u64>,
    /// Per-phase `RoundSum` breakdown; the sums total [`Row::pubs`].
    pub phases: Vec<PhaseSum>,
    /// Dynamic-mode rows only: the fraction of vertices the warm-start
    /// engine reactivated for this edit batch (`reactivated / n`; 1.0 on
    /// a full re-solve fallback). `None` for ordinary cold rows.
    pub reactivated: Option<f64>,
}

impl Row {
    /// Builds a row from metrics plus solution facts. Wall time and
    /// publication counts come from the engine's [`EngineStats`]
    /// ([`Row::with_stats`]); trial provenance and the palette cap are
    /// attached with [`Row::with_trial`] and [`Row::with_cap`].
    #[allow(clippy::too_many_arguments)] // one argument per table column
    pub fn from_metrics(
        exp: &str,
        algo: &str,
        family: &str,
        n: usize,
        a: usize,
        m: &RoundMetrics,
        colors: usize,
        valid: bool,
    ) -> Row {
        // One sort answers every quantile query (median/p95/p99 per row).
        let pct = m.percentiles();
        Row {
            exp: exp.into(),
            algo: algo.into(),
            family: family.into(),
            n,
            a,
            va: m.vertex_averaged(),
            wc: m.worst_case(),
            median: pct.median(),
            p95: pct.rank(95.0),
            p99: pct.rank(99.0),
            colors,
            valid,
            wall_ms: 0.0,
            pubs: 0,
            msg_bits: 0,
            avg_msg_bits: 0.0,
            max_msg_bits: 0,
            cap: usize::MAX,
            seed: 0,
            ids: "identity",
            active_series: m.active_per_round().iter().map(|&a| a as u64).collect(),
            phases: Vec::new(),
            reactivated: None,
        }
    }

    /// Marks this row as a dynamic-mode update-cost measurement that
    /// reactivated the given fraction of vertices.
    pub fn with_reactivated(mut self, frac: f64) -> Row {
        self.reactivated = Some(frac);
        self
    }

    /// Attaches the engine's wall-time, step (= publication), and
    /// wire-size accounting.
    pub fn with_stats(mut self, stats: &EngineStats) -> Row {
        self.wall_ms = stats.wall.as_secs_f64() * 1e3;
        self.pubs = stats.steps;
        self.msg_bits = stats.msg_bits;
        self.avg_msg_bits = stats.msg_bits as f64 / self.n.max(1) as f64;
        self.max_msg_bits = stats.max_msg_bits;
        self
    }

    /// Records which trial (seed + ID mode) produced this row.
    pub fn with_trial(mut self, trial: &Trial) -> Row {
        self.seed = trial.seed;
        self.ids = trial.id_mode.label();
        self
    }

    /// Records the palette cap the output was verified against.
    pub fn with_cap(mut self, cap: usize) -> Row {
        self.cap = cap;
        self
    }

    /// Attaches what every registry run adds to its row: the
    /// engine's own active-set series (from the run's [`RoundMetrics`],
    /// even when the row's headline metrics are commit-based) and the
    /// per-phase `RoundSum` breakdown.
    pub fn with_trace(mut self, engine: &RoundMetrics, breakdown: &PhaseBreakdown) -> Row {
        self.active_series = engine
            .active_per_round()
            .iter()
            .map(|&a| a as u64)
            .collect();
        self.phases = breakdown
            .rows()
            .into_iter()
            .map(|(name, round_sum, _)| PhaseSum { name, round_sum })
            .collect();
        self
    }
}

/// Prints a header followed by rows, both human-readable and as `#csv`.
pub fn print_rows(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    println!(
        "{:<6} {:<22} {:<14} {:>8} {:>4} {:>9} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6} {:>9} {:>10} {:>11} {:>7} {:>5} {:<11}",
        "exp",
        "algo",
        "family",
        "n",
        "a",
        "va",
        "wc",
        "med",
        "p95",
        "p99",
        "colors",
        "valid",
        "wall_ms",
        "pubs",
        "avg_msg_bits",
        "max_mb",
        "seed",
        "ids"
    );
    for r in rows {
        println!(
            "{:<6} {:<22} {:<14} {:>8} {:>4} {:>9.2} {:>6} {:>6} {:>6} {:>6} {:>7} {:>6} {:>9.3} {:>10} {:>11.1} {:>7} {:>5} {:<11}",
            r.exp,
            r.algo,
            r.family,
            r.n,
            r.a,
            r.va,
            r.wc,
            r.median,
            r.p95,
            r.p99,
            r.colors,
            r.valid,
            r.wall_ms,
            r.pubs,
            r.avg_msg_bits,
            r.max_msg_bits,
            r.seed,
            r.ids
        );
    }
    for r in rows {
        // The trailing field is the dynamic-mode reactivated fraction
        // (`-` for ordinary cold rows).
        let react = r
            .reactivated
            .map(|f| format!("{f:.4}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "#csv,{},{},{},{},{},{:.4},{},{},{},{},{},{},{:.4},{},{},{},{:.2},{},{}",
            r.exp,
            r.algo,
            r.family,
            r.n,
            r.a,
            r.va,
            r.wc,
            r.median,
            r.p95,
            r.p99,
            r.colors,
            r.valid,
            r.wall_ms,
            r.pubs,
            r.seed,
            r.ids,
            r.avg_msg_bits,
            r.max_msg_bits,
            react
        );
    }
}

/// Standard run configuration for harness experiments.
pub fn cfg(seed: u64) -> RunConfig {
    RunConfig::seeded(seed)
}

/// Prints the execution-backend enumeration — the `--list` tail shared by
/// every harness binary (select with `--backend`).
pub fn print_backends() {
    println!("\nexecution backends (--backend VALUE):");
    for (value, what) in registry::Backend::describe_all() {
        println!("  {value:<9} {what}");
    }
}

/// Standard n-sweep for scaling experiments (trimmed by `quick`).
pub fn n_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![1 << 10, 1 << 12]
    } else {
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16]
    }
}

/// Builds the default bounded-arboricity workload.
pub fn forest_workload(n: usize, a: usize, seed: u64) -> GenGraph {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    graphcore::gen::forest_union(n, a, &mut rng)
}

/// Builds the `a ≪ Δ` hub workload with realized arboricity exactly `a`.
///
/// The hub edges form one extra forest on top of `a − 1` random forests,
/// so `a ≥ 2` is required — asking for `a = 1` used to be silently
/// rewritten to arboricity 2, corrupting the `a` column; now it panics.
/// The returned [`GenGraph`] reports the generator's realized arboricity,
/// which rows record.
pub fn hub_workload(n: usize, a: usize, hub_degree: usize, seed: u64) -> GenGraph {
    use rand::SeedableRng;
    assert!(
        a >= 2,
        "hub workload requires arboricity ≥ 2 (hub edges form one of the {a} forests)"
    );
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let gg = graphcore::gen::hub_forest(n, a - 1, 4, hub_degree, &mut rng);
    debug_assert_eq!(
        gg.arboricity, a,
        "generator must realize the requested arboricity"
    );
    gg
}

/// Parsed CLI for the harness binaries.
///
/// `--quick` trims sweeps, `--seeds N` sets engine seeds per ID mode,
/// `--ids identity,random,adversarial` picks ID-assignment modes,
/// `--backend sync|actor[:K]` picks the execution backend,
/// `--jobs N` sets the trial scheduler's worker-thread count (0 = NCPU;
/// results are byte-identical for every N),
/// `--json PATH` writes the run's [`SuiteResult`], `--list` prints the
/// suite's experiment table and exits; every other `--` flag is an error
/// (a typo used to be swallowed as an experiment filter and silently
/// deselect everything). Bare arguments filter by experiment id.
pub struct Cli {
    /// Trim sweeps for smoke runs.
    pub quick: bool,
    /// Engine seeds per ID mode (`0..seeds`).
    pub seeds: u64,
    /// ID-assignment modes to sweep.
    pub id_modes: Vec<IdMode>,
    /// Execution backend every run goes through (byte-identical outcomes;
    /// see [`registry::Backend`]).
    pub backend: registry::Backend,
    /// Trial-scheduler worker threads (`--jobs`; 1 = the sequential
    /// oracle path, 0 = one per available core). Orthogonal to
    /// [`Cli::backend`], which parallelizes *within* one trial.
    pub jobs: usize,
    /// Where to write the JSON results, if requested.
    pub json: Option<std::path::PathBuf>,
    /// Where to write the metrics export, if requested: a JSONL stream
    /// of registry snapshots, one per experiment plus a `final` one.
    /// Enables the [`simlocal::obs`] registry for every run.
    pub metrics: Option<std::path::PathBuf>,
    /// Print the suite's registered experiments and exit 0.
    pub list: bool,
    /// Experiment ids to run (empty = all).
    pub filters: Vec<String>,
}

impl Cli {
    /// Parses an argument list (without the program name).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut cli = Cli {
            quick: false,
            seeds: 1,
            id_modes: vec![IdMode::Identity],
            backend: registry::Backend::default(),
            jobs: 1,
            json: None,
            metrics: None,
            list: false,
            filters: Vec::new(),
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--list" => cli.list = true,
                "--seeds" => {
                    let v = it.next().ok_or("--seeds requires a value")?;
                    cli.seeds =
                        v.parse::<u64>().ok().filter(|&s| s >= 1).ok_or_else(|| {
                            format!("--seeds requires a positive integer, got `{v}`")
                        })?;
                }
                "--ids" => {
                    let v = it.next().ok_or("--ids requires a value")?;
                    cli.id_modes = v
                        .split(',')
                        .map(IdMode::parse)
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "--backend" => {
                    let v = it.next().ok_or("--backend requires a value")?;
                    cli.backend = registry::Backend::parse(&v)?;
                }
                "--jobs" => {
                    let v = it.next().ok_or("--jobs requires a value")?;
                    cli.jobs = v.parse::<usize>().map_err(|_| {
                        format!("--jobs requires a non-negative integer (0 = NCPU), got `{v}`")
                    })?;
                }
                "--json" => {
                    let v = it.next().ok_or("--json requires a path")?;
                    cli.json = Some(v.into());
                }
                "--metrics" => {
                    let v = it.next().ok_or("--metrics requires a path")?;
                    cli.metrics = Some(v.into());
                }
                other if other.starts_with("--") => {
                    return Err(format!(
                        "unknown flag `{other}` (expected --quick, --seeds N, \
                         --ids LIST, --backend sync|actor[:K], --jobs N, \
                         --json PATH, --metrics PATH, or --list)"
                    ));
                }
                _ => cli.filters.push(arg),
            }
        }
        Ok(cli)
    }

    /// Parses `std::env::args`, exiting with usage on error.
    pub fn parse() -> Cli {
        match Cli::parse_from(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: [--quick] [--seeds N] [--ids identity,random,adversarial] \
                     [--backend sync|actor[:K]] [--jobs N] [--json PATH] [--metrics PATH] \
                     [--list] [EXPERIMENT_ID...]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Whether experiment `id` should run: a filter selects its exact id
    /// or any dotted descendant (`T1` matches `T1.1`; `T1.1` does **not**
    /// match `T1.10`).
    pub fn wants(&self, id: &str) -> bool {
        self.filters.is_empty()
            || self
                .filters
                .iter()
                .any(|f| id == f || id.starts_with(&format!("{f}.")))
    }

    /// The seed × ID-mode sweep this invocation asks for.
    pub fn sweep(&self) -> Sweep {
        Sweep::new(self.seeds, &self.id_modes)
    }

    /// Like [`Cli::sweep`] but with at least `min` seeds — for randomized
    /// experiments whose headline numbers need more than a point sample
    /// even in a default run.
    pub fn sweep_with_min_seeds(&self, min: u64) -> Sweep {
        Sweep::new(self.seeds.max(min), &self.id_modes)
    }

    /// Worker threads the trial scheduler should use: `--jobs N`
    /// verbatim, with `0` resolved to the available parallelism.
    pub fn effective_jobs(&self) -> usize {
        match self.jobs {
            0 => std::thread::available_parallelism()
                .map(|w| w.get())
                .unwrap_or(1),
            j => j,
        }
    }

    /// Labels of the selected ID modes (for [`SuiteResult`]).
    pub fn id_mode_labels(&self) -> Vec<String> {
        self.id_modes
            .iter()
            .map(|m| m.label().to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coloring_rows_run_and_validate() {
        let gg = forest_workload(256, 2, 1);
        let trial = Trial::identity(0);
        for name in ["a2logn", "a2_loglog", "ka2", "arb_color_baseline"] {
            let opts = registry::ExecOptions::new("T", &gg, &trial).params(registry::Params::k(2));
            let row = registry::get(name).exec(&opts).into_row();
            assert!(row.valid, "{name} produced an invalid coloring");
            assert!(row.va > 0.0 && row.wc >= row.median);
            assert_ne!(row.cap, usize::MAX, "{name} must claim a palette cap");
            assert!(
                row.colors <= row.cap,
                "{name} used {} colors against cap {}",
                row.colors,
                row.cap
            );
        }
    }

    #[test]
    fn set_problem_rows_validate() {
        let gg = forest_workload(200, 2, 2);
        let t = Trial::identity(0);
        for name in [
            "mis_extension",
            "mis_luby",
            "matching_extension",
            "edge_col_extension",
            "forest_parallelized",
        ] {
            let opts = registry::ExecOptions::new("T", &gg, &t);
            let row = registry::get(name).exec(&opts).into_row();
            assert!(row.valid, "{name} produced an invalid output");
        }
    }

    #[test]
    fn hub_workload_realizes_requested_arboricity() {
        let gg = hub_workload(300, 2, 16, 7);
        assert_eq!(gg.arboricity, 2);
        let gg3 = hub_workload(300, 3, 16, 7);
        assert_eq!(gg3.arboricity, 3);
    }

    #[test]
    #[should_panic(expected = "arboricity ≥ 2")]
    fn hub_workload_rejects_a1() {
        hub_workload(300, 1, 16, 7);
    }

    #[test]
    fn cli_filters_match_exact_or_dotted_prefix() {
        let cli = Cli {
            quick: true,
            seeds: 1,
            id_modes: vec![IdMode::Identity],
            backend: registry::Backend::Sync,
            jobs: 1,
            json: None,
            metrics: None,
            list: false,
            filters: vec!["T1.1".into()],
        };
        assert!(cli.wants("T1.1"));
        assert!(cli.wants("T1.1.a"));
        assert!(!cli.wants("T1.10"), "T1.1 must not select T1.10");
        assert!(!cli.wants("T1.2"));
        let group = Cli {
            filters: vec!["T1".into()],
            ..Cli::parse_from(Vec::new()).unwrap()
        };
        assert!(group.wants("T1.2") && group.wants("T1.10"));
        assert!(!group.wants("T2.1"));
        let all = Cli::parse_from(Vec::new()).unwrap();
        assert!(all.wants("anything"));
    }

    #[test]
    fn cli_parses_flags_and_rejects_typos() {
        let cli = Cli::parse_from(
            [
                "--quick",
                "--seeds",
                "5",
                "--ids",
                "identity,adversarial",
                "T2.1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(cli.quick);
        assert_eq!(cli.seeds, 5);
        assert_eq!(cli.id_modes, vec![IdMode::Identity, IdMode::Adversarial]);
        assert_eq!(cli.filters, vec!["T2.1"]);
        assert_eq!(cli.sweep().trials().len(), 10);
        assert_eq!(cli.sweep_with_min_seeds(8).trials().len(), 16);

        // The original bug: `--seeds 5` parsed as two filters, silently
        // deselecting every experiment. Unknown flags are now errors.
        assert!(Cli::parse_from(["--seed", "5"].map(String::from)).is_err());
        assert!(Cli::parse_from(["--seeds", "0"].map(String::from)).is_err());
        assert!(Cli::parse_from(["--seeds"].map(String::from)).is_err());
        assert!(Cli::parse_from(["--ids", "bogus"].map(String::from)).is_err());
    }

    #[test]
    fn cli_parses_backend_selection() {
        use registry::Backend;
        let default = Cli::parse_from(Vec::new()).unwrap();
        assert_eq!(default.backend, Backend::Sync);
        let sync = Cli::parse_from(["--backend", "sync"].map(String::from)).unwrap();
        assert_eq!(sync.backend, Backend::Sync);
        let auto = Cli::parse_from(["--backend", "actor"].map(String::from)).unwrap();
        assert_eq!(auto.backend, Backend::Actor { shards: 0 });
        let fixed = Cli::parse_from(["--backend", "actor:4"].map(String::from)).unwrap();
        assert_eq!(fixed.backend, Backend::Actor { shards: 4 });
        assert_eq!(fixed.backend.label(), "actor:4");
        for bad in ["bogus", "actor:0", "actor:x", "actor:"] {
            assert!(
                Cli::parse_from(["--backend", bad].map(String::from)).is_err(),
                "--backend {bad} must be rejected"
            );
        }
        assert!(Cli::parse_from(["--backend"].map(String::from)).is_err());
    }

    #[test]
    fn cli_parses_jobs() {
        let default = Cli::parse_from(Vec::new()).unwrap();
        assert_eq!(default.jobs, 1, "sequential oracle path by default");
        assert_eq!(default.effective_jobs(), 1);
        let four = Cli::parse_from(["--jobs", "4"].map(String::from)).unwrap();
        assert_eq!(four.jobs, 4);
        assert_eq!(four.effective_jobs(), 4);
        let auto = Cli::parse_from(["--jobs", "0"].map(String::from)).unwrap();
        assert_eq!(auto.jobs, 0, "--jobs 0 means one worker per core");
        assert!(auto.effective_jobs() >= 1);
        for bad in ["x", "-1", ""] {
            assert!(
                Cli::parse_from(["--jobs", bad].map(String::from)).is_err(),
                "--jobs {bad} must be rejected"
            );
        }
        assert!(Cli::parse_from(["--jobs"].map(String::from)).is_err());
    }
}
