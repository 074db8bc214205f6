//! `distsym` — command-line front end for the library.
//!
//! ```text
//! distsym run   --algo <name> --family <name> --n <N> [--a <A>] [--k <K>] [--c <C>] [--seed <S>]
//!               [--eps <E>] [--hub-degree <D>] [--p <P>] [--parallel] [--json]
//! distsym list                          # available algorithms and families
//! distsym graph --family <name> --n <N> [--a <A>] [--out <path>]   # emit an edge list
//! ```
//!
//! `run` executes the algorithm through the benchmark registry's one
//! construct → run → verify path ([`registry::AlgoSpec::try_exec`]), so its
//! output is judged against the algorithm's claimed palette cap as in the
//! paper's tables, and prints the verdict, the round metrics and the
//! engine's accounting. The [`PROCEDURES`] outside the registry run here and
//! print the same report. `--parallel` turns on threaded rounds (results
//! are identical); `--json` prints one object instead of the text lines.
//! Exit codes: 0 valid output, 1 invalid output or simulation failure,
//! 2 usage error (unknown name, malformed or out-of-range flag).

use benchharness::registry::Problem::{EdgeColoring, VertexColoring};
use benchharness::registry::{self, ExecOptions, Params};
use benchharness::results::quote;
use benchharness::{Row, Trial};
use distsym::algos;
use distsym::graphcore::{gen, io, stats, verify, Graph};
use distsym::simlocal::{EngineError, EngineStats, RoundMetrics, RunConfig, Runner};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The algorithms `run` accepts besides the registry's: raw Procedure
/// Partition and the two ring protocols, none of which solves a registry
/// [`registry::Problem`].
const PROCEDURES: &[&str] = &["partition", "ring_leader", "ring_3coloring"];

/// Every `--family` [`build_workload`] accepts, as `list` prints them.
const FAMILIES: &str = "forest_union, random_tree, grid, toroid, cycle, path, hub_forest, \
                        nested_shells, preferential_attachment, gnp, gnm, hypercube";

type Flags = BTreeMap<String, String>;

/// Every `--algo` `run` accepts, as `list` prints them: the registry's
/// names in registry order, then the [`PROCEDURES`].
fn algos() -> Vec<&'static str> {
    let registered = registry::all().iter().map(|s| s.name);
    registered.chain(PROCEDURES.iter().copied()).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&parse_flags(&args[1..])),
        Some("graph") => cmd_graph(&parse_flags(&args[1..])),
        Some("list") => {
            println!("algorithms: {}", algos().join(", "));
            println!("families:   {FAMILIES}");
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: distsym <run|graph|list> [--flag value ...]");
            eprintln!("  distsym run --algo a2logn --family forest_union --n 4096 --a 2");
            eprintln!("  distsym graph --family grid --n 1024 --out grid.txt");
            ExitCode::from(2)
        }
    }
}

fn parse_flags(args: &[String]) -> Flags {
    let mut m = BTreeMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            // A following "--flag" is the next flag, not this one's value,
            // so bare switches like --parallel --json parse as booleans.
            let val = match it.peek() {
                Some(next) if !next.starts_with("--") => it.next().cloned().unwrap(),
                _ => "true".into(),
            };
            m.insert(key.to_string(), val);
        } else {
            eprintln!("warning: ignoring stray argument {a}");
        }
    }
    m
}

/// Reports a usage error and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn get<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("--{key} needs a valid value (got {v:?})"))),
    }
}

/// A structured family whose arboricity is known by construction.
fn known(graph: Graph, arboricity: usize, family: &'static str) -> gen::GenGraph {
    gen::GenGraph {
        graph,
        arboricity,
        family,
    }
}

/// Builds the `--family` workload. The generators assert their
/// preconditions; each is checked here first, so a bad flag exits 2
/// naming it instead of panicking.
fn build_workload(flags: &Flags) -> gen::GenGraph {
    let family = flags.get("family").map_or("forest_union", String::as_str);
    let n: usize = get(flags, "n", 4096);
    let a: usize = get(flags, "a", 2);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(get(flags, "seed", 0));
    let side = (n as f64).sqrt().ceil() as usize;
    let require = |ok: bool, what: &str| {
        if !ok {
            usage_error(&format!("--family {family} needs {what}"))
        }
    };
    match family {
        "forest_union" => {
            require(a >= 1, "--a ≥ 1");
            gen::forest_union(n, a, &mut rng)
        }
        "random_tree" => gen::random_tree(n, &mut rng),
        "grid" => known(gen::grid(side, side), 2, "grid"),
        "toroid" => known(gen::toroid(side.max(3), side.max(3)), 3, "toroid"),
        "cycle" => known(gen::cycle(n.max(3)), 2, "cycle"),
        "path" => known(gen::path(n), 1, "path"),
        "hub_forest" => {
            require(a >= 1, "--a ≥ 1");
            let hub_degree = get(flags, "hub-degree", (n as f64).sqrt() as usize);
            // Four hubs whose leaves are disjoint among the other n − 4.
            let fits = hub_degree.saturating_mul(4) <= n.saturating_sub(4);
            require(fits, "4·--hub-degree ≤ --n − 4 (--n ≥ 20 by default)");
            gen::hub_forest(n, a, 4, hub_degree, &mut rng)
        }
        "nested_shells" => {
            let levels = (n.max(4) as u64).ilog2().saturating_sub(1).max(2);
            gen::nested_shells(levels, a.max(1))
        }
        "preferential_attachment" => {
            require(n > a.max(1), "--n > --a");
            gen::preferential_attachment(n, a.max(1), &mut rng)
        }
        "gnp" => {
            let p = get(flags, "p", 2.0 * a as f64 / n as f64);
            let what = "an edge probability in [0, 1] (--p, default 2·--a / --n)";
            require((0.0..=1.0).contains(&p), what);
            gen::gnp(n, p, &mut rng)
        }
        "gnm" => {
            let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
            require(a.saturating_mul(n) <= max_m, "--n > 2·--a");
            gen::gnm(n, a * n, &mut rng)
        }
        "hypercube" => {
            let d = (n.max(2) as u64).ilog2();
            known(gen::hypercube(d), d as usize, "hypercube")
        }
        other => usage_error(&format!("unknown family {other}; see `distsym list`")),
    }
}

fn cmd_graph(flags: &Flags) -> ExitCode {
    let gg = build_workload(flags);
    let text = io::to_edge_list(&gg.graph);
    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {} ({})", path, stats::summary(&gg.graph));
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// A finished, judged run — what both output formats print.
struct Report {
    /// Problem label of the verdict line.
    problem: &'static str,
    /// Whether the problem has a palette (`colors` is JSON `null` otherwise).
    palette: bool,
    /// Verdict, colors, claimed cap and round metrics, as in a table row.
    row: Row,
    stats: EngineStats,
}

impl Report {
    /// `<problem>: VALID|INVALID, <colors> colors (cap <cap>)`, without
    /// the colors for problems without a palette and without the cap for
    /// algorithms that claim none.
    fn verdict(&self) -> String {
        let r = &self.row;
        let status = if r.valid { "VALID" } else { "INVALID" };
        let mut line = format!("{}: {status}", self.problem);
        if self.palette {
            line += &format!(", {} colors", r.colors);
        }
        if r.cap != usize::MAX {
            line += &format!(" (cap {})", r.cap);
        }
        line
    }

    /// Prints the report as one JSON object or as text lines.
    fn print(&self, algo: &str, m: usize, parallel: bool, json: bool) {
        let (r, s) = (&self.row, &self.stats);
        let (n, a, seed, valid) = (r.n, r.a, r.seed, r.valid);
        let (va, median, p95, wc) = (r.va, r.median, r.p95, r.wc);
        let (rounds, steps, msg_bits) = (s.rounds, s.steps, s.msg_bits);
        let (max_msg_bits, parallel_rounds) = (s.max_msg_bits, s.parallel_rounds);
        let wall_ms = s.wall.as_secs_f64() * 1e3;
        // `va` is `RoundSum / n`, so the product rounds back to it exactly.
        let round_sum = (va * n as f64).round() as u64;
        let verdict = self.verdict();
        if !json {
            println!("{verdict}");
            println!(
                "rounds: vertex-averaged {va:.3} | median {median} | p95 {p95} | \
                 worst case {wc} | RoundSum {round_sum}"
            );
            // One publication per step.
            println!(
                "engine: {wall_ms:.3} ms wall | {steps} steps | {steps} publications | \
                 {msg_bits} msg bits (max {max_msg_bits}/msg) | \
                 {parallel_rounds} of {rounds} rounds parallel"
            );
            return;
        }
        let colors = if self.palette {
            r.colors.to_string()
        } else {
            "null".into()
        };
        let (algo, family, verdict) = (quote(algo), quote(&r.family), quote(&verdict));
        println!(
            "{{\"algo\":{algo},\"family\":{family},\"n\":{n},\"m\":{m},\"arboricity\":{a},\
             \"seed\":{seed},\"parallel\":{parallel},\"valid\":{valid},\"summary\":{verdict},\
             \"colors\":{colors},\"metrics\":{{\"vertex_averaged\":{va:.6},\"median\":{median},\
             \"p95\":{p95},\"worst_case\":{wc},\"round_sum\":{round_sum}}},\
             \"stats\":{{\"wall_ms\":{wall_ms:.6},\"rounds\":{rounds},\"steps\":{steps},\
             \"publications\":{steps},\"msg_bits\":{msg_bits},\"max_msg_bits\":{max_msg_bits},\
             \"parallel_rounds\":{parallel_rounds}}}}}"
        );
    }
}

fn cmd_run(flags: &Flags) -> ExitCode {
    let algo = flags.get("algo").map_or("a2logn", String::as_str);
    let spec = registry::find(algo);
    if spec.is_none() && !PROCEDURES.contains(&algo) {
        usage_error(&format!("unknown algorithm {algo}; see `distsym list`"));
    }
    // The segmentation schemes need k ≥ 2, One-Plus-Eta C ≥ 2.
    let params = Params {
        k: get(flags, "k", 2),
        c: get(flags, "c", 4),
    };
    for (flag, value) in [("k", params.k as usize), ("c", params.c)] {
        if value < 2 {
            usage_error(&format!("--{flag} must be at least 2"));
        }
    }
    let gg = build_workload(flags);
    let trial = Trial::identity(get(flags, "seed", 0));
    let (parallel, json) = (flags.contains_key("parallel"), flags.contains_key("json"));
    if !json {
        println!("workload: {} | {}", gg.family, stats::summary(&gg.graph));
        let mode = if parallel { ", parallel" } else { "" };
        let (a, seed) = (gg.arboricity, trial.seed);
        println!("algorithm: {algo} (a={a}, seed={seed}{mode})");
    }
    let report = match spec {
        Some(spec) => {
            let opts = ExecOptions::new("cli", &gg, &trial)
                .params(params)
                .parallel(parallel);
            let palette = matches!(spec.problem, VertexColoring | EdgeColoring);
            spec.try_exec(&opts).map(|out| Report {
                problem: spec.problem.label(),
                palette,
                stats: out.stats.clone(),
                row: out.into_row(),
            })
        }
        None => run_procedure(algo, flags, &gg, &trial, parallel),
    };
    match report {
        Ok(r) => {
            r.print(algo, gg.graph.m(), parallel, json);
            if r.row.valid {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("simulation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs and judges one of the [`PROCEDURES`] on the sync engine.
fn run_procedure(
    algo: &str,
    flags: &Flags,
    gg: &gen::GenGraph,
    trial: &Trial,
    parallel: bool,
) -> Result<Report, EngineError> {
    if algo.starts_with("ring_") && gg.family != "cycle" {
        usage_error(&format!("{algo} runs on rings only: pass --family cycle"));
    }
    let g = &gg.graph;
    let ids = trial.ids(g.n());
    let mut cfg = RunConfig::seeded(trial.seed);
    cfg.parallel = parallel;
    let row = |metrics: &RoundMetrics, colors: usize, valid: bool| {
        let a = gg.arboricity;
        Row::from_metrics("cli", algo, gg.family, g.n(), a, metrics, colors, valid)
            .with_trial(trial)
    };
    Ok(match algo {
        "partition" => {
            let eps: f64 = get(flags, "eps", 2.0);
            if !(eps > 0.0 && eps <= 2.0) {
                usage_error("--eps must lie in (0, 2]");
            }
            let p = algos::partition::Partition::with_epsilon(gg.arboricity, eps);
            let out = Runner::new(&p, g, &ids).config(cfg).run()?;
            let valid = verify::h_partition(g, &out.outputs, p.cap()).is_ok();
            Report {
                problem: "h-partition",
                palette: false,
                row: row(&out.metrics, 0, valid).with_cap(p.cap()),
                stats: out.stats,
            }
        }
        "ring_leader" => {
            let le = algos::rings::LeaderElection;
            let out = Runner::new(&le, g, &ids).config(cfg).run()?;
            let leaders = out.outputs.iter().filter(|o| o.is_leader).count();
            let commits: Vec<u32> = out.outputs.iter().map(|o| o.commit_round).collect();
            let metrics = algos::extension::metrics_from_commits(&commits);
            Report {
                problem: "leader-election",
                palette: false,
                row: row(&metrics, 0, leaders == 1),
                stats: out.stats,
            }
        }
        "ring_3coloring" => {
            let cv = algos::rings::RingThreeColoring;
            let out = Runner::new(&cv, g, &ids).config(cfg).run()?;
            let valid = verify::proper_vertex_coloring(g, &out.outputs, 3).is_ok();
            let colors = verify::count_distinct(&out.outputs);
            Report {
                problem: VertexColoring.label(),
                palette: true,
                row: row(&out.metrics, colors, valid).with_cap(3),
                stats: out.stats,
            }
        }
        other => unreachable!("{other} is not one of the PROCEDURES"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags_pairs_and_bare() {
        let args: Vec<String> = ["--algo", "mis", "--n", "128", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args);
        assert_eq!(flags.get("algo").unwrap(), "mis");
        assert_eq!(get::<usize>(&flags, "n", 0), 128);
        assert_eq!(flags.get("quick").unwrap(), "true");
        assert_eq!(get::<u64>(&flags, "seed", 7), 7); // default applies
    }

    #[test]
    fn bare_switches_do_not_swallow_the_next_flag() {
        let args: Vec<String> = ["--parallel", "--json", "--n", "64"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let flags = parse_flags(&args);
        assert_eq!(flags.get("parallel").unwrap(), "true");
        assert_eq!(flags.get("json").unwrap(), "true");
        assert_eq!(get::<usize>(&flags, "n", 0), 64);
    }

    #[test]
    fn build_workload_families() {
        for fam in [
            "forest_union",
            "grid",
            "cycle",
            "path",
            "nested_shells",
            "hypercube",
        ] {
            let mut flags = BTreeMap::new();
            flags.insert("family".to_string(), fam.to_string());
            flags.insert("n".to_string(), "200".to_string());
            let gg = build_workload(&flags);
            assert!(gg.graph.n() >= 32, "{fam} produced a tiny graph");
            assert!(gg.arboricity >= 1);
        }
    }

    #[test]
    fn algos_list_matches_bench_registry() {
        // `distsym list` must never disagree with the suite binaries'
        // `--list`: it is exactly the registry names (in registry order)
        // followed by the PROCEDURES, and `run` resolves each of them.
        let registry: Vec<&str> = registry::all().iter().map(|s| s.name).collect();
        let algos = algos();
        assert_eq!(&algos[..registry.len()], &registry[..]);
        assert_eq!(&algos[registry.len()..], PROCEDURES);
        for name in &algos {
            let resolved = registry::find(name).is_some() || PROCEDURES.contains(name);
            assert!(resolved, "`list` names {name}, which `run` rejects");
        }
        for name in PROCEDURES {
            assert!(registry::find(name).is_none(), "{name} is also registered");
        }
    }

    #[test]
    fn algo_and_family_lists_are_distinct() {
        let algos = algos();
        let mut a = algos.clone();
        a.sort_unstable();
        a.dedup();
        assert_eq!(a.len(), algos.len());
        let families: Vec<&str> = FAMILIES.split(", ").collect();
        let mut f = families.clone();
        f.sort_unstable();
        f.dedup();
        assert_eq!(f.len(), families.len());
    }
}
