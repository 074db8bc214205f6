//! `distsym` — command-line front end for the library.
//!
//! ```text
//! distsym run   --algo <name> --family <name> --n <N> [--a <A>] [--k <K>] [--seed <S>] [--eps <E>]
//!               [--parallel] [--json]
//! distsym list                          # available algorithms and families
//! distsym graph --family <name> --n <N> [--a <A>] [--out <path>]   # emit an edge list
//! ```
//!
//! `run` builds the workload, executes the protocol on the LOCAL-model
//! simulator, verifies the output, and prints the vertex-averaged /
//! worst-case metrics plus the engine's wall-time and publication
//! telemetry — the one-command version of the benchmark harness.
//! `--parallel` turns on the engine's threaded round execution (results
//! are identical either way); `--json` emits one structured object on
//! stdout instead of the human-readable lines.

use distsym::algos::{self, itlog};
use distsym::graphcore::{gen, io, stats, verify, IdAssignment};
use distsym::simlocal::{EngineStats, Protocol, RoundMetrics, Runner};
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every algorithm `run` accepts: the bench registry's names verbatim
/// (a drift test pins this list against `benchharness::registry::all`),
/// plus the CLI-only conveniences in [`CLI_ONLY_ALGOS`].
const ALGOS: &[&str] = &[
    "a2logn",
    "a2_loglog",
    "oa_recolor",
    "ka2",
    "ka2_rho",
    "ka",
    "ka_rho",
    "delta_plus_one",
    "legal_coloring",
    "one_plus_eta",
    "rand_delta_plus_one",
    "rand_a_loglog",
    "arb_color_baseline",
    "arb_linial_oneshot",
    "arb_linial_full",
    "global_linial",
    "global_linial_kw",
    "color_then_census",
    "mis_extension",
    "mis_luby",
    "edge_col_extension",
    "matching_extension",
    "forest_parallelized",
    "forest_baseline",
    "partition",
    "ring_leader",
    "ring_3coloring",
];

/// Algorithms only the CLI offers (raw procedure runs and the ring
/// protocols) — everything else in [`ALGOS`] must be a registry name.
#[cfg_attr(not(test), allow(dead_code))] // read by the registry drift test
const CLI_ONLY_ALGOS: &[&str] = &["partition", "ring_leader", "ring_3coloring"];

const FAMILIES: &[&str] = &[
    "forest_union",
    "random_tree",
    "grid",
    "toroid",
    "cycle",
    "path",
    "hub_forest",
    "nested_shells",
    "preferential_attachment",
    "gnp",
    "gnm",
    "hypercube",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&parse_flags(&args[1..])),
        Some("graph") => cmd_graph(&parse_flags(&args[1..])),
        Some("list") => {
            println!("algorithms: {}", ALGOS.join(", "));
            println!("families:   {}", FAMILIES.join(", "));
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

fn parse_flags(args: &[String]) -> BTreeMap<String, String> {
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

fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: --{key} needs a valid value (got {v:?})");
            std::process::exit(2)
        }),
    }
}

fn build_workload(flags: &BTreeMap<String, String>) -> gen::GenGraph {
    let family = flags
        .get("family")
        .map(String::as_str)
        .unwrap_or("forest_union");
    let n: usize = get(flags, "n", 4096);
    let a: usize = get(flags, "a", 2);
    let seed: u64 = get(flags, "seed", 0);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    match family {
        "forest_union" => gen::forest_union(n, a, &mut rng),
        "random_tree" => gen::random_tree(n, &mut rng),
        "grid" => {
            let side = (n as f64).sqrt().ceil() as usize;
            gen::GenGraph {
                graph: gen::grid(side, side),
                arboricity: 2,
                family: "grid",
            }
        }
        "toroid" => {
            let side = ((n as f64).sqrt().ceil() as usize).max(3);
            gen::GenGraph {
                graph: gen::toroid(side, side),
                arboricity: 3,
                family: "toroid",
            }
        }
        "cycle" => gen::GenGraph {
            graph: gen::cycle(n.max(3)),
            arboricity: 2,
            family: "cycle",
        },
        "path" => gen::GenGraph {
            graph: gen::path(n),
            arboricity: 1,
            family: "path",
        },
        "hub_forest" => gen::hub_forest(
            n,
            a,
            4,
            get(flags, "hub-degree", (n as f64).sqrt() as usize),
            &mut rng,
        ),
        "nested_shells" => {
            let levels = (n.max(4) as u64).ilog2().saturating_sub(1).max(2);
            gen::nested_shells(levels, a.max(1))
        }
        "preferential_attachment" => gen::preferential_attachment(n, a.max(1), &mut rng),
        "gnp" => gen::gnp(n, get(flags, "p", 2.0 * a as f64 / n as f64), &mut rng),
        "gnm" => gen::gnm(n, a * n, &mut rng),
        "hypercube" => {
            let d = (n.max(2) as u64).ilog2();
            gen::GenGraph {
                graph: gen::hypercube(d),
                arboricity: d as usize,
                family: "hypercube",
            }
        }
        other => {
            eprintln!("unknown family {other}; see `distsym list`");
            std::process::exit(2)
        }
    }
}

fn cmd_graph(flags: &BTreeMap<String, String>) -> ExitCode {
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

/// Per-run options shared by every algorithm arm.
struct RunOpts {
    seed: u64,
    parallel: bool,
}

/// Everything one `run` learned, ready for either output format.
struct RunReport {
    /// Human one-liner ("coloring: PROPER, 7 colors used …").
    summary: String,
    /// Distinct colors used, when the problem has a palette.
    colors: Option<usize>,
    /// Per-vertex round metrics (commit metrics for extension problems).
    metrics: RoundMetrics,
    /// Engine telemetry; `None` for algorithms driven outside the engine.
    stats: Option<EngineStats>,
}

fn run_protocol<P: Protocol>(
    p: &P,
    gg: &gen::GenGraph,
    opts: &RunOpts,
) -> Result<distsym::simlocal::SimOutcome<P::Output>, String> {
    let ids = IdAssignment::identity(gg.graph.n());
    let mut runner = Runner::new(p, &gg.graph, &ids).seed(opts.seed);
    if opts.parallel {
        runner = runner.parallel();
    }
    runner.run().map_err(|e| format!("simulation failed: {e}"))
}

fn coloring_report<P: Protocol<Output = u64>>(
    p: &P,
    gg: &gen::GenGraph,
    opts: &RunOpts,
    palette_note: &str,
) -> Result<RunReport, String> {
    let out = run_protocol(p, gg, opts)?;
    verify::proper_vertex_coloring(&gg.graph, &out.outputs, usize::MAX)
        .map_err(|e| format!("coloring INVALID: {e}"))?;
    let colors = verify::count_distinct(&out.outputs);
    Ok(RunReport {
        summary: format!("coloring: PROPER, {colors} colors used {palette_note}"),
        colors: Some(colors),
        metrics: out.metrics,
        stats: Some(out.stats),
    })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn print_report_json(algo: &str, gg: &gen::GenGraph, opts: &RunOpts, r: &RunReport) {
    let m = &r.metrics;
    let mut obj = format!(
        concat!(
            "{{\"algo\":\"{}\",\"family\":\"{}\",\"n\":{},\"m\":{},\"arboricity\":{},",
            "\"seed\":{},\"parallel\":{},\"valid\":true,\"summary\":\"{}\",\"colors\":{},",
            "\"metrics\":{{\"vertex_averaged\":{:.6},\"median\":{},\"p95\":{},",
            "\"worst_case\":{},\"round_sum\":{}}}"
        ),
        json_escape(algo),
        json_escape(gg.family),
        gg.graph.n(),
        gg.graph.m(),
        gg.arboricity,
        opts.seed,
        opts.parallel,
        json_escape(&r.summary),
        r.colors.map_or("null".into(), |c| c.to_string()),
        m.vertex_averaged(),
        m.median(),
        m.percentile(95.0),
        m.worst_case(),
        m.round_sum(),
    );
    match &r.stats {
        Some(s) => obj.push_str(&format!(
            concat!(
                ",\"stats\":{{\"wall_ms\":{:.6},\"rounds\":{},\"steps\":{},",
                "\"publications\":{},\"msg_bits\":{},\"max_msg_bits\":{},",
                "\"parallel_rounds\":{}}}}}"
            ),
            s.wall.as_secs_f64() * 1e3,
            s.rounds,
            s.steps,
            s.steps, // one publication per step
            s.msg_bits,
            s.max_msg_bits,
            s.parallel_rounds,
        )),
        None => obj.push_str(",\"stats\":null}"),
    }
    println!("{obj}");
}

fn print_report_human(r: &RunReport) {
    println!("{}", r.summary);
    let m = &r.metrics;
    println!(
        "rounds: vertex-averaged {:.3} | median {} | p95 {} | worst case {} | RoundSum {}",
        m.vertex_averaged(),
        m.median(),
        m.percentile(95.0),
        m.worst_case(),
        m.round_sum()
    );
    if let Some(s) = &r.stats {
        println!(
            "engine: {:.3} ms wall | {} steps | {} publications | {} msg bits (max {}/msg) | {} of {} rounds parallel",
            s.wall.as_secs_f64() * 1e3,
            s.steps,
            s.steps, // one publication per step
            s.msg_bits,
            s.max_msg_bits,
            s.parallel_rounds,
            s.rounds,
        );
    }
}

fn cmd_run(flags: &BTreeMap<String, String>) -> ExitCode {
    let gg = build_workload(flags);
    let n = gg.graph.n();
    let a = gg.arboricity;
    let k: u32 = get(flags, "k", 2);
    let opts = RunOpts {
        seed: get(flags, "seed", 0),
        parallel: flags.contains_key("parallel"),
    };
    let json = flags.contains_key("json");
    let algo = flags.get("algo").map(String::as_str).unwrap_or("a2logn");
    if !json {
        println!("workload: {} | {}", gg.family, stats::summary(&gg.graph));
        println!(
            "algorithm: {algo} (a={a}, seed={}{})",
            opts.seed,
            if opts.parallel { ", parallel" } else { "" }
        );
    }

    let report: Result<RunReport, String> = match algo {
        "partition" => {
            let (h, m) = algos::partition::run_partition(&gg.graph, a, get(flags, "eps", 2.0));
            let cap = algos::partition::degree_cap(a, get(flags, "eps", 2.0));
            verify::h_partition(&gg.graph, &h, cap)
                .map_err(|e| format!("H-partition INVALID: {e}"))
                .map(|()| RunReport {
                    summary: format!(
                        "H-partition: VALID, {} sets, threshold A={cap}",
                        h.iter().max().copied().unwrap_or(0)
                    ),
                    colors: None,
                    metrics: m,
                    stats: None,
                })
        }
        "forest_parallelized" => {
            let p = algos::forests::ParallelizedForestDecomposition::new(a);
            run_protocol(&p, &gg, &opts).and_then(|out| {
                let (labels, heads) = algos::forests::assemble(&gg.graph, &out.outputs)
                    .map_err(|e| format!("assembly failed: {e}"))?;
                verify::forest_decomposition(&gg.graph, &labels, &heads, p.cap())
                    .map_err(|e| format!("forest decomposition INVALID: {e}"))?;
                Ok(RunReport {
                    summary: format!("forest decomposition: VALID, ≤ {} forests", p.cap()),
                    colors: None,
                    metrics: out.metrics,
                    stats: Some(out.stats),
                })
            })
        }
        "a2logn" => coloring_report(
            &algos::coloring::a2logn::ColoringA2LogN::new(a),
            &gg,
            &opts,
            "(O(a² log n))",
        ),
        "a2_loglog" => coloring_report(
            &algos::coloring::a2_loglog::ColoringA2LogLog::new(a),
            &gg,
            &opts,
            "(O(a²))",
        ),
        "oa_recolor" => coloring_report(
            &algos::coloring::oa_recolor::ColoringOaRecolor::new(a),
            &gg,
            &opts,
            "(O(a))",
        ),
        "ka" => coloring_report(
            &algos::coloring::ka::ColoringKa::new(a, k),
            &gg,
            &opts,
            "(O(ka))",
        ),
        "ka2" => coloring_report(
            &algos::coloring::ka2::ColoringKa2::new(a, k),
            &gg,
            &opts,
            "(O(ka²))",
        ),
        "ka_rho" => coloring_report(
            &algos::coloring::ka::ColoringKa::rho_instance(a, n as u64),
            &gg,
            &opts,
            "(O(a log* n))",
        ),
        "ka2_rho" => coloring_report(
            &algos::coloring::ka2::ColoringKa2::rho_instance(a, n as u64),
            &gg,
            &opts,
            "(O(a² log* n))",
        ),
        "delta_plus_one" => coloring_report(
            &algos::coloring::delta_plus_one::DeltaPlusOneColoring::new(a),
            &gg,
            &opts,
            "(Δ+1)",
        ),
        "one_plus_eta" => coloring_report(
            &algos::one_plus_eta::OnePlusEtaArbCol::new(a, get(flags, "c", 4)),
            &gg,
            &opts,
            "(O(a^{1+η}))",
        ),
        "rand_delta_plus_one" => coloring_report(
            &algos::rand_coloring::delta_plus_one::RandDeltaPlusOne::new(),
            &gg,
            &opts,
            "(Δ+1, randomized)",
        ),
        "rand_a_loglog" => coloring_report(
            &algos::rand_coloring::a_loglog::RandALogLog::new(a),
            &gg,
            &opts,
            "(O(a log log n), randomized)",
        ),
        "arb_color_baseline" => coloring_report(
            &algos::arb_color::ArbColor::new(a),
            &gg,
            &opts,
            "(O(a), worst-case baseline)",
        ),
        "arb_linial_oneshot" => coloring_report(
            &algos::baselines::ArbLinialOneShot::new(a),
            &gg,
            &opts,
            "(baseline)",
        ),
        "arb_linial_full" => coloring_report(
            &algos::baselines::ArbLinialFull::new(a),
            &gg,
            &opts,
            "(baseline)",
        ),
        "global_linial" => coloring_report(
            &algos::baselines::GlobalLinial::new(),
            &gg,
            &opts,
            "(O(Δ²), baseline)",
        ),
        "global_linial_kw" => coloring_report(
            &algos::baselines::GlobalLinialKw::new(),
            &gg,
            &opts,
            "(Δ+1, baseline)",
        ),
        "mis_extension" => {
            run_protocol(&algos::mis::MisExtension::new(a), &gg, &opts).and_then(|out| {
                verify::maximal_independent_set(&gg.graph, &out.outputs)
                    .map_err(|e| format!("MIS INVALID: {e}"))?;
                Ok(RunReport {
                    summary: format!(
                        "MIS: VALID, {} members",
                        out.outputs.iter().filter(|&&b| b).count()
                    ),
                    colors: None,
                    metrics: out.metrics,
                    stats: Some(out.stats),
                })
            })
        }
        "mis_luby" => run_protocol(&algos::mis::LubyMis, &gg, &opts).and_then(|out| {
            verify::maximal_independent_set(&gg.graph, &out.outputs)
                .map_err(|e| format!("MIS INVALID: {e}"))?;
            Ok(RunReport {
                summary: format!(
                    "MIS (Luby): VALID, {} members",
                    out.outputs.iter().filter(|&&b| b).count()
                ),
                colors: None,
                metrics: out.metrics,
                stats: Some(out.stats),
            })
        }),
        "matching_extension" => {
            run_protocol(&algos::matching::MatchingExtension::new(a), &gg, &opts).and_then(|out| {
                let (mm, commit) = algos::matching::assemble(&gg.graph, &out)
                    .map_err(|e| format!("assembly failed: {e}"))?;
                verify::maximal_matching(&gg.graph, &mm)
                    .map_err(|e| format!("matching INVALID: {e}"))?;
                Ok(RunReport {
                    summary: format!(
                        "matching: VALID, {} edges (commit metrics below)",
                        mm.iter().filter(|&&b| b).count()
                    ),
                    colors: None,
                    metrics: commit,
                    stats: Some(out.stats),
                })
            })
        }
        "edge_col_extension" => {
            let p = algos::edge_coloring::EdgeColoringExtension::new(a);
            run_protocol(&p, &gg, &opts).and_then(|out| {
                let (colors, commit) = algos::edge_coloring::assemble(&gg.graph, &out)
                    .map_err(|e| format!("assembly failed: {e}"))?;
                let budget = algos::edge_coloring::EdgeColoringExtension::palette(&gg.graph);
                verify::proper_edge_coloring(&gg.graph, &colors, budget as usize)
                    .map_err(|e| format!("edge coloring INVALID: {e}"))?;
                let used = verify::count_distinct(&colors);
                Ok(RunReport {
                    summary: format!(
                        "edge coloring: PROPER, {used} colors (budget 2Δ−1 = {budget}; commit metrics below)"
                    ),
                    colors: Some(used),
                    metrics: commit,
                    stats: Some(out.stats),
                })
            })
        }
        "legal_coloring" => coloring_report(
            &algos::legal_coloring::LegalColoring::new(a.max(1), 6),
            &gg,
            &opts,
            "([5]-style legal coloring)",
        ),
        "color_then_census" => {
            let p = algos::pipeline::ColorThenCensus::new(a, 4);
            run_protocol(&p, &gg, &opts).and_then(|out| {
                let colors: Vec<u64> = out.outputs.iter().map(|o| o.color).collect();
                verify::proper_vertex_coloring(&gg.graph, &colors, usize::MAX)
                    .map_err(|e| format!("pipeline coloring INVALID: {e}"))?;
                let used = verify::count_distinct(&colors);
                Ok(RunReport {
                    summary: format!("color-then-census pipeline: PROPER, {used} colors"),
                    colors: Some(used),
                    metrics: out.metrics,
                    stats: Some(out.stats),
                })
            })
        }
        "forest_baseline" => {
            let p = algos::forests::ForestDecompositionBaseline::new(a);
            run_protocol(&p, &gg, &opts).and_then(|out| {
                algos::forests::assemble(&gg.graph, &out.outputs)
                    .map_err(|e| format!("assembly failed: {e}"))?;
                Ok(RunReport {
                    summary: "forest decomposition (baseline): assembled".to_string(),
                    colors: None,
                    metrics: out.metrics,
                    stats: Some(out.stats),
                })
            })
        }
        "ring_leader" => run_protocol(&algos::rings::LeaderElection, &gg, &opts).map(|out| {
            let leaders = out.outputs.iter().filter(|o| o.is_leader).count();
            let commits: Vec<u32> = out.outputs.iter().map(|o| o.commit_round).collect();
            RunReport {
                summary: format!("leader election: {leaders} leader(s)"),
                colors: None,
                metrics: algos::extension::metrics_from_commits(&commits),
                stats: Some(out.stats),
            }
        }),
        "ring_3coloring" => coloring_report(
            &algos::rings::RingThreeColoring,
            &gg,
            &opts,
            "(3 colors, rings)",
        ),
        other => {
            eprintln!(
                "unknown algorithm {other}; see `distsym list` (log* n here = {})",
                itlog::log_star(n as u64)
            );
            return ExitCode::from(2);
        }
    };

    match report {
        Ok(r) => {
            if json {
                print_report_json(algo, &gg, &opts, &r);
            } else {
                print_report_human(&r);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
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
        // `--list`: ALGOS is exactly the registry names (in registry
        // order) followed by the CLI-only extras.
        let registry: Vec<&str> = benchharness::registry::all()
            .iter()
            .map(|s| s.name)
            .collect();
        let expected: Vec<&str> = registry
            .iter()
            .copied()
            .chain(CLI_ONLY_ALGOS.iter().copied())
            .collect();
        assert_eq!(
            ALGOS,
            &expected[..],
            "src/main.rs ALGOS drifted from bench::registry + CLI_ONLY_ALGOS"
        );
    }

    #[test]
    fn algo_and_family_lists_are_distinct() {
        let mut a = ALGOS.to_vec();
        a.sort_unstable();
        a.dedup();
        assert_eq!(a.len(), ALGOS.len());
        let mut f = FAMILIES.to_vec();
        f.sort_unstable();
        f.dedup();
        assert_eq!(f.len(), FAMILIES.len());
    }
}
