//! Drives the `distsym` binary end to end: `list` is the registry plus the
//! three CLI procedures, every registry problem and procedure runs valid
//! under `--json` with the report's full key set, an edgeless graph meets
//! `global_linial_kw`'s Δ+1 = 1 color claim, bad input exits 2 naming the
//! flag, and a `graph --out` file ingests back to the same graph size.

use benchharness::registry::{self, Problem};
use benchharness::results::Json;
use distsym::graphcore::io;
use std::path::Path;
use std::process::Output;

const PROCEDURES: [&str; 3] = ["partition", "ring_leader", "ring_3coloring"];

/// The `run --json` report's keys, in order, and those of its two
/// nested objects.
const REPORT_KEYS: [&str; 12] = [
    "algo",
    "family",
    "n",
    "m",
    "arboricity",
    "seed",
    "parallel",
    "valid",
    "summary",
    "colors",
    "metrics",
    "stats",
];
const METRICS_KEYS: [&str; 5] = [
    "vertex_averaged",
    "median",
    "p95",
    "worst_case",
    "round_sum",
];
const STATS_KEYS: [&str; 7] = [
    "wall_ms",
    "rounds",
    "steps",
    "publications",
    "msg_bits",
    "max_msg_bits",
    "parallel_rounds",
];

fn distsym(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_distsym"))
        .args(args)
        .output()
        .expect("spawn distsym")
}

fn stdout(out: &Output) -> &str {
    std::str::from_utf8(&out.stdout).expect("utf-8 stdout")
}

/// `run --json` with `args`; asserts exit 0 and returns the parsed report.
fn run_json(args: &[&str]) -> Json {
    let out = distsym(&[&["run", "--json"], args].concat());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run {args:?} failed: {err}");
    Json::parse(stdout(&out)).unwrap_or_else(|e| panic!("run {args:?}: bad JSON: {e}"))
}

fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn list_names_every_algorithm_and_family_once() {
    let out = distsym(&["list"]);
    assert!(out.status.success());
    let field = |label: &str| -> Vec<&str> {
        let line = stdout(&out).lines().find_map(|l| l.strip_prefix(label));
        line.unwrap_or_else(|| panic!("no `{label}` line"))
            .trim()
            .split(", ")
            .collect()
    };
    let algos = field("algorithms:");
    let expected: Vec<&str> = registry::all()
        .iter()
        .map(|s| s.name)
        .chain(PROCEDURES)
        .collect();
    for name in &expected {
        let times = algos.iter().filter(|a| *a == name).count();
        assert_eq!(times, 1, "`list` names {name} {times} times");
    }
    assert_eq!(algos.len(), expected.len(), "`list` names extra algorithms");

    let families = field("families:");
    let mut distinct = families.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), families.len(), "duplicate families");
}

#[test]
fn run_json_is_valid_for_every_problem_and_procedure() {
    // The first registry algorithm of each problem, then the procedures
    // on the families they accept.
    let mut seen: Vec<Problem> = Vec::new();
    let mut cases: Vec<(&str, &str)> = Vec::new();
    for spec in registry::all() {
        if !seen.contains(&spec.problem) {
            seen.push(spec.problem);
            cases.push((spec.name, "forest_union"));
        }
    }
    cases.extend([
        ("partition", "nested_shells"),
        ("ring_leader", "cycle"),
        ("ring_3coloring", "cycle"),
    ]);
    for (algo, family) in cases {
        let j = run_json(&["--algo", algo, "--family", family, "--n", "512"]);
        assert_eq!(keys(&j), REPORT_KEYS, "{algo}");
        assert_eq!(keys(j.get("metrics").unwrap()), METRICS_KEYS, "{algo}");
        assert_eq!(keys(j.get("stats").unwrap()), STATS_KEYS, "{algo}");
        assert_eq!(j.get("algo").unwrap().as_str(), Ok(algo));
        assert_eq!(j.get("valid").unwrap().as_bool(), Ok(true), "{algo}");
        let summary = j.get("summary").unwrap().as_str().unwrap().to_string();
        assert!(summary.contains(": VALID"), "{algo}: {summary}");
    }
}

#[test]
fn global_linial_kw_colors_an_edgeless_graph_with_one_color() {
    // Δ = 0, so the registry's Δ+1 claim is a single color.
    let j = run_json(&[
        "--algo",
        "global_linial_kw",
        "--family",
        "gnp",
        "--a",
        "0",
        "--n",
        "64",
    ]);
    assert_eq!(j.get_u64("m"), Ok(0));
    assert_eq!(j.get("valid").unwrap().as_bool(), Ok(true));
    assert_eq!(j.get_u64("colors"), Ok(1));
}

#[test]
fn bad_input_exits_2_naming_the_flag() {
    for (args, flag) in [
        ("run --algo mis", "unknown algorithm mis"),
        ("run --family nope", "unknown family nope"),
        ("graph --family nope", "unknown family nope"),
        ("run --n", "--n needs a valid value"),
        ("run --algo ring_leader", "--family cycle"),
        ("run --algo ring_3coloring --family grid", "--family cycle"),
        ("run --algo ka --k 0", "--k"),
        ("run --algo ka2 --k 1", "--k"),
        ("run --algo one_plus_eta --c 1", "--c"),
        ("run --algo partition --eps 0", "--eps"),
        ("run --family forest_union --a 0", "--a"),
        ("run --family hub_forest --n 19", "--hub-degree"),
        (
            "run --family hub_forest --n 64 --hub-degree 16",
            "--hub-degree",
        ),
        ("run --family preferential_attachment --n 2 --a 2", "--n"),
        ("run --family gnp --n 3 --a 2", "--p"),
        ("run --family gnp --p 2", "--p"),
        ("run --family gnm --n 4 --a 2", "--n"),
        ("graph --family gnm --n 4 --a 2", "--n"),
    ] {
        let out = distsym(&args.split(' ').collect::<Vec<_>>());
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args}: {err}");
        assert!(err.contains(flag), "{args}: `{err}` does not name {flag}");
    }
}

#[test]
fn graph_out_reingests_with_the_same_size() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_forest_union.txt");
    let workload = ["--family", "forest_union", "--n", "300", "--a", "3"];
    let out = distsym(&[&["graph", "--out", path.to_str().unwrap()], &workload[..]].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (g, _) = io::ingest_path(&path, io::NormalizeOptions::default()).unwrap();
    let j = run_json(&[&["--algo", "mis_luby"], &workload[..]].concat());
    assert_eq!(g.n() as u64, j.get_u64("n").unwrap());
    assert_eq!(g.m() as u64, j.get_u64("m").unwrap());
}
