//! `perf` — measures the engine perf suite and exports the machine-
//! readable summary gated by `bench-diff --perf`.
//!
//! Usage: `perf [--json PATH] [--reps N] [--note TEXT]... [--list]`
//!
//! Runs the standard suite (see `benchharness::perf::run_suite`: n = 2²⁰
//! decay workloads, best-of-reps vertex-rounds/sec), prints a human table,
//! and — with `--json` — writes the schema-versioned summary that
//! `ci.sh` compares against the committed `results/BENCH_engine.json`.
//! `--list` prints the suite's entry ids and exits.

use benchharness::perf::{fmt_throughput, run_suite, suite_ids, PerfSummary, PERF_N, PERF_REPS};
use std::path::PathBuf;
use std::process::exit;

struct Args {
    json: Option<PathBuf>,
    reps: usize,
    notes: Vec<String>,
    list: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        json: None,
        reps: PERF_REPS,
        notes: Vec::new(),
        list: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                exit(2);
            })
        };
        match flag.as_str() {
            "--json" => args.json = Some(PathBuf::from(value("--json"))),
            "--reps" => {
                args.reps = value("--reps").parse().unwrap_or_else(|e| {
                    eprintln!("--reps: {e}");
                    exit(2);
                })
            }
            "--note" => args.notes.push(value("--note")),
            "--list" => args.list = true,
            other => {
                eprintln!(
                    "unknown flag `{other}`\n\
                     usage: perf [--json PATH] [--reps N] [--note TEXT]... [--list]"
                );
                exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.list {
        println!("perf suite entries (n = 2^20, best of {PERF_REPS} reps):");
        for id in suite_ids() {
            println!("  {id}");
        }
        benchharness::print_backends();
        return;
    }

    println!(
        "perf: engine suite, n = {PERF_N}, best of {} reps",
        args.reps
    );
    let entries = run_suite(PERF_N, args.reps);
    println!(
        "{:<24} {:>7} {:>14} {:>14} {:>12}",
        "id", "rounds", "vertex_rounds", "best_wall_ms", "vr/sec"
    );
    for e in &entries {
        let obs = e
            .barrier_wait_frac
            .map(|r| format!("  barrier_wait={:.1}%", r * 100.0))
            .unwrap_or_default();
        println!(
            "{:<24} {:>7} {:>14} {:>14.3} {:>12}{}",
            e.id,
            e.rounds,
            e.vertex_rounds,
            e.best_wall_ns as f64 / 1e6,
            fmt_throughput(e.vr_per_sec),
            obs
        );
    }

    if let Some(path) = &args.json {
        let summary = PerfSummary::new(args.notes, entries);
        if let Err(e) = summary.write(path) {
            eprintln!("perf: {e}");
            exit(1);
        }
        println!("wrote {}", path.display());
    }
}
