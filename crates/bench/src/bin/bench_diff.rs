//! `bench-diff` — the regression gates over committed results JSON.
//!
//! Three modes:
//!
//! - `--check BASELINE.json FRESH.json [--tol 0.05]`: the correctness
//!   gate. Compares a fresh harness run against a committed baseline
//!   produced by the same binary with the same flags (`--json`), using a
//!   relative tolerance on every compared numeric (wall-clock statistics
//!   are machine-dependent: large swings are printed as informational
//!   notes but never gate the check). Exits nonzero on any drift, missing
//!   or extra experiment configuration, validity flip, or schema
//!   mismatch.
//!
//! - `--perf BASELINE.json FRESH.json [--tol 0.25]`: the engine
//!   throughput gate over `perf --json` summaries. **One-sided**: exits
//!   nonzero when any entry's vertex-rounds/sec drops more than the
//!   tolerance below the committed baseline (or when entries are
//!   missing/extra or measure different work); improvements pass and are
//!   printed as a cue to refresh the baseline. See EXPERIMENTS.md for the
//!   refresh procedure.
//!
//! - `--metrics-check PATH`: self-validation of a `--metrics` export —
//!   every JSONL snapshot line must be schema-valid and duplicate-free,
//!   each histogram's buckets must add up to its count, and counters
//!   must be monotone across lines (see `benchharness::metricscheck`).
//!   No baseline: the artifact validates itself.

use benchharness::metricscheck::check_metrics;
use benchharness::perf::{diff_perf, perf_notes, PerfSummary};
use benchharness::results::{diff, wall_notes, SuiteResult};
use std::path::{Path, PathBuf};
use std::process::exit;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Check,
    Perf,
    Metrics,
}

struct Args {
    mode: Mode,
    /// BASELINE.json, or the one PATH `--metrics-check` reads.
    baseline: PathBuf,
    /// FRESH.json: `Some` exactly for `--check` and `--perf`.
    fresh: Option<PathBuf>,
    tol: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut fresh = None;
    let mut tol = None;
    let mut mode = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => mode = Some(Mode::Check),
            "--perf" => mode = Some(Mode::Perf),
            "--metrics-check" => mode = Some(Mode::Metrics),
            "--list" => {
                println!("bench-diff gates:");
                println!("  --check          correctness drift vs committed suite JSON (tol 0.05)");
                println!(
                    "  --perf           one-sided throughput floor vs committed perf JSON (tol 0.25)"
                );
                println!("  --metrics-check  self-validate a --metrics export (one JSONL file)");
                println!("\nbaselines compared here are produced by the suite binaries; their");
                println!("rows are backend-independent (sync and actor are byte-identical).");
                benchharness::print_backends();
                exit(0);
            }
            "--tol" => {
                let v = it.next().ok_or("--tol requires a value")?;
                tol = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| {
                            format!("--tol requires a non-negative number, got `{v}`")
                        })?,
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            _ if baseline.is_none() => baseline = Some(PathBuf::from(arg)),
            _ if fresh.is_none() => fresh = Some(PathBuf::from(arg)),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let mode = mode.ok_or("missing mode: --check, --perf or --metrics-check")?;
    if let (Mode::Metrics, Some(extra)) = (mode, &fresh) {
        return Err(format!("unexpected argument `{}`", extra.display()));
    }
    Ok(Args {
        mode,
        baseline: baseline.ok_or(match mode {
            Mode::Metrics => "missing PATH argument",
            _ => "missing BASELINE.json argument",
        })?,
        fresh: match mode {
            Mode::Metrics => None,
            _ => Some(fresh.ok_or("missing FRESH.json argument")?),
        },
        // The correctness gate is tight; the perf gate tolerates the
        // wall-clock noise of a shared machine. An explicit --tol wins;
        // otherwise the perf default honors the PERF_GATE_TOL environment
        // override so a known-loaded CI box can widen the gate without
        // editing ci.sh (EXPERIMENTS.md documents the policy).
        tol: match (tol, mode) {
            (Some(_), Mode::Metrics) => {
                return Err("--metrics-check takes no --tol (the checks are exact)".into());
            }
            (Some(t), _) => t,
            (None, Mode::Check) => 0.05,
            (None, Mode::Perf) => perf_gate_tol_env()?.unwrap_or(0.25),
            (None, Mode::Metrics) => 0.0,
        },
    })
}

/// The `PERF_GATE_TOL` environment override for the perf gate's default
/// tolerance. Unset is fine; a set-but-unparsable value is an error, not
/// a silent fallback to the default.
fn perf_gate_tol_env() -> Result<Option<f64>, String> {
    match std::env::var("PERF_GATE_TOL") {
        Err(_) => Ok(None),
        Ok(v) => v
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite() && *t >= 0.0)
            .map(Some)
            .ok_or_else(|| format!("PERF_GATE_TOL requires a non-negative number, got `{v}`")),
    }
}

fn run_check(args: &Args, fresh_path: &Path) {
    let load = |path: &Path| match SuiteResult::read(path) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("error: {msg}");
            exit(2);
        }
    };
    let baseline = load(&args.baseline);
    let fresh = load(fresh_path);
    let drifts = diff(&baseline, &fresh, args.tol);
    // Wall time is machine-dependent: report large swings but never gate.
    for note in wall_notes(&baseline, &fresh, args.tol) {
        println!("bench-diff: note: {note}");
    }
    if drifts.is_empty() {
        println!(
            "bench-diff: {} matches {} ({} summaries, tol {})",
            fresh_path.display(),
            args.baseline.display(),
            baseline.summaries.len(),
            args.tol
        );
        return;
    }
    eprintln!(
        "bench-diff: {} DRIFTED from {}:",
        fresh_path.display(),
        args.baseline.display()
    );
    for d in &drifts {
        eprintln!("  - {d}");
    }
    exit(1);
}

fn run_perf(args: &Args, fresh_path: &Path) {
    let load = |path: &Path| match PerfSummary::read(path) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("error: {msg}");
            exit(2);
        }
    };
    let baseline = load(&args.baseline);
    let fresh = load(fresh_path);
    // Improvements are the trajectory moving forward, not a failure.
    for note in perf_notes(&baseline, &fresh, args.tol) {
        println!("bench-diff: note: {note}");
    }
    let failures = diff_perf(&baseline, &fresh, args.tol);
    if failures.is_empty() {
        println!(
            "bench-diff: {} holds the perf floor of {} ({} entries, tol {})",
            fresh_path.display(),
            args.baseline.display(),
            baseline.entries.len(),
            args.tol
        );
        return;
    }
    eprintln!(
        "bench-diff: {} REGRESSED against {}:",
        fresh_path.display(),
        args.baseline.display()
    );
    for f in &failures {
        eprintln!("  - {f}");
    }
    exit(1);
}

fn run_metrics(path: &Path) {
    let jsonl = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: read {}: {e}", path.display());
            exit(2);
        }
    };
    let (snapshots, failures) = check_metrics(&jsonl);
    if failures.is_empty() {
        println!(
            "bench-diff: {} is a valid metrics export ({snapshots} snapshots)",
            path.display()
        );
        return;
    }
    eprintln!("bench-diff: metrics export {} is INVALID:", path.display());
    for f in &failures {
        eprintln!("  - {f}");
    }
    exit(1);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: bench-diff --check BASELINE.json FRESH.json [--tol 0.05]\n\
                        bench-diff --perf  BASELINE.json FRESH.json [--tol 0.25]\n\
                        bench-diff --metrics-check METRICS.jsonl"
            );
            exit(2);
        }
    };
    match (args.mode, args.fresh.as_deref()) {
        (Mode::Check, Some(fresh)) => run_check(&args, fresh),
        (Mode::Perf, Some(fresh)) => run_perf(&args, fresh),
        (Mode::Metrics, None) => run_metrics(&args.baseline),
        _ => unreachable!("parse_args gives FRESH.json to --check and --perf only"),
    }
}
