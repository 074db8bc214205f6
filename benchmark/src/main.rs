//! The benchmark's one command. Run it from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] [--json PATH]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A1.json,A2.json B1.json,B2.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is its JSON result. Without it, every workload runs
//! in a child process of its own (so peak RSS is per workload), each
//! metric is printed by name with its unit, and `--json` writes them all
//! with a provenance block. `--compare` checks a second set of `--json`
//! files against a first. Any failed output check makes the exit code
//! nonzero.

use benchharness::results::Json;
use distsym_benchmark::report::{end_to_end, json_str, per_layer, Better, MetricDef, Outcome};
use distsym_benchmark::stats::median;
use distsym_benchmark::{run, RunCfg, Sizes, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: distsym-benchmark [--workload NAME] [--seed S] [--seconds T] \
                     [--trace [0|1]] [--json PATH] | --compare A.json[,A2.json...] B.json[,B2.json...]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        json: None,
        compare: None,
    };
    let mut it = args.into_iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} requires a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                out.workload = Some(Workload::parse(&v).ok_or(format!(
                    "unknown workload `{v}` (expected one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--json" => out.json = Some(value("--json")?.into()),
            // Each side is one `--json` file or a comma-separated set.
            "--compare" => {
                let set = |v: String| v.split(',').map(PathBuf::from).collect();
                let a = set(value("--compare")?);
                out.compare = Some((a, set(value("--compare")?)));
            }
            // `--trace` alone turns tracing on; an explicit 0/1 may follow.
            "--trace" => {
                let explicit = it.next_if(|v| v == "0" || v == "1");
                out.trace = explicit.as_deref() != Some("0");
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.workload.is_some() && out.json.is_some() {
        return Err("--json records a run over all workloads; drop --workload".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `testdata/`, `results/` and the benchmark's own outputs are
    // repository-relative.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if let Err(e) = std::env::set_current_dir(root) {
        eprintln!("error: cannot enter the repository root {root}: {e}");
        return ExitCode::FAILURE;
    }
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

fn run_one(w: Workload, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = run(w, &cfg, &Sizes::full());
    print!("{}", outcome.render(&Outcome::catalogue(args.trace)));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child run's standard output: its `name value unit` lines, and its
/// result line as printed.
struct ChildRun {
    report: String,
    result: String,
    correct: bool,
}

fn run_child(w: Workload, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let text = stdout.trim_end();
    let (report, result) = text.rsplit_once('\n').unwrap_or(("", text));
    let correct = Json::parse(result)
        .and_then(|v| v.get("correct")?.as_bool())
        .map_err(|e| format!("{} ({}): no result line: {e}", w.name(), out.status))?;
    if !out.status.success() && correct {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    Ok(ChildRun {
        report: report.to_string(),
        result: result.to_string(),
        correct,
    })
}

fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut doc = Vec::new();
    for w in Workload::ALL {
        let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
        let mut results = Vec::new();
        for &trace in modes {
            eprintln!("== {} (trace {})", w.name(), u8::from(trace));
            match run_child(w, args, trace) {
                Ok(r) => {
                    println!("\n{} (trace {}):\n{}", w.name(), u8::from(trace), r.report);
                    ok &= r.correct;
                    results.push(r.result);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
        // Each child's result line goes in as printed.
        doc.push(format!(
            "    {}: [\n      {}\n    ]",
            json_str(w.name()),
            results.join(",\n      ")
        ));
    }
    if let Some(path) = &args.json {
        let text = format!(
            "{{\n  \"provenance\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \
             \"workloads\": {{\n{}\n  }}\n}}\n",
            provenance(),
            args.seed,
            args.seconds,
            doc.join(",\n")
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nresults written to {}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The first line of a command's standard output, if it ran.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or_default().trim().to_string())
}

/// Where the numbers were measured: commit, host and toolchain.
fn provenance() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map(|v| v.trim().to_string())
    };
    let llc = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
        .map(|s| s.trim().to_string())
        .ok()
        .or_else(|| cpu_field("cache size"));
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\": {}, \"nproc\": {nproc}, \"cpu_model\": {}, \"llc\": {}, \
         \"rustc\": {}, \"profile\": {}}}",
        json_str(&command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        json_str(&cpu_field("model name").unwrap_or_else(unknown)),
        json_str(&llc.unwrap_or_else(unknown)),
        json_str(&command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    )
}

/// One workload's entry in a `--json` file: its untraced and (if any)
/// traced result lines, merged.
struct Recorded {
    name: String,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// One `--json` file: the seed it ran with and every workload's entry.
struct Results {
    seed: u64,
    workloads: Vec<Recorded>,
}

impl Results {
    fn read(path: &Path) -> Result<Results, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Json::Obj(workloads) = doc.get("workloads")? else {
            return Err(format!("{}: `workloads` is not an object", path.display()));
        };
        let workloads = workloads
            .iter()
            .map(|(name, runs)| {
                let mut w = Recorded {
                    name: name.clone(),
                    correct: true,
                    metrics: BTreeMap::new(),
                };
                for run in runs.as_array()? {
                    let Json::Obj(metrics) = run.get("metrics")? else {
                        return Err(format!("{name}: `metrics` is not an object"));
                    };
                    w.correct &= run.get("correct")?.as_bool()?;
                    for (m, v) in metrics {
                        w.metrics.insert(m.clone(), v.get("value")?.as_f64()?);
                    }
                }
                Ok(w)
            })
            .collect::<Result<_, String>>()?;
        Ok(Results {
            seed: doc.get_u64("seed")?,
            workloads,
        })
    }

    fn metric(&self, workload: &str, metric: &str) -> Option<f64> {
        let w = self.workloads.iter().find(|w| w.name == workload)?;
        w.metrics.get(metric).copied()
    }
}

/// Problems with `b` relative to `a` for one workload's metric `d`.
fn compare_metric(d: &MetricDef, a: f64, b: f64) -> Option<String> {
    if d.exact {
        return (a != b).then(|| format!("{}: exact count changed {a} -> {b}", d.name));
    }
    let bound = d.bound?;
    let worse = match d.better {
        Better::Lower => b > a * (1.0 + bound),
        Better::Higher => b < a * (1.0 - bound),
    };
    worse.then(|| {
        format!(
            "{}: {a} -> {b} is worse by more than {}%",
            d.name,
            bound * 100.0
        )
    })
}

/// Checks set `b` of `--json` files against set `a`: the median of each
/// bounded metric within its bound, and every exact count identical
/// between files of the two sets that ran with the same seed.
fn compare(a_paths: &[PathBuf], b_paths: &[PathBuf]) -> ExitCode {
    let read = |paths: &[PathBuf]| paths.iter().map(|p| Results::read(p)).collect();
    let (a, b): (Vec<Results>, Vec<Results>) = match (read(a_paths), read(b_paths)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let defs: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
    let mut problems = Vec::new();
    let mut checked = 0;
    for name in a[0].workloads.iter().map(|w| &w.name) {
        for r in &b {
            match r.workloads.iter().find(|w| w.name == *name) {
                None => problems.push(format!("{name}: missing from seed {}", r.seed)),
                Some(w) if !w.correct => {
                    problems.push(format!("{name}: failed output checks (seed {})", r.seed))
                }
                Some(_) => {}
            }
        }
        for d in &defs {
            let values = |set: &[Results]| -> Vec<f64> {
                set.iter().filter_map(|r| r.metric(name, &d.name)).collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() {
                continue;
            }
            if vb.is_empty() {
                problems.push(format!("{name}: {} missing", d.name));
            } else if d.exact {
                for (ra, rb) in a.iter().flat_map(|ra| b.iter().map(move |rb| (ra, rb))) {
                    let pair = (ra.metric(name, &d.name), rb.metric(name, &d.name));
                    if let (true, (Some(x), Some(y))) = (ra.seed == rb.seed, pair) {
                        checked += 1;
                        problems.extend(compare_metric(d, x, y).map(|p| format!("{name}: {p}")));
                    }
                }
            } else if d.bound.is_some() {
                checked += 1;
                let p = compare_metric(d, median(&va), median(&vb));
                problems.extend(p.map(|p| format!("{name}: median {p}")));
            }
        }
    }
    println!(
        "compared {checked} values: {} run(s) against {} run(s)",
        a.len(),
        b.len()
    );
    for p in &problems {
        println!("  REGRESSION {p}");
    }
    if problems.is_empty() {
        println!("no median is worse than its bound; exact counts are identical");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_a_single_workload_command_line() {
        let a = args(&[
            "--workload",
            "churn_updates",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::ChurnUpdates));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--seed", "2"]).unwrap().trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "-1"]).is_err());
        assert!(args(&["--bogus"]).is_err());
        assert!(args(&["--workload", "actor_solve", "--json", "a.json"]).is_err());
    }

    #[test]
    fn compare_respects_direction_bound_and_exactness() {
        let defs: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let find = |n: &str| defs.iter().find(|d| d.name == n).unwrap();
        let tts = find("time_to_solution_p50_ms");
        assert!(compare_metric(tts, 1.0, 1.24).is_none());
        assert!(compare_metric(tts, 1.0, 1.26).is_some());
        assert!(compare_metric(tts, 1.0, 0.5).is_none());
        let rss = find("peak_rss_mib");
        assert!(compare_metric(rss, 100.0, 114.0).is_none());
        assert!(compare_metric(rss, 100.0, 120.0).is_some());
        let hits = find("pipeline.cache_hits");
        assert!(compare_metric(hits, 90.0, 90.0).is_none());
        assert!(compare_metric(hits, 90.0, 91.0).is_some());
        let unbounded = find("engine.step_frac");
        assert!(compare_metric(unbounded, 0.1, 0.9).is_none());
    }
}
