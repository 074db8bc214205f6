//! `trace` — run one registered algorithm and export its round log.
//!
//! The algorithm is resolved by name from `benchharness::registry`, so
//! every registered algorithm is traceable with no wiring here. Every
//! registry run records a `TraceLog` — one record per round, split by
//! phase — and derives its `PhaseBreakdown` from it; this binary then:
//!
//! * prints the per-phase `RoundSum` breakdown and the termination-round /
//!   round-wall histograms it builds from the recorded rounds,
//! * asserts the trace-level accounting identities (per-phase `RoundSum`s
//!   total the engine's step count; the recorded rounds, steps and
//!   terminations match [`EngineStats`] and `n`),
//! * checks the Lemma 6.1 geometric active-set decay where the registry
//!   entry claims it,
//! * writes `<out>/trace.jsonl` (one object per round) and
//!   `<out>/trace.chrome.json` (Chrome trace event format — open in
//!   `chrome://tracing` or the Perfetto UI), and
//! * re-reads both files, validating that they parse, that Chrome-trace
//!   timestamps are monotone, and that their counts match the engine.
//!
//! Exits nonzero if any check fails, so CI can use a small run as a smoke
//! test of the whole observability layer.
//!
//! `--congest-audit` instead runs *every* registered algorithm once on a
//! small forest workload and reports its widest published message against
//! the CONGEST budget `c·log₂ n` bits, enforcing the registry's
//! `AlgoSpec::congest` claims (exit nonzero on a violated claim).
//!
//! `--metrics PATH` also attaches an obs registry and writes one JSONL
//! snapshot of it, tagged `trace`, to `PATH` (`bench-diff
//! --metrics-check PATH` validates it).
//!
//! Usage: `trace [--algo NAME] [--n N] [--a A] [--seed S] [--out DIR]
//! [--parallel] [--backend sync|actor[:K]] [--metrics PATH] [--list]
//! [--congest-audit]` with NAME any registry name (default
//! `rand_delta_plus_one`); `--list` prints the registry and exits.

use benchharness::bounds::geometric_decay_violations;
use benchharness::pipeline::{WorkloadCache, WorkloadKey};
use benchharness::registry::{self, Backend, ExecOptions, Params};
use benchharness::results::Json;
use benchharness::spec::MetricsExport;
use benchharness::Trial;
use simlocal::{EngineStats, Histogram, TraceLog};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;

struct Args {
    algo: String,
    n: usize,
    a: usize,
    seed: u64,
    out: PathBuf,
    parallel: bool,
    backend: Backend,
    metrics: Option<PathBuf>,
    list: bool,
    congest_audit: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        algo: "rand_delta_plus_one".into(),
        n: 4096,
        a: 2,
        seed: 1,
        out: PathBuf::from("target/trace"),
        parallel: false,
        backend: Backend::default(),
        metrics: None,
        list: false,
        congest_audit: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| it.next().ok_or(format!("{flag} requires a value"));
        match arg.as_str() {
            "--algo" => args.algo = val("--algo")?,
            "--n" => args.n = val("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--a" => args.a = val("--a")?.parse().map_err(|e| format!("--a: {e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = PathBuf::from(val("--out")?),
            "--parallel" => args.parallel = true,
            "--backend" => args.backend = Backend::parse(&val("--backend")?)?,
            "--metrics" => args.metrics = Some(PathBuf::from(val("--metrics")?)),
            "--list" => args.list = true,
            "--congest-audit" => args.congest_audit = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: trace [--algo NAME] [--n N] [--a A] [--seed S] [--out DIR] \
                 [--parallel] [--backend sync|actor[:K]] [--metrics PATH] [--list] \
                 [--congest-audit]"
            );
            exit(2);
        }
    };
    if args.congest_audit {
        let failures = congest_audit(&args);
        if !failures.is_empty() {
            eprintln!("\n[congest-audit] FAILURES:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            exit(1);
        }
        println!("\n[congest-audit] all width claims hold");
        return;
    }
    if args.list {
        println!("trace: registered algorithms\n");
        for spec in registry::all() {
            println!(
                "{:<22} [{}] — {}",
                spec.name,
                spec.problem.label(),
                spec.bound
            );
        }
        benchharness::print_backends();
        return;
    }
    let spec = match registry::find(&args.algo) {
        Some(s) => s,
        None => {
            eprintln!(
                "error: unknown algo `{}` (run `trace --list` for the registry)",
                args.algo
            );
            exit(2);
        }
    };
    let failures = trace_run(spec, &args);
    if !failures.is_empty() {
        eprintln!("\n[trace] FAILURES:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        exit(1);
    }
    println!("\n[trace] all checks passed");
}

/// Runs the registered algorithm, prints the report, writes and validates
/// both export files. Returns failure messages (empty = pass).
fn trace_run(spec: &registry::AlgoSpec, args: &Args) -> Vec<String> {
    let trial = Trial::identity(args.seed);
    // `--metrics PATH`: attach an obs registry sized for the backend and
    // write its JSONL snapshot at the end.
    let export = match args
        .metrics
        .as_ref()
        .map(|p| MetricsExport::create(p, args.backend))
        .transpose()
    {
        Ok(x) => x,
        Err(e) => return vec![e],
    };
    let reg = export.as_ref().map(|x| &x.registry);
    // The workload comes through the pipeline's cache layer, so a trace
    // run exercises (and, with `--metrics`, records) the same generation
    // path the suites use.
    let cache = WorkloadCache::new();
    let key = WorkloadKey::Forest {
        n: args.n,
        a: args.a,
        seed: args.seed,
    };
    let gg = cache.get(key, reg);
    let mut opts = ExecOptions::new("trace", &gg, &trial)
        .parallel(args.parallel)
        .backend(args.backend);
    if let Some(r) = reg {
        opts = opts.metrics(r);
    }
    let out = spec.exec(&opts);
    let (row, stats, breakdown, log) = (out.row, out.stats, out.breakdown, out.trace);
    let n = gg.graph.n();

    println!(
        "trace: {} on forest_union (n={}, a={}, seed={}, {}, backend {})",
        args.algo,
        n,
        args.a,
        args.seed,
        if args.parallel {
            "parallel"
        } else {
            "sequential"
        },
        args.backend.label()
    );
    println!(
        "  rounds {}  RoundSum {}  VA {:.3}  WC {}",
        stats.rounds, stats.steps, row.va, row.wc
    );
    println!(
        "  wire: {} bits total ({:.1} bits/vertex, widest message {} bits)",
        stats.msg_bits, row.avg_msg_bits, stats.max_msg_bits
    );
    println!("  per-phase breakdown (phase, RoundSum, VA share, terminations):");
    for (phase, round_sum, terms) in breakdown.rows() {
        println!(
            "    {phase:<14} {round_sum:>10}  {:>8.3}  {terms:>8}",
            round_sum as f64 / n as f64
        );
    }
    println!();
    let (termination_rounds, round_wall_us) = histograms(&log);
    print!("{}", termination_rounds.render("termination rounds"));
    print!("{}", round_wall_us.render("round wall time (us)"));

    let mut failures = Vec::new();

    // Accounting identities between the round log and the engine.
    if breakdown.total_round_sum() != stats.steps {
        failures.push(format!(
            "per-phase RoundSums total {} but the engine counted {} steps",
            breakdown.total_round_sum(),
            stats.steps
        ));
    }
    if log.steps() != stats.steps {
        failures.push(format!(
            "trace recorded {} steps but the engine counted {}",
            log.steps(),
            stats.steps
        ));
    }
    if log.terminations() != n as u64 {
        failures.push(format!(
            "trace recorded {} terminations for {} vertices",
            log.terminations(),
            n
        ));
    }
    if log.rounds() != stats.rounds {
        failures.push(format!(
            "trace recorded {} rounds but the engine ran {}",
            log.rounds(),
            stats.rounds
        ));
    }

    // Lemma 6.1: the active set decays geometrically where the registry
    // entry claims it (constants mirror the suite bound declarations).
    if let Some(decay) = spec.decay {
        let active: Vec<f64> = row.active_series.iter().map(|&a| a as f64).collect();
        failures.extend(geometric_decay_violations(
            &format!("{} n={n}", args.algo),
            &active,
            decay.ratio,
            decay.stride,
            decay.floor,
            decay.grace,
        ));
    }

    // Export and re-validate both artifact files.
    if let Err(e) = fs::create_dir_all(&args.out) {
        failures.push(format!("create {}: {e}", args.out.display()));
        return failures;
    }
    let jsonl_path = args.out.join("trace.jsonl");
    let chrome_path = args.out.join("trace.chrome.json");
    match fs::File::create(&jsonl_path)
        .map_err(|e| e.to_string())
        .and_then(|f| log.write_jsonl(io_buf(f)).map_err(|e| e.to_string()))
    {
        Ok(()) => println!("\nwrote {}", jsonl_path.display()),
        Err(e) => failures.push(format!("write {}: {e}", jsonl_path.display())),
    }
    match fs::File::create(&chrome_path)
        .map_err(|e| e.to_string())
        .and_then(|f| log.write_chrome_trace(io_buf(f)).map_err(|e| e.to_string()))
    {
        Ok(()) => println!("wrote {}", chrome_path.display()),
        Err(e) => failures.push(format!("write {}: {e}", chrome_path.display())),
    }
    failures.extend(validate_jsonl(&jsonl_path, &stats, n));
    failures.extend(validate_chrome(&chrome_path, &stats));
    if let Some(x) = export {
        failures.extend(x.finish("trace").err());
    }
    failures
}

/// Log₂ histograms of the per-vertex termination rounds `r(v)` (each
/// round counted once per vertex that terminated in it) and of the
/// per-round wall times in µs, from a trace's records.
fn histograms(log: &TraceLog) -> (Histogram, Histogram) {
    let (mut rounds, mut walls) = (Histogram::new(), Histogram::new());
    for r in log.records() {
        for _ in 0..r.terminations() {
            rounds.record(r.round as u64);
        }
        walls.record(r.wall.as_micros() as u64);
    }
    (rounds, walls)
}

fn io_buf(f: fs::File) -> std::io::BufWriter<fs::File> {
    std::io::BufWriter::new(f)
}

/// Runs every registered algorithm once on a small forest workload and
/// reports its widest published message against the CONGEST budget
/// `c·log₂ n` bits. Algorithms with a registry width claim
/// (`AlgoSpec::congest`) are enforced — a wider message is a failure;
/// unclaimed algorithms (whose payloads scale with the degree or a
/// recursion prefix) are reported for context only.
fn congest_audit(args: &Args) -> Vec<String> {
    let n = args.n.min(4096);
    let a = args.a.max(2);
    // One cache lookup per algorithm: the first generates, the rest hit —
    // the audit doubles as a smoke test of the workload-cache layer.
    let cache = WorkloadCache::new();
    let key = WorkloadKey::Forest {
        n,
        a,
        seed: args.seed,
    };
    let trial = Trial::identity(args.seed);
    let log2n = (n.max(2) as f64).log2();
    println!(
        "congest-audit: forest_union (n={n}, a={a}, seed={}), budget unit log₂n = {log2n:.1} bits",
        args.seed
    );
    println!(
        "{:<22} {:>8} {:>12} {:>8} {:>9}  verdict",
        "algo", "max_bits", "avg_bits/v", "eff_c", "claimed_c"
    );
    let mut failures = Vec::new();
    for spec in registry::all() {
        // The segmentation schemes need a concrete k; everything else
        // runs with its defaults (mirrors the registry smoke tests).
        let params = match spec.name {
            "ka" | "ka2" => Params::k(2),
            _ => Params::default(),
        };
        let gg = cache.get(key, None);
        let row = spec
            .exec(&ExecOptions::new("audit", &gg, &trial).params(params))
            .into_row();
        let eff_c = row.max_msg_bits as f64 / log2n;
        let (claimed, verdict) = match spec.congest {
            Some(c) => {
                let limit = c * log2n;
                if row.max_msg_bits as f64 > limit {
                    failures.push(format!(
                        "{}: widest message {} bits exceeds the claimed CONGEST \
                         width {c}·log₂n = {limit:.1} bits",
                        spec.name, row.max_msg_bits
                    ));
                    (format!("{c}"), "VIOLATED")
                } else {
                    (format!("{c}"), "ok")
                }
            }
            None => ("—".to_string(), "unclaimed (LOCAL)"),
        };
        println!(
            "{:<22} {:>8} {:>12.1} {:>8.2} {:>9}  {}",
            spec.name, row.max_msg_bits, row.avg_msg_bits, eff_c, claimed, verdict
        );
        println!(
            "#congest,{},{},{:.2},{:.2},{}",
            spec.name, row.max_msg_bits, row.avg_msg_bits, eff_c, claimed
        );
    }
    println!(
        "workload cache: {} hits / {} misses (one generation shared across the registry)",
        cache.hits(),
        cache.misses()
    );
    failures
}

/// Re-reads the JSONL export: every line parses as a round, and the
/// rounds, their active and per-phase step totals and their
/// terminations match the engine's statistics.
fn validate_jsonl(path: &Path, stats: &EngineStats, n: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("read {}: {e}", path.display())],
    };
    let (mut rounds, mut active, mut terms, mut phase_steps) = (0u64, 0u64, 0u64, 0u64);
    for (i, line) in text.lines().enumerate() {
        let parsed = Json::parse(line).and_then(|v| {
            if v.get("ev")?.as_str()? != "round" {
                return Err("not a round line".to_string());
            }
            let Json::Obj(phases) = v.get("phases")? else {
                return Err("`phases` is not an object".to_string());
            };
            let mut steps = 0;
            for (_, t) in phases {
                steps += t.get_u64("steps")?;
            }
            Ok((v.get_u64("active")?, v.get_u64("terminated")?, steps))
        });
        match parsed {
            Ok((a, t, s)) => {
                rounds += 1;
                active += a;
                terms += t;
                phase_steps += s;
            }
            Err(e) => failures.push(format!("{} line {}: {e}", path.display(), i + 1)),
        }
    }
    for (what, got, want) in [
        ("rounds", rounds, stats.rounds as u64),
        ("summed active", active, stats.steps),
        ("summed phase steps", phase_steps, stats.steps),
        ("terminations", terms, n as u64),
    ] {
        if got != want {
            failures.push(format!("{}: {what} {got} != engine {want}", path.display()));
        }
    }
    failures
}

/// Re-reads the Chrome-trace export: the document parses, timestamps are
/// monotone non-decreasing in array order, and the round slices match the
/// engine's round count and step total.
fn validate_chrome(path: &Path, stats: &EngineStats) -> Vec<String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("read {}: {e}", path.display())],
    };
    let check = || -> Result<Vec<String>, String> {
        let doc = Json::parse(&text)?;
        let events = doc.get("traceEvents")?.as_array()?;
        let mut failures = Vec::new();
        let mut last_ts = f64::NEG_INFINITY;
        let (mut slices, mut slice_active) = (0u64, 0u64);
        for e in events {
            let ts = e.get("ts")?.as_f64()?;
            if ts < last_ts {
                failures.push(format!(
                    "{}: timestamp {ts} after {last_ts} — not monotone",
                    path.display()
                ));
            }
            last_ts = ts;
            if e.get("ph")?.as_str()? == "X" {
                slices += 1;
                slice_active += e.get("args")?.get("active")?.as_f64()? as u64;
            }
        }
        if slices != stats.rounds as u64 {
            failures.push(format!(
                "{}: {slices} round slices != engine {} rounds",
                path.display(),
                stats.rounds
            ));
        }
        if slice_active != stats.steps {
            failures.push(format!(
                "{}: slice active counts total {slice_active} != engine {} steps",
                path.display(),
                stats.steps
            ));
        }
        Ok(failures)
    };
    match check() {
        Ok(failures) => failures,
        Err(e) => vec![format!("{}: {e}", path.display())],
    }
}
