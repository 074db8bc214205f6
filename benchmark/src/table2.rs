//! `table2_quick`: regenerate the quick Table 2 suite, the researcher's
//! "regenerate a table" path.
//!
//! A pass plans every Table 2 `Rows` spec (`plan_rows`) and runs it
//! through `run_plan` on two workers with a fresh `WorkloadCache`, then
//! checks the table: the rows are summarized, round-tripped through the
//! results JSON, diffed at tolerance 0 against the committed
//! `results/table2.quick.json`, and held to the suite's declared bounds.
//! The configuration is pinned to the one that baseline was generated
//! with, so `--seed` does not change this workload's inputs.

use crate::spans::Tracer;
use crate::stats::ratio;
use crate::{set_up, ObsSums, Passes, RunCfg, Sizes};
use benchharness::pipeline::{plan_rows, run_plan, CollectSink, WorkloadCache, WorkloadKey};
use benchharness::spec::{ExperimentSpec, SpecKind};
use benchharness::{bounds, diff, registry, suites, summarize, Bound, Cli, Row, SuiteResult};
use simlocal::obs::{Metric, Registry};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// The flags the committed baseline was generated with.
const CI_ARGS: [&str; 5] = ["--quick", "--seeds", "2", "--ids", "identity,random"];

/// Scheduler workers: no workload runs more than two threads.
const WORKERS: usize = 2;

/// The committed baseline every pass is diffed against.
const BASELINE: &str = "results/table2.quick.json";

struct Suite {
    cli: Cli,
    specs: Vec<ExperimentSpec>,
    baseline: SuiteResult,
}

impl Suite {
    fn load(filters: &[String]) -> Suite {
        let args = CI_ARGS.iter().map(|s| s.to_string());
        let cli = Cli::parse_from(args.chain(filters.iter().cloned())).expect("fixed flags parse");
        let mut baseline = SuiteResult::read(Path::new(BASELINE))
            .unwrap_or_else(|e| panic!("table2 baseline: {e}"));
        baseline.summaries.retain(|s| cli.wants(&s.exp));
        Suite {
            cli,
            specs: suites::table2(),
            baseline,
        }
    }

    /// Problems with a pass's rows: baseline drift and bound violations.
    fn check(&self, rows: &[Row], active: &[Bound]) -> Vec<String> {
        let fresh = SuiteResult::new(
            "table2",
            self.cli.quick,
            self.cli.seeds,
            self.cli.id_mode_labels(),
            summarize(rows),
        );
        // The baseline holds floats printed to six decimals, so only the
        // round-tripped summaries compare like with like.
        let fresh = match SuiteResult::from_json(&fresh.to_json()) {
            Ok(f) => f,
            Err(e) => return vec![format!("results JSON does not round-trip: {e}")],
        };
        let mut problems = diff(&self.baseline, &fresh, 0.0);
        problems.extend(bounds::check(active, &fresh.summaries));
        problems
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, sizes: &Sizes) -> crate::report::Outcome {
    let (suite, setup_s) = set_up(|| Suite::load(&sizes.table2_filters));
    let mut passes = Passes::new(cfg, setup_s);
    let mut tr = Tracer::new();
    let mut sums = ObsSums::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut trial_wall_s, mut gen_s) = (0.0, 0.0);
    let mut cache_counts = None;
    while let Some((i, traced)) = passes.next() {
        tr.start_pass(i, traced);
        let reg = traced.then(|| Registry::new(1));
        let cache = WorkloadCache::new();
        let t0 = Instant::now();
        let span = tr.open("table2.pass");
        let mut rows = Vec::new();
        let mut keys = Vec::new();
        let mut active = vec![Bound::AllValid, Bound::PaletteWithinCap];
        let mut next_id = 0;
        for spec in &suite.specs {
            let SpecKind::Rows {
                workloads,
                runs,
                bounds,
                ..
            } = &spec.kind
            else {
                continue;
            };
            let s = tr.open("pipeline.plan_rows");
            let plan = plan_rows(&suite.cli, workloads, runs, &mut next_id);
            tr.close(s);
            if plan.jobs.is_empty() {
                continue;
            }
            let s = tr.open("pipeline.run_plan");
            let mut sink = CollectSink::default();
            run_plan(&plan, WORKERS, &cache, reg.as_ref(), &mut sink);
            tr.close(s);
            active.extend(bounds.iter().cloned());
            // The registry's CONGEST claims bind every selected run once,
            // as `spec::execute` assembles them for the `table2` binary.
            for run in runs.iter().filter(|r| suite.cli.wants(r.exp)) {
                let dup = active.iter().any(|b| {
                    matches!(b, Bound::CongestWidth { exp, algo, .. }
                        if *exp == run.exp && *algo == run.algo)
                });
                if let (Some(c), false) = (registry::get(run.algo).congest, dup) {
                    active.push(Bound::CongestWidth {
                        exp: run.exp,
                        algo: run.algo,
                        c,
                    });
                }
            }
            keys.extend(plan.jobs.iter().map(|j| j.workload));
            rows.extend(sink.rows);
        }
        let s = tr.open("harness.check");
        let problems = suite.check(&rows, &active);
        tr.close(s);
        tr.close(span);
        let wall = t0.elapsed().as_secs_f64();
        passes.pass_done(traced, wall);
        passes.solution_done(traced, wall);

        attempted += rows.len() as u64;
        if problems.is_empty() {
            failed += rows.iter().filter(|r| !r.valid).count() as u64;
        } else {
            // A table that does not match is wrong as a whole.
            failed += rows.len() as u64;
            eprintln!("table2_quick pass {i}: {} problems", problems.len());
            for p in problems.iter().take(10) {
                eprintln!("  - {p}");
            }
        }
        if let Some(reg) = &reg {
            sums.add(reg);
            trial_wall_s += reg.histogram(Metric::HarnessTrialWallNs, 0).sum() as f64 / 1e9;
            cache_counts.get_or_insert((cache.hits(), cache.misses()));
            // Graph generation happens inside `run_plan`; time it apart,
            // after the pass, on the pass's distinct keys.
            let mut seen = HashSet::new();
            let distinct: Vec<WorkloadKey> = keys.into_iter().filter(|k| seen.insert(*k)).collect();
            let s = tr.open("gen.generate");
            let g0 = Instant::now();
            for k in &distinct {
                std::hint::black_box(k.generate());
            }
            gen_s += g0.elapsed().as_secs_f64();
            tr.close(s);
        }
    }

    let mut layers = BTreeMap::new();
    if cfg.trace {
        let wall = passes.traced_wall_s();
        let own = tr.self_ns_by_name();
        let secs = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e9;
        sums.layers(wall, &mut layers);
        layers.insert(
            "pipeline.plan_frac".into(),
            ratio(secs("pipeline.plan_rows"), wall),
        );
        let (hits, misses) = cache_counts.unwrap_or_default();
        layers.insert("pipeline.cache_hits".into(), hits as f64);
        layers.insert("pipeline.cache_misses".into(), misses as f64);
        layers.insert(
            "pipeline.worker_busy_frac".into(),
            ratio(trial_wall_s, WORKERS as f64 * secs("pipeline.run_plan")),
        );
        layers.insert("gen.graph_frac".into(), ratio(gen_s, wall));
        layers.insert(
            "harness.check_frac".into(),
            ratio(secs("harness.check"), wall),
        );
        crate::write_trace(&tr, "table2_quick");
    }
    passes.finish(attempted, failed, layers)
}
