//! Property tests for the trial pipeline's scheduler determinism: for
//! any small plan, any worker count, and either cache mode, the rows the
//! sink collects are identical — every field but the wall time, and
//! byte-for-byte in the suite-level `SuiteResult` JSON. This is the
//! repo-level guarantee behind `--jobs N`: parallelism may only change
//! wall time, never the results; ci.sh additionally pins it end-to-end
//! by diffing a `--jobs 4` table2 run against the committed sequential
//! baseline at `--tol 0`.

use benchharness::pipeline::{plan_rows, run_plan, CollectSink, WorkloadCache};
use benchharness::spec::{RunSpec, WorkloadSpec};
use benchharness::{summarize, Cli, SuiteResult};
use proptest::prelude::*;

fn cli(extra: &[String]) -> Cli {
    let mut args = vec!["--quick".to_string()];
    args.extend(extra.iter().cloned());
    Cli::parse_from(args).expect("static flags parse")
}

/// A small two-run plan over one forest workload — enough to exercise
/// multi-run, multi-trial, multi-seed interleavings without making the
/// proptest sweep slow.
fn tables(n: usize, a: usize, seed: u64) -> (Vec<WorkloadSpec>, Vec<RunSpec>) {
    let workloads = vec![WorkloadSpec::ForestAt {
        n_quick: n,
        n_full: n,
        a,
        seed,
    }];
    let runs = vec![
        RunSpec::new("P.1", "a2logn").k(2),
        RunSpec::new("P.2", "mis_extension"),
    ];
    (workloads, runs)
}

/// Runs the plan with `workers` threads against `cache` and returns each
/// collected row's `Debug` text and the suite JSON, with the
/// machine-dependent wall times zeroed.
fn run(
    c: &Cli,
    w: &[WorkloadSpec],
    r: &[RunSpec],
    workers: usize,
    cache: &WorkloadCache,
) -> (Vec<String>, String) {
    let mut id = 0;
    let plan = plan_rows(c, w, r, &mut id);
    let mut sink = CollectSink::default();
    run_plan(&plan, workers, cache, None, &mut sink);

    let mut rows = sink.rows;
    for row in &mut rows {
        row.wall_ms = 0.0;
    }
    let json = SuiteResult::new(
        "pipeline-proptest",
        c.quick,
        c.seeds,
        vec!["identity".into()],
        summarize(&rows),
    )
    .to_json();
    (rows.iter().map(|row| format!("{row:?}")).collect(), json)
}

fn ncpu() -> usize {
    std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The parallel scheduler is byte-identical to the sequential oracle
    // for arbitrary small plans and worker counts.
    #[test]
    fn parallel_equals_sequential(
        n in 64usize..200,
        a in 1usize..4,
        seed in 0u64..1000,
        workers in 2usize..6,
        seeds in 1u64..3,
    ) {
        let (w, r) = tables(n, a, seed);
        let c = cli(&["--seeds".to_string(), seeds.to_string()]);
        let cache = WorkloadCache::new();
        let (seq_rows, seq_json) = run(&c, &w, &r, 1, &cache);
        for workers in [workers, ncpu()] {
            let (par_rows, par_json) = run(&c, &w, &r, workers, &cache);
            prop_assert_eq!(&seq_rows, &par_rows, "rows diverged");
            prop_assert_eq!(&seq_json, &par_json, "suite JSON diverged");
        }
        // Reusing one graph across trials, runs, and reruns must hit.
        prop_assert!(cache.hits() > 0, "multi-trial plan never hit the cache");
    }

    // The cache is semantically invisible: regenerating every workload
    // per lookup produces the same bytes as sharing one `Arc`.
    #[test]
    fn cache_on_equals_cache_off(
        n in 64usize..160,
        a in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (w, r) = tables(n, a, seed);
        let c = cli(&["--seeds".to_string(), "2".to_string()]);
        let on = WorkloadCache::new();
        let off = WorkloadCache::disabled();
        let (rows_on, json_on) = run(&c, &w, &r, 2, &on);
        let (rows_off, json_off) = run(&c, &w, &r, 2, &off);
        prop_assert_eq!(rows_on, rows_off);
        prop_assert_eq!(json_on, json_off);
        prop_assert!(on.hits() > 0);
        prop_assert_eq!(off.hits(), 0);
    }
}
