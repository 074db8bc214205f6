//! `churn_updates`: absorbing edge churn with the warm-start engine.
//!
//! Set-up generates a `forest_union(a = 2)` graph, cold-solves it with
//! Luby's MIS (`run_recorded`) and draws the seeded churn plan: batches
//! of one insert and one delete. Each solution applies one batch
//! (`churn::apply`), warm-starts the solve from the previous replay log
//! (`Runner::run_warm`) and verifies the result is a maximal independent
//! set. A pass is a block of batches; after each block an untimed cold
//! re-solve of the current graph must reproduce the warm outputs exactly.
//! Unlike `ingest_solve`'s full cold solves, this uses the engine
//! incrementally: small frontiers plus replay.

use crate::report::Outcome;
use crate::stats::{median, ratio};
use crate::{set_up, spans::Tracer, Passes, RunCfg, Sizes};
use algos::mis::LubyMis;
use benchharness::{cfg as run_config, forest_workload, Trial};
use graphcore::churn::{self, ChurnPlan, EditBatch};
use graphcore::{verify, Graph, IdAssignment};
use simlocal::obs::{Metric, Registry};
use simlocal::{Protocol, Replay, Runner, WarmStart};
use std::collections::BTreeMap;
use std::time::Instant;

type Msg = <LubyMis as Protocol>::Msg;

/// Batches per pass; each pass ends with one cold re-solve check.
const BLOCK: usize = 50;

/// Batches drawn during set-up, far more than a run uses; a run stops
/// early if they run out.
const BATCHES: usize = 10_000;

struct Input {
    graph: Graph,
    ids: IdAssignment,
    outputs: Vec<bool>,
    replay: Replay<Msg>,
    cold_valid: bool,
    batches: Vec<EditBatch>,
}

fn set_up_input(sizes: &Sizes, seed: u64) -> Input {
    let graph = forest_workload(sizes.churn_n, 2, seed).graph;
    let ids = Trial::identity(seed).ids(graph.n());
    let (cold, replay) = Runner::new(&LubyMis, &graph, &ids)
        .config(run_config(seed))
        .run_recorded()
        .expect("Luby's MIS terminates");
    let plan = ChurnPlan {
        seed,
        batches: BATCHES,
        inserts_per_batch: 1,
        deletes_per_batch: 1,
    };
    Input {
        batches: churn::churn_sequence(&graph, &plan),
        cold_valid: verify::maximal_independent_set(&graph, &cold.outputs).is_ok(),
        outputs: cold.outputs,
        replay,
        ids,
        graph,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, sizes: &Sizes) -> Outcome {
    let (input, setup_s) = set_up(|| set_up_input(sizes, cfg.seed));
    let Input {
        graph: mut cur,
        ids,
        mut outputs,
        mut replay,
        cold_valid,
        batches,
    } = input;
    let n = cur.n() as f64;
    let mut passes = Passes::new(cfg, setup_s);
    let mut tr = Tracer::new();
    let mut attempted = 1u64;
    let mut failed = u64::from(!cold_valid);
    let mut cold_ms = Vec::new();
    // The first traced pass's warm-engine counts: re-stepped vertex-rounds,
    // reactivated vertices, and the largest per-batch reactivated share.
    let mut first_traced: Option<(u64, u64, f64)> = None;
    let mut blocks = batches.chunks_exact(BLOCK);
    while let Some((i, traced)) = passes.next() {
        let Some(block) = blocks.next() else {
            eprintln!("churn_updates: all {} batches used", batches.len());
            break;
        };
        tr.start_pass(i, traced);
        let reg = traced.then(|| Registry::new(1));
        let mut pass_s = 0.0;
        let (mut resteps, mut react_max) = (0u64, 0.0f64);
        let span = tr.open("churn.pass");
        for batch in block {
            let t0 = Instant::now();
            let s = tr.open("churn.batch");
            let a = tr.open("churn.apply");
            let next = churn::apply(&cur, batch);
            tr.close(a);
            let touched = batch.endpoints();
            let w = tr.open("warm.run_warm");
            let mut runner = Runner::new(&LubyMis, &next, &ids).config(run_config(cfg.seed));
            if let Some(r) = &reg {
                runner = runner.obs(r);
            }
            let warm = runner
                .run_warm(WarmStart {
                    replay: &replay,
                    outputs: &outputs,
                    old_graph: &cur,
                    touched: &touched,
                })
                .expect("Luby's MIS terminates");
            tr.close(w);
            let v = tr.open("verify.mis");
            let valid = verify::maximal_independent_set(&next, &warm.outcome.outputs).is_ok();
            tr.close(v);
            tr.close(s);
            let secs = t0.elapsed().as_secs_f64();
            pass_s += secs;
            passes.solution_done(traced, secs);
            attempted += 1;
            if !valid {
                failed += 1;
                eprintln!("churn_updates: batch output is not a maximal independent set");
            }
            resteps += warm.outcome.stats.steps;
            react_max = react_max.max(warm.stats.reactivated as f64 / n);
            cur = next;
            outputs = warm.outcome.outputs;
            replay = warm.replay;
        }
        tr.close(span);
        passes.pass_done(traced, pass_s);
        if let Some(r) = &reg {
            first_traced.get_or_insert((resteps, r.total(Metric::EngineReactivated), react_max));
        }

        // Untimed: a cold re-solve of the current graph must match.
        let s = tr.open("warm.cold_check");
        let t0 = Instant::now();
        let cold = Runner::new(&LubyMis, &cur, &ids)
            .config(run_config(cfg.seed))
            .run()
            .expect("Luby's MIS terminates");
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tr.close(s);
        attempted += 1;
        if cold.outputs != outputs {
            failed += 1;
            eprintln!("churn_updates: warm outputs differ from the cold re-solve");
        }
    }

    let mut layers = BTreeMap::new();
    if cfg.trace {
        let wall = passes.traced_wall_s();
        let own = tr.self_ns_by_name();
        let secs = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e9;
        for (metric, span) in [
            ("churn.apply_frac", "churn.apply"),
            ("warm.run_frac", "warm.run_warm"),
            ("verify.mis_frac", "verify.mis"),
        ] {
            layers.insert(metric.into(), ratio(secs(span), wall));
        }
        let (resteps, reactivated, react_max) = first_traced.unwrap_or_default();
        layers.insert("warm.resteps".into(), resteps as f64);
        layers.insert(
            "warm.reactivated_frac_mean".into(),
            ratio(reactivated as f64, BLOCK as f64 * n),
        );
        layers.insert("warm.reactivated_frac_max".into(), react_max);
        layers.insert(
            "warm.speedup_vs_cold".into(),
            ratio(median(&cold_ms), passes.solution_p50_ms()),
        );
        crate::write_trace(&tr, "churn_updates");
    }
    passes.finish(attempted, failed, layers)
}
