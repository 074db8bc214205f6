//! `ingest_solve` and `actor_solve`: one 2^20-vertex graph, five
//! verified solutions.
//!
//! `ingest_solve` is the library user's file → verified-solution path: a
//! pass (one timed solution) ingests a `forest_union(a = 2)` edge list
//! written during set-up, then runs every algorithm of [`SOLVE_ALGOS`]
//! through `AlgoSpec::exec` on the sequential sync engine. `actor_solve` runs the same mix on the
//! same graph, generated in memory (no ingest), on the 2-shard actor
//! backend. A sync-engine change should move only the first, an actor or
//! transport change only the second.

use crate::report::{Outcome, SOLVE_ALGOS};
use crate::spans::Tracer;
use crate::stats::ratio;
use crate::{set_up, ObsSums, Passes, RunCfg, Sizes};
use benchharness::registry::{self, Backend, ExecOptions};
use benchharness::{forest_workload, Trial};
use graphcore::gen::GenGraph;
use graphcore::io::{self, FileFormat, IngestReport, NormalizeOptions};
use graphcore::Graph;
use simlocal::obs::{Metric, Registry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Arboricity of the generated forest union.
const ARBORICITY: usize = 2;

/// Actor shards: no workload runs more than two threads.
const SHARDS: usize = 2;

/// Where the graph comes from on each pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Ingested from an edge-list file on the sync engine.
    File,
    /// Generated in memory once, solved on the actor backend.
    Memory,
}

struct Input {
    /// The graph (`Memory` only; `File` re-reads it every pass).
    gg: Option<GenGraph>,
    path: PathBuf,
    n: usize,
    m: usize,
}

fn set_up_input(source: Source, n: usize, seed: u64) -> Input {
    let gg = forest_workload(n, ARBORICITY, seed);
    let path = Path::new("target/benchmark/input").join(format!("forest_union_n{n}.txt"));
    let (n, m) = (gg.graph.n(), gg.graph.m());
    let gg = match source {
        Source::Memory => Some(gg),
        Source::File => {
            let dir = path.parent().expect("input path has a directory");
            std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, io::to_edge_list(&gg.graph)))
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            None
        }
    };
    Input { gg, path, n, m }
}

/// `ingest_path`, split into its read, parse and normalize calls so a
/// traced pass can time each. Every pass ingests through here; untraced
/// passes pay only the no-op span calls.
fn ingest(path: &Path, tr: &mut Tracer) -> Result<(Graph, IngestReport), String> {
    let s = tr.open("io.read");
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()));
    tr.close(s);
    let text = text?;
    let s = tr.open("io.parse");
    let raw = io::parse_raw(&text, FileFormat::sniff(path, &text));
    tr.close(s);
    let raw = raw?;
    let s = tr.open("io.normalize");
    let out = io::normalize(&raw, NormalizeOptions::default());
    tr.close(s);
    Ok(out)
}

/// Runs the workload.
pub fn run(cfg: &RunCfg, sizes: &Sizes, source: Source) -> Outcome {
    let (input, setup_s) = set_up(|| set_up_input(source, sizes.solve_n, cfg.seed));
    let (backend, shards) = match source {
        Source::File => (Backend::Sync, 1),
        Source::Memory => (Backend::Actor { shards: SHARDS }, SHARDS),
    };
    let trial = Trial::identity(cfg.seed);
    let mut passes = Passes::new(cfg, setup_s);
    let mut tr = Tracer::new();
    let mut sums = ObsSums::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per algorithm: vertex-rounds and engine seconds over traced passes.
    let mut engine_work: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let mut edges_raw = 0.0;
    while let Some((i, traced)) = passes.next() {
        tr.start_pass(i, traced);
        let reg = traced.then(|| Registry::new(shards));
        let t0 = Instant::now();
        let span = tr.open("solve.pass");
        let ingested;
        let gg = match &input.gg {
            Some(gg) => gg,
            None => {
                let (graph, report) = ingest(&input.path, &mut tr)
                    .unwrap_or_else(|e| panic!("ingest {}: {e}", input.path.display()));
                attempted += 1;
                if (graph.n(), graph.m()) != (input.n, input.m) {
                    failed += 1;
                    eprintln!(
                        "ingest_solve pass {i}: ingested n={} m={}, wrote n={} m={}",
                        graph.n(),
                        graph.m(),
                        input.n,
                        input.m
                    );
                }
                if traced {
                    edges_raw += report.m_raw as f64;
                }
                // The generator's arboricity, so both workloads solve the
                // same instance.
                ingested = GenGraph {
                    graph,
                    arboricity: ARBORICITY,
                    family: "ingested",
                };
                &ingested
            }
        };
        for algo in SOLVE_ALGOS {
            let mut opts = ExecOptions::new("bench", gg, &trial).backend(backend);
            if let Some(r) = &reg {
                opts = opts.metrics(r);
            }
            let steps = |r: &Registry| r.total(Metric::EngineSteps) + r.total(Metric::ActorSteps);
            let before = reg
                .as_ref()
                .map(|r| (steps(r), r.total(Metric::HarnessRunNs)));
            let s = tr.open(&format!("registry.exec.{algo}"));
            let row = registry::get(algo).exec(&opts).into_row();
            tr.close(s);
            attempted += 1;
            if !row.valid {
                failed += 1;
                eprintln!("{algo}: invalid output on pass {i}");
            }
            if let (Some(r), Some((steps0, ns0))) = (&reg, before) {
                let w = engine_work.entry(algo).or_default();
                w.0 += (steps(r) - steps0) as f64;
                w.1 += (r.total(Metric::HarnessRunNs) - ns0) as f64 / 1e9;
            }
        }
        tr.close(span);
        let wall = t0.elapsed().as_secs_f64();
        passes.pass_done(traced, wall);
        passes.solution_done(traced, wall);
        if let Some(r) = &reg {
            sums.add(r);
        }
    }

    let mut layers = BTreeMap::new();
    if cfg.trace {
        let wall = passes.traced_wall_s();
        sums.layers(wall, &mut layers);
        let engine = match source {
            Source::File => "engine",
            Source::Memory => "actor",
        };
        for (algo, (vr, secs)) in &engine_work {
            layers.insert(format!("{engine}.vr_per_s.{algo}"), ratio(*vr, *secs));
        }
        if source == Source::File {
            let own = tr.self_ns_by_name();
            let secs = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e9;
            let io_s = secs("io.read") + secs("io.parse") + secs("io.normalize");
            for layer in ["read", "parse", "normalize"] {
                let s = secs(&format!("io.{layer}"));
                layers.insert(format!("io.{layer}_frac"), ratio(s, wall));
            }
            layers.insert("io.edges_per_s".into(), ratio(edges_raw, io_s));
        }
        crate::write_trace(
            &tr,
            match source {
                Source::File => "ingest_solve",
                Source::Memory => "actor_solve",
            },
        );
    }
    if source == Source::File {
        // The input is large and rewritten by every run; do not keep it.
        let _ = std::fs::remove_file(&input.path);
    }
    passes.finish(attempted, failed, layers)
}
