//! `BENCHMARK.json` and the program must agree: same workloads, same
//! metrics with the same units, directions and bounds, and every run
//! emits exactly the metrics declared for its mode.

use benchharness::results::Json;
use distsym_benchmark::report::{end_to_end, per_layer, MetricDef};
use distsym_benchmark::{run, RunCfg, Sizes, Workload};

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|e| panic!("BENCHMARK.json `{key}`: {e}"))
}

fn field(entry: &Json, key: &str) -> String {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|e| panic!("BENCHMARK.json entry `{key}`: {e}"))
        .to_string()
}

/// `(name, unit, better, bound)` of each declared metric, in file order.
fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    entries(doc, key)
        .iter()
        .map(|m| {
            let bound = m
                .get("bound")
                .ok()
                .map(|b| b.as_f64().expect("numeric bound"));
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect()
}

fn catalogue(defs: Vec<MetricDef>) -> Vec<(String, String, String, Option<f64>)> {
    defs.into_iter()
        .map(|d| {
            (
                d.name,
                d.unit.to_string(),
                d.better.label().to_string(),
                d.bound,
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    // The workloads read `testdata/` and `results/` relative to the root.
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
    let doc = Json::parse(&std::fs::read_to_string("BENCHMARK.json").unwrap()).unwrap();

    let workloads: Vec<String> = entries(&doc, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
    assert_eq!(declared(&doc, "end_to_end"), catalogue(end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), catalogue(per_layer()));

    for w in Workload::ALL {
        for trace in [false, true] {
            let cfg = RunCfg {
                seed: 3,
                seconds: 0.0,
                trace,
            };
            let out = run(w, &cfg, &Sizes::tiny());
            assert!(out.attempted > 0, "{} checked nothing", w.name());
            assert_eq!(out.failed, 0, "{} failed output checks", w.name());
            let key = if trace { "per_layer" } else { "end_to_end" };
            let mut want: Vec<String> = declared(&doc, key).into_iter().map(|d| d.0).collect();
            want.sort();
            let got: Vec<String> = out.metrics.keys().cloned().collect();
            assert_eq!(got, want, "{} (trace {trace})", w.name());
            assert!(out.metrics.values().all(|v| v.is_finite()));
        }
    }
}
