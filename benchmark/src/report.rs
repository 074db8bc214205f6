//! The metric catalogue and the result line every run ends with.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and bounds; the drift test in `tests/drift.rs` keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, work).
    Lower,
    /// Larger values are better (throughputs, hit counts).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, as printed next to every value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the relative worsening that counts as a
    /// regression. Per-layer metrics carry no bound.
    pub bound: Option<f64>,
    /// A count that must repeat exactly between runs of the same code
    /// and seed (checked by `--compare`).
    pub exact: bool,
}

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        exact: false,
    }
}

fn bounded(name: &str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        bound: Some(bound),
        ..def(name, unit, Better::Lower)
    }
}

fn exact(name: &str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..def(name, "count", better)
    }
}

/// The five algorithms the `ingest_solve` and `actor_solve` passes run.
/// `rand_delta_plus_one` and `delta_plus_one` are left out: each calls
/// the O(n) `Graph::max_degree()` inside `step`, which makes a 2^20-vertex
/// run quadratic.
pub const SOLVE_ALGOS: [&str; 5] = [
    "mis_luby",
    "a2logn",
    "forest_parallelized",
    "ka2_rho",
    "rand_a_loglog",
];

/// Metrics of an untraced run, in report order. A *solution* is what a
/// caller waits for (see `README.md`): the regenerated table, a graph's
/// five verified solutions, or the MIS updated after one edit batch.
///
/// Each bound sits above the largest quartile spread measured for the
/// metric over ten runs (see `README.md`). Times share a 2-vCPU host whose
/// speed drifts by 10–40% for tens of seconds, so they get 25%. Memory
/// does not drift with the host, but the actor backend's peak depends on
/// how far one shard runs ahead of the other (up to 11% spread), so it
/// gets 15%.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        bounded("setup_s", "s", 0.25),
        bounded("time_to_solution_p50_ms", "ms", 0.25),
        bounded("time_to_solution_p99_ms", "ms", 0.25),
        bounded("peak_rss_mib", "MiB", 0.15),
    ]
}

/// Metrics of a traced run, in report order. Layer shares are the
/// layer's time divided by the traced passes' wall time; a workload that
/// bypasses a layer reports 0 for it.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = vec![
        def("pipeline.plan_frac", "frac", Lower),
        exact("pipeline.cache_hits", Higher),
        exact("pipeline.cache_misses", Lower),
        def("pipeline.worker_busy_frac", "frac", Higher),
        def("gen.graph_frac", "frac", Lower),
        def("harness.check_frac", "frac", Lower),
        def("registry.construct_frac", "frac", Lower),
        def("registry.engine_frac", "frac", Lower),
        def("registry.verify_frac", "frac", Lower),
        def("engine.step_frac", "frac", Lower),
        def("engine.publish_frac", "frac", Lower),
        def("engine.retire_frac", "frac", Lower),
        def("engine.fast_round_frac", "frac", Higher),
        exact("engine.vertex_rounds", Lower),
        exact("engine.msg_bits", Lower),
    ];
    out.extend(
        SOLVE_ALGOS
            .iter()
            .map(|a| def(&format!("engine.vr_per_s.{a}"), "vr/s", Higher)),
    );
    out.extend([
        def("actor.compute_frac", "frac", Lower),
        def("actor.barrier_wait_frac", "frac", Lower),
    ]);
    out.extend(
        SOLVE_ALGOS
            .iter()
            .map(|a| def(&format!("actor.vr_per_s.{a}"), "vr/s", Higher)),
    );
    out.extend([
        exact("transport.entries", Lower),
        exact("transport.batches", Lower),
        def("io.read_frac", "frac", Lower),
        def("io.parse_frac", "frac", Lower),
        def("io.normalize_frac", "frac", Lower),
        def("io.edges_per_s", "edges/s", Higher),
        def("churn.apply_frac", "frac", Lower),
        def("warm.run_frac", "frac", Lower),
        def("verify.mis_frac", "frac", Lower),
        exact("warm.resteps", Lower),
        MetricDef {
            exact: true,
            ..def("warm.reactivated_frac_mean", "frac", Lower)
        },
        MetricDef {
            exact: true,
            ..def("warm.reactivated_frac_max", "frac", Lower)
        },
        def("warm.speedup_vs_cold", "ratio", Higher),
        def("trace.overhead_frac", "frac", Lower),
    ]);
    out
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// The catalogue this outcome must cover: end-to-end metrics for an
    /// untraced run, per-layer metrics for a traced one.
    pub fn catalogue(traced: bool) -> Vec<MetricDef> {
        if traced {
            per_layer()
        } else {
            end_to_end()
        }
    }

    /// One `name value unit` line per metric of `defs`, then the JSON
    /// result object on the last line. Panics if a metric is missing or
    /// not finite — the workload failed to measure it.
    pub fn render(&self, defs: &[MetricDef]) -> String {
        let mut out = String::new();
        let mut json = Vec::with_capacity(defs.len());
        for d in defs {
            let v = *self
                .metrics
                .get(&d.name)
                .unwrap_or_else(|| panic!("metric `{}` was not measured", d.name));
            assert!(v.is_finite(), "metric `{}` is not finite: {v}", d.name);
            let _ = writeln!(out, "{:<34} {v} {}", d.name, d.unit);
            json.push(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&d.name),
                json_str(d.unit)
            ));
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            json.join(", ")
        );
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_use_the_allowed_charset() {
        let defs: Vec<MetricDef> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::HashSet::new();
        for d in &defs {
            assert!(valid_name(&d.name), "bad metric name `{}`", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate metric `{}`", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit `{}`",
                d.unit
            );
        }
        assert!(!valid_name("engine.vr per s"));
        assert!(!valid_name(".leading-dot"));
        assert!(end_to_end().iter().all(|d| d.bound.is_some()));
        assert!(per_layer().iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn render_ends_with_the_result_object() {
        let defs = vec![def("a.b", "s", Better::Lower)];
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: [("a.b".to_string(), 1.25)].into(),
        };
        let text = out.render(&defs);
        assert_eq!(
            text.lines().last().unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a.b\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
