//! Self-validation of a `--metrics` export (`bench-diff --metrics-check
//! PATH`).
//!
//! The snapshot writer in `simlocal::obs` is hand-rolled, so CI reads
//! its output back the way a consumer would:
//!
//! - every line is one JSON snapshot — no blank lines — with a string
//!   `tag` and the `counters` and `hists` sections, each mapping a
//!   metric name to its slots by shard label (`""` for global metrics);
//! - no metric appears twice in a line, and no shard label twice in a
//!   metric;
//! - a counter is a non-negative number, and a histogram holds `count`,
//!   `sum` and per-bucket `buckets` that add up to its `count`;
//! - counters are monotone non-decreasing across successive lines, and
//!   none appears mid-stream — the lines come from one cumulative
//!   registry, so a decrease or a new series means the writer or the
//!   recording is broken.

use crate::results::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Counter values of one snapshot line, by `(metric, shard label)`.
type Counters = BTreeMap<(String, String), f64>;

/// Reads one snapshot line, pushing what is wrong with it onto
/// `failures` (each message prefixed with `at`). Returns the line's
/// counters, or `None` when the line is blank or not JSON at all.
fn read_snapshot(line: &str, at: &str, failures: &mut Vec<String>) -> Option<Counters> {
    if line.trim().is_empty() {
        failures.push(format!("{at}: blank line in JSONL stream"));
        return None;
    }
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            failures.push(format!("{at}: {e}"));
            return None;
        }
    };
    if let Err(e) = v.get("tag").and_then(Json::as_str) {
        failures.push(format!("{at}: tag: {e}"));
    }
    let mut counters = Counters::new();
    let mut metrics = BTreeSet::new();
    for section in ["counters", "hists"] {
        let series = match v.get(section) {
            Ok(Json::Obj(series)) => series,
            Ok(_) => {
                failures.push(format!("{at}: `{section}` is not an object"));
                continue;
            }
            Err(e) => {
                failures.push(format!("{at}: {e}"));
                continue;
            }
        };
        for (metric, slots) in series {
            if !metrics.insert(metric.as_str()) {
                failures.push(format!("{at}: metric `{metric}` appears more than once"));
            }
            let Json::Obj(slots) = slots else {
                failures.push(format!("{at}: `{metric}` is not a shard map"));
                continue;
            };
            let mut shards = BTreeSet::new();
            for (shard, value) in slots {
                if !shards.insert(shard.as_str()) {
                    failures.push(format!("{at}: `{metric}` repeats shard `{shard}`"));
                }
                let problem = if section == "counters" {
                    match value.as_f64() {
                        Ok(x) if x.is_finite() && x >= 0.0 => {
                            counters.insert((metric.clone(), shard.clone()), x);
                            None
                        }
                        _ => Some("is not a non-negative number".to_string()),
                    }
                } else {
                    histogram_problem(value)
                };
                if let Some(p) = problem {
                    failures.push(format!("{at}: `{metric}`[{shard}] {p}"));
                }
            }
        }
    }
    Some(counters)
}

/// What is wrong with one histogram slot, if anything: it must hold a
/// `count`, a `sum` and `buckets`, and its buckets must add up to its
/// count.
fn histogram_problem(h: &Json) -> Option<String> {
    let read = || -> Result<(f64, f64), String> {
        h.get("sum")?.as_f64()?;
        let mut total = 0.0;
        for b in h.get("buckets")?.as_array()? {
            total += b.as_f64()?;
        }
        Ok((h.get("count")?.as_f64()?, total))
    };
    match read() {
        Err(e) => Some(e),
        Ok((count, total)) if total != count => {
            Some(format!("buckets sum to {total}, not its count {count}"))
        }
        Ok(_) => None,
    }
}

/// The whole `--metrics-check` gate over a `--metrics` JSONL stream.
/// Returns the number of snapshot lines and human-readable failures;
/// no failures means the export is valid.
pub fn check_metrics(jsonl: &str) -> (usize, Vec<String>) {
    let mut failures = Vec::new();
    let mut prev: Option<Counters> = None;
    let mut lines = 0;
    for (i, line) in jsonl.lines().enumerate() {
        lines += 1;
        let at = format!("snapshot {}", i + 1);
        let Some(cur) = read_snapshot(line, &at, &mut failures) else {
            continue;
        };
        if let Some(prev) = &prev {
            for ((metric, shard), value) in &cur {
                match prev.get(&(metric.clone(), shard.clone())) {
                    Some(before) if value < before => failures.push(format!(
                        "{at}: counter `{metric}`[{shard}] decreased ({before} -> {value}) \
                         — counters are cumulative"
                    )),
                    Some(_) => {}
                    None => failures.push(format!(
                        "{at}: counter `{metric}`[{shard}] appeared mid-stream"
                    )),
                }
            }
        }
        prev = Some(cur);
    }
    if lines == 0 {
        failures.push("JSONL stream is empty".into());
    }
    (lines, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simlocal::obs::{Metric, Registry};

    /// A two-line export of a registry with activity in both sections.
    fn real_export() -> String {
        let reg = Registry::new(2);
        reg.add(Metric::EngineRounds, 0, 9);
        reg.add(Metric::HarnessTrials, 0, 3);
        reg.add(Metric::ActorBarrierWaitNs, 1, 1234);
        reg.observe(Metric::ActorBarrierWaitHistNs, 1, 1234);
        reg.observe(Metric::ActorBarrierWaitHistNs, 0, 7);
        let mut jsonl = reg.jsonl_snapshot("t1");
        reg.add(Metric::EngineRounds, 0, 1);
        reg.observe(Metric::EngineRoundWallNs, 0, 0);
        jsonl.push_str(&reg.jsonl_snapshot("final"));
        jsonl
    }

    /// Fails unless checking `jsonl` reports a failure containing `what`.
    fn assert_caught(jsonl: &str, what: &str) {
        let (_, failures) = check_metrics(jsonl);
        assert!(
            failures.iter().any(|f| f.contains(what)),
            "expected a failure naming `{what}`, got {failures:?}"
        );
    }

    #[test]
    fn real_export_passes_all_checks() {
        let (snapshots, failures) = check_metrics(&real_export());
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(snapshots, 2);
    }

    #[test]
    fn counter_decrease_across_snapshots_is_caught() {
        let reg = Registry::new(1);
        reg.add(Metric::EngineRounds, 0, 5);
        let a = reg.jsonl_snapshot("a");
        let fresh = Registry::new(1);
        fresh.add(Metric::EngineRounds, 0, 3);
        let b = fresh.jsonl_snapshot("b");
        assert_caught(&format!("{a}{b}"), "decreased");
    }

    #[test]
    fn counter_appearing_mid_stream_is_caught() {
        let a = r#"{"tag":"a","counters":{"x_total":{"":1}},"hists":{}}"#;
        let b = r#"{"tag":"b","counters":{"x_total":{"":1},"y_total":{"":0}},"hists":{}}"#;
        assert_caught(&format!("{a}\n{b}\n"), "`y_total`[] appeared mid-stream");
    }

    #[test]
    fn histogram_buckets_must_sum_to_count() {
        let line =
            r#"{"tag":"a","counters":{},"hists":{"h":{"":{"count":3,"sum":9,"buckets":[1,1]}}}}"#;
        assert_caught(line, "buckets sum to 2, not its count 3");
        let real = real_export();
        let broken = real.replacen("\"count\":1,", "\"count\":2,", 1);
        assert_ne!(broken, real);
        assert_caught(&broken, "not its count 2");
    }

    #[test]
    fn duplicate_metric_or_shard_key_is_caught() {
        let line = r#"{"tag":"a","counters":{"x_total":{"":1},"x_total":{"":1}},"hists":{}}"#;
        assert_caught(line, "metric `x_total` appears more than once");
        let line = r#"{"tag":"a","counters":{"x_total":{"0":1,"0":2}},"hists":{}}"#;
        assert_caught(line, "`x_total` repeats shard `0`");
        let line = r#"{"tag":"a","counters":{"h":{"":1}},"hists":{"h":{"":{"count":0,"sum":0,"buckets":[]}}}}"#;
        assert_caught(line, "metric `h` appears more than once");
    }

    #[test]
    fn blank_or_unparsable_line_is_caught() {
        let real = real_export();
        let (first, rest) = real.split_once('\n').unwrap();
        assert_caught(&format!("{first}\n\n{rest}"), "snapshot 2: blank line");
        assert_caught(&format!("{first}\nnot json\n{rest}"), "snapshot 2:");
        assert_caught(
            &format!("{}\n{rest}", &first[..first.len() / 2]),
            "snapshot 1:",
        );
        assert_caught("", "JSONL stream is empty");
        assert_caught(
            r#"{"tag":"a","counters":{"x_total":{"":-1}},"hists":{}}"#,
            "is not a non-negative number",
        );
        assert_caught(r#"{"counters":{},"hists":{}}"#, "tag: missing field `tag`");
    }
}
