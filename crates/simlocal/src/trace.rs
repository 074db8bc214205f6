//! The round log an observed run records, and what is derived from it.
//!
//! * [`TraceLog`] — the [`Observer`] that keeps every [`RoundRecord`]:
//!   `O(rounds × phases)` memory, whatever the graph size. It exports
//!   the run as a JSONL log with one line per round
//!   ([`TraceLog::write_jsonl`]) or a Chrome-trace / Perfetto JSON file
//!   ([`TraceLog::write_chrome_trace`]) openable in `chrome://tracing`;
//! * [`PhaseBreakdown`] — per-phase `RoundSum` and termination counts of
//!   a recorded run, so the subroutine-level round accounting behind the
//!   paper's Theorems 6.3–9.2 is observable, not just asserted.
//!
//! [`Histogram`] is the log₂ bucketing shared with [`crate::obs`]; the
//! `trace` binary also builds its termination-round and round-wall
//! histograms from a [`TraceLog`]'s records.
//!
//! None of this costs anything on unobserved runs: the engine only
//! tallies phases and calls the hook when the observer's `ENABLED` flag
//! is true.

use crate::observer::{Observer, PhaseTally, RoundRecord};
use std::io::{self, Write};

/// Records every round of an observed run and exports the log as JSONL
/// or Chrome-trace JSON. Each record splits its round by phase, so the
/// exporters can break the run down per subroutine of a composed
/// protocol.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Phase names used to label the per-phase counts (from
    /// [`crate::Protocol::phase_names`]); phases beyond the list are
    /// labeled `phase<N>`.
    phase_names: Vec<String>,
    /// The recorded rounds, in round order, each with `phases` left
    /// empty: their tallies sit in `tallies`, the same number per round,
    /// so recording a round allocates only by amortized growth.
    rounds: Vec<RoundRecord<'static>>,
    tallies: Vec<PhaseTally>,
}

impl TraceLog {
    /// Empty log with no phase names (phases are labeled `phase<N>`).
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Empty log labeling phases with the protocol's
    /// [`phase_names`](crate::Protocol::phase_names).
    pub fn with_phases(names: &[&str]) -> TraceLog {
        TraceLog {
            phase_names: names.iter().map(|s| s.to_string()).collect(),
            rounds: Vec::new(),
            tallies: Vec::new(),
        }
    }

    /// The recorded rounds, in round order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = RoundRecord<'_>> + '_ {
        let width = self.phases_per_round();
        self.rounds
            .iter()
            .enumerate()
            .map(move |(i, r)| RoundRecord {
                phases: &self.tallies[i * width..(i + 1) * width],
                ..*r
            })
    }

    fn phases_per_round(&self) -> usize {
        self.tallies.len() / self.rounds.len().max(1)
    }

    fn phase_label(&self, p: usize) -> String {
        self.phase_names
            .get(p)
            .cloned()
            .unwrap_or_else(|| format!("phase{p}"))
    }

    /// Steps recorded over all rounds (== the run's `RoundSum`).
    pub fn steps(&self) -> u64 {
        self.rounds.iter().map(|r| r.active as u64).sum()
    }

    /// Terminations recorded over all rounds (== `n` on a completed run).
    pub fn terminations(&self) -> u64 {
        self.tallies.iter().map(|t| t.terminations).sum()
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> u32 {
        self.rounds.len() as u32
    }

    /// Writes the log as JSON Lines, one object per round:
    /// `{"ev":"round","round":R,"active":A,"terminated":T,"msg_bits":B,
    /// "max_msg_bits":M,"phases":{NAME:{"steps":S,"terminations":E},…},
    /// "wall_us":W}`, with the phases in [`PhaseId`](crate::PhaseId)
    /// order. Everything but `wall_us` is the same on every engine.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for r in self.records() {
            let phases: Vec<String> = r
                .phases
                .iter()
                .enumerate()
                .map(|(p, t)| {
                    format!(
                        "\"{}\":{{\"steps\":{},\"terminations\":{}}}",
                        self.phase_label(p),
                        t.steps,
                        t.terminations
                    )
                })
                .collect();
            writeln!(
                w,
                "{{\"ev\":\"round\",\"round\":{},\"active\":{},\"terminated\":{},\
                 \"msg_bits\":{},\"max_msg_bits\":{},\"phases\":{{{}}},\"wall_us\":{}}}",
                r.round,
                r.active,
                r.terminations(),
                r.msg_bits,
                r.max_msg_bits,
                phases.join(","),
                r.wall.as_micros()
            )?;
        }
        Ok(())
    }

    /// Writes the run in the Chrome trace event format (the JSON object
    /// form, `{"traceEvents": [...]}`), openable in `chrome://tracing` or
    /// the Perfetto UI.
    ///
    /// Each round becomes a `"ph":"X"` complete slice whose duration is
    /// the round's wall time; slice start timestamps are the cumulative
    /// sum of preceding round walls, so timestamps are monotone non-
    /// decreasing. `"ph":"C"` counter events track the active-set decay
    /// (Lemma 6.1's `n_i`) and the per-phase step counts per round.
    pub fn write_chrome_trace<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{{\"traceEvents\":[")?;
        let mut ts_us: u64 = 0;
        // A phase joins the "phase steps" counter from the first round
        // in which it steps, and stays in it.
        let mut counted_phases = 0;
        let mut first = true;
        let emit = |w: &mut W, first: &mut bool, line: String| -> io::Result<()> {
            if *first {
                *first = false;
            } else {
                writeln!(w, ",")?;
            }
            write!(w, "{line}")
        };
        for r in self.records() {
            let (round, active) = (r.round, r.active);
            let wall_us = r.wall.as_micros() as u64;
            emit(
                &mut w,
                &mut first,
                format!(
                    "{{\"name\":\"round {round}\",\"ph\":\"X\",\"ts\":{ts_us},\
                     \"dur\":{wall_us},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"active\":{active}}}}}"
                ),
            )?;
            emit(
                &mut w,
                &mut first,
                format!(
                    "{{\"name\":\"active vertices\",\"ph\":\"C\",\"ts\":{ts_us},\
                     \"pid\":1,\"args\":{{\"active\":{active}}}}}"
                ),
            )?;
            let stepped = r.phases.iter().rposition(|t| t.steps > 0);
            counted_phases = counted_phases.max(stepped.map_or(0, |p| p + 1));
            let args: Vec<String> = r.phases[..counted_phases]
                .iter()
                .enumerate()
                .map(|(p, t)| format!("\"{}\":{}", self.phase_label(p), t.steps))
                .collect();
            if !args.is_empty() {
                emit(
                    &mut w,
                    &mut first,
                    format!(
                        "{{\"name\":\"phase steps\",\"ph\":\"C\",\"ts\":{ts_us},\
                         \"pid\":1,\"args\":{{{}}}}}",
                        args.join(",")
                    ),
                )?;
            }
            ts_us += wall_us;
        }
        writeln!(w, "\n],\"displayTimeUnit\":\"ms\"}}")?;
        Ok(())
    }
}

impl Observer for TraceLog {
    fn on_round_end(&mut self, record: &RoundRecord<'_>) {
        assert_eq!(
            self.tallies.len(),
            self.rounds.len() * record.phases.len(),
            "every round of a log has the same phases"
        );
        self.tallies.extend_from_slice(record.phases);
        self.rounds.push(RoundRecord {
            round: record.round,
            active: record.active,
            msg_bits: record.msg_bits,
            max_msg_bits: record.max_msg_bits,
            wall: record.wall,
            phases: &[],
        });
    }
}

/// Per-phase `RoundSum` and termination accounting for composed protocols.
///
/// `steps[p]` counts the rounds consumed by phase `p` summed over all
/// vertices — the phase's contribution to `RoundSum(V)`. The phase sums
/// always total the run's `RoundSum` (every step belongs to exactly one
/// phase), which is the identity the trace binary asserts.
#[derive(Clone, Debug)]
pub struct PhaseBreakdown {
    names: Vec<String>,
    steps: Vec<u64>,
    terminations: Vec<u64>,
}

impl PhaseBreakdown {
    /// The breakdown of a recorded run: each phase's steps and
    /// terminations summed over the log's rounds, one row per phase name
    /// (at least one).
    pub fn from_log(log: &TraceLog) -> PhaseBreakdown {
        let phases = log.phase_names.len().max(log.phases_per_round()).max(1);
        let (mut steps, mut terminations) = (vec![0; phases], vec![0; phases]);
        for r in log.records() {
            for (p, t) in r.phases.iter().enumerate() {
                steps[p] += t.steps;
                terminations[p] += t.terminations;
            }
        }
        PhaseBreakdown {
            names: (0..phases).map(|p| log.phase_label(p)).collect(),
            steps,
            terminations,
        }
    }

    /// Name of phase `p` (`phase<N>` if unnamed).
    pub fn name(&self, p: usize) -> String {
        self.names
            .get(p)
            .cloned()
            .unwrap_or_else(|| format!("phase{p}"))
    }
    /// Number of phases tracked.
    pub fn phases(&self) -> usize {
        self.steps.len()
    }

    /// Phase `p`'s contribution to `RoundSum(V)`.
    pub fn round_sum(&self, p: usize) -> u64 {
        self.steps.get(p).copied().unwrap_or(0)
    }

    /// Vertices whose terminating round belonged to phase `p`.
    pub fn terminations(&self, p: usize) -> u64 {
        self.terminations.get(p).copied().unwrap_or(0)
    }

    /// Sum of all per-phase round sums — equals the run's `RoundSum`.
    pub fn total_round_sum(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Phase `p`'s contribution to the vertex-averaged complexity
    /// (`round_sum(p) / n`); the per-phase VAs sum to the run's VA.
    pub fn vertex_averaged(&self, p: usize, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.round_sum(p) as f64 / n as f64
        }
    }

    /// `(name, round_sum, terminations)` per phase, in `PhaseId` order.
    pub fn rows(&self) -> Vec<(String, u64, u64)> {
        (0..self.phases())
            .map(|p| (self.name(p), self.round_sum(p), self.terminations(p)))
            .collect()
    }
}

/// A log₂-bucketed histogram of `u64` samples: bucket 0 holds zeros and
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        };
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Rebuilds a histogram from raw parts (bucket counts, sample
    /// count, sample sum) — the bridge from the atomic slot snapshots
    /// in [`crate::obs`], which share this bucketing.
    pub fn from_parts(buckets: Vec<u64>, count: u64, sum: u128) -> Histogram {
        Histogram {
            buckets,
            count,
            sum,
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts; index by bit length of the sample.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Inclusive `[lo, hi]` value range covered by bucket `i`.
    pub fn bucket_range(&self, i: usize) -> (u64, u64) {
        if i == 0 {
            (0, 0)
        } else {
            (1u64 << (i - 1), (1u64 << i) - 1)
        }
    }

    /// Multi-line ASCII rendering: one `[lo, hi] count bar` row per
    /// non-empty prefix bucket.
    pub fn render(&self, label: &str) -> String {
        let mut out = format!("{label} (count {}, mean {:.1}):\n", self.count, self.mean());
        let max = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.buckets.iter().enumerate() {
            let (lo, hi) = self.bucket_range(i);
            let bar = "#".repeat(((c * 40) / max) as usize);
            out.push_str(&format!("  [{lo:>8}, {hi:>8}] {c:>8} {bar}\n"));
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use super::TraceLog;
    use crate::observer::RoundRecord;
    use std::time::Duration;

    /// A log's records with the machine-dependent wall time zeroed:
    /// everything that must agree across engines and modes.
    pub(crate) fn counts(log: &TraceLog) -> Vec<RoundRecord<'_>> {
        let counted = |r| RoundRecord {
            wall: Duration::ZERO,
            ..r
        };
        log.records().map(counted).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::PhaseTally;
    use std::time::Duration;

    /// Hands `log` a round with the given `(steps, terminations)` per
    /// phase.
    fn end_round(log: &mut TraceLog, round: u32, wall_us: u64, phases: &[(u64, u64)]) {
        let tallies: Vec<PhaseTally> = phases
            .iter()
            .map(|&(steps, terminations)| PhaseTally {
                steps,
                terminations,
            })
            .collect();
        let active = phases.iter().map(|p| p.0).sum::<u64>() as usize;
        log.on_round_end(&RoundRecord {
            round,
            active,
            msg_bits: active as u64 * 64,
            max_msg_bits: if active == 0 { 0 } else { 64 },
            wall: Duration::from_micros(wall_us),
            phases: &tallies,
        });
    }

    #[test]
    fn trace_log_records_and_counts() {
        let mut t = TraceLog::with_phases(&["partition", "inset"]);
        end_round(&mut t, 1, 10, &[(1, 0), (1, 1)]);
        end_round(&mut t, 2, 4, &[(0, 0), (1, 1)]);
        assert_eq!(t.steps(), 3);
        assert_eq!(t.terminations(), 2);
        assert_eq!(t.rounds(), 2);
        let records: Vec<RoundRecord> = t.records().collect();
        assert_eq!((records[0].round, records[0].active), (1, 2));
        assert_eq!(records[0].wall, Duration::from_micros(10));
        let tally = |steps, terminations| PhaseTally {
            steps,
            terminations,
        };
        assert_eq!(records[0].phases, [tally(1, 0), tally(1, 1)]);
        assert_eq!(records[1].phases, [tally(0, 0), tally(1, 1)]);
        assert_eq!(records[1].terminations(), 1);
    }

    #[test]
    fn jsonl_export_shape() {
        let mut t = TraceLog::with_phases(&["a", "b"]);
        end_round(&mut t, 1, 3, &[(2, 0), (1, 1)]);
        end_round(&mut t, 2, 5, &[(0, 0), (2, 2)]);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2, "one line per round");
        assert_eq!(
            lines[0],
            "{\"ev\":\"round\",\"round\":1,\"active\":3,\"terminated\":1,\
             \"msg_bits\":192,\"max_msg_bits\":64,\
             \"phases\":{\"a\":{\"steps\":2,\"terminations\":0},\
             \"b\":{\"steps\":1,\"terminations\":1}},\"wall_us\":3}"
        );
        assert!(lines[1].contains("\"terminated\":2"));
        assert!(lines[1].ends_with(",\"wall_us\":5}"));
    }

    #[test]
    fn chrome_trace_monotone_timestamps() {
        let mut t = TraceLog::with_phases(&["main", "late"]);
        for r in 1..=3u32 {
            let late = u64::from(r == 2);
            end_round(&mut t, r, 7, &[(4, u64::from(r == 3) * 4), (late, 0)]);
        }
        let mut buf = Vec::new();
        t.write_chrome_trace(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("{\"traceEvents\":["));
        // Slice starts at cumulative walls: 0, 7, 14.
        assert!(s.contains("\"name\":\"round 1\",\"ph\":\"X\",\"ts\":0,\"dur\":7"));
        assert!(s.contains("\"name\":\"round 2\",\"ph\":\"X\",\"ts\":7,\"dur\":7"));
        assert!(s.contains("\"name\":\"round 3\",\"ph\":\"X\",\"ts\":14,\"dur\":7"));
        // A phase joins the step counter once it first steps.
        assert!(s.contains("\"ts\":0,\"pid\":1,\"args\":{\"main\":4}}"));
        assert!(s.contains("\"ts\":7,\"pid\":1,\"args\":{\"main\":4,\"late\":1}}"));
        assert!(s.contains("\"ts\":14,\"pid\":1,\"args\":{\"main\":4,\"late\":0}}"));
    }

    #[test]
    fn phase_breakdown_sums_to_round_sum() {
        // Vertex 0: two rounds in phase a, then terminates in phase b.
        // Vertex 1: terminates immediately in phase a.
        let mut t = TraceLog::with_phases(&["a", "b"]);
        end_round(&mut t, 1, 1, &[(2, 1), (0, 0)]);
        end_round(&mut t, 2, 1, &[(1, 0), (0, 0)]);
        end_round(&mut t, 3, 1, &[(0, 0), (1, 1)]);
        let b = PhaseBreakdown::from_log(&t);
        assert_eq!(b.round_sum(0), 3);
        assert_eq!(b.round_sum(1), 1);
        assert_eq!(b.total_round_sum(), 4);
        assert_eq!(b.terminations(0), 1);
        assert_eq!(b.terminations(1), 1);
        assert_eq!(b.vertex_averaged(0, 2), 1.5);
        assert_eq!(
            b.rows(),
            vec![("a".into(), 3, 1), ("b".into(), 1, 1)],
            "rows mirror the accessors"
        );
        // An empty log still has a row per named phase.
        let empty = PhaseBreakdown::from_log(&TraceLog::with_phases(&["a", "b"]));
        assert_eq!(empty.rows(), vec![("a".into(), 0, 0), ("b".into(), 0, 0)]);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.buckets()[0], 1, "zero bucket");
        assert_eq!(h.buckets()[1], 1, "value 1");
        assert_eq!(h.buckets()[2], 2, "values 2..4");
        assert_eq!(h.buckets()[3], 2, "values 4 and 7");
        assert_eq!(h.buckets()[4], 1, "value 8");
        assert_eq!(h.bucket_range(3), (4, 7));
        assert_eq!(h.bucket_range(0), (0, 0));
        assert!((h.mean() - 1025.0 / 8.0).abs() < 1e-9);
        let text = h.render("termination rounds");
        assert!(text.contains("count 8"));
    }
}
