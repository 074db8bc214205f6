//! Structured tracing observers built on the hook sequence of
//! [`crate::observer`].
//!
//! Two layers, freely composable via [`Tee`](crate::observer::Tee):
//!
//! * [`TraceLog`] — records the full event stream (round start/end, per-
//!   vertex steps with their [`PhaseId`], terminations) and exports it as
//!   a JSONL event log ([`TraceLog::write_jsonl`]) or a Chrome-trace /
//!   Perfetto JSON file ([`TraceLog::write_chrome_trace`]) openable in
//!   `chrome://tracing`;
//! * [`PhaseBreakdown`] — per-phase `RoundSum` and termination counts for
//!   composed protocols, so the subroutine-level round accounting behind
//!   the paper's Theorems 6.3–9.2 is observable, not just asserted.
//!
//! [`Histogram`] is the log₂ bucketing shared with [`crate::obs`]; the
//! `trace` binary also builds its termination-round and round-wall
//! histograms from a [`TraceLog`]'s events.
//!
//! None of this costs anything on unobserved runs: the engine only calls
//! these hooks when the observer's `ENABLED` flag is true.

use crate::observer::{Observer, RoundRecord, StepEvent};
use crate::protocol::PhaseId;
use graphcore::VertexId;
use std::io::{self, Write};

/// One entry of the recorded event stream, in engine order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A round began with `active` live vertices.
    RoundStart {
        /// Round number (1-based).
        round: u32,
        /// Vertices stepping this round.
        active: usize,
    },
    /// A vertex stepped, attributed to a protocol phase.
    Step {
        /// The vertex.
        v: VertexId,
        /// Round it stepped in.
        round: u32,
        /// Phase the round belonged to ([`crate::Protocol::phase_of`]).
        phase: PhaseId,
    },
    /// A vertex terminated (fires once per vertex).
    Terminate {
        /// The vertex.
        v: VertexId,
        /// Its termination round — the vertex's running time `r(v)`.
        round: u32,
    },
    /// A round completed.
    RoundEnd {
        /// Round number (1-based).
        round: u32,
        /// Vertices that stepped (each published one message).
        active: usize,
        /// Wire bits published this round.
        msg_bits: u64,
        /// Widest message published this round, in bits.
        max_msg_bits: u64,
        /// Wall-clock time of the round, in microseconds.
        wall_us: u64,
    },
}

/// Records the complete event stream of an observed run and exports it as
/// JSONL or Chrome-trace JSON. Step events carry phase attribution, so the
/// exporters can break the run down per subroutine of a composed protocol.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Phase names used to label Chrome-trace counters (from
    /// [`crate::Protocol::phase_names`]); phases beyond the list are
    /// labeled `phase<N>`.
    phase_names: Vec<String>,
    /// The recorded events, in engine order.
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Empty log with no phase names (counters fall back to `phase<N>`).
    pub fn new() -> TraceLog {
        TraceLog::default()
    }

    /// Empty log labeling phases with the protocol's
    /// [`phase_names`](crate::Protocol::phase_names).
    pub fn with_phases(names: &[&str]) -> TraceLog {
        TraceLog {
            phase_names: names.iter().map(|s| s.to_string()).collect(),
            events: Vec::new(),
        }
    }

    fn phase_label(&self, p: PhaseId) -> String {
        self.phase_names
            .get(p as usize)
            .cloned()
            .unwrap_or_else(|| format!("phase{p}"))
    }

    /// Number of recorded step events (== the run's `RoundSum`).
    pub fn step_events(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Step { .. }))
            .count() as u64
    }

    /// Number of recorded termination events (== `n` on a completed run).
    pub fn terminate_events(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Terminate { .. }))
            .count() as u64
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> u32 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RoundEnd { .. }))
            .count() as u32
    }

    /// Writes the event stream as JSON Lines: one event object per line,
    /// tagged with an `"ev"` discriminant, in engine order.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for e in &self.events {
            match e {
                TraceEvent::RoundStart { round, active } => writeln!(
                    w,
                    "{{\"ev\":\"round_start\",\"round\":{round},\"active\":{active}}}"
                )?,
                TraceEvent::Step { v, round, phase } => writeln!(
                    w,
                    "{{\"ev\":\"step\",\"v\":{v},\"round\":{round},\"phase\":{phase}}}"
                )?,
                TraceEvent::Terminate { v, round } => {
                    writeln!(w, "{{\"ev\":\"terminate\",\"v\":{v},\"round\":{round}}}")?
                }
                TraceEvent::RoundEnd {
                    round,
                    active,
                    msg_bits,
                    max_msg_bits,
                    wall_us,
                } => writeln!(
                    w,
                    "{{\"ev\":\"round_end\",\"round\":{round},\"active\":{active},\
                     \"msg_bits\":{msg_bits},\"max_msg_bits\":{max_msg_bits},\
                     \"wall_us\":{wall_us}}}"
                )?,
            }
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
    pub fn write_chrome_trace<W: Write>(&self, w: W) -> io::Result<()> {
        self.write_chrome_trace_with_counters(w, &[])
    }

    /// [`write_chrome_trace`](TraceLog::write_chrome_trace), plus one
    /// trailing `"ph":"C"` counter event per `(series, value)` pair at
    /// the final timestamp — the hook that merges end-of-run registry
    /// counters ([`crate::obs::Registry::chrome_counters`]) into the
    /// same timeline.
    pub fn write_chrome_trace_with_counters<W: Write>(
        &self,
        mut w: W,
        counters: &[(String, u64)],
    ) -> io::Result<()> {
        writeln!(w, "{{\"traceEvents\":[")?;
        let mut ts_us: u64 = 0;
        let mut phase_steps: Vec<u64> = Vec::new();
        let mut first = true;
        let emit = |w: &mut W, first: &mut bool, line: String| -> io::Result<()> {
            if *first {
                *first = false;
            } else {
                writeln!(w, ",")?;
            }
            write!(w, "{line}")
        };
        for e in &self.events {
            match e {
                TraceEvent::RoundStart { .. } => phase_steps.iter_mut().for_each(|c| *c = 0),
                TraceEvent::Step { phase, .. } => {
                    let p = *phase as usize;
                    if p >= phase_steps.len() {
                        phase_steps.resize(p + 1, 0);
                    }
                    phase_steps[p] += 1;
                }
                TraceEvent::Terminate { .. } => {}
                TraceEvent::RoundEnd {
                    round,
                    active,
                    wall_us,
                    ..
                } => {
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
                    let args: Vec<String> = phase_steps
                        .iter()
                        .enumerate()
                        .map(|(p, c)| format!("\"{}\":{c}", self.phase_label(p as PhaseId)))
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
            }
        }
        for (name, value) in counters {
            // Series names can carry label syntax (`{shard="K"}`), so
            // the quotes need JSON escaping.
            let escaped = name.replace('\\', "\\\\").replace('"', "\\\"");
            emit(
                &mut w,
                &mut first,
                format!(
                    "{{\"name\":\"{escaped}\",\"ph\":\"C\",\"ts\":{ts_us},\
                     \"pid\":1,\"args\":{{\"value\":{value}}}}}"
                ),
            )?;
        }
        writeln!(w, "\n],\"displayTimeUnit\":\"ms\"}}")?;
        Ok(())
    }
}

impl Observer for TraceLog {
    fn on_round_start(&mut self, round: u32, active: usize) {
        self.events.push(TraceEvent::RoundStart { round, active });
    }

    fn on_step(&mut self, e: &StepEvent) {
        self.events.push(TraceEvent::Step {
            v: e.v,
            round: e.round,
            phase: e.phase,
        });
        if e.terminated {
            self.events.push(TraceEvent::Terminate {
                v: e.v,
                round: e.round,
            });
        }
    }

    fn on_round_end(&mut self, record: &RoundRecord) {
        self.events.push(TraceEvent::RoundEnd {
            round: record.round,
            active: record.active,
            msg_bits: record.msg_bits,
            max_msg_bits: record.max_msg_bits,
            wall_us: record.wall.as_micros() as u64,
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
    /// Breakdown over the protocol's
    /// [`phase_names`](crate::Protocol::phase_names).
    pub fn new(names: &[&str]) -> PhaseBreakdown {
        PhaseBreakdown {
            names: names.iter().map(|s| s.to_string()).collect(),
            steps: vec![0; names.len().max(1)],
            terminations: vec![0; names.len().max(1)],
        }
    }

    fn grow(&mut self, p: usize) {
        if p >= self.steps.len() {
            self.steps.resize(p + 1, 0);
            self.terminations.resize(p + 1, 0);
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

impl Observer for PhaseBreakdown {
    fn on_step(&mut self, e: &StepEvent) {
        let p = e.phase as usize;
        self.grow(p);
        self.steps[p] += 1;
        self.terminations[p] += e.terminated as u64;
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
    use super::{TraceEvent, TraceLog};
    use graphcore::VertexId;

    /// Per-round `(active, msg_bits, max_msg_bits)` — every round-end
    /// field but the machine-dependent wall time — and the termination
    /// events, in order, that a trace recorded.
    pub(crate) type RoundsAndTerminations = (Vec<(usize, u64, u64)>, Vec<(VertexId, u32)>);

    pub(crate) fn rounds_and_terminations(log: &TraceLog) -> RoundsAndTerminations {
        let (mut rounds, mut terminations) = (Vec::new(), Vec::new());
        for e in &log.events {
            match *e {
                TraceEvent::RoundEnd {
                    active,
                    msg_bits,
                    max_msg_bits,
                    ..
                } => rounds.push((active, msg_bits, max_msg_bits)),
                TraceEvent::Terminate { v, round } => terminations.push((v, round)),
                _ => {}
            }
        }
        (rounds, terminations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn record(round: u32, active: usize, wall_us: u64) -> RoundRecord {
        RoundRecord {
            round,
            active,
            msg_bits: active as u64 * 64,
            max_msg_bits: if active == 0 { 0 } else { 64 },
            wall: Duration::from_micros(wall_us),
        }
    }

    fn step(v: VertexId, round: u32, phase: PhaseId, terminated: bool) -> StepEvent {
        StepEvent {
            v,
            round,
            phase,
            terminated,
        }
    }

    #[test]
    fn trace_log_records_and_counts() {
        let mut t = TraceLog::with_phases(&["partition", "inset"]);
        t.on_round_start(1, 2);
        t.on_step(&step(0, 1, 0, false));
        t.on_step(&step(1, 1, 1, true));
        t.on_round_end(&record(1, 2, 10));
        assert_eq!(t.step_events(), 2);
        assert_eq!(t.terminate_events(), 1);
        assert_eq!(t.rounds(), 1);
        assert_eq!(
            t.events[1],
            TraceEvent::Step {
                v: 0,
                round: 1,
                phase: 0
            }
        );
        // A terminating step records its termination right after it.
        assert_eq!(t.events[3], TraceEvent::Terminate { v: 1, round: 1 });
    }

    #[test]
    fn jsonl_export_shape() {
        let mut t = TraceLog::new();
        t.on_round_start(1, 1);
        t.on_step(&step(0, 1, 0, true));
        t.on_round_end(&record(1, 1, 3));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"ev\":\"round_start\",\"round\":1,\"active\":1}"
        );
        assert!(lines[1].contains("\"ev\":\"step\""));
        assert!(lines[1].contains("\"phase\":0"));
        assert!(lines[2].contains("\"ev\":\"terminate\""));
        assert!(lines[3].contains("\"wall_us\":3"));
    }

    #[test]
    fn chrome_trace_monotone_timestamps() {
        let mut t = TraceLog::with_phases(&["main"]);
        for r in 1..=3u32 {
            t.on_round_start(r, 4);
            for v in 0..4 {
                t.on_step(&step(v, r, 0, r == 3));
            }
            t.on_round_end(&record(r, 4, 7));
        }
        let mut buf = Vec::new();
        t.write_chrome_trace(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("{\"traceEvents\":["));
        // Slice starts at cumulative walls: 0, 7, 14.
        assert!(s.contains("\"name\":\"round 1\",\"ph\":\"X\",\"ts\":0,\"dur\":7"));
        assert!(s.contains("\"name\":\"round 2\",\"ph\":\"X\",\"ts\":7,\"dur\":7"));
        assert!(s.contains("\"name\":\"round 3\",\"ph\":\"X\",\"ts\":14,\"dur\":7"));
        assert!(s.contains("\"main\":4"));
    }

    #[test]
    fn phase_breakdown_sums_to_round_sum() {
        let mut b = PhaseBreakdown::new(&["a", "b"]);
        // Vertex 0: two rounds in phase a, then terminates in phase b.
        b.on_step(&step(0, 1, 0, false));
        b.on_step(&step(0, 2, 0, false));
        b.on_step(&step(0, 3, 1, true));
        // Vertex 1: terminates immediately in phase a.
        b.on_step(&step(1, 1, 0, true));
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
