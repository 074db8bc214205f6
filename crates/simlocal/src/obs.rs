//! Runtime observability: a lock-free metrics registry for the engine,
//! the actor backend, and the harness.
//!
//! The registry is deliberately dumb: every metric the runtime can
//! record is declared once in the [`METRICS`] table, and a
//! [`Registry`] is nothing but a fixed block of [`AtomicU64`] slots
//! (one per metric, or one per metric × shard for per-shard metrics)
//! plus a block of log₂ histograms with the same bucketing as
//! [`trace::Histogram`](crate::trace::Histogram). There is no
//! interior locking, no registration-at-runtime, and no string
//! hashing on the hot path — recording is a `fetch_add(Relaxed)` at a
//! compile-time-computable offset.
//!
//! ## Zero-cost discipline
//!
//! Instrumented code holds an `Option<&Registry>` (or a copied
//! [`ShardObs`] handle) and every record site is guarded by the same
//! `if` that times the work, so a run with no registry attached pays
//! one branch per *round* (not per vertex) and allocates nothing —
//! the same discipline the [`Observer`](crate::Observer) layer
//! established, and the byte-identity tests pin that an attached
//! registry changes no output, metric, or wire statistic.
//!
//! ## Naming scheme
//!
//! Metric names follow Prometheus conventions:
//! `simlocal_<subsystem>_<what>[_<unit>][_total]`, where subsystem is
//! one of `engine` (sync round loop), `actor` (shard threads),
//! `transport` (links), or `harness` (trial driver). Per-shard
//! metrics carry a single `shard="K"` label; global metrics carry no
//! labels. Durations are nanosecond counters (`_ns_total`) so rates
//! and fractions fall out of plain counter arithmetic.
//!
//! ## Exposition
//!
//! [`Registry::write_prometheus`] renders the standard text format
//! (`# HELP`/`# TYPE`, cumulative `_bucket{le=...}` histograms);
//! [`Registry::write_jsonl_snapshot`] appends one self-contained JSON
//! line per call so a stream of snapshots can be checked for counter
//! monotonicity; [`Registry::chrome_counters`] flattens the scalar
//! series for merging into the Chrome-trace export as `"C"` events.

use crate::trace::Histogram;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Bucket count for registry histograms: bucket 0 holds zeros, bucket
/// `i ≥ 1` holds values of bit length `i` (`2^(i-1) ..= 2^i - 1`) —
/// exactly the bucketing of [`trace::Histogram`](crate::trace::Histogram),
/// fixed at the full `u64` range so slots never resize.
pub const HIST_BUCKETS: usize = 65;

/// What kind of series a metric is (decides exposition format and
/// which consistency checks apply to it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing sum.
    Counter,
    /// A point-in-time level; may move both ways.
    Gauge,
    /// A log₂ distribution of recorded values.
    Histogram,
}

/// One row of the metric table: the wire name, help text, kind, and
/// whether the metric has one slot per shard or a single global slot.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Prometheus series name.
    pub name: &'static str,
    /// One-line help text (the `# HELP` line).
    pub help: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Whether the metric is recorded per shard (`shard="K"` label).
    pub per_shard: bool,
}

macro_rules! metric_table {
    ($(($variant:ident, $name:literal, $kind:ident, $per_shard:expr, $help:literal),)+) => {
        /// Every metric the runtime records, one enum variant per
        /// fixed slot. The discriminant indexes [`METRICS`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Metric {
            $(#[doc = $help] $variant,)+
        }

        /// The full metric table, indexed by `Metric as usize`.
        pub const METRICS: &[MetricDef] = &[
            $(MetricDef { name: $name, help: $help, kind: MetricKind::$kind, per_shard: $per_shard },)+
        ];

        /// All metrics in table order (for iteration in exposition
        /// and in the docs drift test).
        pub const ALL_METRICS: &[Metric] = &[$(Metric::$variant,)+];
    };
}

metric_table! {
    // Sync engine round loop (global: the engine is one thread of
    // control even when rounds fan out).
    (EngineRounds, "simlocal_engine_rounds_total", Counter, false,
     "Rounds completed by the sync engine."),
    (EngineFastRounds, "simlocal_engine_fast_rounds_total", Counter, false,
     "Rounds stepped by the in-place round kernel (every round)."),
    (EngineParallelRounds, "simlocal_engine_parallel_rounds_total", Counter, false,
     "Rounds that fanned out to worker threads."),
    (EngineSteps, "simlocal_engine_steps_total", Counter, false,
     "Vertex step invocations (RoundSum)."),
    (EngineMsgBits, "simlocal_engine_msg_bits_total", Counter, false,
     "Message bits published (WireSize-accounted)."),
    (EngineScanNs, "simlocal_engine_scan_ns_total", Counter, false,
     "Nanoseconds balancing live-word cuts before parallel fan-out."),
    (EngineStepNs, "simlocal_engine_step_ns_total", Counter, false,
     "Nanoseconds in the read phase (stepping active vertices)."),
    (EnginePublishNs, "simlocal_engine_publish_ns_total", Counter, false,
     "Nanoseconds in a separate publish phase (always 0: the round kernel publishes during the step phase)."),
    (EngineRetireNs, "simlocal_engine_retire_ns_total", Counter, false,
     "Nanoseconds in the retire sweep (clearing bits, compacting live words)."),
    (EngineWarmRuns, "simlocal_engine_warm_runs_total", Counter, false,
     "Warm-start (incremental re-solve) runs executed."),
    (EngineWarmFullResolves, "simlocal_engine_warm_full_resolves_total", Counter, false,
     "Warm-start requests that fell back to a full cold re-solve (protocol not declared local)."),
    (EngineReactivated, "simlocal_engine_reactivated_total", Counter, false,
     "Vertices re-stepped by warm-start runs (those whose inputs an edit changed)."),
    (EngineActiveLast, "simlocal_engine_active_last", Gauge, false,
     "Active vertices after the most recent retire sweep (the Lemma 6.1 decay signal)."),
    (EngineRoundWallNs, "simlocal_engine_round_wall_ns", Histogram, false,
     "Distribution of whole-round wall times, nanoseconds."),
    // Actor backend shard threads.
    (ActorRounds, "simlocal_actor_rounds_total", Counter, true,
     "Rounds completed by this shard (broadcast and barrier drained)."),
    (ActorSteps, "simlocal_actor_steps_total", Counter, true,
     "Vertex step invocations on this shard."),
    (ActorMsgBits, "simlocal_actor_msg_bits_total", Counter, true,
     "Message bits published by this shard."),
    (ActorComputeNs, "simlocal_actor_compute_ns_total", Counter, true,
     "Nanoseconds this shard spent stepping and broadcasting."),
    (ActorBarrierWaitNs, "simlocal_actor_barrier_wait_ns_total", Counter, true,
     "Nanoseconds this shard spent draining the round barrier."),
    (ActorRetire, "simlocal_actor_retire_total", Counter, true,
     "1 when this shard retired (all its vertices terminated)."),
    (ActorDeregister, "simlocal_actor_deregister_total", Counter, true,
     "Peer retirements this shard observed (live-set deregistrations)."),
    (ActorBarrierWaitHistNs, "simlocal_actor_barrier_wait_ns", Histogram, true,
     "Per-round barrier-wait distribution for this shard, nanoseconds."),
    (ActorComputeHistNs, "simlocal_actor_compute_ns", Histogram, true,
     "Per-round compute-time distribution for this shard, nanoseconds."),
    // Transport links (one endpoint per shard).
    (TransportBatchesOut, "simlocal_transport_batches_out_total", Counter, true,
     "Batches this shard delivered to peers."),
    (TransportBatchesIn, "simlocal_transport_batches_in_total", Counter, true,
     "Batches this shard received from peers."),
    (TransportEntriesOut, "simlocal_transport_entries_out_total", Counter, true,
     "Vertex updates this shard delivered to peers."),
    (TransportEntriesIn, "simlocal_transport_entries_in_total", Counter, true,
     "Vertex updates this shard received from peers."),
    (TransportBytesOut, "simlocal_transport_bytes_out_total", Counter, true,
     "Encoded frame bytes this shard wrote to its links (0 for the in-process channel transport)."),
    (TransportBytesIn, "simlocal_transport_bytes_in_total", Counter, true,
     "Encoded frame bytes this shard's reader threads received (0 for the in-process channel transport)."),
    (TransportFramesIn, "simlocal_transport_frames_in_total", Counter, true,
     "Frames this shard's reader threads decoded (0 for the in-process channel transport)."),
    (TransportInboxDepth, "simlocal_transport_inbox_depth", Gauge, true,
     "Batches queued in this shard's inbox when it last looked (channel occupancy)."),
    // Harness trial driver (global).
    (HarnessTrials, "simlocal_harness_trials_total", Counter, false,
     "Trials the harness executed."),
    (HarnessQueueNs, "simlocal_harness_queue_ns_total", Counter, false,
     "Nanoseconds building workloads and protocols before each run (trial queueing)."),
    (HarnessRunNs, "simlocal_harness_run_ns_total", Counter, false,
     "Nanoseconds inside engine runs."),
    (HarnessVerifyNs, "simlocal_harness_verify_ns_total", Counter, false,
     "Nanoseconds verifying outputs after each run."),
    // Trial pipeline (planner → cache → scheduler → sink; global).
    (HarnessQueueDepth, "simlocal_harness_queue_depth", Gauge, false,
     "Planned trial jobs not yet claimed by a scheduler worker."),
    (HarnessJobsInFlight, "simlocal_harness_jobs_in_flight", Gauge, false,
     "Trial jobs currently executing on scheduler workers."),
    (HarnessCacheHits, "simlocal_harness_cache_hits_total", Counter, false,
     "Workload-cache lookups served by an already-generated graph."),
    (HarnessCacheMisses, "simlocal_harness_cache_misses_total", Counter, false,
     "Workload-cache lookups that had to generate the graph."),
    (HarnessCacheBytes, "simlocal_harness_cache_bytes_total", Counter, false,
     "Approximate bytes of CSR graph data resident in the workload cache."),
    (HarnessTrialWallNs, "simlocal_harness_trial_wall_ns", Histogram, false,
     "Distribution of per-trial wall times as observed by the scheduler, nanoseconds."),
}

/// A log₂ histogram made of atomic slots, snapshot-convertible to
/// [`trace::Histogram`](crate::trace::Histogram).
struct AtomicHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        };
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
    }

    fn snapshot(&self) -> Histogram {
        let mut buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        while buckets.len() > 1 && *buckets.last().unwrap() == 0 {
            buckets.pop();
        }
        if buckets == [0] {
            buckets.clear();
        }
        Histogram::from_parts(
            buckets,
            self.count.load(Relaxed),
            self.sum.load(Relaxed) as u128,
        )
    }
}

/// The fixed-slot metrics registry. Create one per run (or per suite
/// invocation), hand shard threads [`ShardObs`] handles, and render
/// with the exposition writers when the run completes. All recording
/// uses relaxed atomics — thread join is the synchronization point,
/// exactly as for the shard results themselves.
pub struct Registry {
    shards: usize,
    scalars: Vec<AtomicU64>,
    hists: Vec<AtomicHistogram>,
    scalar_base: Vec<usize>,
    hist_base: Vec<usize>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("shards", &self.shards)
            .field("scalar_slots", &self.scalars.len())
            .field("hist_slots", &self.hists.len())
            .finish()
    }
}

impl Registry {
    /// A registry with `shards` slots for every per-shard metric
    /// (global metrics always get exactly one slot). `shards` is
    /// clamped to at least 1.
    pub fn new(shards: usize) -> Registry {
        let shards = shards.max(1);
        let mut scalar_base = Vec::with_capacity(METRICS.len());
        let mut hist_base = Vec::with_capacity(METRICS.len());
        let mut scalars = 0usize;
        let mut hists = 0usize;
        for def in METRICS {
            let slots = if def.per_shard { shards } else { 1 };
            match def.kind {
                MetricKind::Histogram => {
                    scalar_base.push(usize::MAX);
                    hist_base.push(hists);
                    hists += slots;
                }
                MetricKind::Counter | MetricKind::Gauge => {
                    scalar_base.push(scalars);
                    hist_base.push(usize::MAX);
                    scalars += slots;
                }
            }
        }
        Registry {
            shards,
            scalars: (0..scalars).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..hists).map(|_| AtomicHistogram::new()).collect(),
            scalar_base,
            hist_base,
        }
    }

    /// Number of per-shard slots this registry was sized for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// A copyable recording handle bound to one shard. Global metrics
    /// recorded through any handle land in their single slot.
    pub fn handle(&self, shard: usize) -> ShardObs<'_> {
        assert!(
            shard < self.shards,
            "shard {shard} out of range (registry sized for {})",
            self.shards
        );
        ShardObs { reg: self, shard }
    }

    fn scalar_slot(&self, m: Metric, shard: usize) -> &AtomicU64 {
        let def = &METRICS[m as usize];
        let base = self.scalar_base[m as usize];
        debug_assert!(base != usize::MAX, "{} is a histogram", def.name);
        &self.scalars[base + if def.per_shard { shard } else { 0 }]
    }

    fn hist_slot(&self, m: Metric, shard: usize) -> &AtomicHistogram {
        let def = &METRICS[m as usize];
        let base = self.hist_base[m as usize];
        debug_assert!(base != usize::MAX, "{} is not a histogram", def.name);
        &self.hists[base + if def.per_shard { shard } else { 0 }]
    }

    /// Adds `delta` to a counter (or gauge) slot.
    pub fn add(&self, m: Metric, shard: usize, delta: u64) {
        self.scalar_slot(m, shard).fetch_add(delta, Relaxed);
    }

    /// Stores an absolute value into a gauge (or cumulative counter
    /// mirrored from an external tally) slot.
    pub fn set(&self, m: Metric, shard: usize, value: u64) {
        self.scalar_slot(m, shard).store(value, Relaxed);
    }

    /// Records one observation into a histogram slot.
    pub fn observe(&self, m: Metric, shard: usize, value: u64) {
        self.hist_slot(m, shard).observe(value);
    }

    /// Current value of one counter/gauge slot.
    pub fn value(&self, m: Metric, shard: usize) -> u64 {
        self.scalar_slot(m, shard).load(Relaxed)
    }

    /// Sum of a counter/gauge over all its slots (equals
    /// [`value`](Registry::value)`(m, 0)` for global metrics).
    pub fn total(&self, m: Metric) -> u64 {
        let slots = if METRICS[m as usize].per_shard {
            self.shards
        } else {
            1
        };
        (0..slots).map(|s| self.value(m, s)).sum()
    }

    /// Snapshot of one histogram slot as a
    /// [`trace::Histogram`](crate::trace::Histogram).
    pub fn histogram(&self, m: Metric, shard: usize) -> Histogram {
        self.hist_slot(m, shard).snapshot()
    }

    fn slots_of(&self, m: Metric) -> usize {
        if METRICS[m as usize].per_shard {
            self.shards
        } else {
            1
        }
    }

    /// Writes the registry in the Prometheus text exposition format.
    /// Every declared series is emitted (zeros included) so scrapes
    /// are schema-stable; histograms render as cumulative
    /// `_bucket{le="..."}` series up to their highest non-empty
    /// bucket, plus `_sum` and `_count`.
    pub fn write_prometheus<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for &m in ALL_METRICS {
            let def = &METRICS[m as usize];
            let kind = match def.kind {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            writeln!(w, "# HELP {} {}", def.name, def.help)?;
            writeln!(w, "# TYPE {} {}", def.name, kind)?;
            for shard in 0..self.slots_of(m) {
                let label = |le: Option<String>| -> String {
                    let mut parts = Vec::new();
                    if def.per_shard {
                        parts.push(format!("shard=\"{shard}\""));
                    }
                    if let Some(le) = le {
                        parts.push(format!("le=\"{le}\""));
                    }
                    if parts.is_empty() {
                        String::new()
                    } else {
                        format!("{{{}}}", parts.join(","))
                    }
                };
                match def.kind {
                    MetricKind::Counter | MetricKind::Gauge => {
                        writeln!(w, "{}{} {}", def.name, label(None), self.value(m, shard))?;
                    }
                    MetricKind::Histogram => {
                        let h = self.histogram(m, shard);
                        let mut cum = 0u64;
                        for (i, &b) in h.buckets().iter().enumerate() {
                            cum += b;
                            // Bucket i covers values of bit length i;
                            // its inclusive upper bound is 2^i - 1.
                            let le = if i == 0 {
                                "0".to_string()
                            } else if i >= 64 {
                                u64::MAX.to_string()
                            } else {
                                ((1u64 << i) - 1).to_string()
                            };
                            writeln!(w, "{}_bucket{} {}", def.name, label(Some(le)), cum)?;
                        }
                        writeln!(
                            w,
                            "{}_bucket{} {}",
                            def.name,
                            label(Some("+Inf".to_string())),
                            h.count()
                        )?;
                        writeln!(w, "{}_sum{} {}", def.name, label(None), h.sum())?;
                        writeln!(w, "{}_count{} {}", def.name, label(None), h.count())?;
                    }
                }
            }
        }
        Ok(())
    }

    /// [`write_prometheus`](Registry::write_prometheus) into a string.
    pub fn prometheus_text(&self) -> String {
        let mut out = Vec::new();
        self.write_prometheus(&mut out).expect("write to Vec");
        String::from_utf8(out).expect("exposition is ASCII")
    }

    /// Appends one self-contained JSON snapshot line:
    /// `{"tag":...,"counters":{name:{label:v}},"gauges":{...},"hists":{name:{label:{"count":c,"sum":s,"buckets":[..]}}}}`
    /// where `label` is the shard index (`""` for global metrics).
    /// Counter values are non-decreasing across successive lines from
    /// the same registry, which is what the CI schema check gates.
    pub fn write_jsonl_snapshot<W: Write>(&self, w: &mut W, tag: &str) -> io::Result<()> {
        let mut line = String::from("{\"tag\":\"");
        for c in tag.chars() {
            match c {
                '"' => line.push_str("\\\""),
                '\\' => line.push_str("\\\\"),
                c if (c as u32) < 0x20 => line.push_str(&format!("\\u{:04x}", c as u32)),
                c => line.push(c),
            }
        }
        line.push('"');
        for (section, kind) in [
            ("counters", MetricKind::Counter),
            ("gauges", MetricKind::Gauge),
        ] {
            line.push_str(&format!(",\"{section}\":{{"));
            let mut first = true;
            for &m in ALL_METRICS {
                let def = &METRICS[m as usize];
                if def.kind != kind {
                    continue;
                }
                if !first {
                    line.push(',');
                }
                first = false;
                line.push_str(&format!("\"{}\":{{", def.name));
                for shard in 0..self.slots_of(m) {
                    if shard > 0 {
                        line.push(',');
                    }
                    let key = if def.per_shard {
                        shard.to_string()
                    } else {
                        String::new()
                    };
                    line.push_str(&format!("\"{key}\":{}", self.value(m, shard)));
                }
                line.push('}');
            }
            line.push('}');
        }
        line.push_str(",\"hists\":{");
        let mut first = true;
        for &m in ALL_METRICS {
            let def = &METRICS[m as usize];
            if def.kind != MetricKind::Histogram {
                continue;
            }
            if !first {
                line.push(',');
            }
            first = false;
            line.push_str(&format!("\"{}\":{{", def.name));
            for shard in 0..self.slots_of(m) {
                if shard > 0 {
                    line.push(',');
                }
                let key = if def.per_shard {
                    shard.to_string()
                } else {
                    String::new()
                };
                let h = self.histogram(m, shard);
                let buckets: Vec<String> = h.buckets().iter().map(|b| b.to_string()).collect();
                line.push_str(&format!(
                    "\"{key}\":{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                    h.count(),
                    h.sum(),
                    buckets.join(",")
                ));
            }
            line.push('}');
        }
        line.push_str("}}");
        writeln!(w, "{line}")
    }

    /// [`write_jsonl_snapshot`](Registry::write_jsonl_snapshot) into a
    /// string (one line, newline-terminated).
    pub fn jsonl_snapshot(&self, tag: &str) -> String {
        let mut out = Vec::new();
        self.write_jsonl_snapshot(&mut out, tag)
            .expect("write to Vec");
        String::from_utf8(out).expect("snapshot is valid UTF-8")
    }

    /// Flattens every non-zero counter/gauge slot into
    /// `(series-with-label, value)` pairs for merging into the
    /// Chrome-trace export as counter (`"C"`) events.
    pub fn chrome_counters(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for &m in ALL_METRICS {
            let def = &METRICS[m as usize];
            if def.kind == MetricKind::Histogram {
                continue;
            }
            for shard in 0..self.slots_of(m) {
                let v = self.value(m, shard);
                if v == 0 {
                    continue;
                }
                let name = if def.per_shard {
                    format!("{}{{shard=\"{shard}\"}}", def.name)
                } else {
                    def.name.to_string()
                };
                out.push((name, v));
            }
        }
        out
    }
}

/// Every declared metric name, in table order — the enumeration the
/// docs drift test compares against DESIGN.md.
pub fn metric_names() -> Vec<&'static str> {
    METRICS.iter().map(|d| d.name).collect()
}

/// A copyable recording handle bound to one shard of a [`Registry`].
#[derive(Clone, Copy)]
pub struct ShardObs<'a> {
    reg: &'a Registry,
    shard: usize,
}

impl ShardObs<'_> {
    /// Adds `delta` to a counter.
    pub fn add(&self, m: Metric, delta: u64) {
        self.reg.add(m, self.shard, delta);
    }

    /// Stores an absolute value into a gauge/cumulative slot.
    pub fn set(&self, m: Metric, value: u64) {
        self.reg.set(m, self.shard, value);
    }

    /// Records one histogram observation.
    pub fn observe(&self, m: Metric, value: u64) {
        self.reg.observe(m, self.shard, value);
    }

    /// Adds the nanoseconds elapsed since `t0` to a counter and
    /// returns them (for pairing a counter with a histogram).
    pub fn add_elapsed(&self, m: Metric, t0: Instant) -> u64 {
        let ns = t0.elapsed().as_nanos() as u64;
        self.add(m, ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_independent_per_shard() {
        let reg = Registry::new(3);
        reg.handle(0).add(Metric::ActorSteps, 5);
        reg.handle(2).add(Metric::ActorSteps, 7);
        assert_eq!(reg.value(Metric::ActorSteps, 0), 5);
        assert_eq!(reg.value(Metric::ActorSteps, 1), 0);
        assert_eq!(reg.value(Metric::ActorSteps, 2), 7);
        assert_eq!(reg.total(Metric::ActorSteps), 12);
    }

    #[test]
    fn global_metrics_share_one_slot() {
        let reg = Registry::new(4);
        reg.handle(1).add(Metric::EngineSteps, 3);
        reg.handle(3).add(Metric::EngineSteps, 4);
        assert_eq!(reg.value(Metric::EngineSteps, 0), 7);
        assert_eq!(reg.total(Metric::EngineSteps), 7);
    }

    #[test]
    fn histogram_matches_trace_bucketing() {
        let reg = Registry::new(1);
        for v in [0u64, 1, 2, 3, 4, 1000] {
            reg.observe(Metric::EngineRoundWallNs, 0, v);
        }
        let mine = reg.histogram(Metric::EngineRoundWallNs, 0);
        let mut reference = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            reference.record(v);
        }
        assert_eq!(mine.buckets(), reference.buckets());
        assert_eq!(mine.count(), reference.count());
        assert_eq!(mine.mean(), reference.mean());
    }

    #[test]
    fn prometheus_exposition_is_wellformed() {
        let reg = Registry::new(2);
        reg.add(Metric::EngineRounds, 0, 9);
        reg.add(Metric::ActorBarrierWaitNs, 1, 1234);
        reg.observe(Metric::ActorBarrierWaitHistNs, 1, 1234);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE simlocal_engine_rounds_total counter"));
        assert!(text.contains("simlocal_engine_rounds_total 9"));
        assert!(text.contains("simlocal_actor_barrier_wait_ns_total{shard=\"1\"} 1234"));
        assert!(text.contains("simlocal_actor_barrier_wait_ns_bucket{shard=\"1\",le=\"+Inf\"} 1"));
        assert!(text.contains("simlocal_actor_barrier_wait_ns_sum{shard=\"1\"} 1234"));
        // Every declared series name appears exactly once as a TYPE line.
        for name in metric_names() {
            assert_eq!(
                text.matches(&format!("# TYPE {name} ")).count(),
                1,
                "{name} TYPE line"
            );
        }
    }

    #[test]
    fn jsonl_snapshot_counters_are_monotone() {
        let reg = Registry::new(2);
        reg.add(Metric::HarnessTrials, 0, 1);
        let a = reg.jsonl_snapshot("t");
        reg.add(Metric::HarnessTrials, 0, 1);
        let b = reg.jsonl_snapshot("t");
        assert!(a.contains("\"simlocal_harness_trials_total\":{\"\":1}"));
        assert!(b.contains("\"simlocal_harness_trials_total\":{\"\":2}"));
        assert!(a.ends_with('\n') && b.ends_with('\n'));
    }

    #[test]
    fn jsonl_snapshot_escapes_tags() {
        let reg = Registry::new(1);
        let line = reg.jsonl_snapshot("a\"b\\c");
        assert!(line.starts_with("{\"tag\":\"a\\\"b\\\\c\""));
    }

    #[test]
    fn chrome_counters_skip_zero_series() {
        let reg = Registry::new(2);
        reg.add(Metric::TransportBytesOut, 1, 77);
        let counters = reg.chrome_counters();
        assert_eq!(
            counters,
            vec![(
                "simlocal_transport_bytes_out_total{shard=\"1\"}".to_string(),
                77
            )]
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn handle_checks_shard_range() {
        let _ = Registry::new(2).handle(2);
    }
}
