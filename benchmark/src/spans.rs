//! Spans around the benchmark's calls into each layer of the program.
//!
//! A traced pass wraps every public call a workload makes (`plan_rows`,
//! `run_plan`, the ingest steps, `AlgoSpec::exec`, `churn::apply`,
//! `Runner::run_warm`, the verifiers) in a span: a name, a start, an end,
//! the enclosing span, and the pass it belongs to, so all spans of one
//! pass share an id. Spans are kept in memory and written out once the
//! run ends. A span's *self time* is its duration minus its child spans'
//! durations. Nothing here reaches inside the program.

use crate::report::json_str;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Name of the wrapped call, `layer.what`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pass the span was recorded in.
    pub pass: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Records spans while switched on; `open`/`close` cost nothing else.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pass: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

/// A span opened by [`Tracer::open`], to be handed back to
/// [`Tracer::close`].
#[must_use = "an opened span must be closed"]
pub struct Open(Option<usize>);

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that records nothing until a traced pass starts.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts pass `pass`, recording its spans only when `on`.
    pub fn start_pass(&mut self, pass: u32, on: bool) {
        assert!(self.stack.is_empty(), "a span is still open across passes");
        self.pass = pass;
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.stack.last().copied(),
            pass: self.pass,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name.clone()).or_insert(0) += own;
        }
        out
    }

    /// Writes `<dir>/<workload>.jsonl` (one span per line) and
    /// `<dir>/<workload>.chrome.json` (a Chrome/Perfetto trace), and
    /// returns the two paths.
    pub fn write(&self, dir: &Path, workload: &str) -> std::io::Result<[PathBuf; 2]> {
        std::fs::create_dir_all(dir)?;
        let own = self_times(&self.spans);
        let jsonl = dir.join(format!("{workload}.jsonl"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&jsonl)?);
        for (id, (s, own)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"pass\": {}, \"name\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                s.pass,
                json_str(&s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()?;
        let chrome = dir.join(format!("{workload}.chrome.json"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&chrome)?);
        write!(w, "{{\"traceEvents\": [")?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            write!(
                w,
                "{sep}\n{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"pass\": {}, \"id\": {id}}}}}",
                json_str(&s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.pass
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()?;
        Ok([jsonl, chrome])
    }
}

/// Self time of every span: its duration minus its children's. The
/// tracer closes spans innermost first on one thread, so children never
/// overlap each other or stick out of their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            pass: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_children() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("a.leaf", Some(1), 12, 20),
            span("b", Some(0), 50, 60),
            span("c", Some(0), 60, 95),
        ];
        // pass: 100 − 20 − 10 − 35 = 35; a: 20 − 8; leaves keep all.
        assert_eq!(self_times(&spans), vec![35, 12, 8, 10, 35]);
    }

    #[test]
    fn tracer_nests_and_skips_untraced_passes() {
        let mut t = Tracer::new();
        t.start_pass(0, false);
        let s = t.open("ignored");
        t.close(s);
        assert!(t.spans.is_empty());
        t.start_pass(1, true);
        let outer = t.open("pass");
        let inner = t.open("io.read");
        t.close(inner);
        t.close(outer);
        let spans = &t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.pass == 1 && s.end_ns >= s.start_ns));
        let by_name = t.self_ns_by_name();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(by_name["pass"] + by_name["io.read"], total);
    }
}
