//! Schema-versioned JSON results and the regression-diff gate.
//!
//! Each harness binary can serialize its [`TrialSummary`] set to a JSON
//! file under `results/` (`--json PATH`). Committed files are *baselines*:
//! `bench-diff` re-reads a baseline and a fresh run and fails (nonzero
//! exit) when any summary drifted beyond a relative tolerance — turning
//! the paper-shaped tables into a machine-checked regression gate.
//!
//! The container has no crates.io access, so serialization is a small
//! hand-rolled JSON writer plus a minimal recursive-descent parser —
//! only what the schema needs, kept honest by round-trip tests.

use crate::trials::{PhaseAgg, Stats, TrialSummary};
use std::fmt::Write as _;
use std::path::Path;

/// Version of the JSON schema written by [`SuiteResult::to_json`]. Bump on
/// any incompatible change; `bench-diff` refuses mismatched versions.
///
/// v2: summaries gained `active_decay` (per-round mean active-set series)
/// and `phases` (per-phase mean `RoundSum` breakdown).
///
/// v3: summaries gained the communication metrics `avg_msg_bits`
/// (per-vertex wire-bit statistics) and `max_msg_bits_max` (largest single
/// published message, the CONGEST-width witness). Both are gated by
/// [`diff`]; wall clock remains informational.
///
/// v4: summaries gained the per-vertex termination-round distribution
/// fields `median` (p50 statistics) and `wc_max` (largest worst-case round
/// over the trials). Informational like wall clock: serialized and parsed
/// but *not* gated by [`diff`] — p50/p95/max are reporting aids, the gated
/// shape statistics (`va`, `wc`, `p95` means) already pin the distribution.
///
/// v5: summaries gained `p99` (99th-percentile termination-round
/// statistics — informational like `median`, never gated) and the
/// dynamic-mode field `reactivated_frac` (per-batch reactivated-vertex
/// fraction statistics, `null` for cold groups). `reactivated_frac.mean`
/// *is* gated when present: it is deterministic given the seeds and is
/// the headline number of the update-cost experiments.
pub const SCHEMA_VERSION: u64 = 5;

/// A whole harness run: configuration plus one summary per experiment
/// configuration.
#[derive(Clone, Debug)]
pub struct SuiteResult {
    /// Schema version (see [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Which binary produced this ("table1", "table2", ...).
    pub suite: String,
    /// Whether sweeps were trimmed (`--quick`).
    pub quick: bool,
    /// Engine seeds per ID mode.
    pub seeds: u64,
    /// ID-mode labels in sweep order.
    pub id_modes: Vec<String>,
    /// Aggregated summaries.
    pub summaries: Vec<TrialSummary>,
}

impl SuiteResult {
    /// Bundles a run's configuration and summaries under the current schema.
    pub fn new(
        suite: &str,
        quick: bool,
        seeds: u64,
        id_modes: Vec<String>,
        summaries: Vec<TrialSummary>,
    ) -> SuiteResult {
        SuiteResult {
            schema_version: SCHEMA_VERSION,
            suite: suite.into(),
            quick,
            seeds,
            id_modes,
            summaries,
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(out, "  \"suite\": {},", quote(&self.suite));
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"seeds\": {},", self.seeds);
        let modes: Vec<String> = self.id_modes.iter().map(|m| quote(m)).collect();
        let _ = writeln!(out, "  \"id_modes\": [{}],", modes.join(", "));
        out.push_str("  \"summaries\": [\n");
        for (i, s) in self.summaries.iter().enumerate() {
            let comma = if i + 1 < self.summaries.len() {
                ","
            } else {
                ""
            };
            let cap = if s.cap == usize::MAX {
                "null".to_string()
            } else {
                s.cap.to_string()
            };
            let decay: Vec<String> = s.active_decay.iter().map(|&x| fnum(x)).collect();
            let phases: Vec<String> = s
                .phases
                .iter()
                .map(|p| {
                    format!(
                        "{{\"name\": {}, \"round_sum_mean\": {}}}",
                        quote(&p.name),
                        fnum(p.round_sum_mean)
                    )
                })
                .collect();
            let react = match &s.reactivated_frac {
                Some(r) => stats_json(r),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "    {{\"exp\": {}, \"algo\": {}, \"family\": {}, \"n\": {}, \"a\": {}, \
                 \"trials\": {}, \"valid\": {}, \"colors_max\": {}, \"cap\": {}, \
                 \"round_sum_max\": {}, \"max_msg_bits_max\": {}, \"wc_max\": {},\n     \
                 \"va\": {}, \"wc\": {}, \"median\": {}, \"p95\": {}, \"p99\": {}, \
                 \"wall_ms\": {}, \"avg_msg_bits\": {},\n     \
                 \"reactivated_frac\": {},\n     \
                 \"active_decay\": [{}],\n     \"phases\": [{}]}}{}",
                quote(&s.exp),
                quote(&s.algo),
                quote(&s.family),
                s.n,
                s.a,
                s.trials,
                s.valid,
                s.colors_max,
                cap,
                s.round_sum_max,
                s.max_msg_bits_max,
                s.wc_max,
                stats_json(&s.va),
                stats_json(&s.wc),
                stats_json(&s.median),
                stats_json(&s.p95),
                stats_json(&s.p99),
                stats_json(&s.wall_ms),
                stats_json(&s.avg_msg_bits),
                react,
                decay.join(", "),
                phases.join(", "),
                comma
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a document produced by [`SuiteResult::to_json`].
    pub fn from_json(text: &str) -> Result<SuiteResult, String> {
        let v = Json::parse(text)?;
        let schema_version = v.get_u64("schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema version {schema_version} unsupported (expected {SCHEMA_VERSION})"
            ));
        }
        let summaries = v
            .get("summaries")?
            .as_array()?
            .iter()
            .map(parse_summary)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SuiteResult {
            schema_version,
            suite: v.get("suite")?.as_str()?.to_string(),
            quick: v.get("quick")?.as_bool()?,
            seeds: v.get_u64("seeds")?,
            id_modes: v
                .get("id_modes")?
                .as_array()?
                .iter()
                .map(|m| m.as_str().map(str::to_string))
                .collect::<Result<Vec<_>, _>>()?,
            summaries,
        })
    }

    /// Writes the JSON document to `path` (creating parent directories).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads and parses a results file.
    pub fn read(path: &Path) -> Result<SuiteResult, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        SuiteResult::from_json(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    }
}

/// A JSON string literal for `s`, quotes included — shared with the
/// other writers in this crate (`perf`'s summary export among them) and
/// the `distsym` CLI's `--json` report.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn stats_json(s: &Stats) -> String {
    format!(
        "{{\"mean\": {}, \"stddev\": {}, \"min\": {}, \"max\": {}, \"ci95\": {}}}",
        fnum(s.mean),
        fnum(s.stddev),
        fnum(s.min),
        fnum(s.max),
        fnum(s.ci95)
    )
}

/// Formats a float so the JSON round-trips exactly enough for `bench-diff`
/// tolerances (and never emits `NaN`/`inf`, which JSON forbids). Shared
/// with the other writers in this crate.
pub(crate) fn fnum(x: f64) -> String {
    if !x.is_finite() {
        return "0".into();
    }
    let s = format!("{x:.6}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

fn parse_summary(v: &Json) -> Result<TrialSummary, String> {
    let stats = |key: &str| -> Result<Stats, String> {
        let o = v.get(key)?;
        Ok(Stats {
            mean: o.get("mean")?.as_f64()?,
            stddev: o.get("stddev")?.as_f64()?,
            min: o.get("min")?.as_f64()?,
            max: o.get("max")?.as_f64()?,
            ci95: o.get("ci95")?.as_f64()?,
        })
    };
    Ok(TrialSummary {
        exp: v.get("exp")?.as_str()?.to_string(),
        algo: v.get("algo")?.as_str()?.to_string(),
        family: v.get("family")?.as_str()?.to_string(),
        n: v.get_u64("n")? as usize,
        a: v.get_u64("a")? as usize,
        trials: v.get_u64("trials")? as usize,
        valid: v.get("valid")?.as_bool()?,
        colors_max: v.get_u64("colors_max")? as usize,
        cap: match v.get("cap")? {
            Json::Null => usize::MAX,
            other => other.as_f64()? as usize,
        },
        round_sum_max: v.get_u64("round_sum_max")?,
        max_msg_bits_max: v.get_u64("max_msg_bits_max")?,
        wc_max: v.get_u64("wc_max")? as u32,
        va: stats("va")?,
        wc: stats("wc")?,
        median: stats("median")?,
        p95: stats("p95")?,
        p99: stats("p99")?,
        wall_ms: stats("wall_ms")?,
        avg_msg_bits: stats("avg_msg_bits")?,
        reactivated_frac: match v.get("reactivated_frac")? {
            Json::Null => None,
            _ => Some(stats("reactivated_frac")?),
        },
        active_decay: v
            .get("active_decay")?
            .as_array()?
            .iter()
            .map(|x| x.as_f64())
            .collect::<Result<Vec<_>, _>>()?,
        phases: v
            .get("phases")?
            .as_array()?
            .iter()
            .map(|p| {
                Ok(PhaseAgg {
                    name: p.get("name")?.as_str()?.to_string(),
                    round_sum_mean: p.get("round_sum_mean")?.as_f64()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
    })
}

/// Compares a fresh run against a committed baseline.
///
/// Returns one human-readable message per drift. `tol` is a relative
/// tolerance applied to every compared numeric (with an absolute floor of
/// `tol` itself, so near-zero baselines do not demand infinite precision).
/// Wall-clock statistics are machine-dependent and are *not* compared.
pub fn diff(baseline: &SuiteResult, fresh: &SuiteResult, tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    if baseline.schema_version != fresh.schema_version {
        out.push(format!(
            "schema version mismatch: baseline {} vs fresh {}",
            baseline.schema_version, fresh.schema_version
        ));
        return out;
    }
    if baseline.suite != fresh.suite {
        out.push(format!(
            "suite mismatch: baseline `{}` vs fresh `{}`",
            baseline.suite, fresh.suite
        ));
    }
    if (baseline.quick, baseline.seeds, &baseline.id_modes)
        != (fresh.quick, fresh.seeds, &fresh.id_modes)
    {
        out.push(format!(
            "run configuration mismatch: baseline (quick={}, seeds={}, ids={:?}) \
             vs fresh (quick={}, seeds={}, ids={:?}) — regenerate with matching flags",
            baseline.quick,
            baseline.seeds,
            baseline.id_modes,
            fresh.quick,
            fresh.seeds,
            fresh.id_modes
        ));
    }
    let key = |s: &TrialSummary| format!("{}/{}/{}/n={}/a={}", s.exp, s.algo, s.family, s.n, s.a);
    for b in &baseline.summaries {
        let Some(f) = fresh.summaries.iter().find(|f| key(f) == key(b)) else {
            out.push(format!("{}: missing from fresh run", key(b)));
            continue;
        };
        if b.valid != f.valid {
            out.push(format!(
                "{}: valid changed {} -> {}",
                key(b),
                b.valid,
                f.valid
            ));
        }
        fn drifted(bv: f64, fv: f64, tol: f64) -> bool {
            let scale = bv.abs().max(1.0);
            (fv - bv).abs() > tol * scale
        }
        let num = |out: &mut Vec<String>, name: &str, bv: f64, fv: f64| {
            if drifted(bv, fv, tol) {
                out.push(format!(
                    "{}: {name} drifted {bv} -> {fv} (tolerance {tol})",
                    key(b)
                ));
            }
        };
        num(
            &mut out,
            "colors_max",
            b.colors_max as f64,
            f.colors_max as f64,
        );
        num(
            &mut out,
            "round_sum_max",
            b.round_sum_max as f64,
            f.round_sum_max as f64,
        );
        num(
            &mut out,
            "max_msg_bits_max",
            b.max_msg_bits_max as f64,
            f.max_msg_bits_max as f64,
        );
        num(&mut out, "va.mean", b.va.mean, f.va.mean);
        num(&mut out, "wc.mean", b.wc.mean, f.wc.mean);
        num(&mut out, "p95.mean", b.p95.mean, f.p95.mean);
        // p99 is informational like median/wc_max. The dynamic-mode
        // reactivated fraction IS gated: deterministic given the seeds,
        // and it is the headline number of the update-cost experiments.
        match (&b.reactivated_frac, &f.reactivated_frac) {
            (Some(br), Some(fr)) => num(&mut out, "reactivated_frac.mean", br.mean, fr.mean),
            (None, None) => {}
            (br, fr) => out.push(format!(
                "{}: reactivated_frac presence changed {} -> {}",
                key(b),
                br.is_some(),
                fr.is_some()
            )),
        }
        num(
            &mut out,
            "avg_msg_bits.mean",
            b.avg_msg_bits.mean,
            f.avg_msg_bits.mean,
        );
        for bp in &b.phases {
            match f.phases.iter().find(|fp| fp.name == bp.name) {
                Some(fp) => num(
                    &mut out,
                    &format!("phase[{}].round_sum_mean", bp.name),
                    bp.round_sum_mean,
                    fp.round_sum_mean,
                ),
                None => out.push(format!(
                    "{}: phase `{}` missing from fresh run",
                    key(b),
                    bp.name
                )),
            }
        }
        // The active-decay series is deterministic given the recorded seeds,
        // so it is gated like the other shape statistics.
        if b.active_decay.len() != f.active_decay.len() {
            out.push(format!(
                "{}: active_decay length changed {} -> {}",
                key(b),
                b.active_decay.len(),
                f.active_decay.len()
            ));
        }
        for (i, (&bv, &fv)) in b.active_decay.iter().zip(&f.active_decay).enumerate() {
            num(&mut out, &format!("active_decay[{i}]"), bv, fv);
        }
    }
    for f in &fresh.summaries {
        if !baseline.summaries.iter().any(|b| key(b) == key(f)) {
            out.push(format!("{}: not present in baseline", key(f)));
        }
    }
    out
}

/// Informational wall-clock drift notes.
///
/// Wall time is machine-dependent, so [`diff`] never gates on it; this
/// companion reports large swings (relative change beyond `tol`, with a
/// 0.25 ms absolute floor to mute timer noise on sub-millisecond rows) so
/// `bench-diff` can surface them without failing the check.
pub fn wall_notes(baseline: &SuiteResult, fresh: &SuiteResult, tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    let key = |s: &TrialSummary| format!("{}/{}/{}/n={}/a={}", s.exp, s.algo, s.family, s.n, s.a);
    for b in &baseline.summaries {
        let Some(f) = fresh.summaries.iter().find(|f| key(f) == key(b)) else {
            continue;
        };
        let (bv, fv) = (b.wall_ms.mean, f.wall_ms.mean);
        if (fv - bv).abs() > (tol * bv.abs()).max(0.25) {
            out.push(format!(
                "{}: wall_ms.mean {bv} -> {fv} (informational; wall time is not gated)",
                key(b)
            ));
        }
    }
    out
}

/// A parsed JSON value — the minimal subset the results schema needs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (f64 precision suffices for the schema).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{key}`")),
            _ => Err(format!("expected object while reading `{key}`")),
        }
    }

    /// Field as unsigned integer.
    pub fn get_u64(&self, key: &str) -> Result<u64, String> {
        Ok(self.get(key)?.as_f64()? as u64)
    }

    /// This value as f64.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(x) => Ok(*x),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// This value as bool.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    /// This value as str.
    pub fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// This value as array slice.
    pub fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Arr(xs) => Ok(xs),
            other => Err(format!("expected array, got {other:?}")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".into())
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char, self.pos, self.bytes[self.pos] as char
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected `,` or `}}`, found `{}`", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut xs = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(xs));
        }
        loop {
            xs.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(xs));
                }
                other => return Err(format!("expected `,` or `]`, found `{}`", other as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string literal")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("truncated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Multi-byte UTF-8: copy the whole code point through.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xf0 => 4,
        b if b >= 0xe0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary(exp: &str, va_mean: f64) -> TrialSummary {
        TrialSummary {
            exp: exp.into(),
            algo: "a2logn".into(),
            family: "forest_union".into(),
            n: 1024,
            a: 2,
            trials: 4,
            valid: true,
            colors_max: 49,
            cap: 196,
            round_sum_max: 2100,
            va: Stats {
                mean: va_mean,
                stddev: 0.01,
                min: va_mean - 0.02,
                max: va_mean + 0.02,
                ci95: 0.01,
            },
            wc: Stats::from_samples(&[3.0, 4.0]),
            median: Stats::from_samples(&[1.0, 2.0]),
            p95: Stats::from_samples(&[3.0]),
            p99: Stats::from_samples(&[4.0]),
            wc_max: 4,
            reactivated_frac: None,
            wall_ms: Stats::from_samples(&[1.25]),
            avg_msg_bits: Stats::from_samples(&[130.5, 131.5]),
            max_msg_bits_max: 74,
            active_decay: vec![1024.0, 512.5, 130.25, 8.0],
            phases: vec![
                PhaseAgg {
                    name: "partition".into(),
                    round_sum_mean: 1400.0,
                },
                PhaseAgg {
                    name: "arb_linial".into(),
                    round_sum_mean: 700.0,
                },
            ],
        }
    }

    fn sample_suite() -> SuiteResult {
        SuiteResult::new(
            "table1",
            true,
            2,
            vec!["identity".into(), "random".into()],
            vec![sample_summary("T1.4", 2.04), {
                let mut s = sample_summary("T1.4b", 12.0);
                s.cap = usize::MAX;
                s
            }],
        )
    }

    #[test]
    fn json_round_trip() {
        let suite = sample_suite();
        let text = suite.to_json();
        let back = SuiteResult::from_json(&text).unwrap();
        assert_eq!(back.suite, "table1");
        assert_eq!(back.seeds, 2);
        assert_eq!(back.id_modes, vec!["identity", "random"]);
        assert_eq!(back.summaries.len(), 2);
        assert_eq!(back.summaries[0].exp, "T1.4");
        assert!((back.summaries[0].va.mean - 2.04).abs() < 1e-9);
        assert_eq!(back.summaries[0].cap, 196);
        assert_eq!(back.summaries[1].cap, usize::MAX, "null cap round-trips");
        assert_eq!(back.summaries[0].max_msg_bits_max, 74);
        assert!((back.summaries[0].avg_msg_bits.mean - 131.0).abs() < 1e-9);
        assert_eq!(
            back.summaries[0].active_decay,
            vec![1024.0, 512.5, 130.25, 8.0]
        );
        assert_eq!(back.summaries[0].phases, suite.summaries[0].phases);
        assert!(diff(&suite, &back, 1e-6).is_empty());
    }

    #[test]
    fn wall_only_perturbation_passes_gate() {
        // Satellite: wall-clock statistics are informational, never gated.
        let base = sample_suite();
        let mut fresh = base.clone();
        fresh.summaries[0].wall_ms = Stats::from_samples(&[400.0]); // 320x slower
        assert!(
            diff(&base, &fresh, 0.05).is_empty(),
            "wall-only drift must not fail the gate"
        );
        let notes = wall_notes(&base, &fresh, 0.05);
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("informational"), "{notes:?}");
    }

    #[test]
    fn communication_metrics_are_gated() {
        // Tentpole: unlike wall clock, the wire metrics are deterministic
        // given the seeds, so drift in them fails the gate.
        let base = sample_suite();
        let mut fresh = base.clone();
        fresh.summaries[0].avg_msg_bits.mean *= 1.5;
        let msgs = diff(&base, &fresh, 0.05);
        assert!(
            msgs.iter().any(|m| m.contains("avg_msg_bits.mean")),
            "{msgs:?}"
        );
        let mut widened = base.clone();
        widened.summaries[0].max_msg_bits_max = 512;
        let msgs = diff(&base, &widened, 0.05);
        assert!(
            msgs.iter().any(|m| m.contains("max_msg_bits_max")),
            "{msgs:?}"
        );
    }

    #[test]
    fn distribution_fields_round_trip_but_are_not_gated() {
        // Satellite: the per-vertex termination-round distribution fields
        // (p50 stats + max witness) are carried in the JSON but, like wall
        // clock, never gate the check.
        let base = sample_suite();
        let back = SuiteResult::from_json(&base.to_json()).unwrap();
        assert_eq!(back.summaries[0].wc_max, 4);
        assert!((back.summaries[0].median.mean - 1.5).abs() < 1e-9);
        let mut fresh = base.clone();
        fresh.summaries[0].median.mean = 99.0;
        fresh.summaries[0].wc_max = 77;
        fresh.summaries[0].p99.mean = 88.0;
        assert!(
            diff(&base, &fresh, 0.05).is_empty(),
            "distribution fields must be informational"
        );
    }

    #[test]
    fn reactivated_frac_round_trips_and_is_gated() {
        // Dynamic-mode summaries carry the reactivated-vertex fraction;
        // cold summaries serialize it as `null`. Unlike the distribution
        // fields it is deterministic given the churn seeds, so drift in
        // the mean fails the gate — as does the field appearing or
        // vanishing between baseline and fresh run.
        let mut suite = sample_suite();
        suite.summaries[0].reactivated_frac = Some(Stats::from_samples(&[0.1, 0.3]));
        let back = SuiteResult::from_json(&suite.to_json()).unwrap();
        let r = back.summaries[0].reactivated_frac.as_ref().unwrap();
        assert!((r.mean - 0.2).abs() < 1e-9);
        assert!((r.max - 0.3).abs() < 1e-9);
        assert!(
            back.summaries[1].reactivated_frac.is_none(),
            "null round-trips"
        );
        assert!((back.summaries[0].p99.mean - 4.0).abs() < 1e-9);
        assert!(diff(&suite, &back, 1e-6).is_empty());

        let mut fresh = suite.clone();
        fresh.summaries[0].reactivated_frac = Some(Stats::from_samples(&[0.9]));
        let msgs = diff(&suite, &fresh, 0.05);
        assert!(
            msgs.iter().any(|m| m.contains("reactivated_frac.mean")),
            "{msgs:?}"
        );

        let mut gone = suite.clone();
        gone.summaries[0].reactivated_frac = None;
        let msgs = diff(&suite, &gone, 0.05);
        assert!(
            msgs.iter().any(|m| m.contains("presence changed")),
            "{msgs:?}"
        );
    }

    #[test]
    fn va_perturbation_fails_gate() {
        let base = sample_suite();
        let mut fresh = base.clone();
        fresh.summaries[0].va.mean = 3.5;
        assert!(
            diff(&base, &fresh, 0.05)
                .iter()
                .any(|m| m.contains("va.mean")),
            "VA drift must fail the gate"
        );
    }

    #[test]
    fn diff_flags_phase_and_decay_drift() {
        let base = sample_suite();
        let mut fresh = base.clone();
        fresh.summaries[0].phases[1].round_sum_mean = 1200.0;
        fresh.summaries[0].active_decay[2] = 600.0;
        let msgs = diff(&base, &fresh, 0.05);
        assert!(
            msgs.iter().any(|m| m.contains("phase[arb_linial]")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("active_decay[2]")),
            "{msgs:?}"
        );
        let mut truncated = base.clone();
        truncated.summaries[0].active_decay.pop();
        assert!(
            diff(&base, &truncated, 0.05)
                .iter()
                .any(|m| m.contains("length")),
            "series truncation must be flagged"
        );
    }

    #[test]
    fn schema_version_is_enforced() {
        let text = sample_suite().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        let err = SuiteResult::from_json(&text).unwrap_err();
        assert!(err.contains("schema version"), "{err}");
    }

    #[test]
    fn diff_flags_drift_and_missing_rows() {
        let base = sample_suite();
        let mut fresh = base.clone();
        fresh.summaries[0].va.mean = 3.5; // way past 5% of 2.04
        fresh.summaries.pop();
        let msgs = diff(&base, &fresh, 0.05);
        assert!(msgs.iter().any(|m| m.contains("va.mean")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("missing")), "{msgs:?}");
    }

    #[test]
    fn diff_respects_tolerance() {
        let base = sample_suite();
        let mut fresh = base.clone();
        fresh.summaries[0].va.mean = 2.05; // within 5% of 2.04
        assert!(diff(&base, &fresh, 0.05).is_empty());
    }

    #[test]
    fn diff_flags_config_mismatch() {
        let base = sample_suite();
        let mut fresh = base.clone();
        fresh.seeds = 7;
        let msgs = diff(&base, &fresh, 0.05);
        assert!(msgs.iter().any(|m| m.contains("configuration")), "{msgs:?}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = Json::parse(r#"{"s": "a\"b\\c\ndA Δ"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "a\"b\\c\ndA Δ");
    }
}
