//! Plain-text graph serialization and file ingestion.
//!
//! Three formats:
//!
//! * **edge list** — one `u v` pair per line, `#`-comments allowed; the
//!   header line `n <count>` pins the vertex count (isolated vertices
//!   would otherwise be lost);
//! * **DIMACS-like** — `p edge <n> <m>` header and `e u v` lines with
//!   1-based endpoints, for interchange with classic graph tooling;
//! * **Matrix Market** — `%%MatrixMarket matrix coordinate …` banner and
//!   1-based `i j [val]` coordinate lines, the de-facto interchange format
//!   of the SuiteSparse collection.
//!
//! All round-trip through [`crate::Graph`]; parse errors carry the line
//! number.
//!
//! Real-world files are rarely simple graphs, so the strict parsers are
//! complemented by an ingestion path: [`parse_raw`] reads any of the three
//! formats *leniently* (self-loops and parallel edges allowed) into a
//! [`RawGraph`], and [`normalize`] turns that into a simple [`Graph`]
//! plus an [`IngestReport`] recording what was dropped and the realized
//! arboricity bracket of what remains. [`ingest_path`] bundles format
//! sniffing, lenient parsing, and normalization for workload loading.

use crate::arboricity::{self, ArboricityEstimate};
use crate::builder::GraphBuilder;
use crate::csr::{Graph, VertexId};
use std::fmt::Write as _;
use std::path::Path;

/// Serializes a graph as an edge list with an `n` header.
pub fn to_edge_list(g: &Graph) -> String {
    let mut s = String::with_capacity(16 + g.m() * 8);
    let _ = writeln!(s, "n {}", g.n());
    for (_, (u, v)) in g.edges() {
        let _ = writeln!(s, "{u} {v}");
    }
    s
}

/// Parses the edge-list format produced by [`to_edge_list`]: the
/// `n <count>` header comes first; out-of-range endpoints and self-loops
/// are errors naming their line.
pub fn from_edge_list(text: &str) -> Result<Graph, String> {
    raw_from_edge_list(text, true).map(build)
}

/// Serializes in DIMACS-like format (1-based endpoints).
pub fn to_dimacs(g: &Graph) -> String {
    let mut s = String::with_capacity(32 + g.m() * 10);
    let _ = writeln!(s, "p edge {} {}", g.n(), g.m());
    for (_, (u, v)) in g.edges() {
        let _ = writeln!(s, "e {} {}", u + 1, v + 1);
    }
    s
}

/// Parses the DIMACS-like format produced by [`to_dimacs`]; out-of-range
/// endpoints and self-loops are errors naming their line.
pub fn from_dimacs(text: &str) -> Result<Graph, String> {
    raw_from_dimacs(text, true).map(build)
}

/// Serializes in Matrix Market coordinate format (`pattern symmetric`,
/// 1-based, lower triangle: each undirected edge appears once with
/// row > column).
pub fn to_matrix_market(g: &Graph) -> String {
    let mut s = String::with_capacity(64 + g.m() * 10);
    s.push_str("%%MatrixMarket matrix coordinate pattern symmetric\n");
    let _ = writeln!(s, "{} {} {}", g.n(), g.n(), g.m());
    for (_, (u, v)) in g.edges() {
        // Edges are stored with u < v; emit (v+1, u+1) so row > column.
        let _ = writeln!(s, "{} {}", v + 1, u + 1);
    }
    s
}

/// Parses Matrix Market coordinate files as produced by
/// [`to_matrix_market`] (and by the wider ecosystem: `real`/`integer`
/// fields are accepted with their values ignored, `general` symmetry is
/// accepted with mirrored entries deduplicated).
///
/// Strict like the other parsers: self-loops (diagonal entries) and
/// out-of-range endpoints are errors carrying the line number. Use
/// [`parse_raw`]/[`normalize`] for files that need cleaning.
pub fn from_matrix_market(text: &str) -> Result<Graph, String> {
    raw_from_matrix_market(text, true).map(build)
}

/// The simple graph of a strictly parsed [`RawGraph`] (no self-loops;
/// parallel edges collapse in the builder).
fn build(raw: RawGraph) -> Graph {
    let mut b = GraphBuilder::new(raw.n);
    for (u, v) in raw.edges {
        b.push(u, v);
    }
    b.build()
}

// ---------------------------------------------------------------------
// Lenient parsing + normalization (the ingestion path).
// ---------------------------------------------------------------------

/// A parsed-but-unvalidated graph: endpoints are range-checked, but
/// self-loops and parallel edges are preserved for [`normalize`] to
/// count and drop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawGraph {
    /// Declared vertex count (below `u32::MAX`; endpoints are all `< n`).
    pub n: usize,
    /// Edge multiset as listed in the file, orientation-normalized
    /// (`u ≤ v`) but otherwise untouched.
    pub edges: Vec<(VertexId, VertexId)>,
}

/// The on-disk formats the ingestion path understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileFormat {
    /// `n <count>` header + `u v` lines (0-based).
    EdgeList,
    /// `p edge n m` header + `e u v` lines (1-based).
    Dimacs,
    /// `%%MatrixMarket` banner + `i j [val]` lines (1-based).
    MatrixMarket,
}

impl FileFormat {
    /// Guesses the format from the file name and the first non-blank
    /// line. `.mtx` / a `%%MatrixMarket` banner → Matrix Market; a
    /// `p edge`/`c` DIMACS prelude or `.col`/`.dimacs` → DIMACS;
    /// everything else → edge list.
    pub fn sniff(path: &Path, text: &str) -> FileFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some("mtx") => return FileFormat::MatrixMarket,
            Some("col") | Some("dimacs") => return FileFormat::Dimacs,
            _ => {}
        }
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with("%%MatrixMarket") {
                return FileFormat::MatrixMarket;
            }
            if line.starts_with("p edge") || line.starts_with("p col") {
                return FileFormat::Dimacs;
            }
            if line.starts_with('c') && !line.starts_with('#') {
                continue; // DIMACS comment prelude — keep scanning.
            }
            break;
        }
        FileFormat::EdgeList
    }

    /// Human-readable name, for reports and `--list` output.
    pub fn label(self) -> &'static str {
        match self {
            FileFormat::EdgeList => "edge-list",
            FileFormat::Dimacs => "dimacs",
            FileFormat::MatrixMarket => "matrix-market",
        }
    }
}

/// Parses `text` leniently in the given format: format and range errors
/// still fail with line numbers, but self-loops and duplicate edges are
/// kept for [`normalize`] to report.
pub fn parse_raw(text: &str, fmt: FileFormat) -> Result<RawGraph, String> {
    match fmt {
        FileFormat::EdgeList => raw_from_edge_list(text, false),
        FileFormat::Dimacs => raw_from_dimacs(text, false),
        FileFormat::MatrixMarket => raw_from_matrix_market(text, false),
    }
}

/// Parses the vertex count declared on line `lineno` (0-based). It must
/// fit the `u32` vertex index space, whose last value [`GraphBuilder`]
/// reserves — which also makes every 1-based index `≤ n` convert to a
/// [`VertexId`] without truncation.
fn vertex_count(tok: &str, lineno: usize) -> Result<usize, String> {
    let n: usize = tok
        .parse()
        .map_err(|e| format!("line {}: bad vertex count: {e}", lineno + 1))?;
    if n >= u32::MAX as usize {
        return Err(format!(
            "line {}: vertex count {n} exceeds the u32 vertex index space",
            lineno + 1
        ));
    }
    Ok(n)
}

/// Records edge `{u, v}` from line `lineno` (0-based). Strict parsing
/// rejects a self-loop; lenient parsing keeps it for [`normalize`].
fn push_edge(
    edges: &mut Vec<(VertexId, VertexId)>,
    lineno: usize,
    (u, v): (VertexId, VertexId),
    strict: bool,
) -> Result<(), String> {
    if strict && u == v {
        return Err(format!("line {}: self-loop {u}", lineno + 1));
    }
    edges.push(orient(u, v));
    Ok(())
}

fn orient(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

fn raw_from_edge_list(text: &str, strict: bool) -> Result<RawGraph, String> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("n") => {
                let val = it
                    .next()
                    .ok_or_else(|| format!("line {}: missing vertex count", lineno + 1))?;
                n = Some(vertex_count(val, lineno)?);
            }
            Some(tok) => {
                let u: VertexId = tok
                    .parse()
                    .map_err(|e| format!("line {}: bad endpoint: {e}", lineno + 1))?;
                let v: VertexId = it
                    .next()
                    .ok_or_else(|| format!("line {}: missing second endpoint", lineno + 1))?
                    .parse()
                    .map_err(|e| format!("line {}: bad endpoint: {e}", lineno + 1))?;
                let n = n.ok_or_else(|| {
                    format!("line {}: edge before the `n <count>` header", lineno + 1)
                })?;
                if (u as usize) >= n || (v as usize) >= n {
                    return Err(format!(
                        "line {}: endpoint out of range for n={n}",
                        lineno + 1
                    ));
                }
                push_edge(&mut edges, lineno, (u, v), strict)?;
            }
            None => unreachable!("non-empty line yields a token"),
        }
    }
    let n = n.ok_or("missing `n <count>` header")?;
    Ok(RawGraph { n, edges })
}

fn raw_from_dimacs(text: &str, strict: bool) -> Result<RawGraph, String> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["p", "edge", nn, _m] => n = Some(vertex_count(nn, lineno)?),
            ["e", u, v] => {
                let n = n.ok_or_else(|| format!("line {}: edge before header", lineno + 1))?;
                let u: u64 = u
                    .parse()
                    .map_err(|e| format!("line {}: bad u: {e}", lineno + 1))?;
                let v: u64 = v
                    .parse()
                    .map_err(|e| format!("line {}: bad v: {e}", lineno + 1))?;
                if u == 0 || v == 0 {
                    return Err(format!("line {}: DIMACS endpoints are 1-based", lineno + 1));
                }
                if u as usize > n || v as usize > n {
                    return Err(format!(
                        "line {}: endpoint out of range for n={n}",
                        lineno + 1
                    ));
                }
                let e = ((u - 1) as VertexId, (v - 1) as VertexId);
                push_edge(&mut edges, lineno, e, strict)?;
            }
            _ => return Err(format!("line {}: unrecognized: {line}", lineno + 1)),
        }
    }
    let n = n.ok_or("missing `p edge` header")?;
    Ok(RawGraph { n, edges })
}

fn raw_from_matrix_market(text: &str, strict: bool) -> Result<RawGraph, String> {
    let mut lines = text.lines().enumerate();
    let (_, banner) = lines
        .next()
        .ok_or("empty file: missing %%MatrixMarket banner")?;
    let toks: Vec<&str> = banner.split_whitespace().collect();
    if toks.len() < 5 || toks[0] != "%%MatrixMarket" {
        return Err("line 1: missing `%%MatrixMarket` banner".into());
    }
    // Case-insensitive per the spec: `matrix coordinate <field> <symmetry>`.
    let lower: Vec<String> = toks[1..5].iter().map(|t| t.to_ascii_lowercase()).collect();
    if lower[0] != "matrix" || lower[1] != "coordinate" {
        return Err(format!(
            "line 1: only `matrix coordinate` supported, got `{} {}`",
            toks[1], toks[2]
        ));
    }
    match lower[2].as_str() {
        "pattern" | "real" | "integer" => {}
        f => return Err(format!("line 1: unsupported field `{f}`")),
    }
    match lower[3].as_str() {
        "symmetric" | "general" => {}
        s => return Err(format!("line 1: unsupported symmetry `{s}`")),
    }
    // Dimension line: first non-comment line after the banner.
    let mut dims: Option<(usize, usize)> = None;
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for (lineno, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match dims {
            None => {
                if toks.len() != 3 {
                    return Err(format!(
                        "line {}: expected `rows cols nnz` dimensions",
                        lineno + 1
                    ));
                }
                let rows = vertex_count(toks[0], lineno)?;
                let cols: usize = toks[1]
                    .parse()
                    .map_err(|e| format!("line {}: bad column count: {e}", lineno + 1))?;
                if rows != cols {
                    return Err(format!(
                        "line {}: adjacency matrix must be square ({rows}×{cols})",
                        lineno + 1
                    ));
                }
                dims = Some((rows, cols));
            }
            Some((n, _)) => {
                if toks.len() < 2 {
                    return Err(format!("line {}: missing column index", lineno + 1));
                }
                let i: u64 = toks[0]
                    .parse()
                    .map_err(|e| format!("line {}: bad row index: {e}", lineno + 1))?;
                let j: u64 = toks[1]
                    .parse()
                    .map_err(|e| format!("line {}: bad column index: {e}", lineno + 1))?;
                if i == 0 || j == 0 {
                    return Err(format!(
                        "line {}: Matrix Market indices are 1-based",
                        lineno + 1
                    ));
                }
                if i as usize > n || j as usize > n {
                    return Err(format!("line {}: index out of range for n={n}", lineno + 1));
                }
                let e = ((i - 1) as VertexId, (j - 1) as VertexId);
                push_edge(&mut edges, lineno, e, strict)?;
            }
        }
    }
    let (n, _) = dims.ok_or("missing dimension line after the banner")?;
    Ok(RawGraph { n, edges })
}

/// Options for [`normalize`].
#[derive(Clone, Copy, Debug, Default)]
pub struct NormalizeOptions {
    /// Keep only the largest connected component, relabeling its vertices
    /// compactly (ties broken by lowest original vertex id).
    pub largest_component: bool,
}

/// What ingestion found and did: raw vs kept sizes, dropped junk, the
/// component structure, and the realized arboricity bracket of the kept
/// graph (the `a` that parameterizes every algorithm in the suite).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReport {
    /// Vertex count declared by the file.
    pub n_raw: usize,
    /// Edge lines in the file (before any cleaning).
    pub m_raw: usize,
    /// Self-loops dropped.
    pub self_loops: usize,
    /// Parallel duplicates dropped (beyond the first copy of each edge).
    pub duplicates: usize,
    /// Connected components of the cleaned graph (isolated vertices count).
    pub components: usize,
    /// Vertices kept after normalization.
    pub n: usize,
    /// Edges kept after normalization.
    pub m: usize,
    /// Realized arboricity bracket of the kept graph (Nash–Williams lower
    /// bound, degeneracy upper bound).
    pub arboricity: ArboricityEstimate,
}

/// Normalizes a [`RawGraph`] into a simple [`Graph`]: drops self-loops,
/// deduplicates parallel edges, optionally restricts to the largest
/// connected component, and reports the realized arboricity bracket.
pub fn normalize(raw: &RawGraph, opts: NormalizeOptions) -> (Graph, IngestReport) {
    let n_raw = raw.n;
    let m_raw = raw.edges.len();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(m_raw);
    let mut self_loops = 0usize;
    for &(u, v) in &raw.edges {
        if u == v {
            self_loops += 1;
        } else {
            edges.push(orient(u, v));
        }
    }
    edges.sort_unstable();
    let before = edges.len();
    edges.dedup();
    let duplicates = before - edges.len();

    // Union-find over the cleaned edges for the component census.
    let mut parent: Vec<u32> = (0..n_raw as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for &(u, v) in &edges {
        let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
        if ru != rv {
            parent[ru.max(rv) as usize] = ru.min(rv);
        }
    }
    let mut comp_size = vec![0usize; n_raw];
    for v in 0..n_raw as u32 {
        comp_size[find(&mut parent, v) as usize] += 1;
    }
    let components = comp_size.iter().filter(|&&s| s > 0).count();

    let (n, kept_edges) = if opts.largest_component && n_raw > 0 {
        // Lowest-root tie-break: max_by_key keeps the *last* max, so scan
        // for the first root achieving the maximum size instead.
        let best = comp_size.iter().copied().max().unwrap_or(0);
        let root = comp_size.iter().position(|&s| s == best).unwrap() as u32;
        let mut relabel = vec![u32::MAX; n_raw];
        let mut next = 0u32;
        for v in 0..n_raw as u32 {
            if find(&mut parent, v) == root {
                relabel[v as usize] = next;
                next += 1;
            }
        }
        let kept = edges
            .iter()
            .filter(|&&(u, _)| relabel[u as usize] != u32::MAX)
            .map(|&(u, v)| (relabel[u as usize], relabel[v as usize]))
            .collect();
        (next as usize, kept)
    } else {
        (n_raw, edges)
    };

    let mut b = GraphBuilder::new(n);
    for (u, v) in &kept_edges {
        b.push(*u, *v);
    }
    let g = b.build();
    let report = IngestReport {
        n_raw,
        m_raw,
        self_loops,
        duplicates,
        components,
        n: g.n(),
        m: g.m(),
        arboricity: arboricity::estimate(&g),
    };
    (g, report)
}

/// Loads, sniffs, leniently parses, and normalizes a graph file.
pub fn ingest_path(path: &Path, opts: NormalizeOptions) -> Result<(Graph, IngestReport), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let fmt = FileFormat::sniff(path, &text);
    let raw = parse_raw(&text, fmt).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(normalize(&raw, opts))
}

/// FNV-1a 64-bit content hash, used to key file-backed workloads by what
/// the file *contained*, not just where it lived.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::grid(5, 7);
        let text = to_edge_list(&g);
        let back = from_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_preserves_isolated_vertices() {
        let g = crate::GraphBuilder::new(5).edges([(0, 4)]).build();
        let back = from_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(back.n(), 5);
        assert_eq!(back.m(), 1);
    }

    #[test]
    fn edge_list_comments_and_blanks() {
        let g = from_edge_list("# comment\n\nn 3\n0 1\n# another\n1 2\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn edge_list_errors() {
        assert!(from_edge_list("0 1\n").is_err()); // no header
        assert!(from_edge_list("n 2\n0 5\n").is_err()); // out of range
        assert!(from_edge_list("n 2\n1 1\n").is_err()); // self-loop
        assert!(from_edge_list("n x\n").is_err()); // bad count
        assert!(from_edge_list("n 2\n0\n").is_err()); // missing endpoint
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = gen::cycle(9);
        let back = from_dimacs(&to_dimacs(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn dimacs_errors() {
        assert!(from_dimacs("e 1 2\n").is_err()); // edge before header
        assert!(from_dimacs("p edge 3 1\ne 0 1\n").is_err()); // 0-based
        assert!(from_dimacs("p edge 3 1\nq 1 2\n").is_err()); // unknown line
    }

    #[test]
    fn dimacs_rejects_out_of_range_endpoint() {
        let e = from_dimacs("p edge 3 1\ne 1 9\n").unwrap_err();
        assert!(e.contains("line 2") && e.contains("out of range"), "{e}");
    }

    #[test]
    fn dimacs_rejects_self_loop_but_lenient_parse_keeps_it() {
        let text = "p edge 3 1\ne 2 2\n";
        let e = from_dimacs(text).unwrap_err();
        assert!(e.contains("line 2") && e.contains("self-loop"), "{e}");
        let raw = parse_raw(text, FileFormat::Dimacs).unwrap();
        assert_eq!(raw.edges, vec![(1, 1)]);
    }

    #[test]
    fn vertex_count_beyond_u32_index_space_is_an_error() {
        // u32::MAX itself is reserved by the builder; 2^32 would be
        // truncated by a cast. Every parser, strict and lenient, names
        // the header line instead of panicking or truncating.
        for n in ["4294967295", "4294967296"] {
            let el = format!("n {n}\n");
            let dimacs = format!("p edge {n} 0\n");
            let mm = format!("%%MatrixMarket matrix coordinate pattern general\n{n} {n} 0\n");
            let results = [
                ("edge list", from_edge_list(&el).map(|_| ()), "line 1"),
                ("dimacs", from_dimacs(&dimacs).map(|_| ()), "line 1"),
                (
                    "matrix market",
                    from_matrix_market(&mm).map(|_| ()),
                    "line 2",
                ),
                (
                    "raw edge list",
                    parse_raw(&el, FileFormat::EdgeList).map(|_| ()),
                    "line 1",
                ),
                (
                    "raw dimacs",
                    parse_raw(&dimacs, FileFormat::Dimacs).map(|_| ()),
                    "line 1",
                ),
                (
                    "raw mm",
                    parse_raw(&mm, FileFormat::MatrixMarket).map(|_| ()),
                    "line 2",
                ),
            ];
            for (what, res, line) in results {
                let e = res.unwrap_err();
                assert!(
                    e.contains(line) && e.contains("vertex count"),
                    "{what}: {e}"
                );
            }
        }
    }

    #[test]
    fn lenient_parsers_never_truncate_wide_indices() {
        // Index 2^32 + 1 is in range for a declared n of 2^32 + 2, and
        // would cast to vertex 0; the header is rejected first.
        let e = parse_raw("p edge 4294967298 1\ne 4294967297 2\n", FileFormat::Dimacs).unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        let mm = "%%MatrixMarket matrix coordinate pattern general\n\
                  4294967298 4294967298 1\n4294967297 2\n";
        let e = parse_raw(mm, FileFormat::MatrixMarket).unwrap_err();
        assert!(e.contains("line 2"), "{e}");
    }

    #[test]
    fn matrix_market_roundtrip() {
        let g = gen::grid(4, 6);
        let text = to_matrix_market(&g);
        assert!(text.starts_with("%%MatrixMarket matrix coordinate pattern symmetric"));
        let back = from_matrix_market(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn matrix_market_general_symmetry_mirrors_dedup() {
        // A `general` file listing both (i,j) and (j,i) is one edge.
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    % comment\n3 3 2\n1 2\n2 1\n";
        let g = from_matrix_market(text).unwrap();
        assert_eq!((g.n(), g.m()), (3, 1));
    }

    #[test]
    fn matrix_market_real_field_values_ignored() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 1\n2 1 3.5\n";
        let g = from_matrix_market(text).unwrap();
        assert_eq!((g.n(), g.m()), (2, 1));
    }

    #[test]
    fn matrix_market_errors_carry_line_numbers() {
        // Malformed banner.
        let e = from_matrix_market("%%MatrixMarket array real general\n2 2 1\n").unwrap_err();
        assert!(e.contains("line 1"), "{e}");
        // Non-square dims.
        let e =
            from_matrix_market("%%MatrixMarket matrix coordinate pattern symmetric\n2 3 1\n1 2\n")
                .unwrap_err();
        assert!(e.contains("line 2") && e.contains("square"), "{e}");
        // Out-of-range endpoint, with its line number.
        let e =
            from_matrix_market("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 3\n")
                .unwrap_err();
        assert!(e.contains("line 3") && e.contains("out of range"), "{e}");
        // 0-based index.
        let e =
            from_matrix_market("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n0 1\n")
                .unwrap_err();
        assert!(e.contains("line 3") && e.contains("1-based"), "{e}");
        // Diagonal entry (self-loop) rejected by the strict parser.
        assert!(from_matrix_market(
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 1\n"
        )
        .is_err());
        // Missing dimension line.
        assert!(
            from_matrix_market("%%MatrixMarket matrix coordinate pattern symmetric\n").is_err()
        );
    }

    #[test]
    fn sniff_by_extension_and_content() {
        use std::path::PathBuf;
        let p = |s: &str| PathBuf::from(s);
        assert_eq!(FileFormat::sniff(&p("g.mtx"), ""), FileFormat::MatrixMarket);
        assert_eq!(FileFormat::sniff(&p("g.col"), ""), FileFormat::Dimacs);
        assert_eq!(
            FileFormat::sniff(
                &p("g.txt"),
                "%%MatrixMarket matrix coordinate pattern general\n"
            ),
            FileFormat::MatrixMarket
        );
        assert_eq!(
            FileFormat::sniff(&p("g.txt"), "c road net\np edge 4 2\n"),
            FileFormat::Dimacs
        );
        assert_eq!(
            FileFormat::sniff(&p("g.txt"), "n 4\n0 1\n"),
            FileFormat::EdgeList
        );
    }

    #[test]
    fn normalize_cleans_and_reports() {
        // 6 vertices, a triangle 0-1-2 with junk, an edge 3-4, isolated 5.
        let raw = RawGraph {
            n: 6,
            edges: vec![(0, 1), (1, 0), (1, 2), (0, 2), (2, 2), (3, 4), (0, 1)],
        };
        let (g, rep) = normalize(&raw, NormalizeOptions::default());
        assert_eq!((g.n(), g.m()), (6, 4));
        assert_eq!(rep.self_loops, 1);
        assert_eq!(rep.duplicates, 2);
        assert_eq!(rep.components, 3);
        assert_eq!(rep.arboricity.lower, 2); // the triangle
        let (g, rep) = normalize(
            &raw,
            NormalizeOptions {
                largest_component: true,
            },
        );
        assert_eq!((g.n(), g.m()), (3, 3), "largest component is the triangle");
        assert_eq!(rep.n_raw, 6);
        assert!(g.check_invariants());
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let a = content_hash(b"n 2\n0 1\n");
        assert_eq!(a, content_hash(b"n 2\n0 1\n"));
        assert_ne!(a, content_hash(b"n 2\n1 0\n"));
        // Pinned FNV-1a value so the workload cache key is stable across
        // sessions (results baselines depend on it only via equality, but
        // a silent hash change should still be loud).
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
    }
}

#[cfg(test)]
mod roundtrip_props {
    use super::*;
    use crate::GraphBuilder;
    use proptest::prelude::*;

    /// Arbitrary small simple graph: n ∈ [1, 24], edge set drawn from the
    /// n(n−1)/2 possible pairs.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (1usize..24).prop_flat_map(|n| {
            let pairs = n * n.saturating_sub(1) / 2;
            proptest::collection::vec(0..pairs.max(1), 0..40).prop_map(move |picks| {
                let mut b = GraphBuilder::new(n);
                for p in picks {
                    // Unrank pair index p into (u, v), u < v.
                    let mut idx = p % pairs.max(1);
                    if pairs == 0 {
                        continue;
                    }
                    let mut u = 0usize;
                    let mut row = n - 1;
                    while idx >= row {
                        idx -= row;
                        u += 1;
                        row -= 1;
                    }
                    let v = u + 1 + idx;
                    b.push(u as VertexId, v as VertexId);
                }
                b.build()
            })
        })
    }

    proptest! {
        // Every format round-trips every small simple graph, and chaining
        // formats (edge-list → DIMACS → Matrix Market) is lossless too.
        #[test]
        fn all_formats_roundtrip(g in arb_graph()) {
            let via_el = from_edge_list(&to_edge_list(&g)).unwrap();
            prop_assert_eq!(&via_el, &g);
            let via_dimacs = from_dimacs(&to_dimacs(&via_el)).unwrap();
            prop_assert_eq!(&via_dimacs, &g);
            let via_mm = from_matrix_market(&to_matrix_market(&via_dimacs)).unwrap();
            prop_assert_eq!(&via_mm, &g);
        }

        // The lenient parsers agree with the strict ones on clean input.
        #[test]
        fn raw_parse_matches_strict_on_clean_input(g in arb_graph()) {
            for (fmt, text) in [
                (FileFormat::EdgeList, to_edge_list(&g)),
                (FileFormat::Dimacs, to_dimacs(&g)),
                (FileFormat::MatrixMarket, to_matrix_market(&g)),
            ] {
                let raw = parse_raw(&text, fmt).unwrap();
                let (norm, rep) = normalize(&raw, NormalizeOptions::default());
                prop_assert_eq!(&norm, &g, "format {}", fmt.label());
                prop_assert_eq!(rep.self_loops, 0);
                prop_assert_eq!(rep.duplicates, 0);
            }
        }

        // Normalization is idempotent: a normalized graph re-normalizes
        // to itself with a clean report.
        #[test]
        fn normalize_idempotent(g in arb_graph()) {
            let raw = RawGraph { n: g.n(), edges: g.edges().map(|(_, e)| e).collect() };
            let (once, _) = normalize(&raw, NormalizeOptions::default());
            let raw2 = RawGraph { n: once.n(), edges: once.edges().map(|(_, e)| e).collect() };
            let (twice, rep) = normalize(&raw2, NormalizeOptions::default());
            prop_assert_eq!(&twice, &once);
            prop_assert_eq!(rep.self_loops + rep.duplicates, 0);
        }
    }
}
