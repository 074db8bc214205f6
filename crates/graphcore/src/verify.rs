//! Verifiers for every solution concept in the paper (§5, §7.8).
//!
//! Each checker returns `Ok(())` or a descriptive `Err(String)` naming a
//! witness of the violation — test failures then point straight at the bug.
//! All checkers are centralized (they see the whole graph); they are the
//! ground truth the distributed protocols are validated against.

use crate::arboricity;
use crate::csr::{Graph, VertexId};
use crate::subgraph::InducedSubgraph;

/// Result type for verifiers.
pub type Check = Result<(), String>;

/// Checks a proper vertex coloring: adjacent vertices get distinct colors,
/// and the number of distinct colors is at most `max_colors` (pass
/// `usize::MAX` to skip the palette-size check).
pub fn proper_vertex_coloring(g: &Graph, colors: &[u64], max_colors: usize) -> Check {
    if colors.len() != g.n() {
        return Err(format!(
            "color vector has {} entries for n={}",
            colors.len(),
            g.n()
        ));
    }
    for (e, (u, v)) in g.edges() {
        if colors[u as usize] == colors[v as usize] {
            return Err(format!(
                "edge {e} = ({u},{v}) is monochromatic with color {}",
                colors[u as usize]
            ));
        }
    }
    let used = count_distinct(colors);
    if used > max_colors {
        return Err(format!("{used} colors used, budget {max_colors}"));
    }
    Ok(())
}

/// Number of distinct values in `xs`.
pub fn count_distinct(xs: &[u64]) -> usize {
    let mut v: Vec<u64> = xs.to_vec();
    v.sort_unstable();
    v.dedup();
    v.len()
}

/// Checks a list coloring: proper and each vertex's color is in its list.
pub fn list_coloring(g: &Graph, colors: &[u64], lists: &[Vec<u64>]) -> Check {
    proper_vertex_coloring(g, colors, usize::MAX)?;
    for v in g.vertices() {
        if !lists[v as usize].contains(&colors[v as usize]) {
            return Err(format!(
                "vertex {v} colored {} outside its list {:?}",
                colors[v as usize], lists[v as usize]
            ));
        }
    }
    Ok(())
}

/// Checks a `d`-defective coloring: every vertex has at most `d` neighbors
/// sharing its color (§7.8: an `⌊a/t⌋`-defective `O(t²)`-coloring).
pub fn defective_coloring(g: &Graph, colors: &[u64], d: usize, max_colors: usize) -> Check {
    if colors.len() != g.n() {
        return Err(format!(
            "color vector has {} entries for n={}",
            colors.len(),
            g.n()
        ));
    }
    for v in g.vertices() {
        let defect = g
            .neighbors(v)
            .iter()
            .filter(|&&u| colors[u as usize] == colors[v as usize])
            .count();
        if defect > d {
            return Err(format!("vertex {v} has defect {defect} > {d}"));
        }
    }
    let used = count_distinct(colors);
    if used > max_colors {
        return Err(format!("{used} colors used, budget {max_colors}"));
    }
    Ok(())
}

/// Checks a `b`-arbdefective `c`-coloring (§7.8): at most `c` colors and
/// every color class induces a subgraph of arboricity ≤ `b`. Arboricity of
/// the class is certified by its degeneracy-based bracket: we require the
/// Nash–Williams lower bound ≤ b (a *sound* check: if the density already
/// exceeds `b` the coloring is definitely invalid; construction-level tests
/// complement this with exact checks on known families).
pub fn arbdefective_coloring(g: &Graph, colors: &[u64], b: usize, max_colors: usize) -> Check {
    let used = count_distinct(colors);
    if used > max_colors {
        return Err(format!("{used} colors used, budget {max_colors}"));
    }
    let mut palette: Vec<u64> = colors.to_vec();
    palette.sort_unstable();
    palette.dedup();
    for c in palette {
        let members: Vec<bool> = colors.iter().map(|&x| x == c).collect();
        let sub = InducedSubgraph::new(g, &members);
        let nw = arboricity::nash_williams_lower_bound(&sub.graph);
        if nw > b {
            return Err(format!(
                "color class {c} has Nash–Williams density {nw} > arbdefect bound {b}"
            ));
        }
    }
    Ok(())
}

/// Checks a proper edge coloring with at most `max_colors` colors:
/// edges sharing an endpoint get distinct colors.
pub fn proper_edge_coloring(g: &Graph, colors: &[u64], max_colors: usize) -> Check {
    if colors.len() != g.m() {
        return Err(format!(
            "edge-color vector has {} entries for m={}",
            colors.len(),
            g.m()
        ));
    }
    for v in g.vertices() {
        let inc = g.incident_edges(v);
        let mut seen: Vec<u64> = inc.iter().map(|&e| colors[e as usize]).collect();
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "vertex {v} has two incident edges colored {}",
                w[0]
            ));
        }
    }
    let used = count_distinct(colors);
    if used > max_colors {
        return Err(format!("{used} edge colors used, budget {max_colors}"));
    }
    Ok(())
}

/// Checks that `in_set` is a maximal independent set.
pub fn maximal_independent_set(g: &Graph, in_set: &[bool]) -> Check {
    if in_set.len() != g.n() {
        return Err(format!(
            "MIS vector has {} entries for n={}",
            in_set.len(),
            g.n()
        ));
    }
    for (e, (u, v)) in g.edges() {
        if in_set[u as usize] && in_set[v as usize] {
            return Err(format!(
                "edge {e} = ({u},{v}) has both endpoints in the set"
            ));
        }
    }
    for v in g.vertices() {
        if !in_set[v as usize] && !g.neighbors(v).iter().any(|&u| in_set[u as usize]) {
            return Err(format!(
                "vertex {v} is outside the set and has no neighbor inside"
            ));
        }
    }
    Ok(())
}

/// Checks that `in_matching` (indexed by edge id) is a maximal matching.
pub fn maximal_matching(g: &Graph, in_matching: &[bool]) -> Check {
    if in_matching.len() != g.m() {
        return Err(format!(
            "matching vector has {} entries for m={}",
            in_matching.len(),
            g.m()
        ));
    }
    // Disjointness: each vertex covered at most once.
    let mut covered = vec![false; g.n()];
    for (e, (u, v)) in g.edges() {
        if in_matching[e as usize] {
            for w in [u, v] {
                if covered[w as usize] {
                    return Err(format!(
                        "vertex {w} covered by two matching edges (edge {e})"
                    ));
                }
                covered[w as usize] = true;
            }
        }
    }
    // Maximality: every non-matching edge touches a covered vertex.
    for (e, (u, v)) in g.edges() {
        if !in_matching[e as usize] && !covered[u as usize] && !covered[v as usize] {
            return Err(format!(
                "edge {e} = ({u},{v}) could be added to the matching"
            ));
        }
    }
    Ok(())
}

/// Checks a forest decomposition given as a per-edge forest label in
/// `0..num_forests` and a per-edge parent endpoint (orientation toward the
/// parent): each label class, restricted to out-edges, must give every
/// vertex out-degree ≤ 1 within the class and contain no cycles — i.e. each
/// class is a forest of out-trees.
pub fn forest_decomposition(
    g: &Graph,
    labels: &[u32],
    heads: &[Option<VertexId>],
    num_forests: usize,
) -> Check {
    if labels.len() != g.m() || heads.len() != g.m() {
        return Err("label/head vectors must have one entry per edge".into());
    }
    for (e, (u, v)) in g.edges() {
        match heads[e as usize] {
            None => return Err(format!("edge {e} is unoriented")),
            Some(h) if h != u && h != v => {
                return Err(format!(
                    "edge {e} = ({u},{v}) has head {h}, not an endpoint"
                ))
            }
            Some(_) => {}
        }
        if labels[e as usize] as usize >= num_forests {
            return Err(format!(
                "edge {e} labeled {} but only {num_forests} forests allowed",
                labels[e as usize]
            ));
        }
    }
    // Out-degree within each label: each vertex has at most one outgoing
    // edge per label, i.e. the labels of its out-edges are distinct.
    let mut out_labels: Vec<u32> = Vec::new();
    for v in g.vertices() {
        out_labels.clear();
        out_labels.extend(
            g.incidences(v)
                .filter(|&(u, e)| heads[e as usize] == Some(u))
                .map(|(_, e)| labels[e as usize]),
        );
        out_labels.sort_unstable();
        if let Some(w) = out_labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "vertex {v} has two outgoing edges labeled {}",
                w[0]
            ));
        }
    }
    // Acyclicity of the whole orientation implies each class is acyclic.
    let orient = crate::orientation::Orientation::from_heads(g, heads);
    if !orient.is_acyclic(g) {
        return Err("orientation contains a directed cycle".into());
    }
    Ok(())
}

/// Checks the H-partition property (§6.1): `h_index[v] = i ≥ 1` for every
/// vertex, and every `v ∈ H_i` has at most `bound` neighbors in
/// `H_i ∪ H_{i+1} ∪ …`.
pub fn h_partition(g: &Graph, h_index: &[u32], bound: usize) -> Check {
    if h_index.len() != g.n() {
        return Err(format!(
            "h_index has {} entries for n={}",
            h_index.len(),
            g.n()
        ));
    }
    for v in g.vertices() {
        if h_index[v as usize] == 0 {
            return Err(format!("vertex {v} was never assigned to an H-set"));
        }
        let i = h_index[v as usize];
        let ahead = g
            .neighbors(v)
            .iter()
            .filter(|&&u| h_index[u as usize] >= i)
            .count();
        if ahead > bound {
            return Err(format!(
                "vertex {v} in H_{i} has {ahead} neighbors in H_≥{i}, bound {bound}"
            ));
        }
    }
    Ok(())
}

/// Convenience: asserts a check passed, printing the witness otherwise.
#[track_caller]
pub fn assert_ok(c: Check) {
    if let Err(msg) = c {
        panic!("verification failed: {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen;

    fn p3() -> Graph {
        gen::path(3)
    }

    #[test]
    fn coloring_accepts_and_rejects() {
        let g = p3();
        assert!(proper_vertex_coloring(&g, &[0, 1, 0], 2).is_ok());
        assert!(proper_vertex_coloring(&g, &[0, 0, 1], 2).is_err());
        assert!(proper_vertex_coloring(&g, &[0, 1, 2], 2).is_err()); // budget
    }

    #[test]
    fn list_coloring_checks_lists() {
        let g = p3();
        let lists = vec![vec![0, 1], vec![1, 2], vec![0]];
        assert!(list_coloring(&g, &[0, 1, 0], &lists).is_ok());
        assert!(list_coloring(&g, &[1, 2, 0], &lists).is_ok());
        assert!(list_coloring(&g, &[0, 2, 1], &lists).is_err()); // 1 ∉ list(2)
    }

    #[test]
    fn defective_coloring_bounds_defect() {
        let g = gen::star(5);
        // All-one color: center has defect 4.
        assert!(defective_coloring(&g, &[7, 7, 7, 7, 7], 4, 1).is_ok());
        assert!(defective_coloring(&g, &[7, 7, 7, 7, 7], 3, 1).is_err());
    }

    #[test]
    fn arbdefective_checks_density() {
        let g = gen::clique(6); // arboricity 3
        let colors = vec![0u64; 6];
        assert!(arbdefective_coloring(&g, &colors, 3, 1).is_ok());
        assert!(arbdefective_coloring(&g, &colors, 2, 1).is_err());
    }

    #[test]
    fn edge_coloring_detects_conflict() {
        let g = p3();
        assert!(proper_edge_coloring(&g, &[0, 1], 2).is_ok());
        assert!(proper_edge_coloring(&g, &[0, 0], 2).is_err());
    }

    #[test]
    fn mis_checks() {
        let g = p3();
        assert!(maximal_independent_set(&g, &[true, false, true]).is_ok());
        assert!(maximal_independent_set(&g, &[true, true, false]).is_err()); // not independent
        assert!(maximal_independent_set(&g, &[true, false, false]).is_err()); // not maximal
        assert!(maximal_independent_set(&g, &[false, true, false]).is_ok());
    }

    #[test]
    fn matching_checks() {
        let g = gen::path(4); // edges 0:(0,1) 1:(1,2) 2:(2,3)
        assert!(maximal_matching(&g, &[true, false, true]).is_ok());
        assert!(maximal_matching(&g, &[false, true, false]).is_ok());
        assert!(maximal_matching(&g, &[true, true, false]).is_err()); // overlap at 1
        assert!(maximal_matching(&g, &[true, false, false]).is_err()); // (2,3) addable
    }

    #[test]
    fn forest_decomposition_valid_path() {
        let g = gen::path(4);
        let heads: Vec<Option<VertexId>> = g.edges().map(|(_, (_, v))| Some(v)).collect();
        let labels = vec![0u32; g.m()];
        assert!(forest_decomposition(&g, &labels, &heads, 1).is_ok());
    }

    #[test]
    fn forest_decomposition_rejects_double_out() {
        // Star center 0 with all edges oriented away from 0, same label:
        // vertex 0 has out-degree 3 in one label.
        let g = gen::star(4);
        let heads: Vec<Option<VertexId>> = g
            .edges()
            .map(|(_, (u, v))| Some(if u == 0 { v } else { u }))
            .collect();
        let labels = vec![0u32; g.m()];
        assert!(forest_decomposition(&g, &labels, &heads, 1).is_err());
        // Distinct labels per out-edge make it valid.
        let labels: Vec<u32> = (0..g.m() as u32).collect();
        assert!(forest_decomposition(&g, &labels, &heads, g.m()).is_ok());
    }

    #[test]
    fn forest_decomposition_rejects_split_repeated_label() {
        // Vertex 1's out-edges (1,0) and (1,3) share label 2 but are not
        // consecutive in edge order: (1,2) sits between them.
        let g = GraphBuilder::new(4).edges([(0, 1), (1, 2), (1, 3)]).build();
        let heads: Vec<Option<VertexId>> = g
            .edges()
            .map(|(_, (u, v))| Some(if u == 1 { v } else { u }))
            .collect();
        let label = |a, b| g.edge_between(a, b).unwrap() as usize;
        let mut labels = vec![0u32; g.m()];
        labels[label(0, 1)] = 2;
        labels[label(1, 2)] = 1;
        labels[label(1, 3)] = 2;
        let err = forest_decomposition(&g, &labels, &heads, 3).unwrap_err();
        assert!(err.contains("vertex 1"), "{err}");
        labels[label(1, 3)] = 0;
        assert!(forest_decomposition(&g, &labels, &heads, 3).is_ok());
    }

    #[test]
    fn forest_decomposition_many_forests() {
        // A 101-vertex star oriented away from its center: distinct labels
        // 0..99 are valid, and one repeated label ≥ 64 is caught.
        let g = gen::star(101);
        let heads: Vec<Option<VertexId>> = g
            .edges()
            .map(|(_, (u, v))| Some(if u == 0 { v } else { u }))
            .collect();
        let mut labels: Vec<u32> = (0..g.m() as u32).collect();
        assert!(forest_decomposition(&g, &labels, &heads, 100).is_ok());
        labels[3] = 97;
        labels[80] = 97;
        let err = forest_decomposition(&g, &labels, &heads, 100).unwrap_err();
        assert!(err.contains("labeled 97"), "{err}");
    }

    #[test]
    fn forest_decomposition_rejects_foreign_head() {
        let g = gen::path(3);
        let heads = vec![Some(2), Some(2)];
        let err = forest_decomposition(&g, &[0, 1], &heads, 2).unwrap_err();
        assert!(err.contains("not an endpoint"), "{err}");
    }

    #[test]
    fn forest_decomposition_rejects_directed_cycle() {
        // 0 → 1 → 2 → 0 with distinct labels: every out-degree is 1, but
        // the orientation is cyclic.
        let g = GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build();
        let mut heads = vec![None; g.m()];
        heads[g.edge_between(0, 1).unwrap() as usize] = Some(1);
        heads[g.edge_between(1, 2).unwrap() as usize] = Some(2);
        heads[g.edge_between(0, 2).unwrap() as usize] = Some(0);
        let labels: Vec<u32> = (0..g.m() as u32).collect();
        let err = forest_decomposition(&g, &labels, &heads, 3).unwrap_err();
        assert!(err.contains("directed cycle"), "{err}");
    }

    #[test]
    fn h_partition_property() {
        // Path 0-1-2: H_1 = {0,2}, H_2 = {1}, bound 2.
        let g = p3();
        assert!(h_partition(&g, &[1, 2, 1], 2).is_ok());
        assert!(h_partition(&g, &[1, 0, 1], 2).is_err()); // unassigned
                                                          // Clique with everyone in H_1, bound 1: each vertex sees 2 ahead.
        let k = GraphBuilder::new(3).edges([(0, 1), (1, 2), (0, 2)]).build();
        assert!(h_partition(&k, &[1, 1, 1], 1).is_err());
        assert!(h_partition(&k, &[1, 1, 1], 2).is_ok());
    }
}
