//! §7.8's Procedures Partial-Orientation and Arbdefective-Coloring
//! (Algorithms 1–2 of the paper), standalone.
//!
//! A `b`-arbdefective `c`-coloring assigns one of `c` colors to every
//! vertex such that each color class induces a subgraph of arboricity at
//! most `b`. The paper's recipe: H-partition the graph, color each
//! `G(H_i)` (the paper uses an `⌊a/t⌋`-defective `O(t²)`-coloring; we use
//! the *proper* in-set `(A+1)`-coloring — 0-defective, hence strictly
//! stronger, see DESIGN.md), orient every edge toward the higher
//! (set, color) pair — Procedure Partial-Orientation, here a *total*
//! acyclic orientation of out-degree ≤ `A` — and then have each vertex
//! wait for its parents and take the group least used among them
//! (Procedure Arbdefective-Coloring). With `k` groups, the per-group
//! out-degree is ≤ `⌊A/k⌋`, so each group's arboricity is ≤ `⌊A/k⌋`.
//!
//! This is the splitting engine of Procedure One-Plus-Eta-Arb-Col
//! ([`crate::one_plus_eta`] embeds a level-windowed copy); the standalone
//! protocol is exposed for direct use and direct testing against
//! [`graphcore::verify::arbdefective_coloring`].
//!
//! The [`Cascade`] driver runs the scheme; this module keeps the rule: an
//! open window (a vertex also waits for neighbors still partitioning,
//! which will join later sets) and the least-used group.

use crate::inset::{Cascade, CascadeRule};
use crate::segmentation::Shape;

/// The Arbdefective-Coloring rule.
#[derive(Debug)]
pub struct ArbdefectiveRule {
    /// Number of groups (the paper's `k`).
    pub k: u32,
}

impl CascadeRule for ArbdefectiveRule {
    type Pick = u32;
    type Output = u32;

    fn shape(&self) -> Shape {
        Shape::Open
    }

    fn pick(&self, _: usize, _: u32, parents: impl Iterator<Item = u32>) -> (u32, u32) {
        let mut counts = vec![0u32; self.k as usize];
        for g in parents {
            counts[g as usize] += 1;
        }
        let g = counts
            .iter()
            .enumerate()
            .min_by_key(|&(_, c)| *c)
            .map(|(i, _)| i as u32)
            .expect("k ≥ 1 groups");
        (g, g)
    }
}

/// Procedure Arbdefective-Coloring: splits the graph into `k` groups of
/// arboricity ≤ `⌊A/k⌋` each.
pub type ArbdefectiveColoring = Cascade<ArbdefectiveRule>;

impl ArbdefectiveColoring {
    /// Instance with `k` groups.
    pub fn new(arboricity: usize, k: u32) -> Self {
        assert!(k >= 1);
        Cascade::with_rule(arboricity, ArbdefectiveRule { k })
    }

    /// Arbdefect guarantee: every group has arboricity ≤ `⌊A/k⌋`.
    pub fn arbdefect(&self) -> usize {
        self.cap() / self.rule.k as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify, Graph, IdAssignment};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run_and_verify(g: &Graph, a: usize, k: u32) {
        let p = ArbdefectiveColoring::new(a, k);
        let ids = IdAssignment::identity(g.n());
        let out = simlocal::Runner::new(&p, g, &ids).run().unwrap();
        let colors: Vec<u64> = out.outputs.iter().map(|&g| g as u64).collect();
        verify::assert_ok(verify::arbdefective_coloring(
            g,
            &colors,
            p.arbdefect(),
            k as usize,
        ));
        out.metrics.check_identities().unwrap();
    }

    #[test]
    fn splits_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(400);
        for (a, k) in [(4usize, 4u32), (4, 8), (8, 4)] {
            let gg = gen::forest_union(500, a, &mut rng);
            run_and_verify(&gg.graph, a, k);
        }
    }

    #[test]
    fn k_one_is_trivial_split() {
        // One group: arbdefect bound is A itself — trivially valid.
        let mut rng = ChaCha8Rng::seed_from_u64(401);
        let gg = gen::forest_union(200, 2, &mut rng);
        run_and_verify(&gg.graph, 2, 1);
    }

    #[test]
    fn large_k_gives_arboricity_zero_groups() {
        // k > A: every group must be an independent-ish set (arboricity
        // 0 = no edges inside a group).
        let mut rng = ChaCha8Rng::seed_from_u64(402);
        let gg = gen::forest_union(300, 2, &mut rng);
        let p = ArbdefectiveColoring::new(2, 64);
        assert_eq!(p.arbdefect(), 0);
        let ids = IdAssignment::identity(300);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        let colors: Vec<u64> = out.outputs.iter().map(|&g| g as u64).collect();
        // Arbdefect 0 means the coloring is a *proper* coloring.
        verify::assert_ok(verify::proper_vertex_coloring(&gg.graph, &colors, 64));
    }

    #[test]
    fn groups_feed_recursion() {
        // The one_plus_eta contract: the largest group is strictly
        // sparser than the input (arboricity ≤ A/k < a for k > (2+ε)).
        let mut rng = ChaCha8Rng::seed_from_u64(403);
        let gg = gen::forest_union(800, 8, &mut rng);
        let p = ArbdefectiveColoring::new(8, 20);
        assert!(p.arbdefect() < 8);
        let ids = IdAssignment::identity(800);
        let out = simlocal::Runner::new(&p, &gg.graph, &ids).run().unwrap();
        for g_idx in 0..20u32 {
            let members: Vec<bool> = out.outputs.iter().map(|&g| g == g_idx).collect();
            let sub = graphcore::InducedSubgraph::new(&gg.graph, &members);
            let nw = graphcore::arboricity::nash_williams_lower_bound(&sub.graph);
            assert!(nw <= p.arbdefect(), "group {g_idx} too dense: NW={nw}");
        }
    }
}
