//! Procedure Partition (§6.1) — the basic building block.
//!
//! Input: a graph `G`, its arboricity `a`, and `0 < ε ≤ 2`. In every round
//! `i`, each still-active vertex whose number of **active** neighbors is at
//! most `A = ⌊(2+ε)·a⌋` joins the H-set `H_i` and becomes inactive. A
//! counting argument (\[4\], Lemma 6.1 here) shows at least an `ε/(2+ε)`
//! fraction leaves per round, so the worst case is `O(log n)` rounds while
//! the vertex-averaged complexity is `O(1)` (Theorem 6.3).
//!
//! The protocol is the purest expression of the paper's central trick —
//! exponential decay of the active set — and is embedded (via
//! [`partition_step`]) in nearly every other protocol in this crate.

use crate::itlog;
use graphcore::{Graph, IdAssignment, VertexId};
use simlocal::{Protocol, StepCtx, Transition};

/// The ε of every protocol built on Procedure Partition, which gives the
/// threshold `A = 4a`. Only [`Partition`] itself takes another ε.
pub const EPSILON: f64 = 2.0;

/// The degree threshold `A = ⌊(2+ε)·a⌋`, at least 1.
pub fn degree_cap(arboricity: usize, epsilon: f64) -> usize {
    assert!(epsilon > 0.0 && epsilon <= 2.0, "ε must be in (0, 2]");
    (((2.0 + epsilon) * arboricity.max(1) as f64).floor() as usize).max(1)
}

/// One partition decision: should an active vertex with `active_degree`
/// still-active neighbors join the current H-set?
#[inline]
pub fn partition_step(active_degree: usize, cap: usize) -> bool {
    active_degree <= cap
}

/// Procedure Partition as a standalone protocol.
///
/// Output per vertex: the index `i ≥ 1` of the H-set it joined — which is
/// also, by construction, its termination round.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    /// Arboricity known to all vertices (§6.1 assumption).
    pub arboricity: usize,
    /// The ε parameter, `0 < ε ≤ 2`.
    pub epsilon: f64,
}

impl Partition {
    /// Standard instance with `ε = `[`EPSILON`] (threshold `4a`).
    pub fn new(arboricity: usize) -> Self {
        Partition {
            arboricity,
            epsilon: EPSILON,
        }
    }

    /// Instance with explicit ε.
    pub fn with_epsilon(arboricity: usize, epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 2.0);
        Partition {
            arboricity,
            epsilon,
        }
    }

    /// The threshold `A` this instance uses.
    pub fn cap(&self) -> usize {
        degree_cap(self.arboricity, self.epsilon)
    }
}

impl Protocol for Partition {
    type State = ();
    type Msg = ();
    type Output = u32;

    fn init(&self, _: &Graph, _: &IdAssignment, _: VertexId) {}

    fn publish(&self, _: &()) {}

    fn step(&self, ctx: StepCtx<'_, ()>) -> Transition<(), u32> {
        if partition_step(ctx.view.active_degree(), self.cap()) {
            Transition::Terminate((), ctx.round)
        } else {
            Transition::Continue(())
        }
    }

    fn max_rounds(&self, g: &Graph) -> u32 {
        // The analytic bound plus slack; exceeding this means the declared
        // arboricity was wrong for the input graph.
        itlog::partition_round_bound(g.n() as u64, self.epsilon) + 8
    }
}

/// Convenience: runs Procedure Partition and returns the H-index of every
/// vertex along with the metrics.
pub fn run_partition(
    g: &Graph,
    arboricity: usize,
    epsilon: f64,
) -> (Vec<u32>, simlocal::RoundMetrics) {
    let p = Partition::with_epsilon(arboricity, epsilon);
    let ids = IdAssignment::identity(g.n());
    let out = simlocal::Runner::new(&p, g, &ids)
        .run()
        .expect("partition terminates on valid arboricity");
    (out.outputs, out.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, verify};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn caps() {
        assert_eq!(degree_cap(1, 2.0), 4);
        assert_eq!(degree_cap(3, 2.0), 12);
        assert_eq!(degree_cap(2, 0.5), 5);
        assert_eq!(degree_cap(0, 2.0), 4); // arboricity clamped up to 1
    }

    #[test]
    fn tree_partitions_in_one_or_two_sets() {
        // A path has max degree 2 ≤ 4 = cap(1): everyone joins H_1.
        let g = gen::path(50);
        let (h, m) = run_partition(&g, 1, 2.0);
        assert!(h.iter().all(|&i| i == 1));
        assert_eq!(m.worst_case(), 1);
        verify::assert_ok(verify::h_partition(&g, &h, degree_cap(1, 2.0)));
    }

    #[test]
    fn h_partition_property_on_forest_unions() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for k in [1usize, 2, 4] {
            let gg = gen::forest_union(800, k, &mut rng);
            let (h, m) = run_partition(&gg.graph, gg.arboricity, 2.0);
            verify::assert_ok(verify::h_partition(&gg.graph, &h, degree_cap(k, 2.0)));
            m.check_identities().unwrap();
            // Termination round equals H-index by construction.
            for v in gg.graph.vertices() {
                assert_eq!(h[v as usize], m.termination_round[v as usize]);
            }
        }
    }

    #[test]
    fn exponential_decay_lemma_6_1() {
        // active[i] ≤ (2/(2+ε))^(i-1) · n for every round i.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let gg = gen::forest_union(4096, 2, &mut rng);
        let (_, m) = run_partition(&gg.graph, 2, 2.0);
        let n = gg.graph.n() as f64;
        for (i, &a) in m.active_per_round().iter().enumerate() {
            let bound = (2.0f64 / 4.0).powi(i as i32) * n;
            assert!(
                a as f64 <= bound + 1e-9,
                "round {}: active {a} > bound {bound}",
                i + 1
            );
        }
    }

    #[test]
    fn vertex_averaged_is_constant_lemma_6_2() {
        // RoundSum(V) ≤ n · Σ (2/(2+ε))^i = n·(2+ε)/ε ⇒ VA ≤ (2+ε)/ε = 2
        // for ε = 2.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for n in [256usize, 1024, 4096] {
            let gg = gen::forest_union(n, 3, &mut rng);
            let (_, m) = run_partition(&gg.graph, 3, 2.0);
            assert!(
                m.vertex_averaged() <= 2.0,
                "n={n}: VA {} exceeds analytic bound 2.0",
                m.vertex_averaged()
            );
        }
    }

    #[test]
    fn smaller_epsilon_slower_decay_but_tighter_cap() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let gg = gen::forest_union(2048, 2, &mut rng);
        let (_, m_tight) = run_partition(&gg.graph, 2, 0.5);
        let (_, m_loose) = run_partition(&gg.graph, 2, 2.0);
        // Looser cap (bigger ε) retires vertices at least as fast.
        assert!(m_loose.vertex_averaged() <= m_tight.vertex_averaged() + 1e-9);
    }

    #[test]
    fn worst_case_grows_with_n_on_dense_families() {
        // On cliques declared with their true arboricity the partition
        // still takes multiple rounds; just confirm it terminates within
        // the analytic bound and H-property holds.
        let g = gen::clique(64);
        let a = 32; // ⌈n/2⌉
        let (h, m) = run_partition(&g, a, 2.0);
        verify::assert_ok(verify::h_partition(&g, &h, degree_cap(a, 2.0)));
        assert!(m.worst_case() <= itlog::partition_round_bound(64, 2.0));
    }

    #[test]
    fn nested_shells_separate_worst_case_from_average() {
        // The adversarial witness: shells retire one layer at a time, so
        // the worst case grows with log n while the average stays O(1).
        let mut wcs = Vec::new();
        for levels in [8u32, 12, 16] {
            let gg = gen::nested_shells(levels, 3);
            let (h, m) = run_partition(&gg.graph, 3, 0.5);
            verify::assert_ok(verify::h_partition(&gg.graph, &h, degree_cap(3, 0.5)));
            assert!(m.vertex_averaged() <= 3.0, "VA must stay O(1)");
            wcs.push(m.worst_case());
        }
        assert!(wcs[1] > wcs[0] && wcs[2] > wcs[1], "WC must grow: {wcs:?}");
    }

    #[test]
    fn wrong_arboricity_hits_round_cap() {
        // Declaring arboricity 1 on a clique: nobody's degree drops below
        // the cap, so the engine must report livelock, not hang.
        let g = gen::clique(20);
        let p = Partition::new(1);
        let ids = IdAssignment::identity(20);
        assert!(simlocal::Runner::new(&p, &g, &ids).run().is_err());
    }
}
