//! Round-complexity metrics (§2 of the paper).

/// Per-run complexity record produced by the engine.
///
/// The *running time* of a vertex is the round in which it terminated
/// (decides + final broadcast); the vertex-averaged complexity of the run
/// is `round_sum / n`, the worst-case complexity is the maximum. Every
/// other count of a run — the activity series, the engine's rounds and
/// steps — is a function of these termination rounds (Equation 1).
#[derive(Clone, Debug, PartialEq)]
pub struct RoundMetrics {
    /// Termination round of each vertex (1-based; 0 for a vertex a warm
    /// start froze, which stepped in no round).
    pub termination_round: Vec<u32>,
}

impl RoundMetrics {
    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.termination_round.len()
    }

    /// `RoundSum(V)` — the total number of rounds performed by all vertices
    /// (Equation 1 of the paper: equals `Σ_i n_i`).
    pub fn round_sum(&self) -> u64 {
        self.termination_round.iter().map(|&r| r as u64).sum()
    }

    /// Vertex-averaged complexity `RoundSum(V) / n` (0.0 for empty graphs).
    pub fn vertex_averaged(&self) -> f64 {
        if self.n() == 0 {
            0.0
        } else {
            self.round_sum() as f64 / self.n() as f64
        }
    }

    /// Worst-case complexity: rounds until the last vertex terminated.
    pub fn worst_case(&self) -> u32 {
        self.termination_round.iter().copied().max().unwrap_or(0)
    }

    /// Sorted view of the termination rounds, for querying quantiles of
    /// the run: one sort, then [`Percentiles::median`] and each
    /// [`Percentiles::rank`] are O(1). The harness asks for median + p95
    /// per row.
    pub fn percentiles(&self) -> Percentiles {
        let mut sorted = self.termination_round.clone();
        sorted.sort_unstable();
        Percentiles { sorted }
    }

    /// `active_per_round()[i]` = number of vertices active during round
    /// `i + 1` (the paper's `n_i` with `i` 1-based): those whose
    /// termination round is at least `i + 1`. A vertex with termination
    /// round 0 counts in no round. O(n + rounds).
    pub fn active_per_round(&self) -> Vec<usize> {
        let mut active = vec![0usize; self.worst_case() as usize];
        for &r in &self.termination_round {
            if r > 0 {
                active[r as usize - 1] += 1;
            }
        }
        // Bucketed by termination round; a suffix sum counts every
        // vertex in each round up to its own.
        for i in (1..active.len()).rev() {
            active[i - 1] += active[i];
        }
        active
    }

    /// Consistency check of the derived activity series: `Σ_i n_i ==
    /// RoundSum(V)` (Equation 1), the series is non-increasing, and it
    /// spans exactly the worst case.
    pub fn check_identities(&self) -> Result<(), String> {
        let series = self.active_per_round();
        let from_series: u64 = series.iter().map(|&a| a as u64).sum();
        if from_series != self.round_sum() {
            return Err(format!(
                "Σ active[i] = {from_series} but RoundSum = {}",
                self.round_sum()
            ));
        }
        if series.windows(2).any(|w| w[0] < w[1]) {
            return Err("active-per-round series increased".into());
        }
        if series.len() != self.worst_case() as usize {
            return Err(format!(
                "series length {} != worst case {}",
                series.len(),
                self.worst_case()
            ));
        }
        Ok(())
    }
}

/// Termination rounds sorted once, answering any number of quantile
/// queries without re-sorting.
#[derive(Clone, Debug)]
pub struct Percentiles {
    sorted: Vec<u32>,
}

impl Percentiles {
    /// Median termination round (0 when empty).
    pub fn median(&self) -> u32 {
        if self.sorted.is_empty() {
            0
        } else {
            self.sorted[self.sorted.len() / 2]
        }
    }

    /// The `p`-th percentile termination round, `p ∈ [0, 100]`
    /// (nearest-rank on the sorted values; 0 when empty).
    pub fn rank(&self, p: f64) -> u32 {
        assert!((0.0..=100.0).contains(&p));
        if self.sorted.is_empty() {
            return 0;
        }
        let idx = ((p / 100.0) * (self.sorted.len() - 1) as f64).round() as usize;
        self.sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RoundMetrics {
        // 3 vertices terminating in rounds 1, 2, 2:
        // round 1: 3 active; round 2: 2 active.
        RoundMetrics {
            termination_round: vec![1, 2, 2],
        }
    }

    #[test]
    fn aggregates() {
        let m = sample();
        assert_eq!(m.round_sum(), 5);
        assert!((m.vertex_averaged() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.worst_case(), 2);
        let p = m.percentiles();
        assert_eq!(p.median(), 2);
        assert_eq!(p.rank(0.0), 1);
        assert_eq!(p.rank(100.0), 2);
    }

    #[test]
    fn identities_hold() {
        assert_eq!(sample().active_per_round(), vec![3, 2]);
        assert!(sample().check_identities().is_ok());
    }

    #[test]
    fn series_skips_frozen_vertices() {
        // Termination round 0 (a vertex a warm start froze) counts in no
        // round; the series still spans the worst case.
        let m = RoundMetrics {
            termination_round: vec![0, 3, 0, 1],
        };
        assert_eq!(m.active_per_round(), vec![2, 1, 1]);
        assert_eq!(m.round_sum(), 4);
        assert!(m.check_identities().is_ok());
        let all_frozen = RoundMetrics {
            termination_round: vec![0, 0],
        };
        assert!(all_frozen.active_per_round().is_empty());
        assert!(all_frozen.check_identities().is_ok());
    }

    #[test]
    fn empty() {
        let m = RoundMetrics {
            termination_round: vec![],
        };
        assert_eq!(m.vertex_averaged(), 0.0);
        assert_eq!(m.worst_case(), 0);
        assert!(m.check_identities().is_ok());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn percentile_interpolation_points() {
        let m = RoundMetrics {
            termination_round: vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        };
        let p = m.percentiles();
        assert_eq!(p.rank(0.0), 1);
        // Index round(0.5 · 9) = 5 into the sorted values 1..=10 is 6.
        assert_eq!(p.rank(50.0), 6);
        assert_eq!(p.rank(100.0), 10);
        assert_eq!(m.active_per_round(), vec![10, 9, 8, 7, 6, 5, 4, 3, 2, 1]);
        assert!(m.check_identities().is_ok());
    }

    #[test]
    #[should_panic]
    fn percentile_out_of_range_panics() {
        let m = RoundMetrics {
            termination_round: vec![1],
        };
        m.percentiles().rank(101.0);
    }

    #[test]
    fn single_vertex_graph_metrics() {
        let m = RoundMetrics {
            termination_round: vec![4],
        };
        assert_eq!(m.vertex_averaged(), 4.0);
        assert_eq!(m.percentiles().median(), 4);
        assert_eq!(m.active_per_round(), vec![1, 1, 1, 1]);
        assert!(m.check_identities().is_ok());
    }

    #[test]
    fn percentiles_answer_every_query_from_one_sort() {
        let m = RoundMetrics {
            termination_round: vec![9, 1, 5, 3, 7],
        };
        let p = m.percentiles();
        assert_eq!(p.median(), 5);
        // Nearest rank into the sorted values 1, 3, 5, 7, 9.
        for (q, want) in [(0.0, 1), (25.0, 3), (50.0, 5), (95.0, 9), (100.0, 9)] {
            assert_eq!(p.rank(q), want, "p{q}");
        }
        let empty = RoundMetrics {
            termination_round: vec![],
        };
        assert_eq!(empty.percentiles().median(), 0);
        assert_eq!(empty.percentiles().rank(95.0), 0);
    }
}

#[cfg(test)]
mod quantile_edge_cases {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_metrics_answer_every_quantile_with_zero() {
        let m = RoundMetrics {
            termination_round: vec![],
        };
        let sorted = m.percentiles();
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(sorted.rank(p), 0);
        }
        assert_eq!(sorted.median(), 0);
    }

    #[test]
    fn extreme_quantiles_are_min_and_max() {
        let m = RoundMetrics {
            termination_round: vec![7, 2, 9, 2, 4],
        };
        let p = m.percentiles();
        assert_eq!(p.rank(0.0), 2);
        assert_eq!(p.rank(100.0), 9);
    }

    #[test]
    fn single_vertex_run_is_constant_across_quantiles() {
        // A 1-vertex run has one termination round; every quantile — and
        // the median — must report exactly it.
        let m = RoundMetrics {
            termination_round: vec![3],
        };
        let sorted = m.percentiles();
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(sorted.rank(p), 3);
        }
        assert_eq!(sorted.median(), 3);
        assert!(m.check_identities().is_ok());
    }

    proptest! {
        // Nearest-rank always returns an observed value, bracketed by the
        // extremes, for any rounds vector and any in-range `p`; an empty
        // run answers 0.
        #[test]
        fn rank_is_an_observed_value_between_the_extremes(
            rounds in proptest::collection::vec(1u32..500, 0..64),
            p_tenths in 0u32..=1000,
        ) {
            let p = p_tenths as f64 / 10.0;
            let m = RoundMetrics {
                termination_round: rounds,
            };
            let sorted = m.percentiles();
            if m.n() > 0 {
                prop_assert!(m.termination_round.contains(&sorted.rank(p)));
                prop_assert!(m.termination_round.contains(&sorted.median()));
                prop_assert!(sorted.rank(0.0) <= sorted.rank(p));
                prop_assert!(sorted.rank(p) <= sorted.rank(100.0));
            } else {
                prop_assert_eq!(sorted.rank(p), 0);
            }
        }
    }
}
