//! Trial sweeps: seed × ID-assignment sweeps and summary statistics.
//!
//! Every number the harness reports used to come from a single engine seed
//! under the identity ID assignment. The paper's claims are stated for
//! *arbitrary* unique IDs (the `max_{I ∈ ID}` in the §2 vertex-averaged
//! definition) and per-node termination is known to be ID-sensitive, so a
//! point sample is not evidence. This module runs each experiment over a
//! sweep of engine seeds × ID-assignment modes and aggregates the
//! per-trial [`Row`]s into a [`TrialSummary`] (mean, stddev, min/max and a
//! 95% CI for every metric, an all-trials `valid` conjunction, and the
//! worst color count / `RoundSum` seen).

use crate::Row;
use graphcore::IdAssignment;
use rand::SeedableRng;

/// How vertex IDs are assigned for a trial.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdMode {
    /// Vertex `v` has ID `v` ([`IdAssignment::identity`]).
    Identity,
    /// A seed-derived uniformly random permutation of `0..n`.
    Random,
    /// The reversed-order assignment ([`IdAssignment::adversarial`]).
    Adversarial,
}

impl IdMode {
    /// Every mode, in sweep order.
    pub const ALL: [IdMode; 3] = [IdMode::Identity, IdMode::Random, IdMode::Adversarial];

    /// Stable label used in tables, CSV lines, and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            IdMode::Identity => "identity",
            IdMode::Random => "random",
            IdMode::Adversarial => "adversarial",
        }
    }

    /// Parses a label (as accepted by `--ids`).
    pub fn parse(s: &str) -> Result<IdMode, String> {
        match s {
            "identity" => Ok(IdMode::Identity),
            "random" => Ok(IdMode::Random),
            "adversarial" => Ok(IdMode::Adversarial),
            other => Err(format!(
                "unknown ID mode `{other}` (expected identity|random|adversarial)"
            )),
        }
    }

    /// Builds the assignment for an `n`-vertex graph. `seed` only matters
    /// for [`IdMode::Random`], where it selects the permutation (decorrelated
    /// from the engine's per-round streams by a fixed constant).
    pub fn build(&self, n: usize, seed: u64) -> IdAssignment {
        match self {
            IdMode::Identity => IdAssignment::identity(n),
            IdMode::Random => {
                let mut rng =
                    rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x1d5_0c0de_u64.rotate_left(17));
                IdAssignment::random_permutation(n, &mut rng)
            }
            IdMode::Adversarial => IdAssignment::adversarial(n),
        }
    }
}

/// One trial configuration: engine seed plus ID-assignment mode.
#[derive(Clone, Copy, Debug)]
pub struct Trial {
    /// Engine seed (feeds randomized protocols and the random ID mode).
    pub seed: u64,
    /// How IDs are assigned.
    pub id_mode: IdMode,
}

impl Trial {
    /// The identity-IDs trial with the given seed — the seed repo's
    /// original single-sample configuration.
    pub fn identity(seed: u64) -> Trial {
        Trial {
            seed,
            id_mode: IdMode::Identity,
        }
    }

    /// Builds this trial's ID assignment for an `n`-vertex graph.
    pub fn ids(&self, n: usize) -> IdAssignment {
        self.id_mode.build(n, self.seed)
    }
}

/// The full seed × ID-mode sweep an experiment is run over.
#[derive(Clone, Debug)]
pub struct Sweep {
    trials: Vec<Trial>,
}

impl Sweep {
    /// `seeds` engine seeds (`0..seeds`) crossed with `modes`.
    pub fn new(seeds: u64, modes: &[IdMode]) -> Sweep {
        assert!(seeds >= 1, "a sweep needs at least one seed");
        assert!(!modes.is_empty(), "a sweep needs at least one ID mode");
        let mut trials = Vec::with_capacity(seeds as usize * modes.len());
        for &id_mode in modes {
            for seed in 0..seeds {
                trials.push(Trial { seed, id_mode });
            }
        }
        Sweep { trials }
    }

    /// The trials, in deterministic order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// Runs `f` once per trial and collects the rows.
    pub fn rows(&self, f: impl FnMut(&Trial) -> Row) -> Vec<Row> {
        self.trials.iter().map(f).collect()
    }
}

/// Summary statistics over one metric's per-trial samples.
///
/// `ci95` is the half-width of the 95% confidence interval for the mean,
/// `t·σ/√k` with `t` the Student-t critical value for `k − 1` degrees of
/// freedom (0 for a single trial). Small sweeps are the norm here — the
/// CI gate runs `--quick --seeds 2` — and the normal approximation's 1.96
/// understates the interval badly at that size (the k = 2 critical value
/// is 12.71), so [`t_crit_95`] looks up the exact value for k < 30 and
/// only falls back to 1.96 where the approximation is honest.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stats {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (k−1 denominator; 0 for one sample).
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// 95% CI half-width for the mean (Student-t).
    pub ci95: f64,
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom.
/// Exact table through df = 29 (sample sizes below 30, where the normal
/// approximation is meaningfully biased); 1.96 beyond.
pub fn t_crit_95(df: usize) -> f64 {
    const TABLE: [f64; 29] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045,
    ];
    match df {
        0 => 0.0, // a single sample carries no interval at all
        d if d <= TABLE.len() => TABLE[d - 1],
        _ => 1.96,
    }
}

impl Stats {
    /// Computes the statistics of a non-empty sample.
    pub fn from_samples(xs: &[f64]) -> Stats {
        assert!(!xs.is_empty(), "stats need at least one sample");
        let k = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / k;
        let var = if xs.len() > 1 {
            xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (k - 1.0)
        } else {
            0.0
        };
        let stddev = var.sqrt();
        Stats {
            mean,
            stddev,
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            ci95: t_crit_95(xs.len() - 1) * stddev / k.sqrt(),
        }
    }
}

/// Mean per-phase `RoundSum` over a group's trials.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseAgg {
    /// Phase name (from the protocol's `phase_names`).
    pub name: String,
    /// Mean of the phase's `RoundSum` over the trials.
    pub round_sum_mean: f64,
}

/// Aggregate of all trials of one experiment configuration — the unit the
/// JSON results, the bound checks, and the `bench-diff` gate operate on.
#[derive(Clone, Debug)]
pub struct TrialSummary {
    /// Experiment id (e.g. "T1.4").
    pub exp: String,
    /// Algorithm label.
    pub algo: String,
    /// Workload family label.
    pub family: String,
    /// Vertices.
    pub n: usize,
    /// Arboricity parameter.
    pub a: usize,
    /// Number of trials aggregated.
    pub trials: usize,
    /// Conjunction of every trial's verifier outcome.
    pub valid: bool,
    /// Largest distinct-color count over all trials.
    pub colors_max: usize,
    /// Palette cap the rows were verified against (`usize::MAX` = none).
    pub cap: usize,
    /// Largest engine `RoundSum` (steps, one publication each) over all
    /// trials.
    pub round_sum_max: u64,
    /// Vertex-averaged complexity statistics.
    pub va: Stats,
    /// Worst-case complexity statistics.
    pub wc: Stats,
    /// Median (p50) termination-round statistics — with [`TrialSummary::p95`]
    /// and [`TrialSummary::wc_max`], the per-vertex termination-round
    /// distribution summary (p50/p95/max). Informational: serialized but
    /// never gated by `bench-diff`.
    pub median: Stats,
    /// 95th-percentile termination-round statistics.
    pub p95: Stats,
    /// 99th-percentile termination-round statistics — the deep tail
    /// between p95 and the max witness. Informational, like
    /// [`TrialSummary::median`]: serialized but never gated.
    pub p99: Stats,
    /// Largest worst-case round over all trials — the distribution's max
    /// witness. Informational, like [`TrialSummary::median`].
    pub wc_max: u32,
    /// Engine wall-clock statistics (milliseconds).
    pub wall_ms: Stats,
    /// Per-vertex wire-bit statistics (`msg_bits / n` per trial) — the
    /// communication analogue of `va`.
    pub avg_msg_bits: Stats,
    /// Largest single published message over all trials, in wire bits
    /// (the CONGEST-width witness `Bound::CongestWidth` checks).
    pub max_msg_bits_max: u64,
    /// Element-wise mean of the trials' per-round active-set series
    /// (`active_decay[i]` ≈ the paper's `n_{i+1}`; trials that finished
    /// before round `i + 1` contribute 0). The Lemma 6.1 decay data.
    pub active_decay: Vec<f64>,
    /// Mean per-phase `RoundSum` breakdown, in `PhaseId` order.
    pub phases: Vec<PhaseAgg>,
    /// Dynamic-mode groups only: statistics of the per-batch
    /// reactivated-vertex fraction ([`Row::reactivated`]) — what
    /// `Bound::UpdateLocality` gates. `None` for cold groups.
    pub reactivated_frac: Option<Stats>,
}

/// Groups rows by `(exp, algo, family, n, a)` — the experiment
/// configuration — and aggregates each group's trials into a
/// [`TrialSummary`]. Group order follows first appearance in `rows`.
pub fn summarize(rows: &[Row]) -> Vec<TrialSummary> {
    let mut order: Vec<(String, String, String, usize, usize)> = Vec::new();
    let mut groups: Vec<Vec<&Row>> = Vec::new();
    for r in rows {
        let key = (r.exp.clone(), r.algo.clone(), r.family.clone(), r.n, r.a);
        match order.iter().position(|k| *k == key) {
            Some(i) => groups[i].push(r),
            None => {
                order.push(key);
                groups.push(vec![r]);
            }
        }
    }
    order
        .into_iter()
        .zip(groups)
        .map(|((exp, algo, family, n, a), g)| {
            let f = |sel: fn(&Row) -> f64| {
                Stats::from_samples(&g.iter().map(|r| sel(r)).collect::<Vec<_>>())
            };
            TrialSummary {
                exp,
                algo,
                family,
                n,
                a,
                trials: g.len(),
                valid: g.iter().all(|r| r.valid),
                colors_max: g.iter().map(|r| r.colors).max().unwrap_or(0),
                cap: g.iter().map(|r| r.cap).max().unwrap_or(usize::MAX),
                round_sum_max: g.iter().map(|r| r.pubs).max().unwrap_or(0),
                va: f(|r| r.va),
                wc: f(|r| r.wc as f64),
                median: f(|r| r.median as f64),
                p95: f(|r| r.p95 as f64),
                p99: f(|r| r.p99 as f64),
                wc_max: g.iter().map(|r| r.wc).max().unwrap_or(0),
                wall_ms: f(|r| r.wall_ms),
                avg_msg_bits: f(|r| r.avg_msg_bits),
                max_msg_bits_max: g.iter().map(|r| r.max_msg_bits).max().unwrap_or(0),
                active_decay: mean_series(&g),
                phases: mean_phases(&g),
                reactivated_frac: reactivated_stats(&g),
            }
        })
        .collect()
}

/// Statistics of the group's dynamic-mode reactivated fractions, if any
/// row carries one. Dynamic and cold rows never share a group (dynamic
/// experiments have their own ids), so a partial group is a wiring bug.
fn reactivated_stats(g: &[&Row]) -> Option<Stats> {
    let fracs: Vec<f64> = g.iter().filter_map(|r| r.reactivated).collect();
    if fracs.is_empty() {
        return None;
    }
    assert_eq!(
        fracs.len(),
        g.len(),
        "a group must be all-dynamic or all-cold"
    );
    Some(Stats::from_samples(&fracs))
}

/// Element-wise mean of the group's active-set series; a trial shorter
/// than round `i + 1` contributes 0 there (it had no active vertices).
fn mean_series(g: &[&Row]) -> Vec<f64> {
    let len = g.iter().map(|r| r.active_series.len()).max().unwrap_or(0);
    let k = g.len() as f64;
    (0..len)
        .map(|i| {
            g.iter()
                .map(|r| r.active_series.get(i).copied().unwrap_or(0) as f64)
                .sum::<f64>()
                / k
        })
        .collect()
}

/// Mean per-phase `RoundSum` over the group, keyed by phase name in the
/// order of the first trial that reported phases. All trials of a group
/// run the same protocol, so phase lists agree; a missing name (e.g. a
/// phase no vertex entered in some trial) contributes 0.
fn mean_phases(g: &[&Row]) -> Vec<PhaseAgg> {
    let names: Vec<&str> = g
        .iter()
        .find(|r| !r.phases.is_empty())
        .map(|r| r.phases.iter().map(|p| p.name.as_str()).collect())
        .unwrap_or_default();
    let k = g.len() as f64;
    names
        .into_iter()
        .map(|name| PhaseAgg {
            name: name.to_string(),
            round_sum_mean: g
                .iter()
                .map(|r| {
                    r.phases
                        .iter()
                        .find(|p| p.name == name)
                        .map(|p| p.round_sum as f64)
                        .unwrap_or(0.0)
                })
                .sum::<f64>()
                / k,
        })
        .collect()
}

/// Prints summaries as a fixed-width mean ± stddev table plus `#sum` CSV
/// lines (the scrape format for EXPERIMENTS.md regeneration).
pub fn print_summaries(title: &str, summaries: &[TrialSummary]) {
    println!("\n== {title} ==");
    println!(
        "{:<6} {:<22} {:<14} {:>8} {:>4} {:>6} {:>16} {:>14} {:>14} {:>8} {:>6} {:>12} {:>7}",
        "exp",
        "algo",
        "family",
        "n",
        "a",
        "trials",
        "va(mean±sd)",
        "wc(mean±sd)",
        "p95(mean±sd)",
        "colors",
        "valid",
        "avg_msg_bits",
        "max_mb"
    );
    for s in summaries {
        println!(
            "{:<6} {:<22} {:<14} {:>8} {:>4} {:>6} {:>9.2}±{:<6.2} {:>8.1}±{:<5.1} {:>8.1}±{:<5.1} {:>8} {:>6} {:>12.1} {:>7}",
            s.exp,
            s.algo,
            s.family,
            s.n,
            s.a,
            s.trials,
            s.va.mean,
            s.va.stddev,
            s.wc.mean,
            s.wc.stddev,
            s.p95.mean,
            s.p95.stddev,
            s.colors_max,
            s.valid,
            s.avg_msg_bits.mean,
            s.max_msg_bits_max
        );
    }
    for s in summaries {
        println!(
            "#sum,{},{},{},{},{},{},{:.4},{:.4},{:.2},{:.2},{:.2},{:.2},{},{},{},{:.2},{}",
            s.exp,
            s.algo,
            s.family,
            s.n,
            s.a,
            s.trials,
            s.va.mean,
            s.va.stddev,
            s.wc.mean,
            s.wc.stddev,
            s.p95.mean,
            s.p95.stddev,
            s.colors_max,
            s.valid,
            s.round_sum_max,
            s.avg_msg_bits.mean,
            s.max_msg_bits_max
        );
    }
    // Per-vertex termination-round distribution (p50/p95/p99/max means
    // over the group's trials) as a scrape line — informational, not
    // gated.
    for s in summaries {
        println!(
            "#dist,{},{},{},{},p50={:.2},p95={:.2},p99={:.2},max={}",
            s.exp, s.algo, s.n, s.a, s.median.mean, s.p95.mean, s.p99.mean, s.wc_max
        );
    }
    // Dynamic-mode reactivation accounting (mean/max fraction of
    // vertices the warm-start engine re-stepped per batch).
    for s in summaries {
        if let Some(r) = &s.reactivated_frac {
            println!(
                "#react,{},{},{},{},mean={:.4},max={:.4}",
                s.exp, s.algo, s.n, s.a, r.mean, r.max
            );
        }
    }
    // Per-phase RoundSum breakdowns and active-decay series as scrape
    // lines (means over the group's trials).
    for s in summaries {
        if !s.phases.is_empty() {
            let cells: Vec<String> = s
                .phases
                .iter()
                .map(|p| format!("{}={:.1}", p.name, p.round_sum_mean))
                .collect();
            println!(
                "#phase,{},{},{},{},{}",
                s.exp,
                s.algo,
                s.n,
                s.a,
                cells.join(",")
            );
        }
        if !s.active_decay.is_empty() {
            let cells: Vec<String> = s
                .active_decay
                .iter()
                .take(24) // the tail is noise; full series lives in the JSON
                .map(|x| format!("{x:.1}"))
                .collect();
            println!(
                "#decay,{},{},{},{},{}",
                s.exp,
                s.algo,
                s.n,
                s.a,
                cells.join(",")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(exp: &str, n: usize, va: f64, colors: usize, valid: bool) -> Row {
        Row {
            exp: exp.into(),
            algo: "algo".into(),
            family: "fam".into(),
            n,
            a: 2,
            va,
            wc: va.ceil() as u32,
            median: 1,
            p95: 2,
            p99: 3,
            colors,
            valid,
            wall_ms: 0.5,
            pubs: (va * n as f64) as u64,
            msg_bits: (va * n as f64) as u64 * 32,
            avg_msg_bits: va * 32.0,
            max_msg_bits: 32,
            cap: 10,
            seed: 0,
            ids: "identity",
            active_series: vec![n as u64, n as u64 / 2],
            phases: vec![crate::PhaseSum {
                name: "main".into(),
                round_sum: (va * n as f64) as u64,
            }],
            reactivated: None,
        }
    }

    #[test]
    fn stats_of_constant_sample() {
        let s = Stats::from_samples(&[3.0, 3.0, 3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!((s.min, s.max), (3.0, 3.0));
    }

    #[test]
    fn stats_spread() {
        let s = Stats::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.stddev - 1.0).abs() < 1e-12);
        // k = 3 → t(df = 2) = 4.303, not the normal 1.96.
        assert!((s.ci95 - 4.303 / 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn ci95_uses_student_t_for_small_samples() {
        // k = 2 is the CI-gate configuration; the normal approximation's
        // 1.96 understates the half-width by a factor of 6.5 there.
        let s = Stats::from_samples(&[1.0, 3.0]);
        let sd = 2f64.sqrt();
        assert!((s.stddev - sd).abs() < 1e-12);
        assert!((s.ci95 - 12.706 * sd / 2f64.sqrt()).abs() < 1e-9);
        // One sample: no spread, no interval.
        assert_eq!(Stats::from_samples(&[5.0]).ci95, 0.0);
        // Critical values decrease monotonically toward the normal 1.96.
        for df in 1..40 {
            assert!(t_crit_95(df) >= t_crit_95(df + 1));
            assert!(t_crit_95(df) >= 1.96);
        }
        assert_eq!(t_crit_95(29), 2.045);
        assert_eq!(t_crit_95(30), 1.96);
    }

    #[test]
    fn sweep_is_cross_product() {
        let sw = Sweep::new(2, &[IdMode::Identity, IdMode::Adversarial]);
        assert_eq!(sw.trials().len(), 4);
        let labels: Vec<_> = sw
            .trials()
            .iter()
            .map(|t| (t.seed, t.id_mode.label()))
            .collect();
        assert!(labels.contains(&(1, "adversarial")));
        assert!(labels.contains(&(0, "identity")));
    }

    #[test]
    fn id_modes_build_expected_assignments() {
        let id = IdMode::Identity.build(4, 9);
        assert_eq!(id.id(0), 0);
        let adv = IdMode::Adversarial.build(4, 9);
        assert_eq!(adv.id(0), 3);
        let r1 = IdMode::Random.build(100, 1);
        let r2 = IdMode::Random.build(100, 1);
        let r3 = IdMode::Random.build(100, 2);
        assert_eq!(r1, r2, "same seed must give the same permutation");
        assert_ne!(r1, r3, "different seeds must give different permutations");
    }

    #[test]
    fn summarize_groups_and_conjoins_valid() {
        let rows = vec![
            row("E", 100, 2.0, 5, true),
            row("E", 100, 4.0, 7, false),
            row("E", 200, 3.0, 6, true),
        ];
        let s = summarize(&rows);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].trials, 2);
        assert!(!s[0].valid, "one invalid trial poisons the group");
        assert_eq!(s[0].colors_max, 7);
        assert!((s[0].va.mean - 3.0).abs() < 1e-12);
        assert!((s[0].median.mean - 1.0).abs() < 1e-12);
        assert_eq!(s[0].wc_max, 4, "distribution max is the worst trial's wc");
        assert!(s[1].valid);
        assert_eq!(s[1].n, 200);
    }

    #[test]
    fn summarize_averages_series_and_phases() {
        let mut r1 = row("E", 100, 2.0, 5, true);
        r1.active_series = vec![100, 40, 10];
        r1.phases = vec![
            crate::PhaseSum {
                name: "partition".into(),
                round_sum: 120,
            },
            crate::PhaseSum {
                name: "inset".into(),
                round_sum: 80,
            },
        ];
        let mut r2 = row("E", 100, 4.0, 5, true);
        r2.active_series = vec![100, 60]; // shorter: round 3 contributes 0
        r2.phases = vec![
            crate::PhaseSum {
                name: "partition".into(),
                round_sum: 140,
            },
            crate::PhaseSum {
                name: "inset".into(),
                round_sum: 120,
            },
        ];
        let s = summarize(&[r1, r2]);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].active_decay, vec![100.0, 50.0, 5.0]);
        assert_eq!(
            s[0].phases,
            vec![
                PhaseAgg {
                    name: "partition".into(),
                    round_sum_mean: 130.0
                },
                PhaseAgg {
                    name: "inset".into(),
                    round_sum_mean: 100.0
                },
            ]
        );
    }

    #[test]
    fn summarize_aggregates_wire_metrics() {
        let mut r1 = row("E", 100, 2.0, 5, true);
        r1.avg_msg_bits = 64.0;
        r1.max_msg_bits = 40;
        let mut r2 = row("E", 100, 4.0, 5, true);
        r2.avg_msg_bits = 96.0;
        r2.max_msg_bits = 72;
        let s = summarize(&[r1, r2]);
        assert_eq!(s.len(), 1);
        assert!((s[0].avg_msg_bits.mean - 80.0).abs() < 1e-12);
        assert_eq!(s[0].max_msg_bits_max, 72, "worst message over the group");
    }

    #[test]
    fn summarize_aggregates_p99_and_reactivated() {
        let mut r1 = row("D", 100, 2.0, 0, true);
        r1.reactivated = Some(0.1);
        let mut r2 = row("D", 100, 4.0, 0, true);
        r2.reactivated = Some(0.3);
        let s = summarize(&[r1, r2]);
        assert_eq!(s.len(), 1);
        assert!((s[0].p99.mean - 3.0).abs() < 1e-12);
        let r = s[0]
            .reactivated_frac
            .expect("dynamic group carries fractions");
        assert!((r.mean - 0.2).abs() < 1e-12);
        assert!((r.max - 0.3).abs() < 1e-12);
        // Cold rows leave the field empty.
        let cold = summarize(&[row("E", 100, 2.0, 5, true)]);
        assert_eq!(cold[0].reactivated_frac, None);
    }

    #[test]
    fn id_mode_parse_round_trips() {
        for m in IdMode::ALL {
            assert_eq!(IdMode::parse(m.label()).unwrap(), m);
        }
        assert!(IdMode::parse("bogus").is_err());
    }
}
