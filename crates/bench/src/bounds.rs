//! Paper-derived bound checks evaluated against [`TrialSummary`]s.
//!
//! Each harness binary declares the bounds its experiments are supposed to
//! witness — palette sizes within each algorithm's claimed cap, the
//! Lemma 6.2 `RoundSum ≤ c·n` family, and the vertex-averaged-vs-`n`
//! shape (flat for the paper's algorithms, growing for the worst-case
//! baselines) — and [`enforce`] exits nonzero on any violation. This turns
//! every harness run into a conformance check, not just a table printer.

use crate::trials::TrialSummary;

/// Smallest `n` at which [`Bound::CongestWidth`] claims are evaluated
/// (see the variant's docs): 2¹⁰, the minimum size of every generated
/// sweep. Ingested fixtures below this size are checked against
/// `c·log₂(CONGEST_FLOOR_N)` instead of a sub-encoding-width budget.
pub const CONGEST_FLOOR_N: usize = 1 << 10;

/// A checkable claim about a set of summaries.
#[derive(Clone, Debug)]
pub enum Bound {
    /// Every summary's verifier conjunction must hold.
    AllValid,
    /// Every summary with a finite cap must satisfy `colors_max ≤ cap`.
    PaletteWithinCap,
    /// For summaries of experiment `exp`: `round_sum_max ≤ c·n`
    /// (the Lemma 6.2 linear-RoundSum family).
    RoundSumLinear {
        /// Experiment id prefix the bound applies to.
        exp: &'static str,
        /// Linear coefficient.
        c: f64,
    },
    /// For experiment `exp`, mean vertex-averaged complexity must stay flat
    /// in `n`: comparing the smallest-`n` and largest-`n` summaries of each
    /// `(algo, family, a)` group, the large-`n` mean must be at most
    /// `factor · small-n mean + slack`.
    VaFlat {
        /// Experiment id prefix the bound applies to.
        exp: &'static str,
        /// Multiplicative allowance.
        factor: f64,
        /// Additive allowance (absorbs tiny absolute means).
        slack: f64,
    },
    /// For experiment `exp`, mean vertex-averaged complexity must *grow*
    /// with `n` (the worst-case-baseline contrast): the largest-`n` mean
    /// must strictly exceed the smallest-`n` mean.
    VaGrowing {
        /// Experiment id prefix the bound applies to.
        exp: &'static str,
    },
    /// For experiment `exp`, the widest published message must fit the
    /// CONGEST model: `max_msg_bits_max ≤ c·log₂ n` wire bits. Declared
    /// per algorithm in the registry (`AlgoSpec::congest`) and auto-wired
    /// onto each selected run by `spec::execute`.
    ///
    /// The claim is evaluated at `max(n, CONGEST_FLOOR_N)`: the wire
    /// model charges fixed-width struct fields (a `u64` ID field costs
    /// 64 bits at any `n`), so below the floor a "violation" would only
    /// witness the encoding, not the algorithm. The floor is the
    /// smallest sweep size the registry's `c` constants were calibrated
    /// on; every generated workload runs at or above it, so the floor
    /// only engages for small ingested fixtures.
    CongestWidth {
        /// Experiment id prefix the bound applies to.
        exp: &'static str,
        /// Algorithm label the claim belongs to (experiments may mix
        /// algorithms with different width claims).
        algo: &'static str,
        /// Allowed multiple of `log₂ n` bits.
        c: f64,
    },
    /// For dynamic-mode experiment `exp`, each churn batch must reactivate
    /// at most `max_frac` of the vertices (per-batch maximum over the
    /// group's trials). A full re-solve fallback reports fraction 1.0 and
    /// therefore fails any `max_frac < 1`, so this bound doubles as a
    /// witness that the warm-start engine actually exploited the
    /// protocol's declared locality. A matching summary with *no* reactivation
    /// statistics (a cold run mislabeled as dynamic) is itself a
    /// violation — the bound must never pass vacuously on the wrong rows.
    UpdateLocality {
        /// Experiment id prefix the bound applies to.
        exp: &'static str,
        /// Largest tolerated reactivated-vertex fraction per batch.
        max_frac: f64,
    },
    /// For experiment `exp`, the recorded mean active-set series must decay
    /// geometrically in the Lemma 6.1 sense: once per `stride`-round window,
    /// the active count must shrink by at least `ratio` relative to the
    /// window `stride` rounds earlier (checked via
    /// [`geometric_decay_violations`]).
    ActiveDecay {
        /// Experiment id prefix the bound applies to.
        exp: &'static str,
        /// Required per-window shrink factor in `(0, 1)`.
        ratio: f64,
        /// Window width in rounds over which `ratio` must be achieved.
        stride: usize,
        /// Counts at or below this floor are exempt (tail noise).
        floor: f64,
        /// Number of leading windows exempt from the check (warm-up, e.g.
        /// a partition phase that keeps every vertex active).
        grace: usize,
    },
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::AllValid => write!(f, "all-valid"),
            Bound::PaletteWithinCap => write!(f, "palette-within-cap"),
            Bound::RoundSumLinear { exp, c } => write!(f, "{exp}: RoundSum ≤ {c}·n"),
            Bound::VaFlat { exp, factor, slack } => {
                write!(f, "{exp}: va(max n) ≤ {factor}·va(min n) + {slack}")
            }
            Bound::VaGrowing { exp } => write!(f, "{exp}: va must grow with n"),
            Bound::CongestWidth { exp, algo, c } => {
                write!(f, "{exp}/{algo}: max message ≤ {c}·log₂(n) bits (CONGEST)")
            }
            Bound::UpdateLocality { exp, max_frac } => {
                write!(
                    f,
                    "{exp}: ≤ {max_frac}·n vertices reactivated per churn batch"
                )
            }
            Bound::ActiveDecay {
                exp,
                ratio,
                stride,
                floor,
                grace,
            } => write!(
                f,
                "{exp}: active set ×{ratio} per {stride}-round window \
                 (floor {floor}, grace {grace})"
            ),
        }
    }
}

/// Lemma 6.1-style geometric-decay check on an active-set series.
///
/// Compares `active[i]` against `active[i - stride]` for every
/// `i ≥ stride·(grace+1)`: each window must satisfy
/// `active[i] ≤ ratio · active[i - stride]`, unless the earlier value is
/// already at or below `floor` (the tail, where integer counts are too
/// coarse for a ratio test). Returns one message per violated window.
pub fn geometric_decay_violations(
    label: &str,
    active: &[f64],
    ratio: f64,
    stride: usize,
    floor: f64,
    grace: usize,
) -> Vec<String> {
    assert!(ratio > 0.0 && ratio < 1.0, "ratio must be in (0,1)");
    assert!(stride > 0, "stride must be positive");
    let mut out = Vec::new();
    for i in (stride * (grace + 1)..active.len()).step_by(stride) {
        let prev = active[i - stride];
        if prev <= floor {
            continue;
        }
        let cur = active[i];
        if cur > ratio * prev {
            out.push(format!(
                "{label}: active set decayed {prev:.1} -> {cur:.1} over rounds {}..{i}, \
                 above the Lemma 6.1 factor {ratio} (floor {floor})",
                i - stride
            ));
        }
    }
    out
}

fn matches_exp(s: &TrialSummary, exp: &str) -> bool {
    s.exp == exp || s.exp.starts_with(&format!("{exp}."))
}

/// A summary belongs to an algorithm claim if its label is the algorithm
/// name itself or a parameterized variant of it (`ka` matches `ka:k2` —
/// sweep labels suffix the registry name with `:<params>`).
fn matches_algo(s: &TrialSummary, algo: &str) -> bool {
    s.algo == algo || s.algo.starts_with(&format!("{algo}:"))
}

/// Smallest-`n` and largest-`n` summary per `(algo, family, a)` group of
/// the matching experiment. Groups with a single `n` are skipped — there
/// is no shape to check.
fn n_extremes<'a>(
    summaries: &'a [TrialSummary],
    exp: &str,
) -> Vec<(&'a TrialSummary, &'a TrialSummary)> {
    let mut groups: Vec<(String, Vec<&TrialSummary>)> = Vec::new();
    for s in summaries.iter().filter(|s| matches_exp(s, exp)) {
        let key = format!("{}/{}/{}", s.algo, s.family, s.a);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, g)) => g.push(s),
            None => groups.push((key, vec![s])),
        }
    }
    groups
        .into_iter()
        .filter_map(|(_, g)| {
            let lo = g.iter().min_by_key(|s| s.n)?;
            let hi = g.iter().max_by_key(|s| s.n)?;
            (lo.n < hi.n).then_some((*lo, *hi))
        })
        .collect()
}

impl Bound {
    /// Messages describing every way `summaries` violates this bound
    /// (empty when the bound holds). A filtered run that produced no
    /// matching summaries yields no violations.
    pub fn violations(&self, summaries: &[TrialSummary]) -> Vec<String> {
        let mut out = Vec::new();
        match self {
            Bound::AllValid => {
                for s in summaries.iter().filter(|s| !s.valid) {
                    out.push(format!(
                        "{}/{} n={}: verifier rejected at least one trial",
                        s.exp, s.algo, s.n
                    ));
                }
            }
            Bound::PaletteWithinCap => {
                for s in summaries
                    .iter()
                    .filter(|s| s.cap != usize::MAX && s.colors_max > s.cap)
                {
                    out.push(format!(
                        "{}/{} n={}: {} colors exceeds claimed palette cap {}",
                        s.exp, s.algo, s.n, s.colors_max, s.cap
                    ));
                }
            }
            Bound::RoundSumLinear { exp, c } => {
                for s in summaries.iter().filter(|s| matches_exp(s, exp)) {
                    let limit = c * s.n as f64;
                    if s.round_sum_max as f64 > limit {
                        out.push(format!(
                            "{}/{} n={}: RoundSum {} exceeds {c}·n = {limit}",
                            s.exp, s.algo, s.n, s.round_sum_max
                        ));
                    }
                }
            }
            Bound::VaFlat { exp, factor, slack } => {
                for (lo, hi) in n_extremes(summaries, exp) {
                    let limit = factor * lo.va.mean + slack;
                    if hi.va.mean > limit {
                        out.push(format!(
                            "{}/{}: va grew {:.3} (n={}) -> {:.3} (n={}), limit {:.3} \
                             ({factor}·small + {slack})",
                            hi.exp, hi.algo, lo.va.mean, lo.n, hi.va.mean, hi.n, limit
                        ));
                    }
                }
            }
            Bound::VaGrowing { exp } => {
                for (lo, hi) in n_extremes(summaries, exp) {
                    if hi.va.mean <= lo.va.mean {
                        out.push(format!(
                            "{}/{}: va did not grow with n ({:.3} at n={} vs {:.3} at n={})",
                            hi.exp, hi.algo, lo.va.mean, lo.n, hi.va.mean, hi.n
                        ));
                    }
                }
            }
            Bound::CongestWidth { exp, algo, c } => {
                for s in summaries
                    .iter()
                    .filter(|s| matches_exp(s, exp) && matches_algo(s, algo))
                {
                    let floor_n = s.n.max(CONGEST_FLOOR_N);
                    let limit = c * (floor_n as f64).log2();
                    if s.max_msg_bits_max as f64 > limit {
                        out.push(format!(
                            "{}/{} n={}: widest message {} bits exceeds the CONGEST \
                             width {c}·log₂({floor_n}) = {limit:.1} bits",
                            s.exp, s.algo, s.n, s.max_msg_bits_max
                        ));
                    }
                }
            }
            Bound::UpdateLocality { exp, max_frac } => {
                for s in summaries.iter().filter(|s| matches_exp(s, exp)) {
                    match &s.reactivated_frac {
                        Some(r) if r.max > *max_frac => out.push(format!(
                            "{}/{} n={}: a churn batch reactivated {:.1}% of the \
                             vertices, above the declared locality bound {:.1}% \
                             (mean {:.1}%{})",
                            s.exp,
                            s.algo,
                            s.n,
                            100.0 * r.max,
                            100.0 * max_frac,
                            100.0 * r.mean,
                            if r.max >= 1.0 {
                                "; 100% means the engine fell back to a full re-solve"
                            } else {
                                ""
                            }
                        )),
                        Some(_) => {}
                        None => out.push(format!(
                            "{}/{} n={}: UpdateLocality declared but the summary \
                             carries no reactivation statistics (cold rows?)",
                            s.exp, s.algo, s.n
                        )),
                    }
                }
            }
            Bound::ActiveDecay {
                exp,
                ratio,
                stride,
                floor,
                grace,
            } => {
                for s in summaries.iter().filter(|s| matches_exp(s, exp)) {
                    let label = format!("{}/{} n={}", s.exp, s.algo, s.n);
                    out.extend(geometric_decay_violations(
                        &label,
                        &s.active_decay,
                        *ratio,
                        *stride,
                        *floor,
                        *grace,
                    ));
                }
            }
        }
        out
    }
}

/// Collects violations across all `bounds`.
pub fn check(bounds: &[Bound], summaries: &[TrialSummary]) -> Vec<String> {
    bounds
        .iter()
        .flat_map(|b| b.violations(summaries))
        .collect()
}

/// Prints a pass/fail report and exits nonzero on any violation — the
/// tail call of every harness binary.
pub fn enforce(suite: &str, bounds: &[Bound], summaries: &[TrialSummary]) {
    let violations = check(bounds, summaries);
    if violations.is_empty() {
        println!("\n[{suite}] all {} bound checks passed", bounds.len());
        return;
    }
    eprintln!("\n[{suite}] BOUND VIOLATIONS:");
    for v in &violations {
        eprintln!("  - {v}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trials::Stats;

    fn summary(exp: &str, n: usize, va_mean: f64) -> TrialSummary {
        TrialSummary {
            exp: exp.into(),
            algo: "algo".into(),
            family: "fam".into(),
            n,
            a: 2,
            trials: 1,
            valid: true,
            colors_max: 5,
            cap: 10,
            round_sum_max: (va_mean * n as f64) as u64,
            va: Stats {
                mean: va_mean,
                ..Stats::from_samples(&[va_mean])
            },
            wc: Stats::from_samples(&[4.0]),
            median: Stats::from_samples(&[2.0]),
            p95: Stats::from_samples(&[3.0]),
            p99: Stats::from_samples(&[4.0]),
            wc_max: 4,
            reactivated_frac: None,
            wall_ms: Stats::from_samples(&[1.0]),
            avg_msg_bits: Stats::from_samples(&[64.0]),
            max_msg_bits_max: 34,
            active_decay: Vec::new(),
            phases: Vec::new(),
        }
    }

    #[test]
    fn all_valid_flags_invalid_groups() {
        let mut s = summary("E", 100, 2.0);
        assert!(Bound::AllValid.violations(&[s.clone()]).is_empty());
        s.valid = false;
        assert_eq!(Bound::AllValid.violations(&[s]).len(), 1);
    }

    #[test]
    fn palette_cap_flags_overflow_and_skips_uncapped() {
        let mut s = summary("E", 100, 2.0);
        s.colors_max = 11; // cap is 10
        assert_eq!(Bound::PaletteWithinCap.violations(&[s.clone()]).len(), 1);
        s.cap = usize::MAX;
        assert!(Bound::PaletteWithinCap.violations(&[s]).is_empty());
    }

    #[test]
    fn round_sum_linear_bound() {
        let s = summary("T1.4", 100, 2.0); // RoundSum 200
        let b = Bound::RoundSumLinear {
            exp: "T1.4",
            c: 3.0,
        };
        assert!(b.violations(std::slice::from_ref(&s)).is_empty());
        let tight = Bound::RoundSumLinear {
            exp: "T1.4",
            c: 1.0,
        };
        assert_eq!(tight.violations(std::slice::from_ref(&s)).len(), 1);
        // Prefix matching: T1.4 must not capture T1.40.
        let other = summary("T1.40", 100, 99.0);
        assert!(tight.violations(&[other]).is_empty());
    }

    #[test]
    fn va_flat_and_growing_shapes() {
        let flat = [summary("E", 100, 2.0), summary("E", 10_000, 2.1)];
        let growing = [summary("E", 100, 2.0), summary("E", 10_000, 9.0)];
        let f = Bound::VaFlat {
            exp: "E",
            factor: 1.5,
            slack: 0.5,
        };
        assert!(f.violations(&flat).is_empty());
        assert_eq!(f.violations(&growing).len(), 1);
        let g = Bound::VaGrowing { exp: "E" };
        assert!(g.violations(&growing).is_empty());
        assert_eq!(g.violations(&flat[..]).len(), 0, "2.0 -> 2.1 still grows");
        let truly_flat = [summary("E", 100, 2.0), summary("E", 10_000, 2.0)];
        assert_eq!(g.violations(&truly_flat).len(), 1);
    }

    #[test]
    fn single_n_groups_are_skipped() {
        let one = [summary("E", 100, 2.0)];
        assert!(Bound::VaFlat {
            exp: "E",
            factor: 1.0,
            slack: 0.0
        }
        .violations(&one)
        .is_empty());
        assert!(Bound::VaGrowing { exp: "E" }.violations(&one).is_empty());
    }

    #[test]
    fn geometric_decay_check() {
        // Halving every round passes a ratio-0.6 per-round check.
        let good = [1000.0, 500.0, 250.0, 125.0, 62.0, 31.0];
        assert!(geometric_decay_violations("g", &good, 0.6, 1, 4.0, 0).is_empty());
        // A stall in the middle is flagged.
        let stalled = [1000.0, 500.0, 490.0, 480.0];
        let v = geometric_decay_violations("s", &stalled, 0.6, 1, 4.0, 0);
        assert_eq!(v.len(), 2, "{v:?}");
        // Grace exempts leading windows: a flat warm-up phase passes.
        let warmup = [1000.0, 1000.0, 500.0, 250.0];
        assert!(!geometric_decay_violations("w", &warmup, 0.6, 1, 4.0, 0).is_empty());
        assert!(geometric_decay_violations("w", &warmup, 0.6, 1, 4.0, 1).is_empty());
        // Floor exempts the tail where counts are too small for ratios.
        let tail = [1000.0, 500.0, 3.0, 3.0, 2.0];
        assert!(geometric_decay_violations("t", &tail, 0.6, 1, 4.0, 0).is_empty());
        // Stride 2 compares windows, not adjacent rounds.
        let two_round_phases = [1000.0, 1000.0, 400.0, 400.0, 160.0, 160.0];
        assert!(!geometric_decay_violations("p", &two_round_phases, 0.6, 1, 4.0, 0).is_empty());
        assert!(geometric_decay_violations("p", &two_round_phases, 0.6, 2, 4.0, 0).is_empty());
    }

    #[test]
    fn congest_width_bound() {
        // n = 1024 → log₂ n = 10; the helper's widest message is 34 bits.
        let s = summary("T1.4", 1024, 2.0);
        let loose = Bound::CongestWidth {
            exp: "T1.4",
            algo: "algo",
            c: 4.0,
        };
        assert!(loose.violations(std::slice::from_ref(&s)).is_empty());
        let tight = Bound::CongestWidth {
            exp: "T1.4",
            algo: "algo",
            c: 3.0,
        };
        assert_eq!(tight.violations(std::slice::from_ref(&s)).len(), 1);
        // Tiny ingested fixtures are evaluated at the calibration floor:
        // at n = 64 the raw budget 4·log₂(64) = 24 bits would flag the
        // 34-bit fixed-width message, but the floored budget
        // 4·log₂(1024) = 40 bits holds. The violation text names the
        // floored n so the arithmetic is auditable.
        let tiny = summary("T1.4", 64, 2.0);
        assert!(loose.violations(std::slice::from_ref(&tiny)).is_empty());
        assert!(tight.violations(std::slice::from_ref(&tiny))[0].contains("log₂(1024)"));
        // Other experiments are exempt, and prefix matching holds.
        let other = summary("T2.1", 1024, 2.0);
        assert!(tight.violations(&[other]).is_empty());
        let dotted = summary("T1.4.x", 1024, 2.0);
        assert_eq!(tight.violations(&[dotted]).len(), 1);
        // A different algorithm sharing the experiment is exempt: the
        // claim binds only the algorithm it was declared on.
        let mut foreign = summary("T1.4", 1024, 2.0);
        foreign.algo = "other_algo".into();
        assert!(tight.violations(&[foreign]).is_empty());
        // …but parameterized sweep labels of the claimed algorithm are
        // bound ("algo:k2" is still `algo`), and name-prefix collisions
        // ("algo2") are not.
        let mut swept = summary("T1.4", 1024, 2.0);
        swept.algo = "algo:k2".into();
        assert_eq!(tight.violations(&[swept]).len(), 1);
        let mut collided = summary("T1.4", 1024, 2.0);
        collided.algo = "algo2".into();
        assert!(tight.violations(&[collided]).is_empty());
    }

    #[test]
    fn active_decay_bound_filters_by_exp() {
        let mut s = summary("T1.4", 100, 2.0);
        s.active_decay = vec![100.0, 90.0, 85.0, 80.0];
        let b = Bound::ActiveDecay {
            exp: "T1.4",
            ratio: 0.6,
            stride: 1,
            floor: 4.0,
            grace: 0,
        };
        assert!(!b.violations(std::slice::from_ref(&s)).is_empty());
        s.exp = "T1.5".into();
        assert!(b.violations(&[s]).is_empty(), "other experiments exempt");
    }

    #[test]
    fn update_locality_bound() {
        let b = Bound::UpdateLocality {
            exp: "D.1",
            max_frac: 0.25,
        };
        // Within bound: worst batch reactivated 20% of the vertices.
        let mut ok = summary("D.1", 100, 2.0);
        ok.reactivated_frac = Some(Stats::from_samples(&[0.05, 0.2]));
        assert!(b.violations(std::slice::from_ref(&ok)).is_empty());
        // One bad batch over the line fails, even with a tame mean.
        let mut hot = summary("D.1", 100, 2.0);
        hot.reactivated_frac = Some(Stats::from_samples(&[0.05, 0.4]));
        let v = b.violations(std::slice::from_ref(&hot));
        assert_eq!(v.len(), 1, "{v:?}");
        // A full re-solve fallback (fraction 1.0) is called out as such.
        let mut fallback = summary("D.1", 100, 2.0);
        fallback.reactivated_frac = Some(Stats::from_samples(&[1.0]));
        let v = b.violations(std::slice::from_ref(&fallback));
        assert!(v[0].contains("full re-solve"), "{v:?}");
        // Cold rows under a dynamic bound are a violation, not a free pass.
        let cold = summary("D.1", 100, 2.0);
        assert_eq!(b.violations(std::slice::from_ref(&cold)).len(), 1);
        // Other experiments are exempt.
        let mut other = summary("D.2", 100, 2.0);
        other.reactivated_frac = Some(Stats::from_samples(&[0.9]));
        assert!(b.violations(&[other]).is_empty());
    }

    #[test]
    fn empty_summaries_pass_everything() {
        let bounds = [
            Bound::AllValid,
            Bound::PaletteWithinCap,
            Bound::RoundSumLinear { exp: "X", c: 1.0 },
            Bound::VaFlat {
                exp: "X",
                factor: 1.0,
                slack: 0.0,
            },
            Bound::VaGrowing { exp: "X" },
        ];
        assert!(check(&bounds, &[]).is_empty());
    }
}
