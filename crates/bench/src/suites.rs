//! The suite declaration tables: every experiment of `table1`, `table2`,
//! `figures`, `scenarios`, and `ablations` as data.
//!
//! Each binary is now `spec::execute(<suite>, &suites::<suite>(), &cli)`.
//! Adding an experiment is one [`ExperimentSpec`] entry here (plus an
//! [`crate::registry`] entry if it needs a new algorithm); the shared
//! engine picks it up for `--list`, filtering, sweeps, printing, JSON,
//! and bound enforcement, and the EXPERIMENTS.md index test regenerates
//! itself from these tables.

use crate::spec::{ExperimentSpec, RunSpec, WorkloadSpec};
use crate::{cfg, forest_workload, n_sweep, Bound, Cli, Row};
use graphcore::churn::ChurnPlan;
use simlocal::Runner;
use std::time::Instant;

fn r(exp: &'static str, algo: &'static str) -> RunSpec {
    RunSpec::new(exp, algo)
}

/// Table 1 — vertex-coloring: vertex-averaged time vs the classical
/// worst-case discipline.
pub fn table1() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::rows(
            "T1.1",
            "T1.1/T1.2: O(ka)-coloring vs Arb-Color [8]",
            vec![WorkloadSpec::Forest {
                arbs: &[2, 4],
                seed: 42,
            }],
            vec![
                r("T1.1", "ka").k(2),
                r("T1.1", "ka").k(3),
                r("T1.2", "ka_rho"),
                r("T1.1b", "arb_color_baseline"),
            ],
            // The classical baseline's VA must keep growing with n.
            vec![Bound::VaGrowing { exp: "T1.1b" }],
        ),
        ExperimentSpec::rows(
            "T1.3",
            "T1.3: One-Plus-Eta-Arb-Col vs worst-case baseline",
            vec![WorkloadSpec::Forest {
                arbs: &[4, 8, 16],
                seed: 43,
            }],
            vec![
                r("T1.3", "one_plus_eta"),
                // The [5]-style classical discipline (Algorithm 3).
                r("T1.3b", "legal_coloring").max_n(1 << 12),
                r("T1.3c", "arb_color_baseline").max_n(1 << 12),
            ],
            vec![],
        ),
        ExperimentSpec::rows(
            "T1.4",
            "T1.4: O(a² log n)-coloring in O(1) VA vs classical",
            vec![WorkloadSpec::Forest {
                arbs: &[2],
                seed: 44,
            }],
            vec![r("T1.4", "a2logn"), r("T1.4b", "arb_linial_oneshot")],
            vec![
                // Theorem 6.3 family: the O(1)-VA coloring has linear RoundSum.
                Bound::RoundSumLinear {
                    exp: "T1.4",
                    c: 6.0,
                },
                Bound::VaFlat {
                    exp: "T1.4",
                    factor: 1.5,
                    slack: 0.5,
                },
                // Lemma 6.1: the partition keeps everyone active for one
                // warm-up round (grace 1), then at least halves per round.
                Bound::ActiveDecay {
                    exp: "T1.4",
                    ratio: 0.5,
                    stride: 1,
                    floor: 8.0,
                    grace: 1,
                },
            ],
        ),
        ExperimentSpec::rows(
            "T1.5",
            "T1.5/T1.6: O(ka²)-coloring vs full Arb-Linial [8]",
            vec![WorkloadSpec::Forest {
                arbs: &[2],
                seed: 45,
            }],
            vec![
                r("T1.5", "ka2").k(2),
                r("T1.5", "ka2").k(3),
                r("T1.6", "ka2_rho"),
                r("T1.5b", "arb_linial_full"),
            ],
            vec![Bound::VaFlat {
                exp: "T1.6",
                factor: 1.5,
                slack: 1.0,
            }],
        ),
        ExperimentSpec::rows(
            "T1.7",
            "T1.7: det. (Δ+1)-coloring — a-dependent VA vs Δ-dependent WC",
            vec![WorkloadSpec::Hub { a: 2, seed: 46 }],
            vec![
                r("T1.7", "delta_plus_one"),
                r("T1.7b", "global_linial_kw").max_n(1 << 12),
            ],
            vec![],
        ),
        ExperimentSpec::rows(
            "T1.8",
            "T1.8: randomized (Δ+1)-coloring in O(1) VA",
            vec![WorkloadSpec::Forest {
                arbs: &[2],
                seed: 47,
            }],
            vec![
                r("T1.8", "rand_delta_plus_one").min_seeds(3),
                r("T1.8b", "global_linial_kw"),
            ],
            vec![
                Bound::VaFlat {
                    exp: "T1.8",
                    factor: 1.5,
                    slack: 0.5,
                },
                // T1.8's two-round propose/resolve phases shrink the
                // undecided set by ≥ ¼ per phase in expectation; 0.9 per
                // 2-round window is a loose w.h.p. envelope over seeds.
                Bound::ActiveDecay {
                    exp: "T1.8",
                    ratio: 0.9,
                    stride: 2,
                    floor: 16.0,
                    grace: 1,
                },
            ],
        ),
        ExperimentSpec::rows(
            "T1.9",
            "T1.9: randomized O(a log log n)-coloring in O(1) VA",
            vec![WorkloadSpec::Hub { a: 3, seed: 48 }],
            vec![r("T1.9", "rand_a_loglog").min_seeds(3)],
            vec![],
        ),
    ]
}

/// Table 2 — MIS, `(2Δ−1)`-edge-coloring and maximal matching under the
/// extension framework (commit metrics) vs classical baselines.
pub fn table2() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::rows(
            "T2.1",
            "T2.1: MIS — extension framework vs Luby",
            vec![WorkloadSpec::Forest {
                arbs: &[2, 4],
                seed: 52,
            }],
            vec![r("T2.1", "mis_extension"), r("T2.1b", "mis_luby")],
            // O(a + log* n) VA: flat shape across the n sweep.
            vec![Bound::VaFlat {
                exp: "T2.1",
                factor: 1.6,
                slack: 1.0,
            }],
        ),
        ExperimentSpec::rows(
            "T2.1h",
            "T2.1h: MIS on the a ≪ Δ hub workload",
            vec![WorkloadSpec::Hub { a: 2, seed: 53 }],
            vec![r("T2.1h", "mis_extension"), r("T2.1hb", "mis_luby")],
            vec![],
        ),
        ExperimentSpec::rows(
            "T2.1f",
            "T2.1f: MIS on an ingested real edge list (file graph source)",
            vec![WorkloadSpec::File {
                path: "testdata/road_excerpt.txt",
                largest_component: false,
            }],
            vec![r("T2.1f", "mis_extension"), r("T2.1fb", "mis_luby")],
            vec![],
        ),
        ExperimentSpec::rows(
            "T2.2",
            "T2.2: (2Δ−1)-edge-coloring — commit metrics",
            vec![WorkloadSpec::Forest {
                arbs: &[2, 3],
                seed: 54,
            }],
            vec![r("T2.2", "edge_col_extension")],
            vec![Bound::VaFlat {
                exp: "T2.2",
                factor: 1.6,
                slack: 1.0,
            }],
        ),
        ExperimentSpec::rows(
            "T2.2h",
            "T2.2h: (2Δ−1)-edge-coloring on the a ≪ Δ hub workload",
            vec![WorkloadSpec::Hub { a: 2, seed: 55 }],
            vec![r("T2.2h", "edge_col_extension")],
            vec![],
        ),
        ExperimentSpec::rows(
            "T2.3",
            "T2.3: maximal matching — commit metrics",
            vec![WorkloadSpec::Forest {
                arbs: &[2, 3],
                seed: 56,
            }],
            vec![r("T2.3", "matching_extension")],
            vec![Bound::VaFlat {
                exp: "T2.3",
                factor: 1.6,
                slack: 1.0,
            }],
        ),
        ExperimentSpec::rows(
            "T2.3h",
            "T2.3h: maximal matching on the a ≪ Δ hub workload",
            vec![WorkloadSpec::Hub { a: 2, seed: 57 }],
            vec![r("T2.3h", "matching_extension")],
            vec![],
        ),
    ]
}

/// Figures — the paper's analytic claims as plottable `#series` data.
pub fn figures() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::custom(
            "F.1",
            "F.1: Lemma 6.1 — active-vertex decay",
            "run_partition(a=2, ε=2.0)",
            "forest_union(n=2^14, a=2, seed 61)",
            "active_i ≤ (1/2)^{i-1}·n per round",
            f1,
        ),
        ExperimentSpec::custom(
            "F.2",
            "F.2: Theorem 6.3 — Partition VA flat, WC grows",
            "run_partition(a=2, ε=2.0); nested_shells witness (a=3, ε=0.5)",
            "forest_union(n ∈ sweep, a=2, seed 62); nested_shells(levels ∈ 8..=16)",
            "RoundSum ≤ 6·n; nested-shell va ≤ (2+ε)/ε + 1 = 6",
            f2,
        ),
        ExperimentSpec::rows(
            "F.3",
            "F.3: Theorem 7.1 — forest decomposition VA O(1) vs WC Θ(log n)",
            vec![WorkloadSpec::Forest {
                arbs: &[3],
                seed: 63,
            }],
            vec![
                r("F.3", "forest_parallelized"),
                r("F.3b", "forest_baseline"),
            ],
            vec![
                // Theorem 7.1: linear RoundSum, flat VA, geometric decay.
                Bound::RoundSumLinear { exp: "F.3", c: 6.0 },
                Bound::VaFlat {
                    exp: "F.3",
                    factor: 1.5,
                    slack: 0.5,
                },
                Bound::ActiveDecay {
                    exp: "F.3",
                    ratio: 0.5,
                    stride: 1,
                    floor: 8.0,
                    grace: 1,
                },
            ],
        ),
        ExperimentSpec::rows(
            "F.4",
            "F.4: VA growth curves vs the Θ(log n) baseline",
            vec![WorkloadSpec::Forest {
                arbs: &[2],
                seed: 64,
            }],
            vec![
                r("F.4", "a2_loglog"),
                r("F.4", "ka2").k(2),
                r("F.4", "ka2_rho"),
                r("F.4b", "arb_linial_full"),
            ],
            vec![],
        ),
        ExperimentSpec::rows(
            "F.5",
            "F.5: randomized (Δ+1) VA across seeds (concentration)",
            vec![WorkloadSpec::Forest {
                arbs: &[2],
                seed: 65,
            }],
            vec![r("F.5", "rand_delta_plus_one").min_seeds_qf(5, 20)],
            vec![
                Bound::VaFlat {
                    exp: "F.5",
                    factor: 1.5,
                    slack: 0.5,
                },
                Bound::ActiveDecay {
                    exp: "F.5",
                    ratio: 0.9,
                    stride: 2,
                    floor: 16.0,
                    grace: 1,
                },
            ],
        )
        .with_post(f5_aggregate),
        ExperimentSpec::rows(
            "F.6",
            "F.6: segmentation frontier — colors vs VA as k sweeps",
            vec![WorkloadSpec::ForestAt {
                n_quick: 1 << 12,
                n_full: 1 << 16,
                a: 2,
                seed: 66,
            }],
            vec![r("F.6", "ka2").ksweep(), r("F.6", "ka").ksweep()],
            vec![],
        ),
    ]
}

/// Scenarios — the paper's §1.2/§11 motivating end-to-end stories.
pub fn scenarios() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::custom(
            "X.1",
            "X.1: simulation efficiency (§1.2)",
            "a2logn vs arb_linial_oneshot",
            "forest_union(n ∈ sweep, a=2, seed 71)",
            "RoundSum(VA algorithm) < RoundSum(classical) on every trial",
            x1,
        ),
        ExperimentSpec::custom(
            "X.2",
            "X.2: two-subtask pipelining (§1.2)",
            "mis_extension followed by a fixed 10-round task ℬ",
            "forest_union(n ∈ sweep, a=2, seed 72)",
            "reports avg ℬ-completion round, pipelined vs synchronized",
            x2,
        ),
        ExperimentSpec::custom(
            "X.3",
            "X.3: asynchronous-start pipeline as a real protocol",
            "color_then_census (b_rounds=8)",
            "forest_union(n ∈ sweep, a=2, seed 73)",
            "reports async VA vs synchronized completion",
            x3,
        ),
        ExperimentSpec::dynamic(
            "D.1",
            "D.1: MIS under edge churn — warm-start update cost per batch",
            vec![WorkloadSpec::Forest {
                arbs: &[2],
                seed: 74,
            }],
            // The warm engine re-steps only the vertices whose inputs an
            // edit changed. Luby's MIS is the local case; the extension
            // MIS is the contrast — its sequential ID windows keep
            // vertices active beyond the graph diameter, yet an edit
            // still changes what only a few vertices see (update VA
            // 0.60 at n = 2^10 and 0.15 at 2^12), so it is bounded too.
            vec![r("D.1", "mis_luby"), r("D.1x", "mis_extension")],
            ChurnPlan {
                seed: 75,
                batches: 4,
                inserts_per_batch: 1,
                deletes_per_batch: 1,
            },
            // Worst observed batches (quick sweep, two seeds, identity
            // and random IDs, at n = 1024): D.1 reactivates 0.98% of the
            // vertices, D.1x 2.8%; both fractions fall with n. The
            // bounds sit at about 3–5× those.
            vec![
                Bound::UpdateLocality {
                    exp: "D.1",
                    max_frac: 0.05,
                },
                Bound::UpdateLocality {
                    exp: "D.1x",
                    max_frac: 0.1,
                },
            ],
        ),
        ExperimentSpec::dynamic(
            "D.2",
            "D.2: MIS churn on the ingested road excerpt",
            vec![WorkloadSpec::File {
                path: "testdata/road_excerpt.txt",
                largest_component: false,
            }],
            vec![r("D.2", "mis_luby")],
            ChurnPlan {
                seed: 76,
                batches: 3,
                inserts_per_batch: 1,
                deletes_per_batch: 1,
            },
            // On the 64-vertex fixture the worst observed batch
            // reactivates 9/64 (14%) of the vertices; one vertex is 1.6%
            // here, so the bound leaves about ten vertices of room. A
            // full re-solve fallback reports exactly 1.0.
            vec![Bound::UpdateLocality {
                exp: "D.2",
                max_frac: 0.3,
            }],
        ),
    ]
}

/// Ablations over the design parameters DESIGN.md calls out.
pub fn ablations() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec::custom(
            "AB.1",
            "AB.1: ε in Procedure Partition",
            "run_partition(a=2, ε ∈ {0.25, 0.5, 1.0, 2.0})",
            "forest_union(n=2^12 quick / 2^15 full, a=2, seed 81)",
            "reports degree cap A, va, wc per ε",
            ab1,
        ),
        ExperimentSpec::rows(
            "AB.2",
            "AB.2: segmentation k — colors vs VA",
            vec![WorkloadSpec::ForestAt {
                n_quick: 1 << 12,
                n_full: 1 << 15,
                a: 2,
                seed: 82,
            }],
            vec![r("AB.2", "ka2").ksweep()],
            vec![],
        ),
        ExperimentSpec::rows(
            "AB.3",
            "AB.3: One-Plus-Eta — constant C vs colors and VA",
            vec![WorkloadSpec::ForestAt {
                n_quick: 1 << 12,
                n_full: 1 << 13,
                a: 16,
                seed: 83,
            }],
            vec![r("AB.3", "one_plus_eta").csweep(&[2, 4, 8])],
            vec![],
        ),
        ExperimentSpec::custom(
            "AB.4",
            "AB.4: sequential vs parallel engine",
            "a2_loglog on both engine disciplines",
            "forest_union(n=2^12 quick / 2^15 full, a=2, seed 84)",
            "outputs and metrics must agree bit-for-bit; wall-clock reported",
            ab4,
        ),
    ]
}

/// All suites in binary order — the input to the EXPERIMENTS.md index.
pub fn all_suites() -> Vec<(&'static str, Vec<ExperimentSpec>)> {
    vec![
        ("table1", table1()),
        ("table2", table2()),
        ("figures", figures()),
        ("scenarios", scenarios()),
        ("ablations", ablations()),
    ]
}

// ---------------------------------------------------------------------
// Custom experiment bodies (non-Row series) and post hooks.
// ---------------------------------------------------------------------

/// F.5 aggregate: per `n`, the min/mean/max VA over the seed sweep.
fn f5_aggregate(cli: &Cli, rows: &[Row]) {
    println!("{:>8} {:>8} {:>8} {:>8}", "n", "min", "mean", "max");
    for &n in &n_sweep(cli.quick) {
        let vas: Vec<f64> = rows.iter().filter(|r| r.n == n).map(|r| r.va).collect();
        let mean = vas.iter().sum::<f64>() / vas.len() as f64;
        let min = vas.iter().cloned().fold(f64::MAX, f64::min);
        let max = vas.iter().cloned().fold(0.0, f64::max);
        println!("{:>8} {:>8.3} {:>8.3} {:>8.3}", n, min, mean, max);
        println!("#series,F.5,{n},{min:.4},{mean:.4},{max:.4}");
    }
}

/// F.1 — Lemma 6.1: active-vertex decay under Procedure Partition.
fn f1(_cli: &Cli) -> Vec<String> {
    let mut inline = Vec::new();
    println!("\n== F.1: Lemma 6.1 — active-vertex decay ==");
    let gg = forest_workload(1 << 14, 2, 61);
    let (_, m) = algos::partition::run_partition(&gg.graph, 2, 2.0);
    println!("{:>5} {:>10} {:>14}", "round", "active", "lemma bound");
    let n = gg.graph.n() as f64;
    for (i, &a) in m.active_per_round().iter().enumerate() {
        let bound = (0.5f64).powi(i as i32) * n;
        println!("{:>5} {:>10} {:>14.1}", i + 1, a, bound);
        println!("#series,F.1,{},{},{:.1}", i + 1, a, bound);
        if a as f64 > bound {
            inline.push(format!(
                "F.1: round {} has {} active vertices, above the Lemma 6.1 bound {:.1}",
                i + 1,
                a,
                bound
            ));
        }
    }
    inline
}

/// F.2 — Theorem 6.3: Partition VA flat in `n`, WC grows like `log n`.
fn f2(cli: &Cli) -> Vec<String> {
    let mut inline = Vec::new();
    println!("\n== F.2: Theorem 6.3 — Partition VA flat, WC grows ==");
    println!(
        "{:>14} {:>8} {:>10} {:>8} {:>8}",
        "family", "n", "roundsum", "va", "wc"
    );
    for &n in &n_sweep(cli.quick) {
        let gg = forest_workload(n, 2, 62);
        let (_, m) = algos::partition::run_partition(&gg.graph, 2, 2.0);
        println!(
            "{:>14} {:>8} {:>10} {:>8.3} {:>8}",
            gg.family,
            n,
            m.round_sum(),
            m.vertex_averaged(),
            m.worst_case()
        );
        println!(
            "#series,F.2,{},{},{},{:.4},{}",
            gg.family,
            n,
            m.round_sum(),
            m.vertex_averaged(),
            m.worst_case()
        );
        // Lemma 6.2: RoundSum(V) ≤ c·n for a constant c.
        if m.round_sum() > 6 * n as u64 {
            inline.push(format!(
                "F.2: RoundSum {} exceeds 6·n on the n={n} forest workload",
                m.round_sum()
            ));
        }
    }
    // The adversarial nested-shell witness: one shell retires per
    // O(1) rounds, so the worst case is Θ(log n) while the average
    // stays O(1) (run with ε = 0.5 so the threshold bites).
    let max_levels = if cli.quick { 12 } else { 16 };
    for levels in (8..=max_levels).step_by(2) {
        let gg = graphcore::gen::nested_shells(levels, 3);
        let (_, m) = algos::partition::run_partition(&gg.graph, 3, 0.5);
        println!(
            "{:>14} {:>8} {:>10} {:>8.3} {:>8}",
            gg.family,
            gg.graph.n(),
            m.round_sum(),
            m.vertex_averaged(),
            m.worst_case()
        );
        println!(
            "#series,F.2,{},{},{},{:.4},{}",
            gg.family,
            gg.graph.n(),
            m.round_sum(),
            m.vertex_averaged(),
            m.worst_case()
        );
        // Lemma 6.2 with ε = 0.5: va ≤ (2+ε)/ε + 1 = 6.
        if m.vertex_averaged() > 6.0 {
            inline.push(format!(
                "F.2: nested-shell va {:.3} exceeds the (2+ε)/ε + 1 bound at {} levels",
                m.vertex_averaged(),
                levels
            ));
        }
    }
    inline
}

/// X.1 — sequential-simulation efficiency: work ∝ RoundSum(V).
fn x1(cli: &Cli) -> Vec<String> {
    let mut violations = Vec::new();
    println!("\n== X.1: simulation efficiency (§1.2) ==");
    println!(
        "{:>8} {:>5} {:<11} {:>12} {:>12} {:>7} {:>10} {:>10}",
        "n", "seed", "ids", "roundsum_va", "roundsum_wc", "ratio", "ms_va", "ms_wc"
    );
    for &n in &n_sweep(cli.quick) {
        let gg = forest_workload(n, 2, 71);
        for t in cli.sweep().trials() {
            let ids = t.ids(n);
            // Fresh protocol instances per trial: schedules are cached
            // off the first ID assignment seen.
            let fast = algos::coloring::a2logn::ColoringA2LogN::new(2);
            let slow = algos::baselines::ArbLinialOneShot::new(2);
            let t0 = Instant::now();
            let out_fast = Runner::new(&fast, &gg.graph, &ids)
                .config(cfg(t.seed))
                .run()
                .unwrap();
            let ms_fast = t0.elapsed().as_secs_f64() * 1e3;
            let t1 = Instant::now();
            let out_slow = Runner::new(&slow, &gg.graph, &ids)
                .config(cfg(t.seed))
                .run()
                .unwrap();
            let ms_slow = t1.elapsed().as_secs_f64() * 1e3;
            let rs_f = out_fast.metrics.round_sum();
            let rs_s = out_slow.metrics.round_sum();
            let lbl = t.id_mode.label();
            println!(
                "{:>8} {:>5} {:<11} {:>12} {:>12} {:>7.2} {:>10.2} {:>10.2}",
                n,
                t.seed,
                lbl,
                rs_f,
                rs_s,
                rs_s as f64 / rs_f as f64,
                ms_fast,
                ms_slow
            );
            println!(
                "#series,X.1,{n},{rs_f},{rs_s},{ms_fast:.3},{ms_slow:.3},{},{lbl}",
                t.seed
            );
            if rs_f >= rs_s {
                violations.push(format!(
                    "X.1: RoundSum {rs_f} (VA algorithm) not below {rs_s} (classical) \
                     at n={n}, seed={}, ids={lbl}",
                    t.seed
                ));
            }
        }
    }
    violations
}

/// X.2 — two-subtask pipelining: start ℬ per-vertex vs after global 𝒜.
fn x2(cli: &Cli) -> Vec<String> {
    println!("\n== X.2: two-subtask pipelining (§1.2) ==");
    println!(
        "{:>8} {:>5} {:<11} {:>14} {:>14} {:>8}",
        "n", "seed", "ids", "avg_done_pipe", "avg_done_sync", "gain"
    );
    const TASK_B_ROUNDS: u32 = 10;
    for &n in &n_sweep(cli.quick) {
        let gg = forest_workload(n, 2, 72);
        for t in cli.sweep().trials() {
            let ids = t.ids(n);
            // Use the §8 MIS: its sequential iteration windows give a real
            // vertex-averaged vs worst-case spread (≈62 vs ≈133 rounds on
            // this workload), so the pipelining gain is visible.
            let fast = algos::mis::MisExtension::new(2);
            let out = Runner::new(&fast, &gg.graph, &ids)
                .config(cfg(t.seed))
                .run()
                .unwrap();
            // Pipelined: vertex v finishes ℬ at term(v) + B rounds.
            let pipe: f64 = out
                .metrics
                .termination_round
                .iter()
                .map(|&r| (r + TASK_B_ROUNDS) as f64)
                .sum::<f64>()
                / n as f64;
            // Synchronized: everyone waits for the last 𝒜 vertex.
            let sync = (out.metrics.worst_case() + TASK_B_ROUNDS) as f64;
            println!(
                "{:>8} {:>5} {:<11} {:>14.2} {:>14.2} {:>8.2}",
                n,
                t.seed,
                t.id_mode.label(),
                pipe,
                sync,
                sync / pipe
            );
            println!(
                "#series,X.2,{n},{pipe:.3},{sync:.3},{},{}",
                t.seed,
                t.id_mode.label()
            );
        }
    }
    Vec::new()
}

/// X.3 — asynchronous-start pipeline as an actual composed protocol.
fn x3(cli: &Cli) -> Vec<String> {
    println!("\n== X.3: asynchronous-start pipeline as a real protocol ==");
    println!(
        "{:>8} {:>5} {:<11} {:>12} {:>12} {:>8}",
        "n", "seed", "ids", "async_avg", "sync_avg", "gain"
    );
    for &n in &n_sweep(cli.quick) {
        let gg = forest_workload(n, 2, 73);
        for t in cli.sweep().trials() {
            let ids = t.ids(n);
            let p = algos::pipeline::ColorThenCensus::new(2, 8);
            let out = Runner::new(&p, &gg.graph, &ids)
                .config(cfg(t.seed))
                .run()
                .unwrap();
            let async_avg = out.metrics.vertex_averaged();
            let a_worst = out.outputs.iter().map(|o| o.a_done_round).max().unwrap();
            let sync_avg = (a_worst + 1 + 8) as f64;
            println!(
                "{:>8} {:>5} {:<11} {:>12.2} {:>12.2} {:>8.2}",
                n,
                t.seed,
                t.id_mode.label(),
                async_avg,
                sync_avg,
                sync_avg / async_avg
            );
            println!(
                "#series,X.3,{n},{async_avg:.3},{sync_avg:.3},{},{}",
                t.seed,
                t.id_mode.label()
            );
        }
    }
    Vec::new()
}

fn ablation_n(cli: &Cli) -> usize {
    if cli.quick {
        1 << 12
    } else {
        1 << 15
    }
}

/// AB.1 — ε in Procedure Partition: degree threshold vs decay speed.
fn ab1(cli: &Cli) -> Vec<String> {
    println!("\n== AB.1: ε in Procedure Partition ==");
    println!("{:>6} {:>6} {:>9} {:>6}", "eps", "A", "va", "wc");
    let gg = forest_workload(ablation_n(cli), 2, 81);
    for eps in [0.25, 0.5, 1.0, 2.0] {
        let (_, m) = algos::partition::run_partition(&gg.graph, 2, eps);
        println!(
            "{:>6.2} {:>6} {:>9.3} {:>6}",
            eps,
            algos::partition::degree_cap(2, eps),
            m.vertex_averaged(),
            m.worst_case()
        );
        println!(
            "#series,AB.1,{eps},{},{:.4},{}",
            algos::partition::degree_cap(2, eps),
            m.vertex_averaged(),
            m.worst_case()
        );
    }
    Vec::new()
}

/// AB.4 — sequential vs parallel engine (rounds fanned out on
/// `std::thread::scope`) byte-identity + timing.
fn ab4(cli: &Cli) -> Vec<String> {
    println!("\n== AB.4: sequential vs parallel engine ==");
    let n = ablation_n(cli);
    let gg = forest_workload(n, 2, 84);
    let ids = graphcore::IdAssignment::identity(gg.graph.n());
    let p = algos::coloring::a2_loglog::ColoringA2LogLog::new(2);
    let t0 = Instant::now();
    let seq = Runner::new(&p, &gg.graph, &ids).run().unwrap();
    let t_seq = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let par = Runner::new(&p, &gg.graph, &ids).parallel().run().unwrap();
    let t_par = t1.elapsed().as_secs_f64() * 1e3;
    assert_eq!(seq.outputs, par.outputs, "engines must agree bit-for-bit");
    assert_eq!(seq.metrics, par.metrics);
    println!("identical outputs: yes   seq {t_seq:.2} ms   par {t_par:.2} ms");
    println!("#series,AB.4,{n},{t_seq:.3},{t_par:.3}");
    Vec::new()
}
