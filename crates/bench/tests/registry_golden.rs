//! Golden tests pinning the algorithm registry: the enumerated set of
//! algorithms (names, problems, claimed caps) must not drift silently,
//! and the erased run path must produce rows field-identical to the
//! pre-registry wiring (harness observer + verify + `Row` builders inlined
//! by hand, exactly as the deleted `run_*` wrappers did).

use benchharness::registry::{self, ExecOptions, ObserveMode, Params, Problem, Solution};
use benchharness::{cfg, forest_workload, Row, Trial};
use graphcore::verify;
use simlocal::{PhaseBreakdown, Protocol, Runner};

/// Golden enumeration: every registered algorithm with its problem and
/// the palette cap it claims on the reference workload (n = 256, a = 2,
/// seed 1, identity IDs, k = 2). A diff here means an algorithm was
/// added, removed, renamed, re-ordered, or changed its cap formula —
/// all of which invalidate committed result baselines and must be
/// deliberate.
#[test]
fn registry_enumeration_matches_golden_snapshot() {
    let gg = forest_workload(256, 2, 1);
    let trial = Trial::identity(0);
    let ids = trial.ids(gg.graph.n());
    let actual: Vec<String> = registry::all()
        .iter()
        .map(|s| {
            let cap = s.cap_for(&gg, Params::k(2), &ids);
            let cap = if cap == usize::MAX {
                "-".to_string()
            } else {
                cap.to_string()
            };
            format!("{} {} {}", s.name, s.problem.label(), cap)
        })
        .collect();
    let expected = [
        "a2logn vertex-coloring 289",
        "a2_loglog vertex-coloring 512",
        "oa_recolor vertex-coloring 18",
        "ka2 vertex-coloring 512",
        "ka2_rho vertex-coloring 768",
        "ka vertex-coloring 18",
        "ka_rho vertex-coloring 27",
        "delta_plus_one vertex-coloring 13",
        "legal_coloring vertex-coloring 458752",
        "one_plus_eta vertex-coloring 46137344",
        "rand_delta_plus_one vertex-coloring 13",
        "rand_a_loglog vertex-coloring 63",
        "arb_color_baseline vertex-coloring 9",
        "arb_linial_oneshot vertex-coloring 289",
        "arb_linial_full vertex-coloring 256",
        "global_linial vertex-coloring 256",
        "global_linial_kw vertex-coloring 13",
        "color_then_census vertex-coloring -",
        "mis_extension mis -",
        "mis_luby mis -",
        "edge_col_extension edge-coloring 23",
        "matching_extension maximal-matching -",
        "forest_parallelized forests -",
        "forest_baseline forests -",
    ];
    assert_eq!(
        actual,
        expected,
        "registry snapshot drifted; actual:\n{}",
        actual.join("\n")
    );
}

fn assert_rows_equivalent(reg: &Row, inline: &Row) {
    assert_eq!(reg.algo, inline.algo);
    assert_eq!(reg.va.to_bits(), inline.va.to_bits(), "{}: va", reg.algo);
    assert_eq!(reg.wc, inline.wc, "{}: wc", reg.algo);
    assert_eq!(reg.median, inline.median, "{}: median", reg.algo);
    assert_eq!(reg.p95, inline.p95, "{}: p95", reg.algo);
    assert_eq!(reg.colors, inline.colors, "{}: colors", reg.algo);
    assert_eq!(reg.valid, inline.valid, "{}: valid", reg.algo);
    assert_eq!(reg.cap, inline.cap, "{}: cap", reg.algo);
    assert_eq!(reg.pubs, inline.pubs, "{}: pubs", reg.algo);
    assert_eq!(
        reg.active_series, inline.active_series,
        "{}: active",
        reg.algo
    );
    assert_eq!(
        reg.phases.len(),
        inline.phases.len(),
        "{}: phase count",
        reg.algo
    );
    for (a, b) in reg.phases.iter().zip(&inline.phases) {
        assert_eq!(
            (&a.name, a.round_sum),
            (&b.name, b.round_sum),
            "{}: phases",
            reg.algo
        );
    }
}

/// The erased run path must be observation-for-observation identical to
/// the pre-registry wiring: same observer, same verification, same
/// Row fields. Recreates that wiring inline for a deterministic and a
/// randomized coloring and compares every measured field.
#[test]
fn erased_run_matches_inline_wiring_for_colorings() {
    let gg = forest_workload(300, 2, 7);
    let trial = Trial::identity(3);
    for name in ["a2logn", "rand_delta_plus_one"] {
        let reg_row = registry::get(name)
            .exec(&ExecOptions::new("EQ", &gg, &trial))
            .into_row();

        // Pre-registry wiring, by hand: construct, run under the
        // standard harness observer, verify, assemble.
        let ids = trial.ids(gg.graph.n());
        let inline_row = match name {
            "a2logn" => {
                let p = algos::coloring::a2logn::ColoringA2LogN::new(gg.arboricity);
                let cap = p.palette(&ids) as usize;
                let mut obs = PhaseBreakdown::new(p.phase_names());
                let out = Runner::new(&p, &gg.graph, &ids)
                    .config(cfg(trial.seed))
                    .run_with(&mut obs)
                    .unwrap();
                row_from(&gg, "a2logn", &out, cap, &trial, &obs)
            }
            _ => {
                let p = algos::rand_coloring::delta_plus_one::RandDeltaPlusOne::new();
                let cap = p.palette_on(&gg.graph) as usize;
                let mut obs = PhaseBreakdown::new(p.phase_names());
                let out = Runner::new(&p, &gg.graph, &ids)
                    .config(cfg(trial.seed))
                    .run_with(&mut obs)
                    .unwrap();
                row_from(&gg, "rand_delta_plus_one", &out, cap, &trial, &obs)
            }
        };
        assert_rows_equivalent(&reg_row, &inline_row);
    }
}

fn row_from(
    gg: &graphcore::gen::GenGraph,
    algo: &str,
    out: &simlocal::SimOutcome<u64>,
    cap: usize,
    trial: &Trial,
    obs: &PhaseBreakdown,
) -> Row {
    let colors = verify::count_distinct(&out.outputs);
    let valid = verify::proper_vertex_coloring(&gg.graph, &out.outputs, cap).is_ok();
    Row::from_metrics(
        "EQ",
        algo,
        gg.family,
        gg.graph.n(),
        gg.arboricity,
        &out.metrics,
        colors,
        valid,
    )
    .with_stats(&out.stats)
    .with_trial(trial)
    .with_cap(cap)
    .with_trace(&out.metrics, obs)
}

/// Same equivalence for a set problem (MIS): the registry row must match
/// the hand-wired observer + verifier path bit-for-bit.
#[test]
fn erased_run_matches_inline_wiring_for_mis() {
    let gg = forest_workload(280, 2, 9);
    let trial = Trial::identity(2);
    let reg_row = registry::get("mis_extension")
        .exec(&ExecOptions::new("EQ", &gg, &trial))
        .into_row();

    let p = algos::mis::MisExtension::new(gg.arboricity);
    let ids = trial.ids(gg.graph.n());
    let mut obs = PhaseBreakdown::new(p.phase_names());
    let out = Runner::new(&p, &gg.graph, &ids)
        .config(cfg(trial.seed))
        .run_with(&mut obs)
        .unwrap();
    let verdict =
        Problem::Mis.verify_output(&gg.graph, &Solution::InSet(out.outputs.clone()), usize::MAX);
    let inline_row = Row::from_metrics(
        "EQ",
        "mis_extension",
        gg.family,
        gg.graph.n(),
        gg.arboricity,
        &out.metrics,
        verdict.colors,
        verdict.valid,
    )
    .with_stats(&out.stats)
    .with_trial(&trial)
    .with_cap(usize::MAX)
    .with_trace(&out.metrics, &obs);
    assert_rows_equivalent(&reg_row, &inline_row);
}

/// Each observation level populates exactly what it promises: `Traced`
/// carries the standard row plus an event log covering every step,
/// `Standard` carries no event log.
#[test]
fn observe_modes_populate_what_they_promise() {
    let gg = forest_workload(240, 2, 11);
    let trial = Trial::identity(1);
    let spec = registry::get("a2logn");

    let standard = spec.exec(&ExecOptions::new("EQ", &gg, &trial));
    let traced = spec.exec(&ExecOptions::new("EQ", &gg, &trial).observe(ObserveMode::Traced));
    assert!(standard.trace.is_none());
    let log = traced.trace.expect("traced execution carries a trace");
    assert_rows_equivalent(&standard.row, &traced.row);
    assert_eq!(log.step_events(), traced.stats.steps);
    assert_eq!(log.terminate_events() as usize, gg.graph.n());
    assert_eq!(standard.stats.steps, traced.stats.steps);
}
