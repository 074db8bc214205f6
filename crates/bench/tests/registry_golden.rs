//! Golden tests pinning the algorithm registry: the enumerated set of
//! algorithms (names, problems, claimed caps) and every algorithm's
//! per-phase round accounting must not drift silently, and the erased
//! run path must produce rows field-identical to the pre-registry wiring
//! (round log + verify + `Row` builders inlined by hand, exactly as the
//! deleted `run_*` wrappers did).

use benchharness::registry::{self, Backend, ExecOptions, Params, Problem, Solution};
use benchharness::{cfg, forest_workload, Row, Trial};
use graphcore::verify;
use simlocal::{PhaseBreakdown, Protocol, Runner, TraceLog};

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

        // Pre-registry wiring, by hand: construct, run recording the
        // rounds, verify, assemble.
        let ids = trial.ids(gg.graph.n());
        let inline_row = match name {
            "a2logn" => {
                let p = algos::coloring::a2logn::ColoringA2LogN::new(gg.arboricity);
                let cap = p.palette(&ids) as usize;
                let mut log = TraceLog::with_phases(p.phase_names());
                let out = Runner::new(&p, &gg.graph, &ids)
                    .config(cfg(trial.seed))
                    .run_with(&mut log)
                    .unwrap();
                row_from(&gg, "a2logn", &out, cap, &trial, &log)
            }
            _ => {
                let p = algos::rand_coloring::delta_plus_one::RandDeltaPlusOne::new();
                let cap = p.palette_on(&gg.graph) as usize;
                let mut log = TraceLog::with_phases(p.phase_names());
                let out = Runner::new(&p, &gg.graph, &ids)
                    .config(cfg(trial.seed))
                    .run_with(&mut log)
                    .unwrap();
                row_from(&gg, "rand_delta_plus_one", &out, cap, &trial, &log)
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
    log: &TraceLog,
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
    .with_trace(&out.metrics, &PhaseBreakdown::from_log(log))
}

/// Same equivalence for a set problem (MIS): the registry row must match
/// the hand-wired round log + verifier path bit-for-bit.
#[test]
fn erased_run_matches_inline_wiring_for_mis() {
    let gg = forest_workload(280, 2, 9);
    let trial = Trial::identity(2);
    let reg_row = registry::get("mis_extension")
        .exec(&ExecOptions::new("EQ", &gg, &trial))
        .into_row();

    let p = algos::mis::MisExtension::new(gg.arboricity);
    let ids = trial.ids(gg.graph.n());
    let mut log = TraceLog::with_phases(p.phase_names());
    let out = Runner::new(&p, &gg.graph, &ids)
        .config(cfg(trial.seed))
        .run_with(&mut log)
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
    .with_trace(&out.metrics, &PhaseBreakdown::from_log(&log));
    assert_rows_equivalent(&reg_row, &inline_row);
}

/// Every execution carries its round log: one record per round whose
/// steps and terminations total the run's, and whose breakdown is the
/// row's.
#[test]
fn every_exec_records_its_rounds() {
    let gg = forest_workload(240, 2, 11);
    let trial = Trial::identity(1);
    let out = registry::get("a2logn").exec(&ExecOptions::new("EQ", &gg, &trial));
    assert_eq!(out.trace.rounds(), out.stats.rounds);
    assert_eq!(out.trace.steps(), out.stats.steps);
    assert_eq!(out.trace.terminations() as usize, gg.graph.n());
    assert_eq!(
        PhaseBreakdown::from_log(&out.trace).rows(),
        out.breakdown.rows()
    );
    let row_phases: Vec<(String, u64)> = out
        .row
        .phases
        .iter()
        .map(|p| (p.name.clone(), p.round_sum))
        .collect();
    let phases: Vec<(String, u64)> = out
        .breakdown
        .rows()
        .into_iter()
        .map(|(name, round_sum, _)| (name, round_sum))
        .collect();
    assert_eq!(row_phases, phases);
}

/// Every registered algorithm's per-phase `phase:RoundSum:terminations`
/// on `forest_workload(1024, 2, 3)` with identity IDs (trial seed 3),
/// `ka` and `ka2` at `k = 2` — recorded from the per-step observer that
/// the round tallies replaced, and required of both backends.
const GOLDEN_PHASES: &str = "\
a2logn partition:1059:0 arb_linial:1024:1024
a2_loglog main:5120:1024
oa_recolor main:63962:1024
ka2 main:5120:1024
ka2_rho main:3072:1024
ka main:63962:1024
ka_rho main:61914:1024
delta_plus_one partition:1059:0 await_window:4288:0 inset_color:55296:0 slot_sweep:3273:1024
legal_coloring main:72154:1024
one_plus_eta main:6144:1024
rand_delta_plus_one undecided:3119:0 proposed:1101:1024
rand_a_loglog main:6516:1024
arb_color_baseline main:71130:1024
arb_linial_oneshot main:12288:1024
arb_linial_full main:12288:1024
global_linial main:1024:1024
global_linial_kw main:110592:1024
color_then_census partition:1059:0 color:1024:0 await:1303:0 census:3072:1024
mis_extension partition:1059:0 await_window:4288:0 inset_color:55296:0 slot_sweep:3273:1024
mis_luby main:4473:1024
edge_col_extension partition:1059:0 label:1024:0 window:285214:1024
matching_extension partition:1059:0 label:1024:0 window:244660:1024
forest_parallelized partition:1059:0 orient:1024:1024
forest_baseline main:12288:1024";

#[test]
fn per_phase_accounting_matches_golden_table() {
    let gg = forest_workload(1024, 2, 3);
    let trial = Trial::identity(3);
    for backend in [Backend::Sync, Backend::Actor { shards: 2 }] {
        let actual: Vec<String> = registry::all()
            .iter()
            .map(|spec| {
                let params = match spec.name {
                    "ka" | "ka2" => Params::k(2),
                    _ => Params::default(),
                };
                let opts = ExecOptions::new("G", &gg, &trial)
                    .params(params)
                    .backend(backend);
                let rows = spec.exec(&opts).breakdown.rows().into_iter();
                let phases =
                    rows.map(|(phase, round_sum, terms)| format!(" {phase}:{round_sum}:{terms}"));
                std::iter::once(spec.name.to_string())
                    .chain(phases)
                    .collect()
            })
            .collect();
        let golden: Vec<&str> = GOLDEN_PHASES.lines().collect();
        assert_eq!(
            actual, golden,
            "per-phase accounting drifted on {backend:?}"
        );
    }
}
