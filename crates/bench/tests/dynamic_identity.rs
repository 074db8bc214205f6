//! Registry-level pin of the dynamic mode: `exec_dynamic` with
//! `check_cold = true` makes every batch assert that the warm-started
//! solution equals a cold re-solve on the edited graph, so these tests
//! fail loudly if the propagation rule ever diverges for a *real* registered
//! protocol (the engine-level pin on synthetic protocols lives in
//! `simlocal::warm`). On top of the oracle, the rows themselves must
//! verify and carry the reactivated fraction the dynamic suite reports.

use benchharness::registry::{self, ExecOptions};
use benchharness::{forest_workload, IdMode, Trial};
use graphcore::churn::ChurnPlan;

fn random_ids(seed: u64) -> Trial {
    Trial {
        seed,
        id_mode: IdMode::Random,
    }
}

/// Runs one algorithm through a full churn chain with the cold oracle on
/// and sanity-checks the produced update-cost rows.
fn check_chain(algo: &str, n: usize, churn_seed: u64, edits: usize, trial: &Trial) {
    let spec = registry::get(algo);
    let gg = forest_workload(n, 2, 7);
    let plan = ChurnPlan {
        seed: churn_seed,
        batches: 3,
        inserts_per_batch: edits,
        deletes_per_batch: edits,
    };
    let opts = ExecOptions::new("dyn-test", &gg, trial);
    let rows = spec.exec_dynamic(&opts, &plan, true);
    assert_eq!(rows.len(), plan.batches, "one row per edit batch");
    for row in &rows {
        assert!(
            row.valid,
            "{algo}: warm solution must verify on the edited graph"
        );
        let frac = row
            .reactivated
            .expect("dynamic rows carry the reactivated fraction");
        assert!(
            (0.0..=1.0).contains(&frac),
            "{algo}: fraction {frac} out of range"
        );
    }
}

#[test]
fn warm_equals_cold_across_protocols_seeds_and_batch_sizes() {
    // ≥2 protocols × ≥2 churn seeds × ≥2 batch sizes, every combination
    // oracle-checked per batch. mis_luby exercises genuine partial
    // reactivation; mis_extension's sequential ID windows make every
    // batch a (correct) whole-graph re-step — both must stay
    // byte-identical to cold.
    for algo in ["mis_extension", "mis_luby"] {
        for churn_seed in [3, 17] {
            for edits in [1, 4] {
                check_chain(algo, 192, churn_seed, edits, &Trial::identity(0));
            }
        }
    }
}

#[test]
fn warm_equals_cold_under_random_ids_and_seeds() {
    // ID permutation and run seed both feed the protocols' randomness;
    // the oracle must hold across them too.
    for seed in [0, 1] {
        check_chain("mis_luby", 192, 5, 2, &random_ids(seed));
        check_chain("mis_extension", 128, 9, 2, &random_ids(seed));
    }
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        // Randomized sweep over workload size, churn shape, and run
        // seed: the per-batch cold oracle inside exec_dynamic is the
        // assertion.
        #[test]
        fn incremental_resolve_is_cold_identical(
            n in 64usize..200,
            churn_seed in 0u64..500,
            inserts in 0usize..4,
            deletes in 0usize..4,
            run_seed in 0u64..100,
        ) {
            let plan = ChurnPlan {
                seed: churn_seed,
                batches: 2,
                inserts_per_batch: inserts,
                deletes_per_batch: deletes,
            };
            for algo in ["mis_extension", "mis_luby"] {
                let spec = registry::get(algo);
                let gg = forest_workload(n, 2, 11);
                let trial = super::random_ids(run_seed);
                let opts = ExecOptions::new("dyn-prop", &gg, &trial);
                let rows = spec.exec_dynamic(&opts, &plan, true);
                prop_assert_eq!(rows.len(), plan.batches);
                prop_assert!(rows.iter().all(|r| r.valid && r.reactivated.is_some()));
            }
        }
    }
}
