//! Acceptance test for the sparse-round engine: on a fast-decay workload
//! (Procedure Partition on a forest union, n = 2^16) the engine's
//! step-and-publish work equals `RoundSum(V)` — the quantity the paper's
//! vertex-averaged bounds control — not `n × worst-case`, and sequential
//! and parallel execution return byte-identical outcomes.

use benchharness::forest_workload;
use distsym::algos::mis::MisExtension;
use distsym::algos::Partition;
use distsym::graphcore::IdAssignment;
use distsym::simlocal::{run_reference, EngineTuning, Runner, TraceLog};

const N: usize = 1 << 16;

#[test]
fn partition_work_tracks_round_sum_not_n_times_worst_case() {
    let gg = forest_workload(N, 2, 99);
    let ids = IdAssignment::identity(N);
    let out = Runner::new(&Partition::new(2), &gg.graph, &ids)
        .run()
        .unwrap();
    out.metrics.check_identities().unwrap();

    // The engine's own accounting: every vertex touch is a step, every
    // step publishes once, and the total is exactly RoundSum.
    let round_sum = out.metrics.round_sum();
    assert_eq!(out.stats.steps, round_sum);

    // Lemma 6.2 decay (ε = 2): RoundSum ≤ 2n + O(1), so the sparse
    // engine's work is ~n even though the run lasts worst_case rounds.
    assert!(
        round_sum <= 2 * N as u64 + 2,
        "RoundSum {round_sum} exceeds the Lemma 6.2 bound"
    );
    let dense_work = N as u64 * out.metrics.worst_case() as u64;
    assert!(
        round_sum < dense_work,
        "sparse work {round_sum} should undercut dense work {dense_work}"
    );

    // The retained naive engine really does n × rounds touches — the gap
    // between the two is the whole point of the redesign.
    let dense = run_reference(&Partition::new(2), &gg.graph, &ids, 0).unwrap();
    assert_eq!(dense.outputs, out.outputs);
    assert_eq!(dense.metrics, out.metrics);
    assert_eq!(dense.stats.steps, dense_work);
}

#[test]
fn seq_and_par_outcomes_byte_identical_at_scale() {
    let gg = forest_workload(N, 2, 99);
    let ids = IdAssignment::identity(N);
    let p = Partition::new(2);
    let seq = Runner::new(&p, &gg.graph, &ids).run().unwrap();
    // Threshold 1 + forced workers exercises real fan-out on every round,
    // core count notwithstanding — it must be indistinguishable anyway.
    let par = Runner::new(&p, &gg.graph, &ids)
        .parallel()
        .tuning(EngineTuning::default().par_threshold(1).workers(4))
        .run()
        .unwrap();
    assert_eq!(seq.outputs, par.outputs);
    assert_eq!(seq.metrics, par.metrics);
    assert_eq!(seq.stats.steps, par.stats.steps);
    assert_eq!(seq.stats.msg_bits, par.stats.msg_bits);
    assert_eq!(seq.stats.max_msg_bits, par.stats.max_msg_bits);
}

#[test]
fn per_round_telemetry_mirrors_active_set_decay() {
    // A longer-lived decay workload: the §8 MIS extension on the same
    // forest union, observed round by round.
    let n = 1 << 12;
    let gg = forest_workload(n, 2, 5);
    let ids = IdAssignment::identity(n);
    let mut t = TraceLog::new();
    let out = Runner::new(&MisExtension::new(2), &gg.graph, &ids)
        .run_with(&mut t)
        .unwrap();
    let active: Vec<usize> = t.records().map(|r| r.active).collect();
    assert_eq!(active, out.metrics.active_per_round());
    assert_eq!(t.steps(), out.metrics.round_sum());
    assert_eq!(t.rounds(), out.stats.rounds);
    // The active series is the engine's actual per-round work, so the
    // whole run's work is its sum — not rounds × n.
    let series_sum: u64 = active.iter().map(|&a| a as u64).sum();
    assert_eq!(series_sum, out.stats.steps);
    assert!(series_sum < out.stats.rounds as u64 * n as u64);
}
