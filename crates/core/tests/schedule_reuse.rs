//! A protocol instance builds its schedule on its first run, from that
//! run's ID space (and `n` or Δ where the schedule reads them). Reusing
//! the instance on a run with a different key must panic rather than run
//! the first run's schedule, which for a larger ID space is truncated;
//! reusing it with the same key must change nothing.

use algos::baselines::GlobalLinial;
use algos::coloring::delta_plus_one::DeltaPlusOneColoring;
use algos::mis::MisExtension;
use graphcore::{gen, Graph, IdAssignment};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simlocal::{Protocol, Runner};

fn forest(n: usize, seed: u64) -> Graph {
    gen::forest_union(n, 2, &mut ChaCha8Rng::seed_from_u64(seed)).graph
}

/// Runs `p` on the 8-cycle, then on a 4096-vertex forest union: a
/// 512-fold larger ID space.
fn reuse_on_larger_id_space<P: Protocol>(p: &P) {
    Runner::new(p, &gen::cycle(8), &IdAssignment::identity(8))
        .run()
        .expect("terminates on the cycle");
    let _ = Runner::new(p, &forest(4096, 1), &IdAssignment::identity(4096)).run();
}

#[test]
#[should_panic(expected = "reused for ScheduleKey { id_space: 4096")]
fn mis_extension_reused_across_id_spaces_panics() {
    reuse_on_larger_id_space(&MisExtension::new(2));
}

#[test]
#[should_panic(expected = "reused for ScheduleKey { id_space: 4096")]
fn delta_plus_one_reused_across_id_spaces_panics() {
    reuse_on_larger_id_space(&DeltaPlusOneColoring::new(2));
}

#[test]
#[should_panic(expected = "max_degree: Some(63)")]
fn global_linial_reused_across_max_degrees_panics() {
    // Same ID space, larger Δ: the baseline's schedule reads Δ too.
    let p = GlobalLinial::new();
    let ids = IdAssignment::identity(64);
    Runner::new(&p, &gen::cycle(64), &ids).run().unwrap();
    let _ = Runner::new(&p, &gen::star(64), &ids).run();
}

#[test]
fn reuse_within_one_id_space_matches_fresh_instances() {
    let ids = IdAssignment::identity(4096);
    let (mis, dp1) = (MisExtension::new(2), DeltaPlusOneColoring::new(2));
    for seed in [1, 2, 3] {
        let g = forest(4096, seed);
        let reused = Runner::new(&mis, &g, &ids).run().unwrap();
        let fresh = Runner::new(&MisExtension::new(2), &g, &ids).run().unwrap();
        assert_eq!(reused.outputs, fresh.outputs, "mis_extension, seed {seed}");
        assert_eq!(reused.metrics, fresh.metrics, "mis_extension, seed {seed}");
        let reused = Runner::new(&dp1, &g, &ids).run().unwrap();
        let fresh = Runner::new(&DeltaPlusOneColoring::new(2), &g, &ids)
            .run()
            .unwrap();
        assert_eq!(reused.outputs, fresh.outputs, "delta_plus_one, seed {seed}");
        assert_eq!(reused.metrics, fresh.metrics, "delta_plus_one, seed {seed}");
    }
}
