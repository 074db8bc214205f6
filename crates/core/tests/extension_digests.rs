//! Golden per-vertex output digests for the edge-labelled extension
//! protocols, Corollary 8.6 (`EdgeColoringExtension`) and Corollary 8.8
//! (`MatchingExtension`).
//!
//! The table gates compare summary statistics; these digests pin which
//! color every edge gets and which partner every vertex takes, together
//! with every commit round and every engine termination round. Each
//! configuration runs on the sync engine and on the actor backend with 2
//! shards, and both must reproduce the pinned digest.

use algos::edge_coloring::{EcOut, EdgeColoringExtension};
use algos::matching::{MatchingExtension, MmOut};
use graphcore::{gen, Graph, IdAssignment};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simlocal::{ActorRunner, Protocol, Runner, SimOutcome};

/// FNV-1a-64 over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The four graphs, drawn in order from one seed-54 stream, each with its
/// arboricity.
fn graphs() -> Vec<(Graph, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(54);
    let drawn = [
        gen::forest_union(1024, 2, &mut rng),
        gen::forest_union(4096, 3, &mut rng),
        gen::hub_forest(1024, 1, 3, 64, &mut rng),
        gen::hub_forest(4096, 1, 3, 64, &mut rng),
    ];
    drawn
        .into_iter()
        .map(|gg| (gg.graph, gg.arboricity))
        .collect()
}

/// Hashes, for each vertex in order, `v`, then whatever `output` feeds
/// for its output; then every engine termination round.
fn digest<O>(out: &SimOutcome<O>, output: impl Fn(&O, &mut Fnv)) -> u64 {
    let mut h = Fnv::new();
    for (v, o) in out.outputs.iter().enumerate() {
        h.word(v as u64);
        output(o, &mut h);
    }
    for &t in &out.metrics.termination_round {
        h.word(t as u64);
    }
    h.0
}

/// Digests every configuration — each graph under identity IDs, then
/// under a seed-3 random permutation — on both engines, and checks both
/// against `pinned`.
fn check<P: Protocol>(
    make: impl Fn(usize) -> P,
    output: impl Fn(&P::Output, &mut Fnv) + Copy,
    pinned: [u64; 8],
) {
    let (mut sync, mut actor) = (Vec::new(), Vec::new());
    for (g, a) in graphs() {
        let n = g.n();
        let permuted = IdAssignment::random_permutation(n, &mut ChaCha8Rng::seed_from_u64(3));
        for ids in [IdAssignment::identity(n), permuted] {
            let p = make(a);
            let out = Runner::new(&p, &g, &ids).run().expect("sync run");
            sync.push(digest(&out, output));
            let out = ActorRunner::new(&p, &g, &ids)
                .shards(2)
                .run()
                .expect("actor run");
            actor.push(digest(&out, output));
        }
    }
    assert_eq!(sync, pinned, "sync engine digests");
    assert_eq!(actor, pinned, "actor backend digests");
}

#[test]
fn edge_coloring_outputs_match_golden_digests() {
    check(
        EdgeColoringExtension::new,
        |o: &EcOut, h| {
            h.word(o.commit_round as u64);
            for &(u, color) in &o.assigned {
                h.word(u as u64);
                h.word(color);
            }
        },
        [
            16052752576467811441,
            2353065851081743340,
            12742289642998577502,
            5023232754251466856,
            7002930959957279853,
            4321882226666636343,
            12075705739266409632,
            8011248769740533574,
        ],
    );
}

#[test]
fn matching_outputs_match_golden_digests() {
    check(
        MatchingExtension::new,
        |o: &MmOut, h| {
            h.word(o.commit_round as u64);
            h.word(o.matched.map_or(u64::MAX, |u| u as u64));
        },
        [
            17611154804144644914,
            5148236489119833675,
            16708760796256095598,
            3667104965482034104,
            3597287334560687242,
            3968129175686268553,
            17349764929845910920,
            3683442290286861411,
        ],
    );
}
