//! Golden per-vertex output digests for the §7–§8 protocols.
//!
//! The table gates compare summary statistics; these digests pin every
//! vertex's output and every engine termination round. For the
//! edge-labelled extension protocols, Corollary 8.6
//! (`EdgeColoringExtension`) and Corollary 8.8 (`MatchingExtension`),
//! they pin which color every edge gets, which partner every vertex
//! takes and every commit round. For the vertex protocols built on the
//! shared windowed, cascade and extension drivers, and for Legal-Coloring
//! and One-Plus-Eta, they also pin the run's total and widest message
//! bits, so the wire encoding cannot drift either. Each configuration
//! runs on the sync engine and on the actor backend with 2 shards, and
//! both must reproduce the pinned digest.

use algos::arb_color::ArbColor;
use algos::arbdefective::ArbdefectiveColoring;
use algos::coloring::{
    a2_loglog::ColoringA2LogLog, delta_plus_one::DeltaPlusOneColoring, ka::ColoringKa,
    ka2::ColoringKa2, oa_recolor::ColoringOaRecolor,
};
use algos::edge_coloring::{EcOut, EdgeColoringExtension};
use algos::legal_coloring::LegalColoring;
use algos::matching::{MatchingExtension, MmOut};
use algos::mis::MisExtension;
use algos::one_plus_eta::OnePlusEtaArbCol;
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
fn digest<O>(out: &SimOutcome<O>, output: impl Fn(&O, &mut Fnv)) -> Fnv {
    let mut h = Fnv::new();
    for (v, o) in out.outputs.iter().enumerate() {
        h.word(v as u64);
        output(o, &mut h);
    }
    for &t in &out.metrics.termination_round {
        h.word(t as u64);
    }
    h
}

/// Digests every configuration — each graph under identity IDs, then
/// under a seed-3 random permutation — on both engines with `digest`,
/// and checks both against `pinned`.
fn check_with<P: Protocol>(
    make: impl Fn(usize) -> P,
    digest: impl Fn(&SimOutcome<P::Output>) -> u64,
    pinned: [u64; 8],
) {
    let (mut sync, mut actor) = (Vec::new(), Vec::new());
    for (g, a) in graphs() {
        let n = g.n();
        let permuted = IdAssignment::random_permutation(n, &mut ChaCha8Rng::seed_from_u64(3));
        for ids in [IdAssignment::identity(n), permuted] {
            let p = make(a);
            let out = Runner::new(&p, &g, &ids).run().expect("sync run");
            sync.push(digest(&out));
            let out = ActorRunner::new(&p, &g, &ids)
                .shards(2)
                .run()
                .expect("actor run");
            actor.push(digest(&out));
        }
    }
    assert_eq!(sync, pinned, "sync engine digests");
    assert_eq!(actor, pinned, "actor backend digests");
}

/// Outputs and termination rounds only.
fn check<P: Protocol>(
    make: impl Fn(usize) -> P,
    output: impl Fn(&P::Output, &mut Fnv) + Copy,
    pinned: [u64; 8],
) {
    check_with(make, |out| digest(out, output).0, pinned);
}

/// Outputs and termination rounds, then the run's total and widest
/// message bits.
fn check_wire<P: Protocol>(
    make: impl Fn(usize) -> P,
    output: impl Fn(&P::Output, &mut Fnv) + Copy,
    pinned: [u64; 8],
) {
    check_with(
        make,
        |out| {
            let mut h = digest(out, output);
            h.word(out.stats.msg_bits);
            h.word(out.stats.max_msg_bits);
            h.0
        },
        pinned,
    );
}

/// Feeds a color (or any integer output).
fn color<T: Copy + Into<u64>>(o: &T, h: &mut Fnv) {
    h.word((*o).into());
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

#[test]
fn a2_loglog_outputs_match_golden_digests() {
    check_wire(
        ColoringA2LogLog::new,
        color,
        [
            14141466492032521391,
            10496242930642566193,
            12267643616092661312,
            13552178731693164056,
            14087977593255909555,
            13849774932222174389,
            5466975943302092526,
            3263997926555423942,
        ],
    );
}

#[test]
fn ka2_outputs_match_golden_digests() {
    check_wire(
        |a| ColoringKa2::new(a, 2),
        color,
        [
            1398669559413884274,
            11306378515836102143,
            7255570865495568839,
            17494617337134265427,
            907552229159338072,
            8183936965164811061,
            14672664493937574428,
            11107772243392076772,
        ],
    );
}

#[test]
fn oa_recolor_outputs_match_golden_digests() {
    check_wire(
        ColoringOaRecolor::new,
        color,
        [
            17647647733758010018,
            10421709734025879188,
            3264172096386863821,
            6708790515342172799,
            9616397344731541641,
            15316615169959224517,
            13813127343751374657,
            8405548728669530271,
        ],
    );
}

#[test]
fn ka_outputs_match_golden_digests() {
    check_wire(
        |a| ColoringKa::new(a, 2),
        color,
        [
            7898173643222090840,
            16735644838930919208,
            10941229733264574681,
            2295662152727958978,
            7660398296866110270,
            4536841513590875952,
            6552615886960303576,
            14068382022861053877,
        ],
    );
}

#[test]
fn arb_color_outputs_match_golden_digests() {
    check_wire(
        ArbColor::new,
        color,
        [
            10346672449349661595,
            18271078242500900581,
            4061246737898924223,
            7922811581890935057,
            6126267427800554909,
            7205494625956741739,
            15449206904111063451,
            8986152541759961374,
        ],
    );
}

#[test]
fn arbdefective_outputs_match_golden_digests() {
    check_wire(
        |a| ArbdefectiveColoring::new(a, 2),
        color,
        [
            903522396504145625,
            6540664677011101215,
            11889701850291853432,
            10512320266427430614,
            11797975763554875229,
            10784111676280168058,
            15737969000430132321,
            715399020722822975,
        ],
    );
}

#[test]
fn delta_plus_one_outputs_match_golden_digests() {
    check_wire(
        DeltaPlusOneColoring::new,
        color,
        [
            979731530030194720,
            13667778369979972694,
            6265769313516093409,
            3419737481529900191,
            14038393347042868972,
            9227642787903425698,
            9906170533681614867,
            11976056696070125648,
        ],
    );
}

#[test]
fn mis_extension_outputs_match_golden_digests() {
    check_wire(
        MisExtension::new,
        color,
        [
            8526841909647336468,
            1977720493078384466,
            13960923233603822348,
            12523934548292585177,
            12158294011809263318,
            8226371165168874046,
            1194276916997824498,
            12645514452104539178,
        ],
    );
}

#[test]
fn legal_coloring_outputs_match_golden_digests() {
    check_wire(
        |a| LegalColoring::new(a.max(1), 6),
        color,
        [
            13111605611476906852,
            15307031115967382753,
            6854196467242377972,
            8690369461530536921,
            16674854380810497961,
            18093447686724412876,
            13156065012536696693,
            4240063343965918600,
        ],
    );
}

#[test]
fn one_plus_eta_outputs_match_golden_digests() {
    check_wire(
        |a| OnePlusEtaArbCol::new(a, 4),
        color,
        [
            18107608068948777358,
            10191559106505091320,
            4514932844575895858,
            6989778542984327018,
            6014748001948709994,
            11906040366877240884,
            2827420929440470556,
            9180316606326930708,
        ],
    );
}
