//! Quickstart: build a bounded-arboricity graph, run two of the paper's
//! protocols on the LOCAL-model simulator, verify the outputs, and look
//! at the vertex-averaged vs worst-case round counts.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use distsym::algos::coloring::a2logn::ColoringA2LogN;
use distsym::algos::forests::{self, ParallelizedForestDecomposition};
use distsym::graphcore::{gen, verify, IdAssignment};
use distsym::simlocal::Runner;
use rand::SeedableRng;

fn main() {
    // A graph whose arboricity is 3 by construction: the union of three
    // random spanning trees on 10,000 vertices.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let gg = gen::forest_union(10_000, 3, &mut rng);
    let g = &gg.graph;
    let ids = IdAssignment::identity(g.n());
    println!(
        "graph: n={}, m={}, Δ={}, arboricity ≤ {}",
        g.n(),
        g.m(),
        g.max_degree(),
        gg.arboricity
    );

    // 1. Procedure Parallelized-Forest-Decomposition (§7.1): O(a) forests
    //    with O(1) vertex-averaged complexity.
    let fd = ParallelizedForestDecomposition::new(gg.arboricity);
    let out = Runner::new(&fd, g, &ids).run().expect("terminates");
    let (labels, heads) = forests::assemble(g, &out.outputs).expect("complete orientation");
    verify::assert_ok(verify::forest_decomposition(g, &labels, &heads, fd.cap()));
    println!(
        "forest decomposition: {} forests | vertex-averaged {:.2} rounds, worst case {} rounds",
        fd.cap(),
        out.metrics.vertex_averaged(),
        out.metrics.worst_case()
    );

    // 2. The §7.2 coloring: O(a² log n)-ish colors, O(1) vertex-averaged.
    let col = ColoringA2LogN::new(gg.arboricity);
    let out = Runner::new(&col, g, &ids).run().expect("terminates");
    verify::assert_ok(verify::proper_vertex_coloring(g, &out.outputs, usize::MAX));
    let used = verify::count_distinct(&out.outputs);
    println!(
        "coloring: {} colors used (palette bound {}) | vertex-averaged {:.2}, worst case {}",
        used,
        col.palette(&ids),
        out.metrics.vertex_averaged(),
        out.metrics.worst_case()
    );

    // The punchline: the average is O(1) while the worst case grows with
    // log n — run with different n to watch the gap widen.
    let decay = out.metrics.active_per_round();
    println!(
        "active-vertex decay (Lemma 6.1): {:?}",
        &decay[..decay.len().min(8)]
    );

    // Communication side of the same story: the engine accounts every
    // published message in wire bits, so CONGEST-style width claims are
    // checkable (`trace --congest-audit`).
    println!(
        "wire: {} bits total, {:.1} bits/vertex, widest single message {} bits",
        out.stats.msg_bits,
        out.stats.msg_bits as f64 / g.n() as f64,
        out.stats.max_msg_bits
    );
}
