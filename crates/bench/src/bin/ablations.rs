//! Ablations over the design parameters DESIGN.md calls out:
//!
//! * `AB.1` — ε in Procedure Partition: smaller ε tightens the degree
//!   threshold `A = ⌊(2+ε)a⌋` (fewer forests / colors) but slows the
//!   active-set decay (higher VA and WC);
//! * `AB.2` — k in the segmentation scheme: the colors × rounds frontier
//!   (also rendered as figure F.6);
//! * `AB.3` — C in One-Plus-Eta-Arb-Col: larger C means fewer recursion
//!   levels and smaller η (fewer colors) but wider per-level windows;
//! * `AB.4` — sequential vs parallel engine equivalence, the parallel
//!   one fanning rounds out on `std::thread::scope` (results must be
//!   identical; wall-clock is reported).
//!
//! The ablations are declared in `benchharness::suites::ablations` and
//! run by the shared spec engine, which checks validity and palette caps
//! before exit.
//!
//! Usage: `ablations [--quick] [--seeds N] [--ids LIST] [--json PATH] [--list] [AB.1 ...]`

use benchharness::{spec, suites, Cli};

fn main() {
    let cli = Cli::parse();
    spec::execute("ablations", &suites::ablations(), &cli);
}
