#![warn(missing_docs)]

//! # algos — the paper's algorithms and their baselines
//!
//! Distributed protocols (over [`simlocal`]) implementing every algorithm
//! of Barenboim & Tzur, *"Distributed Symmetry-Breaking with Improved
//! Vertex-Averaged Complexity"* (SPAA 2018), plus the classical worst-case
//! algorithms the paper's Tables 1–2 compare against.
//!
//! Layering (bottom to top):
//!
//! * [`itlog`] — `log*`, iterated logs, `ρ(n)`, partition round bounds;
//! * [`coverfree`] — polynomial cover-free families + the Linial reduction
//!   step, the combinatorial core of Procedure Arb-Linial-Coloring;
//! * [`partition`] — Procedure Partition (§6.1), `O(1)` vertex-averaged,
//!   and the ε every other protocol uses;
//! * [`forests`] — Procedure Parallelized-Forest-Decomposition (§7.1) and
//!   the worst-case Procedure Forest-Decomposition baseline;
//! * [`inset`] — the in-H-set schedules (iterated Linial and
//!   Kuhn–Wattenhofer color reduction under a degree cap) and the
//!   [`inset::Cascade`] driver: in-set `(A+1)`-coloring, then a parent
//!   cascade;
//! * [`segmentation`] — the §7.5 segment layout, the window shapes, and
//!   the [`segmentation::Windowed`] Arb-Linial driver;
//! * [`extension`] — the extension-from-partial-solution framework (§8)
//!   and its [`extension::Extension`] driver for vertex problems;
//! * [`coloring`] — the vertex-coloring suite of §7 (Theorems 7.2–7.16)
//!   and the Δ+1 coloring of Corollary 8.3, mostly rules of the drivers;
//! * [`arb_color`], [`arbdefective`] — the `O(a)`-coloring baseline of
//!   \[8\] and the arbdefective split of §7.8, both cascade rules;
//! * [`legal_coloring`], [`one_plus_eta`] — Procedures Legal-Coloring and
//!   One-Plus-Eta-Arb-Col (§7.8);
//! * [`mis`], [`matching`], [`edge_coloring`] — Corollaries 8.4–8.9, plus
//!   Luby's MIS baseline;
//! * [`rand_coloring`] — the randomized algorithms of §9;
//! * [`baselines`] — worst-case reference algorithms for the "previous
//!   running time" columns;
//! * [`compose`], [`pipeline`], [`rings`] — the §6.2 composition, the §1.2
//!   two-subtask pipeline, and the §3 ring results.

pub mod arb_color;
pub mod arbdefective;
pub mod baselines;
pub mod coloring;
pub mod compose;
pub mod coverfree;
pub mod edge_coloring;
pub mod extension;
pub mod forests;
pub mod inset;
pub mod itlog;
pub mod legal_coloring;
pub mod matching;
pub mod mis;
pub mod one_plus_eta;
pub mod partition;
pub mod pipeline;
pub mod rand_coloring;
pub mod rings;
mod schedule_cell;
pub mod segmentation;

pub use partition::Partition;
