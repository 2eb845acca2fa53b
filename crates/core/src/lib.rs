//! # wdpt-core — well-designed pattern trees
//!
//! The primary contribution of Barceló & Pichler (PODS 2015): WDPTs over
//! arbitrary relational schemas, their semantics, tractable classes, the
//! evaluation-problem variants, and subsumption.
//!
//! * [`tree`] — the WDPT type `(T, λ, x̄)` with well-designedness checking
//!   and rooted-subtree machinery (Definitions 1–2).
//! * [`semantics`] — maximal homomorphisms, `p(D)`, `p_m(D)`: one executor
//!   (local homomorphisms × independent OPT children, each subtree
//!   evaluated once per distinct interface valuation, inline or fanned out
//!   over threads) whose product is one sorted row table, [`Answers`], and
//!   one account of its own work, [`EvalTally`]. [`evaluate_rows`]
//!   (threads, cancel token, planned atom orders) returns both;
//!   [`evaluate`], [`evaluate_max`], [`maximal_homomorphisms`] and
//!   [`try_evaluate_parallel_planned`] view the table as
//!   [`wdpt_model::Mapping`]s.
//! * [`classes`] — local tractability `ℓ-C(k)`, bounded interface `BI(c)`,
//!   global tractability `g-C(k)`, the well-behaved classes `WB(k)`
//!   (Sections 3 and 5).
//! * [`engine`] — the pluggable CQ oracle (backtracking vs `TW(k)` vs
//!   `HW(k)` structured evaluation).
//! * [`eval`] — the general EVAL decision procedure (Σ₂ᵖ, Theorem 1).
//! * [`eval_bi`] — the Theorem 6 polynomial algorithm for
//!   `ℓ-C(k) ∩ BI(c)`.
//! * [`profile`] — an evaluation's tally as a [`wdpt_obs::QueryProfile`]
//!   (per-node homomorphism counts, the run's own work counters), and the
//!   node entries a caller bracketing a run with a recorder attaches.
//! * [`variants`] — PARTIAL-EVAL (Theorem 8) and MAX-EVAL (Theorem 9),
//!   polynomial under global tractability.
//! * [`subsumption`] — `⊑`, `≡ₛ`, and MAXEQUIVALENCE (Section 4,
//!   Theorems 11–12, Proposition 5).

pub mod classes;
pub mod engine;
pub mod eval;
pub mod eval_bi;
pub mod optimize;
pub mod planning;
pub mod profile;
pub mod semantics;
pub mod subsumption;
pub mod text;
pub mod tree;
pub mod variants;

pub use classes::{
    has_bounded_interface, in_wb, interface_width, is_globally_in, is_locally_in, WidthKind,
};
pub use engine::Engine;
pub use eval::eval_decide;
pub use eval_bi::eval_bounded_interface;
pub use optimize::normalize;
pub use planning::plan_wdpt;
pub use profile::node_entries;
pub use semantics::{
    evaluate, evaluate_max, evaluate_rows, maximal_homomorphisms, try_evaluate_parallel_planned,
    Answers, EvalTally,
};
pub use subsumption::{max_equivalent, subsumed, subsumption_equivalent};
pub use text::{parse_wdpt, to_text};
pub use tree::{NodeId, Subtree, Wdpt, WdptBuilder, WdptError};
pub use variants::{max_eval_decide, partial_eval_decide};
