//! # wdpt-model — relational substrate
//!
//! The data model underlying the WDPT reproduction of Barceló & Pichler,
//! *Efficient Evaluation and Approximation of Well-designed Pattern Trees*
//! (PODS 2015).
//!
//! The paper studies pattern trees over **arbitrary relational schemas**
//! (Section 2): countably infinite disjoint sets of constants **U** and
//! variables **X**, relational atoms `R(v̄)` over a schema `σ`, databases as
//! finite sets of ground atoms, and *partial mappings* `h : X → U` ordered by
//! subsumption `⊑`. This crate provides exactly those objects:
//!
//! * [`Interner`] — a string interner giving stable integer ids to variable
//!   names, constant names, and predicate names.
//! * [`Term`], [`Var`], [`Const`], [`Pred`] — terms and predicate symbols.
//! * [`Atom`] — a relational atom `R(v̄)` over variables and constants.
//! * [`Database`] — a set of ground atoms, each relation one flat sorted
//!   run probed in place, with an active-domain view.
//! * [`Mapping`] — a partial mapping `X → U` with the subsumption order
//!   (`h ⊑ h'` iff `h'` extends `h`), the central comparison of the paper.
//! * [`parse`] — a tiny text format (`edge(?x, ?y)`, `c("Swim", 2)`) used by
//!   tests, examples and generators.
//! * [`stats`] — the one tally of engine work (nodes expanded, index
//!   probes and builds, tuples scanned), counted by whoever does the work
//!   and recorded in the process-wide registry once per entry point.
//! * [`cancel`] — cooperative cancellation tokens with optional deadlines,
//!   polled by the evaluation loops (one relaxed load per backtrack step).

pub mod atom;
pub mod cancel;
pub mod database;
pub mod interner;
pub mod mapping;
pub mod parse;
pub mod stats;
pub mod term;

pub use atom::Atom;
pub use cancel::{CancelToken, Cancelled};
pub use database::{row_id, Database, PostingCounts, Probe, Relation, TooManyRows};
pub use interner::{Interner, RequestScope, Resolve, SymbolSpace};
pub use mapping::Mapping;
pub use stats::ProbeTally;
pub use term::{Const, Pred, Term, Var};
