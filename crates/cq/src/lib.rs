//! # wdpt-cq — conjunctive queries and their evaluation engines
//!
//! WDPT semantics (Definition 2 of the paper) is defined through the CQs
//! `q_{T'}` induced by subtrees, so everything in the paper reduces to CQ
//! machinery. This crate implements it from scratch:
//!
//! * [`query`] — the CQ type `Ans(x̄) ← R₁(v̄₁), …, R_m(v̄_m)` with its
//!   hypergraph, substitution, and canonical (frozen) database.
//! * [`backtrack`] — the generic backtracking join: the baseline evaluation
//!   algorithm that exists for *all* CQs (NP-complete in general,
//!   Chandra–Merlin). One search over atoms compiled to slot steps, the
//!   reusable [`Search`]: the WDPT executor, the structured oracle,
//!   containment and cores all compile one, seed its slots, read its
//!   frames and its work counts. [`extend_all`], which hands back every
//!   homomorphism as a `Mapping`, is the specification the tests check
//!   them against.
//! * [`structured`] — decomposition-guided evaluation: a [`StructuredPlan`]
//!   over a tree decomposition (`TW(k)`, Theorem 2) or a generalized
//!   hypertree decomposition (`HW(k)`, Theorem 3), and the [`Oracle`] that
//!   decides a CQ over it — bags filled as flat sorted runs by a [`Search`],
//!   then Yannakakis semijoins; polynomial for fixed width — or, without
//!   one, by backtracking.
//! * [`widths`] — the classes `TW(k)`, `HW(k)`, `HW'(k)` as predicates on
//!   CQs (Section 3.1 and Section 5).
//! * [`containment`] — Chandra–Merlin containment and equivalence via
//!   canonical databases.
//! * [`core_of`] — cores of CQs (needed for semantic `TW(k)`-membership,
//!   Section 6).
//! * [`quotient`] — quotient queries (homomorphic self-images), the
//!   candidate space of `TW(k)`-approximations (Barceló–Libkin–Romero).

pub mod backtrack;
pub mod containment;
pub mod core_of;
pub mod query;
pub mod quotient;
pub mod structured;
pub mod widths;

pub use backtrack::{extend_all, Search};
pub use containment::{contained_in, equivalent, freeze, frozen_floor};
pub use core_of::{core_of, try_core_above, try_core_of};
pub use query::ConjunctiveQuery;
pub use structured::{Oracle, StructuredPlan};
pub use wdpt_decomp::EXACT_TW_VERTEX_LIMIT;
pub use widths::{
    hypertreewidth_at_most_cq, in_hw, in_hw_prime, in_tw, treewidth_of, try_in_hw, try_treewidth_of,
};
