//! # wdpt — well-designed pattern trees
//!
//! Facade crate re-exporting the full public API of the WDPT reproduction of
//! Barceló & Pichler, *Efficient Evaluation and Approximation of
//! Well-designed Pattern Trees* (PODS 2015).
//!
//! See the individual crates for details:
//! * [`model`] — terms, atoms, databases, partial mappings.
//! * [`decomp`] — hypergraphs, treewidth, hypertreewidth, β-acyclicity.
//! * [`cq`] — conjunctive queries and their evaluation engines.
//! * [`core`] — WDPTs, tractable classes, EVAL / PARTIAL-EVAL / MAX-EVAL,
//!   subsumption and subsumption-equivalence.
//! * [`approx`] — semantic optimization and approximation (`WB(k)`,
//!   `UWB(k)`, the Figure 2 family).
//! * [`sparql`] — the {AND, OPT} front end and RDF triple stores.
//! * [`gen`] — workload generators and hardness reductions.
//!
//! # Example
//!
//! The paper's running query (Example 1) over the Example 2 database:
//!
//! ```
//! use wdpt::sparql::{parse_query, TripleStore};
//! use wdpt::core::evaluate;
//! use wdpt::Interner;
//!
//! let mut i = Interner::new();
//! let q = parse_query(&mut i, r#"
//!     (((?x, recorded_by, ?y) AND (?x, published, "after_2010"))
//!        OPT (?x, NME_rating, ?z)) OPT (?y, formed_in, ?z2)"#).unwrap();
//! let p = q.to_wdpt(&mut i).unwrap();
//!
//! let mut store = TripleStore::new();
//! store.insert_str(&mut i, "Swim", "recorded_by", "Caribou");
//! store.insert_str(&mut i, "Swim", "published", "after_2010");
//! store.insert_str(&mut i, "Swim", "NME_rating", "2");
//!
//! let answers = evaluate(&p, store.database());
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].len(), 3); // x, y, and the optional z
//! ```

pub use wdpt_approx as approx;
pub use wdpt_core as core;
pub use wdpt_cq as cq;
pub use wdpt_decomp as decomp;
pub use wdpt_gen as gen;
pub use wdpt_model as model;
pub use wdpt_plan as plan;
pub use wdpt_sparql as sparql;

pub use wdpt_model::{Atom, Const, Database, Interner, Mapping, Pred, Term, Var};
