//! # wdpt-sparql — the {AND, OPT} front end and RDF triple stores
//!
//! The paper's motivating application (Section 1): WDPTs are the tree
//! representation of *well-designed* {AND, OPT}-SPARQL over RDF. This crate
//! provides that surface:
//!
//! * [`triples`] — RDF triple stores: databases over the single ternary
//!   relation `triple(s, p, o)` ("RDF WDPTs" in the paper).
//! * [`algebra`] — the algebraic pattern language `t | (P AND P) |
//!   (P OPT P)` of [18], the well-designedness condition, and the
//!   translation to/from WDPTs (pattern-tree normal form of [17]).
//! * [`parser`] — a parser for the paper's algebraic notation, e.g. the
//!   Example 1 query
//!   `(((?x, recorded_by, ?y) AND (?x, published, "after_2010")) OPT
//!   (?x, NME_rating, ?z)) OPT (?y, formed_in, ?z2)`,
//!   optionally wrapped in `SELECT ?y ?z WHERE { … }` for projection.

pub mod algebra;
pub mod parser;
pub mod triples;

pub use algebra::{GraphPattern, SparqlQuery, TriplePattern, UnionQuery};
pub use parser::{parse_query, parse_union_query};
pub use triples::{TripleStore, TRIPLE_PRED};
