//! `wdpt-plan`: cost-based join planning for wdPT evaluation.
//!
//! Three pieces, composed bottom-up:
//!
//! 1. **Statistics** ([`stats`]): a [`StatsCatalog`] summarizes one
//!    database version — row counts, per-column distinct counts, a
//!    posting-length sketch and the most common values — stamped with a
//!    monotone epoch so cached plans can detect staleness.
//! 2. **Cost model** ([`cost`]): [`est_matches`] estimates the tuples an
//!    atom matches given a bound-variable set, and [`order_cost`] folds
//!    that into the expected backtracking nodes of a whole atom order —
//!    the exact quantity the engine's `cq.nodes_expanded` counter
//!    observes.
//! 3. **Enumeration** ([`enumerate`]): greedy, left-deep DP, and bushy
//!    strategies each produce a [`NodeOrder`] per wdPT node; an
//!    [`ExecPlan`] collects one per node. Exponential enumerators are
//!    gated by atom count and poll a `CancelToken` so planning respects
//!    request deadlines.
//!
//! The crate deliberately depends only on `wdpt-model`: it plans *one
//! node's atom set at a time* given the ancestor-bound variables, and the
//! layers that know the tree shape (`wdpt-core`, `wdpt-serve`) assemble
//! per-node orders into an [`ExecPlan`].

pub mod cost;
pub mod enumerate;
pub mod stats;

pub use cost::{est_matches, order_cost, var_domain, OrderCost};
pub use enumerate::{
    plan_bushy, plan_dp, plan_greedy, plan_node, ExecPlan, NodeOrder, Strategy, MAX_BUSHY_ATOMS,
    MAX_DP_ATOMS,
};
pub use stats::{ColumnStats, RelationStats, StatsCatalog, MCV_ENTRIES, SKETCH_BUCKETS};
