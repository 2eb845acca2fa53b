//! `wdpt-plan`: cost-based join planning for wdPT evaluation.
//!
//! Three pieces, composed bottom-up:
//!
//! 1. **Statistics** ([`stats`]): a [`StatsCatalog`] summarizes one
//!    database version — row counts, per-column distinct counts and the
//!    most common values — stamped with a monotone epoch so cached plans
//!    can detect staleness.
//! 2. **Cost model** ([`cost`]): [`est_matches`] estimates the tuples an
//!    atom matches given a bound-variable set, and [`order_cost`] folds
//!    that into the expected backtracking nodes of a whole atom order —
//!    the exact quantity the engine's `cq.nodes_expanded` counter
//!    observes.
//! 3. **Enumeration** ([`enumerate`]): [`plan_node`] decides one wdPT
//!    node's [`NodeOrder`] — greedy, or the left-deep DP order where that
//!    estimates strictly lower; an [`ExecPlan`] collects one per node. The
//!    exponential DP is gated by atom count and polls a `CancelToken` so
//!    planning respects request deadlines.
//!
//! The crate deliberately depends only on `wdpt-model`: it plans *one
//! node's atom set at a time* given the ancestor-bound variables, and the
//! layers that know the tree shape (`wdpt-core`, `wdpt-serve`) assemble
//! per-node orders into an [`ExecPlan`].

pub mod cost;
pub mod enumerate;
pub mod stats;

pub use cost::{est_matches, order_cost, var_domain, OrderCost};
pub use enumerate::{plan_node, ExecPlan, NodeOrder, Strategy, MAX_DP_ATOMS};
pub use stats::{ColumnStats, RelationStats, StatsCatalog, MCV_ENTRIES};
