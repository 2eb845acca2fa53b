//! # wdpt-serve — a concurrent WDPT query service
//!
//! The serving layer over the reproduction stack: a TCP service that
//! accepts SPARQL {AND, OPT} queries as newline-delimited JSON, evaluates
//! them with `wdpt_core`'s parallel engine, and streams answers back. The
//! pieces, each its own module:
//!
//! * [`protocol`] — the wire format: one JSON document per line, shared
//!   with the benchmark `--json` output via [`wdpt_obs::write_json_line`].
//! * [`cache`] — the plan cache: queries are α-renamed to a canonical
//!   form, so repeated and variable-renamed queries share one memoized
//!   plan (translated tree, cost-based join orders, and — computed by the
//!   first `explain` that asks — per-node core/treewidth/acyclicity facts).
//! * [`server`] — the accept loop and one thread per connection, on which
//!   each request is evaluated under a counting permit with a bounded
//!   waiting line (backpressure answers `overloaded` instead of queueing
//!   unboundedly), per-request deadlines as cooperative
//!   [`wdpt_model::CancelToken`]s, and graceful drain on shutdown.
//!
//! Replication (`wdpt-repl` underneath): a server started with
//! `--repl-log DIR` is a **primary** — it records every accepted reload
//! delta in an append-only log and streams them to followers that connect
//! with the `subscribe` op. A server started with `--follow ADDR` is a
//! **follower** — [`server::FollowerApply`] drives the replicated
//! snapshots and deltas through the loader and install the `reload` op
//! uses: a snapshot chain enters the server one way, and so does the
//! `wdpt-serve` binary's `--snapshot` start. The chain-head hash
//! doubles as a consistency token (`min_head` on queries).
//!
//! Binaries: `wdpt-serve` (the server) and `loadgen` (a concurrent load
//! generator used by the CI smoke test and the EXPERIMENTS runs).

pub mod cache;
pub mod protocol;
pub mod server;

pub use cache::{
    build_plan, canonicalize, exec_plan_json, refresh_if_stale, CanonicalQuery, NodePlan, Plan,
    PlanCache,
};
pub use protocol::Request;
pub use server::{
    serve, Base, FollowerApply, Installed, LoadedChain, ServeConfig, ServeState, BASE_CHUNK,
};
