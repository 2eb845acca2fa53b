//! # wdpt-repl — primary/follower replication over the delta chain
//!
//! Scale-out reads for the query service: one **primary** accepts updates
//! (hot reloads), persists each accepted delta in an append-only
//! [`wdpt_store::ReplLog`], and streams the deltas to any number of
//! subscribed **followers** over the same newline-delimited JSON protocol
//! the query service already speaks. Every position on the chain is named
//! by the FNV-1a content hash of its tip file, so:
//!
//! * a follower subscribing with its current head receives **exactly the
//!   suffix** of deltas it is missing (or a full-snapshot bootstrap when
//!   its head is not on the primary's chain);
//! * the chain-head hash doubles as a **consistency token**: a client that
//!   saw the primary acknowledge head `H` can demand `min_head: H` from
//!   any follower and either be served at-or-after `H`, wait, or get a
//!   typed `stale_replica` error — read-your-writes across the fleet.
//!
//! The crate is deliberately below the serving layer: it knows bytes,
//! hashes, sockets, and the [`ReplApply`] trait — not databases or query
//! plans, and it keeps no served position of its own. `wdpt-serve`
//! implements [`ReplApply`] on top of its hot-reload path (plan cache
//! kept, in-flight queries pinned to their database version), keeps each
//! database's chain in the entry it installed, so a head and `min_head`
//! are read from the version a request pinned, and exposes the
//! `subscribe` op and `--follow` flag.

pub mod follower;
pub mod frames;
pub mod hub;

pub use follower::{backoff_delay, run_follower, FollowerConfig, ReplApply};
pub use frames::{decode_hex, encode_hex, Frame};
pub use hub::{DeltaBroadcast, Primary, SubscribeStart};
