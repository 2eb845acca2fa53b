//! # wdpt-store — persistent snapshot storage for WDPT databases
//!
//! Text datasets (N-Triples or the facts format) parse in linear time but
//! pay string tokenization, escape decoding, interning and sorting on
//! every cold start. This crate adds a persistent binary **snapshot** of an
//! `(Interner, Database)` pair so a server restart is a sequential read +
//! validation pass instead of a re-parse:
//!
//! * [`format`] — the one on-disk layout and its two block codecs: a
//!   front-coded **dictionary block** and, per relation, a **relation
//!   block** — one sorted run, column-major, delta+varint cells — each in a
//!   section with its own CRC-32, so corruption surfaces as a typed
//!   [`StoreError`] instead of garbage answers. A file holds sorted runs
//!   and nothing derived from them; loading one is decoding it, in one
//!   validating pass, into the flat run a [`wdpt_model::Relation`] is
//!   probed in.
//! * [`delta`] — incremental **delta snapshots**: insert-only diffs
//!   chained to their base by content hash, made of the same two blocks,
//!   applied by merging flat sorted runs in place.
//! * [`loader`] — a parallel bulk loader that streams text through scoped
//!   parser threads (std-only) with **two-pass parallel interning**:
//!   workers intern into per-worker local dictionaries, the union merges
//!   into the global interner in canonical `(namespace, name)` order, and
//!   a second parallel pass remaps tuples to global ids.
//! * [`replog`] — the primary's append-only **replication log** over a
//!   delta chain: crash-safe two-step appends (delta file before index
//!   record), hash-keyed suffix extraction for subscribing followers, and
//!   the chain-directory scanner behind `verify --chain`.
//! * [`text`] — the serial streaming text loader (same dialects, one
//!   thread, used as the fallback path and as the loader's test oracle).
//! * `wdpt-store` (binary) — `build` / `verify` / `inspect` / `delta` /
//!   `apply` / `gen-music` / `gen-synth`.
//!
//! Snapshots are byte-deterministic for a given `(Interner, Database)`
//! pair, and the canonical merge makes bulk-load interning a pure function
//! of the input's symbol set, so `build` from the same input yields
//! identical files at **any** `--threads` setting.

pub mod crc;
pub mod delta;
pub mod format;
pub mod loader;
pub mod replog;
pub mod text;
mod varint;

pub use crc::{crc32, Crc32};
pub use delta::{
    apply_delta, decode_chain, decode_delta, decode_with_deltas, delta_to_vec, load_with_deltas,
    save_delta, Delta, DeltaHeader,
};
pub use format::{
    content_hash, decode_snapshot, inspect_snapshot, load_snapshot, save_snapshot,
    snapshot_to_vec_v2, verify_database_deep, RelationSummary, SnapshotHeader, SnapshotSummary,
    StoreError, MAGIC, VERSION,
};
pub use loader::{bulk_load, bulk_load_path, LoadOptions, LoadReport};
pub use replog::{head_hex, parse_head_hex, scan_chain_dir, ChainScan, LogEntry, ReplLog};
pub use text::{load_text_database, read_text_database};
