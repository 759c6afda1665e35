//! Durability layer for the property graph.
//!
//! This crate adds crash-safe persistence on top of `cypher-graph`'s purely
//! in-memory [`PropertyGraph`](cypher_graph::PropertyGraph), following the
//! classic snapshot + write-ahead-log design:
//!
//! * [`record`] — the WAL records and their binary encoding: unit
//!   boundaries, a unit's source statement, and one record per graph update
//!   whose payload is `cypher-graph`'s [`Delta`](cypher_graph::Delta).
//!   Records are *logical*: they name labels, keys and types as strings, so
//!   a log written by one process is replayable in another with a fresh
//!   interner.
//! * [`fs`] — the [`StorageFs`] I/O abstraction: [`RealFs`] for production,
//!   [`FaultFs`] for deterministic fault injection (fsync failures, short
//!   writes, `ENOSPC`, rename failures at the N-th operation).
//! * [`wal`] — the append-only log file. Each committed statement becomes a
//!   `Begin{txid} … Commit{txid}` unit; the file is fsynced once per commit,
//!   and the in-memory durable horizon only advances after that fsync.
//! * [`snapshot`] — full-graph serialization (interner, nodes, relationships,
//!   tombstones, index schemas) written atomically via temp-file + rename.
//! * [`recover`] — opening a directory: load the snapshot if present, then
//!   replay only *committed* WAL units through
//!   [`apply_delta`](cypher_graph::apply_delta), discarding any torn or
//!   uncommitted tail without being confused by byte-level corruption.
//! * [`durable`] — [`DurableGraph`], the user-facing handle tying it all
//!   together: run mutations, capture their delta, append to the WAL, seal
//!   read-only when a commit unit fails ([`StorageError::Sealed`]), and
//!   checkpoint (snapshot + truncate) on demand — which also reconciles and
//!   unseals a sealed handle.
//!
//! The crate is std-only: framing, CRC32 and serialization are hand-rolled,
//! no serde.

// Storage code must never panic on an I/O or lock result: every failure is
// either a typed error or an explicit seal. Tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod crc;
pub mod durable;
pub mod error;
pub mod fs;
pub mod record;
pub mod recover;
pub mod snapshot;
pub mod wal;

pub use durable::{DurableGraph, FENCE_FILE};
pub use error::StorageError;
pub use fs::{FaultFs, FaultKind, OpKind, RealFs, StorageFile, StorageFs, SyncHandle};
pub use record::Record;
pub use recover::{recover, recover_with};
pub use wal::SyncTicket;
