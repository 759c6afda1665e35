//! # cypher-graph — property graph substrate
//!
//! In-memory property graph store underpinning the reproduction of
//! *Updating Graph Databases with Cypher* (Green et al., PVLDB 2019).
//!
//! The crate provides, in dependency order:
//!
//! * [`ids`] — node/relationship identifier newtypes,
//! * [`interner`] — interning of labels, relationship types and property keys,
//! * [`value`] — the Cypher value system with ternary logic,
//! * [`graph`] — the store itself ([`PropertyGraph`]): adjacency and label
//!   indexes, tombstones for legacy "zombie" semantics, and a redo/undo
//!   journal,
//! * [`delta`] — the mutation vocabulary: the seven primitive updates as
//!   captured ([`DeltaOp`]) and as shipped to every consumer ([`Delta`]),
//!   with the one conversion and the one replay ([`apply_delta`]),
//! * [`txn`] — RAII statement transactions with the no-dangling integrity
//!   check at commit,
//! * [`epoch`] — write-epoch snapshot publication for multi-session
//!   readers (statement-atomic views shared across threads),
//! * [`stats`] — shape summaries used by the experiment harness,
//! * [`iso`] — graph isomorphism up to id renaming (figures are compared
//!   with it),
//! * [`fmt`] — deterministic human-readable dumps.
//!
//! Everything downstream (parser, interpreter, workload generators,
//! experiment harness) builds on these types.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod delta;
pub mod epoch;
pub mod error;
pub mod fmt;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod iso;
pub mod stats;
pub mod txn;
pub mod value;

pub use delta::{apply_delta, Delta, DeltaOp};
pub use epoch::EpochSnapshots;
pub use error::{GraphError, Result};
pub use graph::{
    AdjIter, DeleteNodeMode, Direction, IndexStats, NodeData, PropertyGraph, PropertyMap, RelData,
    Savepoint,
};
pub use ids::{EntityKind, EntityRef, NodeId, RelId};
pub use interner::{Interner, Symbol};
pub use iso::isomorphic;
pub use stats::{CardinalityStats, GraphSummary};
pub use txn::Transaction;
pub use value::{PathValue, Ternary, Value};
