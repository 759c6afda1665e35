//! # cypher-core — the Cypher interpreter
//!
//! Reference implementation of the update semantics studied in *Updating
//! Graph Databases with Cypher* (Green et al., PVLDB 2019). The crate
//! implements **both** semantic regimes side by side:
//!
//! * the **legacy Cypher 9** semantics (§3), including its documented
//!   defects — non-atomic `SET` (Example 1), order-dependent updates under
//!   dirty data (Example 2), `DELETE` that dangles mid-statement (§4.2) and
//!   `MERGE` that reads its own writes (Example 3);
//! * the **revised** semantics (§7/§8) — atomic conflict-checked `SET`,
//!   strict `DELETE` with null substitution, and the new `MERGE ALL` /
//!   `MERGE SAME` clauses;
//! * all **five §6 proposals** for `MERGE` (Atomic, Grouping, Weak
//!   Collapse, Collapse, Strong Collapse), selectable per engine for the
//!   design-space experiments.
//!
//! ## Quick start
//!
//! ```
//! use cypher_core::Engine;
//! use cypher_graph::PropertyGraph;
//!
//! let mut graph = PropertyGraph::new();
//! let engine = Engine::legacy(); // Cypher 9 semantics
//! engine
//!     .run(&mut graph, "CREATE (:User {id: 89, name: 'Bob'})")
//!     .unwrap();
//! let result = engine
//!     .run(&mut graph, "MATCH (u:User) RETURN u.name AS name")
//!     .unwrap();
//! assert_eq!(result.columns, vec!["name"]);
//! assert_eq!(result.rows.len(), 1);
//! ```
//!
//! Crate layout: [`table`] (driving tables, §2), [`eval`] (expressions,
//! §8.1), [`pattern`] (pattern matching incl. the edge-isomorphic vs
//! homomorphic modes of Example 7), [`exec`] (clause semantics and the
//! [`Engine`]), [`error`] (the revised semantics' new error conditions).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod eval;
pub mod exec;
pub mod export;
pub mod par;
pub mod pattern;
pub mod plan;
pub mod table;

pub use error::{EvalError, Result};
pub use exec::{
    Engine, EngineBuilder, ExecLimits, LintMode, MergePolicy, ProcessingOrder, Projected,
    Projector, QueryResult, UpdateStats,
};
pub use export::graph_to_cypher;
pub use pattern::{MatchMode, Matcher};
pub use plan::{Anchor, ClausePlan};
pub use table::{Record, Table};

// Re-export the dialect selector for convenience: engines are parameterized
// on it.
pub use cypher_parser::Dialect;

// Re-export the analyzer's diagnostic surface so embedders configuring
// [`LintMode`] can inspect [`EvalError::Lint`] payloads without a direct
// `cypher-analysis` dependency.
pub use cypher_analysis::{
    Code as LintCode, Diagnostic as LintDiagnostic, Severity as LintSeverity,
};
