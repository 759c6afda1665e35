//! # cypher-parser — Cypher lexer, parser and pretty-printer
//!
//! Parses the Cypher update language studied in *Updating Graph Databases
//! with Cypher* (PVLDB 2019). The parser accepts the **union** of the two
//! grammars in the paper:
//!
//! * Cypher 9 (Figures 2–5): legacy `MERGE`, `FOREACH`, the full read
//!   fragment;
//! * the revised language (Figure 10): `MERGE ALL`, `MERGE SAME`, free
//!   clause mixing.
//!
//! Dialect-specific restrictions live in [`validate()`] and produce targeted
//! errors (e.g. the §4.4 `WITH`-demarcation rule in Cypher 9, or the §7 ban
//! on bare `MERGE` in the revised dialect).
//!
//! ```
//! use cypher_parser::{parse, validate, Dialect};
//!
//! let q = parse("MATCH (p:Product) MERGE (p)<-[:OFFERS]-(v:Vendor) RETURN p, v").unwrap();
//! validate(&q, Dialect::Cypher9).unwrap();
//! assert!(validate(&q, Dialect::Revised).is_err()); // bare MERGE removed in §7
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod token;
pub mod validate;

pub use ast::{
    BinOp, Clause, Dialect, Expr, Lit, MergeKind, NodePattern, PathPattern, Projection,
    ProjectionItem, ProjectionItems, Query, RelDirection, RelPattern, RemoveItem, SetItem,
    SingleQuery, SortItem, UnaryOp, UnionKind, VarLength,
};
pub use error::{line_col, render_caret, ParseError};
pub use parser::{parse, parse_script, MAX_EXPR_DEPTH};
pub use pretty::{print_clause, print_expr, print_query};
pub use token::{Span, Tok, Token};
pub use validate::validate;
