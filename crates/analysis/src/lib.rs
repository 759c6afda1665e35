//! # cypher-analysis — static semantic analysis for Cypher updates
//!
//! A multi-pass analyzer over the parsed AST that detects the defect
//! catalogue of *Updating Graph Databases with Cypher* (Green et al.,
//! PVLDB 2019) **before** a query executes:
//!
//! | code | severity | finding | paper |
//! |------|----------|---------|-------|
//! | E00  | error    | dialect violation | §3, §7 |
//! | E01  | error    | unbound variable | — |
//! | E02  | error    | entity-kind mismatch | — |
//! | E03  | error    | impossible expression shape | — |
//! | W01  | warning  | SET reads/re-writes its own writes | Example 1 |
//! | W02  | warning  | order-dependent SET under multi-row table | Example 2 |
//! | W03  | warning  | use after DELETE / dangling DELETE | §4.2 |
//! | W04  | warning  | legacy MERGE reads its own writes | Example 3 |
//! | W05  | info     | bare MERGE migration hint | §7 |
//!
//! The passes run in order: scope/flow analysis ([`scope`]), update-hazard
//! detection ([`hazards`]), shape inference ([`shape`]). Spans are clause
//! spans recorded by the parser, refined to individual variables and
//! property references by re-lexing the clause slice ([`spans`]).
//!
//! ```
//! use cypher_analysis::{lint, Code, Severity};
//! use cypher_parser::Dialect;
//!
//! let src = "MATCH (p1:Product {name: 'laptop'}), (p2:Product {name: 'tablet'}) \
//!            SET p1.id = p2.id, p2.id = p1.id";
//! let diags = lint(src, Dialect::Cypher9).unwrap();
//! assert!(diags.iter().any(|d| d.code == Code::W01ConflictingSet));
//! assert_eq!(diags[0].severity, Severity::Warning);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod diag;
pub mod hazards;
pub mod rewrite;
pub mod scope;
pub mod shape;
pub mod spans;

use cypher_parser::ast::{Dialect, Query, SingleQuery};
use cypher_parser::ParseError;

pub use diag::{max_severity, Code, Diagnostic, Severity};
pub use scope::VarKind;

/// Analyze an already-parsed query against `source` (the text it was parsed
/// from — clause spans index into it). Returns all diagnostics, sorted by
/// source position.
pub fn analyze(source: &str, query: &Query, dialect: Dialect) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // E00: fold dialect validation into the report rather than aborting,
    // so a hazardous *and* ill-dialected query shows everything at once.
    if let Err(e) = cypher_parser::validate(query, dialect) {
        diags.push(
            Diagnostic::new(Code::E00DialectViolation, e.span, e.message).with_note(
                match dialect {
                    Dialect::Cypher9 => "the Cypher 9 grammar (§3) restricts clause order",
                    Dialect::Revised => "the revised grammar (Figure 10) changed this construct",
                },
            ),
        );
    }

    analyze_single(source, &query.first, dialect, &mut diags);
    for (_, sq) in &query.unions {
        analyze_single(source, sq, dialect, &mut diags);
    }

    diags.sort_by_key(|d| (d.span.map(|s| s.start), d.code));
    diags
}

fn analyze_single(source: &str, sq: &SingleQuery, dialect: Dialect, diags: &mut Vec<Diagnostic>) {
    let scoped = scope::scope_pass(source, sq, dialect, diags);
    hazards::hazard_pass(source, sq, dialect, &scoped.facts, diags);
    shape::shape_pass(sq, diags);
}

/// Parse and analyze a single statement.
pub fn lint(source: &str, dialect: Dialect) -> Result<Vec<Diagnostic>, ParseError> {
    let query = cypher_parser::parse(source)?;
    Ok(analyze(source, &query, dialect))
}

/// Parse and analyze a `;`-separated script. Spans index into the whole
/// script text, so one rendering pass covers every statement.
pub fn lint_script(source: &str, dialect: Dialect) -> Result<Vec<Diagnostic>, ParseError> {
    let queries = cypher_parser::parse_script(source)?;
    let mut diags = Vec::new();
    for q in &queries {
        diags.extend(analyze(source, q, dialect));
    }
    diags.sort_by_key(|d| (d.span.map(|s| s.start), d.code));
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_query_has_no_diagnostics() {
        let diags = lint(
            "MATCH (u:User {id: 1}) SET u.name = 'Bob' RETURN u",
            Dialect::Cypher9,
        )
        .unwrap();
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dialect_violation_becomes_e00() {
        // Bare MERGE is illegal in the revised dialect.
        let diags = lint("MERGE (n:N) RETURN n", Dialect::Revised).unwrap();
        assert!(diags.iter().any(|d| d.code == Code::E00DialectViolation));
    }

    #[test]
    fn diagnostics_are_sorted_by_position() {
        let src = "MATCH (a) RETURN missing1, missing2";
        let diags = lint(src, Dialect::Cypher9).unwrap();
        assert_eq!(diags.len(), 2);
        let spans: Vec<_> = diags.iter().map(|d| d.span.unwrap().start).collect();
        assert!(spans[0] < spans[1]);
    }

    #[test]
    fn script_lint_spans_are_absolute() {
        let src = "CREATE (:A);\nMATCH (n) RETURN m";
        let diags = lint_script(src, Dialect::Cypher9).unwrap();
        assert_eq!(diags.len(), 1);
        let span = diags[0].span.unwrap();
        assert_eq!(&src[span.start..span.end], "m");
        assert!(diags[0].render(src).contains("line 2"));
    }

    #[test]
    fn union_arms_are_analyzed_independently() {
        let src = "MATCH (a) RETURN a UNION MATCH (b) RETURN a";
        let diags = lint(src, Dialect::Cypher9).unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::E01UnboundVariable);
    }
}
