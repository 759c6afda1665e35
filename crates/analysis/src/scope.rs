//! Pass 1 — scope and flow analysis.
//!
//! Walks a [`SingleQuery`] clause by clause, maintaining the binding
//! environment of the driving table (§2 of the paper): which variables are
//! bound, and to what *kind* of value (node, relationship, path, or plain
//! value). Emits:
//!
//! * **E01** — use of a variable that is not bound at that point;
//! * **E02** — a variable re-bound or used with an incompatible kind
//!   (e.g. a node variable reused in relationship position, or `DELETE`
//!   of a plain value).
//!
//! The pass also records per-clause *flow facts* — the environment before
//! the clause, whether the driving table may hold more than one row, which
//! variables have been `DELETE`d, and which node variables are known to
//! have incident relationships. The update-hazard pass
//! ([`crate::hazards`]) consumes these facts.

use std::collections::HashMap;

use cypher_graph::EntityKind;
use cypher_parser::ast::{
    Clause, Dialect, Expr, Lit, NodePattern, PathPattern, Projection, ProjectionItems, RemoveItem,
    SetItem, SingleQuery,
};
use cypher_parser::{Span, Token};

use crate::diag::{Code, Diagnostic};
use crate::spans::{clause_tokens, find_var};

/// What kind of value a variable is bound to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// A graph entity — node or relationship ([`EntityKind`] from the
    /// store's id layer, so analyzer and engine agree on the taxonomy).
    Entity(EntityKind),
    /// A named path.
    Path,
    /// Any other value (scalars, lists, maps, var-length rel lists).
    Value,
}

impl VarKind {
    pub fn node() -> Self {
        VarKind::Entity(EntityKind::Node)
    }

    pub fn rel() -> Self {
        VarKind::Entity(EntityKind::Relationship)
    }

    fn describe(self) -> &'static str {
        match self {
            VarKind::Entity(EntityKind::Node) => "a node",
            VarKind::Entity(EntityKind::Relationship) => "a relationship",
            VarKind::Path => "a path",
            VarKind::Value => "a value",
        }
    }
}

/// Snapshot of the analysis state *before* each top-level clause.
#[derive(Clone, Debug)]
pub struct ClauseFacts {
    /// Binding environment entering the clause.
    pub env: HashMap<String, VarKind>,
    /// May the driving table hold more than one row here?
    pub multi_row: bool,
    /// Variables `DELETE`d by an earlier clause, with that clause's index.
    pub deleted: HashMap<String, usize>,
    /// For node variables: incident relationship slots observed in reading
    /// patterns so far (`Some(var)` for named rels, `None` for anonymous).
    pub incident_rels: HashMap<String, Vec<Option<String>>>,
}

/// Result of the scope pass: one [`ClauseFacts`] per top-level clause.
pub struct ScopeResult {
    pub facts: Vec<ClauseFacts>,
}

struct Scope<'a> {
    source: &'a str,
    dialect: Dialect,
    env: HashMap<String, VarKind>,
    multi_row: bool,
    deleted: HashMap<String, usize>,
    incident_rels: HashMap<String, Vec<Option<String>>>,
    diags: &'a mut Vec<Diagnostic>,
    /// Tokens of the clause currently being analyzed (for caret spans).
    tokens: Option<Vec<Token>>,
    clause_span: Option<Span>,
}

/// Run the scope pass over one single query.
pub fn scope_pass(
    source: &str,
    sq: &SingleQuery,
    dialect: Dialect,
    diags: &mut Vec<Diagnostic>,
) -> ScopeResult {
    let mut scope = Scope {
        source,
        dialect,
        env: HashMap::new(),
        multi_row: false,
        deleted: HashMap::new(),
        incident_rels: HashMap::new(),
        diags,
        tokens: None,
        clause_span: None,
    };
    let mut facts = Vec::with_capacity(sq.clauses.len());
    for (i, clause) in sq.clauses.iter().enumerate() {
        facts.push(ClauseFacts {
            env: scope.env.clone(),
            multi_row: scope.multi_row,
            deleted: scope.deleted.clone(),
            incident_rels: scope.incident_rels.clone(),
        });
        scope.enter_clause(sq.clause_span(i));
        scope.clause(clause, i);
    }
    ScopeResult { facts }
}

impl Scope<'_> {
    fn enter_clause(&mut self, span: Option<Span>) {
        self.clause_span = span;
        self.tokens = span.and_then(|s| clause_tokens(self.source, s));
    }

    /// Best caret span for variable `var` within the current clause.
    fn var_span(&self, var: &str) -> Option<Span> {
        self.tokens
            .as_deref()
            .and_then(|t| find_var(t, var, 0))
            .or(self.clause_span)
    }

    fn bind(&mut self, var: &str, kind: VarKind) {
        match self.env.get(var) {
            Some(&old) if old != kind => {
                self.diags.push(Diagnostic::new(
                    Code::E02KindMismatch,
                    self.var_span(var),
                    format!(
                        "variable `{var}` is already bound as {}; it cannot be reused as {}",
                        old.describe(),
                        kind.describe()
                    ),
                ));
            }
            Some(_) => {}
            None => {
                self.env.insert(var.to_owned(), kind);
            }
        }
    }

    fn require_bound(&mut self, var: &str) -> Option<VarKind> {
        match self.env.get(var) {
            Some(&k) => Some(k),
            None => {
                self.diags.push(Diagnostic::new(
                    Code::E01UnboundVariable,
                    self.var_span(var),
                    format!("variable `{var}` is not bound here"),
                ));
                None
            }
        }
    }

    // --------------------------------------------------------------
    // Clauses
    // --------------------------------------------------------------

    fn clause(&mut self, clause: &Clause, idx: usize) {
        match clause {
            Clause::Match {
                patterns,
                where_clause,
                ..
            } => {
                for p in patterns {
                    self.bind_pattern(p);
                }
                for p in patterns {
                    self.check_pattern_props(p);
                }
                if let Some(w) = where_clause {
                    self.check_expr(w, &mut Vec::new());
                }
                self.multi_row = true;
            }
            Clause::Unwind { expr, alias } => {
                self.check_expr(expr, &mut Vec::new());
                self.bind(alias, VarKind::Value);
                self.multi_row = true;
            }
            Clause::With(p) => self.projection(p, true),
            Clause::Return(p) => self.projection(p, false),
            Clause::Create { patterns } => self.write_patterns(patterns, "CREATE"),
            Clause::Set { items } => {
                for item in items {
                    self.set_item(item);
                }
            }
            Clause::Remove { items } => {
                for item in items {
                    match item {
                        RemoveItem::Property { target, .. } => {
                            self.check_expr(target, &mut Vec::new())
                        }
                        RemoveItem::Labels { target, labels: _ } => self.label_target(target),
                    }
                }
            }
            Clause::Delete { exprs, .. } => {
                for e in exprs {
                    self.check_expr(e, &mut Vec::new());
                    if let Expr::Variable(v) = e {
                        if let Some(kind) = self.env.get(v).copied() {
                            if kind == VarKind::Value {
                                self.diags.push(Diagnostic::new(
                                    Code::E02KindMismatch,
                                    self.var_span(v),
                                    format!(
                                        "DELETE target `{v}` is a plain value; only nodes, \
                                         relationships and paths can be deleted"
                                    ),
                                ));
                            } else {
                                self.deleted.entry(v.clone()).or_insert(idx);
                            }
                        }
                    }
                }
            }
            Clause::Merge {
                patterns,
                on_create,
                on_match,
                ..
            } => {
                self.write_patterns(patterns, "MERGE");
                for item in on_create.iter().chain(on_match) {
                    self.set_item(item);
                }
            }
            Clause::Foreach { var, list, body } => {
                self.check_expr(list, &mut Vec::new());
                // The loop variable and any bindings made by the body are
                // scoped to the body.
                let saved_env = self.env.clone();
                self.env.insert(var.clone(), VarKind::Value);
                for c in body {
                    self.clause(c, idx);
                }
                self.env = saved_env;
            }
            Clause::CreateIndex { .. } | Clause::DropIndex { .. } => {}
        }
    }

    fn label_target(&mut self, target: &str) {
        if let Some(kind) = self.require_bound(target) {
            if !matches!(kind, VarKind::Entity(EntityKind::Node)) {
                self.diags.push(Diagnostic::new(
                    Code::E02KindMismatch,
                    self.var_span(target),
                    format!(
                        "labels can only be added to or removed from nodes, but `{target}` \
                         is {}",
                        kind.describe()
                    ),
                ));
            }
        }
    }

    fn set_item(&mut self, item: &SetItem) {
        match item {
            SetItem::Property { target, value, .. } => {
                self.check_expr(target, &mut Vec::new());
                self.check_expr(value, &mut Vec::new());
            }
            SetItem::Replace { target, value } | SetItem::MergeProps { target, value } => {
                self.require_bound(target);
                self.check_expr(value, &mut Vec::new());
            }
            SetItem::Labels { target, .. } => self.label_target(target),
        }
    }

    fn projection(&mut self, proj: &Projection, is_with: bool) {
        fn add_item(
            scope: &mut Scope<'_>,
            out_env: &mut HashMap<String, VarKind>,
            expr: &Expr,
            alias: &Option<String>,
        ) {
            scope.check_expr(expr, &mut Vec::new());
            let kind = match expr {
                Expr::Variable(v) => scope.env.get(v).copied().unwrap_or(VarKind::Value),
                _ => VarKind::Value,
            };
            let name = match (alias, expr) {
                (Some(a), _) => a.clone(),
                (None, Expr::Variable(v)) => v.clone(),
                (None, other) => cypher_parser::pretty::print_expr(other),
            };
            out_env.insert(name, kind);
        }
        let mut out_env: HashMap<String, VarKind> = HashMap::new();
        let mut all_aggregate = true;
        match &proj.items {
            ProjectionItems::Star { extra } => {
                all_aggregate = false;
                for (v, k) in &self.env {
                    out_env.insert(v.clone(), *k);
                }
                for item in extra {
                    add_item(self, &mut out_env, &item.expr, &item.alias);
                }
            }
            ProjectionItems::Items(items) => {
                for item in items {
                    if !item.expr.contains_aggregate() {
                        all_aggregate = false;
                    }
                    add_item(self, &mut out_env, &item.expr, &item.alias);
                }
            }
        }
        // ORDER BY / WHERE see both the incoming and projected names.
        let mut merged = self.env.clone();
        merged.extend(out_env.iter().map(|(k, v)| (k.clone(), *v)));
        let saved = std::mem::replace(&mut self.env, merged);
        for si in &proj.order_by {
            self.check_expr(&si.expr, &mut Vec::new());
        }
        if let Some(w) = &proj.where_clause {
            self.check_expr(w, &mut Vec::new());
        }
        for e in proj.skip.iter().chain(&proj.limit) {
            self.check_expr(e, &mut Vec::new());
        }
        self.env = saved;

        if is_with {
            // Deleted markers survive only for variables that pass through.
            self.deleted.retain(|v, _| out_env.contains_key(v));
            self.env = out_env;
        }
        if all_aggregate {
            // Aggregation without grouping keys collapses to one row.
            self.multi_row = false;
        }
        if let Some(Expr::Literal(Lit::Int(n))) = &proj.limit {
            if *n <= 1 {
                self.multi_row = false;
            }
        }
    }

    // --------------------------------------------------------------
    // Patterns
    // --------------------------------------------------------------

    /// Bind a reading pattern's variables and record its adjacency
    /// evidence; its properties are checked once the whole clause is bound.
    fn bind_pattern(&mut self, p: &PathPattern) {
        if let Some(pv) = &p.var {
            self.bind(pv, VarKind::Path);
        }
        if let Some(nv) = &p.start.var {
            self.bind(nv, VarKind::node());
        }
        let mut prev = p.start.var.clone();
        for (rel, node) in &p.steps {
            if let Some(rv) = &rel.var {
                // A var-length pattern binds the variable to the *list* of
                // traversed relationships.
                let kind = match rel.length {
                    Some(_) => VarKind::Value,
                    None => VarKind::rel(),
                };
                self.bind(rv, kind);
            }
            if let Some(nv) = &node.var {
                self.bind(nv, VarKind::node());
            }
            // Record adjacency evidence: matching this step proves the
            // endpoint nodes have at least one incident relationship.
            for n in [&prev, &node.var].into_iter().flatten() {
                self.incident_rels
                    .entry(n.clone())
                    .or_default()
                    .push(rel.var.clone());
            }
            prev = node.var.clone();
        }
    }

    /// Bind a `CREATE`/`MERGE` pattern's variables in the order the engine
    /// creates them — per path the start node, then per step the far node
    /// and the relationship, then the path — checking each element's
    /// properties just before it is bound. Cypher 9 evaluates them in the
    /// record as it stands at that point, so they may name what the clause
    /// bound earlier; the revised dialect evaluates them in the clause's
    /// input record, so they may name nothing the clause binds.
    fn write_patterns(&mut self, patterns: &[PathPattern], clause: &str) {
        let mut input = (self.dialect == Dialect::Revised).then(|| self.env.clone());
        for p in patterns {
            self.write_node(&p.start, &mut input);
            for (rel, node) in &p.steps {
                self.write_node(node, &mut input);
                self.write_props(&rel.props, &mut input);
                let Some(rv) = &rel.var else { continue };
                if rel.length.is_some() {
                    self.bind(rv, VarKind::Value);
                    continue;
                }
                if self.env.contains_key(rv) {
                    self.diags.push(Diagnostic::new(
                        Code::E02KindMismatch,
                        self.var_span(rv),
                        format!("relationship variable `{rv}` in {clause} must be fresh"),
                    ));
                }
                self.bind(rv, VarKind::rel());
            }
            if let Some(pv) = &p.var {
                self.bind(pv, VarKind::Path);
            }
        }
    }

    fn write_node(&mut self, node: &NodePattern, input: &mut Option<HashMap<String, VarKind>>) {
        self.write_props(&node.props, input);
        if let Some(nv) = &node.var {
            self.bind(nv, VarKind::node());
        }
    }

    /// Check write-pattern properties in the clause's `input` environment
    /// when there is one, else in the current one.
    fn write_props(
        &mut self,
        props: &[(String, Expr)],
        input: &mut Option<HashMap<String, VarKind>>,
    ) {
        if let Some(env) = input {
            std::mem::swap(&mut self.env, env);
        }
        for (_, e) in props {
            self.check_expr(e, &mut Vec::new());
        }
        if let Some(env) = input {
            std::mem::swap(&mut self.env, env);
        }
    }

    fn check_pattern_props(&mut self, p: &PathPattern) {
        for (_, e) in &p.start.props {
            self.check_expr(e, &mut Vec::new());
        }
        for (rel, node) in &p.steps {
            for (_, e) in &rel.props {
                self.check_expr(e, &mut Vec::new());
            }
            for (_, e) in &node.props {
                self.check_expr(e, &mut Vec::new());
            }
        }
    }

    // --------------------------------------------------------------
    // Expressions
    // --------------------------------------------------------------

    /// Check variable uses in `expr`. `locals` holds variables bound by
    /// enclosing comprehension/quantifier/reduce binders.
    fn check_expr(&mut self, expr: &Expr, locals: &mut Vec<String>) {
        match expr {
            Expr::Variable(v) => {
                if !locals.iter().any(|l| l == v) && !self.env.contains_key(v) {
                    self.diags.push(Diagnostic::new(
                        Code::E01UnboundVariable,
                        self.var_span(v),
                        format!("variable `{v}` is not bound here"),
                    ));
                }
            }
            Expr::ListComprehension {
                var,
                list,
                filter,
                body,
            } => {
                self.check_expr(list, locals);
                locals.push(var.clone());
                if let Some(f) = filter {
                    self.check_expr(f, locals);
                }
                if let Some(b) = body {
                    self.check_expr(b, locals);
                }
                locals.pop();
            }
            Expr::Quantifier {
                var, list, pred, ..
            } => {
                self.check_expr(list, locals);
                locals.push(var.clone());
                self.check_expr(pred, locals);
                locals.pop();
            }
            Expr::Reduce {
                acc,
                init,
                var,
                list,
                body,
            } => {
                self.check_expr(init, locals);
                self.check_expr(list, locals);
                locals.push(acc.clone());
                locals.push(var.clone());
                self.check_expr(body, locals);
                locals.pop();
                locals.pop();
            }
            // Pattern predicates may introduce fresh (existential)
            // variables; `for_each_child` hands out only their property
            // expressions.
            other => other.for_each_child(&mut |c| self.check_expr(c, locals)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse;

    fn diags_for(src: &str) -> Vec<Diagnostic> {
        diags_in(src, Dialect::Cypher9)
    }

    fn diags_in(src: &str, dialect: Dialect) -> Vec<Diagnostic> {
        let q = parse(src).unwrap();
        let mut diags = Vec::new();
        scope_pass(src, &q.first, dialect, &mut diags);
        diags
    }

    #[test]
    fn unbound_variable_is_reported_with_span() {
        let src = "MATCH (n) RETURN m";
        let d = diags_for(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::E01UnboundVariable);
        let span = d[0].span.unwrap();
        assert_eq!(&src[span.start..span.end], "m");
    }

    #[test]
    fn kind_mismatch_on_reuse() {
        let d = diags_for("MATCH (n)-[r]->(m) MATCH (a)-[n]->(b) RETURN n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::E02KindMismatch);
    }

    #[test]
    fn with_narrows_scope() {
        let d = diags_for("MATCH (n)-[r]->(m) WITH n RETURN r");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::E01UnboundVariable);
    }

    #[test]
    fn comprehension_binders_are_local() {
        assert!(diags_for("RETURN [x IN [1,2] WHERE x > 1 | x * 2] AS l").is_empty());
        let d = diags_for("RETURN [x IN [1] | x] AS l, x");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::E01UnboundVariable);
    }

    #[test]
    fn write_pattern_properties_see_what_the_engine_has_bound() {
        let e01 = |src: &str, dialect| -> Vec<String> {
            let d = diags_in(src, dialect);
            assert!(
                d.iter().all(|d| d.code == Code::E01UnboundVariable),
                "{src}"
            );
            d.iter()
                .map(|d| src[d.span.unwrap().start..d.span.unwrap().end].to_owned())
                .collect()
        };
        // Both dialects: a property may not name a variable bound later in
        // the clause (the engine has not bound it yet).
        for dialect in [Dialect::Cypher9, Dialect::Revised] {
            assert_eq!(e01("CREATE (b {c: a.k}), (a {k: 1})", dialect), ["a"]);
            assert_eq!(e01("CREATE (a {k: a.x})", dialect), ["a"]);
            assert!(e01("MATCH (n) CREATE (m {c: n.k})-[:T {w: n.k}]->(n)", dialect).is_empty());
        }
        // Cypher 9 creates element by element, so earlier ones are bound.
        for src in [
            "CREATE (a {k: 1}), (b {c: a.k})",
            "CREATE (a:X {k: 1})-[:T]->(b:Y {c: a.k})",
            "CREATE (a)-[:T {w: b.k}]->(b {k: 1})",
            "MERGE (a:X {k: 1})-[:T]->(b:Y {c: a.k})",
        ] {
            assert!(e01(src, Dialect::Cypher9).is_empty(), "{src}");
        }
        // The revised dialect evaluates every property in the input record.
        assert_eq!(
            e01("CREATE (a {k: 1}), (b {c: a.k})", Dialect::Revised),
            ["a"]
        );
        assert_eq!(
            e01(
                "MERGE ALL (a:X {k: 1})-[:T]->(b:Y {c: a.k})",
                Dialect::Revised
            ),
            ["a"]
        );
    }

    #[test]
    fn delete_of_value_kind_is_rejected() {
        let d = diags_for("UNWIND [1,2] AS x DELETE x");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::E02KindMismatch);
    }

    #[test]
    fn facts_track_multi_row_and_deletes() {
        let src = "MATCH (n) DELETE n RETURN n";
        let q = parse(src).unwrap();
        let mut diags = Vec::new();
        let r = scope_pass(src, &q.first, Dialect::Cypher9, &mut diags);
        assert!(!r.facts[0].multi_row);
        assert!(r.facts[1].multi_row);
        assert!(r.facts[1].deleted.is_empty());
        assert_eq!(r.facts[2].deleted.get("n"), Some(&1));
    }

    #[test]
    fn adjacency_evidence_is_recorded() {
        let src = "MATCH (a)-[r]->(b) RETURN a";
        let q = parse(src).unwrap();
        let mut diags = Vec::new();
        let r = scope_pass(src, &q.first, Dialect::Cypher9, &mut diags);
        let inc = &r.facts[1].incident_rels;
        assert_eq!(inc["a"], vec![Some("r".to_owned())]);
        assert_eq!(inc["b"], vec![Some("r".to_owned())]);
    }
}
