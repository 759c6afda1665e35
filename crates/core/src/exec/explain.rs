//! `EXPLAIN`: render the evaluation strategy for a statement — which
//! semantics each clause runs under, the physical plan the cost-based
//! planner picks for each `MATCH`/`MERGE` (anchor access path, traversal
//! directions, join order, estimated cardinalities), and how the
//! projection is computed.
//!
//! Estimated row counts come from the store's live cardinality statistics
//! (the same numbers the planner optimizes with). *Actual* row counts come
//! from executing the statement clause by clause against a throwaway copy
//! of the graph — the caller's graph is never modified, and each clause is
//! planned against the graph state it actually sees, so the estimate/actual
//! comparison is honest even for multi-clause updates.

use std::fmt::Write as _;

use cypher_graph::PropertyGraph;
use cypher_parser::ast::{
    Clause, Dialect, MergeKind, NodePattern, PathPattern, Projection, ProjectionItems, Query,
    RelDirection, RelPattern,
};

use crate::exec::{Engine, MergePolicy};
use crate::plan::{Anchor, ClausePlan};
use crate::table::Table;

impl Engine {
    /// Describe how this engine evaluates `query` against `graph`,
    /// including the physical plan and estimated vs. actual row counts.
    /// The statement runs against a scratch copy of the graph; the
    /// caller's graph is never modified.
    pub fn explain(&self, graph: &PropertyGraph, text: &str) -> crate::error::Result<String> {
        let query = cypher_parser::parse(text)?;
        cypher_parser::validate(&query, self.dialect).map_err(crate::error::EvalError::Dialect)?;
        Ok(self.explain_query(graph, &query))
    }

    /// AST-level variant of [`Engine::explain`].
    pub fn explain_query(&self, graph: &PropertyGraph, query: &Query) -> String {
        let mut out = String::new();
        let dialect = match self.dialect {
            Dialect::Cypher9 => "Cypher 9 (legacy record-by-record updates)",
            Dialect::Revised => "revised (§7 atomic updates)",
        };
        let _ = writeln!(out, "semantics: {dialect}");
        let _ = writeln!(
            out,
            "matching:  {} relationships{}",
            match self.match_mode {
                crate::pattern::MatchMode::EdgeIsomorphic => "edge-isomorphic (distinct)",
                crate::pattern::MatchMode::Homomorphic => "homomorphic (shareable)",
            },
            match self.merge_override {
                Some(policy) => format!("; MERGE policy forced to {policy}"),
                None => String::new(),
            }
        );
        let _ = writeln!(
            out,
            "planner:   {}",
            if self.force_naive {
                "disabled (force_naive — naive first-node anchoring)"
            } else {
                "cost-based (live stats pick anchor, direction, join order)"
            }
        );

        // Scratch execution for actual cardinalities; UNION arms see each
        // other's side-effects left to right, like real execution.
        let mut scratch = graph.clone();
        for (arm, sq) in std::iter::once(&query.first)
            .chain(query.unions.iter().map(|(_, q)| q))
            .enumerate()
        {
            if arm > 0 {
                let _ = writeln!(out, "UNION arm {arm} (side-effects apply left-to-right):");
            }
            let mut table: Option<Table> = Some(Table::unit());
            let mut error: Option<String> = None;
            for clause in &sq.clauses {
                // Plan with the graph state and table columns this clause
                // actually sees (mirrors what execution would pick).
                let plan = match (&table, clause) {
                    (Some(t), Clause::Match { patterns, .. } | Clause::Merge { patterns, .. })
                        if !self.force_naive =>
                    {
                        crate::plan::plan_clause(&scratch, &self.params, patterns, &t.columns())
                    }
                    _ => None,
                };
                // Clauses that run unplanned enter their patterns where
                // the naive matcher does, from the same graph and columns.
                let mut anchors = match &plan {
                    Some(_) => Vec::new(),
                    None => {
                        let cols = table.as_ref().map(Table::columns).unwrap_or_default();
                        self.naive_anchors(&scratch, clause, &cols)
                    }
                }
                .into_iter();
                let est = plan.as_ref().zip(table.as_ref()).map(|(p, t)| {
                    let per_row: f64 = p.meta.iter().map(|m| m.est_rows).product();
                    per_row * t.len() as f64
                });
                let actual = match table.take() {
                    Some(t) => match self.apply_clause(&mut scratch, t, clause) {
                        Ok(t2) => {
                            let n = t2.len();
                            table = Some(t2);
                            Rows::Actual(n)
                        }
                        Err(e) => {
                            error = Some(e.to_string());
                            Rows::Failed
                        }
                    },
                    None => Rows::NotRun,
                };
                let plan = plan.as_ref();
                self.explain_clause(clause, plan, &mut anchors, est, actual, &mut out, 0);
            }
            if let Some(e) = error {
                let _ = writeln!(out, "  (execution stopped: {e})");
            }
        }
        out
    }

    /// The naive anchors of every pattern `clause` runs, FOREACH bodies
    /// included, in the order `explain_clause` prints them.
    fn naive_anchors(
        &self,
        graph: &PropertyGraph,
        clause: &Clause,
        cols: &[String],
    ) -> Vec<Anchor> {
        match clause {
            Clause::Match { patterns, .. } | Clause::Merge { patterns, .. } => {
                crate::plan::naive_anchors(graph, &self.params, patterns, cols)
            }
            Clause::Foreach { var, body, .. } => {
                // Each body clause sees the variables the ones before it bound.
                let mut cols = [cols, std::slice::from_ref(var)].concat();
                let mut anchors = Vec::new();
                for c in body {
                    anchors.extend(self.naive_anchors(graph, c, &cols));
                    if let Clause::Create { patterns } | Clause::Merge { patterns, .. } = c {
                        cols.extend(crate::exec::read::pattern_variables(patterns));
                    }
                }
                anchors
            }
            _ => Vec::new(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn explain_clause(
        &self,
        clause: &Clause,
        plan: Option<&ClausePlan>,
        anchors: &mut std::vec::IntoIter<Anchor>,
        est: Option<f64>,
        actual: Rows,
        out: &mut String,
        depth: usize,
    ) {
        let pad = "  ".repeat(depth);
        match clause {
            Clause::Match {
                optional,
                patterns,
                where_clause,
            } => {
                let kw = if *optional { "OPTIONAL MATCH" } else { "MATCH" };
                let _ = writeln!(out, "{pad}{kw}:{}", rows_note(est, actual));
                explain_pattern_list(patterns, plan, anchors, out, depth + 1);
                if where_clause.is_some() {
                    let _ = writeln!(out, "{pad}  filter: WHERE (ternary; unknown drops row)");
                }
            }
            Clause::Unwind { .. } => {
                let _ = writeln!(out, "{pad}UNWIND: fan out one row per list element");
            }
            Clause::With(p) => {
                let _ = writeln!(out, "{pad}WITH: {}", explain_projection(p));
            }
            Clause::Return(p) => {
                let _ = writeln!(out, "{pad}RETURN: {}", explain_projection(p));
            }
            Clause::Create { patterns } => {
                let _ = writeln!(
                    out,
                    "{pad}CREATE: instantiate {} pattern(s) per row",
                    patterns.len()
                );
            }
            Clause::Set { items } => {
                let how = match self.dialect {
                    Dialect::Cypher9 => {
                        "legacy: item-by-item per row against the current graph \
                         (reads its own writes)"
                    }
                    Dialect::Revised => {
                        "atomic: collect propchanges/labchanges on the input graph, \
                         error on conflicts, apply once"
                    }
                };
                let _ = writeln!(out, "{pad}SET ({} item(s)): {how}", items.len());
            }
            Clause::Remove { items } => {
                let how = match self.dialect {
                    Dialect::Cypher9 => "legacy: per row",
                    Dialect::Revised => "atomic: collect removals, apply once",
                };
                let _ = writeln!(out, "{pad}REMOVE ({} item(s)): {how}", items.len());
            }
            Clause::Delete { detach, exprs } => {
                let kw = if *detach { "DETACH DELETE" } else { "DELETE" };
                let how = match self.dialect {
                    Dialect::Cypher9 => {
                        "legacy: delete eagerly per row (dangling states possible; \
                         integrity checked at commit)"
                    }
                    Dialect::Revised => {
                        "atomic: collect deletion set, error on would-dangle, \
                         apply once, substitute null in driving table"
                    }
                };
                let _ = writeln!(out, "{pad}{kw} ({} expr(s)): {how}", exprs.len());
            }
            Clause::Merge {
                kind,
                patterns,
                on_create,
                on_match,
            } => {
                let policy = self.merge_override.unwrap_or(match kind {
                    MergeKind::Legacy => MergePolicy::Legacy,
                    MergeKind::All => MergePolicy::Atomic,
                    MergeKind::Same => MergePolicy::StrongCollapse,
                });
                let how = match policy {
                    MergePolicy::Legacy => {
                        "per row against the CURRENT graph (reads its own writes; \
                         order-dependent)"
                    }
                    MergePolicy::Atomic => {
                        "match all rows on the input graph; create per failing row"
                    }
                    MergePolicy::Grouping => {
                        "match on input graph; group failing rows by pattern \
                         expressions; create once per group"
                    }
                    MergePolicy::WeakCollapse => {
                        "grouping + collapse equal creations at the same pattern position"
                    }
                    MergePolicy::Collapse => {
                        "grouping + collapse equal nodes across positions \
                         (relationships stay positional)"
                    }
                    MergePolicy::StrongCollapse => {
                        "grouping + full Defs. 1–2 collapse (nodes and relationships)"
                    }
                };
                let _ = writeln!(
                    out,
                    "{pad}{} [{policy}]: {how}{}",
                    clause.name(),
                    rows_note(est, actual)
                );
                explain_pattern_list(patterns, plan, anchors, out, depth + 1);
                if !on_create.is_empty() {
                    let _ = writeln!(out, "{pad}  ON CREATE SET: {} item(s)", on_create.len());
                }
                if !on_match.is_empty() {
                    let _ = writeln!(out, "{pad}  ON MATCH SET: {} item(s)", on_match.len());
                }
            }
            Clause::Foreach { body, .. } => {
                let _ = writeln!(out, "{pad}FOREACH: per list element, run:");
                for inner in body {
                    self.explain_clause(inner, None, anchors, None, Rows::NotRun, out, depth + 1);
                }
            }
            Clause::CreateIndex { label, key } => {
                let _ = writeln!(out, "{pad}CREATE INDEX ON :{label}({key}) [schema]");
            }
            Clause::DropIndex { label, key } => {
                let _ = writeln!(out, "{pad}DROP INDEX ON :{label}({key}) [schema]");
            }
        }
    }
}

/// Actual-cardinality outcome for one clause of the scratch execution.
#[derive(Clone, Copy)]
enum Rows {
    Actual(usize),
    Failed,
    NotRun,
}

fn rows_note(est: Option<f64>, actual: Rows) -> String {
    let est = est.map(|e| format!("est ≈ {}", fmt_est(e)));
    let act = match actual {
        Rows::Actual(n) => Some(format!("actual {n}")),
        Rows::Failed => Some("failed".to_owned()),
        Rows::NotRun => None,
    };
    match (est, act) {
        (Some(e), Some(a)) => format!("  [rows: {e}, {a}]"),
        (Some(e), None) => format!("  [rows: {e}]"),
        (None, Some(a)) => format!("  [rows: {a}]"),
        (None, None) => String::new(),
    }
}

fn fmt_est(e: f64) -> String {
    if e >= 10.0 || e == e.trunc() {
        format!("{}", e.round() as u64)
    } else {
        format!("{e:.1}")
    }
}

/// Render the physical plan of a pattern list (in execution order), or the
/// naive strategy when no plan exists (force_naive / shortest paths).
fn explain_pattern_list(
    patterns: &[PathPattern],
    plan: Option<&ClausePlan>,
    anchors: &mut std::vec::IntoIter<Anchor>,
    out: &mut String,
    depth: usize,
) {
    let pad = "  ".repeat(depth);
    let Some(plan) = plan else {
        for (p, anchor) in patterns.iter().zip(anchors) {
            if p.shortest.is_some() {
                let _ = writeln!(out, "{pad}shortest-path BFS (runs on the naive matcher):");
            }
            let _ = writeln!(out, "{pad}start {}: {anchor}", describe_node(&p.start));
            for (rel, node) in &p.steps {
                let _ = writeln!(
                    out,
                    "{pad}  expand {} to {} (adjacency; target checked in place)",
                    describe_rel(rel),
                    describe_node(node),
                );
            }
        }
        return;
    };
    for (i, (p, m)) in plan.pats.iter().zip(&plan.meta).enumerate() {
        let mut note = String::new();
        if m.orig != i {
            let _ = write!(note, "; written as pattern {}", m.orig + 1);
        }
        if m.reversed {
            note.push_str("; reversed");
        }
        let _ = writeln!(
            out,
            "{pad}anchor {} via {} (≈ {} node(s){note})",
            describe_node(&p.start),
            m.anchor,
            fmt_est(m.anchor_est),
        );
        for (rel, node) in &p.steps {
            let _ = writeln!(
                out,
                "{pad}  expand {} to {} ({}; target checked in place)",
                describe_rel(rel),
                describe_node(node),
                if rel.types.len() == 1 {
                    "typed adjacency partition"
                } else {
                    "adjacency"
                },
            );
        }
    }
}

fn describe_node(np: &NodePattern) -> String {
    let mut s = String::from("(");
    if let Some(v) = &np.var {
        s.push_str(v);
    }
    for l in &np.labels {
        let _ = write!(s, ":{l}");
    }
    if !np.props.is_empty() {
        let _ = write!(s, " {{{} prop(s)}}", np.props.len());
    }
    s.push(')');
    s
}

fn describe_rel(rp: &RelPattern) -> String {
    let types = if rp.types.is_empty() {
        "any type".to_owned()
    } else {
        rp.types.join("|")
    };
    let len = match rp.length {
        Some(l) => format!(
            " *{}..{}",
            l.min.map(|v| v.to_string()).unwrap_or_else(|| "1".into()),
            l.max.map(|v| v.to_string()).unwrap_or_else(|| "∞".into())
        ),
        None => String::new(),
    };
    match rp.direction {
        RelDirection::Outgoing => format!("-[{types}{len}]->"),
        RelDirection::Incoming => format!("<-[{types}{len}]-"),
        RelDirection::Undirected => format!("-[{types}{len}]-"),
    }
}

fn explain_projection(p: &Projection) -> String {
    let mut parts = Vec::new();
    let has_agg = match &p.items {
        ProjectionItems::Star { extra } => extra.iter().any(|i| i.expr.contains_aggregate()),
        ProjectionItems::Items(items) => items.iter().any(|i| i.expr.contains_aggregate()),
    };
    parts.push(if has_agg {
        "aggregate (implicit grouping by non-aggregate items)".to_owned()
    } else {
        "row-wise projection".to_owned()
    });
    if p.distinct {
        parts.push("DISTINCT (dedup by equivalence)".to_owned());
    }
    if !p.order_by.is_empty() {
        parts.push(format!(
            "ORDER BY {} key(s) (global order)",
            p.order_by.len()
        ));
    }
    if p.skip.is_some() {
        parts.push("SKIP".to_owned());
    }
    if p.limit.is_some() {
        parts.push("LIMIT".to_owned());
    }
    if p.where_clause.is_some() {
        parts.push("WHERE on projected scope".to_owned());
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::EngineBuilder;
    use cypher_graph::PropertyGraph;

    #[test]
    fn explain_shows_access_paths_and_semantics() {
        let mut g = PropertyGraph::new();
        let e = Engine::revised();
        e.run(&mut g, "UNWIND range(0, 9) AS i CREATE (:User {id: i})")
            .unwrap();

        let plan = e
            .explain(&g, "MATCH (u:User {id: 3}) SET u.seen = true RETURN u")
            .unwrap();
        assert!(plan.contains("label scan (:User)"), "{plan}");
        assert!(plan.contains("atomic"), "{plan}");

        e.run(&mut g, "CREATE INDEX ON :User(id)").unwrap();
        let plan = e.explain(&g, "MATCH (u:User {id: 3}) RETURN u").unwrap();
        assert!(plan.contains("index probe (:User(id))"), "{plan}");
    }

    #[test]
    fn explain_reports_estimated_and_actual_rows() {
        let mut g = PropertyGraph::new();
        let e = Engine::revised();
        e.run(&mut g, "UNWIND range(0, 9) AS i CREATE (:User {id: i})")
            .unwrap();
        e.run(&mut g, "CREATE INDEX ON :User(id)").unwrap();
        let plan = e.explain(&g, "MATCH (u:User {id: 3}) RETURN u").unwrap();
        assert!(plan.contains("est ≈ 1"), "{plan}");
        assert!(plan.contains("actual 1"), "{plan}");
        // The probe estimate comes from the live index bucket.
        assert!(plan.contains("≈ 1 node(s)"), "{plan}");
    }

    #[test]
    fn explain_marks_reversed_patterns_and_directions() {
        let mut g = PropertyGraph::new();
        let e = Engine::revised();
        e.run(
            &mut g,
            "UNWIND range(0, 9) AS i \
             CREATE (:User {id: i})-[:ORDERED]->(:Product {id: i})",
        )
        .unwrap();
        e.run(&mut g, "CREATE INDEX ON :User(id)").unwrap();
        let plan = e
            .explain(
                &g,
                "MATCH (p:Product)<-[:ORDERED]-(u:User {id: 3}) RETURN p",
            )
            .unwrap();
        assert!(plan.contains("reversed"), "{plan}");
        assert!(plan.contains("index probe (:User(id))"), "{plan}");
        // Reversed execution walks the ORDERED step outgoing from the user.
        assert!(plan.contains("-[ORDERED]->"), "{plan}");
        assert!(plan.contains("typed adjacency partition"), "{plan}");
    }

    #[test]
    fn explain_respects_force_naive() {
        let g = PropertyGraph::new();
        let plan = EngineBuilder::new(Dialect::Revised)
            .force_naive(true)
            .build()
            .explain(&g, "MATCH (n) RETURN n")
            .unwrap();
        assert!(plan.contains("force_naive"), "{plan}");
        assert!(plan.contains("all-nodes scan"), "{plan}");
    }

    #[test]
    fn unplanned_clauses_show_the_anchor_the_matcher_takes() {
        let mut g = PropertyGraph::new();
        let e = Engine::revised();
        e.run(&mut g, "UNWIND range(1, 50) AS i CREATE (:Big {id: i})")
            .unwrap();
        e.run(
            &mut g,
            "UNWIND range(1, 3) AS i CREATE (:Big:Small {id: i})",
        )
        .unwrap();
        // Shortest paths are never planned; the matcher scans the smaller
        // label, whichever is written first.
        let plan = e
            .explain(
                &g,
                "MATCH p = shortestPath((a:Big:Small)-[*]->(b)) RETURN p",
            )
            .unwrap();
        assert!(
            plan.contains("start (a:Big:Small): label scan (:Small)"),
            "{plan}"
        );
        // A variable bound by an earlier clause anchors the pattern.
        let plan = e
            .explain(
                &g,
                "MATCH (a:Small) WITH a MATCH p = shortestPath((a)-[*]->(b)) RETURN p",
            )
            .unwrap();
        assert!(plan.contains("start (a): bound variable `a`"), "{plan}");
        let naive = EngineBuilder::new(Dialect::Revised)
            .force_naive(true)
            .build()
            .explain(&g, "MATCH (a:Big:Small), (a)-->(b:Big) RETURN b")
            .unwrap();
        assert!(
            naive.contains("start (a:Big:Small): label scan (:Small)"),
            "{naive}"
        );
        assert!(naive.contains("start (a): bound variable `a`"), "{naive}");
        // In a FOREACH body, a variable an earlier body clause binds.
        let plan = Engine::legacy()
            .explain(
                &g,
                "MATCH (n:Small) FOREACH (x IN [1] | CREATE (a:M) MERGE (a)-[:T]->(:N))",
            )
            .unwrap();
        assert!(plan.contains("start (a): bound variable `a`"), "{plan}");
    }

    #[test]
    fn explain_does_not_modify_the_graph() {
        let mut g = PropertyGraph::new();
        let e = Engine::revised();
        e.run(&mut g, "CREATE (:User {id: 1})").unwrap();
        let before = g.clone();
        e.explain(&g, "MATCH (u:User) DETACH DELETE u").unwrap();
        e.explain(&g, "CREATE (:User {id: 2})").unwrap();
        assert!(cypher_graph::isomorphic(&before, &g));
    }

    #[test]
    fn explain_names_merge_policy() {
        let g = PropertyGraph::new();
        let plan = Engine::revised()
            .explain(&g, "MERGE SAME (:User {id: 1})-[:ORDERED]->(:Product)")
            .unwrap();
        assert!(plan.contains("Strong Collapse"), "{plan}");
        assert!(plan.contains("Defs. 1–2"), "{plan}");

        let forced = EngineBuilder::new(Dialect::Revised)
            .merge_policy(MergePolicy::Grouping)
            .build()
            .explain(&g, "MERGE ALL (:User {id: 1})")
            .unwrap();
        assert!(forced.contains("Grouping"), "{forced}");
    }

    #[test]
    fn explain_respects_dialect_validation() {
        let g = PropertyGraph::new();
        assert!(Engine::revised()
            .explain(&g, "MERGE (:A)-[:T]->(:B)")
            .is_err());
        let legacy_plan = Engine::legacy()
            .explain(&g, "MERGE (a:A)-[:T]-(b:B) ON CREATE SET a.x = 1")
            .unwrap();
        assert!(legacy_plan.contains("order-dependent"), "{legacy_plan}");
        assert!(legacy_plan.contains("ON CREATE SET"), "{legacy_plan}");
    }

    #[test]
    fn explain_covers_delete_and_foreach() {
        let g = PropertyGraph::new();
        let plan = Engine::legacy()
            .explain(&g, "MATCH (n) DETACH DELETE n")
            .unwrap();
        assert!(plan.contains("dangling states possible"), "{plan}");
        let plan = Engine::revised()
            .explain(&g, "FOREACH (x IN [1] | CREATE (:L))")
            .unwrap();
        assert!(plan.contains("FOREACH"), "{plan}");
        assert!(plan.contains("CREATE"), "{plan}");
    }
}
