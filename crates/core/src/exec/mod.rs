//! Statement execution.
//!
//! [`Engine`] evaluates parsed queries against a [`PropertyGraph`],
//! implementing the semantics-as-functions model of §8.1: each clause maps a
//! graph–table pair to a graph–table pair, and a query is the left-to-right
//! composition of its clauses applied to `(G, T())`.
//!
//! Two semantic regimes share this module, selected by [`Dialect`]:
//!
//! * **Cypher 9** — record-by-record updates that read their own writes;
//!   reproduces the anomalies of §4 (used with [`ProcessingOrder`] to
//!   exhibit the order-dependence of Examples 2 and 3).
//! * **Revised** — the atomic two-phase semantics of §7/§8, including
//!   `MERGE ALL` and `MERGE SAME`.
//!
//! For the §6 design-space experiments, [`EngineBuilder::merge_policy`]
//! overrides which of the five proposed `MERGE` semantics executes,
//! independently of the surface syntax.

mod explain;
mod guard;
mod merge;
pub(crate) mod read;
mod write;

pub use guard::ExecLimits;
pub use merge::MergePolicy;
pub use read::{Projected, Projector};

pub(crate) use guard::ExecGuard;

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use cypher_graph::{PropertyGraph, Transaction, Value};
use cypher_parser::ast::{Clause, Dialect, MergeKind, Query, SingleQuery, UnionKind};
use cypher_parser::{parse, validate, ParseError};

use crate::error::{EvalError, Result};
use crate::pattern::MatchMode;
use crate::table::{Record, Table};

/// Iteration order over the driving table for the *legacy* engine's
/// record-by-record updates. The paper's Example 3 shows `MERGE` producing
/// different graphs "depending on the evaluation order"; this knob makes
/// both orders reachable. The revised engine's output does not depend on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProcessingOrder {
    /// Top-down (first row first).
    #[default]
    Forward,
    /// Bottom-up (last row first) — Example 3's second evaluation.
    Reverse,
}

/// Update counters, reported with every statement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    pub nodes_created: usize,
    pub rels_created: usize,
    pub nodes_deleted: usize,
    pub rels_deleted: usize,
    pub props_set: usize,
    pub labels_added: usize,
    pub labels_removed: usize,
}

impl UpdateStats {
    /// Did the statement change anything?
    pub fn contains_updates(&self) -> bool {
        *self != UpdateStats::default()
    }

    /// Total primitive write operations — the quantity the write budget of
    /// [`ExecLimits`] is measured in.
    pub fn total_ops(&self) -> usize {
        self.nodes_created
            + self.rels_created
            + self.nodes_deleted
            + self.rels_deleted
            + self.props_set
            + self.labels_added
            + self.labels_removed
    }
}

/// Result of running one statement: a rectangular table (possibly empty for
/// update-only statements) plus update counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub stats: UpdateStats,
}

impl QueryResult {
    /// Values of a single-column result.
    pub fn column(&self, name: &str) -> Vec<Value> {
        let Some(idx) = self.columns.iter().position(|c| c == name) else {
            return vec![];
        };
        self.rows.iter().map(|r| r[idx].clone()).collect()
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        if self.columns.is_empty() {
            return format!("(no rows) {:?}", self.stats);
        }
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for line in std::iter::once(&self.columns).chain(&rendered) {
            for (cell, width) in line.iter().zip(&widths) {
                // Padded by hand: `format!`'s width argument panics past
                // 65 535.
                out.push_str("| ");
                out.push_str(cell);
                let pad = width.saturating_sub(cell.chars().count());
                out.extend(std::iter::repeat_n(' ', pad + 1));
            }
            out.push_str("|\n");
        }
        out
    }
}

/// What the engine does with static-analysis diagnostics
/// (see [`cypher_analysis`]) before running a statement.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum LintMode {
    /// No analysis. The default: execution is byte-for-byte identical to
    /// engines that predate the linter.
    #[default]
    Off,
    /// Run the analyzer and print rendered diagnostics to stderr; the
    /// statement still executes exactly as under [`LintMode::Off`].
    Warn,
    /// Refuse to execute statements with warning-or-worse diagnostics:
    /// they fail with [`EvalError::Lint`] before touching the graph.
    Deny,
}

/// Builder for [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    dialect: Dialect,
    match_mode: MatchMode,
    order: ProcessingOrder,
    merge_override: Option<MergePolicy>,
    params: BTreeMap<String, Value>,
    limits: ExecLimits,
    force_naive: bool,
    lint_mode: LintMode,
    read_workers: usize,
    morsel_size: usize,
    parallel_threshold: usize,
}

impl EngineBuilder {
    pub fn new(dialect: Dialect) -> Self {
        EngineBuilder {
            dialect,
            match_mode: MatchMode::EdgeIsomorphic,
            order: ProcessingOrder::Forward,
            merge_override: None,
            params: BTreeMap::new(),
            limits: ExecLimits::NONE,
            force_naive: false,
            lint_mode: LintMode::Off,
            read_workers: 1,
            morsel_size: 128,
            parallel_threshold: 64,
        }
    }

    /// Relationship-uniqueness discipline for pattern matching.
    pub fn match_mode(mut self, mode: MatchMode) -> Self {
        self.match_mode = mode;
        self
    }

    /// Legacy record iteration order (Example 3's evaluation order).
    pub fn processing_order(mut self, order: ProcessingOrder) -> Self {
        self.order = order;
        self
    }

    /// Force every `MERGE`-family clause to run under the given §6 proposal
    /// regardless of surface syntax. Used by the design-space experiments.
    pub fn merge_policy(mut self, policy: MergePolicy) -> Self {
        self.merge_override = Some(policy);
        self
    }

    /// Bind a statement parameter (`$name`).
    pub fn param(mut self, name: impl Into<String>, value: Value) -> Self {
        self.params.insert(name.into(), value);
        self
    }

    /// Per-statement execution budgets (rows, writes, wall-clock). A
    /// statement that exceeds a budget fails with
    /// [`EvalError::ResourceExhausted`](crate::EvalError::ResourceExhausted)
    /// and rolls back.
    pub fn limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Disable the cost-based physical planner: every `MATCH`/`MERGE` runs
    /// with the naive first-node anchoring strategy. Escape hatch for
    /// differential testing and benchmarking — results are identical
    /// either way (the planner re-sorts into the naive order).
    pub fn force_naive(mut self, naive: bool) -> Self {
        self.force_naive = naive;
        self
    }

    /// Static-analysis policy for statements run from source text
    /// ([`Engine::run`] / [`Engine::run_script`]). `Warn` reports the
    /// paper's update hazards (Examples 1–3, §4.2) on stderr without
    /// changing execution; `Deny` refuses hazardous statements outright.
    pub fn lint_mode(mut self, mode: LintMode) -> Self {
        self.lint_mode = mode;
        self
    }

    /// Number of threads (including the calling one) a read-only statement
    /// may fan pattern matching across. `0` and `1` mean serial execution —
    /// the default, so embedders opt in explicitly. Parallelism only
    /// engages on [`Engine::run_read`]'s shared-snapshot path, and its
    /// output is byte-identical to serial execution (see DESIGN.md §13).
    pub fn read_workers(mut self, n: usize) -> Self {
        self.read_workers = n;
        self
    }

    /// Rows (or anchor nodes) per morsel — the unit of work a parallel
    /// read worker claims at a time. Purely a scheduling granularity knob:
    /// results are identical for every morsel size.
    pub fn morsel_size(mut self, n: usize) -> Self {
        self.morsel_size = n.max(1);
        self
    }

    /// Minimum amount of work (driving rows, or planner-estimated matches)
    /// below which a `MATCH` stays serial even when [`Self::read_workers`]
    /// allows parallelism — fan-out overhead must be repaid.
    pub fn parallel_threshold(mut self, n: usize) -> Self {
        self.parallel_threshold = n;
        self
    }

    pub fn build(self) -> Engine {
        Engine {
            dialect: self.dialect,
            match_mode: self.match_mode,
            order: self.order,
            merge_override: self.merge_override,
            params: self.params,
            limits: self.limits,
            force_naive: self.force_naive,
            lint_mode: self.lint_mode,
            read_workers: self.read_workers,
            morsel_size: self.morsel_size.max(1),
            parallel_threshold: self.parallel_threshold,
        }
    }
}

/// A configured query executor. Cheap to clone; holds no graph state.
#[derive(Clone, Debug)]
pub struct Engine {
    pub dialect: Dialect,
    pub match_mode: MatchMode,
    pub order: ProcessingOrder,
    pub merge_override: Option<MergePolicy>,
    pub params: BTreeMap<String, Value>,
    pub limits: ExecLimits,
    /// Planner disabled (see [`EngineBuilder::force_naive`]).
    pub force_naive: bool,
    /// Static-analysis policy (see [`EngineBuilder::lint_mode`]).
    pub lint_mode: LintMode,
    /// Parallel read fan-out (see [`EngineBuilder::read_workers`]).
    pub read_workers: usize,
    /// Morsel granularity (see [`EngineBuilder::morsel_size`]).
    pub morsel_size: usize,
    /// Serial-vs-parallel cutover (see [`EngineBuilder::parallel_threshold`]).
    pub parallel_threshold: usize,
}

impl Engine {
    /// An engine with the legacy Cypher 9 semantics (§3–§4).
    pub fn legacy() -> Engine {
        EngineBuilder::new(Dialect::Cypher9).build()
    }

    /// An engine with the revised semantics of §7.
    pub fn revised() -> Engine {
        EngineBuilder::new(Dialect::Revised).build()
    }

    pub fn builder(dialect: Dialect) -> EngineBuilder {
        EngineBuilder::new(dialect)
    }

    /// Parse, validate and run one statement. The statement is atomic: on
    /// any error the graph is rolled back to its prior state, and at commit
    /// the no-dangling integrity check runs (a legacy statement that *ends*
    /// in an illegal state fails here).
    pub fn run(&self, graph: &mut PropertyGraph, text: &str) -> Result<QueryResult> {
        let query = parse(text)?;
        self.lint_gate(text, &query)?;
        self.run_query(graph, &query)
    }

    /// Run several `;`-separated statements, returning the last result.
    pub fn run_script(&self, graph: &mut PropertyGraph, text: &str) -> Result<QueryResult> {
        let queries = cypher_parser::parse_script(text)?;
        for q in &queries {
            self.lint_gate(text, q)?;
        }
        let mut last = QueryResult::default();
        for q in &queries {
            last = self.run_query(graph, q)?;
        }
        Ok(last)
    }

    /// Apply [`LintMode`] to a statement about to run from source `text`.
    /// `Warn` reports to stderr and always returns `Ok`; `Deny` fails with
    /// [`EvalError::Lint`] when any diagnostic is warning-or-worse, before
    /// the statement touches the graph.
    fn lint_gate(&self, text: &str, query: &cypher_parser::ast::Query) -> Result<()> {
        if self.lint_mode == LintMode::Off {
            return Ok(());
        }
        let diags = cypher_analysis::analyze(text, query, self.dialect);
        match self.lint_mode {
            LintMode::Off => Ok(()),
            LintMode::Warn => {
                for d in &diags {
                    eprintln!("{}", d.render(text));
                }
                Ok(())
            }
            LintMode::Deny => {
                if cypher_analysis::max_severity(&diags)
                    .is_some_and(|s| s >= cypher_analysis::Severity::Warning)
                {
                    Err(EvalError::Lint(diags))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Run an already-parsed statement.
    pub fn run_query(&self, graph: &mut PropertyGraph, query: &Query) -> Result<QueryResult> {
        validate(query, self.dialect).map_err(EvalError::Dialect)?;

        let mut tx = Transaction::begin(graph);
        let result = self.run_union(GraphMut::Excl(&mut tx), query);
        match result {
            Ok(res) => {
                tx.commit()?;
                Ok(res)
            }
            Err(e) => {
                tx.rollback();
                Err(e)
            }
        }
    }

    /// Parse, validate and run one **read-only** statement against a shared
    /// graph reference. This is the multi-session entry point: several
    /// threads may hold `&PropertyGraph` (e.g. through an `Arc` snapshot)
    /// and evaluate queries concurrently without serializing on a write
    /// lock. A statement containing any mutating clause — including
    /// `CREATE INDEX` / `DROP INDEX` — is refused up front with
    /// [`EvalError::ReadOnlyStatement`] before execution starts.
    ///
    /// Lint gating and execution budgets apply exactly as in
    /// [`Engine::run`]; there is no transaction because a read-only
    /// statement has nothing to roll back.
    pub fn run_read(&self, graph: &PropertyGraph, text: &str) -> Result<QueryResult> {
        let query = parse(text)?;
        self.lint_gate(text, &query)?;
        self.run_read_query(graph, &query)
    }

    /// Run an already-parsed read-only statement (see [`Engine::run_read`]).
    pub fn run_read_query(&self, graph: &PropertyGraph, query: &Query) -> Result<QueryResult> {
        validate(query, self.dialect).map_err(EvalError::Dialect)?;
        if let Some(clause) = query.first_mutating_clause() {
            return Err(EvalError::ReadOnlyStatement {
                clause: clause.name(),
            });
        }
        self.run_union(GraphMut::Shared(graph), query)
    }

    /// Apply one clause as the semantic function of §8.1: a map from
    /// graph–table pairs to graph–table pairs. The graph is mutated in
    /// place; the output driving table is returned.
    ///
    /// This is the raw semantics — no transaction wrapping, no dialect
    /// validation, no integrity check. It exists so the compositionality
    /// law `[[C S]] = [[S]] ∘ [[C]]` can be exercised directly (E11 in
    /// DESIGN.md); statement execution should go through [`Engine::run`].
    pub fn apply_clause(
        &self,
        graph: &mut PropertyGraph,
        table: Table,
        clause: &Clause,
    ) -> Result<Table> {
        self.apply_clauses(graph, table, std::slice::from_ref(clause))
    }

    /// Apply a clause sequence left to right (the composition of their
    /// semantic functions). See [`Engine::apply_clause`].
    pub fn apply_clauses(
        &self,
        graph: &mut PropertyGraph,
        table: Table,
        clauses: &[Clause],
    ) -> Result<Table> {
        let mut stats = UpdateStats::default();
        let guard = ExecGuard::new(self.limits);
        let mut ctx = ExecCtx {
            graph: GraphMut::Excl(graph),
            table,
            engine: self,
            stats: &mut stats,
            guard: &guard,
            result_columns: None,
        };
        for clause in clauses {
            ctx.apply(clause)?;
        }
        Ok(ctx.table)
    }

    fn run_union(&self, mut access: GraphMut<'_>, query: &Query) -> Result<QueryResult> {
        let mut stats = UpdateStats::default();
        // One guard for the whole statement: union arms share the budgets.
        let guard = ExecGuard::new(self.limits);
        let first = self.run_single(access.reborrow(), &query.first, &mut stats, &guard)?;
        if query.unions.is_empty() {
            return Ok(QueryResult {
                columns: first.0,
                rows: first.1,
                stats,
            });
        }
        let columns = first.0;
        let mut rows = first.1;
        let mut all_distinct = true;
        for (kind, sq) in &query.unions {
            // §8.2: updates in unions are side-effects applied left-to-right
            // on the graph; tables are unioned.
            let (cols, arm_rows) = self.run_single(access.reborrow(), sq, &mut stats, &guard)?;
            if cols != columns {
                return Err(EvalError::Dialect(ParseError::no_span(format!(
                    "UNION arms must return the same columns ({columns:?} vs {cols:?})"
                ))));
            }
            rows.extend(arm_rows);
            if *kind == UnionKind::All {
                all_distinct = false;
            }
        }
        if all_distinct {
            read::retain_first(&mut rows, |row| row);
        }
        Ok(QueryResult {
            columns,
            rows,
            stats,
        })
    }

    fn run_single(
        &self,
        graph: GraphMut<'_>,
        sq: &SingleQuery,
        stats: &mut UpdateStats,
        guard: &ExecGuard,
    ) -> Result<(Vec<String>, Vec<Vec<Value>>)> {
        let mut ctx = ExecCtx {
            graph,
            table: Table::unit(),
            engine: self,
            stats,
            guard,
            result_columns: None,
        };
        for clause in &sq.clauses {
            ctx.apply(clause)?;
        }
        match ctx.result_columns {
            Some(columns) => {
                let rows = ctx.table.rows.iter().map(|r| r.row(&columns)).collect();
                Ok((columns, rows))
            }
            None => Ok((vec![], vec![])),
        }
    }
}

/// Shared-or-exclusive access to the graph during statement execution.
///
/// The interpreter historically monopolized `&mut PropertyGraph` for every
/// statement, read or write. Multi-session embedders (the `cypher-server`
/// snapshot readers) need read-only statements to run against a shared
/// `&PropertyGraph` — an `Arc` snapshot several threads hold at once — so
/// execution is parameterized over this handle instead. The `Deref` impls
/// keep the clause implementations untouched: read paths auto-deref to
/// `&PropertyGraph` either way, and a write path (which only
/// [`Engine::run_read`]'s `is_read_only` gate can keep off a `Shared`
/// handle) derefs mutably.
pub(crate) enum GraphMut<'g> {
    /// A shared snapshot: any mutable deref is a bug, because
    /// [`Engine::run_read`] refuses statements with mutating clauses
    /// before execution starts.
    Shared(&'g PropertyGraph),
    /// The classic exclusive borrow.
    Excl(&'g mut PropertyGraph),
}

impl GraphMut<'_> {
    /// Reborrow for a shorter lifetime (one per `UNION` arm).
    pub(crate) fn reborrow(&mut self) -> GraphMut<'_> {
        match self {
            GraphMut::Shared(g) => GraphMut::Shared(g),
            GraphMut::Excl(g) => GraphMut::Excl(g),
        }
    }
}

impl Deref for GraphMut<'_> {
    type Target = PropertyGraph;
    fn deref(&self) -> &PropertyGraph {
        match self {
            GraphMut::Shared(g) => g,
            GraphMut::Excl(g) => g,
        }
    }
}

impl DerefMut for GraphMut<'_> {
    fn deref_mut(&mut self) -> &mut PropertyGraph {
        match self {
            GraphMut::Excl(g) => g,
            GraphMut::Shared(_) => unreachable!(
                "write operation reached a read-only snapshot; run_read \
                 guards execution with Clause::is_read_only"
            ),
        }
    }
}

/// Mutable execution state for one single-query.
pub(crate) struct ExecCtx<'g, 'e> {
    pub graph: GraphMut<'g>,
    pub table: Table,
    pub engine: &'e Engine,
    pub stats: &'e mut UpdateStats,
    pub guard: &'e ExecGuard,
    /// Set by a RETURN clause: the declared column order.
    pub result_columns: Option<Vec<String>>,
}

impl ExecCtx<'_, '_> {
    pub(crate) fn apply(&mut self, clause: &Clause) -> Result<()> {
        match clause {
            Clause::Match {
                optional,
                patterns,
                where_clause,
            } => read::match_clause(self, *optional, patterns, where_clause.as_ref()),
            Clause::Unwind { expr, alias } => read::unwind(self, expr, alias),
            Clause::With(p) => read::projection(self, p, true),
            Clause::Return(p) => read::projection(self, p, false),
            Clause::Create { patterns } => write::create(self, patterns),
            Clause::Set { items } => write::set(self, items),
            Clause::Remove { items } => write::remove(self, items),
            Clause::Delete { detach, exprs } => write::delete(self, *detach, exprs),
            Clause::Merge {
                kind,
                patterns,
                on_create,
                on_match,
            } => {
                let policy = self.engine.merge_override.unwrap_or(match kind {
                    MergeKind::Legacy => MergePolicy::Legacy,
                    MergeKind::All => MergePolicy::Atomic,
                    MergeKind::Same => MergePolicy::StrongCollapse,
                });
                merge::merge(self, policy, patterns, on_create, on_match)
            }
            Clause::Foreach { var, list, body } => write::foreach(self, var, list, body),
            Clause::CreateIndex { label, key } => {
                let l = self.graph.sym(label);
                let k = self.graph.sym(key);
                self.graph.create_index(l, k);
                Ok(())
            }
            Clause::DropIndex { label, key } => {
                if let (Some(l), Some(k)) = (self.graph.try_sym(label), self.graph.try_sym(key)) {
                    self.graph.drop_index(l, k);
                }
                Ok(())
            }
        }
    }

    /// Charge `n` materialized rows against the statement's row budget
    /// (also a cooperative cancellation point for the deadline).
    pub(crate) fn charge_rows(&self, n: usize) -> Result<()> {
        self.guard.charge_rows(n)
    }

    /// Check the write budget against the statement's running counters
    /// (also a cooperative cancellation point for the deadline).
    pub(crate) fn guard_writes(&self) -> Result<()> {
        self.guard.check_writes(self.stats)
    }

    /// Indices of the driving table in the legacy processing order.
    pub(crate) fn order_indices(&self) -> Vec<usize> {
        let n = self.table.len();
        match self.engine.order {
            ProcessingOrder::Forward => (0..n).collect(),
            ProcessingOrder::Reverse => (0..n).rev().collect(),
        }
    }

    /// Pattern matcher over the current graph state.
    pub(crate) fn matcher(&self) -> crate::pattern::Matcher<'_> {
        crate::pattern::Matcher::new(&self.graph, &self.engine.params, self.engine.match_mode)
    }

    /// Physical plan for a clause's pattern list against the current
    /// driving-table columns, or `None` when planning is disabled
    /// (`force_naive`) or unsupported (shortest-path patterns). Call
    /// before taking the table: all records bind the same columns, so one
    /// plan serves the whole clause.
    pub(crate) fn plan_patterns(
        &self,
        patterns: &[cypher_parser::ast::PathPattern],
    ) -> Option<crate::plan::ClausePlan> {
        if self.engine.force_naive {
            return None;
        }
        let cols = self.table.columns();
        crate::plan::plan_clause(&self.graph, &self.engine.params, patterns, &cols)
    }

    /// Read-only evaluation context over the current graph state.
    pub(crate) fn eval_ctx(&self) -> crate::eval::EvalCtx<'_> {
        crate::eval::EvalCtx::new(&self.graph, &self.engine.params)
            .with_match_mode(self.engine.match_mode)
    }

    /// Evaluate an expression for a record against the current graph.
    pub(crate) fn eval(&self, rec: &Record, expr: &cypher_parser::ast::Expr) -> Result<Value> {
        crate::eval::eval(&self.eval_ctx(), rec, expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_pads_cells_wider_than_a_format_width() {
        let wide = "x".repeat(70_000);
        let engine = Engine::builder(Dialect::Revised)
            .param("p", Value::Str(wide.clone()))
            .build();
        let result = engine
            .run(&mut PropertyGraph::new(), "RETURN $p AS p, 1 AS n")
            .expect("run");
        let cell = Value::Str(wide).to_string();
        let table = result.render();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], format!("| p{} | n |", " ".repeat(cell.len() - 1)));
        assert_eq!(lines[1], format!("| {cell} | 1 |"));
    }
}
