//! Reading clauses: `MATCH`, `OPTIONAL MATCH`, `UNWIND`, and the
//! `WITH`/`RETURN` projection machinery (grouping, aggregation, `DISTINCT`,
//! `ORDER BY`, `SKIP`, `LIMIT`).
//!
//! Reading clauses never modify the graph — in §8.1 terms,
//! `[[C]](G, T) = (G, [[C]]^ro_G(T))`.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use cypher_graph::{PropertyGraph, Value};
use cypher_parser::ast::{Expr, PathPattern, Projection, ProjectionItem, ProjectionItems};
use cypher_parser::pretty::print_expr;
use cypher_parser::ParseError;

use crate::error::{EvalError, Result};
use crate::eval::agg::{AggKind, Aggregator};
use crate::eval::{apply_binary, apply_unary, eval, eval_predicate, property_access, EvalCtx};
use crate::exec::{Engine, ExecCtx, ExecGuard, GraphMut};
use crate::par::{scatter, ReadPool};
use crate::pattern::{naive_order, Matcher};
use crate::plan::ClausePlan;
use crate::table::{Record, Table};

/// `MATCH` / `OPTIONAL MATCH`: extend every record with every embedding of
/// the patterns; `WHERE` filters the embeddings. An `OPTIONAL MATCH` with no
/// surviving embedding produces one record with the pattern's new variables
/// bound to `null`.
pub(crate) fn match_clause(
    ctx: &mut ExecCtx,
    optional: bool,
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
) -> Result<()> {
    let plan = ctx.plan_patterns(patterns);
    let step = MatchStep {
        optional,
        patterns,
        where_clause,
        plan: plan.as_ref(),
    };
    let input = std::mem::take(&mut ctx.table);
    let out = match Fanout::new(ctx, step.plan, input.len()) {
        Some(fan) => fan.run(&step, &input.rows)?,
        None => {
            let matcher = ctx.matcher();
            let mut out = Vec::new();
            for rec in &input.rows {
                step.extend(&matcher, ctx.guard, rec, &mut out)?;
            }
            out
        }
    };
    ctx.table = Table::from_rows(out);
    Ok(())
}

/// One `MATCH` clause as it runs: the patterns as written, the plan they
/// run through (`None`: naive), the `WHERE` filter and `OPTIONAL`.
struct MatchStep<'q> {
    optional: bool,
    patterns: &'q [PathPattern],
    where_clause: Option<&'q Expr>,
    plan: Option<&'q ClausePlan>,
}

impl MatchStep<'_> {
    /// The per-record step of §8.1, the one copy every executor runs:
    /// every match of `rec` in naive order → `WHERE` → one charged row per
    /// survivor → the `OPTIONAL MATCH` null row when none survive.
    fn extend(
        &self,
        m: &Matcher,
        guard: &ExecGuard,
        rec: &Record,
        out: &mut Vec<Record>,
    ) -> Result<()> {
        let matches = m.match_planned(rec, self.patterns, self.plan)?;
        let kept = self.admit(m, guard, matches)?;
        self.emit(guard, rec, kept, out)
    }

    /// `WHERE` and the row charge, over matches in the order given.
    fn admit<T: Borrow<Record>>(
        &self,
        m: &Matcher,
        guard: &ExecGuard,
        matches: Vec<T>,
    ) -> Result<Vec<T>> {
        let mut kept = Vec::with_capacity(matches.len());
        for x in matches {
            if let Some(w) = self.where_clause {
                if !eval_predicate(m.eval_ctx(), x.borrow(), w)?.is_true() {
                    continue;
                }
            }
            guard.charge_rows(1)?;
            kept.push(x);
        }
        Ok(kept)
    }

    /// Append the surviving matches of `rec`, or its null row.
    fn emit(
        &self,
        guard: &ExecGuard,
        rec: &Record,
        kept: Vec<Record>,
        out: &mut Vec<Record>,
    ) -> Result<()> {
        if self.optional && kept.is_empty() {
            guard.charge_rows(1)?;
            let mut null_rec = rec.clone();
            for var in pattern_variables(self.patterns) {
                if !null_rec.is_bound(&var) {
                    null_rec.bind(var, Value::Null);
                }
            }
            out.push(null_rec);
        }
        out.extend(kept);
        Ok(())
    }
}

/// Morsel-driven parallel `MATCH` (DESIGN.md §13.2) over a shared
/// snapshot. Two morsel axes:
///
/// * **Inter-row** — the driving table has at least `parallel_threshold`
///   rows: rows split into morsels, each worker runs [`MatchStep::extend`]
///   on its rows, and morsel outputs concatenate in row order.
/// * **Intra-row** — few driving rows but the planner estimates at least
///   `parallel_threshold` matches: per row, the first executed pattern's
///   ascending anchor-candidate set splits into chunks, workers match and
///   filter their chunk, and the merged chunks go through the same
///   naive-order sort serial execution uses.
///
/// Workers charge the statement's own [`ExecGuard`]. Success outputs are
/// byte-identical to serial execution; on failing statements, which of
/// several coexisting errors (e.g. an expression error in one morsel and
/// a row-budget trip in another) gets reported may differ, but
/// success/failure itself never does.
struct Fanout<'a> {
    graph: &'a PropertyGraph,
    engine: &'a Engine,
    guard: &'a ExecGuard,
    pool: &'static ReadPool,
    helpers: usize,
    morsel: usize,
    /// `Some`: the intra-row axis, chunking this plan's anchors.
    anchors: Option<&'a ClausePlan>,
}

impl<'a> Fanout<'a> {
    /// `None` runs the clause serially: the engine did not opt in
    /// (`read_workers < 2`), the graph is not a shared snapshot
    /// (`Engine::run_read`), or the clause is too small to repay fan-out.
    fn new(ctx: &'a ExecCtx, plan: Option<&'a ClausePlan>, rows: usize) -> Option<Fanout<'a>> {
        let engine = ctx.engine;
        let GraphMut::Shared(graph) = ctx.graph else {
            return None;
        };
        if engine.read_workers < 2 || rows == 0 {
            return None;
        }
        let threshold = engine.parallel_threshold;
        // Planner-estimated matches per driving row: the product of each
        // pattern's estimated contribution.
        let est = |p: &ClausePlan| p.meta.iter().map(|m| m.est_rows).product::<f64>();
        let anchors = match plan {
            Some(p) if rows < threshold.max(2) && est(p) >= threshold as f64 => Some(p),
            _ if rows >= threshold.max(2) => None,
            _ => return None,
        };
        let pool = ReadPool::global(engine.read_workers - 1);
        let helpers = (engine.read_workers - 1).min(pool.threads());
        (helpers > 0).then(|| Fanout {
            graph,
            engine,
            guard: ctx.guard,
            pool,
            helpers,
            morsel: engine.morsel_size.max(1),
            anchors,
        })
    }

    fn matcher(&self) -> Matcher<'a> {
        Matcher::new(self.graph, &self.engine.params, self.engine.match_mode)
    }

    /// Run `task` on every morsel of `items` and concatenate the outputs in
    /// morsel order. The first error in that order wins; morsels run to
    /// completion independently, so this matches the serial error
    /// whenever a single error source exists.
    fn scatter<I: Sync, T: Send>(
        &self,
        items: &[I],
        task: impl Fn(&[I]) -> Result<Vec<T>> + Sync,
    ) -> Result<Vec<T>> {
        let tasks = items.len().div_ceil(self.morsel);
        let outs = scatter(self.pool, self.helpers, tasks, |t| {
            let lo = t * self.morsel;
            task(&items[lo..items.len().min(lo + self.morsel)])
        });
        let mut out = Vec::new();
        for o in outs {
            out.extend(o?);
        }
        Ok(out)
    }

    fn run(&self, step: &MatchStep, rows: &[Record]) -> Result<Vec<Record>> {
        let Some(plan) = self.anchors else {
            return self.scatter(rows, |morsel| {
                let m = self.matcher();
                let mut out = Vec::new();
                for rec in morsel {
                    step.extend(&m, self.guard, rec, &mut out)?;
                }
                Ok(out)
            });
        };
        let coordinator = self.matcher();
        let mut out = Vec::new();
        for rec in rows {
            let anchors = coordinator.plan_anchors(rec, plan)?;
            if anchors.len() < 2 {
                // Too few anchors to share: the serial step for this row.
                step.extend(&coordinator, self.guard, rec, &mut out)?;
                continue;
            }
            let kept = self.scatter(&anchors, |chunk| {
                let m = self.matcher();
                let matches = m.match_keyed(rec, step.patterns, step.plan, Some(chunk))?;
                step.admit(&m, self.guard, matches)
            })?;
            step.emit(self.guard, rec, naive_order(kept), &mut out)?;
        }
        Ok(out)
    }
}

/// All variables introduced by a tuple of patterns (node, relationship and
/// path variables).
pub(crate) fn pattern_variables(patterns: &[PathPattern]) -> BTreeSet<String> {
    let mut vars = BTreeSet::new();
    let mut push = |v: &Option<String>| vars.extend(v.clone());
    for p in patterns {
        push(&p.var);
        push(&p.start.var);
        for (rel, node) in &p.steps {
            push(&rel.var);
            push(&node.var);
        }
    }
    vars
}

/// `UNWIND expr AS x`: a list fans out to one record per element, `null`
/// produces no records, and a non-list value produces a single record.
pub(crate) fn unwind(ctx: &mut ExecCtx, expr: &Expr, alias: &str) -> Result<()> {
    let input = std::mem::take(&mut ctx.table);
    let mut out = Vec::new();
    for rec in &input.rows {
        let v = ctx.eval(rec, expr)?;
        match v {
            Value::Null => {}
            Value::List(items) => {
                for item in items {
                    ctx.charge_rows(1)?;
                    let mut r = rec.clone();
                    r.bind(alias.to_owned(), item);
                    out.push(r);
                }
            }
            other => {
                ctx.charge_rows(1)?;
                let mut r = rec.clone();
                r.bind(alias.to_owned(), other);
                out.push(r);
            }
        }
    }
    ctx.table = Table::from_rows(out);
    Ok(())
}

/// `WITH` / `RETURN`: the shared [`Projector`] core, then `ORDER BY`,
/// `SKIP`, `LIMIT` and the `WITH … WHERE` filter.
pub(crate) fn projection(ctx: &mut ExecCtx, proj: &Projection, is_with: bool) -> Result<()> {
    let (star, items) = match &proj.items {
        ProjectionItems::Star { extra } => {
            let star: Vec<(String, Expr)> = ctx
                .table
                .columns()
                .into_iter()
                .map(|c| (c.clone(), Expr::Variable(c)))
                .collect();
            // Only a *populated* table with zero columns means the scope
            // is provably empty (the unit table at query start). A table
            // with zero rows merely lost its column set — `MATCH … WITH *`
            // over no matches must yield zero rows, not an error.
            if star.is_empty() && extra.is_empty() && !ctx.table.is_empty() {
                return Err(EvalError::Dialect(ParseError::no_span(
                    "RETURN * with no variables in scope",
                )));
            }
            (star, extra.as_slice())
        }
        ProjectionItems::Items(items) => (Vec::new(), items.as_slice()),
    };
    let projector = Projector::new(star, items, is_with, proj.distinct)?;
    let columns = projector.columns();
    let input = std::mem::take(&mut ctx.table);
    let Projected { mut rows, produced } = projector.project(&ctx.eval_ctx(), &input.rows)?;
    ctx.charge_rows(produced)?;

    // ORDER BY: aliases take precedence, source variables remain visible
    // (non-aggregated projections only).
    if !proj.order_by.is_empty() {
        let eval_ctx = ctx.eval_ctx();
        let mut keyed = Vec::with_capacity(rows.len());
        for (row, src) in rows {
            let mut env = src.cloned().unwrap_or_default();
            for (name, v) in columns.iter().zip(&row) {
                env.bind(name.clone(), v.clone());
            }
            let mut keys = Vec::with_capacity(proj.order_by.len());
            for si in &proj.order_by {
                keys.push(eval(&eval_ctx, &env, &si.expr)?);
            }
            keyed.push((keys, (row, src)));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            for ((va, vb), si) in a.iter().zip(b).zip(&proj.order_by) {
                let ord = va.cmp(vb);
                if ord.is_ne() {
                    return if si.descending { ord.reverse() } else { ord };
                }
            }
            Ordering::Equal
        });
        rows = keyed.into_iter().map(|(_, p)| p).collect();
    }

    if let Some(skip) = &proj.skip {
        let n = count_arg(ctx, skip, "SKIP")?;
        rows.drain(..n.min(rows.len()));
    }
    if let Some(limit) = &proj.limit {
        let n = count_arg(ctx, limit, "LIMIT")?;
        rows.truncate(n);
    }

    let mut out = Vec::with_capacity(rows.len());
    let eval_ctx = ctx.eval_ctx();
    for (row, _) in rows {
        let mut rec = Record::new();
        for (name, v) in columns.iter().zip(row) {
            rec.bind(name.clone(), v);
        }
        // WITH … WHERE filters on the projected scope.
        if let Some(w) = &proj.where_clause {
            if !eval_predicate(&eval_ctx, &rec, w)?.is_true() {
                continue;
            }
        }
        out.push(rec);
    }
    ctx.table = Table::from_rows(out);
    if !is_with {
        ctx.result_columns = Some(columns);
    }
    Ok(())
}

/// The one projection operator behind `RETURN`, `WITH` and the live views
/// of `cypher-ivm`: named items, implicit grouping by the non-aggregate
/// items, aggregate evaluation and `DISTINCT`. `ORDER BY`, `SKIP`, `LIMIT`
/// and `WITH … WHERE` stay with `projection`; a maintainable view has none
/// of them. The byte-identity contract of DESIGN.md §15 rests on this
/// sharing: a view re-projects its match memory through the very grouping
/// key order, empty-group `count(*) = 0` row, representative-record
/// evaluation and `DISTINCT` retention a fresh evaluation uses.
#[derive(Clone, Debug)]
pub struct Projector {
    items: Vec<(String, Expr)>,
    distinct: bool,
    has_agg: bool,
}

/// The rows of one [`Projector::project`] call, in output order.
pub struct Projected<'r> {
    /// Each row with the record it was projected from (`None` for an
    /// aggregate group), which `ORDER BY` may still read.
    pub rows: Vec<(Vec<Value>, Option<&'r Record>)>,
    /// Rows produced before `DISTINCT`: what the row budget charges.
    pub produced: usize,
}

impl Projector {
    /// Name the items after the `star` columns `*` expanded to (alias ▸
    /// variable name ▸ printed expression; `WITH` demands an alias on any
    /// other expression) and reject duplicate column names.
    pub fn new(
        star: Vec<(String, Expr)>,
        items: &[ProjectionItem],
        is_with: bool,
        distinct: bool,
    ) -> Result<Projector> {
        let mut named = star;
        for item in items {
            let name = match (&item.alias, &item.expr) {
                (Some(a), _) => a.clone(),
                (None, Expr::Variable(v)) => v.clone(),
                (None, other) if is_with => {
                    return Err(EvalError::Dialect(ParseError::no_span(format!(
                        "expression `{}` in WITH must be aliased",
                        print_expr(other)
                    ))))
                }
                (None, other) => print_expr(other),
            };
            named.push((name, item.expr.clone()));
        }
        let names: BTreeSet<&str> = named.iter().map(|(n, _)| n.as_str()).collect();
        if names.len() != named.len() {
            return Err(EvalError::Dialect(ParseError::no_span(
                "duplicate column names in projection",
            )));
        }
        let has_agg = named.iter().any(|(_, e)| e.contains_aggregate());
        Ok(Projector {
            items: named,
            distinct,
            has_agg,
        })
    }

    pub fn columns(&self) -> Vec<String> {
        self.items.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Whether any item aggregates (the projection groups).
    pub fn has_agg(&self) -> bool {
        self.has_agg
    }

    pub fn distinct(&self) -> bool {
        self.distinct
    }

    /// One row of a non-aggregating projection over `rec`.
    pub fn row(&self, ctx: &EvalCtx, rec: &Record) -> Result<Vec<Value>> {
        self.items.iter().map(|(_, e)| eval(ctx, rec, e)).collect()
    }

    /// Project `input`. Aggregating projections emit one row per group, in
    /// ascending key order; others emit one row per input record, in input
    /// order. `DISTINCT` then keeps the first row of each equivalence class.
    pub fn project<'r>(
        &self,
        ctx: &EvalCtx,
        input: impl IntoIterator<Item = &'r Record>,
    ) -> Result<Projected<'r>> {
        let mut rows = Vec::new();
        if self.has_agg {
            let keys: Vec<&Expr> = self
                .items
                .iter()
                .map(|(_, e)| e)
                .filter(|e| !e.contains_aggregate())
                .collect();
            let mut groups: BTreeMap<Vec<Value>, Vec<&Record>> = BTreeMap::new();
            for rec in input {
                let key = keys
                    .iter()
                    .map(|e| eval(ctx, rec, e))
                    .collect::<Result<_>>()?;
                groups.entry(key).or_default().push(rec);
            }
            // An aggregation over an empty table with no grouping keys
            // still produces one row (count(*) = 0).
            if groups.is_empty() && keys.is_empty() {
                groups.insert(vec![], vec![]);
            }
            let empty = Record::new();
            for group in groups.values() {
                let rep = group.first().copied().unwrap_or(&empty);
                let row = self.items.iter();
                let row = row.map(|(_, e)| eval_in_group(ctx, group, rep, e));
                rows.push((row.collect::<Result<_>>()?, None));
            }
        } else {
            for rec in input {
                rows.push((self.row(ctx, rec)?, Some(rec)));
            }
        }
        let produced = rows.len();
        if self.distinct {
            retain_first(&mut rows, |(row, _)| row);
        }
        Ok(Projected { rows, produced })
    }
}

/// Keep the first row of each class of equivalent keys, in input order:
/// the one duplicate elimination behind `DISTINCT` and `UNION`.
pub(crate) fn retain_first<T>(rows: &mut Vec<T>, key: impl Fn(&T) -> &[Value]) {
    let keep: Vec<bool> = {
        let mut seen = BTreeSet::new();
        rows.iter().map(|r| seen.insert(key(r))).collect()
    };
    let mut keep = keep.into_iter();
    rows.retain(|_| keep.next() == Some(true));
}

fn count_arg(ctx: &ExecCtx, expr: &Expr, context: &'static str) -> Result<usize> {
    let v = eval(&ctx.eval_ctx(), &Record::new(), expr)?;
    match v {
        Value::Int(i) if i >= 0 => Ok(i as usize),
        other => Err(EvalError::BadCount {
            context,
            value: other,
        }),
    }
}

/// Evaluate an expression that may contain aggregates over a group of
/// records. Non-aggregate subtrees are evaluated on the group's
/// representative record (they are grouping keys, constant within the
/// group).
fn eval_in_group(ctx: &EvalCtx, rows: &[&Record], rep: &Record, expr: &Expr) -> Result<Value> {
    if !expr.contains_aggregate() {
        return eval(ctx, rep, expr);
    }
    match expr {
        Expr::CountStar => {
            let mut agg = Aggregator::new(AggKind::CountStar, false);
            for _ in rows {
                agg.push(Value::Bool(true));
            }
            agg.finish()
        }
        Expr::FnCall {
            name,
            distinct,
            args,
        } if cypher_parser::ast::is_aggregate_fn(name) => {
            let Some(kind) = AggKind::from_name(name) else {
                unreachable!("is_aggregate_fn and AggKind::from_name agree on `{name}`");
            };
            if args.len() != 1 {
                return Err(EvalError::BadArguments {
                    function: name.clone(),
                    message: "aggregates take exactly one argument".into(),
                });
            }
            if args[0].contains_aggregate() {
                return Err(EvalError::MisplacedAggregate);
            }
            let mut agg = Aggregator::new(kind, *distinct);
            for rec in rows {
                agg.push(eval(ctx, rec, &args[0])?);
            }
            agg.finish()
        }
        Expr::Binary(op, l, r) => {
            let lv = eval_in_group(ctx, rows, rep, l)?;
            let rv = eval_in_group(ctx, rows, rep, r)?;
            apply_binary(*op, lv, rv)
        }
        Expr::Unary(op, inner) => {
            let v = eval_in_group(ctx, rows, rep, inner)?;
            apply_unary(*op, v)
        }
        Expr::Property(base, key) => {
            let v = eval_in_group(ctx, rows, rep, base)?;
            property_access(ctx.graph, &v, key)
        }
        Expr::List(items) => {
            let mut out = Vec::new();
            for i in items {
                out.push(eval_in_group(ctx, rows, rep, i)?);
            }
            Ok(Value::List(out))
        }
        Expr::Map(entries) => {
            let mut out = BTreeMap::new();
            for (k, v) in entries {
                out.insert(k.clone(), eval_in_group(ctx, rows, rep, v)?);
            }
            Ok(Value::Map(out))
        }
        Expr::FnCall {
            name,
            distinct,
            args,
        } => {
            if *distinct {
                return Err(EvalError::BadArguments {
                    function: name.clone(),
                    message: "DISTINCT only applies to aggregates".into(),
                });
            }
            let mut vals = Vec::new();
            for a in args {
                vals.push(eval_in_group(ctx, rows, rep, a)?);
            }
            crate::eval::functions::call(ctx.graph, name, vals)
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_in_group(ctx, rows, rep, expr)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Case { .. } | Expr::Index(..) | Expr::Slice { .. } | Expr::HasLabels(..) => {
            Err(EvalError::MisplacedAggregate)
        }
        // Leaves never contain aggregates; unreachable via the guard above.
        _ => eval(ctx, rep, expr),
    }
}
