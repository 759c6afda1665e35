//! Reading clauses: `MATCH`, `OPTIONAL MATCH`, `UNWIND`, and the
//! `WITH`/`RETURN` projection machinery (grouping, aggregation, `DISTINCT`,
//! `ORDER BY`, `SKIP`, `LIMIT`).
//!
//! Reading clauses never modify the graph — in §8.1 terms,
//! `[[C]](G, T) = (G, [[C]]^ro_G(T))`.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use cypher_graph::{PropertyGraph, Value};
use cypher_parser::ast::{Expr, PathPattern, Projection, ProjectionItem, ProjectionItems};
use cypher_parser::pretty::print_expr;
use cypher_parser::ParseError;

use crate::error::{EvalError, Result};
use crate::eval::agg::{AggKind, Aggregator};
use crate::eval::{apply_binary, apply_unary, eval, eval_predicate, property_access, EvalCtx};
use crate::exec::guard::SharedGuard;
use crate::exec::{Engine, ExecCtx, GraphMut};
use crate::par::{scatter, ReadPool};
use crate::pattern::Matcher;
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
    if match_clause_parallel(ctx, optional, patterns, where_clause, plan.as_ref())? {
        return Ok(());
    }
    let input = std::mem::take(&mut ctx.table);
    let mut out = Vec::new();
    for rec in &input.rows {
        let matches = ctx.match_with_plan(rec, patterns, plan.as_ref())?;
        let mut any = false;
        for m in matches {
            let keep = match where_clause {
                Some(w) => eval_predicate(&ctx.eval_ctx(), &m, w)?.is_true(),
                None => true,
            };
            if keep {
                ctx.charge_rows(1)?;
                any = true;
                out.push(m);
            }
        }
        if optional && !any {
            ctx.charge_rows(1)?;
            out.push(null_extended(rec, patterns));
        }
    }
    ctx.table = Table::from_rows(out);
    Ok(())
}

/// The `OPTIONAL MATCH` no-match fallback: `rec` with every pattern
/// variable that is not already bound set to `null`.
fn null_extended(rec: &Record, patterns: &[PathPattern]) -> Record {
    let mut null_rec = rec.clone();
    for var in pattern_variables(patterns) {
        if !null_rec.is_bound(&var) {
            null_rec.bind(var, Value::Null);
        }
    }
    null_rec
}

/// Morsel-driven parallel `MATCH` (see DESIGN.md §13). Returns `Ok(true)`
/// when the clause was executed in parallel (`ctx.table` replaced),
/// `Ok(false)` to fall back to the serial loop above.
///
/// Eligibility: the engine opted in (`read_workers >= 2`), the graph
/// handle is a shared immutable snapshot (`Engine::run_read`), and the
/// clause carries enough work to repay fan-out. Two morsel axes:
///
/// * **Inter-row** — the driving table has at least `parallel_threshold`
///   rows: rows split into morsels, each worker runs the ordinary per-row
///   match + `WHERE`, and morsel outputs concatenate in row order (the
///   per-row pipeline is already deterministic, so this is byte-identical
///   to serial).
/// * **Intra-row** — few driving rows but the planner estimates at least
///   `parallel_threshold` matches: the first executed pattern's ascending
///   anchor-candidate set splits into chunks, workers enumerate matches
///   per chunk ([`Matcher::match_planned_anchored`]), and the merged
///   results are stably sorted by naive-order key — exactly the sort
///   serial planned execution performs, so output is again identical.
///
/// `ExecLimits` row budgets are enforced cooperatively across workers
/// through one [`SharedGuard`]. Success outputs are byte-identical to
/// serial execution; on failing statements, which of several coexisting
/// errors (e.g. an expression error in one morsel and a row-budget trip in
/// another) gets reported may differ, but success/failure itself never
/// does.
fn match_clause_parallel(
    ctx: &mut ExecCtx,
    optional: bool,
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
    plan: Option<&ClausePlan>,
) -> Result<bool> {
    let engine = ctx.engine;
    if engine.read_workers < 2 {
        return Ok(false);
    }
    let graph: &PropertyGraph = match ctx.graph {
        GraphMut::Shared(g) => g,
        GraphMut::Excl(_) => return Ok(false),
    };
    let rows = ctx.table.len();
    if rows == 0 {
        return Ok(false);
    }
    let threshold = engine.parallel_threshold;
    let inter_row = rows >= threshold.max(2);
    // Planner-estimated matches per driving row: the product of each
    // pattern's estimated contribution.
    let est_matches = plan
        .map(|p| p.meta.iter().map(|m| m.est_rows).product::<f64>())
        .unwrap_or(0.0);
    let intra_row = plan.is_some() && est_matches >= threshold as f64;
    if !inter_row && !intra_row {
        return Ok(false);
    }
    let pool = ReadPool::global(engine.read_workers - 1);
    let helpers = (engine.read_workers - 1).min(pool.threads());
    if helpers == 0 {
        return Ok(false);
    }
    let morsel = engine.morsel_size.max(1);
    let shared = ctx.guard.fork_shared();
    let input = std::mem::take(&mut ctx.table);

    let result = if inter_row {
        match_rows_scattered(
            graph,
            engine,
            &shared,
            pool,
            helpers,
            morsel,
            &input.rows,
            optional,
            patterns,
            where_clause,
            plan,
        )
    } else {
        let Some(plan) = plan else {
            unreachable!("intra-row eligibility requires a plan");
        };
        match_anchors_scattered(
            graph,
            engine,
            &shared,
            pool,
            helpers,
            morsel,
            &input.rows,
            optional,
            patterns,
            where_clause,
            plan,
        )
    };
    ctx.guard.join_shared(&shared);
    ctx.table = Table::from_rows(result?);
    Ok(true)
}

/// Inter-row parallelism: morsels are runs of driving-table rows.
#[allow(clippy::too_many_arguments)]
fn match_rows_scattered(
    graph: &PropertyGraph,
    engine: &Engine,
    shared: &SharedGuard,
    pool: &ReadPool,
    helpers: usize,
    morsel: usize,
    rows: &[Record],
    optional: bool,
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
    plan: Option<&ClausePlan>,
) -> Result<Vec<Record>> {
    let tasks = rows.len().div_ceil(morsel);
    let morsels: Vec<Result<Vec<Record>>> = scatter(pool, helpers, tasks, |t| {
        let lo = t * morsel;
        let hi = rows.len().min(lo + morsel);
        let matcher = Matcher::new(graph, &engine.params, engine.match_mode);
        let ectx = EvalCtx::new(graph, &engine.params).with_match_mode(engine.match_mode);
        let mut out = Vec::new();
        for rec in &rows[lo..hi] {
            let matches = match plan {
                Some(p) => matcher.match_patterns_planned(rec, p),
                None => matcher.match_patterns(rec, patterns),
            }?;
            let mut any = false;
            for m in matches {
                let keep = match where_clause {
                    Some(w) => eval_predicate(&ectx, &m, w)?.is_true(),
                    None => true,
                };
                if keep {
                    shared.charge_rows(1)?;
                    any = true;
                    out.push(m);
                }
            }
            if optional && !any {
                shared.charge_rows(1)?;
                out.push(null_extended(rec, patterns));
            }
        }
        Ok(out)
    });
    // First error in morsel (= row) order; morsels run to completion
    // independently, so this matches the serial error position whenever a
    // single error source exists.
    let mut out = Vec::new();
    for m in morsels {
        out.extend(m?);
    }
    Ok(out)
}

/// Intra-row parallelism: morsels are chunks of the first executed
/// pattern's anchor-candidate set, per driving row.
#[allow(clippy::too_many_arguments)]
fn match_anchors_scattered(
    graph: &PropertyGraph,
    engine: &Engine,
    shared: &SharedGuard,
    pool: &ReadPool,
    helpers: usize,
    morsel: usize,
    rows: &[Record],
    optional: bool,
    patterns: &[PathPattern],
    where_clause: Option<&Expr>,
    plan: &ClausePlan,
) -> Result<Vec<Record>> {
    let coordinator = Matcher::new(graph, &engine.params, engine.match_mode);
    let coord_ectx = EvalCtx::new(graph, &engine.params).with_match_mode(engine.match_mode);
    let mut out = Vec::new();
    for rec in rows {
        let anchors = coordinator.plan_anchors(rec, plan)?;
        let mut any = false;
        if anchors.len() >= 2 {
            let tasks = anchors.len().div_ceil(morsel);
            let chunks = scatter(pool, helpers, tasks, |t| {
                let lo = t * morsel;
                let hi = anchors.len().min(lo + morsel);
                let matcher = Matcher::new(graph, &engine.params, engine.match_mode);
                let ectx = EvalCtx::new(graph, &engine.params).with_match_mode(engine.match_mode);
                let mut kept = Vec::new();
                for km in matcher.match_planned_anchored(rec, plan, &anchors[lo..hi])? {
                    let keep = match where_clause {
                        Some(w) => eval_predicate(&ectx, &km.rec, w)?.is_true(),
                        None => true,
                    };
                    if keep {
                        shared.charge_rows(1)?;
                        kept.push(km);
                    }
                }
                Ok::<_, EvalError>(kept)
            });
            let mut merged = Vec::new();
            for c in chunks {
                merged.extend(c?);
            }
            // Chunk concatenation already ascends for identity plans (all
            // keys empty and equal); for transformed plans this stable
            // sort is exactly the naive-order restoration serial planned
            // execution performs.
            merged.sort_by(|a, b| a.key.cmp(&b.key));
            any = !merged.is_empty();
            out.extend(merged.into_iter().map(|km| km.rec));
        } else {
            // Too few anchors to share: ordinary serial matching for this
            // one row (still charging the shared budget).
            for m in coordinator.match_patterns_planned(rec, plan)? {
                let keep = match where_clause {
                    Some(w) => eval_predicate(&coord_ectx, &m, w)?.is_true(),
                    None => true,
                };
                if keep {
                    shared.charge_rows(1)?;
                    any = true;
                    out.push(m);
                }
            }
        }
        if optional && !any {
            shared.charge_rows(1)?;
            out.push(null_extended(rec, patterns));
        }
    }
    Ok(out)
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
