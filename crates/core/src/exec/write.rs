//! Update clauses other than `MERGE`: `CREATE`, `SET`, `REMOVE`,
//! `DELETE`/`DETACH DELETE` and `FOREACH`.
//!
//! Every update clause runs at one of two granularities derived from the
//! dialect — the only thing that separates the two (§4 vs §7):
//!
//! * **Cypher 9** works one record and one item at a time, against the
//!   *current* graph. `SET`, `REMOVE` and `DELETE` collect one batch per
//!   (record, item), in [`ProcessingOrder`](crate::exec::ProcessingOrder),
//!   check nothing and apply it at once. `CREATE` walks the records in
//!   table order and creates each node and relationship as soon as it
//!   reaches it. Later elements, items and records read earlier writes,
//!   which reproduces the anomalies of §4.1–§4.2; writes to deleted
//!   entities (zombies) are no-ops.
//! * **Revised** collects one batch over the whole driving table against
//!   the *input* graph and the input records. `SET` rejects conflicting
//!   assignments and `DELETE` dangling deletions before the batch is
//!   applied; afterwards every reference to a deleted entity in the
//!   driving table is replaced with `null`. `CREATE` builds every record's
//!   blueprint before it creates anything: it is `MERGE ALL` on a table
//!   where no record matches (§8.2).

use std::collections::{BTreeMap, BTreeSet};
use std::mem;

use cypher_graph::{DeleteNodeMode, Direction, EntityRef, NodeId, PropertyMap, RelId, Value};
use cypher_parser::ast::{Clause, Dialect, Expr, PathPattern, RemoveItem, SetItem};

use crate::error::{EvalError, Result};
use crate::eval::type_err;
use crate::exec::merge::{self, MergePolicy};
use crate::exec::ExecCtx;
use crate::table::{Record, Table};

/// The batches an update clause collects, checks and applies its changes
/// in: the one parameter that separates the two dialects.
pub(super) enum Granularity {
    /// Cypher 9 (§4): one batch per (record, item), in processing order,
    /// collected against the current graph and applied unchecked; each
    /// created entity is materialized as soon as it is reached.
    Item,
    /// Revised (§7): one batch for the whole driving table, collected
    /// against the input graph and checked before it is applied.
    Table,
}

impl From<Dialect> for Granularity {
    fn from(dialect: Dialect) -> Self {
        match dialect {
            Dialect::Cypher9 => Granularity::Item,
            Dialect::Revised => Granularity::Table,
        }
    }
}

/// `CREATE` (§8.2): instantiate the patterns for every record, binding the
/// new variables (the "saturation" temporaries simply never get bound).
pub(crate) fn create(ctx: &mut ExecCtx, patterns: &[PathPattern]) -> Result<()> {
    match Granularity::from(ctx.engine.dialect) {
        Granularity::Item => {
            let mut table = mem::take(&mut ctx.table);
            for rec in &mut table.rows {
                merge::build_blueprint(ctx, rec, patterns, Granularity::Item)?;
            }
            ctx.table = table;
            Ok(())
        }
        Granularity::Table => {
            let failing = vec![None; ctx.table.len()];
            merge::create_failing(ctx, MergePolicy::Atomic, patterns, failing)
        }
    }
}

// ---------------------------------------------------------------------
// SET, REMOVE, DELETE: collect(batch) → check → apply
// ---------------------------------------------------------------------

/// One change of an update batch, named by strings until it is applied.
enum Change {
    /// Set one property; `null` removes it.
    Prop(EntityRef, String, Value),
    /// `SET x = map` (`true`: replace) or `SET x += map` as one write, the
    /// way Cypher 9 applies it: keys in interning order, `props_set`
    /// counted per map key. The revised batch splits it into
    /// [`Change::Prop`]s.
    Map(EntityRef, BTreeMap<String, Value>, bool),
    /// Add (`true`) or remove a label.
    Label(NodeId, String, bool),
    DeleteRel(RelId),
    /// Cypher 9 deletes with `Force` (or `Detach`); the revised check turns
    /// these into its strict check (or the attached relationships) and
    /// deletes with `Strict`.
    DeleteNode(NodeId, DeleteNodeMode),
}

/// What one item yields for one record, evaluated against the current
/// graph.
type Collect<I> = dyn Fn(&ExecCtx, &Record, &I) -> Result<Vec<Change>>;

/// `SET` (§4.1, §7). Per item, Cypher 9 loses Example 1's swap and depends
/// on the processing order in Example 2; the revised batch swaps, or
/// rejects the conflicting assignment.
pub(crate) fn set(ctx: &mut ExecCtx, items: &[SetItem]) -> Result<()> {
    update(ctx, items, &set_changes)
}

/// `REMOVE` (§8.2): removals never conflict.
pub(crate) fn remove(ctx: &mut ExecCtx, items: &[RemoveItem]) -> Result<()> {
    update(ctx, items, &remove_changes)
}

/// `DELETE` / `DETACH DELETE` (§4.2, §7). Cypher 9 deletes at once, leaving
/// a node's relationships dangling until they are deleted too (only the
/// end-of-statement integrity check catches a statement that ends that
/// way), and later writes to the deleted entities are no-ops. The revised
/// batch fails if a node would keep an uncollected relationship (`DETACH`
/// collects them instead), and nulls every reference to what it deleted.
pub(crate) fn delete(ctx: &mut ExecCtx, detach: bool, exprs: &[Expr]) -> Result<()> {
    let mode = if detach {
        DeleteNodeMode::Detach
    } else {
        DeleteNodeMode::Force
    };
    update(ctx, exprs, &move |ctx, rec, expr| {
        let (rels, nodes) = match ctx.eval(rec, expr)? {
            Value::Null => return Ok(vec![]),
            Value::Node(n) => (vec![], vec![n]),
            Value::Rel(r) => (vec![r], vec![]),
            Value::Path(p) => (p.rels, p.nodes),
            other => return Err(type_err("node, relationship or path", &other, "DELETE")),
        };
        let nodes = nodes.into_iter().map(|n| Change::DeleteNode(n, mode));
        Ok(rels
            .into_iter()
            .map(Change::DeleteRel)
            .chain(nodes)
            .collect())
    })
}

/// The `ON CREATE SET` / `ON MATCH SET` actions of a Cypher 9 `MERGE`: one
/// record's `SET` items at item granularity.
pub(crate) fn set_now(ctx: &mut ExecCtx, rec: &Record, items: &[SetItem]) -> Result<()> {
    apply_items(ctx, rec, items, &set_changes)
}

/// Run an update clause at the dialect's granularity. The write budget is
/// checked after each record (Cypher 9) or each applied change (revised).
fn update<I>(ctx: &mut ExecCtx, items: &[I], collect: &Collect<I>) -> Result<()> {
    match Granularity::from(ctx.engine.dialect) {
        Granularity::Item => {
            let order = ctx.order_indices();
            let table = mem::take(&mut ctx.table);
            for i in order {
                apply_items(ctx, &table.rows[i], items, collect)?;
                ctx.guard_writes()?;
            }
            ctx.table = table;
            Ok(())
        }
        Granularity::Table => {
            let mut batch = Checked::default();
            for rec in &ctx.table.rows {
                for item in items {
                    for change in collect(ctx, rec, item)? {
                        batch.add(ctx, change)?;
                    }
                }
            }
            batch.apply(ctx)
        }
    }
}

/// Item granularity: each item of the record is a batch of its own,
/// collected and applied before the next item is evaluated.
fn apply_items<I>(
    ctx: &mut ExecCtx,
    rec: &Record,
    items: &[I],
    collect: &Collect<I>,
) -> Result<()> {
    for item in items {
        for change in collect(ctx, rec, item)? {
            apply_change(ctx, change)?;
        }
    }
    Ok(())
}

fn set_changes(ctx: &ExecCtx, rec: &Record, item: &SetItem) -> Result<Vec<Change>> {
    match item {
        SetItem::Property { target, key, value } => {
            let Some(entity) = set_target(&ctx.eval(rec, target)?)? else {
                return Ok(vec![]);
            };
            let v = ctx.eval(rec, value)?;
            if !v.is_null() && !v.storable_as_property() {
                return Err(type_err("storable property value", &v, "SET"));
            }
            Ok(vec![Change::Prop(entity, key.clone(), v)])
        }
        SetItem::Replace { target, value } | SetItem::MergeProps { target, value } => {
            let Some(entity) = set_target(&lookup_var(rec, target)?)? else {
                return Ok(vec![]);
            };
            let map = value_as_string_map(ctx, rec, value)?;
            let replace = matches!(item, SetItem::Replace { .. });
            Ok(vec![Change::Map(entity, map, replace)])
        }
        SetItem::Labels { target, labels } => label_changes(rec, target, labels, true),
    }
}

fn remove_changes(ctx: &ExecCtx, rec: &Record, item: &RemoveItem) -> Result<Vec<Change>> {
    match item {
        RemoveItem::Property { target, key } => Ok(set_target(&ctx.eval(rec, target)?)?
            .map(|entity| vec![Change::Prop(entity, key.clone(), Value::Null)])
            .unwrap_or_default()),
        RemoveItem::Labels { target, labels } => label_changes(rec, target, labels, false),
    }
}

/// What may `SET x.k = …` target? An entity, or `null` (no-op).
fn set_target(v: &Value) -> Result<Option<EntityRef>> {
    match v {
        Value::Null => Ok(None),
        Value::Node(n) => Ok(Some(EntityRef::Node(*n))),
        Value::Rel(r) => Ok(Some(EntityRef::Rel(*r))),
        other => Err(type_err("node or relationship", other, "SET target")),
    }
}

/// A label item's changes: one per label of the target node, none for
/// `null`.
fn label_changes(rec: &Record, var: &str, labels: &[String], add: bool) -> Result<Vec<Change>> {
    match lookup_var(rec, var)? {
        Value::Null => Ok(vec![]),
        Value::Node(n) => Ok(labels
            .iter()
            .map(|l| Change::Label(n, l.clone(), add))
            .collect()),
        other => Err(match add {
            true => type_err("node", &other, "SET labels"),
            false => type_err("node", &other, "REMOVE labels"),
        }),
    }
}

fn lookup_var(rec: &Record, var: &str) -> Result<Value> {
    rec.get(var)
        .cloned()
        .ok_or_else(|| EvalError::UnknownVariable(var.to_owned()))
}

/// `SET n = expr` / `SET n += expr` right-hand sides: a map, a node or a
/// relationship (whose properties are copied).
fn value_as_string_map(
    ctx: &ExecCtx,
    rec: &Record,
    value: &Expr,
) -> Result<BTreeMap<String, Value>> {
    let entity = match ctx.eval(rec, value)? {
        Value::Map(map) => {
            return match map
                .values()
                .find(|v| !v.is_null() && !v.storable_as_property())
            {
                Some(v) => Err(type_err("storable property value", v, "SET =/+=")),
                None => Ok(map),
            }
        }
        Value::Node(n) => EntityRef::Node(n),
        Value::Rel(r) => EntityRef::Rel(r),
        other => return Err(type_err("map, node or relationship", &other, "SET =/+=")),
    };
    let props = ctx.graph.props(entity).into_iter();
    Ok(props
        .map(|(k, v)| (ctx.graph.sym_str(k).to_owned(), v))
        .collect())
}

/// Table granularity: the §7 change sets of the whole driving table —
/// `propchanges` with one value per (entity, key), `labchanges`, and the
/// entities to delete.
#[derive(Default)]
struct Checked {
    props: BTreeMap<(EntityRef, String), Value>,
    /// `(node, label, add)`: a clause only adds or only removes labels.
    labels: BTreeSet<(NodeId, String, bool)>,
    rels: BTreeSet<RelId>,
    nodes: BTreeMap<NodeId, DeleteNodeMode>,
}

impl Checked {
    /// Add one change, rejecting a second, different value for a key
    /// ("ambiguous update aborts").
    fn add(&mut self, ctx: &ExecCtx, change: Change) -> Result<()> {
        match change {
            Change::Prop(entity, key, value) => match self.props.get(&(entity, key.clone())) {
                Some(prev) if !prev.equivalent(&value) => {
                    return Err(EvalError::ConflictingSet {
                        entity,
                        key,
                        first: Box::new(prev.clone()),
                        second: Box::new(value),
                    })
                }
                _ => {
                    self.props.insert((entity, key), value);
                }
            },
            Change::Map(entity, map, replace) => {
                // Keys on the input graph but absent from the new map are
                // removed (recorded as null assignments).
                if replace {
                    for (k, _) in ctx.graph.props(entity) {
                        let key = ctx.graph.sym_str(k);
                        if !map.contains_key(key) {
                            self.add(ctx, Change::Prop(entity, key.to_owned(), Value::Null))?;
                        }
                    }
                }
                for (key, v) in map {
                    self.add(ctx, Change::Prop(entity, key, v))?;
                }
            }
            Change::Label(n, l, add) => {
                self.labels.insert((n, l, add));
            }
            Change::DeleteRel(r) => {
                self.rels.insert(r);
            }
            Change::DeleteNode(n, mode) => {
                self.nodes.insert(n, mode);
            }
        }
        Ok(())
    }

    /// Check the deletions, apply the batch (properties, labels,
    /// relationships, then nodes), and replace every reference to a deleted
    /// entity in the driving table with `null` (§7).
    fn apply(self, ctx: &mut ExecCtx) -> Result<()> {
        let Checked {
            props,
            labels,
            mut rels,
            nodes,
        } = self;
        for (&n, &mode) in &nodes {
            let attached = ctx.graph.rels_iter(n, Direction::Either);
            if mode == DeleteNodeMode::Detach {
                rels.extend(attached);
            } else {
                let attached = attached.filter(|r| !rels.contains(r)).count();
                if attached > 0 {
                    return Err(EvalError::DeleteWouldDangle { node: n, attached });
                }
            }
        }
        let props = props.into_iter().map(|((e, k), v)| Change::Prop(e, k, v));
        let labels = labels
            .into_iter()
            .map(|(n, l, add)| Change::Label(n, l, add));
        let del_rels = rels.iter().map(|&r| Change::DeleteRel(r));
        let del_nodes = nodes
            .keys()
            .map(|&n| Change::DeleteNode(n, DeleteNodeMode::Strict));
        for change in props.chain(labels).chain(del_rels).chain(del_nodes) {
            apply_change(ctx, change)?;
            ctx.guard_writes()?;
        }
        if !nodes.is_empty() || !rels.is_empty() {
            null_deleted(&mut ctx.table, &|e| match e {
                EntityRef::Node(n) => nodes.contains_key(&n),
                EntityRef::Rel(r) => rels.contains(&r),
            });
        }
        Ok(())
    }
}

/// Apply one change to the current graph. A change to an entity that is
/// gone (a Cypher 9 zombie) is a silent no-op, matching the §4.2
/// observation that the query "goes through without an error".
fn apply_change(ctx: &mut ExecCtx, change: Change) -> Result<()> {
    match change {
        Change::Prop(entity, key, value) => {
            if live(ctx, entity) {
                let k = ctx.graph.sym(&key);
                ctx.graph.set_prop(entity, k, value)?;
                ctx.stats.props_set += 1;
            }
        }
        Change::Map(entity, map, replace) => {
            // Every key is interned, even for a zombie.
            let len = map.len();
            let map: PropertyMap = map
                .into_iter()
                .map(|(k, v)| (ctx.graph.sym(&k), v))
                .collect();
            if live(ctx, entity) {
                if replace {
                    ctx.stats.props_set += len.max(1);
                    ctx.graph.replace_props(entity, map)?;
                } else {
                    ctx.stats.props_set += len;
                    ctx.graph.merge_props(entity, map)?;
                }
            }
        }
        Change::Label(node, label, true) => {
            if ctx.graph.contains_node(node) {
                let l = ctx.graph.sym(&label);
                if ctx.graph.add_label(node, l)? {
                    ctx.stats.labels_added += 1;
                }
            }
        }
        Change::Label(node, label, false) => {
            if let Some(l) = ctx.graph.try_sym(&label) {
                if ctx.graph.contains_node(node) && ctx.graph.remove_label(node, l)? {
                    ctx.stats.labels_removed += 1;
                }
            }
        }
        Change::DeleteRel(r) => {
            if ctx.graph.contains_rel(r) {
                ctx.graph.delete_rel(r)?;
                ctx.stats.rels_deleted += 1;
            }
        }
        Change::DeleteNode(n, mode) => {
            if ctx.graph.contains_node(n) {
                let cascaded = ctx.graph.delete_node(n, mode)?;
                ctx.stats.nodes_deleted += 1;
                ctx.stats.rels_deleted += cascaded.len();
            }
        }
    }
    Ok(())
}

/// Is the entity still live (not a legacy zombie)?
fn live(ctx: &ExecCtx, entity: EntityRef) -> bool {
    match entity {
        EntityRef::Node(n) => ctx.graph.contains_node(n),
        EntityRef::Rel(r) => ctx.graph.contains_rel(r),
    }
}

/// Replace every reference to a deleted entity in the driving table with
/// `null` (§7); records that hold none are left as they are.
fn null_deleted(table: &mut Table, gone: &dyn Fn(EntityRef) -> bool) {
    for rec in &mut table.rows {
        rec.map_values(&mut |v| substitute_deleted(v, gone));
    }
}

/// Null substitution for deleted references, through lists and maps.
fn substitute_deleted(v: &Value, gone: &dyn Fn(EntityRef) -> bool) -> Option<Value> {
    match v {
        Value::Node(n) if gone(EntityRef::Node(*n)) => Some(Value::Null),
        Value::Rel(r) if gone(EntityRef::Rel(*r)) => Some(Value::Null),
        Value::Path(p)
            if p.nodes.iter().any(|&n| gone(n.into()))
                || p.rels.iter().any(|&r| gone(r.into())) =>
        {
            Some(Value::Null)
        }
        Value::List(items) => substitute_each(items.iter(), gone).map(Value::List),
        Value::Map(m) => substitute_each(m.values(), gone)
            .map(|vals| Value::Map(m.keys().cloned().zip(vals).collect())),
        _ => None,
    }
}

/// Substitute inside a collection; `None` when nothing changed.
fn substitute_each<'v>(
    items: impl Iterator<Item = &'v Value>,
    gone: &dyn Fn(EntityRef) -> bool,
) -> Option<Vec<Value>> {
    let mut changed = false;
    let new = items
        .map(|i| {
            substitute_deleted(i, gone)
                .inspect(|_| changed = true)
                .unwrap_or_else(|| i.clone())
        })
        .collect();
    changed.then_some(new)
}

// ---------------------------------------------------------------------
// FOREACH
// ---------------------------------------------------------------------

/// `FOREACH (x IN list | updates…)`: run the update clauses once per list
/// element per record, with the element bound. The driving table keeps its
/// records; in the revised dialect, references to what the body deleted
/// become `null` (§7).
pub(crate) fn foreach(ctx: &mut ExecCtx, var: &str, list: &Expr, body: &[Clause]) -> Result<()> {
    let order = ctx.order_indices();
    let mut table = mem::take(&mut ctx.table);
    let deleted = ctx.stats.nodes_deleted + ctx.stats.rels_deleted;
    for i in order {
        let items = match ctx.eval(&table.rows[i], list)? {
            Value::Null => continue,
            Value::List(items) => items,
            other => return Err(type_err("list", &other, "FOREACH")),
        };
        for item in items {
            // Each iteration materializes one inner driving record; the
            // budget bounds runaway `FOREACH (x IN range(...) | ...)`.
            ctx.charge_rows(1)?;
            let mut inner = table.rows[i].clone();
            inner.bind(var.to_owned(), item);
            ctx.table = Table::from_rows(vec![inner]);
            body.iter().try_for_each(|c| ctx.apply(c))?;
        }
    }
    // Between revised clauses every entity of a driving table is live, so
    // whatever is gone now was deleted by the body.
    let revised = matches!(Granularity::from(ctx.engine.dialect), Granularity::Table);
    if revised && ctx.stats.nodes_deleted + ctx.stats.rels_deleted > deleted {
        null_deleted(&mut table, &|e| !live(ctx, e));
    }
    ctx.table = table;
    Ok(())
}
