//! `MERGE` in all six semantics discussed by the paper, and the blueprint
//! path that `CREATE` and every `MERGE` create through.
//!
//! * [`MergePolicy::Legacy`] — Cypher 9 `MERGE` (§3, §4.3): for each record,
//!   match against the **current** graph (reading its own writes), else
//!   create. Order-dependent; Example 3 / Figure 6.
//! * [`MergePolicy::Atomic`] — §6 "Atomic MERGE" = §7/§8 `MERGE ALL`:
//!   `(G', T') = (G_create, T_match ⊎ T_create)` with all matching done
//!   against the input graph.
//! * [`MergePolicy::Grouping`] — §6: group failing records "by the
//!   expressions appearing in the pattern", create one instance per group.
//! * [`MergePolicy::WeakCollapse`] — grouping + collapse of created nodes
//!   with equal labels/properties **at the same pattern position**, and of
//!   created relationships with equal type/properties/endpoints at the same
//!   position.
//! * [`MergePolicy::Collapse`] — drops the position requirement for nodes
//!   (Example 6 / Figure 8).
//! * [`MergePolicy::StrongCollapse`] — drops it for relationships too;
//!   exactly Definitions 1–2 of §8, the semantics of `MERGE SAME`
//!   (Example 7 / Figure 9).
//!
//! Every write pattern is walked into a *blueprint* per record
//! ([`build_blueprint`]): what the record creates, in written order. The
//! granularity decides when it is materialized. At item granularity
//! (Cypher 9 `CREATE`, the create branch of the legacy `MERGE`) each node
//! and relationship is created as soon as the walk reaches it. At table
//! granularity (revised `CREATE`, the non-legacy variants) every failing
//! record's blueprint is built against the input graph first, the
//! collapsibility equivalence is computed on pending entities (old entities
//! only ever collapse with themselves, Def. 1(iii)/Def. 2(v), which
//! pending-only classes realize exactly), and one representative per class
//! is materialized. This mirrors §6's "perform all the writing in a
//! temporary change graph, which then gets minimized … and afterwards
//! inserted"; revised `CREATE` is the case where no record matches and no
//! entity collapses (§8.2: `G_create` is `CREATE` on `T_fail`).

use std::collections::{BTreeMap, BTreeSet};
use std::mem;

use cypher_graph::{NodeId, PathValue, RelId, Symbol, Value};
use cypher_parser::ast::{Expr, NodePattern, PathPattern, RelDirection, SetItem};
use cypher_parser::ParseError;

use crate::error::{EvalError, Result};
use crate::eval::type_err;
use crate::exec::write::{self, Granularity};
use crate::exec::ExecCtx;
use crate::plan::ClausePlan;
use crate::table::{Record, Table};

/// Which of the paper's `MERGE` semantics to execute.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergePolicy {
    Legacy,
    Atomic,
    Grouping,
    WeakCollapse,
    Collapse,
    StrongCollapse,
}

impl MergePolicy {
    /// All five §6 proposals (everything except the legacy behaviour).
    pub const PROPOSALS: [MergePolicy; 5] = [
        MergePolicy::Atomic,
        MergePolicy::Grouping,
        MergePolicy::WeakCollapse,
        MergePolicy::Collapse,
        MergePolicy::StrongCollapse,
    ];

    /// Does this policy group failing records before creating?
    fn groups(self) -> bool {
        !matches!(self, MergePolicy::Legacy | MergePolicy::Atomic)
    }

    /// Is node-position part of node collapsibility? (`None` = no node
    /// collapsing at all.)
    fn node_positional(self) -> Option<bool> {
        match self {
            MergePolicy::Legacy | MergePolicy::Atomic | MergePolicy::Grouping => None,
            MergePolicy::WeakCollapse => Some(true),
            MergePolicy::Collapse | MergePolicy::StrongCollapse => Some(false),
        }
    }

    /// Is relationship-position part of relationship collapsibility?
    fn rel_positional(self) -> Option<bool> {
        match self {
            MergePolicy::Legacy | MergePolicy::Atomic | MergePolicy::Grouping => None,
            MergePolicy::WeakCollapse | MergePolicy::Collapse => Some(true),
            MergePolicy::StrongCollapse => Some(false),
        }
    }
}

impl std::fmt::Display for MergePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MergePolicy::Legacy => "Legacy",
            MergePolicy::Atomic => "Atomic",
            MergePolicy::Grouping => "Grouping",
            MergePolicy::WeakCollapse => "Weak Collapse",
            MergePolicy::Collapse => "Collapse",
            MergePolicy::StrongCollapse => "Strong Collapse",
        })
    }
}

/// Entry point used by the engine.
pub(crate) fn merge(
    ctx: &mut ExecCtx,
    policy: MergePolicy,
    patterns: &[PathPattern],
    on_create: &[SetItem],
    on_match: &[SetItem],
) -> Result<()> {
    match policy {
        MergePolicy::Legacy => merge_legacy(ctx, patterns, on_create, on_match),
        _ => {
            if !on_create.is_empty() || !on_match.is_empty() {
                return Err(EvalError::Dialect(ParseError::no_span(
                    "ON CREATE / ON MATCH actions only apply to the legacy MERGE",
                )));
            }
            merge_atomic_family(ctx, policy, patterns)
        }
    }
}

// ---------------------------------------------------------------------
// Legacy MERGE
// ---------------------------------------------------------------------

/// §4.3: per-record match-or-create against the current graph — later
/// records can match what earlier records created, making the result
/// dependent on [`crate::exec::ProcessingOrder`]. `ON MATCH SET` actions
/// run per matched row, `ON CREATE SET` per created row, as Cypher 9 `SET`
/// batches (one per item, applied at once). A failing record creates its
/// blueprint at item granularity, exactly as Cypher 9 `CREATE` does.
fn merge_legacy(
    ctx: &mut ExecCtx,
    patterns: &[PathPattern],
    on_create: &[SetItem],
    on_match: &[SetItem],
) -> Result<()> {
    // One plan for the whole clause: legacy MERGE mutates the graph
    // between rows, which drifts the estimates but never the plan's
    // validity (candidate sets are access-path-invariant).
    let plan = ctx.plan_patterns(patterns);
    let order = ctx.order_indices();
    let input = mem::take(&mut ctx.table);
    let mut out = Vec::new();
    for i in order {
        let rec = &input.rows[i];
        match match_one(ctx, rec, patterns, plan.as_ref())? {
            Some(matches) => {
                for row in &matches {
                    write::set_now(ctx, row, on_match)?;
                }
                out.extend(matches);
            }
            None => {
                // Undirected relationships are created left-to-right
                // (outgoing) — the extra nondeterminism §7 removed.
                let mut created = rec.clone();
                build_blueprint(ctx, &mut created, patterns, Granularity::Item)?;
                write::set_now(ctx, &created, on_create)?;
                out.push(created);
            }
        }
        ctx.guard_writes()?;
    }
    ctx.table = Table::from_rows(out);
    Ok(())
}

/// Match one record's patterns, charging the rows it yields: its matches,
/// or the one created row of a failing record (`None`).
fn match_one(
    ctx: &ExecCtx,
    rec: &Record,
    patterns: &[PathPattern],
    plan: Option<&ClausePlan>,
) -> Result<Option<Vec<Record>>> {
    let matches = ctx.matcher().match_planned(rec, patterns, plan)?;
    ctx.charge_rows(matches.len().max(1))?;
    Ok((!matches.is_empty()).then_some(matches))
}

// ---------------------------------------------------------------------
// Atomic family: MERGE ALL / Grouping / the collapse variants
// ---------------------------------------------------------------------

/// Phase 1: match every record against the *input* graph; the failing
/// ones go to [`create_failing`].
fn merge_atomic_family(
    ctx: &mut ExecCtx,
    policy: MergePolicy,
    patterns: &[PathPattern],
) -> Result<()> {
    let plan = ctx.plan_patterns(patterns);
    // matched[i] = Some(matched rows) or None (failing record).
    let matched = ctx
        .table
        .rows
        .iter()
        .map(|rec| match_one(ctx, rec, patterns, plan.as_ref()))
        .collect::<Result<Vec<_>>>()?;
    create_failing(ctx, policy, patterns, matched)
}

/// Table granularity: `(G_create, T_match ⊎ T_create)` of §8.2. Every
/// failing record's blueprint is built against the input graph and the
/// input record before anything is created; then come the collapse
/// classes, one materialized entity per class, and the output table in
/// record order. Revised `CREATE` is this with every record failing and
/// [`MergePolicy::Atomic`] (every entity its own class).
pub(super) fn create_failing(
    ctx: &mut ExecCtx,
    policy: MergePolicy,
    patterns: &[PathPattern],
    matched: Vec<Option<Vec<Record>>>,
) -> Result<()> {
    let mut input = mem::take(&mut ctx.table);

    // ---- Phase 2: build blueprints for failing records. ----
    // Group index per failing record; groups hold the blueprint and the
    // records bound to it.
    let mut groups: Vec<Blueprint> = Vec::new();
    let mut group_index: BTreeMap<Value, usize> = BTreeMap::new();
    // record index → group index (only for failing records).
    let mut record_group: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, rec) in input.rows.iter_mut().enumerate() {
        if matched[i].is_some() {
            continue;
        }
        let bp = build_blueprint(ctx, rec, patterns, Granularity::Table)?;
        let gi = if policy.groups() {
            *group_index.entry(bp.grouping_key()).or_insert_with(|| {
                groups.push(bp);
                groups.len() - 1
            })
        } else {
            groups.push(bp);
            groups.len() - 1
        };
        record_group.insert(i, gi);
    }

    // ---- Phase 3: collapse classes over pending entities. ----
    // Node classes: map (group, slot) of *new* nodes → class id; bound
    // slots resolve to existing node ids directly.
    let mut node_class_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut node_classes: Vec<(usize, usize)> = Vec::new(); // representative (group, slot)
    let mut node_class_index: BTreeMap<Value, usize> = BTreeMap::new();
    for (gi, bp) in groups.iter().enumerate() {
        for (si, node) in bp.nodes.iter().enumerate() {
            let BpNode::New {
                labels,
                props,
                position,
            } = node
            else {
                continue;
            };
            let class_key = policy.node_positional().map(|positional| {
                let mut parts = vec![encode_labels(labels), encode_props(props)];
                if positional {
                    parts.push(Value::Int(*position as i64));
                }
                Value::List(parts)
            });
            let mut new_class = || {
                node_classes.push((gi, si));
                node_classes.len() - 1
            };
            let class = match class_key {
                // No collapsing: every pending node is its own class.
                None => new_class(),
                Some(key) => *node_class_index.entry(key).or_insert_with(new_class),
            };
            node_class_of.insert((gi, si), class);
        }
    }

    // A relationship end in a class key: an existing node, or the class of
    // a new one.
    let end_key = |gi: usize, slot: usize| match &groups[gi].nodes[slot] {
        BpNode::Bound(id) => Value::list([Value::str("E"), Value::Int(id.raw() as i64)]),
        BpNode::New { .. } => Value::list([
            Value::str("C"),
            Value::Int(node_class_of[&(gi, slot)] as i64),
        ]),
    };

    // Relationship classes.
    let mut rel_class_of: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut rel_classes: Vec<(usize, usize)> = Vec::new();
    let mut rel_class_index: BTreeMap<Value, usize> = BTreeMap::new();
    for (gi, bp) in groups.iter().enumerate() {
        for (ri, rel) in bp.rels.iter().enumerate() {
            let class = match policy.rel_positional() {
                None => {
                    rel_classes.push((gi, ri));
                    rel_classes.len() - 1
                }
                Some(positional) => {
                    let mut parts = vec![
                        Value::str(rel.rel_type.as_str()),
                        encode_props(&rel.props),
                        end_key(gi, rel.src),
                        end_key(gi, rel.tgt),
                    ];
                    if positional {
                        parts.push(Value::Int(rel.position as i64));
                    }
                    *rel_class_index
                        .entry(Value::List(parts))
                        .or_insert_with(|| {
                            rel_classes.push((gi, ri));
                            rel_classes.len() - 1
                        })
                }
            };
            rel_class_of.insert((gi, ri), class);
        }
    }

    // ---- Phase 4: materialize one entity per class. ----
    let mut node_ids: Vec<NodeId> = Vec::with_capacity(node_classes.len());
    for &(gi, si) in &node_classes {
        let BpNode::New { labels, props, .. } = &groups[gi].nodes[si] else {
            unreachable!("classes contain only new nodes");
        };
        node_ids.push(create_node(ctx, labels, props)?);
    }
    let resolve_node = |gi: usize, slot: usize| -> NodeId {
        match &groups[gi].nodes[slot] {
            BpNode::Bound(id) => *id,
            BpNode::New { .. } => node_ids[node_class_of[&(gi, slot)]],
        }
    };
    let mut rel_ids: Vec<RelId> = Vec::with_capacity(rel_classes.len());
    for &(gi, ri) in &rel_classes {
        let rel = &groups[gi].rels[ri];
        let (src, tgt) = (resolve_node(gi, rel.src), resolve_node(gi, rel.tgt));
        rel_ids.push(create_rel(ctx, src, rel, tgt)?);
    }

    // ---- Phase 5: produce the output table, original record order. ----
    let mut out = Vec::new();
    for (i, (mut rec, rows)) in input.rows.into_iter().zip(matched).enumerate() {
        match rows {
            Some(rows) => out.extend(rows),
            None => {
                let gi = record_group[&i];
                groups[gi].bind(&mut rec, &|slot| resolve_node(gi, slot), &|ri| {
                    rel_ids[rel_class_of[&(gi, ri)]]
                });
                out.push(rec);
            }
        }
    }
    ctx.table = Table::from_rows(out);
    Ok(())
}

// ---------------------------------------------------------------------
// Blueprints: what a write pattern creates for one record
// ---------------------------------------------------------------------

/// A node slot in a blueprint.
#[derive(Clone, Debug, PartialEq)]
enum BpNode {
    /// An existing node: bound in the record, or already materialized.
    Bound(NodeId),
    /// To be created.
    New {
        /// In written order, first occurrence kept.
        labels: Vec<String>,
        /// Evaluated properties in written order, nulls kept.
        props: Vec<(String, Value)>,
        /// Pattern position (running element index at first occurrence).
        position: usize,
    },
}

/// A relationship to be created, between two node slots.
#[derive(Clone, Debug, PartialEq)]
struct BpRel {
    src: usize,
    tgt: usize,
    rel_type: String,
    props: Vec<(String, Value)>,
    position: usize,
    var: Option<String>,
}

/// One path of the blueprint, for path-variable binding.
#[derive(Clone, Debug)]
struct BpPath {
    var: String,
    start: usize,
    /// (relationship index, node slot) steps.
    steps: Vec<(usize, usize)>,
}

impl BpPath {
    fn value(&self, node: &dyn Fn(usize) -> NodeId, rel: &dyn Fn(usize) -> RelId) -> Value {
        let mut nodes = vec![node(self.start)];
        let mut rels = Vec::with_capacity(self.steps.len());
        for &(ri, slot) in &self.steps {
            rels.push(rel(ri));
            nodes.push(node(slot));
        }
        Value::Path(PathValue { nodes, rels })
    }
}

/// What one record's write patterns create: the one description `CREATE`
/// and every `MERGE` build, in written order. Only the grouping and
/// collapse keys sort and drop nulls.
#[derive(Clone, Debug, Default)]
pub(super) struct Blueprint {
    nodes: Vec<BpNode>,
    rels: Vec<BpRel>,
    /// Pattern-local node variables → slot.
    node_vars: BTreeMap<String, usize>,
    paths: Vec<BpPath>,
}

impl Blueprint {
    /// Canonical grouping key: "the expressions appearing in the pattern"
    /// (§6, Grouping MERGE) — bound identities, label sets and property
    /// maps, in pattern order. Encoded as a [`Value`] so the total global
    /// order provides cheap map keys.
    fn grouping_key(&self) -> Value {
        let nodes = self.nodes.iter().map(|n| match n {
            BpNode::Bound(id) => Value::list([Value::str("B"), Value::Int(id.raw() as i64)]),
            BpNode::New { labels, props, .. } => {
                Value::list([Value::str("N"), encode_labels(labels), encode_props(props)])
            }
        });
        let rels = self.rels.iter().map(|r| {
            Value::list([
                Value::Int(r.src as i64),
                Value::Int(r.tgt as i64),
                Value::str(r.rel_type.as_str()),
                encode_props(&r.props),
            ])
        });
        Value::List(nodes.chain(rels).collect())
    }

    /// The slot of one node pattern: a node bound in `rec` (one slot per
    /// node), a re-occurring pattern-local variable, or a new node —
    /// created at once at item granularity (`now`).
    fn node(
        &mut self,
        ctx: &mut ExecCtx,
        rec: &mut Record,
        np: &NodePattern,
        position: &mut usize,
        now: bool,
    ) -> Result<usize> {
        let my_position = *position;
        *position += 1;
        if let Some(var) = &np.var {
            let slot = match rec.get(var) {
                Some(Value::Node(n)) => Some(self.bound_slot(*n)),
                Some(Value::Null) => return Err(EvalError::NullWriteTarget(var.clone())),
                Some(_) => return Err(EvalError::VariableClash(var.clone())),
                None => self.node_vars.get(var).copied(),
            };
            if let Some(slot) = slot {
                if !np.labels.is_empty() || !np.props.is_empty() {
                    return Err(EvalError::BoundPatternDecorated(var.clone()));
                }
                return Ok(slot);
            }
        }
        let mut labels: Vec<String> = Vec::with_capacity(np.labels.len());
        for l in &np.labels {
            if !labels.contains(l) {
                labels.push(l.clone());
            }
        }
        let props = storable_props(ctx, rec, &np.props)?;
        let slot = self.nodes.len();
        self.nodes.push(if now {
            let id = create_node(ctx, &labels, &props)?;
            if let Some(var) = &np.var {
                rec.bind(var.clone(), Value::Node(id));
            }
            BpNode::Bound(id)
        } else {
            BpNode::New {
                labels,
                props,
                position: my_position,
            }
        });
        if let Some(var) = &np.var {
            self.node_vars.insert(var.clone(), slot);
        }
        Ok(slot)
    }

    fn bound_slot(&mut self, id: NodeId) -> usize {
        let bound = BpNode::Bound(id);
        self.nodes
            .iter()
            .position(|n| *n == bound)
            .unwrap_or_else(|| {
                self.nodes.push(bound);
                self.nodes.len() - 1
            })
    }

    /// The node of a slot that is bound or already materialized.
    fn bound(&self, slot: usize) -> NodeId {
        match self.nodes[slot] {
            BpNode::Bound(id) => id,
            BpNode::New { .. } => unreachable!("item granularity creates each node it reaches"),
        }
    }

    /// Bind the blueprint's variables in `rec`, given the node each slot
    /// and the relationship each rel index materialized as.
    fn bind(&self, rec: &mut Record, node: &dyn Fn(usize) -> NodeId, rel: &dyn Fn(usize) -> RelId) {
        for (var, &slot) in &self.node_vars {
            rec.bind(var.clone(), Value::Node(node(slot)));
        }
        for (ri, r) in self.rels.iter().enumerate() {
            if let Some(var) = &r.var {
                rec.bind(var.clone(), Value::Rel(rel(ri)));
            }
        }
        for path in &self.paths {
            rec.bind(path.var.clone(), path.value(node, rel));
        }
    }
}

/// A label list as a set: sorted, duplicates dropped.
fn encode_labels(labels: &[String]) -> Value {
    let set: BTreeSet<&str> = labels.iter().map(String::as_str).collect();
    Value::List(set.into_iter().map(Value::str).collect())
}

/// A property list as a map: sorted by key, nulls dropped.
fn encode_props(props: &[(String, Value)]) -> Value {
    let map: BTreeMap<&str, &Value> = props
        .iter()
        .filter(|(_, v)| !v.is_null())
        .map(|(k, v)| (k.as_str(), v))
        .collect();
    Value::List(
        map.into_iter()
            .map(|(k, v)| Value::list([Value::str(k), v.clone()]))
            .collect(),
    )
}

/// Walk one record's write patterns into a blueprint, in written order:
/// the start node, then per step the far node and the relationship, then
/// the path. Properties are evaluated in `rec` against the current graph.
/// At [`Granularity::Item`] each new node and relationship is created as
/// soon as the walk reaches it and bound into `rec`, so later elements
/// read it; at [`Granularity::Table`] nothing is created and `rec` stays
/// the input record.
pub(super) fn build_blueprint(
    ctx: &mut ExecCtx,
    rec: &mut Record,
    patterns: &[PathPattern],
    granularity: Granularity,
) -> Result<Blueprint> {
    let now = matches!(granularity, Granularity::Item);
    let mut bp = Blueprint::default();
    let mut position = 0usize;
    // The relationships created so far (item granularity).
    let mut rel_ids = Vec::new();
    for pattern in patterns {
        let start = bp.node(ctx, rec, &pattern.start, &mut position, now)?;
        let mut steps = Vec::new();
        let mut cur = start;
        for (rel_pat, node_pat) in &pattern.steps {
            let rel_position = position;
            position += 1;
            let next = bp.node(ctx, rec, node_pat, &mut position, now)?;
            if let Some(rvar) = &rel_pat.var {
                if rec.is_bound(rvar) || bp.rels.iter().any(|r| r.var.as_ref() == Some(rvar)) {
                    return Err(EvalError::VariableClash(rvar.clone()));
                }
            }
            let (src, tgt) = match rel_pat.direction {
                RelDirection::Outgoing | RelDirection::Undirected => (cur, next),
                RelDirection::Incoming => (next, cur),
            };
            let rel = BpRel {
                src,
                tgt,
                rel_type: rel_pat.types[0].clone(),
                props: storable_props(ctx, rec, &rel_pat.props)?,
                position: rel_position,
                var: rel_pat.var.clone(),
            };
            if now {
                let id = create_rel(ctx, bp.bound(src), &rel, bp.bound(tgt))?;
                if let Some(rvar) = &rel.var {
                    rec.bind(rvar.clone(), Value::Rel(id));
                }
                rel_ids.push(id);
            }
            steps.push((bp.rels.len(), next));
            bp.rels.push(rel);
            cur = next;
        }
        if let Some(pvar) = &pattern.var {
            let path = BpPath {
                var: pvar.clone(),
                start,
                steps,
            };
            if now {
                rec.bind(
                    pvar.clone(),
                    path.value(&|s| bp.bound(s), &|ri| rel_ids[ri]),
                );
            }
            bp.paths.push(path);
        }
    }
    Ok(bp)
}

/// Evaluate a write pattern's properties in written order. Each value
/// must be storable or null; nulls stay until materialization drops them
/// (a created entity simply lacks the key — the Example 5 `null` rows).
fn storable_props(
    ctx: &ExecCtx,
    rec: &Record,
    props: &[(String, Expr)],
) -> Result<Vec<(String, Value)>> {
    props
        .iter()
        .map(|(k, e)| {
            let v = ctx.eval(rec, e)?;
            if !v.is_null() && !v.storable_as_property() {
                return Err(type_err("storable property value", &v, "write pattern"));
            }
            Ok((k.clone(), v))
        })
        .collect()
}

// The materializer: the only code that creates what a write pattern
// describes. Symbols are interned in written order (labels or type, then
// keys, null-valued ones included); the store drops the nulls; the write
// budget is checked after each entity.

fn create_node(ctx: &mut ExecCtx, labels: &[String], props: &[(String, Value)]) -> Result<NodeId> {
    let labels: Vec<Symbol> = labels.iter().map(|l| ctx.graph.sym(l)).collect();
    ctx.stats.labels_added += labels.len();
    let props = intern_props(ctx, props);
    let id = ctx.graph.create_node(labels, props);
    ctx.stats.nodes_created += 1;
    ctx.guard_writes()?;
    Ok(id)
}

fn create_rel(ctx: &mut ExecCtx, src: NodeId, rel: &BpRel, tgt: NodeId) -> Result<RelId> {
    let ty = ctx.graph.sym(&rel.rel_type);
    let props = intern_props(ctx, &rel.props);
    let id = ctx.graph.create_rel(src, ty, tgt, props)?;
    ctx.stats.rels_created += 1;
    ctx.guard_writes()?;
    Ok(id)
}

/// Intern the keys; the non-null values count as `props_set`.
fn intern_props(ctx: &mut ExecCtx, props: &[(String, Value)]) -> Vec<(Symbol, Value)> {
    ctx.stats.props_set += props.iter().filter(|(_, v)| !v.is_null()).count();
    props
        .iter()
        .map(|(k, v)| (ctx.graph.sym(k), v.clone()))
        .collect()
}
