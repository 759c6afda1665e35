//! `MERGE` in all six semantics discussed by the paper.
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
//! The non-legacy variants never create directly into the graph: failing
//! records are compiled into *blueprints* (a pending change-graph), the
//! collapsibility equivalence is computed on pending entities (old entities
//! only ever collapse with themselves, Def. 1(iii)/Def. 2(v), which pending-
//! only classes realize exactly), and one representative per class is
//! materialized. This mirrors §6's "perform all the writing in a temporary
//! change graph, which then gets minimized … and afterwards inserted".

use std::collections::BTreeMap;
use std::mem;

use cypher_graph::{NodeId, PathValue, Value};
use cypher_parser::ast::{NodePattern, PathPattern, RelDirection, SetItem};
use cypher_parser::ParseError;

use crate::error::{EvalError, Result};
use crate::exec::{write, ExecCtx};
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
/// batches (one per item, applied at once). Creation stays path by path in
/// written order ([`write::create_one_path`]), not through blueprints:
/// those sort labels and properties and create every node before any
/// relationship, which would change the interning order and the captured
/// delta.
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
                let mut created = rec.clone();
                for pattern in patterns {
                    // Undirected relationships are created left-to-right
                    // (outgoing) — the extra nondeterminism §7 removed.
                    write::create_one_path(ctx, &mut created, pattern)?;
                }
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

/// A node slot in a blueprint.
#[derive(Clone, Debug, PartialEq)]
enum BpNode {
    /// Bound to an existing node of the input graph.
    Bound(NodeId),
    /// To be created.
    New {
        labels: Vec<String>,
        /// Evaluated properties with nulls dropped, sorted by key.
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

/// Instantiation plan for one failing record (or group of records).
#[derive(Clone, Debug, Default)]
struct Blueprint {
    nodes: Vec<BpNode>,
    rels: Vec<BpRel>,
    /// Named node variables → slot.
    node_vars: BTreeMap<String, usize>,
    paths: Vec<BpPath>,
}

impl Blueprint {
    /// Canonical grouping key: "the expressions appearing in the pattern"
    /// (§6, Grouping MERGE) — bound identities, labels and evaluated
    /// property values, in pattern order. Encoded as a [`Value`] so the
    /// total global order provides cheap map keys.
    fn grouping_key(&self) -> Value {
        let mut parts = Vec::new();
        for n in &self.nodes {
            parts.push(match n {
                BpNode::Bound(id) => Value::list([Value::str("B"), Value::Int(id.raw() as i64)]),
                BpNode::New { labels, props, .. } => Value::list([
                    Value::str("N"),
                    Value::List(labels.iter().map(Value::str).collect()),
                    encode_props(props),
                ]),
            });
        }
        for r in &self.rels {
            parts.push(Value::list([
                Value::Int(r.src as i64),
                Value::Int(r.tgt as i64),
                Value::str(r.rel_type.as_str()),
                encode_props(&r.props),
            ]));
        }
        Value::List(parts)
    }
}

fn encode_props(props: &[(String, Value)]) -> Value {
    Value::List(
        props
            .iter()
            .map(|(k, v)| Value::list([Value::str(k.as_str()), v.clone()]))
            .collect(),
    )
}

fn merge_atomic_family(
    ctx: &mut ExecCtx,
    policy: MergePolicy,
    patterns: &[PathPattern],
) -> Result<()> {
    let plan = ctx.plan_patterns(patterns);
    let input = mem::take(&mut ctx.table);

    // ---- Phase 1: match everything against the *input* graph. ----
    // matched[i] = Some(matched rows) or None (failing record).
    let matched = input
        .rows
        .iter()
        .map(|rec| match_one(ctx, rec, patterns, plan.as_ref()))
        .collect::<Result<Vec<_>>>()?;

    // ---- Phase 2: build blueprints for failing records. ----
    // Group index per failing record; groups hold the blueprint and the
    // records bound to it.
    let mut groups: Vec<Blueprint> = Vec::new();
    let mut group_index: BTreeMap<Value, usize> = BTreeMap::new();
    // record index → group index (only for failing records).
    let mut record_group: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, rec) in input.rows.iter().enumerate() {
        if matched[i].is_some() {
            continue;
        }
        let bp = build_blueprint(ctx, rec, patterns)?;
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
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    enum EndRef {
        Existing(NodeId),
        Class(usize),
    }

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
                let mut parts = vec![
                    Value::List(labels.iter().map(Value::str).collect()),
                    encode_props(props),
                ];
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

    let end_ref = |gi: usize, slot: usize| -> EndRef {
        match &groups[gi].nodes[slot] {
            BpNode::Bound(id) => EndRef::Existing(*id),
            BpNode::New { .. } => EndRef::Class(node_class_of[&(gi, slot)]),
        }
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
                    let src = end_ref(gi, rel.src);
                    let tgt = end_ref(gi, rel.tgt);
                    let enc_end = |e: EndRef| match e {
                        EndRef::Existing(id) => {
                            Value::list([Value::str("E"), Value::Int(id.raw() as i64)])
                        }
                        EndRef::Class(c) => Value::list([Value::str("C"), Value::Int(c as i64)]),
                    };
                    let mut parts = vec![
                        Value::str(rel.rel_type.as_str()),
                        encode_props(&rel.props),
                        enc_end(src),
                        enc_end(tgt),
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
        let labels: Vec<cypher_graph::Symbol> = labels.iter().map(|l| ctx.graph.sym(l)).collect();
        let n_labels = labels.len();
        let props: Vec<(cypher_graph::Symbol, Value)> = props
            .iter()
            .map(|(k, v)| (ctx.graph.sym(k), v.clone()))
            .collect();
        let n_props = props.len();
        let id = ctx.graph.create_node(labels, props);
        ctx.stats.nodes_created += 1;
        ctx.stats.labels_added += n_labels;
        ctx.stats.props_set += n_props;
        ctx.guard_writes()?;
        node_ids.push(id);
    }
    let resolve_node = |gi: usize, slot: usize| -> NodeId {
        match &groups[gi].nodes[slot] {
            BpNode::Bound(id) => *id,
            BpNode::New { .. } => node_ids[node_class_of[&(gi, slot)]],
        }
    };
    let mut rel_ids: Vec<cypher_graph::RelId> = Vec::with_capacity(rel_classes.len());
    for &(gi, ri) in &rel_classes {
        let rel = &groups[gi].rels[ri];
        let src = resolve_node(gi, rel.src);
        let tgt = resolve_node(gi, rel.tgt);
        let ty = ctx.graph.sym(&rel.rel_type);
        let props: Vec<(cypher_graph::Symbol, Value)> = rel
            .props
            .iter()
            .map(|(k, v)| (ctx.graph.sym(k), v.clone()))
            .collect();
        let n_props = props.len();
        let id = ctx.graph.create_rel(src, ty, tgt, props)?;
        ctx.stats.rels_created += 1;
        ctx.stats.props_set += n_props;
        ctx.guard_writes()?;
        rel_ids.push(id);
    }

    // ---- Phase 5: produce the output table, original record order. ----
    let mut out = Vec::new();
    for (i, rec) in input.rows.into_iter().enumerate() {
        match &matched[i] {
            Some(rows) => out.extend(rows.iter().cloned()),
            None => {
                let gi = record_group[&i];
                let bp = &groups[gi];
                let mut r = rec;
                for (var, &slot) in &bp.node_vars {
                    r.bind(var.clone(), Value::Node(resolve_node(gi, slot)));
                }
                for (ri, rel) in bp.rels.iter().enumerate() {
                    if let Some(var) = &rel.var {
                        r.bind(var.clone(), Value::Rel(rel_ids[rel_class_of[&(gi, ri)]]));
                    }
                }
                for path in &bp.paths {
                    let mut nodes = vec![resolve_node(gi, path.start)];
                    let mut rels = Vec::new();
                    for &(ri, slot) in &path.steps {
                        rels.push(rel_ids[rel_class_of[&(gi, ri)]]);
                        nodes.push(resolve_node(gi, slot));
                    }
                    r.bind(path.var.clone(), Value::Path(PathValue { nodes, rels }));
                }
                out.push(r);
            }
        }
    }
    ctx.table = Table::from_rows(out);
    Ok(())
}

/// Compile the creation side of a failing record into a blueprint:
/// evaluate all pattern expressions against the input graph, resolve bound
/// variables, and assign pattern positions.
fn build_blueprint(ctx: &ExecCtx, rec: &Record, patterns: &[PathPattern]) -> Result<Blueprint> {
    let mut bp = Blueprint::default();
    let mut position = 0usize;
    let mut bound_slots: BTreeMap<NodeId, usize> = BTreeMap::new();

    for pattern in patterns {
        let start = resolve_bp_node(
            ctx,
            rec,
            &pattern.start,
            &mut bp,
            &mut bound_slots,
            &mut position,
        )?;
        let mut steps = Vec::new();
        let mut cur = start;
        for (rel_pat, node_pat) in &pattern.steps {
            let rel_position = position;
            position += 1;
            let next =
                resolve_bp_node(ctx, rec, node_pat, &mut bp, &mut bound_slots, &mut position)?;
            if let Some(rvar) = &rel_pat.var {
                if rec.is_bound(rvar) {
                    return Err(EvalError::VariableClash(rvar.clone()));
                }
            }
            let (src, tgt) = match rel_pat.direction {
                RelDirection::Outgoing | RelDirection::Undirected => (cur, next),
                RelDirection::Incoming => (next, cur),
            };
            let props = evaluated_props(ctx, rec, &rel_pat.props)?;
            let ri = bp.rels.len();
            bp.rels.push(BpRel {
                src,
                tgt,
                rel_type: rel_pat.types[0].clone(),
                props,
                position: rel_position,
                var: rel_pat.var.clone(),
            });
            steps.push((ri, next));
            cur = next;
        }
        if let Some(pvar) = &pattern.var {
            bp.paths.push(BpPath {
                var: pvar.clone(),
                start,
                steps,
            });
        }
    }
    Ok(bp)
}

fn resolve_bp_node(
    ctx: &ExecCtx,
    rec: &Record,
    np: &NodePattern,
    bp: &mut Blueprint,
    bound_slots: &mut BTreeMap<NodeId, usize>,
    position: &mut usize,
) -> Result<usize> {
    let my_position = *position;
    *position += 1;

    if let Some(var) = &np.var {
        // Bound in the driving table?
        if let Some(v) = rec.get(var) {
            return match v {
                Value::Node(n) => {
                    if !np.labels.is_empty() || !np.props.is_empty() {
                        return Err(EvalError::BoundPatternDecorated(var.clone()));
                    }
                    Ok(*bound_slots.entry(*n).or_insert_with(|| {
                        bp.nodes.push(BpNode::Bound(*n));
                        bp.nodes.len() - 1
                    }))
                }
                Value::Null => Err(EvalError::NullWriteTarget(var.clone())),
                _ => Err(EvalError::VariableClash(var.clone())),
            };
        }
        // Re-occurrence of a pattern-local variable?
        if let Some(&slot) = bp.node_vars.get(var) {
            if !np.labels.is_empty() || !np.props.is_empty() {
                return Err(EvalError::BoundPatternDecorated(var.clone()));
            }
            return Ok(slot);
        }
    }

    let mut labels: Vec<String> = np.labels.clone();
    labels.sort();
    labels.dedup();
    let props = evaluated_props(ctx, rec, &np.props)?;
    bp.nodes.push(BpNode::New {
        labels,
        props,
        position: my_position,
    });
    let slot = bp.nodes.len() - 1;
    if let Some(var) = &np.var {
        bp.node_vars.insert(var.clone(), slot);
    }
    Ok(slot)
}

/// Evaluate pattern properties against the input graph, dropping nulls
/// (a created entity simply lacks the key — the Example 5 `null` rows) and
/// rejecting non-storable values. Sorted by key for canonical comparison.
fn evaluated_props(
    ctx: &ExecCtx,
    rec: &Record,
    props: &[(String, cypher_parser::ast::Expr)],
) -> Result<Vec<(String, Value)>> {
    let mut out = write::eval_storable_props(ctx, rec, props)?;
    out.retain(|(_, v)| !v.is_null());
    out.sort_by(|(a, _), (b, _)| a.cmp(b));
    Ok(out)
}
