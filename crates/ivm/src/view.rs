//! View compilation and incremental maintenance.
//!
//! A registered query is *maintainable* when it is exactly one
//! non-`OPTIONAL` `MATCH` (fixed-length patterns, no `shortestPath`, no
//! path variable) with an optional `WHERE`, followed by one `RETURN`
//! (explicit items, optional `DISTINCT`, non-ordered aggregates other than
//! `collect`) — and no `PatternPredicate` appears anywhere. That last rule
//! is what makes maintenance local: every other expression form's value
//! depends only on the entities bound in the match (plus constants and
//! parameters), so a committed delta can only affect the matches that
//! contain the touched entity.
//!
//! The maintained state is a TREAT-style match memory: the full set of
//! pattern embeddings, keyed by their complete variable→entity binding
//! (every pattern position is named — anonymous positions get synthetic
//! `__ivm{i}` names — so the binding tuple identifies the match), plus a
//! reverse index from entity id to the match keys that contain it. Delta
//! application removes via the reverse index and re-enumerates by *pinning*:
//! the touched entity is pre-bound at each pattern position it could occupy
//! and the ordinary matcher enumerates only the embeddings through it.

use std::collections::{BTreeMap, BTreeSet};

use cypher_core::eval::{eval_predicate, EvalCtx};
use cypher_core::{Engine, EvalError, Matcher, Projector, Record};
use cypher_graph::{Delta, EntityRef, NodeId, PropertyGraph, RelId, Value};
use cypher_parser::ast::{
    is_aggregate_fn, Clause, Expr, PathPattern, ProjectionItems, RelDirection,
};
use cypher_parser::parse;

/// The identity of a bound entity: a compact key for the match memory and
/// its per-entity index, where only nodes and relationships ever occur.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EntKey {
    Node(u64),
    Rel(u64),
}

/// The complete variable→entity binding of one match, aligned with the
/// network's sorted `entity_vars`. Two distinct embeddings always differ
/// in at least one binding, so this tuple is the match's identity.
type MatchKey = Vec<EntKey>;

/// A relationship position in the rewritten pattern: its variable and the
/// node variables on its pattern-left and pattern-right.
struct RelPos {
    var: String,
    left: String,
    right: String,
    dir: RelDirection,
}

struct MatchEntry {
    rec: Record,
    /// Projection of this match, cached for plain (non-aggregate,
    /// non-`DISTINCT`) views so removal emits the exact old row without
    /// re-evaluating against a graph that has already moved on.
    row: Option<Vec<Value>>,
}

/// Output rows as a multiset, keyed by the row's canonical debug rendering
/// (exact representation, not `=`-equivalence: `1` and `1.0` are different
/// rows for the byte-identity contract).
pub(crate) type RowSet = BTreeMap<String, (Vec<Value>, u64)>;

pub(crate) fn row_key(row: &[Value]) -> String {
    format!("{row:?}")
}

pub(crate) fn rowset_from<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> RowSet {
    let mut set = RowSet::new();
    for row in rows {
        let e = set.entry(row_key(row)).or_insert_with(|| (row.clone(), 0));
        e.1 += 1;
    }
    set
}

/// Rows with positive multiplicities, sorted by row key.
pub(crate) type RowBag = Vec<(Vec<Value>, u64)>;

/// `(adds, removes)` taking `old` to `new`, each sorted by row key with
/// positive multiplicities.
pub(crate) fn diff_rowsets(old: &RowSet, new: &RowSet) -> (RowBag, RowBag) {
    let mut adds = Vec::new();
    let mut removes = Vec::new();
    for (key, (row, n_new)) in new {
        let n_old = old.get(key).map_or(0, |(_, n)| *n);
        if *n_new > n_old {
            adds.push((row.clone(), n_new - n_old));
        }
    }
    for (key, (row, n_old)) in old {
        let n_new = new.get(key).map_or(0, |(_, n)| *n);
        if *n_old > n_new {
            removes.push((row.clone(), n_old - n_new));
        }
    }
    (adds, removes)
}

/// Does any `PatternPredicate` appear in `e`? That is the one expression
/// form whose value can depend on graph state *beyond* the entities bound
/// in the record, which would break the locality argument above.
fn has_pattern_predicate(e: &Expr) -> bool {
    if matches!(e, Expr::PatternPredicate(_)) {
        return true;
    }
    let mut found = false;
    e.for_each_child(&mut |c| {
        if has_pattern_predicate(c) {
            found = true;
        }
    });
    found
}

/// Does any `collect(…)` aggregate appear? `collect` is the one aggregate
/// whose result depends on enumeration order, which a maintained memory
/// does not preserve.
fn has_collect(e: &Expr) -> bool {
    if let Expr::FnCall { name, .. } = e {
        if is_aggregate_fn(name) && name.eq_ignore_ascii_case("collect") {
            return true;
        }
    }
    let mut found = false;
    e.for_each_child(&mut |c| {
        if has_collect(c) {
            found = true;
        }
    });
    found
}

fn pattern_exprs_ok(p: &PathPattern) -> bool {
    let node_ok = |n: &cypher_parser::ast::NodePattern| {
        n.props.iter().all(|(_, e)| !has_pattern_predicate(e))
    };
    if !node_ok(&p.start) {
        return false;
    }
    for (rel, node) in &p.steps {
        if !node_ok(node) || rel.props.iter().any(|(_, e)| has_pattern_predicate(e)) {
            return false;
        }
    }
    true
}

/// The maintainable core of a registered query, with every pattern
/// position named.
struct CompiledQuery {
    patterns: Vec<PathPattern>,
    where_clause: Option<Expr>,
    projector: Projector,
}

/// Decide maintainability and rewrite anonymous pattern variables.
/// `None` means the query falls back to full re-evaluation (registration
/// never fails on shape — only on errors a plain read would also raise).
fn compile(text: &str) -> Option<CompiledQuery> {
    let query = parse(text).ok()?;
    if !query.unions.is_empty() {
        return None;
    }
    let clauses = &query.first.clauses;
    let [Clause::Match {
        optional: false,
        patterns,
        where_clause,
    }, Clause::Return(proj)] = clauses.as_slice()
    else {
        return None;
    };
    if !proj.order_by.is_empty() || proj.skip.is_some() || proj.limit.is_some() {
        return None;
    }
    let ProjectionItems::Items(raw_items) = &proj.items else {
        // `RETURN *` would expose the synthetic `__ivm` names; not worth
        // special-casing — fall back.
        return None;
    };
    let projector = Projector::new(Vec::new(), raw_items, false, proj.distinct).ok()?;
    for item in raw_items {
        if has_pattern_predicate(&item.expr) || has_collect(&item.expr) {
            return None;
        }
    }
    if let Some(w) = where_clause {
        if has_pattern_predicate(w) {
            return None;
        }
    }
    let mut patterns = patterns.clone();
    for p in &patterns {
        if p.var.is_some() || p.shortest.is_some() {
            return None;
        }
        if p.steps.iter().any(|(rel, _)| rel.length.is_some()) {
            return None;
        }
        if !pattern_exprs_ok(p) {
            return None;
        }
    }
    // Name the anonymous positions. Matching semantics do not depend on
    // whether a position is named (edge-isomorphism is enforced by a
    // clause-wide used-relationship set, not by bindings), so this only
    // makes every embedding's binding tuple complete.
    let mut taken: BTreeSet<String> = BTreeSet::new();
    for p in &patterns {
        if let Some(v) = &p.start.var {
            taken.insert(v.clone());
        }
        for (rel, node) in &p.steps {
            if let Some(v) = &rel.var {
                taken.insert(v.clone());
            }
            if let Some(v) = &node.var {
                taken.insert(v.clone());
            }
        }
    }
    let mut counter = 0usize;
    let mut fresh = move |taken: &BTreeSet<String>| loop {
        let name = format!("__ivm{counter}");
        counter += 1;
        if !taken.contains(&name) {
            break name;
        }
    };
    for p in &mut patterns {
        if p.start.var.is_none() {
            p.start.var = Some(fresh(&taken));
        }
        for (rel, node) in &mut p.steps {
            if rel.var.is_none() {
                rel.var = Some(fresh(&taken));
            }
            if node.var.is_none() {
                node.var = Some(fresh(&taken));
            }
        }
    }
    Some(CompiledQuery {
        patterns,
        where_clause: where_clause.clone(),
        projector,
    })
}

/// The partial-match network of one maintainable view.
struct Network {
    patterns: Vec<PathPattern>,
    where_clause: Option<Expr>,
    projector: Projector,
    /// Node variable at each node position (may repeat a variable).
    node_vars: Vec<String>,
    rel_positions: Vec<RelPos>,
    /// Sorted distinct pattern variables — the [`MatchKey`] axis.
    entity_vars: Vec<String>,
    matches: BTreeMap<MatchKey, MatchEntry>,
    by_entity: BTreeMap<EntKey, BTreeSet<MatchKey>>,
}

impl Network {
    fn new(cq: CompiledQuery) -> Network {
        let mut node_vars = Vec::new();
        let mut rel_positions = Vec::new();
        let mut entity_vars = BTreeSet::new();
        for p in &cq.patterns {
            let mut prev = p.start.var.clone().unwrap_or_default();
            node_vars.push(prev.clone());
            entity_vars.insert(prev.clone());
            for (rel, node) in &p.steps {
                let rv = rel.var.clone().unwrap_or_default();
                let nv = node.var.clone().unwrap_or_default();
                rel_positions.push(RelPos {
                    var: rv.clone(),
                    left: prev.clone(),
                    right: nv.clone(),
                    dir: rel.direction,
                });
                node_vars.push(nv.clone());
                entity_vars.insert(rv);
                entity_vars.insert(nv.clone());
                prev = nv;
            }
        }
        Network {
            patterns: cq.patterns,
            where_clause: cq.where_clause,
            projector: cq.projector,
            node_vars,
            rel_positions,
            entity_vars: entity_vars.into_iter().collect(),
            matches: BTreeMap::new(),
            by_entity: BTreeMap::new(),
        }
    }

    /// A plain (non-aggregate, non-`DISTINCT`) view maps each match to one
    /// row, so it maintains row by row from cached projections.
    fn plain(&self) -> bool {
        !self.projector.has_agg() && !self.projector.distinct()
    }

    fn key_of(&self, rec: &Record) -> Result<MatchKey, EvalError> {
        let mut key = Vec::with_capacity(self.entity_vars.len());
        for var in &self.entity_vars {
            match rec.get(var) {
                Some(Value::Node(n)) => key.push(EntKey::Node(n.0)),
                Some(Value::Rel(r)) => key.push(EntKey::Rel(r.0)),
                other => {
                    return Err(EvalError::Type {
                        expected: "an entity binding",
                        got: format!("{other:?} for `{var}`"),
                        context: "view match memory",
                    })
                }
            }
        }
        Ok(key)
    }

    /// Enumerate the embeddings extending `pin` and push the fresh ones
    /// into the memory, recording the inserted keys in `added`.
    fn enumerate_pinned(
        &mut self,
        engine: &Engine,
        graph: &PropertyGraph,
        pin: &Record,
        added: &mut BTreeSet<MatchKey>,
    ) -> Result<(), EvalError> {
        let matcher = Matcher::new(graph, &engine.params, engine.match_mode);
        let found = matcher.match_patterns(pin, &self.patterns)?;
        let eval_ctx = EvalCtx::new(graph, &engine.params).with_match_mode(engine.match_mode);
        for rec in found {
            if let Some(w) = &self.where_clause {
                if !eval_predicate(&eval_ctx, &rec, w)?.is_true() {
                    continue;
                }
            }
            let key = self.key_of(&rec)?;
            if self.matches.contains_key(&key) {
                continue;
            }
            for ent in &key {
                self.by_entity.entry(*ent).or_default().insert(key.clone());
            }
            self.matches
                .insert(key.clone(), MatchEntry { rec, row: None });
            // A re-found match keeps its earlier `removed` entry: the old
            // cached row must still be retracted (a property change re-pins
            // the same binding tuple with different projected values), and
            // the fresh projection is emitted through `added`.
            added.insert(key);
        }
        Ok(())
    }

    /// Drop every match containing `ent`, recording the removed entries.
    fn remove_entity(
        &mut self,
        ent: EntKey,
        added: &mut BTreeSet<MatchKey>,
        removed: &mut BTreeMap<MatchKey, MatchEntry>,
    ) {
        let Some(keys) = self.by_entity.remove(&ent) else {
            return;
        };
        for key in keys {
            let Some(entry) = self.matches.remove(&key) else {
                continue;
            };
            for other in &key {
                if *other == ent {
                    continue;
                }
                if let Some(set) = self.by_entity.get_mut(other) {
                    set.remove(&key);
                    if set.is_empty() {
                        self.by_entity.remove(other);
                    }
                }
            }
            // Added-then-removed within one statement cancels out.
            if !added.remove(&key) {
                removed.insert(key, entry);
            }
        }
    }
}

/// Per-statement row-level change of one view.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewUpdate {
    pub view: u64,
    pub seq: u64,
    pub adds: Vec<(Vec<Value>, u64)>,
    pub removes: Vec<(Vec<Value>, u64)>,
}

impl ViewUpdate {
    pub fn is_empty(&self) -> bool {
        self.adds.is_empty() && self.removes.is_empty()
    }
}

/// Registration outcome handed back to the subscriber.
#[derive(Clone, Debug)]
pub struct Registered {
    pub id: u64,
    pub columns: Vec<String>,
    /// `false` when the query is incrementally maintained, `true` when it
    /// re-evaluates in full at every commit.
    pub fallback: bool,
    /// The view's current rows (the initial snapshot), sorted.
    pub rows: Vec<(Vec<Value>, u64)>,
}

/// Counters for one registered view, surfaced through server `Stats`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewStat {
    pub id: u64,
    pub query: String,
    pub incremental: bool,
    pub rows: u64,
    /// Non-empty delta batches emitted.
    pub deltas: u64,
    /// Full re-evaluations run (every statement for fallback views; error
    /// recoveries for incremental ones).
    pub fallbacks: u64,
    pub broken: bool,
}

pub(crate) struct View {
    pub(crate) id: u64,
    pub(crate) text: String,
    pub(crate) engine: Engine,
    pub(crate) columns: Vec<String>,
    network: Option<Network>,
    pub(crate) rows: RowSet,
    pub(crate) deltas: u64,
    pub(crate) fallbacks: u64,
    /// Set when the last evaluation errored; the view keeps its previous
    /// rows and retries (in fallback mode) at the next statement.
    pub(crate) last_error: Option<String>,
}

/// Scratch accumulated for one view across one statement's ops.
#[derive(Default)]
pub(crate) struct ViewScratch {
    added: BTreeSet<MatchKey>,
    removed: BTreeMap<MatchKey, MatchEntry>,
    touched: bool,
}

impl View {
    pub(crate) fn build(
        id: u64,
        text: &str,
        engine: &Engine,
        shadow: &PropertyGraph,
        full_rows: &[Vec<Value>],
        columns: Vec<String>,
    ) -> View {
        let mut view = View {
            id,
            text: text.to_owned(),
            engine: engine.clone(),
            columns,
            network: None,
            rows: rowset_from(full_rows),
            deltas: 0,
            fallbacks: 0,
            last_error: None,
        };
        let Some(cq) = compile(text) else {
            return view;
        };
        if cq.projector.columns() != view.columns {
            return view;
        }
        let mut network = Network::new(cq);
        // Seed the memory with the current embeddings, then cross-check the
        // projected rows against the full evaluation the caller already
        // ran. A mismatch means the incremental pipeline disagrees with
        // the engine on this query — demote to fallback rather than serve
        // wrong deltas from the start.
        let seeded = (|| -> Result<Vec<Vec<Value>>, EvalError> {
            let mut added = BTreeSet::new();
            network.enumerate_pinned(engine, shadow, &Record::new(), &mut added)?;
            let eval_ctx = EvalCtx::new(shadow, &engine.params).with_match_mode(engine.match_mode);
            let recs = network.matches.values().map(|e| &e.rec);
            let projected = network.projector.project(&eval_ctx, recs)?;
            let rows: Vec<Vec<Value>> = projected.rows.into_iter().map(|(row, _)| row).collect();
            if network.plain() {
                for (entry, row) in network.matches.values_mut().zip(&rows) {
                    entry.row = Some(row.clone());
                }
            }
            Ok(rows)
        })();
        if matches!(seeded, Ok(rows) if rowset_from(&rows) == view.rows) {
            view.network = Some(network);
        }
        view
    }

    pub(crate) fn incremental(&self) -> bool {
        self.network.is_some()
    }

    /// Drop the network permanently; the view re-evaluates in full from
    /// the next statement-end on.
    pub(crate) fn demote(&mut self, reason: String) {
        self.network = None;
        self.last_error = Some(reason);
    }

    pub(crate) fn sorted_rows(&self) -> Vec<(Vec<Value>, u64)> {
        self.rows.values().map(|(r, n)| (r.clone(), *n)).collect()
    }

    pub(crate) fn stat(&self) -> ViewStat {
        ViewStat {
            id: self.id,
            query: self.text.clone(),
            incremental: self.incremental(),
            rows: self.rows.values().map(|(_, n)| *n).sum(),
            deltas: self.deltas,
            fallbacks: self.fallbacks,
            broken: self.last_error.is_some(),
        }
    }

    /// Phase A of one op: bookkeeping against the *pre-op* state.
    pub(crate) fn before_op(&mut self, op: &Delta, scratch: &mut ViewScratch) {
        let Some(network) = &mut self.network else {
            return;
        };
        match op {
            Delta::DeleteRel { id } => {
                network.remove_entity(EntKey::Rel(*id), &mut scratch.added, &mut scratch.removed);
                scratch.touched = true;
            }
            Delta::DeleteNode { id } => {
                network.remove_entity(EntKey::Node(*id), &mut scratch.added, &mut scratch.removed);
                scratch.touched = true;
            }
            Delta::AddLabel { node, .. } | Delta::RemoveLabel { node, .. } => {
                network.remove_entity(
                    EntKey::Node(*node),
                    &mut scratch.added,
                    &mut scratch.removed,
                );
                scratch.touched = true;
            }
            Delta::SetProp { entity, .. } => {
                let ent = match entity {
                    EntityRef::Node(n) => EntKey::Node(n.0),
                    EntityRef::Rel(r) => EntKey::Rel(r.0),
                };
                network.remove_entity(ent, &mut scratch.added, &mut scratch.removed);
                scratch.touched = true;
            }
            Delta::CreateNode { .. } | Delta::CreateRel { .. } => {}
        }
    }

    /// Phase B of one op: re-enumeration against the *post-op* state.
    /// `detached` are rels a force `DeleteNode` left without an endpoint.
    pub(crate) fn after_op(
        &mut self,
        shadow: &PropertyGraph,
        op: &Delta,
        detached: &[u64],
        scratch: &mut ViewScratch,
    ) -> Result<(), EvalError> {
        if self.network.is_none() {
            return Ok(());
        }
        match op {
            Delta::CreateNode { id, .. } => {
                scratch.touched = true;
                self.repin_node(shadow, *id, scratch)?;
            }
            Delta::CreateRel { id, src, tgt, .. } => {
                scratch.touched = true;
                self.repin_rel(shadow, *id, *src, *tgt, scratch)?;
            }
            Delta::DeleteRel { .. } => {}
            Delta::DeleteNode { .. } => {
                if let Some(network) = &mut self.network {
                    for rel in detached {
                        network.remove_entity(
                            EntKey::Rel(*rel),
                            &mut scratch.added,
                            &mut scratch.removed,
                        );
                    }
                }
            }
            Delta::AddLabel { node, .. } | Delta::RemoveLabel { node, .. } => {
                self.repin_node(shadow, *node, scratch)?;
            }
            Delta::SetProp { entity, .. } => match entity {
                EntityRef::Node(n) => self.repin_node(shadow, n.0, scratch)?,
                EntityRef::Rel(r) => {
                    let Some(data) = shadow.rel(*r) else {
                        return Ok(());
                    };
                    let (src, tgt) = (data.src.0, data.tgt.0);
                    self.repin_rel(shadow, r.0, src, tgt, scratch)?;
                }
            },
        }
        Ok(())
    }

    fn repin_node(
        &mut self,
        shadow: &PropertyGraph,
        id: u64,
        scratch: &mut ViewScratch,
    ) -> Result<(), EvalError> {
        let engine = self.engine.clone();
        let Some(network) = &mut self.network else {
            return Ok(());
        };
        if !shadow.contains_node(NodeId(id)) {
            return Ok(());
        }
        let vars: Vec<String> = network
            .node_vars
            .iter()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .cloned()
            .collect();
        for var in vars {
            let mut pin = Record::new();
            pin.bind(var, Value::Node(NodeId(id)));
            network.enumerate_pinned(&engine, shadow, &pin, &mut scratch.added)?;
        }
        Ok(())
    }

    /// Pin a relationship at every rel position it could occupy, with its
    /// endpoint node variables bound to the orientation the pattern step
    /// implies (both orientations for an undirected step). The matcher
    /// re-validates every binding, so an impossible orientation merely
    /// yields nothing.
    fn repin_rel(
        &mut self,
        shadow: &PropertyGraph,
        id: u64,
        src: u64,
        tgt: u64,
        scratch: &mut ViewScratch,
    ) -> Result<(), EvalError> {
        let engine = self.engine.clone();
        let Some(network) = &mut self.network else {
            return Ok(());
        };
        if !shadow.contains_rel(RelId(id)) {
            return Ok(());
        }
        let positions: Vec<(String, String, String, RelDirection)> = network
            .rel_positions
            .iter()
            .map(|p| (p.var.clone(), p.left.clone(), p.right.clone(), p.dir))
            .collect();
        for (var, left, right, dir) in positions {
            let orientations: &[(u64, u64)] = match dir {
                RelDirection::Outgoing => &[(src, tgt)],
                RelDirection::Incoming => &[(tgt, src)],
                RelDirection::Undirected => &[(src, tgt), (tgt, src)],
            };
            for &(l, r) in orientations {
                let mut pin = Record::new();
                pin.bind(var.clone(), Value::Rel(RelId(id)));
                pin.bind(left.clone(), Value::Node(NodeId(l)));
                pin.bind(right.clone(), Value::Node(NodeId(r)));
                if left == right && l != r {
                    // A non-loop rel cannot sit on a loop-shaped step.
                    continue;
                }
                network.enumerate_pinned(&engine, shadow, &pin, &mut scratch.added)?;
            }
        }
        Ok(())
    }

    /// Statement end: turn the accumulated match changes into a row-level
    /// delta, updating the stored row multiset.
    pub(crate) fn finish_statement(
        &mut self,
        shadow: &PropertyGraph,
        seq: u64,
        scratch: ViewScratch,
    ) -> ViewUpdate {
        let out = self.finish_statement_inner(shadow, seq, scratch);
        match out {
            Ok(update) => {
                self.last_error = None;
                if !update.is_empty() {
                    self.deltas += 1;
                }
                update
            }
            Err(e) => {
                // The maintained pipeline errored — demote and try a full
                // re-evaluation (an error that full evaluation shares, e.g.
                // an aggregate overflow, parks the view on its previous rows
                // until the data moves again).
                self.network = None;
                self.fallback_statement(shadow, seq, Some(e.to_string()))
            }
        }
    }

    fn finish_statement_inner(
        &mut self,
        shadow: &PropertyGraph,
        seq: u64,
        scratch: ViewScratch,
    ) -> Result<ViewUpdate, EvalError> {
        let engine = self.engine.clone();
        let Some(network) = &mut self.network else {
            return Ok(ViewUpdate {
                view: self.id,
                seq,
                ..ViewUpdate::default()
            });
        };
        if !scratch.touched && scratch.added.is_empty() && scratch.removed.is_empty() {
            return Ok(ViewUpdate {
                view: self.id,
                seq,
                ..ViewUpdate::default()
            });
        }
        let eval_ctx = EvalCtx::new(shadow, &engine.params).with_match_mode(engine.match_mode);
        if network.plain() {
            // Plain views update row-by-row: removed matches contribute
            // their cached rows, added matches project fresh.
            let mut removed_rows = Vec::new();
            for entry in scratch.removed.values() {
                if let Some(row) = &entry.row {
                    removed_rows.push(row.clone());
                } else {
                    return Err(EvalError::Type {
                        expected: "a cached row",
                        got: "none".to_owned(),
                        context: "plain view removal",
                    });
                }
            }
            let mut added_rows = Vec::new();
            for key in &scratch.added {
                let Some(entry) = network.matches.get_mut(key) else {
                    continue;
                };
                let row = network.projector.row(&eval_ctx, &entry.rec)?;
                entry.row = Some(row.clone());
                added_rows.push(row);
            }
            // Net the touched rows first (a match removed and re-added
            // with the same projection cancels to nothing), then apply the
            // net to `self.rows` — O(delta), never O(view): cloning and
            // re-diffing the whole multiset would make every statement pay
            // for the view's size.
            let mut net: BTreeMap<String, (Vec<Value>, i64)> = BTreeMap::new();
            for row in removed_rows {
                let e = net.entry(row_key(&row)).or_insert((row, 0));
                e.1 -= 1;
            }
            for row in added_rows {
                let e = net.entry(row_key(&row)).or_insert((row, 0));
                e.1 += 1;
            }
            let mut adds = RowBag::new();
            let mut removes = RowBag::new();
            for (key, (row, n)) in net {
                if n > 0 {
                    let e = self.rows.entry(key).or_insert_with(|| (row.clone(), 0));
                    e.1 += n as u64;
                    adds.push((row, n as u64));
                } else if n < 0 {
                    // Capped at what the view actually holds, so an
                    // (impossible) stray removal can never push a
                    // multiplicity through zero.
                    let Some((_, c)) = self.rows.get_mut(&key) else {
                        continue;
                    };
                    let m = ((-n) as u64).min(*c);
                    *c -= m;
                    if *c == 0 {
                        self.rows.remove(&key);
                    }
                    if m > 0 {
                        removes.push((row, m));
                    }
                }
            }
            return Ok(ViewUpdate {
                view: self.id,
                seq,
                adds,
                removes,
            });
        }
        // Aggregate / DISTINCT views: recompute the output from the match
        // memory (grouping and aggregation are global, so any touched match
        // can shift any group) and diff against the previous rows.
        let recs = network.matches.values().map(|e| &e.rec);
        let projected = network.projector.project(&eval_ctx, recs)?;
        let new_rows = rowset_from(projected.rows.iter().map(|(row, _)| row));
        let (adds, removes) = diff_rowsets(&self.rows, &new_rows);
        self.rows = new_rows;
        Ok(ViewUpdate {
            view: self.id,
            seq,
            adds,
            removes,
        })
    }

    /// Full re-evaluation against the post-statement shadow — the path for
    /// fallback views on every statement, and for incremental views
    /// recovering from an evaluation error.
    pub(crate) fn fallback_statement(
        &mut self,
        shadow: &PropertyGraph,
        seq: u64,
        demoted_by: Option<String>,
    ) -> ViewUpdate {
        self.fallbacks += 1;
        match self.engine.run_read(shadow, &self.text) {
            Ok(result) => {
                let new_rows = rowset_from(&result.rows);
                let (adds, removes) = diff_rowsets(&self.rows, &new_rows);
                self.rows = new_rows;
                self.last_error = None;
                let update = ViewUpdate {
                    view: self.id,
                    seq,
                    adds,
                    removes,
                };
                if !update.is_empty() {
                    self.deltas += 1;
                }
                update
            }
            Err(e) => {
                self.last_error = Some(demoted_by.unwrap_or_else(|| e.to_string()));
                ViewUpdate {
                    view: self.id,
                    seq,
                    ..ViewUpdate::default()
                }
            }
        }
    }
}
