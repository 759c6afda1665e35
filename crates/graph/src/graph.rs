//! The property graph store.
//!
//! Implements the formal model of §8.2: a graph `G = ⟨N, R, src, tgt, ι, λ, τ⟩`
//! where `N` are nodes, `R` relationships, `src`/`tgt` endpoint functions,
//! `λ` the node-label function, `τ` the relationship-type function and `ι`
//! the property map. On top of the bare model the store maintains:
//!
//! * adjacency indexes (both directions) for pattern matching,
//! * a label index for `MATCH (n:Label)` scans,
//! * **tombstones** for deleted entities — required to reproduce the legacy
//!   (§4.2) behaviour where deleted entities remain addressable "zombies"
//!   and relationships may dangle mid-statement,
//! * one **journal** with savepoints: each entry is a mutation's redo op
//!   ([`DeltaOp`]) plus the before-image its undo needs, so a failing
//!   statement rolls back atomically (see [`crate::txn`]) and a committed
//!   one hands its redo ops to the durability layer.
//!
//! Iteration orders are deterministic everywhere (`BTreeMap`/`BTreeSet`,
//! insertion-ordered adjacency): the paper is about *semantic*
//! nondeterminism, so the implementation itself must be reproducible —
//! the legacy engine exposes order-dependence through an explicit record
//! processing order, never through accidental hash-map ordering.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::delta::DeltaOp;
use crate::error::{GraphError, Result};
use crate::ids::{EntityRef, NodeId, RelId};
use crate::interner::{Interner, Symbol};
use crate::value::Value;

const EMPTY_ADJ: &[RelId] = &[];

/// Property map of a node or relationship: interned keys to storable values.
/// `null` is never stored — assigning `null` removes the key (Cypher rule).
pub type PropertyMap = BTreeMap<Symbol, Value>;

/// Stored state of a node.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeData {
    pub labels: BTreeSet<Symbol>,
    pub props: PropertyMap,
}

/// Stored state of a relationship. `src`/`tgt` may refer to tombstoned nodes
/// while a legacy statement is mid-flight (a *dangling* relationship).
#[derive(Clone, Debug, PartialEq)]
pub struct RelData {
    pub src: NodeId,
    pub tgt: NodeId,
    pub rel_type: Symbol,
    pub props: PropertyMap,
}

/// Direction selector for adjacency queries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Relationships whose source is the given node.
    Outgoing,
    /// Relationships whose target is the given node.
    Incoming,
    /// Both.
    Either,
}

/// Per-node adjacency: the canonical insertion-ordered list plus per-type
/// partitions, so typed traversals touch only matching relationships.
///
/// Invariant: `by_type[t]` is exactly the subsequence of `all` whose
/// relationships have type `t`, in the same relative order, and `loops`
/// counts the self-loops present in `all`. Undo restores positions in `all`,
/// and the partition insertion point is recomputed from the prefix, so the
/// invariant survives rollback.
#[derive(Clone, Debug, Default)]
struct AdjList {
    all: Vec<RelId>,
    by_type: BTreeMap<Symbol, Vec<RelId>>,
    loops: usize,
}

impl AdjList {
    fn push(&mut self, id: RelId, rel_type: Symbol, is_loop: bool) {
        self.all.push(id);
        self.by_type.entry(rel_type).or_default().push(id);
        if is_loop {
            self.loops += 1;
        }
    }

    /// Remove `id`, returning the position it occupied in `all`.
    fn remove(&mut self, id: RelId, rel_type: Symbol, is_loop: bool) -> Option<usize> {
        let pos = self.all.iter().position(|&r| r == id)?;
        self.all.remove(pos);
        if let Some(part) = self.by_type.get_mut(&rel_type) {
            if let Some(p) = part.iter().position(|&r| r == id) {
                part.remove(p);
            }
            if part.is_empty() {
                self.by_type.remove(&rel_type);
            }
        }
        if is_loop {
            self.loops -= 1;
        }
        Some(pos)
    }

    /// Re-insert `id` at `pos` of `all` (undo of a deletion). The partition
    /// insertion point is the number of same-type relationships before
    /// `pos`, which keeps `by_type` a stable filter of `all`.
    fn insert_at(
        &mut self,
        pos: usize,
        id: RelId,
        rel_type: Symbol,
        is_loop: bool,
        rels: &BTreeMap<RelId, RelData>,
    ) {
        let pos = pos.min(self.all.len());
        let part_pos = self.all[..pos]
            .iter()
            .filter(|r| rels.get(r).map(|d| d.rel_type == rel_type).unwrap_or(false))
            .count();
        self.all.insert(pos, id);
        let part = self.by_type.entry(rel_type).or_default();
        part.insert(part_pos.min(part.len()), id);
        if is_loop {
            self.loops += 1;
        }
    }

    /// Rebuild partitions from a plain ordered rel list (undo of a node
    /// deletion journals only `all`; every listed rel is live again by the
    /// time the node's deletion is undone, because undo runs in reverse).
    fn rebuild(all: Vec<RelId>, rels: &BTreeMap<RelId, RelData>) -> Self {
        let mut list = AdjList::default();
        for &id in &all {
            let Some(data) = rels.get(&id) else {
                unreachable!("adjacency refers to live rel {id}");
            };
            list.by_type.entry(data.rel_type).or_default().push(id);
            if data.src == data.tgt {
                list.loops += 1;
            }
        }
        list.all = all;
        list
    }
}

/// Borrowing iterator over a node's adjacency; see
/// [`PropertyGraph::rels_iter`] / [`PropertyGraph::rels_typed`]. Yields the
/// same relationships in the same order as [`PropertyGraph::rels_of`]
/// (filtered by type for the typed variant) without allocating.
pub struct AdjIter<'g> {
    first: std::slice::Iter<'g, RelId>,
    second: std::slice::Iter<'g, RelId>,
    /// `Some` when self-loops must be skipped in `second` (`Either` on a
    /// node that has at least one self-loop).
    dedup: Option<&'g BTreeMap<RelId, RelData>>,
}

impl Iterator for AdjIter<'_> {
    type Item = RelId;

    fn next(&mut self) -> Option<RelId> {
        if let Some(&r) = self.first.next() {
            return Some(r);
        }
        for &r in self.second.by_ref() {
            match self.dedup {
                None => return Some(r),
                Some(rels) => {
                    if rels.get(&r).map(|d| d.src != d.tgt).unwrap_or(true) {
                        return Some(r);
                    }
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let lo = self.first.len()
            + if self.dedup.is_some() {
                0
            } else {
                self.second.len()
            };
        (lo, Some(self.first.len() + self.second.len()))
    }
}

/// Size and usage statistics of one composite property index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexStats {
    pub label: Symbol,
    pub key: Symbol,
    /// Total `(value, node)` postings.
    pub entries: usize,
    /// Distinct indexed values.
    pub distinct: usize,
    /// Probes that found at least one node.
    pub hits: u64,
    /// Probes that found none.
    pub misses: u64,
}

/// How to treat relationships attached to a node being deleted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeleteNodeMode {
    /// Fail if any relationship is still attached (revised `DELETE`).
    Strict,
    /// Also delete all attached relationships (`DETACH DELETE`).
    Detach,
    /// Delete the node and leave attached relationships dangling — the
    /// legacy Cypher 9 mid-statement behaviour of §4.2. The graph is
    /// illegal until those relationships are deleted too; committing in
    /// that state fails the integrity check.
    Force,
}

/// The undo-only half of a journal entry: what its redo op cannot rebuild.
#[derive(Clone, Debug)]
enum Undo {
    /// Creations and label changes are undone from the redo op alone.
    Nothing,
    /// `SetProp`: the key's previous value (`None` if it was absent).
    OldValue(Option<Value>),
    DeletedRel {
        data: RelData,
        /// Position the rel occupied in its source's outgoing adjacency list
        /// (`None` if the source was already tombstoned).
        src_pos: Option<usize>,
        /// Position in the target's incoming adjacency list.
        tgt_pos: Option<usize>,
    },
    DeletedNode {
        data: NodeData,
        out: Vec<RelId>,
        inc: Vec<RelId>,
    },
}

/// Opaque marker for a journal position; see [`PropertyGraph::savepoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Savepoint(pub(crate) usize);

/// One composite property index with always-on usage counters. The counters
/// are atomics only so that probes can count through `&self`; the graph is
/// not otherwise concurrent.
#[derive(Debug, Default)]
struct PropIndex {
    map: BTreeMap<Value, BTreeSet<NodeId>>,
    /// Total `(value, node)` postings, maintained incrementally.
    entries: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for PropIndex {
    fn clone(&self) -> Self {
        PropIndex {
            map: self.map.clone(),
            entries: self.entries,
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
        }
    }
}

/// An in-memory property graph with tombstones and a journal.
#[derive(Clone, Debug, Default)]
pub struct PropertyGraph {
    interner: Interner,
    nodes: BTreeMap<NodeId, NodeData>,
    rels: BTreeMap<RelId, RelData>,
    out_adj: BTreeMap<NodeId, AdjList>,
    in_adj: BTreeMap<NodeId, AdjList>,
    label_index: BTreeMap<Symbol, BTreeSet<NodeId>>,
    tomb_nodes: BTreeSet<NodeId>,
    tomb_rels: BTreeSet<RelId>,
    /// Composite property indexes: (label, key) → value → nodes. Maintained
    /// through every mutation including journal rollback.
    indexes: BTreeMap<(Symbol, Symbol), PropIndex>,
    /// Live relationships per type, maintained incrementally through every
    /// mutation including journal rollback (cardinality statistics).
    rel_type_counts: BTreeMap<Symbol, usize>,
    next_node: u64,
    next_rel: u64,
    /// Every mutation since the last root commit, oldest first, ARIES-style:
    /// the redo op a root commit hands to the delta, and its undo half.
    journal: Vec<(DeltaOp, Undo)>,
    /// Redo ops of root-committed entries while delta capture is on
    /// (`None` when off), drained by the durability layer after each
    /// statement.
    delta: Option<Vec<DeltaOp>>,
}

impl PropertyGraph {
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Vocabulary
    // ------------------------------------------------------------------

    /// Intern a label / relationship type / property key.
    pub fn sym(&mut self, s: &str) -> Symbol {
        self.interner.intern(s)
    }

    /// Look up a symbol without interning (read-only paths).
    pub fn try_sym(&self, s: &str) -> Option<Symbol> {
        self.interner.get(s)
    }

    /// Resolve a symbol to its string.
    pub fn sym_str(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    pub fn node(&self, id: NodeId) -> Option<&NodeData> {
        self.nodes.get(&id)
    }

    pub fn rel(&self, id: RelId) -> Option<&RelData> {
        self.rels.get(&id)
    }

    pub fn contains_node(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    pub fn contains_rel(&self, id: RelId) -> bool {
        self.rels.contains_key(&id)
    }

    /// Was this entity deleted at some point? Zombie references (§4.2) stay
    /// addressable in the legacy engine and answer property reads with
    /// `null`.
    pub fn is_zombie(&self, entity: EntityRef) -> bool {
        match entity {
            EntityRef::Node(n) => self.tomb_nodes.contains(&n),
            EntityRef::Rel(r) => self.tomb_rels.contains(&r),
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn rel_count(&self) -> usize {
        self.rels.len()
    }

    /// All live node ids, ascending.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// All live relationship ids, ascending.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        self.rels.keys().copied()
    }

    /// Nodes carrying `label`, ascending by id.
    pub fn nodes_with_label(&self, label: Symbol) -> impl Iterator<Item = NodeId> + '_ {
        self.label_index
            .get(&label)
            .into_iter()
            .flat_map(|set| set.iter().copied())
    }

    /// Relationships attached to `node` in the given direction, in insertion
    /// order. A self-loop is reported once for `Either`.
    ///
    /// Allocates a fresh `Vec`; hot paths should prefer the borrowing
    /// [`Self::rels_iter`] / [`Self::rels_typed`], which yield the same
    /// relationships in the same order.
    pub fn rels_of(&self, node: NodeId, dir: Direction) -> Vec<RelId> {
        self.rels_iter(node, dir).collect()
    }

    /// Outgoing adjacency of `node` as a borrowed slice, insertion order.
    pub fn rels_out(&self, node: NodeId) -> &[RelId] {
        self.out_adj
            .get(&node)
            .map(|l| l.all.as_slice())
            .unwrap_or(EMPTY_ADJ)
    }

    /// Incoming adjacency of `node` as a borrowed slice, insertion order.
    pub fn rels_in(&self, node: NodeId) -> &[RelId] {
        self.in_adj
            .get(&node)
            .map(|l| l.all.as_slice())
            .unwrap_or(EMPTY_ADJ)
    }

    /// Allocation-free version of [`Self::rels_of`]: same relationships in
    /// the same order, self-loops reported once for `Either`.
    pub fn rels_iter(&self, node: NodeId, dir: Direction) -> AdjIter<'_> {
        let out = self.rels_out(node);
        let inc_list = self.in_adj.get(&node);
        let inc = inc_list.map(|l| l.all.as_slice()).unwrap_or(EMPTY_ADJ);
        match dir {
            Direction::Outgoing => AdjIter {
                first: out.iter(),
                second: EMPTY_ADJ.iter(),
                dedup: None,
            },
            Direction::Incoming => AdjIter {
                first: inc.iter(),
                second: EMPTY_ADJ.iter(),
                dedup: None,
            },
            Direction::Either => AdjIter {
                first: out.iter(),
                second: inc.iter(),
                dedup: inc_list.filter(|l| l.loops > 0).map(|_| &self.rels),
            },
        }
    }

    /// Relationships of `node` in `dir` whose type is `ty`, via the per-type
    /// adjacency partitions: the order equals [`Self::rels_of`] filtered by
    /// type (partitions are stable filters of the insertion-ordered list).
    pub fn rels_typed(&self, node: NodeId, dir: Direction, ty: Symbol) -> AdjIter<'_> {
        let out = self
            .out_adj
            .get(&node)
            .and_then(|l| l.by_type.get(&ty))
            .map(Vec::as_slice)
            .unwrap_or(EMPTY_ADJ);
        let inc_list = self.in_adj.get(&node);
        let inc = inc_list
            .and_then(|l| l.by_type.get(&ty))
            .map(Vec::as_slice)
            .unwrap_or(EMPTY_ADJ);
        match dir {
            Direction::Outgoing => AdjIter {
                first: out.iter(),
                second: EMPTY_ADJ.iter(),
                dedup: None,
            },
            Direction::Incoming => AdjIter {
                first: inc.iter(),
                second: EMPTY_ADJ.iter(),
                dedup: None,
            },
            Direction::Either => AdjIter {
                first: out.iter(),
                second: inc.iter(),
                dedup: inc_list.filter(|l| l.loops > 0).map(|_| &self.rels),
            },
        }
    }

    /// Number of relationships attached to `node` (self-loops count once).
    /// O(1): list lengths minus the incoming self-loop count.
    pub fn degree(&self, node: NodeId) -> usize {
        let out = self.out_adj.get(&node).map(|l| l.all.len()).unwrap_or(0);
        let (inc, loops) = self
            .in_adj
            .get(&node)
            .map(|l| (l.all.len(), l.loops))
            .unwrap_or((0, 0));
        out + inc - loops
    }

    /// Number of relationships attached to `node` in one direction, O(1).
    pub fn degree_dir(&self, node: NodeId, dir: Direction) -> usize {
        match dir {
            Direction::Outgoing => self.rels_out(node).len(),
            Direction::Incoming => self.rels_in(node).len(),
            Direction::Either => self.degree(node),
        }
    }

    // ------------------------------------------------------------------
    // Cardinality statistics (always on, maintained incrementally)
    // ------------------------------------------------------------------

    /// Number of live nodes carrying `label` — O(log n) off the label index.
    pub fn label_count(&self, label: Symbol) -> usize {
        self.label_index.get(&label).map(BTreeSet::len).unwrap_or(0)
    }

    /// Number of live relationships of type `ty`, maintained incrementally.
    pub fn rel_type_count(&self, ty: Symbol) -> usize {
        self.rel_type_counts.get(&ty).copied().unwrap_or(0)
    }

    /// Live `(label, node count)` pairs, ascending by symbol, zero counts
    /// skipped.
    pub fn label_counts(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.label_index
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(&l, s)| (l, s.len()))
    }

    /// Live `(rel type, count)` pairs, ascending by symbol.
    pub fn rel_type_counts(&self) -> impl Iterator<Item = (Symbol, usize)> + '_ {
        self.rel_type_counts.iter().map(|(&t, &c)| (t, c))
    }

    /// Expected rows from an exact probe of the `(label, key)` index: the
    /// average bucket size. `None` if the index doesn't exist, `0.0` if it
    /// is empty.
    pub fn index_selectivity(&self, label: Symbol, key: Symbol) -> Option<f64> {
        let idx = self.indexes.get(&(label, key))?;
        if idx.map.is_empty() {
            return Some(0.0);
        }
        Some(idx.entries as f64 / idx.map.len() as f64)
    }

    /// Exact bucket size for a known probe value, without touching the
    /// hit/miss counters (planner estimation only).
    pub fn index_bucket_size(&self, label: Symbol, key: Symbol, value: &Value) -> Option<usize> {
        let idx = self.indexes.get(&(label, key))?;
        if value.is_null() {
            return Some(0);
        }
        Some(idx.map.get(value).map(BTreeSet::len).unwrap_or(0))
    }

    /// Size and usage statistics for every index, ascending by (label, key).
    pub fn index_stats(&self) -> Vec<IndexStats> {
        self.indexes
            .iter()
            .map(|(&(label, key), idx)| IndexStats {
                label,
                key,
                entries: idx.entries,
                distinct: idx.map.len(),
                hits: idx.hits.load(Ordering::Relaxed),
                misses: idx.misses.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Read a property; `null` for missing keys, missing entities and
    /// zombies.
    pub fn prop(&self, entity: EntityRef, key: Symbol) -> Value {
        let map = match entity {
            EntityRef::Node(n) => self.nodes.get(&n).map(|d| &d.props),
            EntityRef::Rel(r) => self.rels.get(&r).map(|d| &d.props),
        };
        map.and_then(|m| m.get(&key))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Full property map of an entity (empty for zombies).
    pub fn props(&self, entity: EntityRef) -> PropertyMap {
        match entity {
            EntityRef::Node(n) => self.nodes.get(&n).map(|d| d.props.clone()),
            EntityRef::Rel(r) => self.rels.get(&r).map(|d| d.props.clone()),
        }
        .unwrap_or_default()
    }

    /// Labels of a node (empty for zombies), ascending by symbol.
    pub fn labels(&self, node: NodeId) -> Vec<Symbol> {
        self.nodes
            .get(&node)
            .map(|d| d.labels.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Relationships whose source or target has been deleted. A legal graph
    /// has none (§2: "there may never be any dangling relationships").
    pub fn dangling_rels(&self) -> Vec<RelId> {
        self.rels
            .iter()
            .filter(|(_, d)| !self.nodes.contains_key(&d.src) || !self.nodes.contains_key(&d.tgt))
            .map(|(id, _)| *id)
            .collect()
    }

    /// Check the no-dangling-relationships invariant.
    pub fn integrity_check(&self) -> Result<()> {
        let dangling = self.dangling_rels();
        if dangling.is_empty() {
            Ok(())
        } else {
            Err(GraphError::DanglingRelationships(dangling))
        }
    }

    // ------------------------------------------------------------------
    // Property indexes
    // ------------------------------------------------------------------

    /// Create a composite index on `(label, key)`, backfilled from the
    /// current graph. Returns `false` if it already existed. Index
    /// creation is schema-level and not journaled (it does not change
    /// graph *content*); rollback keeps indexes but restores their
    /// entries.
    pub fn create_index(&mut self, label: Symbol, key: Symbol) -> bool {
        if self.indexes.contains_key(&(label, key)) {
            return false;
        }
        let mut map: BTreeMap<Value, BTreeSet<NodeId>> = BTreeMap::new();
        let mut entries = 0usize;
        if let Some(nodes) = self.label_index.get(&label) {
            for &n in nodes {
                if let Some(v) = self.nodes.get(&n).and_then(|d| d.props.get(&key)) {
                    if map.entry(v.clone()).or_default().insert(n) {
                        entries += 1;
                    }
                }
            }
        }
        self.indexes.insert(
            (label, key),
            PropIndex {
                map,
                entries,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            },
        );
        true
    }

    /// Drop an index; returns whether it existed.
    pub fn drop_index(&mut self, label: Symbol, key: Symbol) -> bool {
        self.indexes.remove(&(label, key)).is_some()
    }

    pub fn has_index(&self, label: Symbol, key: Symbol) -> bool {
        self.indexes.contains_key(&(label, key))
    }

    /// All existing indexes as (label, key) pairs.
    pub fn index_list(&self) -> Vec<(Symbol, Symbol)> {
        self.indexes.keys().copied().collect()
    }

    /// Exact-value lookup through an index. `None` when no index exists on
    /// `(label, key)`; `Some(vec![])` when the index exists but holds no
    /// such value. A `null` probe never matches (it is not stored). Every
    /// probe bumps the index's hit (≥1 node) or miss (0 nodes) counter.
    pub fn index_lookup(&self, label: Symbol, key: Symbol, value: &Value) -> Option<Vec<NodeId>> {
        let idx = self.indexes.get(&(label, key))?;
        if value.is_null() {
            idx.misses.fetch_add(1, Ordering::Relaxed);
            return Some(vec![]);
        }
        match idx.map.get(value) {
            Some(set) => {
                idx.hits.fetch_add(1, Ordering::Relaxed);
                Some(set.iter().copied().collect())
            }
            None => {
                idx.misses.fetch_add(1, Ordering::Relaxed);
                Some(vec![])
            }
        }
    }

    fn index_insert(&mut self, label: Symbol, key: Symbol, value: &Value, node: NodeId) {
        if let Some(idx) = self.indexes.get_mut(&(label, key)) {
            if idx.map.entry(value.clone()).or_default().insert(node) {
                idx.entries += 1;
            }
        }
    }

    fn index_remove(&mut self, label: Symbol, key: Symbol, value: &Value, node: NodeId) {
        if let Some(idx) = self.indexes.get_mut(&(label, key)) {
            if let Some(set) = idx.map.get_mut(value) {
                if set.remove(&node) {
                    idx.entries -= 1;
                }
                if set.is_empty() {
                    idx.map.remove(value);
                }
            }
        }
    }

    /// Add all of a node's index entries (creation / delete-undo).
    fn index_node_full(&mut self, id: NodeId, data: &NodeData) {
        if self.indexes.is_empty() {
            return;
        }
        for &l in &data.labels {
            for (&k, v) in &data.props {
                self.index_insert(l, k, v, id);
            }
        }
    }

    /// Remove all of a node's index entries (deletion / create-undo).
    fn deindex_node_full(&mut self, id: NodeId, data: &NodeData) {
        if self.indexes.is_empty() {
            return;
        }
        for &l in &data.labels {
            for (&k, v) in &data.props {
                self.index_remove(l, k, v, id);
            }
        }
    }

    /// Maintain indexes across one property change on a node.
    fn reindex_prop(
        &mut self,
        node: NodeId,
        labels: &BTreeSet<Symbol>,
        key: Symbol,
        old: Option<&Value>,
        new: Option<&Value>,
    ) {
        if self.indexes.is_empty() {
            return;
        }
        for &l in labels {
            if let Some(v) = old {
                self.index_remove(l, key, v, node);
            }
            if let Some(v) = new {
                self.index_insert(l, key, v, node);
            }
        }
    }

    /// Maintain indexes across a label addition/removal on a node.
    fn reindex_label(&mut self, node: NodeId, label: Symbol, adding: bool) {
        if self.indexes.is_empty() {
            return;
        }
        let props: Vec<(Symbol, Value)> = self
            .nodes
            .get(&node)
            .map(|d| d.props.iter().map(|(&k, v)| (k, v.clone())).collect())
            .unwrap_or_default();
        for (k, v) in props {
            if adding {
                self.index_insert(label, k, &v, node);
            } else {
                self.index_remove(label, k, &v, node);
            }
        }
    }

    // ------------------------------------------------------------------
    // Mutations (all journaled)
    // ------------------------------------------------------------------

    /// See [`Value::storable_as_property`].
    fn storable(value: &Value) -> bool {
        value.storable_as_property()
    }

    /// Create a node with the given labels and properties. `null` property
    /// values are dropped.
    pub fn create_node<L, P>(&mut self, labels: L, props: P) -> NodeId
    where
        L: IntoIterator<Item = Symbol>,
        P: IntoIterator<Item = (Symbol, Value)>,
    {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let labels: BTreeSet<Symbol> = labels.into_iter().collect();
        let props: PropertyMap = props
            .into_iter()
            .filter(|(_, v)| !v.is_null() && Self::storable(v))
            .collect();
        for &l in &labels {
            self.label_index.entry(l).or_default().insert(id);
        }
        let data = NodeData { labels, props };
        self.index_node_full(id, &data);
        let redo = DeltaOp::CreateNode {
            id,
            labels: data.labels.iter().copied().collect(),
            props: data.props.iter().map(|(&k, v)| (k, v.clone())).collect(),
        };
        self.nodes.insert(id, data);
        self.out_adj.insert(id, AdjList::default());
        self.in_adj.insert(id, AdjList::default());
        self.journal.push((redo, Undo::Nothing));
        id
    }

    /// Create a relationship. Both endpoints must be live nodes.
    pub fn create_rel<P>(
        &mut self,
        src: NodeId,
        rel_type: Symbol,
        tgt: NodeId,
        props: P,
    ) -> Result<RelId>
    where
        P: IntoIterator<Item = (Symbol, Value)>,
    {
        if !self.nodes.contains_key(&src) {
            return Err(GraphError::EndpointMissing { endpoint: src });
        }
        if !self.nodes.contains_key(&tgt) {
            return Err(GraphError::EndpointMissing { endpoint: tgt });
        }
        let id = RelId(self.next_rel);
        self.next_rel += 1;
        let props: PropertyMap = props
            .into_iter()
            .filter(|(_, v)| !v.is_null() && Self::storable(v))
            .collect();
        let redo = DeltaOp::CreateRel {
            id,
            src,
            tgt,
            rel_type,
            props: props.iter().map(|(&k, v)| (k, v.clone())).collect(),
        };
        self.rels.insert(
            id,
            RelData {
                src,
                tgt,
                rel_type,
                props,
            },
        );
        let is_loop = src == tgt;
        self.out_adj
            .entry(src)
            .or_default()
            .push(id, rel_type, is_loop);
        self.in_adj
            .entry(tgt)
            .or_default()
            .push(id, rel_type, is_loop);
        *self.rel_type_counts.entry(rel_type).or_default() += 1;
        self.journal.push((redo, Undo::Nothing));
        Ok(id)
    }

    /// Delete a relationship. Idempotent failure: deleting a zombie rel is
    /// reported as [`GraphError::RelNotFound`]; callers emulating legacy
    /// semantics treat that as a no-op.
    pub fn delete_rel(&mut self, id: RelId) -> Result<()> {
        let data = self.rels.remove(&id).ok_or(GraphError::RelNotFound(id))?;
        let src_pos = self.detach_from_adj(&data, id, Direction::Outgoing);
        let tgt_pos = self.detach_from_adj(&data, id, Direction::Incoming);
        self.note_rel_removed(data.rel_type);
        self.tomb_rels.insert(id);
        self.journal.push((
            DeltaOp::DeleteRel { id },
            Undo::DeletedRel {
                data,
                src_pos,
                tgt_pos,
            },
        ));
        Ok(())
    }

    fn detach_from_adj(&mut self, data: &RelData, id: RelId, dir: Direction) -> Option<usize> {
        let (map, node) = match dir {
            Direction::Outgoing => (&mut self.out_adj, data.src),
            Direction::Incoming => (&mut self.in_adj, data.tgt),
            Direction::Either => unreachable!(),
        };
        let list = map.get_mut(&node)?;
        list.remove(id, data.rel_type, data.src == data.tgt)
    }

    /// Decrement the per-type relationship counter.
    fn note_rel_removed(&mut self, ty: Symbol) {
        if let Some(c) = self.rel_type_counts.get_mut(&ty) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.rel_type_counts.remove(&ty);
            }
        }
    }

    /// Delete a node. Returns the ids of any relationships deleted alongside
    /// it (non-empty only for [`DeleteNodeMode::Detach`]).
    pub fn delete_node(&mut self, id: NodeId, mode: DeleteNodeMode) -> Result<Vec<RelId>> {
        if !self.nodes.contains_key(&id) {
            return Err(GraphError::NodeNotFound(id));
        }
        let attached = self.rels_of(id, Direction::Either);
        let mut cascaded = Vec::new();
        match mode {
            DeleteNodeMode::Strict if !attached.is_empty() => {
                return Err(GraphError::NodeStillHasRelationships {
                    node: id,
                    attached: attached.len(),
                });
            }
            DeleteNodeMode::Detach => {
                for r in attached {
                    self.delete_rel(r)?;
                    cascaded.push(r);
                }
            }
            _ => {}
        }
        let Some(data) = self.nodes.remove(&id) else {
            unreachable!("delete_node: liveness of {id} checked above");
        };
        self.deindex_node_full(id, &data);
        for &l in &data.labels {
            if let Some(set) = self.label_index.get_mut(&l) {
                set.remove(&id);
            }
        }
        let out = self.out_adj.remove(&id).unwrap_or_default().all;
        let inc = self.in_adj.remove(&id).unwrap_or_default().all;
        self.tomb_nodes.insert(id);
        self.journal.push((
            DeltaOp::DeleteNode { id },
            Undo::DeletedNode { data, out, inc },
        ));
        Ok(cascaded)
    }

    /// Add a label to a node. Returns whether the label set changed.
    pub fn add_label(&mut self, node: NodeId, label: Symbol) -> Result<bool> {
        let data = self
            .nodes
            .get_mut(&node)
            .ok_or(GraphError::NodeNotFound(node))?;
        let changed = data.labels.insert(label);
        if changed {
            self.label_index.entry(label).or_default().insert(node);
            self.reindex_label(node, label, true);
            self.journal
                .push((DeltaOp::AddLabel { node, label }, Undo::Nothing));
        }
        Ok(changed)
    }

    /// Remove a label from a node. Returns whether the label set changed.
    pub fn remove_label(&mut self, node: NodeId, label: Symbol) -> Result<bool> {
        let data = self
            .nodes
            .get_mut(&node)
            .ok_or(GraphError::NodeNotFound(node))?;
        let changed = data.labels.remove(&label);
        if changed {
            if let Some(set) = self.label_index.get_mut(&label) {
                set.remove(&node);
            }
            self.reindex_label(node, label, false);
            self.journal
                .push((DeltaOp::RemoveLabel { node, label }, Undo::Nothing));
        }
        Ok(changed)
    }

    /// Set one property. Assigning `null` removes the key. Non-storable
    /// values are rejected.
    pub fn set_prop(&mut self, entity: EntityRef, key: Symbol, value: Value) -> Result<()> {
        if !value.is_null() && !Self::storable(&value) {
            let key_name = self.sym_str(key).to_owned();
            return Err(GraphError::InvalidPropertyValue {
                entity,
                key: key_name,
            });
        }
        let new_for_index = if value.is_null() {
            None
        } else {
            Some(value.clone())
        };
        // A write that changes nothing is a complete no-op: no journal
        // entry (the contract is one `SetProp` per *changed* key — label ops
        // already behave this way), no index churn.
        {
            let map = self.props_mut(entity)?;
            let unchanged = match &new_for_index {
                None => !map.contains_key(&key),
                Some(v) => map.get(&key) == Some(v),
            };
            if unchanged {
                return Ok(());
            }
        }
        let map = self.props_mut(entity)?;
        let old = if value.is_null() {
            map.remove(&key)
        } else {
            map.insert(key, value)
        };
        if let EntityRef::Node(n) = entity {
            if !self.indexes.is_empty() {
                let labels = self
                    .nodes
                    .get(&n)
                    .map(|d| d.labels.clone())
                    .unwrap_or_default();
                self.reindex_prop(n, &labels, key, old.as_ref(), new_for_index.as_ref());
            }
        }
        self.journal.push((
            DeltaOp::SetProp {
                entity,
                key,
                value: new_for_index,
            },
            Undo::OldValue(old),
        ));
        Ok(())
    }

    /// Replace the entire property map of an entity (`SET n = {map}`).
    pub fn replace_props(&mut self, entity: EntityRef, new: PropertyMap) -> Result<()> {
        let existing: Vec<Symbol> = self.props_mut(entity)?.keys().copied().collect();
        for key in existing {
            if !new.contains_key(&key) {
                self.set_prop(entity, key, Value::Null)?;
            }
        }
        for (key, value) in new {
            self.set_prop(entity, key, value)?;
        }
        Ok(())
    }

    /// Merge properties into an entity (`SET n += {map}`): present keys are
    /// overwritten (null values remove), absent keys untouched.
    pub fn merge_props(&mut self, entity: EntityRef, extra: PropertyMap) -> Result<()> {
        for (key, value) in extra {
            self.set_prop(entity, key, value)?;
        }
        Ok(())
    }

    fn props_mut(&mut self, entity: EntityRef) -> Result<&mut PropertyMap> {
        match entity {
            EntityRef::Node(n) => self
                .nodes
                .get_mut(&n)
                .map(|d| &mut d.props)
                .ok_or(GraphError::NodeNotFound(n)),
            EntityRef::Rel(r) => self
                .rels
                .get_mut(&r)
                .map(|d| &mut d.props)
                .ok_or(GraphError::RelNotFound(r)),
        }
    }

    // ------------------------------------------------------------------
    // Journal / savepoints
    // ------------------------------------------------------------------

    /// Current journal position. Rolling back to it undoes everything that
    /// happened after this call.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint(self.journal.len())
    }

    /// Undo all mutations after `sp`, restoring the exact prior state
    /// (including adjacency order and tombstones).
    pub fn rollback_to(&mut self, sp: Savepoint) {
        while self.journal.len() > sp.0 {
            // The loop condition guarantees the journal is longer than the
            // savepoint mark, so there is always an entry to pop.
            let Some(entry) = self.journal.pop() else {
                break;
            };
            self.undo(entry);
        }
    }

    /// Undo *everything* in the journal, back to the last statement
    /// boundary. This is the recovery path for a panic that unwound out of
    /// a statement without running its transaction's rollback (the
    /// durability layer's post-panic reconciliation).
    pub fn rollback_all(&mut self) {
        self.rollback_to(Savepoint(0));
    }

    /// Forget journal entries after `sp` (they can no longer be undone).
    /// Forgetting from the very beginning empties the journal: the redo
    /// halves move to the delta while capture is on and are dropped
    /// otherwise.
    pub fn commit(&mut self, sp: Savepoint) {
        debug_assert!(sp.0 <= self.journal.len());
        if sp.0 == 0 {
            let entries = std::mem::take(&mut self.journal);
            if let Some(delta) = &mut self.delta {
                delta.extend(entries.into_iter().map(|(redo, _)| redo));
            }
        }
        // Entries between an outer savepoint and the journal head must stay,
        // so that an enclosing rollback can still undo them; only a root
        // commit truncates.
    }

    /// Number of pending journal entries (diagnostics / tests).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    // ------------------------------------------------------------------
    // Delta capture (redo log for the durability layer)
    // ------------------------------------------------------------------

    /// Keep the redo ops of every later root commit as the delta.
    pub fn enable_delta_capture(&mut self) {
        self.delta = Some(Vec::new());
    }

    /// Stop recording and discard any pending delta.
    pub fn disable_delta_capture(&mut self) {
        self.delta = None;
    }

    pub fn delta_capture_enabled(&self) -> bool {
        self.delta.is_some()
    }

    /// The redo ops root-committed since the last [`Self::take_delta`], in
    /// execution order; rolled-back operations never reach it.
    pub fn delta(&self) -> &[DeltaOp] {
        self.delta.as_deref().unwrap_or_default()
    }

    /// Move the committed delta out — called by the durability layer once a
    /// statement has committed.
    pub fn take_delta(&mut self) -> Vec<DeltaOp> {
        self.delta.as_mut().map(std::mem::take).unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Restore (snapshot loads, replay, generators; not journaled)
    // ------------------------------------------------------------------

    /// Insert a node under an explicit id, as read from a snapshot. The id
    /// must be fresh. Adjacency starts empty and is rebuilt by the
    /// [`Self::restore_rel`] calls that follow; `next_node` advances past
    /// `id` so future creations never collide.
    pub fn restore_node(&mut self, id: NodeId, data: NodeData) {
        assert!(
            !self.nodes.contains_key(&id),
            "restore_node: {id:?} already exists"
        );
        for &l in &data.labels {
            self.label_index.entry(l).or_default().insert(id);
        }
        self.index_node_full(id, &data);
        self.nodes.insert(id, data);
        self.out_adj.insert(id, AdjList::default());
        self.in_adj.insert(id, AdjList::default());
        self.next_node = self.next_node.max(id.0 + 1);
    }

    /// Insert a relationship under an explicit id, as read from a snapshot
    /// or replayed from a log. Both endpoints must already be live.
    /// Restoring relationships in ascending id order reproduces the
    /// canonical adjacency order of a committed graph (adjacency lists are
    /// insertion-ordered, and at statement boundaries insertion order is id
    /// order).
    pub fn restore_rel(&mut self, id: RelId, data: RelData) -> Result<()> {
        assert!(
            !self.rels.contains_key(&id),
            "restore_rel: {id:?} already exists"
        );
        if !self.nodes.contains_key(&data.src) {
            return Err(GraphError::EndpointMissing { endpoint: data.src });
        }
        if !self.nodes.contains_key(&data.tgt) {
            return Err(GraphError::EndpointMissing { endpoint: data.tgt });
        }
        let is_loop = data.src == data.tgt;
        self.out_adj
            .entry(data.src)
            .or_default()
            .push(id, data.rel_type, is_loop);
        self.in_adj
            .entry(data.tgt)
            .or_default()
            .push(id, data.rel_type, is_loop);
        *self.rel_type_counts.entry(data.rel_type).or_default() += 1;
        self.next_rel = self.next_rel.max(id.0 + 1);
        self.rels.insert(id, data);
        Ok(())
    }

    /// Re-mark entities as formerly-deleted (zombie bookkeeping from a
    /// snapshot).
    pub fn restore_tombstones<N, R>(&mut self, nodes: N, rels: R)
    where
        N: IntoIterator<Item = NodeId>,
        R: IntoIterator<Item = RelId>,
    {
        self.tomb_nodes.extend(nodes);
        self.tomb_rels.extend(rels);
    }

    /// Force the id allocators forward (never backward) to the values a
    /// snapshot recorded, so ids deleted before the snapshot stay retired.
    pub fn restore_next_ids(&mut self, next_node: u64, next_rel: u64) {
        self.next_node = self.next_node.max(next_node);
        self.next_rel = self.next_rel.max(next_rel);
    }

    /// Current id allocator positions, for snapshotting.
    pub fn next_ids(&self) -> (u64, u64) {
        (self.next_node, self.next_rel)
    }

    /// Tombstoned node ids, ascending (for snapshotting).
    pub fn tomb_node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.tomb_nodes.iter().copied()
    }

    /// Tombstoned relationship ids, ascending (for snapshotting).
    pub fn tomb_rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        self.tomb_rels.iter().copied()
    }

    /// The interner, for serializing the symbol table.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    fn undo(&mut self, entry: (DeltaOp, Undo)) {
        match entry {
            (DeltaOp::CreateNode { id, .. }, _) => {
                let Some(data) = self.nodes.remove(&id) else {
                    unreachable!("undo create: node {id} exists");
                };
                self.deindex_node_full(id, &data);
                for &l in &data.labels {
                    if let Some(set) = self.label_index.get_mut(&l) {
                        set.remove(&id);
                    }
                }
                self.out_adj.remove(&id);
                self.in_adj.remove(&id);
                // A node created after the savepoint was never visible
                // before it; it is not a tombstone.
                self.tomb_nodes.remove(&id);
                // Rewind the allocator: undo runs newest-first, so the
                // undone id is always the most recently allocated one.
                // Without this a rolled-back statement permanently skips
                // ids, and a replica replaying only committed statements
                // allocates differently from the primary.
                if id.0 + 1 == self.next_node {
                    self.next_node = id.0;
                }
            }
            (DeltaOp::CreateRel { id, .. }, _) => {
                let Some(data) = self.rels.remove(&id) else {
                    unreachable!("undo create: rel {id} exists");
                };
                let is_loop = data.src == data.tgt;
                if let Some(list) = self.out_adj.get_mut(&data.src) {
                    list.remove(id, data.rel_type, is_loop);
                }
                if let Some(list) = self.in_adj.get_mut(&data.tgt) {
                    list.remove(id, data.rel_type, is_loop);
                }
                self.note_rel_removed(data.rel_type);
                self.tomb_rels.remove(&id);
                // See the CreateNode arm: keep replicas id-faithful.
                if id.0 + 1 == self.next_rel {
                    self.next_rel = id.0;
                }
            }
            (
                DeltaOp::DeleteRel { id },
                Undo::DeletedRel {
                    data,
                    src_pos,
                    tgt_pos,
                },
            ) => {
                let is_loop = data.src == data.tgt;
                if let Some(pos) = src_pos {
                    if let Some(list) = self.out_adj.get_mut(&data.src) {
                        list.insert_at(pos, id, data.rel_type, is_loop, &self.rels);
                    }
                }
                if let Some(pos) = tgt_pos {
                    if let Some(list) = self.in_adj.get_mut(&data.tgt) {
                        list.insert_at(pos, id, data.rel_type, is_loop, &self.rels);
                    }
                }
                *self.rel_type_counts.entry(data.rel_type).or_default() += 1;
                self.rels.insert(id, data);
                self.tomb_rels.remove(&id);
            }
            (DeltaOp::DeleteNode { id }, Undo::DeletedNode { data, out, inc }) => {
                for &l in &data.labels {
                    self.label_index.entry(l).or_default().insert(id);
                }
                self.index_node_full(id, &data);
                self.nodes.insert(id, data);
                // Undo runs newest-first, so every relationship listed here
                // is live again by now; partitions rebuild from their types.
                let out = AdjList::rebuild(out, &self.rels);
                let inc = AdjList::rebuild(inc, &self.rels);
                self.out_adj.insert(id, out);
                self.in_adj.insert(id, inc);
                self.tomb_nodes.remove(&id);
            }
            (DeltaOp::AddLabel { node, label }, _) => {
                if let Some(d) = self.nodes.get_mut(&node) {
                    d.labels.remove(&label);
                }
                if let Some(set) = self.label_index.get_mut(&label) {
                    set.remove(&node);
                }
                self.reindex_label(node, label, false);
            }
            (DeltaOp::RemoveLabel { node, label }, _) => {
                if let Some(d) = self.nodes.get_mut(&node) {
                    d.labels.insert(label);
                }
                self.label_index.entry(label).or_default().insert(node);
                self.reindex_label(node, label, true);
            }
            (DeltaOp::SetProp { entity, key, .. }, Undo::OldValue(old)) => {
                // The entity may have been deleted and restored by an
                // earlier undo step in the same rollback; it must exist now.
                let mut replaced: Option<Value> = None;
                if let Ok(map) = self.props_mut(entity) {
                    replaced = match &old {
                        Some(v) => map.insert(key, v.clone()),
                        None => map.remove(&key),
                    };
                }
                if let EntityRef::Node(n) = entity {
                    if !self.indexes.is_empty() && self.nodes.contains_key(&n) {
                        let labels = self
                            .nodes
                            .get(&n)
                            .map(|d| d.labels.clone())
                            .unwrap_or_default();
                        self.reindex_prop(n, &labels, key, replaced.as_ref(), old.as_ref());
                    }
                }
            }
            // Every deletion and `SetProp` is journaled with its own
            // before-image.
            (redo, _) => unreachable!("{redo:?} journaled without its before-image"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marketplace() -> (PropertyGraph, Vec<NodeId>) {
        let mut g = PropertyGraph::new();
        let product = g.sym("Product");
        let user = g.sym("User");
        let id_k = g.sym("id");
        let name_k = g.sym("name");
        let ordered = g.sym("ORDERED");
        let p1 = g.create_node(
            [product],
            [(id_k, Value::Int(125)), (name_k, Value::str("laptop"))],
        );
        let u1 = g.create_node(
            [user],
            [(id_k, Value::Int(89)), (name_k, Value::str("Bob"))],
        );
        g.create_rel(u1, ordered, p1, []).unwrap();
        (g, vec![p1, u1])
    }

    #[test]
    fn create_and_read_back() {
        let (g, ids) = marketplace();
        let p1 = ids[0];
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.rel_count(), 1);
        let id_k = g.try_sym("id").unwrap();
        assert_eq!(g.prop(p1.into(), id_k), Value::Int(125));
        let product = g.try_sym("Product").unwrap();
        assert_eq!(g.nodes_with_label(product).collect::<Vec<_>>(), vec![p1]);
    }

    #[test]
    fn null_properties_are_not_stored() {
        let mut g = PropertyGraph::new();
        let k = g.sym("id");
        let n = g.create_node([], [(k, Value::Null)]);
        assert!(g.node(n).unwrap().props.is_empty());
        g.set_prop(n.into(), k, Value::Int(1)).unwrap();
        g.set_prop(n.into(), k, Value::Null).unwrap();
        assert!(g.node(n).unwrap().props.is_empty());
        assert_eq!(g.prop(n.into(), k), Value::Null);
    }

    #[test]
    fn non_storable_property_rejected() {
        let mut g = PropertyGraph::new();
        let k = g.sym("bad");
        let n = g.create_node([], []);
        let err = g
            .set_prop(n.into(), k, Value::Map(Default::default()))
            .unwrap_err();
        assert!(matches!(err, GraphError::InvalidPropertyValue { .. }));
        let err = g
            .set_prop(n.into(), k, Value::list([Value::Node(n)]))
            .unwrap_err();
        assert!(matches!(err, GraphError::InvalidPropertyValue { .. }));
    }

    #[test]
    fn strict_delete_fails_with_attached_rels() {
        let (mut g, ids) = marketplace();
        let err = g.delete_node(ids[0], DeleteNodeMode::Strict).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NodeStillHasRelationships { attached: 1, .. }
        ));
    }

    #[test]
    fn detach_delete_cascades() {
        let (mut g, ids) = marketplace();
        let cascaded = g.delete_node(ids[0], DeleteNodeMode::Detach).unwrap();
        assert_eq!(cascaded.len(), 1);
        assert_eq!(g.rel_count(), 0);
        assert_eq!(g.node_count(), 1);
        g.integrity_check().unwrap();
    }

    #[test]
    fn force_delete_leaves_dangling_rel() {
        let (mut g, ids) = marketplace();
        g.delete_node(ids[0], DeleteNodeMode::Force).unwrap();
        assert_eq!(g.rel_count(), 1);
        let dangling = g.dangling_rels();
        assert_eq!(dangling.len(), 1);
        assert!(g.integrity_check().is_err());
        assert!(g.is_zombie(ids[0].into()));
        // Zombie reads are empty / null.
        assert_eq!(g.prop(ids[0].into(), g.try_sym("id").unwrap()), Value::Null);
        assert!(g.labels(ids[0]).is_empty());
    }

    #[test]
    fn rel_to_missing_endpoint_rejected() {
        let mut g = PropertyGraph::new();
        let t = g.sym("KNOWS");
        let a = g.create_node([], []);
        let err = g.create_rel(a, t, NodeId(999), []).unwrap_err();
        assert_eq!(
            err,
            GraphError::EndpointMissing {
                endpoint: NodeId(999)
            }
        );
    }

    #[test]
    fn self_loop_counted_once_in_either_direction() {
        let mut g = PropertyGraph::new();
        let t = g.sym("LOOP");
        let a = g.create_node([], []);
        let r = g.create_rel(a, t, a, []).unwrap();
        assert_eq!(g.rels_of(a, Direction::Either), vec![r]);
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.rels_of(a, Direction::Outgoing), vec![r]);
        assert_eq!(g.rels_of(a, Direction::Incoming), vec![r]);
    }

    #[test]
    fn label_add_remove_keeps_index_consistent() {
        let mut g = PropertyGraph::new();
        let l = g.sym("User");
        let n = g.create_node([], []);
        assert!(g.add_label(n, l).unwrap());
        assert!(!g.add_label(n, l).unwrap());
        assert_eq!(g.nodes_with_label(l).count(), 1);
        assert!(g.remove_label(n, l).unwrap());
        assert!(!g.remove_label(n, l).unwrap());
        assert_eq!(g.nodes_with_label(l).count(), 0);
    }

    #[test]
    fn rollback_restores_everything() {
        let (mut g, ids) = marketplace();
        let before = g.clone();
        let sp = g.savepoint();

        let id_k = g.sym("id");
        let vendor = g.sym("Vendor");
        let offers = g.sym("OFFERS");
        let v = g.create_node([vendor], [(id_k, Value::Int(60))]);
        g.create_rel(v, offers, ids[0], []).unwrap();
        g.set_prop(ids[0].into(), id_k, Value::Int(999)).unwrap();
        g.add_label(ids[1], vendor).unwrap();
        g.delete_node(ids[0], DeleteNodeMode::Force).unwrap();

        g.rollback_to(sp);

        assert_eq!(g.node_count(), before.node_count());
        assert_eq!(g.rel_count(), before.rel_count());
        assert_eq!(g.node(ids[0]), before.node(ids[0]));
        assert_eq!(g.node(ids[1]), before.node(ids[1]));
        assert!(!g.is_zombie(ids[0].into()));
        g.integrity_check().unwrap();
        assert_eq!(g.nodes_with_label(vendor).count(), 0);
    }

    #[test]
    fn rollback_restores_adjacency_order() {
        let mut g = PropertyGraph::new();
        let t = g.sym("T");
        let a = g.create_node([], []);
        let b = g.create_node([], []);
        let r1 = g.create_rel(a, t, b, []).unwrap();
        let r2 = g.create_rel(a, t, b, []).unwrap();
        let r3 = g.create_rel(a, t, b, []).unwrap();
        let sp = g.savepoint();
        g.delete_rel(r2).unwrap();
        assert_eq!(g.rels_of(a, Direction::Outgoing), vec![r1, r3]);
        g.rollback_to(sp);
        assert_eq!(g.rels_of(a, Direction::Outgoing), vec![r1, r2, r3]);
    }

    #[test]
    fn commit_at_root_clears_journal() {
        let (mut g, _) = marketplace();
        assert!(g.journal_len() > 0);
        g.commit(Savepoint(0));
        assert_eq!(g.journal_len(), 0);
    }

    #[test]
    fn replace_props_removes_stale_keys() {
        let mut g = PropertyGraph::new();
        let a_k = g.sym("a");
        let b_k = g.sym("b");
        let n = g.create_node([], [(a_k, Value::Int(1)), (b_k, Value::Int(2))]);
        let mut new = PropertyMap::new();
        new.insert(b_k, Value::Int(20));
        g.replace_props(n.into(), new).unwrap();
        assert_eq!(g.prop(n.into(), a_k), Value::Null);
        assert_eq!(g.prop(n.into(), b_k), Value::Int(20));
    }

    #[test]
    fn merge_props_keeps_absent_keys() {
        let mut g = PropertyGraph::new();
        let a_k = g.sym("a");
        let b_k = g.sym("b");
        let n = g.create_node([], [(a_k, Value::Int(1))]);
        let mut extra = PropertyMap::new();
        extra.insert(b_k, Value::Int(2));
        g.merge_props(n.into(), extra).unwrap();
        assert_eq!(g.prop(n.into(), a_k), Value::Int(1));
        assert_eq!(g.prop(n.into(), b_k), Value::Int(2));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut g = PropertyGraph::new();
        let a = g.create_node([], []);
        g.delete_node(a, DeleteNodeMode::Strict).unwrap();
        let b = g.create_node([], []);
        assert_ne!(a, b);
    }

    #[test]
    fn delete_rel_then_node_strict_succeeds() {
        let (mut g, ids) = marketplace();
        let rels = g.rels_of(ids[0], Direction::Either);
        for r in rels {
            g.delete_rel(r).unwrap();
        }
        g.delete_node(ids[0], DeleteNodeMode::Strict).unwrap();
        g.integrity_check().unwrap();
    }

    /// Check `rels_iter`/`rels_typed`/`degree` against the reference
    /// `rels_of` on every node and direction.
    fn check_adjacency_consistency(g: &PropertyGraph) {
        use Direction::*;
        let types: Vec<Symbol> = g.rel_type_counts().map(|(t, _)| t).collect();
        for n in g.node_ids() {
            for dir in [Outgoing, Incoming, Either] {
                let reference = g.rels_of(n, dir);
                assert_eq!(g.rels_iter(n, dir).collect::<Vec<_>>(), reference);
                for &ty in &types {
                    let filtered: Vec<RelId> = reference
                        .iter()
                        .copied()
                        .filter(|r| g.rel(*r).map(|d| d.rel_type == ty).unwrap_or(false))
                        .collect();
                    assert_eq!(g.rels_typed(n, dir, ty).collect::<Vec<_>>(), filtered);
                }
            }
            assert_eq!(g.degree(n), g.rels_of(n, Either).len());
        }
    }

    #[test]
    fn typed_partitions_match_filtered_adjacency() {
        let mut g = PropertyGraph::new();
        let a_t = g.sym("A");
        let b_t = g.sym("B");
        let n1 = g.create_node([], []);
        let n2 = g.create_node([], []);
        g.create_rel(n1, a_t, n2, []).unwrap();
        g.create_rel(n1, b_t, n2, []).unwrap();
        let r3 = g.create_rel(n2, a_t, n1, []).unwrap();
        g.create_rel(n1, a_t, n1, []).unwrap(); // self-loop
        g.create_rel(n1, a_t, n2, []).unwrap();
        check_adjacency_consistency(&g);
        g.delete_rel(r3).unwrap();
        check_adjacency_consistency(&g);
    }

    #[test]
    fn partitions_survive_rollback() {
        let mut g = PropertyGraph::new();
        let a_t = g.sym("A");
        let b_t = g.sym("B");
        let n1 = g.create_node([], []);
        let n2 = g.create_node([], []);
        let r1 = g.create_rel(n1, a_t, n2, []).unwrap();
        let r2 = g.create_rel(n1, b_t, n2, []).unwrap();
        let r3 = g.create_rel(n1, a_t, n2, []).unwrap();
        let sp = g.savepoint();
        g.delete_rel(r1).unwrap();
        g.create_rel(n1, a_t, n2, []).unwrap();
        g.delete_node(n2, DeleteNodeMode::Detach).unwrap();
        g.rollback_to(sp);
        check_adjacency_consistency(&g);
        assert_eq!(g.rels_of(n1, Direction::Outgoing), vec![r1, r2, r3]);
        assert_eq!(
            g.rels_typed(n1, Direction::Outgoing, a_t)
                .collect::<Vec<_>>(),
            vec![r1, r3]
        );
        assert_eq!(g.rel_type_count(a_t), 2);
        assert_eq!(g.rel_type_count(b_t), 1);
    }

    #[test]
    fn self_loop_rollback_keeps_loop_count() {
        let mut g = PropertyGraph::new();
        let t = g.sym("LOOP");
        let a = g.create_node([], []);
        let r = g.create_rel(a, t, a, []).unwrap();
        let sp = g.savepoint();
        g.delete_rel(r).unwrap();
        assert_eq!(g.degree(a), 0);
        g.rollback_to(sp);
        assert_eq!(g.degree(a), 1);
        check_adjacency_consistency(&g);
        let sp2 = g.savepoint();
        g.delete_node(a, DeleteNodeMode::Detach).unwrap();
        g.rollback_to(sp2);
        assert_eq!(g.degree(a), 1);
        check_adjacency_consistency(&g);
    }

    #[test]
    fn rel_type_counts_track_mutations() {
        let (mut g, ids) = marketplace();
        let ordered = g.try_sym("ORDERED").unwrap();
        assert_eq!(g.rel_type_count(ordered), 1);
        let sp = g.savepoint();
        g.delete_node(ids[1], DeleteNodeMode::Detach).unwrap();
        assert_eq!(g.rel_type_count(ordered), 0);
        g.rollback_to(sp);
        assert_eq!(g.rel_type_count(ordered), 1);
        assert_eq!(g.rel_type_counts().collect::<Vec<_>>(), vec![(ordered, 1)]);
    }

    #[test]
    fn label_counts_skip_emptied_labels() {
        let mut g = PropertyGraph::new();
        let l = g.sym("User");
        let n = g.create_node([l], []);
        assert_eq!(g.label_count(l), 1);
        g.remove_label(n, l).unwrap();
        assert_eq!(g.label_count(l), 0);
        assert!(g.label_counts().next().is_none());
    }

    #[test]
    fn index_counters_and_selectivity() {
        let mut g = PropertyGraph::new();
        let user = g.sym("User");
        let id_k = g.sym("id");
        for i in 0..4 {
            g.create_node([user], [(id_k, Value::Int(i))]);
        }
        g.create_index(user, id_k);
        assert_eq!(g.index_selectivity(user, id_k), Some(1.0));
        assert_eq!(g.index_bucket_size(user, id_k, &Value::Int(2)), Some(1));
        g.index_lookup(user, id_k, &Value::Int(2)).unwrap();
        g.index_lookup(user, id_k, &Value::Int(99)).unwrap();
        let stats = g.index_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].entries, 4);
        assert_eq!(stats[0].distinct, 4);
        assert_eq!(stats[0].hits, 1);
        assert_eq!(stats[0].misses, 1);
        // Estimation probes do not count.
        g.index_bucket_size(user, id_k, &Value::Int(3));
        assert_eq!(g.index_stats()[0].hits, 1);
    }

    #[test]
    fn nested_savepoints() {
        let mut g = PropertyGraph::new();
        let outer = g.savepoint();
        let a = g.create_node([], []);
        let inner = g.savepoint();
        let b = g.create_node([], []);
        g.rollback_to(inner);
        assert!(g.contains_node(a));
        assert!(!g.contains_node(b));
        g.rollback_to(outer);
        assert!(!g.contains_node(a));
        assert_eq!(g.node_count(), 0);
    }
}
