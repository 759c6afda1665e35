//! Incremental view maintenance over committed statement deltas.
//!
//! This crate implements ROADMAP item 4: delta-driven maintenance of
//! registered read-only Cypher queries (Szárnyas, *Incremental View
//! Maintenance for Property Graph Queries*, arXiv 1712.04108 — the
//! Rete/TREAT family), consuming the same committed [`Delta`] stream that
//! feeds the WAL.
//!
//! The crate defines no mutation vocabulary of its own: [`Delta`] and
//! [`apply_delta`] are `cypher-graph`'s (re-exported here for the feed's
//! callers), the one owned spelling of the seven primitive mutations and
//! the one replay function crash recovery also uses.
//!
//! The design (DESIGN.md §15) in one paragraph: a [`ViewManager`] owns a
//! *shadow graph* — a clone of the durable graph kept in lock-step by
//! replaying each committed statement's [`Delta`] ops through
//! [`apply_delta`] — plus one [compiled view](view) per registered query.
//! A maintainable query
//! (single `MATCH`/`WHERE`/`RETURN`, see [`view`]) keeps a TREAT-style
//! match memory keyed by the complete variable→entity binding, with a
//! reverse index from entity id to matches; each delta op removes affected
//! matches through the index and re-enumerates through the touched entity
//! by *pinning* it into the ordinary matcher. Everything else transparently
//! falls back to full re-evaluation against the post-statement shadow, so
//! registration never fails on query shape. Either way each statement
//! yields a minimal row-level add/remove delta whose accumulated state is
//! byte-identical to a fresh evaluation on the published snapshot — the
//! differential oracle enforced by this crate's property tests and the
//! `ivm` oracle of `cypher-fuzz`.
//!
//! Statement-boundary atomicity carries over for free: deltas arrive one
//! committed statement at a time (flushed strictly after the group-commit
//! fsync), so a subscriber can never observe a mid-statement state or a
//! dangling relationship — the revised engine's commit-time integrity
//! check ran before the delta was ever produced.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod view;

pub use cypher_graph::{apply_delta, Delta};
pub use view::{Registered, ViewStat, ViewUpdate};

use std::collections::BTreeMap;

use cypher_core::{Engine, EvalError, LintMode};
use cypher_graph::PropertyGraph;

use view::{View, ViewScratch};

/// All registered views over one shadow graph.
///
/// The owner must feed **every** committed statement delta, in commit
/// order, through [`apply_statement`](ViewManager::apply_statement) —
/// the shadow graph replays them to stay bit-for-bit the committed graph
/// (ids, adjacency order and all), which is what lets the match memories
/// pin entities by id.
pub struct ViewManager {
    shadow: PropertyGraph,
    views: BTreeMap<u64, View>,
    next_id: u64,
    /// Commit sequence of the last applied statement (0 initially).
    seq: u64,
}

impl ViewManager {
    /// Start from a clone of the committed graph. The clone's delta
    /// capture is disabled: the shadow is a consumer of deltas, not a
    /// producer.
    pub fn new(committed: &PropertyGraph, seq: u64) -> ViewManager {
        let mut shadow = committed.clone();
        shadow.disable_delta_capture();
        ViewManager {
            shadow,
            views: BTreeMap::new(),
            next_id: 1,
            seq,
        }
    }

    /// The shadow graph (the state as of the last applied statement).
    pub fn shadow(&self) -> &PropertyGraph {
        &self.shadow
    }

    /// Sequence number of the last applied statement.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Register `text` as a live view under `engine`'s dialect, lint mode,
    /// parameters and match mode. Fails exactly when a plain read of the
    /// same statement would fail (parse, validation, lint `Deny`,
    /// read-only violation, budget trip); an unmaintainable shape instead
    /// registers as a fallback view. Maintenance itself runs with lint
    /// `Off` — the statement was gated once, here.
    pub fn register(&mut self, text: &str, engine: &Engine) -> Result<Registered, EvalError> {
        let initial = engine.run_read(&self.shadow, text)?;
        let mut maint = engine.clone();
        maint.lint_mode = LintMode::Off;
        let id = self.next_id;
        self.next_id += 1;
        let view = View::build(
            id,
            text,
            &maint,
            &self.shadow,
            &initial.rows,
            initial.columns,
        );
        let registered = Registered {
            id,
            columns: view.columns.clone(),
            fallback: !view.incremental(),
            rows: view.sorted_rows(),
        };
        self.views.insert(id, view);
        Ok(registered)
    }

    /// Drop a view. Returns `false` when the id is unknown.
    pub fn unregister(&mut self, id: u64) -> bool {
        self.views.remove(&id).is_some()
    }

    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Current rows of a view, sorted (`None` for an unknown id).
    pub fn rows(&self, id: u64) -> Option<Vec<(Vec<cypher_graph::Value>, u64)>> {
        self.views.get(&id).map(View::sorted_rows)
    }

    /// The last evaluation error of a view, if it is currently broken.
    pub fn last_error(&self, id: u64) -> Option<String> {
        self.views.get(&id).and_then(|v| v.last_error.clone())
    }

    /// Per-view counters for `Stats`.
    pub fn stats(&self) -> Vec<ViewStat> {
        self.views.values().map(View::stat).collect()
    }

    /// Apply one committed statement's delta: replay it on the shadow
    /// (op-at-a-time, with each view's memory adjusted against the pre- and
    /// post-op states) and emit one row-level [`ViewUpdate`] per view whose
    /// rows changed. `Err` means the delta stream and the shadow disagree —
    /// corruption, the caller should discard the manager.
    pub fn apply_statement(&mut self, seq: u64, ops: &[Delta]) -> Result<Vec<ViewUpdate>, String> {
        self.seq = seq;
        if ops.is_empty() {
            // A read-only or rolled-back statement cannot move any view.
            return Ok(Vec::new());
        }
        let mut scratches: BTreeMap<u64, ViewScratch> = self
            .views
            .keys()
            .map(|&id| (id, ViewScratch::default()))
            .collect();
        let root = self.shadow.savepoint();
        for op in ops {
            for (id, view) in self.views.iter_mut() {
                if let Some(scratch) = scratches.get_mut(id) {
                    view.before_op(op, scratch);
                }
            }
            let detached = apply_delta(&mut self.shadow, op)?;
            for (id, view) in self.views.iter_mut() {
                if let Some(scratch) = scratches.get_mut(id) {
                    if let Err(e) = view.after_op(&self.shadow, op, &detached, scratch) {
                        // Demote: the fallback pass at statement end
                        // re-evaluates from scratch.
                        view.demote(e.to_string());
                    }
                }
            }
        }
        // Replay is not undoable; drop the journal entries it accumulated.
        self.shadow.commit(root);
        let mut updates = Vec::new();
        for (id, view) in self.views.iter_mut() {
            let scratch = scratches.remove(id).unwrap_or_default();
            let update = if view.incremental() {
                view.finish_statement(&self.shadow, seq, scratch)
            } else {
                view.fallback_statement(&self.shadow, seq, None)
            };
            if !update.is_empty() {
                updates.push(update);
            }
        }
        Ok(updates)
    }
}
