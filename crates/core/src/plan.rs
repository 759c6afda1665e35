//! Cost-based physical planning for `MATCH` / `OPTIONAL MATCH` / `MERGE`.
//!
//! The semantics of §8.1 fix *what* a pattern list matches and the
//! documented determinism contract of [`crate::pattern`] fixes the *order*
//! of the results; neither fixes the enumeration strategy. This module
//! picks a cheaper strategy using the store's live cardinality statistics
//! and leaves both invariants intact:
//!
//! * **Anchor choice** — each path pattern is entered at its cheapest end:
//!   a bound variable ≺ a property-index probe ≺ a label scan ≺ a full
//!   scan, weighted by live counts. Entering at the far end executes the
//!   pattern *reversed* (every step direction flipped).
//! * **Conjunct reordering** — the patterns of one clause are executed in
//!   ascending order of estimated cardinality, greedily, so selective
//!   patterns bind their variables before expensive ones run.
//! * **Order restoration** — a plan that deviates from the naive strategy
//!   tags every result with a *naive-order key* (see below) and sorts by
//!   it, so the emitted table is byte-identical to naive execution.
//!
//! ## The naive-order key
//!
//! Naive enumeration is a nested DFS whose candidate sources are all
//! ascending: start candidates ascend by node id (index probes, label
//! scans and full scans all come out of `BTree` maps/sets), and adjacency
//! lists ascend by relationship id, out-list before in-list for undirected
//! steps. Hence the naive emission order of one pattern is the ascending
//! lexicographic order of the token sequence
//!
//! ```text
//! (0, start node id) · step tokens…
//! fixed step      → (2 + class, rel id)     class 0 = via out-list, 1 = via in-list
//! var-length step → rel tokens… · (1, 0)    terminator < every rel token
//! ```
//!
//! and the order of a conjunction is lexicographic over the patterns in
//! written order (outer loop first). The terminator token makes a closed
//! var-length segment sort before its own extensions (the DFS closes
//! before it expands); two distinct results always diverge at a token
//! drawn from the same candidate enumeration, so sorting by key
//! reconstructs exactly the naive order. The planner records these keys
//! for the *written* pattern orientation while executing the transformed
//! one — reversal is restricted to fixed-length patterns so the key can be
//! rebuilt from the traversed path.
//!
//! Pattern reordering and reversal preserve the result *multiset* because
//! edge-isomorphism (all relationship bindings pairwise distinct) is a
//! symmetric constraint and variable bindings form a join, which commutes.
//! `shortestPath` clauses are never planned: their BFS order is not
//! covered by the key scheme.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cypher_graph::{PropertyGraph, Symbol, Value};
use cypher_parser::ast::{Expr, NodePattern, PathPattern, RelDirection, RelPattern};

use crate::eval::{eval, EvalCtx};
use crate::table::Record;

/// How a planned pattern finds its first node.
#[derive(Clone, Debug, PartialEq)]
pub enum Anchor {
    /// The anchor variable is already bound in the driving table.
    BoundVar(String),
    /// Probe a property index `(label, key = value)`.
    IndexProbe { label: String, key: String },
    /// Scan the label index (the smallest label of the pattern).
    LabelScan { label: String },
    /// Scan every node.
    FullScan,
}

impl fmt::Display for Anchor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anchor::BoundVar(v) => write!(f, "bound variable `{v}`"),
            Anchor::IndexProbe { label, key } => write!(f, "index probe (:{label}({key}))"),
            Anchor::LabelScan { label } => write!(f, "label scan (:{label})"),
            Anchor::FullScan => write!(f, "all-nodes scan"),
        }
    }
}

/// Per-pattern plan metadata, parallel to [`ClausePlan::pats`].
#[derive(Clone, Debug)]
pub struct PatMeta {
    /// Position of this pattern in the clause as written.
    pub orig: usize,
    /// Executed back-to-front (anchor is the written pattern's last node).
    pub reversed: bool,
    /// Access path of the anchor node.
    pub anchor: Anchor,
    /// Estimated anchor candidates.
    pub anchor_est: f64,
    /// Estimated rows this pattern contributes per input row.
    pub est_rows: f64,
    /// Step directions of the *written* pattern, for key reconstruction.
    pub orig_dirs: Vec<RelDirection>,
}

/// Physical plan for one clause's pattern list.
#[derive(Clone, Debug)]
pub struct ClausePlan {
    /// Patterns in execution order; reversed ones are already flipped.
    pub pats: Vec<PathPattern>,
    /// Metadata parallel to `pats`.
    pub meta: Vec<PatMeta>,
    /// Execution order and orientation coincide with the naive strategy —
    /// no key tracking or re-sort needed.
    pub identity: bool,
}

/// Plan the pattern list of one clause. `bound_cols` are the driving-table
/// columns in scope (every record of a table binds the same variables).
/// Returns `None` for clauses the planner must leave to the naive matcher
/// (any `shortestPath` / `allShortestPaths` pattern).
pub fn plan_clause(
    graph: &PropertyGraph,
    params: &BTreeMap<String, Value>,
    patterns: &[PathPattern],
    bound_cols: &[String],
) -> Option<ClausePlan> {
    if patterns.iter().any(|p| p.shortest.is_some()) {
        return None;
    }
    let ctx = EvalCtx::new(graph, params);
    let mut bound: BTreeSet<String> = bound_cols.iter().cloned().collect();
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    let mut pats = Vec::with_capacity(patterns.len());
    let mut meta = Vec::with_capacity(patterns.len());

    while !remaining.is_empty() {
        // Greedily take the cheapest remaining pattern given what is bound
        // so far. Ties keep the earliest written pattern (determinism).
        let mut best: Option<(usize, Candidate)> = None;
        for (slot, &pi) in remaining.iter().enumerate() {
            let cand = best_orientation(graph, &ctx, &patterns[pi], &bound);
            if best
                .as_ref()
                .map(|(_, b)| cand.est_rows < b.est_rows)
                .unwrap_or(true)
            {
                best = Some((slot, cand));
            }
        }
        let Some((slot, cand)) = best else {
            unreachable!("the loop over a non-empty `remaining` always picks a candidate");
        };
        let pi = remaining.remove(slot);
        let p = &patterns[pi];
        for v in single_pattern_vars(p) {
            bound.insert(v);
        }
        pats.push(if cand.reversed {
            reverse_pattern(p)
        } else {
            p.clone()
        });
        meta.push(PatMeta {
            orig: pi,
            reversed: cand.reversed,
            anchor: cand.anchor,
            anchor_est: cand.anchor_est,
            est_rows: cand.est_rows,
            orig_dirs: p.steps.iter().map(|(r, _)| r.direction).collect(),
        });
    }

    let identity = meta
        .iter()
        .enumerate()
        .all(|(i, m)| m.orig == i && !m.reversed);
    Some(ClausePlan {
        pats,
        meta,
        identity,
    })
}

struct Candidate {
    reversed: bool,
    anchor: Anchor,
    anchor_est: f64,
    est_rows: f64,
}

/// Where the naive matcher enters each of `patterns`, in written order:
/// each pattern binds its variables for the ones after it. `EXPLAIN`
/// prints these for clauses that run unplanned.
pub(crate) fn naive_anchors(
    graph: &PropertyGraph,
    params: &BTreeMap<String, Value>,
    patterns: &[PathPattern],
    bound_cols: &[String],
) -> Vec<Anchor> {
    let ctx = EvalCtx::new(graph, params);
    let mut bound: BTreeSet<String> = bound_cols.iter().cloned().collect();
    patterns
        .iter()
        .map(|p| {
            let (anchor, _) = anchor_for(graph, &ctx, &p.start, &bound);
            bound.extend(single_pattern_vars(p));
            anchor
        })
        .collect()
}

/// Pick forward or reversed execution for one pattern: whichever end has
/// the cheaper anchor wins (strictly — ties stay forward/naive).
fn best_orientation(
    g: &PropertyGraph,
    ctx: &EvalCtx<'_>,
    p: &PathPattern,
    bound: &BTreeSet<String>,
) -> Candidate {
    let fanout = pattern_fanout(g, p);
    let (anchor, anchor_est) = anchor_for(g, ctx, &p.start, bound);
    let mut cand = Candidate {
        reversed: false,
        anchor,
        anchor_est,
        est_rows: anchor_est * fanout,
    };
    if reversible(p) {
        let Some(last_step) = p.steps.last() else {
            unreachable!("reversible patterns have at least one step");
        };
        let end = &last_step.1;
        let (ra, re) = anchor_for(g, ctx, end, bound);
        if re < cand.anchor_est {
            cand = Candidate {
                reversed: true,
                anchor: ra,
                anchor_est: re,
                est_rows: re * fanout,
            };
        }
    }
    cand
}

/// Reversal is only planned for patterns whose naive-order key can be
/// rebuilt from the traversed path: at least one step, all fixed-length.
fn reversible(p: &PathPattern) -> bool {
    !p.steps.is_empty() && p.steps.iter().all(|(r, _)| r.length.is_none())
}

/// How a node pattern finds its candidate nodes: the one access-path rule,
/// shared by the planner's estimates, `EXPLAIN` and the matcher's fetch
/// (`Matcher::node_candidates`). The order is fixed: a bound variable ≺
/// the first indexed `(label, key)` in written order ≺ a label never
/// interned (no node carries it) ≺ the smallest label ≺ every node.
/// Whichever path is taken, the matcher re-checks every label and
/// property, so all of them yield the same ascending candidate set.
pub(crate) enum AccessPath<'p> {
    Bound(&'p str),
    Probe {
        label: &'p str,
        key: &'p str,
        lsym: Symbol,
        ksym: Symbol,
        value: &'p Expr,
    },
    Empty(&'p str),
    LabelScan {
        label: &'p str,
        sym: Symbol,
        count: usize,
    },
    FullScan,
}

/// The access path for `np`; `bound` says whether its variable is bound.
pub(crate) fn access_path<'p>(
    g: &PropertyGraph,
    np: &'p NodePattern,
    bound: bool,
) -> AccessPath<'p> {
    if let Some(v) = np.var.as_deref().filter(|_| bound) {
        return AccessPath::Bound(v);
    }
    let mut smallest: Option<AccessPath<'p>> = None;
    for label in &np.labels {
        let Some(lsym) = g.try_sym(label) else {
            return AccessPath::Empty(label);
        };
        for (key, value) in &np.props {
            match g.try_sym(key) {
                Some(ksym) if g.has_index(lsym, ksym) => {
                    return AccessPath::Probe {
                        label,
                        key,
                        lsym,
                        ksym,
                        value,
                    }
                }
                _ => {}
            }
        }
        // The smallest label so far; ties keep the first written.
        let count = g.label_count(lsym);
        if !matches!(smallest, Some(AccessPath::LabelScan { count: c, .. }) if c <= count) {
            smallest = Some(AccessPath::LabelScan {
                label,
                sym: lsym,
                count,
            });
        }
    }
    smallest.unwrap_or(AccessPath::FullScan)
}

/// The public [`Anchor`] of anchoring at `np`, with its estimated
/// candidate count.
fn anchor_for(
    g: &PropertyGraph,
    ctx: &EvalCtx<'_>,
    np: &NodePattern,
    bound: &BTreeSet<String>,
) -> (Anchor, f64) {
    let is_bound = np.var.as_ref().is_some_and(|v| bound.contains(v));
    match access_path(g, np, is_bound) {
        AccessPath::Bound(v) => (Anchor::BoundVar(v.to_owned()), 1.0),
        AccessPath::Probe {
            label,
            key,
            lsym,
            ksym,
            value,
        } => {
            // Constant and parameter probe values give an exact bucket
            // size; record-dependent expressions fall back to the index's
            // average selectivity.
            let est = match eval(ctx, &Record::new(), value) {
                Ok(v) => g.index_bucket_size(lsym, ksym, &v).unwrap_or(0) as f64,
                Err(_) => g.index_selectivity(lsym, ksym).unwrap_or(1.0),
            };
            let (label, key) = (label.to_owned(), key.to_owned());
            (Anchor::IndexProbe { label, key }, est)
        }
        AccessPath::Empty(label) => (
            Anchor::LabelScan {
                label: label.to_owned(),
            },
            0.0,
        ),
        AccessPath::LabelScan { label, count, .. } => (
            Anchor::LabelScan {
                label: label.to_owned(),
            },
            count as f64,
        ),
        AccessPath::FullScan => (Anchor::FullScan, g.node_count() as f64),
    }
}

/// Estimated branching factor of one relationship step: live rels of the
/// step's type(s) per node, doubled for undirected steps, compounded for
/// var-length steps (capped depth keeps the estimate finite).
fn step_fanout(g: &PropertyGraph, rp: &RelPattern) -> f64 {
    let n = g.node_count().max(1) as f64;
    let total: f64 = if rp.types.is_empty() {
        g.rel_count() as f64
    } else {
        rp.types
            .iter()
            .filter_map(|t| g.try_sym(t))
            .map(|s| g.rel_type_count(s) as f64)
            .sum()
    };
    let per_hop = match rp.direction {
        RelDirection::Undirected => 2.0 * total / n,
        _ => total / n,
    };
    match rp.length {
        None => per_hop,
        Some(l) => {
            let depth = l.min.unwrap_or(1).clamp(1, 4);
            per_hop.max(1.0).powi(depth as i32)
        }
    }
}

fn pattern_fanout(g: &PropertyGraph, p: &PathPattern) -> f64 {
    p.steps
        .iter()
        .map(|(r, _)| step_fanout(g, r))
        .product::<f64>()
}

/// Variables introduced by one pattern (node, relationship and path).
fn single_pattern_vars(p: &PathPattern) -> BTreeSet<String> {
    crate::exec::read::pattern_variables(std::slice::from_ref(p))
}

/// The same path pattern written back-to-front: last node becomes the
/// start, steps reverse, every direction flips.
fn reverse_pattern(p: &PathPattern) -> PathPattern {
    let mut nodes: Vec<&NodePattern> = Vec::with_capacity(p.steps.len() + 1);
    nodes.push(&p.start);
    let mut rels: Vec<&RelPattern> = Vec::with_capacity(p.steps.len());
    for (r, n) in &p.steps {
        rels.push(r);
        nodes.push(n);
    }
    let Some(&last_node) = nodes.last() else {
        unreachable!("`nodes` starts with the pattern start node");
    };
    let start = last_node.clone();
    let mut steps = Vec::with_capacity(rels.len());
    for i in (0..rels.len()).rev() {
        let mut r = rels[i].clone();
        r.direction = match r.direction {
            RelDirection::Outgoing => RelDirection::Incoming,
            RelDirection::Incoming => RelDirection::Outgoing,
            RelDirection::Undirected => RelDirection::Undirected,
        };
        steps.push((r, nodes[i].clone()));
    }
    PathPattern {
        var: p.var.clone(),
        shortest: None,
        start,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::ast::Clause;

    fn patterns_of(query: &str) -> Vec<PathPattern> {
        let q = cypher_parser::parse(query).unwrap();
        match &q.first.clauses[0] {
            Clause::Match { patterns, .. } => patterns.clone(),
            Clause::Merge { patterns, .. } => patterns.clone(),
            _ => panic!("expected MATCH/MERGE"),
        }
    }

    fn indexed_graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let user = g.sym("User");
        let product = g.sym("Product");
        let ordered = g.sym("ORDERED");
        let id_k = g.sym("id");
        let products: Vec<_> = (0..50)
            .map(|i| g.create_node([product], [(id_k, Value::Int(i))]))
            .collect();
        for i in 0..10 {
            let u = g.create_node([user], [(id_k, Value::Int(i))]);
            g.create_rel(u, ordered, products[(i as usize) % 50], [])
                .unwrap();
        }
        g.create_index(user, id_k);
        g
    }

    #[test]
    fn planner_reverses_to_reach_an_index() {
        let g = indexed_graph();
        let params = BTreeMap::new();
        let pats = patterns_of("MATCH (p:Product)<-[:ORDERED]-(u:User {id: 3}) RETURN p");
        let plan = plan_clause(&g, &params, &pats, &[]).unwrap();
        assert!(!plan.identity);
        assert!(plan.meta[0].reversed);
        assert_eq!(
            plan.meta[0].anchor,
            Anchor::IndexProbe {
                label: "User".into(),
                key: "id".into()
            }
        );
        assert_eq!(plan.meta[0].anchor_est, 1.0);
        // The executed pattern starts at the written pattern's end, with
        // the step direction flipped.
        assert_eq!(plan.pats[0].start.var.as_deref(), Some("u"));
        assert_eq!(plan.pats[0].steps[0].0.direction, RelDirection::Outgoing);
    }

    #[test]
    fn planner_orders_conjuncts_by_estimate() {
        let g = indexed_graph();
        let params = BTreeMap::new();
        let pats = patterns_of("MATCH (p:Product), (u:User {id: 3}) RETURN p, u");
        let plan = plan_clause(&g, &params, &pats, &[]).unwrap();
        assert!(!plan.identity);
        // The selective index probe runs first, the label scan second.
        assert_eq!(plan.meta[0].orig, 1);
        assert_eq!(plan.meta[1].orig, 0);
    }

    #[test]
    fn bound_variables_beat_every_scan() {
        let g = indexed_graph();
        let params = BTreeMap::new();
        let pats = patterns_of("MATCH (p:Product)<-[:ORDERED]-(u) RETURN p");
        let plan = plan_clause(&g, &params, &pats, &["u".to_owned()]).unwrap();
        assert!(plan.meta[0].reversed);
        assert_eq!(plan.meta[0].anchor, Anchor::BoundVar("u".into()));
    }

    #[test]
    fn identity_when_naive_is_already_cheapest() {
        let g = indexed_graph();
        let params = BTreeMap::new();
        let pats = patterns_of("MATCH (u:User {id: 3})-[:ORDERED]->(p:Product) RETURN p");
        let plan = plan_clause(&g, &params, &pats, &[]).unwrap();
        assert!(plan.identity);
        assert!(!plan.meta[0].reversed);
    }

    #[test]
    fn shortest_path_clauses_are_not_planned() {
        let g = indexed_graph();
        let params = BTreeMap::new();
        let pats = patterns_of("MATCH p = shortestPath((a:User)-[*]->(b:Product)) RETURN p");
        assert!(plan_clause(&g, &params, &pats, &[]).is_none());
    }

    #[test]
    fn varlen_patterns_never_reverse() {
        let g = indexed_graph();
        let params = BTreeMap::new();
        let pats = patterns_of("MATCH (p:Product)<-[:ORDERED*1..2]-(u:User {id: 3}) RETURN p");
        let plan = plan_clause(&g, &params, &pats, &[]).unwrap();
        assert!(!plan.meta[0].reversed);
    }

    #[test]
    fn reverse_pattern_round_trips() {
        let pats = patterns_of("MATCH (a:A)-[:R]->(b:B)<-[:S]-(c:C) RETURN a");
        let rev = reverse_pattern(&pats[0]);
        assert_eq!(rev.start.var.as_deref(), Some("c"));
        assert_eq!(rev.steps[0].0.direction, RelDirection::Outgoing);
        assert_eq!(rev.steps[0].1.var.as_deref(), Some("b"));
        assert_eq!(rev.steps[1].0.direction, RelDirection::Incoming);
        assert_eq!(rev.steps[1].1.var.as_deref(), Some("a"));
        let back = reverse_pattern(&rev);
        assert_eq!(back, pats[0]);
    }
}
