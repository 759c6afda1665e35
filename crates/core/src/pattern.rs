//! Graph pattern matching.
//!
//! Implements the `(p, G, u) |= π` relation of §8.1: given a record `u`
//! (partial assignment) and a tuple of path patterns, enumerate all
//! extensions of the record that embed the patterns into the graph.
//!
//! Two matching disciplines are supported (§2 and Example 7):
//!
//! * [`MatchMode::EdgeIsomorphic`] — Cypher's default: *distinct
//!   relationship patterns must bind distinct relationships* within one
//!   `MATCH`/`MERGE` clause. This is what makes the Strong-Collapse
//!   re-match of Example 7 fail.
//! * [`MatchMode::Homomorphic`] — relationships may be reused; the paper
//!   notes future Cypher versions plan to offer this, under which
//!   "first merging a pattern and then matching it will result in a
//!   positive match".
//!
//! Variable-length steps always require distinct relationships *within one
//! traversed path* (this is what keeps results finite, §2's loop example);
//! homomorphic mode only relaxes sharing **across** pattern steps.
//!
//! Iteration order is deterministic: node candidates ascend by id and
//! adjacency lists are in insertion order, so the same query on the same
//! store always produces the same table order.

use std::collections::{BTreeMap, BTreeSet};

use cypher_graph::{Direction, NodeId, PathValue, PropertyGraph, RelId, Symbol, Value};
use cypher_parser::ast::{NodePattern, PathPattern, RelDirection, RelPattern};

use crate::error::{EvalError, Result};
use crate::eval::{eval, EvalCtx};
use crate::plan::{access_path, AccessPath, ClausePlan};
use crate::table::Record;

/// One token of the naive-order key (see `crate::plan` module docs):
/// `(0, node)` start, `(1, 0)` var-length terminator, `(2 + class, rel)`
/// relationship, where class 0 = traversed via the out-list and 1 = via
/// the in-list (undirected steps enumerate out-rels first).
type Tok = (u8, u64);
/// Naive-order key of one pattern's traversal.
type PatKey = Vec<Tok>;
/// Var-length segment terminator: sorts before every relationship token,
/// making a closed segment order before its own extensions.
const TOK_TERM: Tok = (1, 0);

/// Key class of a relationship traversed from `cur` by a step with
/// direction `dir` (undirected steps need the stored source to know which
/// adjacency list the naive matcher would have found the rel in).
fn rel_class(g: &PropertyGraph, dir: RelDirection, cur: NodeId, rel: RelId) -> u8 {
    match dir {
        RelDirection::Outgoing => 0,
        RelDirection::Incoming => 1,
        RelDirection::Undirected => {
            let Some(d) = g.rel(rel) else {
                unreachable!("rel_class: adjacency yields only live rels");
            };
            u8::from(d.src != cur)
        }
    }
}

/// Naive-order key of a completed fixed-length traversal, given the path
/// oriented the way the pattern is written.
fn fixed_path_key(
    g: &PropertyGraph,
    dirs: &[RelDirection],
    nodes: &[NodeId],
    rels: &[RelId],
) -> PatKey {
    let mut key = Vec::with_capacity(1 + rels.len());
    key.push((0, nodes[0].raw()));
    for (i, &r) in rels.iter().enumerate() {
        key.push((2 + rel_class(g, dirs[i], nodes[i], r), r.raw()));
    }
    key
}

/// One match produced by [`Matcher::match_keyed`], tagged with its
/// naive-order key: one [`PatKey`] per written pattern, compared
/// lexicographically, empty (hence all-equal) when the execution order
/// already is the naive one.
#[derive(Clone, Debug)]
pub(crate) struct KeyedMatch {
    pub(crate) rec: Record,
    key: Vec<PatKey>,
}

impl std::borrow::Borrow<Record> for KeyedMatch {
    fn borrow(&self) -> &Record {
        &self.rec
    }
}

/// The one restoration of naive result order, for a row matched whole or
/// in anchor chunks: a stable sort by key. Equal keys imply equal
/// records, so stability plus the total key order give the naive table
/// byte for byte.
pub(crate) fn naive_order(mut matches: Vec<KeyedMatch>) -> Vec<Record> {
    matches.sort_by(|a, b| a.key.cmp(&b.key));
    matches.into_iter().map(|m| m.rec).collect()
}

/// The pattern list under execution plus, in planned mode, its metadata.
struct Pats<'p> {
    list: &'p [PathPattern],
    meta: Option<&'p [crate::plan::PatMeta]>,
    /// Start nodes of the first pattern when the caller supplies them (a
    /// chunk of its candidates); `None` fetches them with
    /// `node_candidates`.
    starts: Option<&'p [NodeId]>,
}

impl Pats<'_> {
    fn reversed(&self, pi: usize) -> bool {
        self.meta.map(|m| m[pi].reversed).unwrap_or(false)
    }

    /// Written position of the pattern executed at `pi`.
    fn orig(&self, pi: usize) -> usize {
        self.meta.map(|m| m[pi].orig).unwrap_or(pi)
    }
}

/// Relationship-uniqueness discipline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MatchMode {
    /// Distinct relationship patterns bind distinct relationships
    /// (Cypher default).
    #[default]
    EdgeIsomorphic,
    /// Relationship patterns may share relationships.
    Homomorphic,
}

/// Pattern matcher over one graph.
pub struct Matcher<'a> {
    ctx: EvalCtx<'a>,
    mode: MatchMode,
}

/// Default bound on variable-length expansion when no maximum is given.
/// Paths cannot repeat relationships, so this is only a safety valve for
/// pathological graphs.
const VARLEN_DEFAULT_MAX: u32 = u32::MAX;

impl<'a> Matcher<'a> {
    pub fn new(
        graph: &'a PropertyGraph,
        params: &'a BTreeMap<String, Value>,
        mode: MatchMode,
    ) -> Self {
        Matcher {
            ctx: EvalCtx::new(graph, params).with_match_mode(mode),
            mode,
        }
    }

    fn graph(&self) -> &'a PropertyGraph {
        self.ctx.graph
    }

    /// The evaluation context of property and pattern expressions.
    pub(crate) fn eval_ctx(&self) -> &EvalCtx<'a> {
        &self.ctx
    }

    /// Enumerate all extensions of `rec` matching the conjunction of
    /// `patterns`. The input record is part of every result.
    pub fn match_patterns(&self, rec: &Record, patterns: &[PathPattern]) -> Result<Vec<Record>> {
        self.match_planned(rec, patterns, None)
    }

    /// Enumerate the matches of `patterns`, through `plan` when there is
    /// one, in naive result order (see [`crate::plan`]).
    pub(crate) fn match_planned(
        &self,
        rec: &Record,
        patterns: &[PathPattern],
        plan: Option<&ClausePlan>,
    ) -> Result<Vec<Record>> {
        Ok(naive_order(self.match_keyed(rec, patterns, plan, None)?))
    }

    /// Does at least one match exist? (Existence is plan-independent, so
    /// `MERGE` can call this on either strategy's pattern list.)
    pub fn any_match(&self, rec: &Record, patterns: &[PathPattern]) -> Result<bool> {
        Ok(!self.match_patterns(rec, patterns)?.is_empty())
    }

    /// Ascending candidate start nodes of the first *executed* pattern of
    /// `plan` under driving record `rec` — the unit of intra-row work
    /// sharing for the parallel executor. Each start node's DFS is
    /// independent (environment and used-relationship set are forked per
    /// start), so matching disjoint chunks of this set enumerates exactly
    /// the unrestricted matches.
    pub(crate) fn plan_anchors(&self, rec: &Record, plan: &ClausePlan) -> Result<Vec<NodeId>> {
        match plan.pats.first() {
            Some(p) => self.node_candidates(rec, &p.start),
            None => Ok(Vec::new()),
        }
    }

    /// Every match of `rec`, through `plan` when there is one (naively over
    /// `patterns` otherwise), tagged with its naive-order key and in
    /// execution order; [`naive_order`] sorts them. `starts` restricts the
    /// first executed pattern to a chunk of [`Matcher::plan_anchors`].
    pub(crate) fn match_keyed(
        &self,
        rec: &Record,
        patterns: &[PathPattern],
        plan: Option<&ClausePlan>,
        starts: Option<&[NodeId]>,
    ) -> Result<Vec<KeyedMatch>> {
        let (list, meta) = match plan {
            // Identity plans run in naive order: no key tracking.
            Some(p) => (&p.pats[..], (!p.identity).then_some(&p.meta[..])),
            None => (patterns, None),
        };
        let pats = Pats { list, meta, starts };
        let keys = meta.map(|_| vec![PatKey::new(); list.len()]);
        let mut results = Vec::new();
        self.go_pattern(&pats, 0, rec.clone(), BTreeSet::new(), keys, &mut results)?;
        Ok(results
            .into_iter()
            .map(|(rec, key)| KeyedMatch {
                rec,
                key: key.unwrap_or_default(),
            })
            .collect())
    }

    fn go_pattern(
        &self,
        pats: &Pats<'_>,
        pi: usize,
        env: Record,
        used: BTreeSet<RelId>,
        keys: Option<Vec<PatKey>>,
        results: &mut Vec<(Record, Option<Vec<PatKey>>)>,
    ) -> Result<()> {
        let Some(pattern) = pats.list.get(pi) else {
            results.push((env, keys));
            return Ok(());
        };
        if pattern.shortest.is_some() {
            // The planner refuses clauses with shortest-path patterns, so
            // this branch only runs in naive mode (no key tracking) and
            // unchunked.
            debug_assert!(keys.is_none() && pats.starts.is_none());
            return self.go_shortest(pats, pi, env, used, keys, results);
        }
        let fetched;
        let starts = match pats.starts {
            Some(chunk) if pi == 0 => chunk,
            _ => {
                fetched = self.node_candidates(&env, &pattern.start)?;
                &fetched[..]
            }
        };
        let reversed = pats.reversed(pi);
        for &start in starts {
            let mut env2 = env.clone();
            if let Some(var) = &pattern.start.var {
                env2.bind(var.clone(), Value::Node(start));
            }
            let mut keys2 = keys.clone();
            if !reversed {
                if let Some(ks) = &mut keys2 {
                    ks[pats.orig(pi)].push((0, start.raw()));
                }
            }
            self.go_steps(
                pats,
                pi,
                0,
                start,
                env2,
                used.clone(),
                vec![start],
                vec![],
                keys2,
                results,
            )?;
        }
        Ok(())
    }

    /// `shortestPath(…)` / `allShortestPaths(…)`: bind every shortest path
    /// from each start binding to an accepting endpoint and go on with the
    /// next pattern. The validator guarantees exactly one relationship
    /// step. Shortest paths never repeat a node, so the
    /// single-edge-traversal rule holds within each path automatically; in
    /// iso mode the clause-wide used set is respected and extended.
    fn go_shortest(
        &self,
        pats: &Pats<'_>,
        pi: usize,
        env: Record,
        used: BTreeSet<RelId>,
        keys: Option<Vec<PatKey>>,
        results: &mut Vec<(Record, Option<Vec<PatKey>>)>,
    ) -> Result<()> {
        let pattern = &pats.list[pi];
        let (rel_pat, end_pat) = &pattern.steps[0];
        for start in self.node_candidates(&env, &pattern.start)? {
            let mut env_s = env.clone();
            if let Some(v) = &pattern.start.var {
                env_s.bind(v.clone(), Value::Node(start));
            }
            for (end, rels) in self.shortest_paths(pattern, &env_s, &used, start)? {
                let mut env2 = env_s.clone();
                if let Some(v) = &end_pat.var {
                    env2.bind(v.clone(), Value::Node(end));
                }
                if let Some(rv) = &rel_pat.var {
                    let value = if rel_pat.length.is_some() {
                        Value::List(rels.iter().map(|&r| Value::Rel(r)).collect())
                    } else {
                        // Fixed single hop: bind the relationship itself.
                        rels.first().map(|&r| Value::Rel(r)).unwrap_or(Value::Null)
                    };
                    env2.bind(rv.clone(), value);
                }
                let mut used2 = used.clone();
                if self.mode == MatchMode::EdgeIsomorphic {
                    used2.extend(rels.iter().copied());
                }
                if let Some(pv) = &pattern.var {
                    // Reconstruct the node sequence from the rel chain.
                    let mut nodes = vec![start];
                    let mut cur = start;
                    for &r in &rels {
                        let Some(d) = self.graph().rel(r) else {
                            unreachable!("path rels are live while matching");
                        };
                        cur = if d.src == cur { d.tgt } else { d.src };
                        nodes.push(cur);
                    }
                    env2.bind(pv.clone(), Value::Path(PathValue { nodes, rels }));
                }
                self.go_pattern(pats, pi + 1, env2, used2, keys.clone(), results)?;
            }
        }
        Ok(())
    }

    /// The `(end, rels)` shortest paths of one start, in emission order:
    /// BFS layers, or enumeration when a minimum hop count above 1 makes
    /// BFS's global-distance pruning wrong.
    fn shortest_paths(
        &self,
        pattern: &PathPattern,
        env_s: &Record,
        used: &BTreeSet<RelId>,
        start: NodeId,
    ) -> Result<Vec<(NodeId, Vec<RelId>)>> {
        let Some(kind) = pattern.shortest else {
            unreachable!("shortest_paths is only called on shortest-path patterns");
        };
        let (rel_pat, end_pat) = &pattern.steps[0];
        let (min, max) = match rel_pat.length {
            Some(l) => (l.min.unwrap_or(1), l.max.unwrap_or(u32::MAX)),
            None => (1, 1),
        };
        if min > 1 {
            return self.shortest_by_enumeration(pattern, env_s, used, start, min, max);
        }
        // BFS layers; `parents[n]` holds every shortest-path predecessor
        // edge of `n`.
        let mut dist: BTreeMap<NodeId, u32> = BTreeMap::new();
        dist.insert(start, 0);
        let mut parents: BTreeMap<NodeId, Vec<(RelId, NodeId)>> = BTreeMap::new();
        let mut frontier = vec![start];
        let mut found: Vec<NodeId> = Vec::new();
        if min == 0 && self.node_accepts(env_s, start, end_pat)? {
            found.push(start);
        }
        let mut level = 0u32;
        while !frontier.is_empty() && level < max {
            level += 1;
            let mut next = Vec::new();
            for node in frontier {
                for (rel, far) in self.rel_candidates(env_s, node, rel_pat, used)? {
                    match dist.get(&far) {
                        None => {
                            dist.insert(far, level);
                            parents.entry(far).or_default().push((rel, node));
                            next.push(far);
                        }
                        Some(&d) if d == level => {
                            parents.entry(far).or_default().push((rel, node));
                        }
                        _ => {}
                    }
                }
            }
            if level >= min {
                for &n in &next {
                    if self.node_accepts(env_s, n, end_pat)? {
                        found.push(n);
                    }
                }
            }
            frontier = next;
        }
        let paths = found.into_iter().flat_map(|end| {
            let chains = enumerate_shortest(&parents, start, end, kind);
            chains.into_iter().map(move |rels| (end, rels))
        });
        Ok(paths.collect())
    }

    /// Slow path for `shortestPath` with a minimum hop count above 1:
    /// enumerate all qualifying paths (per-path relationship uniqueness)
    /// and keep the minimum length per endpoint.
    fn shortest_by_enumeration(
        &self,
        pattern: &PathPattern,
        env_s: &Record,
        used: &BTreeSet<RelId>,
        start: NodeId,
        min: u32,
        max: u32,
    ) -> Result<Vec<(NodeId, Vec<RelId>)>> {
        let (rel_pat, end_pat) = &pattern.steps[0];
        // DFS collecting (end, rels) candidates.
        let mut candidates: Vec<(NodeId, Vec<RelId>)> = Vec::new();
        let mut stack: Vec<(NodeId, Vec<RelId>)> = vec![(start, vec![])];
        while let Some((node, rels)) = stack.pop() {
            let depth = rels.len() as u32;
            if depth >= min && self.node_accepts(env_s, node, end_pat)? {
                candidates.push((node, rels.clone()));
            }
            if depth >= max {
                continue;
            }
            let mut expansions = self.rel_candidates(env_s, node, rel_pat, used)?;
            expansions.retain(|(r, _)| !rels.contains(r));
            for (rel, far) in expansions.into_iter().rev() {
                let mut rels2 = rels.clone();
                rels2.push(rel);
                stack.push((far, rels2));
            }
        }
        // Keep minimum length per endpoint (one path for Single, all for All).
        let mut best: BTreeMap<NodeId, usize> = BTreeMap::new();
        for (end, rels) in &candidates {
            let e = best.entry(*end).or_insert(usize::MAX);
            *e = (*e).min(rels.len());
        }
        let single = pattern.shortest == Some(cypher_parser::ast::ShortestKind::Single);
        let mut emitted: BTreeSet<NodeId> = BTreeSet::new();
        candidates
            .retain(|(end, rels)| rels.len() == best[end] && (!single || emitted.insert(*end)));
        Ok(candidates)
    }

    #[allow(clippy::too_many_arguments)]
    fn go_steps(
        &self,
        pats: &Pats<'_>,
        pi: usize,
        si: usize,
        cur: NodeId,
        env: Record,
        used: BTreeSet<RelId>,
        path_nodes: Vec<NodeId>,
        path_rels: Vec<RelId>,
        keys: Option<Vec<PatKey>>,
        results: &mut Vec<(Record, Option<Vec<PatKey>>)>,
    ) -> Result<()> {
        let pattern = &pats.list[pi];
        let Some((rel_pat, node_pat)) = pattern.steps.get(si) else {
            // Path pattern complete. A reversed pattern traversed the path
            // back-to-front: orient it the way the pattern is written
            // before binding the path variable or rebuilding the key.
            let mut env = env;
            let mut keys = keys;
            let reversed = pats.reversed(pi);
            let (nodes, rels) = if reversed {
                let mut n = path_nodes;
                n.reverse();
                let mut r = path_rels;
                r.reverse();
                (n, r)
            } else {
                (path_nodes, path_rels)
            };
            if reversed {
                if let Some(ks) = &mut keys {
                    let Some(meta) = &pats.meta else {
                        unreachable!("reversed patterns only exist in planned mode");
                    };
                    let dirs = &meta[pi].orig_dirs;
                    ks[pats.orig(pi)] = fixed_path_key(self.graph(), dirs, &nodes, &rels);
                }
            }
            if let Some(pvar) = &pattern.var {
                env.bind(pvar.clone(), Value::Path(PathValue { nodes, rels }));
            }
            return self.go_pattern(pats, pi + 1, env, used, keys, results);
        };

        if rel_pat.length.is_some() {
            return self.go_varlen_step(
                pats, pi, si, cur, env, used, path_nodes, path_rels, rel_pat, node_pat, keys,
                results,
            );
        }

        let reversed = pats.reversed(pi);
        for (rel, next) in self.rel_candidates(&env, cur, rel_pat, &used)? {
            // Next node must satisfy its pattern (bound variable, labels,
            // properties).
            if !self.node_accepts(&env, next, node_pat)? {
                continue;
            }
            let mut env2 = env.clone();
            if let Some(rvar) = &rel_pat.var {
                env2.bind(rvar.clone(), Value::Rel(rel));
            }
            if let Some(nvar) = &node_pat.var {
                env2.bind(nvar.clone(), Value::Node(next));
            }
            let mut used2 = used.clone();
            if self.mode == MatchMode::EdgeIsomorphic {
                used2.insert(rel);
            }
            let mut nodes2 = path_nodes.clone();
            nodes2.push(next);
            let mut rels2 = path_rels.clone();
            rels2.push(rel);
            let mut keys2 = keys.clone();
            if !reversed {
                if let Some(ks) = &mut keys2 {
                    let class = rel_class(self.graph(), rel_pat.direction, cur, rel);
                    ks[pats.orig(pi)].push((2 + class, rel.raw()));
                }
            }
            self.go_steps(
                pats,
                pi,
                si + 1,
                next,
                env2,
                used2,
                nodes2,
                rels2,
                keys2,
                results,
            )?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn go_varlen_step(
        &self,
        pats: &Pats<'_>,
        pi: usize,
        si: usize,
        cur: NodeId,
        env: Record,
        used: BTreeSet<RelId>,
        path_nodes: Vec<NodeId>,
        path_rels: Vec<RelId>,
        rel_pat: &RelPattern,
        node_pat: &NodePattern,
        keys: Option<Vec<PatKey>>,
        results: &mut Vec<(Record, Option<Vec<PatKey>>)>,
    ) -> Result<()> {
        // The planner never reverses var-length patterns, so key tokens can
        // be recorded in traversal order.
        debug_assert!(!pats.reversed(pi) || keys.is_none());
        let Some(len) = rel_pat.length else {
            unreachable!("match_var_length is only called on var-length patterns");
        };
        if let Some(v) = &rel_pat.var {
            if env.is_bound(v) {
                return Err(EvalError::VariableClash(v.clone()));
            }
        }
        let min = len.min.unwrap_or(1);
        let max = len.max.unwrap_or(VARLEN_DEFAULT_MAX);

        // DFS over relationship sequences. `segment` holds the rels of this
        // variable-length traversal only.
        struct Frame {
            node: NodeId,
            segment_rels: Vec<RelId>,
            segment_nodes: Vec<NodeId>,
        }
        let mut stack = vec![Frame {
            node: cur,
            segment_rels: vec![],
            segment_nodes: vec![],
        }];
        while let Some(frame) = stack.pop() {
            let depth = frame.segment_rels.len() as u32;
            if depth >= min {
                // Try to close the step at this endpoint.
                if self.node_accepts(&env, frame.node, node_pat)? {
                    let mut env2 = env.clone();
                    if let Some(rvar) = &rel_pat.var {
                        env2.bind(
                            rvar.clone(),
                            Value::List(
                                frame.segment_rels.iter().map(|&r| Value::Rel(r)).collect(),
                            ),
                        );
                    }
                    if let Some(nvar) = &node_pat.var {
                        env2.bind(nvar.clone(), Value::Node(frame.node));
                    }
                    let mut used2 = used.clone();
                    if self.mode == MatchMode::EdgeIsomorphic {
                        used2.extend(frame.segment_rels.iter().copied());
                    }
                    let mut nodes2 = path_nodes.clone();
                    nodes2.extend(frame.segment_nodes.iter().copied());
                    let mut rels2 = path_rels.clone();
                    rels2.extend(frame.segment_rels.iter().copied());
                    let mut keys2 = keys.clone();
                    if let Some(ks) = &mut keys2 {
                        let k = &mut ks[pats.orig(pi)];
                        let mut prev = cur;
                        for (i, &r) in frame.segment_rels.iter().enumerate() {
                            let class = rel_class(self.graph(), rel_pat.direction, prev, r);
                            k.push((2 + class, r.raw()));
                            prev = frame.segment_nodes[i];
                        }
                        k.push(TOK_TERM);
                    }
                    self.go_steps(
                        pats,
                        pi,
                        si + 1,
                        frame.node,
                        env2,
                        used2,
                        nodes2,
                        rels2,
                        keys2,
                        results,
                    )?;
                }
            }
            if depth >= max {
                continue;
            }
            // Expand by one relationship. Within a single variable-length
            // path, relationships are always distinct; in iso mode they must
            // also avoid the clause-wide used set.
            let mut expansions = self.rel_candidates(&env, frame.node, rel_pat, &used)?;
            expansions.retain(|(r, _)| !frame.segment_rels.contains(r));
            // Reverse so the stack pops candidates in their natural order.
            for (rel, next) in expansions.into_iter().rev() {
                let mut seg_r = frame.segment_rels.clone();
                seg_r.push(rel);
                let mut seg_n = frame.segment_nodes.clone();
                seg_n.push(next);
                stack.push(Frame {
                    node: next,
                    segment_rels: seg_r,
                    segment_nodes: seg_n,
                });
            }
        }
        Ok(())
    }

    /// Candidate (relationship, far-endpoint) pairs from `cur` through
    /// `rel_pat`, honouring direction, types, properties, a pre-bound
    /// relationship variable and the uniqueness discipline.
    fn rel_candidates(
        &self,
        env: &Record,
        cur: NodeId,
        rel_pat: &RelPattern,
        used: &BTreeSet<RelId>,
    ) -> Result<Vec<(RelId, NodeId)>> {
        let g = self.graph();
        let dir = match rel_pat.direction {
            RelDirection::Outgoing => Direction::Outgoing,
            RelDirection::Incoming => Direction::Incoming,
            RelDirection::Undirected => Direction::Either,
        };
        let bound_rel = match rel_pat.var.as_ref().and_then(|v| env.get(v)) {
            Some(Value::Rel(r)) => Some(*r),
            Some(Value::Null) => return Ok(vec![]),
            Some(_) => {
                return Err(EvalError::VariableClash(
                    rel_pat.var.clone().unwrap_or_default(),
                ))
            }
            None => None,
        };
        // Resolve the type constraint to interned symbols once per call: a
        // single type selects its adjacency partition directly; several
        // types compare interned symbols per rel (no string lookups). A
        // type that was never interned cannot label any relationship.
        let mut single: Option<Symbol> = None;
        let mut multi: Vec<Symbol> = Vec::new();
        match rel_pat.types.len() {
            0 => {}
            1 => match g.try_sym(&rel_pat.types[0]) {
                Some(s) => single = Some(s),
                None => return Ok(vec![]),
            },
            _ => {
                multi = rel_pat.types.iter().filter_map(|t| g.try_sym(t)).collect();
                if multi.is_empty() {
                    return Ok(vec![]);
                }
            }
        }
        let iter = match single {
            Some(ty) => g.rels_typed(cur, dir, ty),
            None => g.rels_iter(cur, dir),
        };
        let mut out = Vec::new();
        for rel in iter {
            if self.mode == MatchMode::EdgeIsomorphic && used.contains(&rel) {
                continue;
            }
            if let Some(b) = bound_rel {
                if b != rel {
                    continue;
                }
            }
            let Some(data) = g.rel(rel) else { continue };
            if !multi.is_empty() && !multi.contains(&data.rel_type) {
                continue;
            }
            if !self.props_match(env, cypher_graph::EntityRef::Rel(rel), &rel_pat.props)? {
                continue;
            }
            let far = match rel_pat.direction {
                RelDirection::Outgoing => data.tgt,
                RelDirection::Incoming => data.src,
                RelDirection::Undirected => {
                    if data.src == cur {
                        data.tgt
                    } else {
                        data.src
                    }
                }
            };
            out.push((rel, far));
        }
        Ok(out)
    }

    /// Candidate start nodes for a node pattern, ascending, fetched
    /// through [`access_path`] and checked against every label and
    /// property.
    fn node_candidates(&self, env: &Record, np: &NodePattern) -> Result<Vec<NodeId>> {
        let g = self.graph();
        let bound = np.var.as_ref().and_then(|v| env.get(v));
        let candidates: Vec<NodeId> = match access_path(g, np, bound.is_some()) {
            // Bound variable: the candidate set is that single node (checked).
            AccessPath::Bound(var) => {
                return match bound {
                    Some(&Value::Node(n)) => Ok(if self.node_accepts(env, n, np)? {
                        vec![n]
                    } else {
                        vec![]
                    }),
                    Some(Value::Null) => Ok(vec![]),
                    _ => Err(EvalError::VariableClash(var.to_owned())),
                };
            }
            AccessPath::Probe {
                lsym, ksym, value, ..
            } => {
                let wanted = eval(&self.ctx, env, value)?;
                g.index_lookup(lsym, ksym, &wanted).unwrap_or_default()
            }
            AccessPath::Empty(_) => return Ok(vec![]),
            AccessPath::LabelScan { sym, .. } => g.nodes_with_label(sym).collect(),
            AccessPath::FullScan => g.node_ids().collect(),
        };
        let mut out = Vec::new();
        for n in candidates {
            if self.node_accepts_unbound(env, n, np)? {
                out.push(n);
            }
        }
        Ok(out)
    }

    /// Does node `n` satisfy pattern `np`, taking a possibly-bound variable
    /// into account (a bound variable must equal `n`)?
    fn node_accepts(&self, env: &Record, n: NodeId, np: &NodePattern) -> Result<bool> {
        if let Some(var) = &np.var {
            match env.get(var) {
                Some(Value::Node(bound)) if *bound != n => return Ok(false),
                Some(Value::Node(_)) => {}
                Some(Value::Null) => return Ok(false),
                Some(_) => return Err(EvalError::VariableClash(var.clone())),
                None => {}
            }
        }
        self.node_accepts_unbound(env, n, np)
    }

    /// Label and property checks only.
    fn node_accepts_unbound(&self, env: &Record, n: NodeId, np: &NodePattern) -> Result<bool> {
        let g = self.graph();
        match g.node(n) {
            Some(data) => {
                for l in &np.labels {
                    match g.try_sym(l) {
                        Some(sym) if data.labels.contains(&sym) => {}
                        _ => return Ok(false),
                    }
                }
            }
            None => {
                // Zombie node (§4.2): matches only entirely unconstrained
                // node patterns.
                return Ok(np.labels.is_empty() && np.props.is_empty());
            }
        }
        self.props_match(env, cypher_graph::EntityRef::Node(n), &np.props)
    }

    /// All pattern properties equal (ternary-true) the stored ones.
    fn props_match(
        &self,
        env: &Record,
        entity: cypher_graph::EntityRef,
        props: &[(String, cypher_parser::ast::Expr)],
    ) -> Result<bool> {
        let g = self.graph();
        for (key, expr) in props {
            let wanted = eval(&self.ctx, env, expr)?;
            let stored = g
                .try_sym(key)
                .map(|k| g.prop(entity, k))
                .unwrap_or(Value::Null);
            if !wanted.cypher_eq(&stored).is_true() {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// All (or one, for `Single`) shortest relationship chains from `start` to
/// `end`, reconstructed backward through the BFS parent sets.
fn enumerate_shortest(
    parents: &BTreeMap<NodeId, Vec<(RelId, NodeId)>>,
    start: NodeId,
    end: NodeId,
    kind: cypher_parser::ast::ShortestKind,
) -> Vec<Vec<RelId>> {
    use cypher_parser::ast::ShortestKind;
    if end == start && !parents.contains_key(&end) {
        return vec![vec![]]; // zero-length path
    }
    fn walk(
        parents: &BTreeMap<NodeId, Vec<(RelId, NodeId)>>,
        start: NodeId,
        node: NodeId,
        single: bool,
        out: &mut Vec<Vec<RelId>>,
        suffix: &mut Vec<RelId>,
    ) {
        if node == start {
            let mut path: Vec<RelId> = suffix.clone();
            path.reverse();
            out.push(path);
            return;
        }
        let Some(edges) = parents.get(&node) else {
            return;
        };
        for &(rel, prev) in edges {
            suffix.push(rel);
            walk(parents, start, prev, single, out, suffix);
            suffix.pop();
            if single && !out.is_empty() {
                return;
            }
        }
    }
    let mut out = Vec::new();
    let mut suffix = Vec::new();
    walk(
        parents,
        start,
        end,
        kind == ShortestKind::Single,
        &mut out,
        &mut suffix,
    );
    if kind == ShortestKind::Single {
        out.truncate(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::ast::Clause;
    use cypher_parser::parse;

    /// Extract the patterns of the first MATCH clause of `query`.
    fn patterns_of(query: &str) -> Vec<PathPattern> {
        let q = parse(query).unwrap();
        match &q.first.clauses[0] {
            Clause::Match { patterns, .. } => patterns.clone(),
            Clause::Merge { patterns, .. } => patterns.clone(),
            _ => panic!("expected MATCH"),
        }
    }

    /// Figure 1 base graph (solid lines).
    fn figure1() -> (PropertyGraph, BTreeMap<&'static str, NodeId>) {
        let mut g = PropertyGraph::new();
        let product = g.sym("Product");
        let vendor = g.sym("Vendor");
        let user = g.sym("User");
        let offers = g.sym("OFFERS");
        let ordered = g.sym("ORDERED");
        let id_k = g.sym("id");
        let name_k = g.sym("name");
        let v1 = g.create_node(
            [vendor],
            [(id_k, Value::Int(60)), (name_k, Value::str("cStore"))],
        );
        let p1 = g.create_node(
            [product],
            [(id_k, Value::Int(125)), (name_k, Value::str("laptop"))],
        );
        let p2 = g.create_node(
            [product],
            [(id_k, Value::Int(125)), (name_k, Value::str("notebook"))],
        );
        let p3 = g.create_node(
            [product],
            [(id_k, Value::Int(85)), (name_k, Value::str("tablet"))],
        );
        let u1 = g.create_node(
            [user],
            [(id_k, Value::Int(89)), (name_k, Value::str("Bob"))],
        );
        let u2 = g.create_node(
            [user],
            [(id_k, Value::Int(99)), (name_k, Value::str("Jane"))],
        );
        g.create_rel(v1, offers, p1, []).unwrap();
        g.create_rel(v1, offers, p2, []).unwrap();
        g.create_rel(u1, ordered, p1, []).unwrap();
        g.create_rel(u1, ordered, p3, []).unwrap();
        g.create_rel(u2, ordered, p3, []).unwrap();
        g.create_rel(u2, offers, p3, []).unwrap();
        let mut ids = BTreeMap::new();
        ids.insert("v1", v1);
        ids.insert("p1", p1);
        ids.insert("p2", p2);
        ids.insert("p3", p3);
        ids.insert("u1", u1);
        ids.insert("u2", u2);
        (g, ids)
    }

    fn run_match(g: &PropertyGraph, query: &str, mode: MatchMode) -> Vec<Record> {
        let params = BTreeMap::new();
        let m = Matcher::new(g, &params, mode);
        m.match_patterns(&Record::new(), &patterns_of(query))
            .unwrap()
    }

    #[test]
    fn query1_pattern_yields_two_records_before_where() {
        // §2: "the first MATCH clause populates [the table] with two records
        // (p:p1, v:v1, q:p2) and (p:p2, v:v1, q:p1)".
        let (g, ids) = figure1();
        let rows = run_match(
            &g,
            "MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product) RETURN v",
            MatchMode::EdgeIsomorphic,
        );
        assert_eq!(rows.len(), 2);
        let bindings: Vec<(NodeId, NodeId, NodeId)> = rows
            .iter()
            .map(|r| {
                let Value::Node(p) = r.get("p").unwrap() else {
                    panic!()
                };
                let Value::Node(v) = r.get("v").unwrap() else {
                    panic!()
                };
                let Value::Node(q) = r.get("q").unwrap() else {
                    panic!()
                };
                (*p, *v, *q)
            })
            .collect();
        assert!(bindings.contains(&(ids["p1"], ids["v1"], ids["p2"])));
        assert!(bindings.contains(&(ids["p2"], ids["v1"], ids["p1"])));
    }

    #[test]
    fn edge_isomorphism_blocks_reusing_a_relationship() {
        // Same pattern but under homomorphic matching p = q becomes
        // possible (the same :OFFERS edge used twice).
        let (g, _) = figure1();
        let iso = run_match(
            &g,
            "MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product) RETURN v",
            MatchMode::EdgeIsomorphic,
        );
        let homo = run_match(
            &g,
            "MATCH (p:Product)<-[:OFFERS]-(v:Vendor)-[:OFFERS]->(q:Product) RETURN v",
            MatchMode::Homomorphic,
        );
        assert_eq!(iso.len(), 2);
        // Homomorphic adds (p1,v1,p1), (p2,v1,p2), and p3 with u2 is not a
        // Vendor; but (p3,u2,p3)? u2 has no :Vendor label, excluded. v1's
        // edges give 2 + 2 reflexive = 4; plus... p3's offerer u2 is a User.
        assert_eq!(homo.len(), 4);
    }

    #[test]
    fn property_filter_in_pattern() {
        let (g, ids) = figure1();
        let rows = run_match(
            &g,
            "MATCH (p:Product {name: 'laptop'}) RETURN p",
            MatchMode::EdgeIsomorphic,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("p"), Some(&Value::Node(ids["p1"])));
    }

    #[test]
    fn null_property_in_pattern_never_matches() {
        let (g, _) = figure1();
        // No node has name = null, and null = anything is unknown.
        let rows = run_match(
            &g,
            "MATCH (p:Product {name: null}) RETURN p",
            MatchMode::EdgeIsomorphic,
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn bound_variable_constrains_match() {
        let (g, ids) = figure1();
        let params = BTreeMap::new();
        let m = Matcher::new(&g, &params, MatchMode::EdgeIsomorphic);
        let mut rec = Record::new();
        rec.bind("p", Value::Node(ids["p3"]));
        let rows = m
            .match_patterns(
                &rec,
                &patterns_of("MATCH (p)<-[:ORDERED]-(u:User) RETURN u"),
            )
            .unwrap();
        assert_eq!(rows.len(), 2); // u1 and u2 ordered p3
    }

    #[test]
    fn bound_null_variable_matches_nothing() {
        let (g, _) = figure1();
        let params = BTreeMap::new();
        let m = Matcher::new(&g, &params, MatchMode::EdgeIsomorphic);
        let mut rec = Record::new();
        rec.bind("p", Value::Null);
        let rows = m
            .match_patterns(&rec, &patterns_of("MATCH (p)<-[:ORDERED]-(u) RETURN u"))
            .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn bound_non_node_is_a_clash() {
        let (g, _) = figure1();
        let params = BTreeMap::new();
        let m = Matcher::new(&g, &params, MatchMode::EdgeIsomorphic);
        let mut rec = Record::new();
        rec.bind("p", Value::Int(1));
        assert!(matches!(
            m.match_patterns(&rec, &patterns_of("MATCH (p)-->(u) RETURN u")),
            Err(EvalError::VariableClash(_))
        ));
    }

    #[test]
    fn undirected_step_matches_both_directions() {
        let (g, ids) = figure1();
        let rows = run_match(
            &g,
            "MATCH (u:User {id: 99})-[:OFFERS]-(x) RETURN x",
            MatchMode::EdgeIsomorphic,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("x"), Some(&Value::Node(ids["p3"])));
    }

    #[test]
    fn multi_pattern_conjunction_shares_variables() {
        let (g, ids) = figure1();
        let rows = run_match(
            &g,
            "MATCH (v:Vendor)-[:OFFERS]->(p), (u:User)-[:ORDERED]->(p) RETURN p",
            MatchMode::EdgeIsomorphic,
        );
        // v1 offers p1 (ordered by u1) and p2 (ordered by nobody); u2 offers
        // p3 but is not a Vendor. So only (v1, p1, u1).
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("p"), Some(&Value::Node(ids["p1"])));
    }

    #[test]
    fn var_length_paths() {
        // Chain a->b->c->d.
        let mut g = PropertyGraph::new();
        let t = g.sym("TO");
        let ns: Vec<NodeId> = (0..4).map(|_| g.create_node([], [])).collect();
        for w in ns.windows(2) {
            g.create_rel(w[0], t, w[1], []).unwrap();
        }
        let rows = run_match(
            &g,
            "MATCH (a)-[:TO*]->(b) RETURN a, b",
            MatchMode::EdgeIsomorphic,
        );
        // Paths: 3 of length 1, 2 of length 2, 1 of length 3.
        assert_eq!(rows.len(), 6);
        let rows = run_match(
            &g,
            "MATCH (a)-[:TO*2..2]->(b) RETURN a, b",
            MatchMode::EdgeIsomorphic,
        );
        assert_eq!(rows.len(), 2);
        let rows = run_match(
            &g,
            "MATCH (a)-[r:TO*1..2]->(b) RETURN r",
            MatchMode::EdgeIsomorphic,
        );
        assert_eq!(rows.len(), 5);
        // The rel variable binds to a list.
        assert!(rows
            .iter()
            .all(|r| matches!(r.get("r"), Some(Value::List(_)))));
    }

    #[test]
    fn var_length_zero_allows_staying_put() {
        let mut g = PropertyGraph::new();
        let t = g.sym("TO");
        let a = g.create_node([], []);
        let b = g.create_node([], []);
        g.create_rel(a, t, b, []).unwrap();
        let rows = run_match(
            &g,
            "MATCH (x)-[:TO*0..1]->(y) RETURN x, y",
            MatchMode::EdgeIsomorphic,
        );
        // (a,a), (b,b) at length 0; (a,b) at length 1.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn self_loop_variable_length_terminates() {
        // §2's motivating example: a single loop on v. Edge uniqueness
        // within a path keeps `-[*]->` finite.
        let mut g = PropertyGraph::new();
        let t = g.sym("E");
        let v = g.create_node([], []);
        g.create_rel(v, t, v, []).unwrap();
        let rows = run_match(&g, "MATCH (v)-[*]->(v) RETURN v", MatchMode::EdgeIsomorphic);
        assert_eq!(rows.len(), 1);
        let rows = run_match(&g, "MATCH (v)-[*]->(v) RETURN v", MatchMode::Homomorphic);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn named_path_binds_path_value() {
        let (g, _) = figure1();
        let rows = run_match(
            &g,
            "MATCH pth = (u:User {id: 89})-[:ORDERED]->(p) RETURN pth",
            MatchMode::EdgeIsomorphic,
        );
        assert_eq!(rows.len(), 2);
        for r in &rows {
            let Some(Value::Path(p)) = r.get("pth") else {
                panic!("path not bound")
            };
            assert_eq!(p.len(), 1);
            assert_eq!(p.nodes.len(), 2);
        }
    }

    #[test]
    fn zombie_nodes_match_only_unconstrained_patterns() {
        let mut g = PropertyGraph::new();
        let t = g.sym("T");
        let l = g.sym("L");
        let a = g.create_node([l], []);
        let b = g.create_node([l], []);
        g.create_rel(a, t, b, []).unwrap();
        g.delete_node(a, cypher_graph::DeleteNodeMode::Force)
            .unwrap();
        // Traversal from the live side across the dangling rel reaches the
        // zombie via an unconstrained node pattern…
        let rows = run_match(
            &g,
            "MATCH (x)<-[:T]-(y) RETURN y",
            MatchMode::EdgeIsomorphic,
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("y"), Some(&Value::Node(a)));
        // …but a labelled pattern rejects it.
        let rows = run_match(
            &g,
            "MATCH (x)<-[:T]-(y:L) RETURN y",
            MatchMode::EdgeIsomorphic,
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn rel_type_alternatives() {
        let (g, _) = figure1();
        let rows = run_match(
            &g,
            "MATCH (u:User)-[r:ORDERED|OFFERS]->(p) RETURN r",
            MatchMode::EdgeIsomorphic,
        );
        assert_eq!(rows.len(), 4); // u1→p1, u1→p3, u2→p3 (ordered), u2→p3 (offers)
    }

    #[test]
    fn deterministic_result_order() {
        let (g, _) = figure1();
        let a = run_match(&g, "MATCH (n) RETURN n", MatchMode::EdgeIsomorphic);
        let b = run_match(&g, "MATCH (n) RETURN n", MatchMode::EdgeIsomorphic);
        assert_eq!(a, b);
        // Ascending id order.
        let ids: Vec<u64> = a
            .iter()
            .map(|r| match r.get("n") {
                Some(Value::Node(n)) => n.raw(),
                _ => panic!(),
            })
            .collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }
}
