//! Weighted grammar-based script generation.
//!
//! Statements are built as ASTs (so they are well-formed by construction),
//! validated against the target dialect, and emitted through the parser's
//! canonical pretty-printer — every generated statement therefore
//! round-trips `parse ∘ print` by construction, which is exactly what the
//! printer property test pins down.
//!
//! The generator tracks a per-statement variable scope (node / rel / path /
//! value kinds) so property accesses, `SET` targets and `DELETE` operands
//! are always kind-correct, and it sequences clauses so Cypher 9's
//! `WITH`-demarcation rules hold. `validate()` runs as a backstop on every
//! statement; a statement that fails it is regenerated (deterministically —
//! retries consume the same PRNG stream).

use crate::rng::SplitMix64;
use cypher_parser::ast::*;
use cypher_parser::{print_query, validate};

const LABELS: &[&str] = &["A", "B", "C", "User", "Product"];
const RTYPES: &[&str] = &["T", "U", "R"];
const KEYS: &[&str] = &["id", "k", "name", "w"];
const STRS: &[&str] = &["x", "yy", "laptop", "bob"];
const PARAMS: &[&str] = &["uid", "pid"];
const TWO_53: i64 = 1 << 53;

/// A generated multi-statement script, pretty-printed.
#[derive(Clone, Debug)]
pub struct Script {
    pub dialect: Dialect,
    pub stmts: Vec<String>,
}

/// Stateless generator facade.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScriptGen;

impl ScriptGen {
    /// Generate one script of `setup + n` statements.
    pub fn script(self, rng: &mut SplitMix64, dialect: Dialect, n: usize) -> Script {
        let mut stmts = vec![print_query(&setup_query(rng))];
        let mut indexes: Vec<(String, String)> = Vec::new();
        for _ in 0..n {
            let q = statement(rng, dialect, &mut indexes);
            stmts.push(print_query(&q));
        }
        Script { dialect, stmts }
    }
}

/// The seed graph every script starts from: a handful of labelled,
/// propertied nodes plus relationships among them, in one `CREATE`.
fn setup_query(rng: &mut SplitMix64) -> Query {
    let n_nodes = rng.range(3, 6) as usize;
    let mut patterns = Vec::new();
    for i in 0..n_nodes {
        let mut labels = vec![(*rng.pick(LABELS)).to_owned()];
        if rng.chance(1, 4) {
            let extra = (*rng.pick(LABELS)).to_owned();
            if !labels.contains(&extra) {
                labels.push(extra);
            }
        }
        let mut props = vec![("id".to_owned(), Expr::int(i as i64))];
        if rng.chance(2, 3) {
            props.push(("k".to_owned(), Expr::int(rng.range(0, 9))));
        }
        if rng.chance(1, 3) {
            props.push(("name".to_owned(), Expr::str(*rng.pick(STRS))));
        }
        patterns.push(PathPattern::node(NodePattern {
            var: Some(format!("s{i}")),
            labels,
            props,
        }));
    }
    for _ in 0..rng.range(2, 5) {
        let a = rng.below(n_nodes);
        let b = rng.below(n_nodes);
        let mut props = Vec::new();
        if rng.chance(1, 2) {
            props.push(("w".to_owned(), Expr::int(rng.range(0, 9))));
        }
        patterns.push(PathPattern {
            var: None,
            shortest: None,
            start: NodePattern {
                var: Some(format!("s{a}")),
                labels: vec![],
                props: vec![],
            },
            steps: vec![(
                RelPattern {
                    var: None,
                    types: vec![(*rng.pick(RTYPES)).to_owned()],
                    props,
                    direction: RelDirection::Outgoing,
                    length: None,
                },
                NodePattern {
                    var: Some(format!("s{b}")),
                    labels: vec![],
                    props: vec![],
                },
            )],
        });
    }
    Query {
        first: SingleQuery::new(vec![Clause::Create { patterns }]),
        unions: vec![],
    }
}

/// One generated statement, validated; deterministic retries, then a
/// canned fallback (never expected in practice, but the generator must be
/// total).
fn statement(rng: &mut SplitMix64, dialect: Dialect, indexes: &mut Vec<(String, String)>) -> Query {
    for _ in 0..4 {
        let q = match rng.weighted(&[5, 4, 1]) {
            0 => read_statement(rng, dialect),
            1 => update_statement(rng, dialect),
            _ => schema_statement(rng, indexes),
        };
        if validate(&q, dialect).is_ok() {
            return q;
        }
    }
    Query {
        first: SingleQuery::new(vec![
            Clause::Match {
                optional: false,
                patterns: vec![PathPattern::node(NodePattern {
                    var: Some("n".into()),
                    labels: vec![],
                    props: vec![],
                })],
                where_clause: None,
            },
            Clause::Return(Projection::items(vec![ProjectionItem {
                expr: Expr::prop(Expr::var("n"), "id"),
                alias: Some("id".into()),
            }])),
        ]),
        unions: vec![],
    }
}

fn schema_statement(rng: &mut SplitMix64, indexes: &mut Vec<(String, String)>) -> Query {
    let clause = if !indexes.is_empty() && rng.chance(1, 3) {
        let (label, key) = indexes.remove(rng.below(indexes.len()));
        Clause::DropIndex { label, key }
    } else {
        let label = (*rng.pick(LABELS)).to_owned();
        let key = (*rng.pick(&["id", "k", "name"])).to_owned();
        indexes.push((label.clone(), key.clone()));
        Clause::CreateIndex { label, key }
    };
    Query {
        first: SingleQuery::new(vec![clause]),
        unions: vec![],
    }
}

// ---------------------------------------------------------------------------
// Statement-scoped generation context
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VKind {
    Node,
    Rel,
    Path,
    Value,
}

struct Ctx<'a> {
    rng: &'a mut SplitMix64,
    dialect: Dialect,
    scope: Vec<(String, VKind)>,
    /// How many `scope` entries the current `CREATE` found bound: the
    /// variables its property values may read in both dialects.
    clause_scope: usize,
    fresh: usize,
}

impl<'a> Ctx<'a> {
    fn new(rng: &'a mut SplitMix64, dialect: Dialect) -> Self {
        Ctx {
            rng,
            dialect,
            scope: Vec::new(),
            clause_scope: 0,
            fresh: 0,
        }
    }

    fn fresh(&mut self, kind: VKind) -> String {
        let prefix = match kind {
            VKind::Node => "n",
            VKind::Rel => "r",
            VKind::Path => "p",
            VKind::Value => "x",
        };
        let name = format!("{prefix}{}", self.fresh);
        self.fresh += 1;
        self.scope.push((name.clone(), kind));
        name
    }

    fn vars(&self, kind: VKind) -> Vec<String> {
        self.scope
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(n, _)| n.clone())
            .collect()
    }

    fn entity_vars(&self) -> Vec<String> {
        self.scope
            .iter()
            .filter(|(_, k)| matches!(k, VKind::Node | VKind::Rel))
            .map(|(n, _)| n.clone())
            .collect()
    }

    fn pick_var(&mut self, kind: VKind) -> Option<String> {
        let vs = self.vars(kind);
        if vs.is_empty() {
            None
        } else {
            Some(vs[self.rng.below(vs.len())].clone())
        }
    }

    // -- expressions --------------------------------------------------------

    fn lit(&mut self) -> Expr {
        match self.rng.weighted(&[12, 6, 2, 1, 1]) {
            0 => Expr::int(self.rng.range(0, 9)),
            1 => Expr::str(*self.rng.pick(STRS)),
            2 => Expr::Literal(Lit::Bool(self.rng.chance(1, 2))),
            3 => self.boundary_int(),
            _ => Expr::Literal(Lit::Float(TWO_53 as f64)),
        }
    }

    /// An integer where `i64` and `f64` part ways: within 3 of ±2⁵³
    /// (2⁵³ + 1 rounds to 2⁵³ as a float) or an `i64` extreme. Negative
    /// values are negations, as the printer writes them.
    fn boundary_int(&mut self) -> Expr {
        let neg = |e: Expr| Expr::Unary(UnaryOp::Neg, Box::new(e));
        match self.rng.below(4) {
            0 => Expr::int(i64::MAX),
            // i64::MIN has no literal: -i64::MAX - 1.
            1 => Expr::Binary(
                BinOp::Sub,
                Box::new(neg(Expr::int(i64::MAX))),
                Box::new(Expr::int(1)),
            ),
            _ => {
                let n = Expr::int(TWO_53 + self.rng.range(-3, 3));
                if self.rng.chance(1, 2) {
                    neg(n)
                } else {
                    n
                }
            }
        }
    }

    fn list_lit(&mut self) -> Expr {
        if self.rng.chance(1, 4) {
            let lo = self.rng.range(0, 3);
            let hi = lo + self.rng.range(1, 3);
            Expr::FnCall {
                name: "range".into(),
                distinct: false,
                args: vec![Expr::int(lo), Expr::int(hi)],
            }
        } else {
            let n = self.rng.range(2, 4) as usize;
            Expr::List((0..n).map(|_| self.lit()).collect())
        }
    }

    /// A property access on a random in-scope entity var, if any.
    fn prop_access(&mut self) -> Option<Expr> {
        let vs = self.entity_vars();
        if vs.is_empty() {
            return None;
        }
        let v = vs[self.rng.below(vs.len())].clone();
        let key = (*self.rng.pick(KEYS)).to_owned();
        Some(Expr::prop(Expr::var(v), key))
    }

    /// A scalar expression; never a bare node/rel (those are only emitted as
    /// whole projection items).
    fn value_expr(&mut self, depth: usize) -> Expr {
        let choice = self.rng.weighted(if depth == 0 {
            &[4, 4, 2, 0, 0, 0]
        } else {
            &[3, 4, 1, 2, 1, 1]
        });
        match choice {
            0 => self.lit(),
            1 => self
                .prop_access()
                .unwrap_or_else(|| Expr::int(self.rng.range(0, 9))),
            2 => Expr::Parameter((*self.rng.pick(PARAMS)).to_owned()),
            3 => {
                let l = self.value_expr(depth - 1);
                let r = self.value_expr(depth - 1);
                let op = *self.rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
                Expr::Binary(op, Box::new(l), Box::new(r))
            }
            4 => self.fn_expr(depth),
            _ => self.fancy_expr(depth),
        }
    }

    fn fn_expr(&mut self, depth: usize) -> Expr {
        match self.rng.weighted(&[3, 3, 2, 2]) {
            0 => Expr::FnCall {
                name: "coalesce".into(),
                distinct: false,
                args: vec![
                    self.prop_access().unwrap_or(Expr::Literal(Lit::Null)),
                    self.lit(),
                ],
            },
            1 => Expr::FnCall {
                name: "size".into(),
                distinct: false,
                args: vec![self.list_lit()],
            },
            2 => match self.pick_var(VKind::Node) {
                Some(v) => Expr::FnCall {
                    name: "size".into(),
                    distinct: false,
                    args: vec![Expr::FnCall {
                        name: "labels".into(),
                        distinct: false,
                        args: vec![Expr::var(v)],
                    }],
                },
                None => self.lit(),
            },
            _ => match self.pick_var(VKind::Rel) {
                Some(v) => Expr::FnCall {
                    name: "type".into(),
                    distinct: false,
                    args: vec![Expr::var(v)],
                },
                None => self.value_expr(depth.saturating_sub(1)),
            },
        }
    }

    /// CASE / list comprehension / reduce — the long tail of the grammar.
    fn fancy_expr(&mut self, depth: usize) -> Expr {
        let d = depth.saturating_sub(1);
        match self.rng.weighted(&[2, 2, 1]) {
            0 => Expr::Case {
                input: None,
                branches: vec![(self.bool_expr(d), self.lit())],
                else_branch: Some(Box::new(self.lit())),
            },
            1 => {
                let var = self.local_binder();
                Expr::ListComprehension {
                    var: var.clone(),
                    list: Box::new(self.list_lit()),
                    filter: Some(Box::new(Expr::Binary(
                        BinOp::Gt,
                        Box::new(Expr::var(var.clone())),
                        Box::new(Expr::int(self.rng.range(0, 3))),
                    ))),
                    body: Some(Box::new(Expr::Binary(
                        BinOp::Add,
                        Box::new(Expr::var(var)),
                        Box::new(Expr::int(1)),
                    ))),
                }
            }
            _ => {
                let acc = self.local_binder();
                let var = self.local_binder();
                Expr::Reduce {
                    acc: acc.clone(),
                    init: Box::new(Expr::int(0)),
                    var: var.clone(),
                    list: Box::new(self.list_lit()),
                    body: Box::new(Expr::Binary(
                        BinOp::Add,
                        Box::new(Expr::var(acc)),
                        Box::new(Expr::var(var)),
                    )),
                }
            }
        }
    }

    /// A fresh name for an expression-local binder (comprehension /
    /// quantifier / reduce variable) — *not* entered into the clause scope.
    fn local_binder(&mut self) -> String {
        let name = format!("e{}", self.fresh);
        self.fresh += 1;
        name
    }

    fn bool_expr(&mut self, depth: usize) -> Expr {
        let choice = self.rng.weighted(if depth == 0 {
            &[4, 3, 2, 0, 2, 1, 1]
        } else {
            &[3, 2, 2, 4, 1, 1, 1]
        });
        match choice {
            0 => {
                let l = self
                    .prop_access()
                    .unwrap_or_else(|| Expr::int(self.rng.range(0, 9)));
                let op = *self.rng.pick(&[
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                ]);
                let r = if self.rng.chance(1, 4) {
                    Expr::Parameter((*self.rng.pick(PARAMS)).to_owned())
                } else {
                    self.lit()
                };
                Expr::Binary(op, Box::new(l), Box::new(r))
            }
            1 => Expr::IsNull {
                expr: Box::new(self.prop_access().unwrap_or(Expr::Literal(Lit::Null))),
                negated: self.rng.chance(1, 2),
            },
            2 => match self.pick_var(VKind::Node) {
                Some(v) => Expr::HasLabels(
                    Box::new(Expr::var(v)),
                    vec![(*self.rng.pick(LABELS)).to_owned()],
                ),
                None => Expr::Literal(Lit::Bool(true)),
            },
            3 => {
                let l = self.bool_expr(depth - 1);
                let r = self.bool_expr(depth - 1);
                match self.rng.weighted(&[3, 2, 1]) {
                    0 => Expr::Binary(BinOp::And, Box::new(l), Box::new(r)),
                    1 => Expr::Binary(BinOp::Or, Box::new(l), Box::new(r)),
                    _ => Expr::Unary(UnaryOp::Not, Box::new(l)),
                }
            }
            4 => {
                let l = self
                    .prop_access()
                    .unwrap_or_else(|| Expr::int(self.rng.range(0, 9)));
                Expr::Binary(BinOp::In, Box::new(l), Box::new(self.list_lit()))
            }
            5 => {
                let var = self.local_binder();
                let kind = *self.rng.pick(&[
                    QuantifierKind::All,
                    QuantifierKind::Any,
                    QuantifierKind::None,
                    QuantifierKind::Single,
                ]);
                Expr::Quantifier {
                    kind,
                    var: var.clone(),
                    list: Box::new(self.list_lit()),
                    pred: Box::new(Expr::Binary(
                        BinOp::Gt,
                        Box::new(Expr::var(var)),
                        Box::new(Expr::int(self.rng.range(0, 4))),
                    )),
                }
            }
            _ => match self.pick_var(VKind::Node) {
                Some(v) => self.edge_predicate(v),
                None => Expr::Literal(Lit::Bool(false)),
            },
        }
    }

    /// Pattern predicate: does an edge leave node `v`?
    fn edge_predicate(&mut self, v: String) -> Expr {
        Expr::PatternPredicate(Box::new(PathPattern {
            var: None,
            shortest: None,
            start: NodePattern {
                var: Some(v),
                labels: vec![],
                props: vec![],
            },
            steps: vec![(
                RelPattern {
                    var: None,
                    types: if self.rng.chance(1, 2) {
                        vec![(*self.rng.pick(RTYPES)).to_owned()]
                    } else {
                        vec![]
                    },
                    props: vec![],
                    direction: RelDirection::Outgoing,
                    length: None,
                },
                NodePattern::default(),
            )],
        }))
    }

    /// A `CREATE` property value that reads the graph: a pattern predicate,
    /// bare or under `exists`, over a node bound before the clause. This is
    /// where a clause that reads its own writes shows it.
    fn written_predicate(&mut self) -> Option<Expr> {
        let nodes: Vec<String> = self.scope[..self.clause_scope]
            .iter()
            .filter(|(_, k)| *k == VKind::Node)
            .map(|(n, _)| n.clone())
            .collect();
        if nodes.is_empty() {
            return None;
        }
        let v = nodes[self.rng.below(nodes.len())].clone();
        let pred = self.edge_predicate(v);
        Some(if self.rng.chance(1, 2) {
            Expr::FnCall {
                name: "exists".into(),
                distinct: false,
                args: vec![pred],
            }
        } else {
            pred
        })
    }

    // -- patterns -----------------------------------------------------------

    fn node_pattern(&mut self, reading: bool) -> NodePattern {
        let var = if self.rng.chance(4, 5) {
            Some(self.fresh(VKind::Node))
        } else {
            None
        };
        let mut labels = Vec::new();
        if self.rng.chance(3, 5) {
            labels.push((*self.rng.pick(LABELS)).to_owned());
        }
        let mut props = Vec::new();
        for _ in 0..self.rng.below(3) {
            let key = (*self.rng.pick(KEYS)).to_owned();
            if props.iter().any(|(k, _): &(String, Expr)| *k == key) {
                continue;
            }
            let value = if reading && self.rng.chance(1, 4) {
                Expr::Parameter((*self.rng.pick(PARAMS)).to_owned())
            } else if !reading && self.rng.chance(1, 5) {
                self.written_predicate().unwrap_or_else(|| self.lit())
            } else {
                self.lit()
            };
            props.push((key, value));
        }
        NodePattern { var, labels, props }
    }

    /// Reference an already-bound node var as a bare pattern node.
    fn bound_node(&mut self) -> Option<NodePattern> {
        self.pick_var(VKind::Node).map(|v| NodePattern {
            var: Some(v),
            labels: vec![],
            props: vec![],
        })
    }

    fn rel_pattern(&mut self, reading: bool) -> RelPattern {
        let var_length = reading && self.rng.chance(1, 7);
        let var = if !var_length && self.rng.chance(2, 5) {
            Some(self.fresh(VKind::Rel))
        } else {
            None
        };
        let types = if reading {
            match self.rng.weighted(&[2, 5, 1]) {
                0 => vec![],
                1 => vec![(*self.rng.pick(RTYPES)).to_owned()],
                _ => {
                    let a = (*self.rng.pick(RTYPES)).to_owned();
                    let b = (*self.rng.pick(RTYPES)).to_owned();
                    if a == b {
                        vec![a]
                    } else {
                        vec![a, b]
                    }
                }
            }
        } else {
            vec![(*self.rng.pick(RTYPES)).to_owned()]
        };
        let direction = if reading {
            *self.rng.pick(&[
                RelDirection::Outgoing,
                RelDirection::Outgoing,
                RelDirection::Incoming,
                RelDirection::Undirected,
            ])
        } else {
            *self
                .rng
                .pick(&[RelDirection::Outgoing, RelDirection::Incoming])
        };
        let mut props = Vec::new();
        if !var_length && self.rng.chance(1, 4) {
            props.push(("w".to_owned(), self.lit()));
        }
        RelPattern {
            var,
            types,
            props,
            direction,
            length: if var_length {
                Some(VarLength {
                    min: Some(1),
                    max: Some(2),
                })
            } else {
                None
            },
        }
    }

    fn path_pattern(&mut self, reading: bool) -> PathPattern {
        let steps = if reading {
            self.rng.weighted(&[3, 5, 2])
        } else {
            self.rng.weighted(&[4, 6, 0])
        };
        let start = if reading && self.rng.chance(1, 4) {
            self.bound_node()
                .unwrap_or_else(|| self.node_pattern(reading))
        } else {
            self.node_pattern(reading)
        };
        let steps = (0..steps)
            .map(|_| {
                let rel = self.rel_pattern(reading);
                let node = if reading && self.rng.chance(1, 5) {
                    self.bound_node()
                        .unwrap_or_else(|| self.node_pattern(reading))
                } else {
                    self.node_pattern(reading)
                };
                (rel, node)
            })
            .collect();
        PathPattern {
            var: None,
            shortest: None,
            start,
            steps,
        }
    }

    fn shortest_pattern(&mut self) -> PathPattern {
        let var = self.fresh(VKind::Path);
        let start = NodePattern {
            var: Some(self.fresh(VKind::Node)),
            labels: vec![(*self.rng.pick(LABELS)).to_owned()],
            props: vec![],
        };
        let end = NodePattern {
            var: Some(self.fresh(VKind::Node)),
            labels: vec![(*self.rng.pick(LABELS)).to_owned()],
            props: vec![],
        };
        PathPattern {
            var: Some(var),
            shortest: Some(if self.rng.chance(4, 5) {
                ShortestKind::Single
            } else {
                ShortestKind::All
            }),
            start,
            steps: vec![(
                RelPattern {
                    var: None,
                    types: vec![(*self.rng.pick(RTYPES)).to_owned()],
                    props: vec![],
                    direction: RelDirection::Outgoing,
                    length: Some(VarLength {
                        min: Some(1),
                        max: Some(3),
                    }),
                },
                end,
            )],
        }
    }

    // -- clauses ------------------------------------------------------------

    fn match_clause(&mut self) -> Clause {
        if self.rng.chance(1, 12) {
            return Clause::Match {
                optional: false,
                patterns: vec![self.shortest_pattern()],
                where_clause: None,
            };
        }
        let optional = self.rng.chance(1, 6);
        let n = if optional || self.rng.chance(2, 3) {
            1
        } else {
            2
        };
        let patterns = (0..n).map(|_| self.path_pattern(true)).collect();
        let where_clause = if self.rng.chance(3, 5) && !self.entity_vars().is_empty() {
            Some(self.bool_expr(1))
        } else {
            None
        };
        Clause::Match {
            optional,
            patterns,
            where_clause,
        }
    }

    fn unwind_clause(&mut self) -> Clause {
        let expr = self.list_lit();
        let alias = self.fresh(VKind::Value);
        Clause::Unwind { expr, alias }
    }

    fn reading_clause(&mut self) -> Clause {
        match self.rng.weighted(&[5, 1]) {
            0 => self.match_clause(),
            _ => self.unwind_clause(),
        }
    }

    /// Build a `WITH`, and replace the scope with what it projects.
    fn with_clause(&mut self) -> Clause {
        if self.scope.is_empty() {
            // `WITH *` (and an empty item list) is an error with nothing in
            // scope; project a constant instead.
            let alias = self.local_binder();
            self.scope.push((alias.clone(), VKind::Value));
            return Clause::With(Projection::items(vec![ProjectionItem {
                expr: Expr::int(1),
                alias: Some(alias),
            }]));
        }
        if self.rng.chance(1, 4) {
            return Clause::With(Projection::star());
        }
        let snapshot = self.scope.clone();
        let mut kept: Vec<(String, VKind)> = Vec::new();
        for entry in &snapshot {
            if self.rng.chance(7, 10) {
                kept.push(entry.clone());
            }
        }
        if kept.is_empty() {
            kept = snapshot;
        }
        let mut items: Vec<ProjectionItem> = kept
            .iter()
            .map(|(name, _)| ProjectionItem {
                expr: Expr::var(name.clone()),
                alias: None,
            })
            .collect();
        let mut out_scope = kept;
        if self.rng.chance(2, 5) {
            let expr = if self.rng.chance(1, 3) {
                self.aggregate_expr()
            } else {
                self.value_expr(1)
            };
            let alias = self.local_binder();
            items.push(ProjectionItem {
                expr,
                alias: Some(alias.clone()),
            });
            out_scope.push((alias, VKind::Value));
        }
        let mut p = Projection::items(items);
        p.distinct = self.rng.chance(1, 7);
        if self.rng.chance(1, 4) && !out_scope.is_empty() {
            let (name, _) = out_scope[self.rng.below(out_scope.len())].clone();
            p.order_by = vec![SortItem {
                expr: Expr::var(name),
                descending: self.rng.chance(1, 3),
            }];
        }
        if self.rng.chance(1, 10) {
            p.skip = Some(Expr::int(self.rng.range(0, 2)));
        }
        if self.rng.chance(1, 8) {
            p.limit = Some(Expr::int(self.rng.range(1, 5)));
        }
        self.scope = out_scope;
        if self.rng.chance(1, 4) && !self.entity_vars().is_empty() {
            p.where_clause = Some(self.bool_expr(0));
        }
        Clause::With(p)
    }

    fn aggregate_expr(&mut self) -> Expr {
        match self.rng.weighted(&[3, 2, 2, 2, 1]) {
            0 => Expr::CountStar,
            1 => match self.pick_var(VKind::Node) {
                Some(v) => Expr::FnCall {
                    name: "count".into(),
                    distinct: self.rng.chance(1, 4),
                    args: vec![Expr::var(v)],
                },
                None => Expr::CountStar,
            },
            2 => {
                let arg = self
                    .prop_access()
                    .unwrap_or_else(|| Expr::int(self.rng.range(0, 9)));
                Expr::FnCall {
                    name: (*self.rng.pick(&["sum", "min", "max"])).to_owned(),
                    distinct: false,
                    args: vec![arg],
                }
            }
            3 => {
                let arg = self
                    .prop_access()
                    .unwrap_or_else(|| Expr::int(self.rng.range(0, 9)));
                Expr::FnCall {
                    name: "collect".into(),
                    distinct: false,
                    args: vec![arg],
                }
            }
            _ => {
                let arg = self
                    .prop_access()
                    .unwrap_or_else(|| Expr::int(self.rng.range(0, 9)));
                Expr::FnCall {
                    name: "avg".into(),
                    distinct: false,
                    args: vec![arg],
                }
            }
        }
    }

    fn return_clause(&mut self) -> Clause {
        if self.scope.is_empty() {
            return Clause::Return(Projection::items(vec![ProjectionItem {
                expr: Expr::int(1),
                alias: Some("one".into()),
            }]));
        }
        let n_items = self.rng.range(1, 3) as usize;
        let mut items = Vec::new();
        let mut names: Vec<String> = Vec::new();
        for _ in 0..n_items {
            let (expr, alias) = match self.rng.weighted(&[3, 4, 2, 2]) {
                0 => {
                    let (name, _) = self.scope[self.rng.below(self.scope.len())].clone();
                    (Expr::var(name), None)
                }
                1 => {
                    let e = self
                        .prop_access()
                        .unwrap_or_else(|| Expr::int(self.rng.range(0, 9)));
                    let alias = if self.rng.chance(1, 2) {
                        Some(self.local_binder())
                    } else {
                        None
                    };
                    (e, alias)
                }
                2 => (self.value_expr(1), Some(self.local_binder())),
                _ => (self.aggregate_expr(), Some(self.local_binder())),
            };
            let name = alias
                .clone()
                .unwrap_or_else(|| cypher_parser::print_expr(&expr));
            if names.contains(&name) {
                continue;
            }
            names.push(name);
            items.push(ProjectionItem { expr, alias });
        }
        if items.is_empty() {
            items.push(ProjectionItem {
                expr: Expr::CountStar,
                alias: Some("c".into()),
            });
            names.push("c".into());
        }
        let mut p = Projection::items(items);
        p.distinct = self.rng.chance(1, 7);
        if self.rng.chance(3, 10) {
            p.order_by = vec![SortItem {
                expr: Expr::var(names[self.rng.below(names.len())].clone()),
                descending: self.rng.chance(1, 3),
            }];
        }
        if self.rng.chance(1, 8) {
            p.skip = Some(Expr::int(self.rng.range(0, 2)));
        }
        if self.rng.chance(1, 6) {
            p.limit = Some(Expr::int(self.rng.range(1, 5)));
        }
        Clause::Return(p)
    }

    // -- update clauses -----------------------------------------------------

    fn create_clause(&mut self) -> Clause {
        self.clause_scope = self.scope.len();
        let mut patterns = Vec::new();
        for _ in 0..self.rng.range(1, 2) {
            let pattern = match self.rng.weighted(&[3, 3, 2]) {
                // Fresh standalone node or short chain of fresh nodes.
                0 => self.path_pattern(false),
                // Connect two bound nodes.
                1 => match (self.bound_node(), self.bound_node()) {
                    (Some(a), Some(b)) => PathPattern {
                        var: None,
                        shortest: None,
                        start: a,
                        steps: vec![(self.rel_pattern(false), b)],
                    },
                    _ => self.path_pattern(false),
                },
                // Bound source to fresh target.
                _ => match self.bound_node() {
                    Some(a) => {
                        let rel = self.rel_pattern(false);
                        let node = self.node_pattern(false);
                        PathPattern {
                            var: None,
                            shortest: None,
                            start: a,
                            steps: vec![(rel, node)],
                        }
                    }
                    None => self.path_pattern(false),
                },
            };
            patterns.push(pattern);
        }
        Clause::Create { patterns }
    }

    fn set_items(&mut self, targets: &[String]) -> Vec<SetItem> {
        let mut items = Vec::new();
        for _ in 0..self.rng.range(1, 2) {
            let target = targets[self.rng.below(targets.len())].clone();
            let item = match self.rng.weighted(&[6, 2, 2, 1]) {
                0 => SetItem::Property {
                    target: Expr::var(target),
                    key: (*self.rng.pick(KEYS)).to_owned(),
                    value: if self.rng.chance(1, 10) {
                        Expr::Literal(Lit::Null)
                    } else {
                        self.value_expr(1)
                    },
                },
                1 => SetItem::Labels {
                    target,
                    labels: vec![(*self.rng.pick(LABELS)).to_owned()],
                },
                2 => SetItem::MergeProps {
                    target,
                    value: Expr::Map(vec![((*self.rng.pick(KEYS)).to_owned(), self.lit())]),
                },
                _ => SetItem::Replace {
                    target,
                    value: Expr::Map(vec![
                        ("id".to_owned(), Expr::int(self.rng.range(0, 9))),
                        ((*self.rng.pick(&["k", "name"])).to_owned(), self.lit()),
                    ]),
                },
            };
            items.push(item);
        }
        items
    }

    fn set_clause(&mut self) -> Option<Clause> {
        let targets = self.entity_vars();
        if targets.is_empty() {
            return None;
        }
        Some(Clause::Set {
            items: self.set_items(&targets),
        })
    }

    fn remove_clause(&mut self) -> Option<Clause> {
        let targets = self.entity_vars();
        if targets.is_empty() {
            return None;
        }
        let target = targets[self.rng.below(targets.len())].clone();
        let item = if self.rng.chance(2, 3) {
            RemoveItem::Property {
                target: Expr::var(target),
                key: (*self.rng.pick(KEYS)).to_owned(),
            }
        } else {
            RemoveItem::Labels {
                target,
                labels: vec![(*self.rng.pick(LABELS)).to_owned()],
            }
        };
        Some(Clause::Remove { items: vec![item] })
    }

    fn delete_clause(&mut self) -> Option<Clause> {
        let (var, is_rel) = if self.rng.chance(3, 10) {
            (self.pick_var(VKind::Rel), true)
        } else {
            (self.pick_var(VKind::Node), false)
        };
        let var = var.or_else(|| self.pick_var(VKind::Node))?;
        Some(Clause::Delete {
            detach: !is_rel && self.rng.chance(7, 10),
            exprs: vec![Expr::var(var)],
        })
    }

    fn merge_clause(&mut self) -> Clause {
        let kind = match self.dialect {
            Dialect::Cypher9 => MergeKind::Legacy,
            Dialect::Revised => {
                if self.rng.chance(2, 3) {
                    MergeKind::All
                } else {
                    MergeKind::Same
                }
            }
        };
        // A merge pattern: one node with props, or a single directed step.
        let pattern = if self.rng.chance(1, 2) {
            let var = Some(self.fresh(VKind::Node));
            let mut props = vec![("id".to_owned(), Expr::int(self.rng.range(0, 9)))];
            if self.rng.chance(1, 3) {
                props.push(("k".to_owned(), Expr::int(self.rng.range(0, 9))));
            }
            PathPattern::node(NodePattern {
                var,
                labels: vec![(*self.rng.pick(LABELS)).to_owned()],
                props,
            })
        } else {
            let start = self.bound_node().unwrap_or_else(|| NodePattern {
                var: Some(self.fresh(VKind::Node)),
                labels: vec![(*self.rng.pick(LABELS)).to_owned()],
                props: vec![("id".to_owned(), Expr::int(self.rng.range(0, 9)))],
            });
            let mut rel = self.rel_pattern(false);
            // Legacy MERGE may be undirected (§3); revised MERGE may not.
            if kind == MergeKind::Legacy && self.rng.chance(1, 6) {
                rel.direction = RelDirection::Undirected;
            }
            let end = NodePattern {
                var: Some(self.fresh(VKind::Node)),
                labels: vec![(*self.rng.pick(LABELS)).to_owned()],
                props: vec![("id".to_owned(), Expr::int(self.rng.range(0, 9)))],
            };
            PathPattern {
                var: None,
                shortest: None,
                start,
                steps: vec![(rel, end)],
            }
        };
        let merged_vars: Vec<String> = {
            let mut vs = Vec::new();
            if let Some(v) = &pattern.start.var {
                vs.push(v.clone());
            }
            for (rel, node) in &pattern.steps {
                if let Some(v) = &rel.var {
                    vs.push(v.clone());
                }
                if let Some(v) = &node.var {
                    vs.push(v.clone());
                }
            }
            vs
        };
        let (on_create, on_match) = if kind == MergeKind::Legacy && !merged_vars.is_empty() {
            (
                if self.rng.chance(2, 5) {
                    self.set_items(&merged_vars)
                } else {
                    vec![]
                },
                if self.rng.chance(2, 5) {
                    self.set_items(&merged_vars)
                } else {
                    vec![]
                },
            )
        } else {
            (vec![], vec![])
        };
        Clause::Merge {
            kind,
            patterns: vec![pattern],
            on_create,
            on_match,
        }
    }

    fn foreach_clause(&mut self) -> Clause {
        let var = self.local_binder();
        let list = self.list_lit();
        let mut body = Vec::new();
        let use_set = self.rng.chance(1, 2) && !self.entity_vars().is_empty();
        if use_set {
            let targets = self.entity_vars();
            let target = targets[self.rng.below(targets.len())].clone();
            body.push(Clause::Set {
                items: vec![SetItem::Property {
                    target: Expr::var(target),
                    key: (*self.rng.pick(KEYS)).to_owned(),
                    value: Expr::var(var.clone()),
                }],
            });
        } else {
            body.push(Clause::Create {
                patterns: vec![PathPattern::node(NodePattern {
                    var: None,
                    labels: vec![(*self.rng.pick(LABELS)).to_owned()],
                    props: vec![("k".to_owned(), Expr::var(var.clone()))],
                })],
            });
        }
        Clause::Foreach { var, list, body }
    }

    fn update_clause(&mut self) -> Clause {
        loop {
            match self.rng.weighted(&[4, 4, 2, 2, 3, 1]) {
                0 => return self.create_clause(),
                1 => {
                    if let Some(c) = self.set_clause() {
                        return c;
                    }
                }
                2 => {
                    if let Some(c) = self.remove_clause() {
                        return c;
                    }
                }
                3 => {
                    if let Some(c) = self.delete_clause() {
                        return c;
                    }
                }
                4 => return self.merge_clause(),
                _ => return self.foreach_clause(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Statement assembly
// ---------------------------------------------------------------------------

fn read_statement(rng: &mut SplitMix64, dialect: Dialect) -> Query {
    let mut ctx = Ctx::new(rng, dialect);
    let mut clauses = Vec::new();
    for _ in 0..ctx.rng.range(1, 2) {
        clauses.push(ctx.reading_clause());
    }
    if ctx.rng.chance(1, 3) {
        clauses.push(ctx.with_clause());
        if ctx.rng.chance(1, 2) {
            clauses.push(ctx.reading_clause());
        }
    }
    clauses.push(ctx.return_clause());
    let first = SingleQuery::new(clauses);
    // Occasionally a UNION with matching column names.
    let unions = if ctx.rng.chance(1, 12) {
        let arm = union_arm(ctx.rng, dialect, &first);
        match arm {
            Some(sq) => vec![(
                if ctx.rng.chance(1, 2) {
                    UnionKind::All
                } else {
                    UnionKind::Distinct
                },
                sq,
            )],
            None => vec![],
        }
    } else {
        vec![]
    };
    Query { first, unions }
}

/// Build a second `UNION` arm whose `RETURN` yields the same column names
/// as `first`'s. Columns are forced through explicit aliases.
fn union_arm(rng: &mut SplitMix64, dialect: Dialect, first: &SingleQuery) -> Option<SingleQuery> {
    let Some(Clause::Return(p)) = first.clauses.last() else {
        return None;
    };
    let ProjectionItems::Items(items) = &p.items else {
        return None;
    };
    let names: Vec<String> = items
        .iter()
        .map(|item| {
            item.alias
                .clone()
                .unwrap_or_else(|| cypher_parser::print_expr(&item.expr))
        })
        .collect();
    let mut ctx = Ctx::new(rng, dialect);
    let mut clauses = vec![ctx.match_clause()];
    let ret_items = names
        .iter()
        .map(|name| ProjectionItem {
            expr: ctx.value_expr(1),
            alias: Some(name.clone()),
        })
        .collect();
    clauses.push(Clause::Return(Projection::items(ret_items)));
    Some(SingleQuery::new(clauses))
}

fn update_statement(rng: &mut SplitMix64, dialect: Dialect) -> Query {
    let mut ctx = Ctx::new(rng, dialect);
    let mut clauses = Vec::new();
    // Reading prefix.
    if ctx.rng.chance(7, 10) {
        clauses.push(ctx.reading_clause());
        if ctx.rng.chance(1, 5) {
            clauses.push(ctx.reading_clause());
        }
    }
    for _ in 0..ctx.rng.range(1, 2) {
        clauses.push(ctx.update_clause());
    }
    // Optional second segment. In Cypher 9 a WITH must demarcate updates
    // from subsequent reads (§3); in the revised dialect clauses mix freely,
    // but the same shape is valid there too.
    if ctx.rng.chance(1, 4) {
        clauses.push(ctx.with_clause());
        if ctx.rng.chance(1, 2) {
            clauses.push(ctx.reading_clause());
        }
        if ctx.rng.chance(1, 2) {
            clauses.push(ctx.update_clause());
        }
    }
    if ctx.rng.chance(2, 5) {
        clauses.push(ctx.return_clause());
    }
    Query {
        first: SingleQuery::new(clauses),
        unions: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_validate_and_roundtrip() {
        for dialect in [Dialect::Cypher9, Dialect::Revised] {
            let mut rng = SplitMix64::new(11);
            for i in 0..40 {
                let script = ScriptGen.script(&mut rng, dialect, 6);
                for stmt in &script.stmts {
                    let q = cypher_parser::parse(stmt)
                        .unwrap_or_else(|e| panic!("script {i} stmt unparseable: {e}\n{stmt}"));
                    validate(&q, dialect)
                        .unwrap_or_else(|e| panic!("script {i} invalid: {e}\n{stmt}"));
                    assert_eq!(&print_query(&q), stmt, "printer not canonical for {stmt}");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_scripts() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..10 {
            let s1 = ScriptGen.script(&mut a, Dialect::Revised, 5);
            let s2 = ScriptGen.script(&mut b, Dialect::Revised, 5);
            assert_eq!(s1.stmts, s2.stmts);
        }
    }

    #[test]
    fn no_semicolons_in_statements() {
        // Reproducer files join statements with ';' — the vocabulary must
        // never produce one inside a statement.
        let mut rng = SplitMix64::new(3);
        for _ in 0..20 {
            let s = ScriptGen.script(&mut rng, Dialect::Cypher9, 6);
            for stmt in &s.stmts {
                assert!(!stmt.contains(';'), "semicolon in {stmt}");
            }
        }
    }
}
