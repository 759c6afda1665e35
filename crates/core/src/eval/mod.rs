//! Expression evaluation.
//!
//! [`eval`] implements the `[[e]]_{G,u}` function of §8.1: the value of an
//! expression given a graph and an assignment (here, a [`Record`]).
//! Aggregates are *not* handled here — they only make sense per group and
//! are evaluated by the projection machinery in `crate::exec` via [`agg`];
//! encountering one
//! in scalar position is [`EvalError::MisplacedAggregate`].

pub mod agg;
pub mod functions;

use std::collections::BTreeMap;

use cypher_graph::{EntityRef, PropertyGraph, Ternary, Value};
use cypher_parser::ast::{BinOp, Expr, Lit, QuantifierKind, UnaryOp};

use crate::error::{EvalError, Result};
use crate::table::Record;

/// Read-only evaluation context: the graph and statement parameters.
#[derive(Clone, Copy)]
pub struct EvalCtx<'a> {
    pub graph: &'a PropertyGraph,
    pub params: &'a BTreeMap<String, Value>,
    /// Matching discipline for pattern predicates (Example 7).
    pub match_mode: crate::pattern::MatchMode,
}

impl<'a> EvalCtx<'a> {
    pub fn new(graph: &'a PropertyGraph, params: &'a BTreeMap<String, Value>) -> Self {
        EvalCtx {
            graph,
            params,
            match_mode: crate::pattern::MatchMode::EdgeIsomorphic,
        }
    }

    /// Override the matching discipline.
    pub fn with_match_mode(mut self, mode: crate::pattern::MatchMode) -> Self {
        self.match_mode = mode;
        self
    }
}

/// Evaluate `expr` under record `rec` against the context graph.
pub fn eval(ctx: &EvalCtx, rec: &Record, expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(l) => Ok(match l {
            Lit::Null => Value::Null,
            Lit::Bool(b) => Value::Bool(*b),
            Lit::Int(i) => Value::Int(*i),
            Lit::Float(f) => Value::Float(*f),
            Lit::Str(s) => Value::Str(s.clone()),
        }),
        Expr::Variable(name) => rec
            .get(name)
            .cloned()
            .ok_or_else(|| EvalError::UnknownVariable(name.clone())),
        Expr::Parameter(name) => Ok(ctx.params.get(name).cloned().unwrap_or(Value::Null)),
        Expr::Property(base, key) => {
            let base = eval(ctx, rec, base)?;
            property_access(ctx.graph, &base, key)
        }
        Expr::List(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(eval(ctx, rec, item)?);
            }
            Ok(Value::List(out))
        }
        Expr::Map(entries) => {
            let mut out = BTreeMap::new();
            for (k, v) in entries {
                out.insert(k.clone(), eval(ctx, rec, v)?);
            }
            Ok(Value::Map(out))
        }
        Expr::Unary(op, inner) => {
            let v = eval(ctx, rec, inner)?;
            apply_unary(*op, v)
        }
        Expr::Binary(op, l, r) => eval_binary(ctx, rec, *op, l, r),
        Expr::IsNull { expr, negated } => {
            let v = eval(ctx, rec, expr)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Index(base, idx) => {
            let base = eval(ctx, rec, base)?;
            let idx = eval(ctx, rec, idx)?;
            index_access(ctx.graph, &base, &idx)
        }
        Expr::Slice { base, from, to } => {
            eval_slice(ctx, rec, base, from.as_deref(), to.as_deref())
        }
        Expr::FnCall {
            name,
            distinct,
            args,
        } => eval_call(ctx, rec, name, *distinct, args),
        Expr::CountStar => Err(EvalError::MisplacedAggregate),
        Expr::Case {
            input,
            branches,
            else_branch,
        } => eval_case(ctx, rec, input.as_deref(), branches, else_branch.as_deref()),
        Expr::HasLabels(base, labels) => eval_has_labels(ctx, rec, base, labels),
        Expr::ListComprehension {
            var,
            list,
            filter,
            body,
        } => eval_comprehension(ctx, rec, var, list, filter.as_deref(), body.as_deref()),
        Expr::Quantifier {
            kind,
            var,
            list,
            pred,
        } => eval_quantifier(ctx, rec, *kind, var, list, pred),
        Expr::PatternPredicate(pattern) => {
            let matcher = crate::pattern::Matcher::new(ctx.graph, ctx.params, ctx.match_mode);
            let found = matcher.any_match(rec, std::slice::from_ref(pattern.as_ref()));
            Ok(Value::Bool(found?))
        }
        Expr::Reduce {
            acc,
            init,
            var,
            list,
            body,
        } => eval_reduce(ctx, rec, acc, init, var, list, body),
    }
}

// The compound arms of `eval` live in functions of their own: an
// unoptimised build gives a function one stack frame for the locals of all
// its arms, and every nesting level of an expression recurses through
// `eval`.

fn eval_binary(ctx: &EvalCtx, rec: &Record, op: BinOp, l: &Expr, r: &Expr) -> Result<Value> {
    // Short-circuit boolean ops must still respect ternary logic:
    // False AND x = False without evaluating x is safe; True OR x
    // likewise.
    match op {
        BinOp::And => {
            let lv = truth(eval(ctx, rec, l)?, "AND")?;
            if lv == Ternary::False {
                return Ok(Value::Bool(false));
            }
            let rv = truth(eval(ctx, rec, r)?, "AND")?;
            Ok(lv.and(rv).into_value())
        }
        BinOp::Or => {
            let lv = truth(eval(ctx, rec, l)?, "OR")?;
            if lv == Ternary::True {
                return Ok(Value::Bool(true));
            }
            let rv = truth(eval(ctx, rec, r)?, "OR")?;
            Ok(lv.or(rv).into_value())
        }
        _ => {
            let lv = eval(ctx, rec, l)?;
            let rv = eval(ctx, rec, r)?;
            apply_binary(op, lv, rv)
        }
    }
}

fn eval_slice(
    ctx: &EvalCtx,
    rec: &Record,
    base: &Expr,
    from: Option<&Expr>,
    to: Option<&Expr>,
) -> Result<Value> {
    let base = eval(ctx, rec, base)?;
    let from = from.map(|e| eval(ctx, rec, e)).transpose()?;
    let to = to.map(|e| eval(ctx, rec, e)).transpose()?;
    slice_access(&base, from, to)
}

fn eval_has_labels(ctx: &EvalCtx, rec: &Record, base: &Expr, labels: &[String]) -> Result<Value> {
    match eval(ctx, rec, base)? {
        Value::Null => Ok(Value::Null),
        Value::Node(n) => {
            let has_all = labels.iter().all(|l| {
                ctx.graph
                    .try_sym(l)
                    .is_some_and(|sym| ctx.graph.labels(n).contains(&sym))
            });
            Ok(Value::Bool(has_all))
        }
        other => Err(type_err("node", &other, "label predicate")),
    }
}

fn eval_call(
    ctx: &EvalCtx,
    rec: &Record,
    name: &str,
    distinct: bool,
    args: &[Expr],
) -> Result<Value> {
    if cypher_parser::ast::is_aggregate_fn(name) {
        return Err(EvalError::MisplacedAggregate);
    }
    if distinct {
        return Err(EvalError::BadArguments {
            function: name.to_owned(),
            message: "DISTINCT only applies to aggregates".into(),
        });
    }
    // `exists(<pattern>)` is the pattern predicate's own value: its `Bool`
    // is never null, so the null test `exists(x)` applies would say `true`.
    if let [arg @ Expr::PatternPredicate(_)] = args {
        if name.eq_ignore_ascii_case("exists") {
            return eval(ctx, rec, arg);
        }
    }
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        vals.push(eval(ctx, rec, a)?);
    }
    functions::call(ctx.graph, name, vals)
}

fn eval_case(
    ctx: &EvalCtx,
    rec: &Record,
    input: Option<&Expr>,
    branches: &[(Expr, Expr)],
    else_branch: Option<&Expr>,
) -> Result<Value> {
    match input {
        Some(input) => {
            let iv = eval(ctx, rec, input)?;
            for (when, then) in branches {
                let wv = eval(ctx, rec, when)?;
                if iv.cypher_eq(&wv).is_true() {
                    return eval(ctx, rec, then);
                }
            }
        }
        None => {
            for (when, then) in branches {
                let wv = eval(ctx, rec, when)?;
                if truth(wv, "CASE WHEN")? == Ternary::True {
                    return eval(ctx, rec, then);
                }
            }
        }
    }
    match else_branch {
        Some(e) => eval(ctx, rec, e),
        None => Ok(Value::Null),
    }
}

/// The items of a list operand; `None` for `null`.
fn list_items(
    ctx: &EvalCtx,
    rec: &Record,
    list: &Expr,
    context: &'static str,
) -> Result<Option<Vec<Value>>> {
    match eval(ctx, rec, list)? {
        Value::Null => Ok(None),
        Value::List(items) => Ok(Some(items)),
        other => Err(type_err("list", &other, context)),
    }
}

fn eval_comprehension(
    ctx: &EvalCtx,
    rec: &Record,
    var: &str,
    list: &Expr,
    filter: Option<&Expr>,
    body: Option<&Expr>,
) -> Result<Value> {
    let Some(items) = list_items(ctx, rec, list, "list comprehension")? else {
        return Ok(Value::Null);
    };
    let mut out = Vec::new();
    let mut env = rec.clone();
    for item in items {
        env.bind(var.to_owned(), item.clone());
        if let Some(f) = filter {
            if !truth(eval(ctx, &env, f)?, "comprehension filter")?.is_true() {
                continue;
            }
        }
        out.push(match body {
            Some(b) => eval(ctx, &env, b)?,
            None => item,
        });
    }
    Ok(Value::List(out))
}

fn eval_quantifier(
    ctx: &EvalCtx,
    rec: &Record,
    kind: QuantifierKind,
    var: &str,
    list: &Expr,
    pred: &Expr,
) -> Result<Value> {
    let Some(items) = list_items(ctx, rec, list, "quantifier")? else {
        return Ok(Value::Null);
    };
    let mut env = rec.clone();
    let mut trues = 0usize;
    let mut unknowns = 0usize;
    for item in items.iter() {
        env.bind(var.to_owned(), item.clone());
        match truth(eval(ctx, &env, pred)?, "quantifier predicate")? {
            Ternary::True => trues += 1,
            Ternary::Unknown => unknowns += 1,
            Ternary::False => {}
        }
    }
    let falses = items.len() - trues - unknowns;
    // Ternary quantifier semantics (openCypher): unknown inputs can make
    // the result unknown when they could flip it.
    let result = match kind {
        QuantifierKind::All => {
            if falses > 0 {
                Ternary::False
            } else if unknowns > 0 {
                Ternary::Unknown
            } else {
                Ternary::True
            }
        }
        QuantifierKind::Any => {
            if trues > 0 {
                Ternary::True
            } else if unknowns > 0 {
                Ternary::Unknown
            } else {
                Ternary::False
            }
        }
        QuantifierKind::None => {
            if trues > 0 {
                Ternary::False
            } else if unknowns > 0 {
                Ternary::Unknown
            } else {
                Ternary::True
            }
        }
        QuantifierKind::Single => {
            if trues > 1 {
                Ternary::False
            } else if unknowns > 0 {
                Ternary::Unknown
            } else {
                Ternary::from_bool(trues == 1)
            }
        }
    };
    Ok(result.into_value())
}

fn eval_reduce(
    ctx: &EvalCtx,
    rec: &Record,
    acc: &str,
    init: &Expr,
    var: &str,
    list: &Expr,
    body: &Expr,
) -> Result<Value> {
    let Some(items) = list_items(ctx, rec, list, "reduce")? else {
        return Ok(Value::Null);
    };
    let mut env = rec.clone();
    let mut accumulator = eval(ctx, rec, init)?;
    for item in items {
        env.bind(acc.to_owned(), accumulator);
        env.bind(var.to_owned(), item);
        accumulator = eval(ctx, &env, body)?;
    }
    Ok(accumulator)
}

/// Evaluate a predicate to ternary truth (`WHERE`, `CASE WHEN`, …).
pub fn eval_predicate(ctx: &EvalCtx, rec: &Record, expr: &Expr) -> Result<Ternary> {
    truth(eval(ctx, rec, expr)?, "predicate")
}

fn truth(v: Value, context: &'static str) -> Result<Ternary> {
    match v {
        Value::Bool(b) => Ok(Ternary::from_bool(b)),
        Value::Null => Ok(Ternary::Unknown),
        other => Err(type_err("boolean", &other, context)),
    }
}

pub(crate) fn type_err(expected: &'static str, got: &Value, context: &'static str) -> EvalError {
    let got = match got {
        Value::Null => "null".to_owned(),
        Value::Bool(_) => "boolean".to_owned(),
        Value::Int(_) => "integer".to_owned(),
        Value::Float(_) => "float".to_owned(),
        Value::Str(_) => "string".to_owned(),
        Value::List(_) => "list".to_owned(),
        Value::Map(_) => "map".to_owned(),
        Value::Node(_) => "node".to_owned(),
        Value::Rel(_) => "relationship".to_owned(),
        Value::Path(_) => "path".to_owned(),
    };
    EvalError::Type {
        expected,
        got,
        context,
    }
}

/// `base.key` for nodes, relationships, maps and null.
pub fn property_access(graph: &PropertyGraph, base: &Value, key: &str) -> Result<Value> {
    match base {
        Value::Null => Ok(Value::Null),
        Value::Node(n) => Ok(graph
            .try_sym(key)
            .map(|k| graph.prop(EntityRef::Node(*n), k))
            .unwrap_or(Value::Null)),
        Value::Rel(r) => Ok(graph
            .try_sym(key)
            .map(|k| graph.prop(EntityRef::Rel(*r), k))
            .unwrap_or(Value::Null)),
        Value::Map(m) => Ok(m.get(key).cloned().unwrap_or(Value::Null)),
        other => Err(type_err(
            "node, relationship or map",
            other,
            "property access",
        )),
    }
}

fn index_access(graph: &PropertyGraph, base: &Value, idx: &Value) -> Result<Value> {
    match (base, idx) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::List(items), Value::Int(i)) => {
            let len = items.len() as i64;
            let i = if *i < 0 { i + len } else { *i };
            if i < 0 || i >= len {
                Ok(Value::Null)
            } else {
                Ok(items[i as usize].clone())
            }
        }
        (Value::Map(_) | Value::Node(_) | Value::Rel(_), Value::Str(key)) => {
            property_access(graph, base, key)
        }
        (b, i) => Err(type_err(
            "list[int] or map[string]",
            if matches!(b, Value::List(_)) { i } else { b },
            "index access",
        )),
    }
}

fn slice_access(base: &Value, from: Option<Value>, to: Option<Value>) -> Result<Value> {
    let Value::List(items) = base else {
        if base.is_null() {
            return Ok(Value::Null);
        }
        return Err(type_err("list", base, "slice"));
    };
    let len = items.len() as i64;
    let norm = |v: Option<Value>, default: i64| -> Result<i64> {
        match v {
            None => Ok(default),
            Some(Value::Int(i)) => Ok(if i < 0 { (i + len).max(0) } else { i.min(len) }),
            Some(Value::Null) => Ok(default),
            Some(other) => Err(type_err("integer", &other, "slice bound")),
        }
    };
    let from = norm(from, 0)?;
    let to = norm(to, len)?;
    if from >= to {
        return Ok(Value::List(vec![]));
    }
    Ok(Value::List(items[from as usize..to as usize].to_vec()))
}

/// Apply a unary operator.
pub fn apply_unary(op: UnaryOp, v: Value) -> Result<Value> {
    match op {
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(type_err("boolean", &other, "NOT")),
        },
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => i
                .checked_neg()
                .map(Value::Int)
                .ok_or_else(|| EvalError::Arithmetic("integer overflow in negation".into())),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(type_err("number", &other, "unary minus")),
        },
        UnaryOp::Pos => match v {
            Value::Null | Value::Int(_) | Value::Float(_) => Ok(v),
            other => Err(type_err("number", &other, "unary plus")),
        },
    }
}

/// Apply a binary operator to already-evaluated operands. Shared between
/// scalar evaluation and grouped (aggregate-bearing) evaluation.
pub fn apply_binary(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use BinOp::*;
    match op {
        Eq => Ok(l.cypher_eq(&r).into_value()),
        Ne => Ok(l.cypher_eq(&r).not().into_value()),
        Lt | Le | Gt | Ge => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match l.cypher_cmp(&r) {
                None => Ok(Value::Null),
                Some(ord) => {
                    let b = match op {
                        Lt => ord.is_lt(),
                        Le => ord.is_le(),
                        Gt => ord.is_gt(),
                        Ge => ord.is_ge(),
                        _ => unreachable!(),
                    };
                    Ok(Value::Bool(b))
                }
            }
        }
        And => {
            let lt = truth(l, "AND")?;
            let rt = truth(r, "AND")?;
            Ok(lt.and(rt).into_value())
        }
        Or => {
            let lt = truth(l, "OR")?;
            let rt = truth(r, "OR")?;
            Ok(lt.or(rt).into_value())
        }
        Xor => {
            let lt = truth(l, "XOR")?;
            let rt = truth(r, "XOR")?;
            Ok(lt.xor(rt).into_value())
        }
        Add => add_values(l, r),
        Sub => numeric_op(l, r, "-", |a, b| a.checked_sub(b), |a, b| a - b),
        Mul => numeric_op(l, r, "*", |a, b| a.checked_mul(b), |a, b| a * b),
        Div => match (&l, &r) {
            (Value::Int(_), Value::Int(0)) => Err(EvalError::Arithmetic("division by zero".into())),
            _ => numeric_op(l, r, "/", |a, b| a.checked_div(b), |a, b| a / b),
        },
        Mod => match (&l, &r) {
            (Value::Int(_), Value::Int(0)) => Err(EvalError::Arithmetic("modulo by zero".into())),
            _ => numeric_op(l, r, "%", |a, b| a.checked_rem(b), |a, b| a % b),
        },
        Pow => match (&l, &r) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Float((*a as f64).powf(*b as f64))),
            (Value::Int(a), Value::Float(b)) => Ok(Value::Float((*a as f64).powf(*b))),
            (Value::Float(a), Value::Int(b)) => Ok(Value::Float(a.powf(*b as f64))),
            (Value::Float(a), Value::Float(b)) => Ok(Value::Float(a.powf(*b))),
            _ => Err(type_err("number", if l.is_null() { &r } else { &l }, "^")),
        },
        StartsWith | EndsWith | Contains => match (&l, &r) {
            (Value::Str(a), Value::Str(b)) => Ok(Value::Bool(match op {
                StartsWith => a.starts_with(b.as_str()),
                EndsWith => a.ends_with(b.as_str()),
                Contains => a.contains(b.as_str()),
                _ => unreachable!(),
            })),
            // Any non-string operand (including null) yields null.
            _ => Ok(Value::Null),
        },
        In => match (&l, &r) {
            (_, Value::Null) => Ok(Value::Null),
            (_, Value::List(items)) => {
                let mut saw_unknown = false;
                for item in items {
                    match l.cypher_eq(item) {
                        Ternary::True => return Ok(Value::Bool(true)),
                        Ternary::Unknown => saw_unknown = true,
                        Ternary::False => {}
                    }
                }
                if saw_unknown {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(false))
                }
            }
            (_, other) => Err(type_err("list", other, "IN")),
        },
    }
}

fn add_values(l: Value, r: Value) -> Result<Value> {
    match (l, r) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Int(a), Value::Int(b)) => a
            .checked_add(b)
            .map(Value::Int)
            .ok_or_else(|| EvalError::Arithmetic("integer overflow in +".into())),
        (Value::Int(a), Value::Float(b)) => Ok(Value::Float(a as f64 + b)),
        (Value::Float(a), Value::Int(b)) => Ok(Value::Float(a + b as f64)),
        (Value::Float(a), Value::Float(b)) => Ok(Value::Float(a + b)),
        (Value::Str(a), Value::Str(b)) => Ok(Value::Str(a + &b)),
        (Value::Str(a), b @ (Value::Int(_) | Value::Float(_) | Value::Bool(_))) => {
            Ok(Value::Str(format!("{a}{b}")))
        }
        (a @ (Value::Int(_) | Value::Float(_) | Value::Bool(_)), Value::Str(b)) => {
            Ok(Value::Str(format!("{a}{b}")))
        }
        (Value::List(mut a), Value::List(b)) => {
            a.extend(b);
            Ok(Value::List(a))
        }
        (Value::List(mut a), b) => {
            a.push(b);
            Ok(Value::List(a))
        }
        (a, Value::List(mut b)) => {
            b.insert(0, a);
            Ok(Value::List(b))
        }
        (a, b) => Err(type_err(
            "numbers, strings or lists",
            if matches!(a, Value::Int(_) | Value::Float(_) | Value::Str(_)) {
                &b
            } else {
                &a
            },
            "+",
        )
        .clone()),
    }
}

fn numeric_op(
    l: Value,
    r: Value,
    op: &'static str,
    int_op: impl Fn(i64, i64) -> Option<i64>,
    float_op: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    match (&l, &r) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Int(a), Value::Int(b)) => int_op(*a, *b)
            .map(Value::Int)
            .ok_or_else(|| EvalError::Arithmetic(format!("integer overflow in {op}"))),
        (Value::Int(a), Value::Float(b)) => Ok(Value::Float(float_op(*a as f64, *b))),
        (Value::Float(a), Value::Int(b)) => Ok(Value::Float(float_op(*a, *b as f64))),
        (Value::Float(a), Value::Float(b)) => Ok(Value::Float(float_op(*a, *b))),
        _ => Err(type_err(
            "number",
            if matches!(l, Value::Int(_) | Value::Float(_)) {
                &r
            } else {
                &l
            },
            "arithmetic",
        )
        .clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_parser::parse;

    fn eval_str(expr_text: &str) -> Result<Value> {
        let q = parse(&format!("RETURN {expr_text}")).unwrap();
        let cypher_parser::ast::Clause::Return(p) = &q.first.clauses[0] else {
            panic!()
        };
        let cypher_parser::ast::ProjectionItems::Items(items) = &p.items else {
            panic!()
        };
        let graph = PropertyGraph::new();
        let params = BTreeMap::new();
        let ctx = EvalCtx::new(&graph, &params);
        eval(&ctx, &Record::new(), &items[0].expr)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(eval_str("1 + 2 * 3").unwrap(), Value::Int(7));
        assert_eq!(eval_str("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(eval_str("7 % 3").unwrap(), Value::Int(1));
        assert_eq!(eval_str("2 ^ 3").unwrap(), Value::Float(8.0));
        assert_eq!(eval_str("-(3)").unwrap(), Value::Int(-3));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(matches!(eval_str("1 / 0"), Err(EvalError::Arithmetic(_))));
        assert!(matches!(eval_str("1 % 0"), Err(EvalError::Arithmetic(_))));
        // Float division by zero is IEEE infinity, not an error.
        assert_eq!(eval_str("1.0 / 0.0").unwrap(), Value::Float(f64::INFINITY));
    }

    #[test]
    fn overflow_errors() {
        assert!(matches!(
            eval_str("9223372036854775807 + 1"),
            Err(EvalError::Arithmetic(_))
        ));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_str("1 + null").unwrap(), Value::Null);
        assert_eq!(eval_str("null = null").unwrap(), Value::Null);
        assert_eq!(eval_str("null IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("1 IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn ternary_logic() {
        assert_eq!(eval_str("true AND null").unwrap(), Value::Null);
        assert_eq!(eval_str("false AND null").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("true OR null").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("false XOR true").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("NOT null").unwrap(), Value::Null);
    }

    #[test]
    fn string_concat_and_predicates() {
        assert_eq!(eval_str("'lap' + 'top'").unwrap(), Value::str("laptop"));
        assert_eq!(eval_str("'v' + 1").unwrap(), Value::str("v1"));
        assert_eq!(
            eval_str("'laptop' STARTS WITH 'lap'").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("'laptop' CONTAINS 'pto'").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_str("'laptop' ENDS WITH 'top'").unwrap(),
            Value::Bool(true)
        );
        assert_eq!(eval_str("1 STARTS WITH 'x'").unwrap(), Value::Null);
    }

    #[test]
    fn in_operator_three_valued() {
        assert_eq!(eval_str("2 IN [1, 2, 3]").unwrap(), Value::Bool(true));
        assert_eq!(eval_str("5 IN [1, 2, 3]").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("5 IN [1, null]").unwrap(), Value::Null);
        assert_eq!(eval_str("null IN []").unwrap(), Value::Bool(false));
        assert_eq!(eval_str("null IN [1]").unwrap(), Value::Null);
        assert_eq!(eval_str("1 IN null").unwrap(), Value::Null);
    }

    #[test]
    fn list_index_and_slice() {
        assert_eq!(eval_str("[1,2,3][0]").unwrap(), Value::Int(1));
        assert_eq!(eval_str("[1,2,3][-1]").unwrap(), Value::Int(3));
        assert_eq!(eval_str("[1,2,3][9]").unwrap(), Value::Null);
        assert_eq!(
            eval_str("[1,2,3,4][1..3]").unwrap(),
            Value::list([Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            eval_str("[1,2,3][..2]").unwrap(),
            Value::list([Value::Int(1), Value::Int(2)])
        );
        assert_eq!(
            eval_str("[1,2,3][-2..]").unwrap(),
            Value::list([Value::Int(2), Value::Int(3)])
        );
        assert_eq!(eval_str("[1,2,3][2..1]").unwrap(), Value::List(vec![]));
    }

    #[test]
    fn list_concat() {
        assert_eq!(
            eval_str("[1] + [2]").unwrap(),
            Value::list([Value::Int(1), Value::Int(2)])
        );
        assert_eq!(
            eval_str("[1] + 2").unwrap(),
            Value::list([Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn map_literals_and_access() {
        assert_eq!(eval_str("{a: 1}.a").unwrap(), Value::Int(1));
        assert_eq!(eval_str("{a: 1}.b").unwrap(), Value::Null);
        assert_eq!(eval_str("{a: 1}['a']").unwrap(), Value::Int(1));
    }

    #[test]
    fn case_expressions() {
        assert_eq!(
            eval_str("CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END").unwrap(),
            Value::str("yes")
        );
        assert_eq!(
            eval_str("CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END").unwrap(),
            Value::str("two")
        );
        assert_eq!(
            eval_str("CASE 9 WHEN 1 THEN 'one' END").unwrap(),
            Value::Null
        );
    }

    #[test]
    fn comparisons_between_incompatible_types_are_null() {
        assert_eq!(eval_str("1 < 'a'").unwrap(), Value::Null);
        assert_eq!(eval_str("1 = 'a'").unwrap(), Value::Bool(false));
    }

    #[test]
    fn aggregates_rejected_in_scalar_position() {
        assert!(matches!(
            eval_str("count(*)"),
            Err(EvalError::MisplacedAggregate)
        ));
    }

    #[test]
    fn unknown_variable_error() {
        assert!(matches!(
            eval_str("nosuch"),
            Err(EvalError::UnknownVariable(_))
        ));
    }

    #[test]
    fn parameters_default_to_null() {
        assert_eq!(eval_str("$missing").unwrap(), Value::Null);
    }

    #[test]
    fn node_property_access() {
        let mut graph = PropertyGraph::new();
        let k = graph.sym("id");
        let n = graph.create_node([], [(k, Value::Int(5))]);
        let params = BTreeMap::new();
        let ctx = EvalCtx::new(&graph, &params);
        let mut rec = Record::new();
        rec.bind("n", Value::Node(n));
        let expr = Expr::prop(Expr::var("n"), "id");
        assert_eq!(eval(&ctx, &rec, &expr).unwrap(), Value::Int(5));
        let expr = Expr::prop(Expr::var("n"), "missing");
        assert_eq!(eval(&ctx, &rec, &expr).unwrap(), Value::Null);
    }
}
