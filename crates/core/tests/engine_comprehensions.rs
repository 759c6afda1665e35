//! Tests for list comprehensions, quantifiers (`all`/`any`/`none`/`single`),
//! `reduce`, and the legacy `MERGE … ON CREATE SET / ON MATCH SET` actions.

use cypher_core::{Engine, EvalError};
use cypher_graph::{Delta, EntityRef, NodeId, PropertyGraph, Value};

fn eval1(expr: &str) -> Value {
    let mut g = PropertyGraph::new();
    let r = Engine::revised()
        .run(&mut g, &format!("RETURN {expr} AS out"))
        .unwrap_or_else(|e| panic!("failed to evaluate {expr}: {e}"));
    r.rows[0][0].clone()
}

// ---------------------------------------------------------------------
// List comprehensions
// ---------------------------------------------------------------------

#[test]
fn comprehension_filter_and_map() {
    assert_eq!(
        eval1("[x IN [1,2,3,4] WHERE x % 2 = 0 | x * 10]"),
        Value::list([Value::Int(20), Value::Int(40)])
    );
}

#[test]
fn comprehension_filter_only() {
    assert_eq!(
        eval1("[x IN [1,2,3] WHERE x > 1]"),
        Value::list([Value::Int(2), Value::Int(3)])
    );
}

#[test]
fn comprehension_map_only() {
    assert_eq!(
        eval1("[x IN [1,2] | x + 1]"),
        Value::list([Value::Int(2), Value::Int(3)])
    );
}

#[test]
fn comprehension_identity() {
    assert_eq!(
        eval1("[x IN [1,2]]"),
        Value::list([Value::Int(1), Value::Int(2)])
    );
}

#[test]
fn comprehension_over_null_is_null() {
    assert_eq!(eval1("[x IN null | x]"), Value::Null);
}

#[test]
fn comprehension_unknown_filter_drops_element() {
    assert_eq!(
        eval1("[x IN [1, null, 3] WHERE x > 1]"),
        Value::list([Value::Int(3)])
    );
}

#[test]
fn comprehension_shadows_outer_variable() {
    let mut g = PropertyGraph::new();
    let r = Engine::revised()
        .run(
            &mut g,
            "WITH 100 AS x RETURN [x IN [1,2] | x] AS inner, x AS outer",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::list([Value::Int(1), Value::Int(2)]));
    assert_eq!(r.rows[0][1], Value::Int(100));
}

#[test]
fn comprehension_over_range() {
    assert_eq!(
        eval1("size([x IN range(1, 100) WHERE x % 7 = 0])"),
        Value::Int(14)
    );
}

// ---------------------------------------------------------------------
// Quantifiers
// ---------------------------------------------------------------------

#[test]
fn quantifier_all() {
    assert_eq!(eval1("all(x IN [1,2,3] WHERE x > 0)"), Value::Bool(true));
    assert_eq!(eval1("all(x IN [1,2,3] WHERE x > 1)"), Value::Bool(false));
    assert_eq!(eval1("all(x IN [] WHERE x > 1)"), Value::Bool(true));
    // Unknown can flip a would-be-true result.
    assert_eq!(eval1("all(x IN [1, null] WHERE x > 0)"), Value::Null);
    // …but a definite false dominates.
    assert_eq!(eval1("all(x IN [0, null] WHERE x > 0)"), Value::Bool(false));
}

#[test]
fn quantifier_any_none() {
    assert_eq!(eval1("any(x IN [0, 2] WHERE x > 1)"), Value::Bool(true));
    assert_eq!(eval1("any(x IN [0, 1] WHERE x > 1)"), Value::Bool(false));
    assert_eq!(eval1("any(x IN [0, null] WHERE x > 1)"), Value::Null);
    assert_eq!(eval1("none(x IN [0, 1] WHERE x > 1)"), Value::Bool(true));
    assert_eq!(eval1("none(x IN [0, 2] WHERE x > 1)"), Value::Bool(false));
}

#[test]
fn quantifier_single() {
    assert_eq!(eval1("single(x IN [0, 2] WHERE x > 1)"), Value::Bool(true));
    assert_eq!(eval1("single(x IN [2, 3] WHERE x > 1)"), Value::Bool(false));
    assert_eq!(eval1("single(x IN [] WHERE x > 1)"), Value::Bool(false));
    assert_eq!(eval1("single(x IN [2, null] WHERE x > 1)"), Value::Null);
}

#[test]
fn quantifier_over_null_list_is_null() {
    assert_eq!(eval1("all(x IN null WHERE x > 0)"), Value::Null);
}

#[test]
fn quantifiers_usable_in_where() {
    let mut g = PropertyGraph::new();
    let e = Engine::revised();
    e.run(&mut g, "CREATE (:T {xs: [1,2,3]}), (:T {xs: [1,-2,3]})")
        .unwrap();
    let r = e
        .run(
            &mut g,
            "MATCH (t:T) WHERE all(x IN t.xs WHERE x > 0) RETURN count(*) AS c",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
}

// ---------------------------------------------------------------------
// reduce
// ---------------------------------------------------------------------

#[test]
fn reduce_sums() {
    assert_eq!(
        eval1("reduce(acc = 0, x IN [1,2,3] | acc + x)"),
        Value::Int(6)
    );
}

#[test]
fn reduce_builds_strings() {
    assert_eq!(
        eval1("reduce(s = '', w IN ['a','b','c'] | s + w)"),
        Value::str("abc")
    );
}

#[test]
fn reduce_empty_list_returns_init() {
    assert_eq!(eval1("reduce(acc = 42, x IN [] | acc + x)"), Value::Int(42));
}

#[test]
fn reduce_over_null_is_null() {
    assert_eq!(eval1("reduce(acc = 0, x IN null | acc + x)"), Value::Null);
}

#[test]
fn reduce_nested_in_comprehension() {
    assert_eq!(
        eval1("[n IN [2, 3] | reduce(acc = 1, x IN range(1, n) | acc * x)]"),
        Value::list([Value::Int(2), Value::Int(6)])
    );
}

// ---------------------------------------------------------------------
// Plain function calls named like quantifiers still work
// ---------------------------------------------------------------------

#[test]
fn reduce_without_accumulator_is_a_plain_function_call() {
    // `reduce(1, 2)` is not the special form; it hits the function library
    // and errors as unknown.
    let mut g = PropertyGraph::new();
    let err = Engine::revised()
        .run(&mut g, "RETURN reduce(1, 2) AS out")
        .unwrap_err();
    assert!(matches!(err, EvalError::UnknownFunction(_)));
}

// ---------------------------------------------------------------------
// ON CREATE SET / ON MATCH SET (legacy MERGE)
// ---------------------------------------------------------------------

#[test]
fn merge_on_create_runs_only_for_created() {
    let mut g = PropertyGraph::new();
    let e = Engine::legacy();
    e.run(&mut g, "CREATE (:User {id: 1})").unwrap();
    g.enable_delta_capture();
    e.run(
        &mut g,
        "UNWIND [1, 2] AS uid \
         MERGE (u:User {id: uid}) \
         ON CREATE SET u.created = true \
         ON MATCH SET u.matched = true",
    )
    .unwrap();
    // Per record: the match's action, or the creation and then its action.
    let set = |node: u64, key: &str| Delta::SetProp {
        entity: EntityRef::Node(NodeId(node)),
        key: key.to_owned(),
        value: Some(Value::Bool(true)),
    };
    assert_eq!(
        Delta::from_ops(&g.take_delta(), &g),
        vec![
            set(0, "matched"),
            Delta::CreateNode {
                id: 1,
                labels: vec!["User".to_owned()],
                props: vec![("id".to_owned(), Value::Int(2))],
            },
            set(1, "created"),
        ]
    );
    let r = e
        .run(
            &mut g,
            "MATCH (u:User) RETURN u.id AS id, u.created AS c, u.matched AS m ORDER BY id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(
        r.rows[0],
        vec![Value::Int(1), Value::Null, Value::Bool(true)]
    );
    assert_eq!(
        r.rows[1],
        vec![Value::Int(2), Value::Bool(true), Value::Null]
    );
}

#[test]
fn merge_on_match_runs_per_matched_row() {
    let mut g = PropertyGraph::new();
    let e = Engine::legacy();
    e.run(
        &mut g,
        "CREATE (:User {id: 1, hits: 0}), (:User {id: 1, hits: 0})",
    )
    .unwrap();
    e.run(
        &mut g,
        "MERGE (u:User {id: 1}) ON MATCH SET u.hits = u.hits + 1",
    )
    .unwrap();
    let r = e.run(&mut g, "MATCH (u:User) RETURN u.hits AS h").unwrap();
    assert_eq!(r.rows.len(), 2);
    assert!(r.rows.iter().all(|row| row[0] == Value::Int(1)));
}

#[test]
fn on_actions_rejected_on_merge_all_same() {
    let mut g = PropertyGraph::new();
    let err = Engine::revised()
        .run(&mut g, "MERGE ALL (:U {id: 1}) ON CREATE SET u.x = 1")
        .unwrap_err();
    assert!(matches!(err, EvalError::Dialect(_)));
}

#[test]
fn on_create_set_sees_created_bindings() {
    let mut g = PropertyGraph::new();
    let e = Engine::legacy();
    e.run(
        &mut g,
        "MERGE (a:A {id: 1})-[r:T]->(b:B) ON CREATE SET r.w = a.id * 10",
    )
    .unwrap();
    let r = e.run(&mut g, "MATCH ()-[r:T]->() RETURN r.w AS w").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(10));
}
