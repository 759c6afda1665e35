//! Pattern predicates in expression position (`WHERE (a)-[:T]->(b)`).

use cypher_core::{Dialect, Engine, MatchMode};
use cypher_graph::{PropertyGraph, Value};

fn setup() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(
            &mut g,
            "CREATE (a:User {id: 1}), (b:User {id: 2}), (c:User {id: 3}), \
                    (p:Product {id: 9}), \
                    (a)-[:ORDERED]->(p), (b)-[:ORDERED]->(p)",
        )
        .unwrap();
    g
}

#[test]
fn where_pattern_predicate_filters() {
    let mut g = setup();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (u:User) WHERE (u)-[:ORDERED]->(:Product) \
             RETURN u.id AS id ORDER BY id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::Int(1));
    assert_eq!(r.rows[1][0], Value::Int(2));
}

#[test]
fn negated_pattern_predicate() {
    let mut g = setup();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (u:User) WHERE NOT (u)-[:ORDERED]->() RETURN u.id AS id",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(3));
}

#[test]
fn pattern_predicate_as_return_value() {
    let mut g = setup();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (u:User) RETURN u.id AS id, (u)-[:ORDERED]->() AS buyer ORDER BY id",
        )
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Bool(true));
    assert_eq!(r.rows[2][1], Value::Bool(false));
}

#[test]
fn pattern_predicate_with_property_constraints() {
    let mut g = setup();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (u:User) WHERE (u)-[:ORDERED]->({id: 9}) RETURN count(*) AS c",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
}

#[test]
fn pattern_predicate_incoming_and_multihop() {
    let mut g = setup();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (p:Product) WHERE (p)<-[:ORDERED]-(:User {id: 1}) RETURN count(*) AS c",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    // Two-hop predicate: co-purchase.
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (u:User {id: 1}) \
             WHERE (u)-[:ORDERED]->()<-[:ORDERED]-(:User {id: 2}) \
             RETURN count(*) AS c",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
}

#[test]
fn parenthesized_arithmetic_still_parses() {
    // The backtracking must not break `(a) - (b)` style expressions.
    let mut g = PropertyGraph::new();
    let r = Engine::revised()
        .run(
            &mut g,
            "WITH 5 AS a, 3 AS b RETURN (a) - (b) AS d, (a)+(b) AS s",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
    assert_eq!(r.rows[0][1], Value::Int(8));
}

#[test]
fn pattern_predicate_respects_match_mode() {
    // One single edge: the pattern (a)-->()<--(a) needs the edge twice.
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(&mut g, "CREATE (:A {id: 1})-[:T]->(:B)")
        .unwrap();
    let iso = Engine::revised()
        .run(
            &mut g,
            "MATCH (a:A) WHERE (a)-[:T]->()<-[:T]-(a) RETURN count(*) AS c",
        )
        .unwrap();
    assert_eq!(iso.rows[0][0], Value::Int(0));
    let homo = Engine::builder(Dialect::Revised)
        .match_mode(MatchMode::Homomorphic)
        .build()
        .run(
            &mut g,
            "MATCH (a:A) WHERE (a)-[:T]->()<-[:T]-(a) RETURN count(*) AS c",
        )
        .unwrap();
    assert_eq!(homo.rows[0][0], Value::Int(1));
}

#[test]
fn exists_of_a_pattern_is_the_pattern_predicate() {
    // One node without relationships: the pattern never matches, so
    // `exists(<pattern>)` must agree with the bare predicate.
    for dialect in [Dialect::Cypher9, Dialect::Revised] {
        let engine = Engine::builder(dialect).build();
        let mut g = PropertyGraph::new();
        engine.run(&mut g, "CREATE (:A)").unwrap();
        let rows = |g: &mut PropertyGraph, q: &str| engine.run(g, q).unwrap().rows;
        assert!(rows(&mut g, "MATCH (n:A) WHERE (n)-[:T]->() RETURN n").is_empty());
        assert!(
            rows(&mut g, "MATCH (n:A) WHERE exists((n)-[:T]->()) RETURN n").is_empty(),
            "{dialect:?}"
        );
        assert_eq!(
            rows(&mut g, "MATCH (n:A) RETURN (n)-[:T]->() AS p"),
            vec![vec![Value::Bool(false)]]
        );
        assert_eq!(
            rows(&mut g, "MATCH (n:A) RETURN exists((n)-[:T]->()) AS e"),
            vec![vec![Value::Bool(false)]],
            "{dialect:?}"
        );
        // As a written property value, too.
        engine
            .run(&mut g, "MATCH (n:A) SET n.e = exists((n)-[:T]->())")
            .unwrap();
        assert_eq!(
            rows(&mut g, "MATCH (n:A) RETURN n.e AS e"),
            vec![vec![Value::Bool(false)]],
            "{dialect:?}"
        );
        // `exists` of a property keeps its null test.
        assert_eq!(
            rows(
                &mut g,
                "MATCH (n:A) RETURN exists(n.e) AS e, exists(n.z) AS z"
            ),
            vec![vec![Value::Bool(true), Value::Bool(false)]]
        );
    }
}
