//! Engine-level index behaviour: `CREATE INDEX ON :Label(key)` syntax,
//! result equivalence with and without indexes, and maintenance through
//! update statements.

use cypher_core::{Engine, EvalError};
use cypher_graph::{PropertyGraph, Value};

fn populated() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(
            &mut g,
            "UNWIND range(0, 99) AS i \
             CREATE (:User {id: i, bucket: i % 10})",
        )
        .unwrap();
    g
}

#[test]
fn create_index_statement() {
    let mut g = populated();
    let e = Engine::revised();
    e.run(&mut g, "CREATE INDEX ON :User(id)").unwrap();
    let l = g.try_sym("User").unwrap();
    let k = g.try_sym("id").unwrap();
    assert!(g.has_index(l, k));
    e.run(&mut g, "DROP INDEX ON :User(id)").unwrap();
    assert!(!g.has_index(l, k));
}

#[test]
fn indexed_and_scanned_matches_agree() {
    let e = Engine::revised();
    let query = "MATCH (u:User {id: 42}) RETURN u.bucket AS b";
    let mut plain = populated();
    let scanned = e.run(&mut plain, query).unwrap();

    let mut indexed = populated();
    e.run(&mut indexed, "CREATE INDEX ON :User(id)").unwrap();
    let via_index = e.run(&mut indexed, query).unwrap();
    assert_eq!(scanned.rows, via_index.rows);
    assert_eq!(via_index.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn index_survives_updates_through_the_engine() {
    let mut g = populated();
    let e = Engine::revised();
    e.run(&mut g, "CREATE INDEX ON :User(id)").unwrap();

    // Move a user to a new id; the index must follow.
    e.run(&mut g, "MATCH (u:User {id: 42}) SET u.id = 1042")
        .unwrap();
    let r = e
        .run(&mut g, "MATCH (u:User {id: 1042}) RETURN count(*) AS c")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    let r = e
        .run(&mut g, "MATCH (u:User {id: 42}) RETURN count(*) AS c")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));

    // Delete through the engine.
    e.run(&mut g, "MATCH (u:User {id: 1042}) DETACH DELETE u")
        .unwrap();
    let r = e
        .run(&mut g, "MATCH (u:User {id: 1042}) RETURN count(*) AS c")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));

    // MERGE SAME against the indexed label.
    e.run(&mut g, "UNWIND [7, 7, 200] AS i MERGE SAME (:User {id: i})")
        .unwrap();
    let r = e
        .run(&mut g, "MATCH (u:User) RETURN count(*) AS c")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(100)); // 99 left + 1 new (id 200)
}

#[test]
fn index_rolls_back_with_failed_statements() {
    let mut g = populated();
    let e = Engine::revised();
    e.run(&mut g, "CREATE INDEX ON :User(id)").unwrap();
    // Statement creates a user then fails; the index entry must vanish.
    let err = e.run(&mut g, "CREATE (:User {id: 777}) WITH 1 AS x SET x.y = 1");
    assert!(err.is_err());
    let r = e
        .run(&mut g, "MATCH (u:User {id: 777}) RETURN count(*) AS c")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
}

#[test]
fn index_statement_must_stand_alone() {
    let mut g = PropertyGraph::new();
    let err = Engine::revised()
        .run(&mut g, "CREATE INDEX ON :User(id) RETURN 1 AS x")
        .unwrap_err();
    assert!(matches!(err, EvalError::Dialect(_)));
}

#[test]
fn index_lookup_respects_null_semantics() {
    // A `{key: null}` pattern never matches, with or without an index.
    let mut g = populated();
    let e = Engine::revised();
    e.run(&mut g, "CREATE INDEX ON :User(id)").unwrap();
    let r = e
        .run(&mut g, "MATCH (u:User {id: null}) RETURN count(*) AS c")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(0));
}

#[test]
fn index_probe_is_exact_above_2_pow_53() {
    let e = Engine::revised();
    let naive = Engine::builder(cypher_core::Dialect::Revised)
        .force_naive(true)
        .build();
    let mut g = PropertyGraph::new();
    e.run(
        &mut g,
        "UNWIND [9007199254740992, 9007199254740993] AS i CREATE (:U {id: i})",
    )
    .unwrap();
    e.run(&mut g, "CREATE INDEX ON :U(id)").unwrap();
    let query = "MATCH (u:U {id: 9007199254740992.0}) RETURN u.id AS id";
    let via_index = e.run(&mut g, query).unwrap();
    let scanned = naive.run(&mut g, query).unwrap();
    assert_eq!(via_index.rows, scanned.rows);
    assert!(
        matches!(via_index.rows.as_slice(), [r] if matches!(r[..], [Value::Int(9007199254740992)])),
        "{:?}",
        via_index.rows
    );
    let eq = e
        .run(&mut g, "RETURN 9007199254740993 = 9007199254740992.0 AS eq")
        .unwrap();
    assert_eq!(eq.rows, vec![vec![Value::Bool(false)]]);
}
