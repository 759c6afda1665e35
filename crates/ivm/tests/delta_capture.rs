//! Delta-capture ordering invariants, pinned on the owned [`Delta`] stream a
//! committed statement yields (independent of the fuzz suite): it is the
//! contract every downstream consumer — WAL, view maintenance, the test
//! oracles — replays, so its shape is load-bearing.

use cypher_core::Engine;
use cypher_graph::{Delta, PropertyGraph};

fn seeded() -> (Engine, PropertyGraph) {
    let engine = Engine::revised();
    let mut g = PropertyGraph::new();
    engine
        .run(
            &mut g,
            "CREATE (:Person {name: 'a', age: 1})-[:KNOWS {w: 1}]->(:Person {name: 'b'})",
        )
        .expect("seed");
    g.enable_delta_capture();
    (engine, g)
}

/// The statement's committed delta, moved out of the graph.
fn committed(g: &mut PropertyGraph) -> Vec<Delta> {
    Delta::from_ops(&g.take_delta(), g)
}

/// `DETACH DELETE` emits every `DeleteRel` strictly before the
/// `DeleteNode`, so replaying the delta in order never deletes a node that
/// still has relationships.
#[test]
fn detach_delete_orders_rels_before_node() {
    let (engine, mut g) = seeded();
    engine
        .run(&mut g, "MATCH (n:Person {name: 'a'}) DETACH DELETE n")
        .expect("detach delete");
    assert_eq!(
        committed(&mut g),
        vec![Delta::DeleteRel { id: 0 }, Delta::DeleteNode { id: 0 }]
    );
}

/// `SET n = {map}` decomposes into one `SetProp` per changed key — removed
/// keys as `value: None`, added/updated keys with their new value, and
/// *unchanged* keys absent entirely.
#[test]
fn set_map_emits_one_setprop_per_changed_key() {
    let (engine, mut g) = seeded();
    engine
        .run(
            &mut g,
            "MATCH (n:Person {name: 'a'}) SET n = {name: 'a', city: 'x'}",
        )
        .expect("set map");
    let mut removed = Vec::new();
    let mut set = Vec::new();
    for op in committed(&mut g) {
        match op {
            Delta::SetProp { key, value, .. } => {
                if value.is_none() {
                    removed.push(key);
                } else {
                    set.push(key);
                }
            }
            other => panic!("unexpected op in SET n = map delta: {other:?}"),
        }
    }
    // `name` is unchanged ('a' -> 'a'): no op at all. `age` is removed,
    // `city` is added.
    assert_eq!(removed, vec!["age".to_owned()]);
    assert_eq!(set, vec!["city".to_owned()]);
}

/// A rolled-back statement contributes nothing: its journal entries are
/// popped before a root commit could release them, and the id allocators
/// return to their pre-statement positions so replicas replaying only
/// committed statements allocate identically.
#[test]
fn rollback_rewinds_delta_and_id_allocators() {
    let (engine, mut g) = seeded();
    let before_ids = g.next_ids();
    // The CREATEs execute, then the division by zero aborts the statement.
    let err = engine.run(
        &mut g,
        "CREATE (x:Person {name: 'c'})-[:KNOWS]->(y:Person {name: 'd'}) RETURN 1 / 0",
    );
    assert!(err.is_err(), "statement should abort");
    assert_eq!(
        committed(&mut g),
        vec![],
        "rolled-back statement leaked delta ops"
    );
    assert_eq!(
        g.next_ids(),
        before_ids,
        "id allocators must rewind on rollback"
    );
    // And the graph is usable afterwards: the next committed statement
    // reuses the rewound ids and captures exactly its own ops.
    engine
        .run(&mut g, "CREATE (:Person {name: 'e'})")
        .expect("post-rollback create");
    match committed(&mut g).as_slice() {
        [Delta::CreateNode { id, .. }] => assert_eq!(*id, before_ids.0),
        other => panic!("expected one CreateNode, got {other:?}"),
    }
}

/// Revised-dialect `DELETE` on a still-connected node aborts at the
/// commit-time integrity check; nothing leaks into the delta.
#[test]
fn dangling_delete_aborts_cleanly() {
    let (engine, mut g) = seeded();
    let err = engine.run(&mut g, "MATCH (n:Person {name: 'a'}) DELETE n");
    assert!(err.is_err(), "deleting a connected node must error");
    assert_eq!(committed(&mut g), vec![], "aborted delete leaked ops");
}
