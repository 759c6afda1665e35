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
    // Cypher 9 cascades in adjacency order (outgoing first); the revised
    // dialect deletes the collected relationships in id order.
    for (engine, rels) in [(Engine::legacy(), [1, 0]), (Engine::revised(), [0, 1])] {
        let mut g = PropertyGraph::new();
        engine
            .run(&mut g, "CREATE (:Y)-[:T]->(:X)-[:T]->(:Z)")
            .expect("seed");
        g.enable_delta_capture();
        engine
            .run(&mut g, "MATCH (x:X) DETACH DELETE x")
            .expect("detach delete");
        assert_eq!(
            committed(&mut g),
            vec![
                Delta::DeleteRel { id: rels[0] },
                Delta::DeleteRel { id: rels[1] },
                Delta::DeleteNode { id: 1 },
            ]
        );
    }
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
    // The order of the ops: Cypher 9 removes the absent keys, then sets the
    // map's keys, each in interning order (`name` before `age`); the
    // revised dialect writes every change in key order.
    for (engine, keys) in [
        (Engine::legacy(), ["name", "age", "city", "zeta"]),
        (Engine::revised(), ["age", "city", "name", "zeta"]),
    ] {
        let (_, mut g) = seeded();
        engine
            .run(
                &mut g,
                "MATCH (n:Person {name: 'a'}) SET n = {zeta: 1, city: 'x'}",
            )
            .expect("set map");
        let written: Vec<String> = committed(&mut g)
            .into_iter()
            .map(|op| match op {
                Delta::SetProp { key, .. } => key,
                other => panic!("unexpected op in SET n = map delta: {other:?}"),
            })
            .collect();
        assert_eq!(written, keys);
    }
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
