//! Integration tests for CREATE, SET, REMOVE, DELETE and FOREACH under both
//! semantic regimes — including the §4 anomalies the legacy engine must
//! faithfully reproduce and the §7 behaviours of the revised engine.

use cypher_core::{Engine, EvalError};
use cypher_graph::{GraphError, GraphSummary, PropertyGraph, Value};

fn ints(vals: Vec<Value>) -> Vec<i64> {
    vals.into_iter()
        .map(|v| match v {
            Value::Int(i) => i,
            other => panic!("expected int, got {other}"),
        })
        .collect()
}

// ---------------------------------------------------------------------
// CREATE
// ---------------------------------------------------------------------

#[test]
fn create_nodes_rels_and_stats() {
    let mut g = PropertyGraph::new();
    let r = Engine::legacy()
        .run(
            &mut g,
            "CREATE (a:User {id: 1})-[:KNOWS {since: 2020}]->(b:User {id: 2})",
        )
        .unwrap();
    assert_eq!(r.stats.nodes_created, 2);
    assert_eq!(r.stats.rels_created, 1);
    assert_eq!(r.stats.labels_added, 2);
    assert_eq!(r.stats.props_set, 3);
    assert_eq!(g.node_count(), 2);
    assert_eq!(g.rel_count(), 1);
}

#[test]
fn create_per_record_multiplicity() {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(&mut g, "UNWIND [1, 2, 3] AS x CREATE (:Item {v: x})")
        .unwrap();
    assert_eq!(g.node_count(), 3);
}

#[test]
fn create_null_property_is_dropped() {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(&mut g, "CREATE (:Item {a: null, b: 1})")
        .unwrap();
    let n = g.node_ids().next().unwrap();
    assert_eq!(g.node(n).unwrap().props.len(), 1);
}

#[test]
fn create_reuses_bound_variable() {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(
            &mut g,
            "CREATE (a:User {id: 1}) WITH a CREATE (a)-[:SELF]->(a)",
        )
        .unwrap();
    assert_eq!(g.node_count(), 1);
    assert_eq!(g.rel_count(), 1);
}

#[test]
fn create_bound_variable_with_labels_is_an_error() {
    let mut g = PropertyGraph::new();
    let err = Engine::legacy()
        .run(&mut g, "CREATE (a:User) WITH a CREATE (a:Admin)-[:X]->(:Y)")
        .unwrap_err();
    assert!(matches!(err, EvalError::BoundPatternDecorated(_)));
    // Statement rolled back entirely.
    assert_eq!(g.node_count(), 0);
}

#[test]
fn create_from_null_variable_is_an_error() {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(&mut g, "CREATE (:User {id: 1})")
        .unwrap();
    let err = Engine::legacy()
        .run(&mut g, "OPTIONAL MATCH (m:Missing) CREATE (m)-[:X]->(:Y)")
        .unwrap_err();
    assert!(matches!(err, EvalError::NullWriteTarget(_)));
}

#[test]
fn create_incoming_direction() {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(&mut g, "CREATE (a:A)<-[:T]-(b:B)")
        .unwrap();
    let r = g.rel_ids().next().unwrap();
    let data = g.rel(r).unwrap();
    let b_label = g.try_sym("B").unwrap();
    assert!(g.node(data.src).unwrap().labels.contains(&b_label));
}

/// `m.c` for k = 1, 2 after a `CREATE` whose property reads a relationship
/// that the same clause creates for another record.
fn create_reading_its_writes(engine: &Engine, order: &str) -> Vec<Value> {
    let mut g = PropertyGraph::new();
    engine
        .run(&mut g, "CREATE (:A), (:B {k: 1}), (:B {k: 2})")
        .unwrap();
    engine
        .run(
            &mut g,
            &format!(
                "MATCH (n:A), (b:B) WITH n, b ORDER BY b.k {order} \
                 CREATE (:M {{k: b.k, c: (n)-[:T]->()}}), (n)-[:T]->(b)"
            ),
        )
        .unwrap();
    engine
        .run(&mut g, "MATCH (m:M) RETURN m.c AS c ORDER BY m.k")
        .unwrap()
        .column("c")
}

#[test]
fn revised_create_reads_only_the_input_graph() {
    let (f, t) = (Value::Bool(false), Value::Bool(true));
    // Revised: every blueprint is built against the input graph, in
    // either order — what `MERGE ALL` gives on the same table.
    for order in ["ASC", "DESC"] {
        let c = create_reading_its_writes(&Engine::revised(), order);
        assert_eq!(c, vec![f.clone(), f.clone()], "{order}");
    }
    // Cypher 9 reads its own writes, so the order shows.
    let legacy = |order| create_reading_its_writes(&Engine::legacy(), order);
    assert_eq!(legacy("ASC"), vec![f.clone(), t.clone()]);
    assert_eq!(legacy("DESC"), vec![t, f]);
}

#[test]
fn create_properties_see_earlier_elements_only_in_cypher9() {
    for q in [
        "CREATE (a:X {k: 1}), (b:Y {c: a.k})",
        "CREATE (a:X {k: 1})-[:T]->(b:Y {c: a.k})",
    ] {
        let mut g = PropertyGraph::new();
        Engine::legacy().run(&mut g, q).unwrap();
        let r = Engine::legacy()
            .run(&mut g, "MATCH (b:Y) RETURN b.c AS c")
            .unwrap();
        assert_eq!(r.column("c"), vec![Value::Int(1)], "{q}");
        // Revised: properties are evaluated in the input record.
        let err = Engine::revised()
            .run(&mut PropertyGraph::new(), q)
            .unwrap_err();
        assert!(
            matches!(err, EvalError::UnknownVariable(ref v) if v == "a"),
            "{q}: {err}"
        );
    }
}

#[test]
fn create_counts_each_distinct_label_once() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = PropertyGraph::new();
        let r = engine.run(&mut g, "CREATE (n:A:B:A)").unwrap();
        assert_eq!(r.stats.labels_added, 2);
        let n = g.node_ids().next().unwrap();
        assert_eq!(g.node(n).unwrap().labels.len(), 2);
    }
}

// ---------------------------------------------------------------------
// SET — Example 1 (swap) and Example 2 (conflict)
// ---------------------------------------------------------------------

fn example1_graph() -> PropertyGraph {
    // "the product ID numbers for 'laptop' and 'tablet' have been switched"
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(
            &mut g,
            "CREATE (:Product {name: 'laptop', id: 85}), (:Product {name: 'tablet', id: 125})",
        )
        .unwrap();
    g
}

const SWAP: &str = "MATCH (p1:Product {name: 'laptop'}), (p2:Product {name: 'tablet'}) \
                    SET p1.id = p2.id, p2.id = p1.id";

#[test]
fn example1_legacy_set_loses_the_swap() {
    let mut g = example1_graph();
    Engine::legacy().run(&mut g, SWAP).unwrap();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (p:Product) RETURN p.id AS id ORDER BY p.name",
        )
        .unwrap();
    // Both end up with the tablet's (wrong) id: the swap became a no-op.
    assert_eq!(ints(r.column("id")), vec![125, 125]);
}

#[test]
fn example1_revised_set_swaps_atomically() {
    let mut g = example1_graph();
    Engine::revised().run(&mut g, SWAP).unwrap();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (p:Product) RETURN p.id AS id ORDER BY p.name",
        )
        .unwrap();
    assert_eq!(ints(r.column("id")), vec![125, 85]);
}

#[test]
fn example1_sequential_set_clauses_do_not_swap_even_revised() {
    // Two separate SET clauses are two atomic steps; the paper notes the
    // legacy single clause "behaves the same as" this form.
    let mut g = example1_graph();
    Engine::revised()
        .run(
            &mut g,
            "MATCH (p1:Product {name: 'laptop'}), (p2:Product {name: 'tablet'}) \
             SET p1.id = p2.id SET p2.id = p1.id",
        )
        .unwrap();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (p:Product) RETURN p.id AS id ORDER BY p.name",
        )
        .unwrap();
    assert_eq!(ints(r.column("id")), vec![125, 125]);
}

fn example2_graph() -> PropertyGraph {
    // Figure 1 has two :Product nodes with id 125 but different names.
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(
            &mut g,
            "CREATE (:Product {id: 125, name: 'laptop'}), \
                    (:Product {id: 125, name: 'notebook'}), \
                    (:Product {id: 85, name: 'tablet'})",
        )
        .unwrap();
    g
}

const EXAMPLE2: &str = "MATCH (p1:Product {id: 85}), (p2:Product {id: 125}) SET p1.name = p2.name";

#[test]
fn example2_legacy_set_is_order_dependent() {
    use cypher_core::ProcessingOrder;
    let mut outcomes = Vec::new();
    for order in [ProcessingOrder::Forward, ProcessingOrder::Reverse] {
        let mut g = example2_graph();
        let e = Engine::builder(cypher_core::Dialect::Cypher9)
            .processing_order(order)
            .build();
        e.run(&mut g, EXAMPLE2).unwrap();
        let r = e
            .run(&mut g, "MATCH (p:Product {id: 85}) RETURN p.name AS name")
            .unwrap();
        outcomes.push(r.rows[0][0].clone());
    }
    // "node p3 might end up with name set to either 'notebook' or 'laptop'":
    // last writer wins, so the forward order ends on the later match
    // (notebook) and the reverse order on the earlier one (laptop).
    assert_eq!(outcomes[0], Value::str("notebook"));
    assert_eq!(outcomes[1], Value::str("laptop"));
}

#[test]
fn example2_revised_set_aborts_with_conflict() {
    let mut g = example2_graph();
    let before = GraphSummary::of(&g);
    let err = Engine::revised().run(&mut g, EXAMPLE2).unwrap_err();
    assert!(matches!(err, EvalError::ConflictingSet { .. }));
    // Nothing changed.
    assert_eq!(GraphSummary::of(&g), before);
    let r = Engine::revised()
        .run(&mut g, "MATCH (p:Product {id: 85}) RETURN p.name AS n")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::str("tablet"));
}

#[test]
fn revised_set_same_value_twice_is_not_a_conflict() {
    let mut g = example2_graph();
    // Both 125-products get name from the single 85-product: two writes per
    // target? No — two *sources* write the same target key only when the
    // match is reversed. Here each p2 gets one write; also write a constant
    // to all three nodes from two records.
    Engine::revised()
        .run(
            &mut g,
            "MATCH (p1:Product {id: 125}), (p2:Product {id: 85}) SET p2.flagged = true",
        )
        .unwrap();
    let r = Engine::revised()
        .run(&mut g, "MATCH (p {flagged: true}) RETURN count(*) AS c")
        .unwrap();
    assert_eq!(ints(r.column("c")), vec![1]);
}

#[test]
fn set_labels_and_remove() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = PropertyGraph::new();
        engine.run(&mut g, "CREATE (:New_Product {id: 0})").unwrap();
        // The paper's Query (3).
        let r = engine
            .run(
                &mut g,
                "MATCH (p:New_Product {id: 0}) \
                 SET p:Product, p.id = 120, p.name = 'smartphone' \
                 REMOVE p:New_Product",
            )
            .unwrap();
        assert_eq!(r.stats.labels_added, 1);
        assert_eq!(r.stats.labels_removed, 1);
        assert_eq!(r.stats.props_set, 2);
        let r = engine
            .run(
                &mut g,
                "MATCH (p:Product) RETURN p.id AS id, p.name AS name, labels(p) AS ls",
            )
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(120));
        assert_eq!(r.rows[0][1], Value::str("smartphone"));
        assert_eq!(r.rows[0][2], Value::list([Value::str("Product")]));
    }
}

#[test]
fn set_replace_and_merge_props() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = PropertyGraph::new();
        engine.run(&mut g, "CREATE (:N {a: 1, b: 2})").unwrap();
        engine
            .run(&mut g, "MATCH (n:N) SET n = {b: 20, c: 30}")
            .unwrap();
        let r = engine
            .run(&mut g, "MATCH (n:N) RETURN n.a AS a, n.b AS b, n.c AS c")
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Null, Value::Int(20), Value::Int(30)]);
        engine
            .run(&mut g, "MATCH (n:N) SET n += {c: null, d: 4}")
            .unwrap();
        let r = engine
            .run(&mut g, "MATCH (n:N) RETURN n.c AS c, n.d AS d")
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Null, Value::Int(4)]);
    }
    // `props_set` for `SET n = map`: Cypher 9 counts the map's keys (at
    // least one), the revised dialect one per change, removals included.
    for (engine, replaced, emptied) in [(Engine::legacy(), 2, 1), (Engine::revised(), 4, 2)] {
        let mut g = PropertyGraph::new();
        engine.run(&mut g, "CREATE (:N {p: 1, q: 2})").unwrap();
        let r = engine
            .run(&mut g, "MATCH (n:N) SET n = {z: 1, b: 2}")
            .unwrap();
        assert_eq!(r.stats.props_set, replaced);
        let r = engine
            .run(&mut g, "MATCH (n:N) RETURN keys(n) AS k")
            .unwrap();
        assert_eq!(
            r.rows[0][0],
            Value::list([Value::str("b"), Value::str("z")])
        );
        let r = engine.run(&mut g, "MATCH (n:N) SET n = {}").unwrap();
        assert_eq!(r.stats.props_set, emptied);
    }
}

#[test]
fn set_on_null_is_a_noop() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = PropertyGraph::new();
        engine.run(&mut g, "CREATE (:N)").unwrap();
        engine
            .run(&mut g, "MATCH (n:N) OPTIONAL MATCH (m:Missing) SET m.x = 1")
            .unwrap();
        assert_eq!(g.node_count(), 1);
    }
}

#[test]
fn set_rejects_non_entity_target() {
    let mut g = PropertyGraph::new();
    Engine::legacy().run(&mut g, "CREATE (:N)").unwrap();
    let err = Engine::legacy()
        .run(&mut g, "MATCH (n:N) WITH 1 AS x SET x.y = 2")
        .unwrap_err();
    assert!(matches!(err, EvalError::Type { .. }));
}

// ---------------------------------------------------------------------
// DELETE — §3 and the §4.2 anomaly
// ---------------------------------------------------------------------

fn order_graph() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(
            &mut g,
            "CREATE (u:User {id: 89})-[:ORDERED]->(:Product {id: 120})",
        )
        .unwrap();
    g
}

#[test]
fn plain_delete_of_connected_node_fails_in_both_dialects() {
    // §3: "the query would fail, because the :Product node with id 120 is
    // the source [sic: target] of an :ORDERED relationship".
    let mut g = order_graph();
    let err = Engine::revised()
        .run(&mut g, "MATCH (p:Product {id: 120}) DELETE p")
        .unwrap_err();
    assert!(matches!(err, EvalError::DeleteWouldDangle { .. }));

    // Legacy deletes eagerly, leaving a dangling relationship; the
    // statement then fails its end-of-statement integrity check.
    let mut g = order_graph();
    let err = Engine::legacy()
        .run(&mut g, "MATCH (p:Product {id: 120}) DELETE p")
        .unwrap_err();
    assert!(matches!(
        err,
        EvalError::Graph(GraphError::DanglingRelationships(_))
    ));
    // And rolled back.
    assert_eq!(g.node_count(), 2);
    g.integrity_check().unwrap();
}

#[test]
fn delete_rel_and_node_together_succeeds() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = order_graph();
        engine
            .run(&mut g, "MATCH ()-[r]->(p:Product {id: 120}) DELETE r, p")
            .unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.rel_count(), 0);
    }
}

#[test]
fn detach_delete() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = order_graph();
        let r = engine
            .run(&mut g, "MATCH (p:Product {id: 120}) DETACH DELETE p")
            .unwrap();
        assert_eq!(r.stats.nodes_deleted, 1);
        assert_eq!(r.stats.rels_deleted, 1);
        assert_eq!(g.node_count(), 1);
    }
}

#[test]
fn double_delete_of_same_entity_is_fine() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = PropertyGraph::new();
        engine.run(&mut g, "CREATE (:N {id: 1})").unwrap();
        engine
            .run(&mut g, "MATCH (a:N), (b:N) DETACH DELETE a, b")
            .unwrap();
        assert_eq!(g.node_count(), 0);
    }
}

#[test]
fn section_4_2_anomaly_runs_under_legacy_only() {
    // The paper's query: DELETE user, SET on the deleted user, DELETE the
    // dangling order, RETURN the zombie. Legal at end of statement.
    let query = "MATCH (user)-[order:ORDERED]->(product) \
                 DELETE user SET user.id = 999 DELETE order RETURN user";
    let mut g = order_graph();
    let r = Engine::legacy().run(&mut g, query).unwrap();
    // "returns an empty node without any labels or properties"
    assert_eq!(r.rows.len(), 1);
    let Value::Node(zombie) = &r.rows[0][0] else {
        panic!("expected the zombie node reference")
    };
    assert!(g.is_zombie((*zombie).into()));
    assert!(g.node(*zombie).is_none());
    assert_eq!(g.node_count(), 1); // only the product remains
    g.integrity_check().unwrap();

    // Revised: the plain DELETE of a still-connected node errors out.
    let mut g = order_graph();
    let err = Engine::revised().run(&mut g, query).unwrap_err();
    assert!(matches!(err, EvalError::DeleteWouldDangle { .. }));
}

#[test]
fn revised_delete_nulls_out_references() {
    let mut g = order_graph();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (u:User)-[r:ORDERED]->(p) DETACH DELETE u RETURN u, p",
        )
        .unwrap();
    // "any reference to a deleted entity in the driving table is replaced
    // by a null" — u is gone, p survives.
    assert_eq!(r.rows[0][0], Value::Null);
    assert!(matches!(r.rows[0][1], Value::Node(_)));
    // ... also inside lists and maps.
    let mut g = order_graph();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (u:User) WITH u, [u] AS l, {k: u} AS m, {k: [u]} AS ml \
             DETACH DELETE u RETURN l, m, ml",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::list([Value::Null]));
    let m = |v: Value| Value::Map([("k".to_owned(), v)].into_iter().collect());
    assert_eq!(r.rows[0][1], m(Value::Null));
    assert_eq!(r.rows[0][2], m(Value::list([Value::Null])));
}

#[test]
fn legacy_delete_keeps_zombie_references() {
    let mut g = order_graph();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User)-[r:ORDERED]->(p) DETACH DELETE u RETURN u",
        )
        .unwrap();
    assert!(matches!(r.rows[0][0], Value::Node(_)));
}

#[test]
fn delete_a_path_deletes_its_parts() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = order_graph();
        engine
            .run(
                &mut g,
                "MATCH pth = (:User)-[:ORDERED]->(:Product) DELETE pth",
            )
            .unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.rel_count(), 0);
    }
}

#[test]
fn delete_rejects_scalars() {
    let mut g = order_graph();
    let err = Engine::revised()
        .run(&mut g, "MATCH (u:User) DELETE u.id")
        .unwrap_err();
    assert!(matches!(err, EvalError::Type { .. }));
}

// ---------------------------------------------------------------------
// FOREACH
// ---------------------------------------------------------------------

#[test]
fn foreach_applies_updates_per_element() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = PropertyGraph::new();
        engine
            .run(&mut g, "FOREACH (x IN [1, 2, 3] | CREATE (:Item {v: x}))")
            .unwrap();
        assert_eq!(g.node_count(), 3);
    }
}

#[test]
fn foreach_over_null_is_noop() {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(&mut g, "FOREACH (x IN null | CREATE (:Item))")
        .unwrap();
    assert_eq!(g.node_count(), 0);
}

#[test]
fn foreach_nested() {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(
            &mut g,
            "FOREACH (x IN [1, 2] | FOREACH (y IN [1, 2] | CREATE (:Cell {x: x, y: y})))",
        )
        .unwrap();
    assert_eq!(g.node_count(), 4);
}

#[test]
fn revised_foreach_delete_nulls_the_outer_table() {
    let q = "MATCH (n:A) FOREACH (x IN [1] | DELETE n) RETURN n, id(n) AS i, labels(n) AS l";
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(&mut g, "CREATE (:A {id: 1})")
        .unwrap();
    let r = Engine::revised().run(&mut g, q).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Null, Value::Null, Value::Null]]);
    // Cypher 9 keeps its zombie.
    let mut g = PropertyGraph::new();
    Engine::legacy().run(&mut g, "CREATE (:A {id: 1})").unwrap();
    let r = Engine::legacy().run(&mut g, q).unwrap();
    assert!(matches!(r.rows[0][0], Value::Node(_)));
    assert_eq!(r.rows[0][1], Value::Int(0));
    assert_eq!(r.rows[0][2], Value::list([]));
}

#[test]
fn foreach_non_list_errors() {
    let mut g = PropertyGraph::new();
    let err = Engine::legacy()
        .run(&mut g, "FOREACH (x IN 5 | CREATE (:Item))")
        .unwrap_err();
    assert!(matches!(err, EvalError::Type { .. }));
}

// ---------------------------------------------------------------------
// Statement atomicity
// ---------------------------------------------------------------------

#[test]
fn failing_statement_rolls_back_all_changes() {
    for engine in [Engine::legacy(), Engine::revised()] {
        let mut g = PropertyGraph::new();
        engine.run(&mut g, "CREATE (:Base)").unwrap();
        let before = GraphSummary::of(&g);
        // CREATE succeeds, then a bad SET fails the statement.
        let err = engine.run(&mut g, "CREATE (:Extra) WITH 1 AS x SET x.y = 1");
        assert!(err.is_err());
        assert_eq!(GraphSummary::of(&g), before);
    }
}

#[test]
fn union_updates_are_left_to_right_side_effects() {
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(
            &mut g,
            "CREATE (x:A {v: 1}) RETURN x.v AS v \
             UNION ALL CREATE (y:B {v: 2}) RETURN y.v AS v",
        )
        .unwrap();
    assert_eq!(g.node_count(), 2);
}
