//! Integration tests for all six MERGE semantics: the legacy Cypher 9
//! `MERGE` (§3/§4.3), the five §6 proposals, and the §7 `MERGE ALL` /
//! `MERGE SAME` clauses. Each of the paper's Examples 3–7 appears here with
//! the exact graph shapes of Figures 6–9.

use cypher_core::{Dialect, Engine, MatchMode, MergePolicy, ProcessingOrder};
use cypher_graph::{GraphSummary, PropertyGraph, Value};

/// Engine running the revised dialect with a forced merge policy.
fn policy_engine(policy: MergePolicy) -> Engine {
    Engine::builder(Dialect::Revised)
        .merge_policy(policy)
        .build()
}

// ---------------------------------------------------------------------
// Legacy MERGE basics (§3, Query (5))
// ---------------------------------------------------------------------

fn figure1() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(
            &mut g,
            "CREATE (v1:Vendor {id: 60, name: 'cStore'}), \
                    (p1:Product {id: 125, name: 'laptop'}), \
                    (p2:Product {id: 125, name: 'notebook'}), \
                    (p3:Product {id: 85, name: 'tablet'}), \
                    (u1:User {id: 89, name: 'Bob'}), \
                    (u2:User {id: 99, name: 'Jane'}), \
                    (v1)-[:OFFERS]->(p1), (v1)-[:OFFERS]->(p2), \
                    (u1)-[:ORDERED]->(p1), (u1)-[:ORDERED]->(p3), \
                    (u2)-[:ORDERED]->(p3), (u2)-[:OFFERS]->(p3)",
        )
        .unwrap();
    g
}

#[test]
fn query5_legacy_merge_matches_or_creates() {
    let mut g = figure1();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (p:Product) MERGE (p)<-[:OFFERS]-(v:Vendor) RETURN p.name AS p, v.id AS vid",
        )
        .unwrap();
    // p1 and p2 matched v1; p3 got a fresh vendor (no id property).
    assert_eq!(r.rows.len(), 3);
    let s = GraphSummary::of(&g);
    assert_eq!(s.nodes, 7);
    assert_eq!(s.rels, 7);
    assert_eq!(s.labels["Vendor"], 2);
    // The new vendor row has a null id.
    let null_vendors = r.rows.iter().filter(|row| row[1] == Value::Null).count();
    assert_eq!(null_vendors, 1);
}

#[test]
fn legacy_merge_is_idempotent_when_matching() {
    let mut g = figure1();
    let e = Engine::legacy();
    e.run(&mut g, "MATCH (p:Product) MERGE (p)<-[:OFFERS]-(v:Vendor)")
        .unwrap();
    let s1 = GraphSummary::of(&g);
    e.run(&mut g, "MATCH (p:Product) MERGE (p)<-[:OFFERS]-(v:Vendor)")
        .unwrap();
    assert_eq!(GraphSummary::of(&g), s1);
}

#[test]
fn legacy_merge_on_empty_table_creates_nothing() {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(&mut g, "MATCH (x:Missing) MERGE (x)-[:T]->(:Y)")
        .unwrap();
    assert_eq!(g.node_count(), 0);
}

#[test]
fn legacy_merge_whole_pattern_not_partial() {
    // §5: "the most prevalent error … is the unintended creation of
    // duplicate nodes": MERGE on a whole pattern creates the *entire*
    // pattern when any part fails to match.
    let mut g = PropertyGraph::new();
    let e = Engine::legacy();
    e.run(&mut g, "CREATE (:User {id: 1})").unwrap();
    e.run(&mut g, "MERGE (:User {id: 1})-[:KNOWS]->(:User {id: 2})")
        .unwrap();
    // A *duplicate* user 1 was created, as users are surprised to find.
    let r = e
        .run(&mut g, "MATCH (u:User {id: 1}) RETURN count(*) AS c")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));
}

// ---------------------------------------------------------------------
// Example 3 / Figure 6: legacy MERGE reads its own writes
// ---------------------------------------------------------------------

/// Five relationship-less nodes and the driving table of Example 3,
/// then the Query (6) MERGE. Returns the resulting summary.
fn example3(order: ProcessingOrder) -> GraphSummary {
    let mut g = PropertyGraph::new();
    let e = Engine::builder(Dialect::Cypher9)
        .processing_order(order)
        .build();
    e.run(
        &mut g,
        "CREATE (:N {k: 'u1'}), (:N {k: 'u2'}), (:N {k: 'p'}), (:N {k: 'v1'}), (:N {k: 'v2'})",
    )
    .unwrap();
    e.run(
        &mut g,
        "UNWIND [['u1', 'p', 'v1'], ['u2', 'p', 'v2'], ['u1', 'p', 'v2']] AS row \
         MATCH (user:N {k: row[0]}), (product:N {k: row[1]}), (vendor:N {k: row[2]}) \
         WITH user, product, vendor \
         MERGE (user)-[:ORDERED]->(product)<-[:OFFERS]-(vendor)",
    )
    .unwrap();
    GraphSummary::of(&g)
}

#[test]
fn example3_legacy_merge_is_order_dependent() {
    // Top-down: the third record (u1, p, v2) matches the paths created for
    // records one and two → Figure 6b (4 relationships).
    let forward = example3(ProcessingOrder::Forward);
    assert_eq!(forward.rels, 4);
    assert_eq!(forward.types["ORDERED"], 2);
    assert_eq!(forward.types["OFFERS"], 2);

    // Bottom-up: nothing can be matched → Figure 6a (6 relationships).
    let reverse = example3(ProcessingOrder::Reverse);
    assert_eq!(reverse.rels, 6);
    assert_eq!(reverse.types["ORDERED"], 3);
    assert_eq!(reverse.types["OFFERS"], 3);
}

// ---------------------------------------------------------------------
// Example 4: the proposals are order-independent on Example 3's input
// ---------------------------------------------------------------------

fn example4(policy: MergePolicy, order: ProcessingOrder) -> GraphSummary {
    let mut g = PropertyGraph::new();
    let e = Engine::builder(Dialect::Revised)
        .merge_policy(policy)
        .processing_order(order)
        .build();
    e.run(
        &mut g,
        "CREATE (:N {k: 'u1'}), (:N {k: 'u2'}), (:N {k: 'p'}), (:N {k: 'v1'}), (:N {k: 'v2'})",
    )
    .unwrap();
    e.run(
        &mut g,
        "UNWIND [['u1', 'p', 'v1'], ['u2', 'p', 'v2'], ['u1', 'p', 'v2']] AS row \
         MATCH (user:N {k: row[0]}), (product:N {k: row[1]}), (vendor:N {k: row[2]}) \
         WITH user, product, vendor \
         MERGE ALL (user)-[:ORDERED]->(product)<-[:OFFERS]-(vendor)",
    )
    .unwrap();
    GraphSummary::of(&g)
}

#[test]
fn example4_all_proposals_are_deterministic() {
    for policy in MergePolicy::PROPOSALS {
        let fwd = example4(policy, ProcessingOrder::Forward);
        let rev = example4(policy, ProcessingOrder::Reverse);
        assert_eq!(fwd, rev, "{policy} must not depend on record order");
    }
}

#[test]
fn example4_shapes_match_figure6() {
    // "Atomic or Grouping semantics always yield the graph of Figure 6a"
    for policy in [MergePolicy::Atomic, MergePolicy::Grouping] {
        let s = example4(policy, ProcessingOrder::Forward);
        assert_eq!(s.rels, 6, "{policy} should give Figure 6a");
    }
    // "All three variants of collapse MERGE create the minimal graph
    // (Figure 6b)"
    for policy in [
        MergePolicy::WeakCollapse,
        MergePolicy::Collapse,
        MergePolicy::StrongCollapse,
    ] {
        let s = example4(policy, ProcessingOrder::Forward);
        assert_eq!(s.rels, 4, "{policy} should give Figure 6b");
    }
}

// ---------------------------------------------------------------------
// Example 5 / Figure 7: duplicates and nulls from a relational import
// ---------------------------------------------------------------------

/// Example 5's driving table (cid, pid, date) with duplicates and nulls,
/// fed to `MERGE (:User{id:cid})-[:ORDERED]->(:Product{id:pid})`.
fn example5(policy: MergePolicy) -> GraphSummary {
    let mut g = PropertyGraph::new();
    let e = policy_engine(policy);
    e.run(
        &mut g,
        "UNWIND [{cid: 98, pid: 125, date: '2018-06-23'}, \
                 {cid: 98, pid: 125, date: '2018-07-06'}, \
                 {cid: 98, pid: null, date: null}, \
                 {cid: 98, pid: null, date: null}, \
                 {cid: 99, pid: 125, date: '2018-03-11'}, \
                 {cid: 99, pid: null, date: null}] AS row \
         WITH row.cid AS cid, row.pid AS pid, row.date AS date \
         MERGE ALL (:User {id: cid})-[:ORDERED]->(:Product {id: pid})",
    )
    .unwrap();
    GraphSummary::of(&g)
}

#[test]
fn example5_atomic_figure7a() {
    // "Atomic MERGE will create the graph with twelve nodes and six
    // relationships in Figure 7a"
    let s = example5(MergePolicy::Atomic);
    assert_eq!((s.nodes, s.rels), (12, 6));
    assert_eq!(s.labels["User"], 6);
    assert_eq!(s.labels["Product"], 6);
}

#[test]
fn example5_grouping_figure7b() {
    // "Grouping MERGE eliminates duplicate cid/pid pairs and creates only
    // the eight-node graph in Figure 7b" (regardless of the date column).
    let s = example5(MergePolicy::Grouping);
    assert_eq!((s.nodes, s.rels), (8, 4));
}

#[test]
fn example5_collapse_variants_figure7c() {
    // "All three versions of collapse MERGE show identical behavior in this
    // example": one node per cid, one per pid (incl. a single null
    // product), one relationship per unique pair.
    for policy in [
        MergePolicy::WeakCollapse,
        MergePolicy::Collapse,
        MergePolicy::StrongCollapse,
    ] {
        let s = example5(policy);
        assert_eq!((s.nodes, s.rels), (4, 4), "{policy}");
        assert_eq!(s.labels["User"], 2);
        assert_eq!(s.labels["Product"], 2);
    }
}

#[test]
fn example5_null_product_has_no_id_property() {
    let mut g = PropertyGraph::new();
    policy_engine(MergePolicy::StrongCollapse)
        .run(
            &mut g,
            "UNWIND [{cid: 98, pid: null}] AS row \
             WITH row.cid AS cid, row.pid AS pid \
             MERGE ALL (:User {id: cid})-[:ORDERED]->(:Product {id: pid})",
        )
        .unwrap();
    let r = Engine::revised()
        .run(
            &mut g,
            "MATCH (p:Product) RETURN p.id AS id, size(keys(p)) AS n",
        )
        .unwrap();
    assert_eq!(r.rows[0], vec![Value::Null, Value::Int(0)]);
}

// ---------------------------------------------------------------------
// Example 6 / Figure 8: Weak Collapse vs (Strong) Collapse
// ---------------------------------------------------------------------

fn example6(policy: MergePolicy) -> GraphSummary {
    let mut g = PropertyGraph::new();
    policy_engine(policy)
        .run(
            &mut g,
            "UNWIND [{bid: 98, pid: 125, sid: 97}, {bid: 99, pid: 85, sid: 98}] AS row \
             WITH row.bid AS bid, row.pid AS pid, row.sid AS sid \
             MERGE ALL (:User {id: bid})-[:ORDERED]->(:Product {id: pid})\
             <-[:OFFERS]-(:User {id: sid})",
        )
        .unwrap();
    GraphSummary::of(&g)
}

#[test]
fn example6_weak_collapse_keeps_positional_copies_figure8a() {
    // User 98 appears as buyer (position 0) and seller (position 4):
    // Weak Collapse keeps two copies — 6 nodes, as do Atomic/Grouping.
    for policy in [
        MergePolicy::Atomic,
        MergePolicy::Grouping,
        MergePolicy::WeakCollapse,
    ] {
        let s = example6(policy);
        assert_eq!((s.nodes, s.rels), (6, 4), "{policy} should give Figure 8a");
        assert_eq!(s.labels["User"], 4);
    }
}

#[test]
fn example6_collapse_combines_across_positions_figure8b() {
    // "Collapse and Strong Collapse MERGE actually allow for combining the
    // two copies of the :User node with ID 98" [sic — the figure combines
    // the id-98 node appearing in both rows].
    for policy in [MergePolicy::Collapse, MergePolicy::StrongCollapse] {
        let s = example6(policy);
        assert_eq!((s.nodes, s.rels), (5, 4), "{policy} should give Figure 8b");
        assert_eq!(s.labels["User"], 3);
    }
}

// ---------------------------------------------------------------------
// Example 7 / Figure 9: Collapse vs Strong Collapse on bound nodes
// ---------------------------------------------------------------------

/// Pre-existing products p1..p4; single driving row binding
/// a,b,c,d,e,tgt = p1,p2,p3,p1,p2,p4; the clickstream MERGE.
fn example7(policy: MergePolicy) -> (PropertyGraph, GraphSummary) {
    let mut g = PropertyGraph::new();
    let e = policy_engine(policy);
    e.run(
        &mut g,
        "CREATE (:P {k: 1}), (:P {k: 2}), (:P {k: 3}), (:P {k: 4})",
    )
    .unwrap();
    e.run(
        &mut g,
        "MATCH (a:P {k: 1}), (b:P {k: 2}), (c:P {k: 3}), (d:P {k: 1}), \
               (e:P {k: 2}), (tgt:P {k: 4}) \
         MERGE ALL (a)-[:TO]->(b)-[:TO]->(c)-[:TO]->(d)-[:TO]->(e)-[:BOUGHT]->(tgt)",
    )
    .unwrap();
    let s = GraphSummary::of(&g);
    (g, s)
}

#[test]
fn example7_collapse_keeps_parallel_edges_figure9a() {
    // p1→p2 is created at positions 0 and 3; Collapse (positional rels)
    // keeps both — 5 relationships.
    for policy in [
        MergePolicy::Atomic,
        MergePolicy::Grouping,
        MergePolicy::WeakCollapse,
        MergePolicy::Collapse,
    ] {
        let (_, s) = example7(policy);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.rels, 5, "{policy} should give Figure 9a");
        assert_eq!(s.types["TO"], 4);
    }
}

#[test]
fn example7_strong_collapse_merges_parallel_edges_figure9b() {
    let (_, s) = example7(MergePolicy::StrongCollapse);
    assert_eq!(s.nodes, 4);
    assert_eq!(s.rels, 4, "Strong Collapse should give Figure 9b");
    assert_eq!(s.types["TO"], 3);
}

#[test]
fn example7_rematch_fails_under_iso_succeeds_under_homomorphism() {
    // "if after executing the above MERGE, one tries to match the added
    // pattern … the query would return no matches … under Strong Collapse
    // semantics … However, … matching based on graph homomorphisms …
    // will result in a positive match."
    let rematch = "MATCH (a)-[:TO]->(b)-[:TO]->(c)-[:TO]->(d)-[:TO]->(e)-[:BOUGHT]->(tgt) \
                   RETURN count(*) AS c";

    let (mut g, _) = example7(MergePolicy::StrongCollapse);
    let iso = Engine::revised().run(&mut g, rematch).unwrap();
    assert_eq!(iso.rows[0][0], Value::Int(0));

    let homo_engine = Engine::builder(Dialect::Revised)
        .match_mode(MatchMode::Homomorphic)
        .build();
    let homo = homo_engine.run(&mut g, rematch).unwrap();
    assert_eq!(homo.rows[0][0], Value::Int(1));

    // Under (non-strong) Collapse the parallel edge survives, so even
    // edge-isomorphic matching finds the pattern again — twice, since the
    // two parallel p1→p2 edges can play either the first or fourth step.
    let (mut g, _) = example7(MergePolicy::Collapse);
    let iso = Engine::revised().run(&mut g, rematch).unwrap();
    assert_eq!(iso.rows[0][0], Value::Int(2));
}

// ---------------------------------------------------------------------
// MERGE ALL / MERGE SAME surface semantics (§7, §8.2)
// ---------------------------------------------------------------------

#[test]
fn merge_all_formal_semantics_table() {
    // T' = T_match ⊎ T_create: records that match contribute all their
    // matches; failing records contribute their created bindings.
    let mut g = PropertyGraph::new();
    let e = Engine::revised();
    e.run(
        &mut g,
        "CREATE (:User {id: 1})-[:ORDERED]->(:Product {id: 10})",
    )
    .unwrap();
    let r = e
        .run(
            &mut g,
            "UNWIND [1, 2] AS uid \
             MERGE ALL (u:User {id: uid})-[:ORDERED]->(p:Product) \
             RETURN uid, id(p) AS pid",
        )
        .unwrap();
    // uid=1 matches the existing path; uid=2 creates user 2 and an
    // anonymous product.
    assert_eq!(r.rows.len(), 2);
    assert_eq!(g.node_count(), 4);
    assert_eq!(g.rel_count(), 2);
}

#[test]
fn merge_all_never_reads_its_own_writes() {
    // All matching happens against the input graph: two identical failing
    // records under MERGE ALL both create (no cross-record matching).
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(&mut g, "UNWIND [1, 1] AS x MERGE ALL (:User {id: x})")
        .unwrap();
    assert_eq!(g.node_count(), 2);
}

#[test]
fn merge_creates_keys_and_labels_as_create_does() {
    // On a fresh graph the keys are interned in written order, so
    // `keys(n)` reads `b` before `a` whichever clause created the node,
    // and a repeated label counts once.
    let stmts = [
        (Dialect::Revised, "CREATE (n:B:A:B {b: 1, a: 2})"),
        (Dialect::Revised, "MERGE ALL (n:B:A:B {b: 1, a: 2})"),
        (Dialect::Revised, "MERGE SAME (n:B:A:B {b: 1, a: 2})"),
        (Dialect::Cypher9, "CREATE (n:B:A:B {b: 1, a: 2})"),
        (Dialect::Cypher9, "MERGE (n:B:A:B {b: 1, a: 2})"),
    ];
    for (dialect, stmt) in stmts {
        let mut g = PropertyGraph::new();
        let r = Engine::builder(dialect)
            .build()
            .run(&mut g, &format!("{stmt} RETURN keys(n) AS k"))
            .unwrap();
        assert_eq!(
            r.column("k"),
            vec![Value::list([Value::str("b"), Value::str("a")])],
            "{stmt}"
        );
        assert_eq!(r.stats.labels_added, 2, "{stmt}");
    }
}

#[test]
fn merge_properties_see_earlier_elements_only_in_legacy_merge() {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(&mut g, "MERGE (a:X {k: 1})-[:T]->(b:Y {c: a.k})")
        .unwrap();
    let r = Engine::legacy()
        .run(&mut g, "MATCH (b:Y) RETURN b.c AS c")
        .unwrap();
    assert_eq!(r.column("c"), vec![Value::Int(1)]);
    // MERGE ALL evaluates its properties in the input record, as revised
    // CREATE does.
    let err = Engine::revised()
        .run(
            &mut PropertyGraph::new(),
            "MERGE ALL (a:X {k: 1})-[:T]->(b:Y {c: a.k})",
        )
        .unwrap_err();
    assert_eq!(err.to_string(), "variable `a` not defined");
}

#[test]
fn merge_same_collapses_identical_creations() {
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(&mut g, "UNWIND [1, 1] AS x MERGE SAME (:User {id: x})")
        .unwrap();
    assert_eq!(g.node_count(), 1);
}

#[test]
fn merge_same_never_collapses_with_preexisting_nodes() {
    // Def. 1(iii): old nodes only collapse with themselves.
    let mut g = PropertyGraph::new();
    let e = Engine::revised();
    e.run(&mut g, "CREATE (:User {id: 1}), (:User {id: 1})")
        .unwrap();
    // Both pre-existing user-1 nodes make the pattern match, so nothing is
    // created; but with a non-matching label the creation must NOT collapse
    // into the old nodes.
    e.run(&mut g, "MERGE SAME (:Customer {id: 1})").unwrap();
    assert_eq!(g.node_count(), 3);
    // Re-running now matches the created node.
    e.run(&mut g, "MERGE SAME (:Customer {id: 1})").unwrap();
    assert_eq!(g.node_count(), 3);
}

#[test]
fn merge_same_output_table_maps_to_representatives() {
    let mut g = PropertyGraph::new();
    let r = Engine::revised()
        .run(
            &mut g,
            "UNWIND [1, 1, 2] AS x \
             MERGE SAME (u:User {id: x}) \
             RETURN id(u) AS uid",
        )
        .unwrap();
    // Three output rows (bag semantics), but only two distinct node ids.
    assert_eq!(r.rows.len(), 3);
    let ids: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
    assert_eq!(ids[0], ids[1]);
    assert_ne!(ids[0], ids[2]);
    assert_eq!(g.node_count(), 2);
}

#[test]
fn merge_all_supports_pattern_tuples() {
    // Figure 10: MERGE ALL takes tuples of directed update patterns.
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(
            &mut g,
            "MERGE ALL (a:X {id: 1})-[:T]->(b:Y), (b)-[:U]->(:Z)",
        )
        .unwrap();
    let s = GraphSummary::of(&g);
    assert_eq!((s.nodes, s.rels), (3, 2));
}

#[test]
fn merge_same_is_idempotent() {
    let q = "UNWIND [{c: 1, p: 10}, {c: 2, p: 10}] AS row \
             WITH row.c AS c, row.p AS p \
             MERGE SAME (:User {id: c})-[:ORDERED]->(:Product {id: p})";
    let mut g = PropertyGraph::new();
    let e = Engine::revised();
    e.run(&mut g, q).unwrap();
    let s1 = GraphSummary::of(&g);
    e.run(&mut g, q).unwrap();
    assert_eq!(GraphSummary::of(&g), s1);
}

#[test]
fn merge_with_bound_null_is_an_error() {
    let mut g = PropertyGraph::new();
    Engine::revised().run(&mut g, "CREATE (:A)").unwrap();
    let err = Engine::revised()
        .run(
            &mut g,
            "OPTIONAL MATCH (m:Missing) MERGE ALL (m)-[:T]->(:B)",
        )
        .unwrap_err();
    assert!(matches!(err, cypher_core::EvalError::NullWriteTarget(_)));
}

#[test]
fn merge_policies_agree_when_everything_matches() {
    // When every record matches, all six semantics coincide with MATCH.
    for policy in MergePolicy::PROPOSALS {
        let mut g = figure1();
        let e = Engine::builder(Dialect::Revised)
            .merge_policy(policy)
            .build();
        let before = GraphSummary::of(&g);
        e.run(
            &mut g,
            "MATCH (u:User {id: 89}) MERGE ALL (u)-[:ORDERED]->(:Product {id: 125, name: 'laptop'})",
        )
        .unwrap();
        assert_eq!(GraphSummary::of(&g), before, "{policy}");
    }
}

#[test]
fn merge_same_collapse_respects_labels() {
    // Same properties, different labels → distinct nodes.
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(&mut g, "MERGE SAME (:A {id: 1})-[:T]->(:B {id: 1})")
        .unwrap();
    assert_eq!(g.node_count(), 2);
}

#[test]
fn merge_same_rel_collapse_requires_same_type_and_props() {
    let mut g = PropertyGraph::new();
    Engine::revised()
        .run(
            &mut g,
            "MATCH (x) WITH count(x) AS _ \
             MERGE ALL (a:N {id: 1})-[:T {w: 1}]->(b:M {id: 2}), \
                       (a)-[:T {w: 2}]->(b)",
        )
        .unwrap();
    assert_eq!(g.rel_count(), 2);
    let mut g2 = PropertyGraph::new();
    Engine::revised()
        .run(
            &mut g2,
            "MERGE SAME (a:N {id: 1})-[:T {w: 1}]->(b:M {id: 2}), \
                        (a)-[:T {w: 1}]->(b)",
        )
        .unwrap();
    assert_eq!(g2.rel_count(), 1);
}

#[test]
fn merge_binds_path_variables() {
    let mut g = PropertyGraph::new();
    let r = Engine::revised()
        .run(
            &mut g,
            "MERGE ALL pth = (:A {id: 1})-[:T]->(:B) RETURN length(pth) AS len",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
}

#[test]
fn legacy_merge_undirected_creates_outgoing() {
    let mut g = PropertyGraph::new();
    let e = Engine::legacy();
    e.run(&mut g, "CREATE (:A {id: 1}), (:B {id: 2})").unwrap();
    e.run(&mut g, "MATCH (a:A), (b:B) MERGE (a)-[:T]-(b)")
        .unwrap();
    let rel = g.rel_ids().next().unwrap();
    let data = g.rel(rel).unwrap();
    let a_label = g.try_sym("A").unwrap();
    assert!(g.node(data.src).unwrap().labels.contains(&a_label));
    // And once it exists, the undirected MERGE matches it either way.
    e.run(&mut g, "MATCH (a:A), (b:B) MERGE (b)-[:T]-(a)")
        .unwrap();
    assert_eq!(g.rel_count(), 1);
}

// ---------------------------------------------------------------------
// Dialect guards
// ---------------------------------------------------------------------

#[test]
fn merge_all_rejected_by_legacy_engine() {
    let mut g = PropertyGraph::new();
    let err = Engine::legacy()
        .run(&mut g, "MERGE ALL (:A)-[:T]->(:B)")
        .unwrap_err();
    assert!(matches!(err, cypher_core::EvalError::Dialect(_)));
}

#[test]
fn bare_merge_rejected_by_revised_engine() {
    let mut g = PropertyGraph::new();
    let err = Engine::revised()
        .run(&mut g, "MERGE (:A)-[:T]->(:B)")
        .unwrap_err();
    assert!(matches!(err, cypher_core::EvalError::Dialect(_)));
}

#[test]
fn cypher9_with_demarcation_enforced_at_runtime() {
    let mut g = PropertyGraph::new();
    let err = Engine::legacy()
        .run(&mut g, "CREATE (:A) MATCH (n) RETURN n")
        .unwrap_err();
    assert!(matches!(err, cypher_core::EvalError::Dialect(_)));
    // Revised dialect: fine (Figure 10 grammar).
    Engine::revised()
        .run(&mut g, "CREATE (:A) MATCH (n) RETURN n")
        .unwrap();
}

// ---------------------------------------------------------------------
// Value equivalence is exact above 2⁵³: integers that round to the same
// `f64` are different values, so no grouping or collapse merges them.
// ---------------------------------------------------------------------

const TWO_53: i64 = 1 << 53;

fn merged_ids(e: &Engine, merge: &str, ids: &str) -> Vec<Value> {
    let mut g = PropertyGraph::new();
    e.run(&mut g, &format!("UNWIND {ids} AS i {merge} (:V {{id: i}})"))
        .unwrap();
    e.run(&mut g, "MATCH (v:V) RETURN v.id AS id ORDER BY id")
        .unwrap()
        .rows
        .into_iter()
        .map(|mut r| r.remove(0))
        .collect()
}

#[test]
fn merge_same_keeps_ints_apart_that_collide_as_floats() {
    let ids = "[9007199254740992, 9007199254740993]";
    let e = Engine::revised();
    for merge in ["MERGE SAME", "MERGE ALL"] {
        let got = merged_ids(&e, merge, ids);
        assert!(
            matches!(got.as_slice(), [Value::Int(a), Value::Int(b)] if *a == TWO_53 && *b == TWO_53 + 1),
            "{merge}: {got:?}"
        );
    }
    for policy in MergePolicy::PROPOSALS {
        let got = merged_ids(&policy_engine(policy), "MERGE ALL", ids);
        assert_eq!(got.len(), 2, "{policy}: {got:?}");
    }
}

#[test]
fn merge_same_still_collapses_an_int_and_its_exact_float() {
    let got = merged_ids(
        &Engine::revised(),
        "MERGE SAME",
        "[9007199254740992, 9007199254740992.0]",
    );
    assert!(
        matches!(got.as_slice(), [Value::Int(a)] if *a == TWO_53),
        "{got:?}"
    );
}
