//! Integration tests for the reading fragment: MATCH, OPTIONAL MATCH,
//! WHERE, WITH, RETURN, UNWIND, UNION, aggregation, ordering, paging.

use cypher_core::{Engine, EvalError};
use cypher_graph::{PropertyGraph, Value};

fn setup() -> PropertyGraph {
    let mut g = PropertyGraph::new();
    Engine::legacy()
        .run(
            &mut g,
            "CREATE (a:User {id: 1, name: 'Ann', age: 30}), \
                    (b:User {id: 2, name: 'Bob', age: 25}), \
                    (c:User {id: 3, name: 'Cal'}), \
                    (p:Product {id: 10, name: 'laptop', price: 1200}), \
                    (q:Product {id: 11, name: 'mouse', price: 25}), \
                    (a)-[:ORDERED {qty: 2}]->(p), \
                    (a)-[:ORDERED {qty: 1}]->(q), \
                    (b)-[:ORDERED {qty: 5}]->(q)",
        )
        .unwrap();
    g
}

fn ints(vals: Vec<Value>) -> Vec<i64> {
    vals.into_iter()
        .map(|v| match v {
            Value::Int(i) => i,
            other => panic!("expected int, got {other}"),
        })
        .collect()
}

fn strs(vals: Vec<Value>) -> Vec<String> {
    vals.into_iter()
        .map(|v| match v {
            Value::Str(s) => s,
            other => panic!("expected string, got {other}"),
        })
        .collect()
}

#[test]
fn match_with_where_filters() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User) WHERE u.age > 26 RETURN u.name AS name",
        )
        .unwrap();
    assert_eq!(strs(r.column("name")), vec!["Ann"]);
}

#[test]
fn where_unknown_filters_out() {
    // Cal has no age → u.age > 26 is unknown → filtered.
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User) WHERE u.age >= 25 RETURN count(*) AS n",
        )
        .unwrap();
    assert_eq!(ints(r.column("n")), vec![2]);
}

#[test]
fn optional_match_binds_null() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User) OPTIONAL MATCH (u)-[:ORDERED]->(p:Product) \
             RETURN u.name AS name, p.name AS product",
        )
        .unwrap();
    // Ann×2, Bob×1, Cal×1 (null product).
    assert_eq!(r.rows.len(), 4);
    let cal_row = r
        .rows
        .iter()
        .find(|row| row[0] == Value::str("Cal"))
        .unwrap();
    assert_eq!(cal_row[1], Value::Null);
}

#[test]
fn return_orders_and_pages() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User) RETURN u.name AS name ORDER BY u.id DESC SKIP 1 LIMIT 1",
        )
        .unwrap();
    assert_eq!(strs(r.column("name")), vec!["Bob"]);
}

#[test]
fn order_by_puts_nulls_last_ascending() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(&mut g, "MATCH (u:User) RETURN u.age AS age ORDER BY age")
        .unwrap();
    assert_eq!(
        r.column("age"),
        vec![Value::Int(25), Value::Int(30), Value::Null]
    );
}

#[test]
fn aggregation_with_grouping() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User)-[o:ORDERED]->() \
             RETURN u.name AS name, sum(o.qty) AS total ORDER BY name",
        )
        .unwrap();
    assert_eq!(strs(r.column("name")), vec!["Ann", "Bob"]);
    assert_eq!(ints(r.column("total")), vec![3, 5]);
}

#[test]
fn count_star_on_empty_result_is_zero() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(&mut g, "MATCH (x:Nothing) RETURN count(*) AS n")
        .unwrap();
    assert_eq!(ints(r.column("n")), vec![0]);
}

#[test]
fn aggregate_inside_expression() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User) RETURN count(*) + 1 AS n, 'x' + toString(count(*)) AS s",
        )
        .unwrap();
    assert_eq!(ints(r.column("n")), vec![4]);
    assert_eq!(strs(r.column("s")), vec!["x3"]);
}

#[test]
fn collect_and_distinct() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH ()-[o:ORDERED]->(p:Product) \
             RETURN collect(DISTINCT p.name) AS names",
        )
        .unwrap();
    let Value::List(names) = &r.rows[0][0] else {
        panic!()
    };
    assert_eq!(names.len(), 2);
}

#[test]
fn distinct_projection() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH ()-[:ORDERED]->(p:Product) RETURN DISTINCT p.name AS name ORDER BY name",
        )
        .unwrap();
    assert_eq!(strs(r.column("name")), vec!["laptop", "mouse"]);
}

#[test]
fn with_pipelines_and_filters() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User)-[o:ORDERED]->() \
             WITH u, count(o) AS orders WHERE orders > 1 \
             RETURN u.name AS name",
        )
        .unwrap();
    assert_eq!(strs(r.column("name")), vec!["Ann"]);
}

#[test]
fn with_requires_aliases_for_expressions() {
    let mut g = setup();
    let err = Engine::legacy()
        .run(&mut g, "MATCH (u:User) WITH u.name RETURN 1 AS one")
        .unwrap_err();
    assert!(matches!(err, EvalError::Dialect(m) if m.message.contains("aliased")));
}

#[test]
fn unwind_fans_out() {
    let mut g = PropertyGraph::new();
    let r = Engine::legacy()
        .run(&mut g, "UNWIND [3, 1, 2] AS x RETURN x ORDER BY x")
        .unwrap();
    assert_eq!(ints(r.column("x")), vec![1, 2, 3]);
}

#[test]
fn unwind_null_produces_no_rows() {
    let mut g = PropertyGraph::new();
    let r = Engine::legacy()
        .run(&mut g, "UNWIND null AS x RETURN x")
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn unwind_scalar_is_single_row() {
    let mut g = PropertyGraph::new();
    let r = Engine::legacy()
        .run(&mut g, "UNWIND 7 AS x RETURN x")
        .unwrap();
    assert_eq!(ints(r.column("x")), vec![7]);
}

#[test]
fn union_distinct_and_all() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User {id: 1}) RETURN u.name AS n \
             UNION MATCH (u:User {id: 1}) RETURN u.name AS n",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User {id: 1}) RETURN u.name AS n \
             UNION ALL MATCH (u:User {id: 1}) RETURN u.name AS n",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn union_arms_must_align() {
    let mut g = setup();
    let err = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User) RETURN u.name AS a UNION MATCH (u:User) RETURN u.name AS b",
        )
        .unwrap_err();
    assert!(matches!(err, EvalError::Dialect(_)));
}

#[test]
fn return_star() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(&mut g, "MATCH (u:User {id: 1}) RETURN *")
        .unwrap();
    assert_eq!(r.columns, vec!["u"]);
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn skip_limit_validation() {
    let mut g = setup();
    let err = Engine::legacy()
        .run(&mut g, "MATCH (u:User) RETURN u LIMIT -1")
        .unwrap_err();
    assert!(matches!(err, EvalError::BadCount { .. }));
}

#[test]
fn row_order_is_deterministic() {
    let mut g = setup();
    let e = Engine::legacy();
    let a = e.run(&mut g, "MATCH (n) RETURN id(n) AS i").unwrap();
    let b = e.run(&mut g, "MATCH (n) RETURN id(n) AS i").unwrap();
    assert_eq!(a, b);
}

#[test]
fn where_label_predicate() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(&mut g, "MATCH (n) WHERE n:Product RETURN count(*) AS c")
        .unwrap();
    assert_eq!(ints(r.column("c")), vec![2]);
}

#[test]
fn paths_and_path_functions() {
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH p = (:User {id: 1})-[:ORDERED]->(:Product {id: 10}) \
             RETURN length(p) AS len, size(nodes(p)) AS n",
        )
        .unwrap();
    assert_eq!(ints(r.column("len")), vec![1]);
    assert_eq!(ints(r.column("n")), vec![2]);
}

#[test]
fn statement_parameters() {
    let mut g = setup();
    let e = Engine::builder(cypher_core::Dialect::Cypher9)
        .param("wanted", Value::str("laptop"))
        .build();
    let r = e
        .run(
            &mut g,
            "MATCH (p:Product {name: $wanted}) RETURN p.price AS price",
        )
        .unwrap();
    assert_eq!(ints(r.column("price")), vec![1200]);
}

#[test]
fn read_only_statement_reports_no_updates() {
    let mut g = setup();
    let r = Engine::legacy().run(&mut g, "MATCH (n) RETURN n").unwrap();
    assert!(!r.stats.contains_updates());
}

#[test]
fn foreach_is_not_a_reader() {
    // FOREACH leaves the driving table untouched.
    let mut g = setup();
    let r = Engine::legacy()
        .run(
            &mut g,
            "MATCH (u:User) FOREACH (i IN [1] | SET u.seen = true) \
             WITH u RETURN count(*) AS c",
        )
        .unwrap();
    assert_eq!(ints(r.column("c")), vec![3]);
}

// ---------------------------------------------------------------------
// One exact value order: grouping, DISTINCT, ORDER BY and min/max agree
// on integers above 2⁵³ that round to the same `f64`.
// ---------------------------------------------------------------------

const TWO_53: i64 = 1 << 53;

#[test]
fn grouping_and_distinct_agree_above_2_pow_53() {
    let mut g = PropertyGraph::new();
    let e = Engine::revised();
    let grouped = e
        .run(
            &mut g,
            "UNWIND [9007199254740992, 9007199254740993] AS i RETURN i, count(*) AS n",
        )
        .unwrap();
    assert_eq!(ints(grouped.column("i")), vec![TWO_53, TWO_53 + 1]);
    assert_eq!(ints(grouped.column("n")), vec![1, 1]);
    let distinct = e
        .run(
            &mut g,
            "UNWIND [9007199254740992, 9007199254740993, 9007199254740992] AS i \
             RETURN DISTINCT i",
        )
        .unwrap();
    assert_eq!(ints(distinct.column("i")), vec![TWO_53, TWO_53 + 1]);
    let counted = e
        .run(
            &mut g,
            "UNWIND [9007199254740992, 9007199254740993] AS i RETURN count(DISTINCT i) AS n",
        )
        .unwrap();
    assert_eq!(ints(counted.column("n")), vec![2]);
}

#[test]
fn order_by_and_min_max_are_exact_above_2_pow_53() {
    let mut g = PropertyGraph::new();
    let e = Engine::revised();
    let ordered = e
        .run(
            &mut g,
            "UNWIND [9007199254740993, 9007199254740992] AS i RETURN i ORDER BY i",
        )
        .unwrap();
    assert_eq!(ints(ordered.column("i")), vec![TWO_53, TWO_53 + 1]);
    let extremes = e
        .run(
            &mut g,
            "UNWIND [9007199254740993, 9007199254740992] AS i RETURN min(i) AS lo, max(i) AS hi",
        )
        .unwrap();
    assert_eq!(ints(extremes.column("lo")), vec![TWO_53]);
    assert_eq!(ints(extremes.column("hi")), vec![TWO_53 + 1]);
}

/// `DISTINCT`, `count(DISTINCT …)` and `UNION` deduplicate through one
/// ordered set, not a pairwise scan: 40k rows stay well inside a second.
#[test]
fn distinct_and_union_scale_to_40k_rows() {
    let mut g = PropertyGraph::new();
    let e = Engine::revised();
    let bound = std::time::Duration::from_secs(3);
    let cases = [
        (
            "UNWIND range(1, 40000) AS i WITH DISTINCT i RETURN count(*) AS n",
            vec![40000],
        ),
        (
            "UNWIND range(1, 40000) AS i RETURN count(DISTINCT i) AS n",
            vec![40000],
        ),
    ];
    for (query, expected) in cases {
        let start = std::time::Instant::now();
        let r = e.run(&mut g, query).unwrap();
        assert!(start.elapsed() <= bound, "{query}: {:?}", start.elapsed());
        assert_eq!(ints(r.column("n")), expected, "{query}");
    }
    let start = std::time::Instant::now();
    let r = e
        .run(
            &mut g,
            "UNWIND range(1, 20000) AS i RETURN i \
             UNION UNWIND range(10001, 30000) AS i RETURN i",
        )
        .unwrap();
    assert!(start.elapsed() <= bound, "UNION: {:?}", start.elapsed());
    assert_eq!(ints(r.column("i")), (1..=30000).collect::<Vec<i64>>());
}
