//! Parallel-read differential suite: every read-only query in the corpus
//! must produce a **byte-identical** rendered table whether it runs
//! serially or through the morsel-driven parallel executor — across
//! worker counts, morsel sizes (including the degenerate 1-row morsel and
//! an everything-in-one-morsel 1024), and with the planner both enabled
//! and disabled. This is the executable form of DESIGN.md §13's
//! determinism argument: parallelism may change the schedule, never the
//! answer.

use cypher_core::{Dialect, Engine, EngineBuilder};
use cypher_datagen::{figure1_graph, marketplace_graph, MarketplaceConfig};
use cypher_graph::{PropertyGraph, Value};

/// Read-only corpus, mirroring `planner_differential.rs`: full scans,
/// label scans, index probes, reversal candidates, conjunctions, OPTIONAL
/// MATCH, WHERE, undirected and multi-type steps, var-length expansion,
/// path variables, parameters, aggregation, ORDER BY/SKIP/LIMIT, and
/// shortestPath (never planned — exercises the naive fallback under
/// inter-row parallelism).
const READS: &[&str] = &[
    "MATCH (n) RETURN n.name AS name",
    "MATCH (u:User) RETURN u.name AS name",
    "MATCH (u:User {id: 89}) RETURN u.name AS name",
    "MATCH (u:User {id: $uid}) RETURN u.name AS name",
    "MATCH (p:Product {id: $pid}) RETURN p.name AS name",
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product) RETURN v.name AS v, p.name AS p",
    "MATCH (p:Product)<-[:ORDERED]-(u:User) RETURN p.name AS p, u.name AS u",
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:ORDERED]-(u:User) \
     RETURN v.name AS v, p.name AS p, u.name AS u",
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:ORDERED]-(u:User {id: 89}) \
     RETURN p.name AS p",
    "MATCH (p:Product)<-[:ORDERED]-(u:User {id: $uid}) RETURN p.name AS p",
    "MATCH (a)-[:OFFERS]-(b) RETURN a.name AS a, b.name AS b",
    "MATCH (a)-[r:OFFERS|ORDERED]-(b) RETURN a.name AS a, b.name AS b",
    "MATCH (u:User)-[:ORDERED*1..2]-(x) RETURN u.name AS u, x.name AS x",
    "MATCH (v:Vendor)-[:OFFERS|ORDERED*1..3]->(x) RETURN v.name AS v, x.name AS x",
    "MATCH (u:User {id: 89}), (v:Vendor) RETURN u.name AS u, v.name AS v",
    "MATCH (u:User), (v:Vendor {id: 60}) RETURN u.name AS u, v.name AS v",
    "MATCH (u:User)-[:ORDERED]->(p), (v:Vendor)-[:OFFERS]->(p) \
     RETURN u.name AS u, v.name AS v, p.name AS p",
    "MATCH (u:User) OPTIONAL MATCH (u)-[:ORDERED]->(p:Product {id: 125}) \
     RETURN u.name AS u, p.name AS p",
    "OPTIONAL MATCH (x:Missing) RETURN x",
    "MATCH (u:User)-[:ORDERED]->(p) WHERE p.id > 100 RETURN u.name AS u, p.id AS id",
    "MATCH (u:User) WHERE NOT (u)-[:ORDERED]->(:Product {id: 85}) RETURN u.name AS u",
    "MATCH q = (u:User)-[:ORDERED]->(p) RETURN length(q) AS l, p.name AS name",
    "MATCH q = (p:Product)<-[:ORDERED]-(u:User {id: 89}) RETURN length(q) AS l",
    "MATCH q = (a:User)-[:ORDERED*..3]-(b) RETURN length(q) AS l, b.name AS b",
    "MATCH p = shortestPath((a:User {id: 89})-[*..4]-(b:Vendor)) RETURN length(p) AS l",
    "MATCH (v:Vendor)-[:OFFERS]->(p) WITH v, count(p) AS c RETURN v.name AS v, c",
    "MATCH (n) RETURN n.name AS name ORDER BY name SKIP 1 LIMIT 3",
    "MATCH (n) RETURN DISTINCT labels(n) AS l",
    "MATCH (a:User)-[:ORDERED]->(:Product)<-[:ORDERED]-(b:User) \
     RETURN a.name AS a, b.name AS b",
    // Intra-row OPTIONAL MATCH: one driving row, anchors chunked, a WHERE
    // that rejects every match (the null row) and one that keeps some.
    "OPTIONAL MATCH (p:Product) WHERE p.id < 0 RETURN p",
    "OPTIONAL MATCH (p:Product) WHERE p.id > 100 RETURN p.name AS name",
    "MATCH (v:Vendor) OPTIONAL MATCH (v)-[:OFFERS]->(p) WHERE p.id < 0 \
     RETURN v.name AS v, p",
];

fn engine(read_workers: usize, morsel: usize, force_naive: bool) -> Engine {
    EngineBuilder::new(Dialect::Revised)
        .param("uid", Value::Int(89))
        .param("pid", Value::Int(125))
        .force_naive(force_naive)
        .read_workers(read_workers)
        .morsel_size(morsel)
        // Threshold 1: parallel engages on every clause that has any work
        // at all, maximizing coverage of both morsel axes.
        .parallel_threshold(1)
        .build()
}

fn contexts() -> Vec<(&'static str, PropertyGraph)> {
    let (fig1, _) = figure1_graph();

    let mut fig1_indexed = fig1.clone();
    let setup = Engine::revised();
    setup
        .run(&mut fig1_indexed, "CREATE INDEX ON :User(id)")
        .unwrap();
    setup
        .run(&mut fig1_indexed, "CREATE INDEX ON :Product(id)")
        .unwrap();

    let mut market = marketplace_graph(&MarketplaceConfig::default());
    setup.run(&mut market, "CREATE INDEX ON :User(id)").unwrap();

    vec![
        ("figure1", fig1),
        ("figure1+indexes", fig1_indexed),
        ("marketplace+index", market),
    ]
}

/// Serial vs parallel `run_read` on the same shared graph: identical
/// rendered tables, or identical errors.
fn assert_parallel_matches_serial(
    name: &str,
    graph: &PropertyGraph,
    query: &str,
    workers: usize,
    morsel: usize,
    force_naive: bool,
) {
    let serial = engine(1, morsel, force_naive).run_read(graph, query);
    let parallel = engine(workers, morsel, force_naive).run_read(graph, query);
    match (serial, parallel) {
        (Ok(s), Ok(p)) => assert_eq!(
            s.render(),
            p.render(),
            "tables diverge for {query} on {name} \
             (workers={workers}, morsel={morsel}, naive={force_naive})"
        ),
        (Err(s), Err(p)) => assert_eq!(
            s.to_string(),
            p.to_string(),
            "errors diverge for {query} on {name}"
        ),
        (s, p) => panic!(
            "outcome diverges for {query} on {name}: serial {s:?} vs parallel {p:?} \
             (workers={workers}, morsel={morsel}, naive={force_naive})"
        ),
    }
}

/// The tentpole property: for every context × query × morsel size in
/// {1, 7, 1024} × planner on/off, parallel output is byte-identical to
/// serial output.
#[test]
fn parallel_reads_match_serial_across_morsel_sizes() {
    for (name, g) in contexts() {
        for q in READS {
            for &morsel in &[1usize, 7, 1024] {
                for &naive in &[false, true] {
                    assert_parallel_matches_serial(name, &g, q, 4, morsel, naive);
                }
            }
        }
    }
}

/// Worker count is a pure scheduling knob: 2, 3 and 8 workers all agree
/// with serial on a spot-checked slice of the corpus.
#[test]
fn worker_count_never_changes_results() {
    let (name, g) = contexts().remove(2);
    for q in READS.iter().step_by(4) {
        for &workers in &[2usize, 3, 8] {
            assert_parallel_matches_serial(name, &g, q, workers, 7, false);
        }
    }
}

/// Row budgets trip identically (strictly cooperative, pooled across
/// workers): a query that exceeds `max_rows` fails under both executors,
/// and one that fits passes with identical output.
#[test]
fn row_budgets_are_enforced_across_workers() {
    let (_, g) = contexts().remove(2);
    let limited = |q: &str, workers: usize, max_rows: u64| {
        EngineBuilder::new(Dialect::Revised)
            .read_workers(workers)
            .morsel_size(7)
            .parallel_threshold(1)
            .limits(cypher_core::ExecLimits {
                max_rows: Some(max_rows),
                ..cypher_core::ExecLimits::NONE
            })
            .build()
            .run_read(&g, q)
    };
    let q = "MATCH (a)-[r]->(b) RETURN count(r) AS n";
    // A generous budget passes identically.
    let serial = limited(q, 1, 1_000_000).unwrap();
    let parallel = limited(q, 4, 1_000_000).unwrap();
    assert_eq!(serial.render(), parallel.render());
    // A tiny budget trips both.
    let se = limited(q, 1, 3).unwrap_err();
    let pe = limited(q, 4, 3).unwrap_err();
    assert_eq!(se.to_string(), pe.to_string());

    // A budget only the cumulative count trips: the parallel MATCH
    // charges its n rows, the serial projection after it n more.
    let q = "MATCH (a)-[r]->(b) RETURN a, b";
    let n = limited(q, 1, u64::MAX).unwrap().rows.len() as u64;
    assert!(n > 2, "the graph has relationships");
    let se = limited(q, 1, n + n / 2).unwrap_err();
    let pe = limited(q, 4, n + n / 2).unwrap_err();
    assert_eq!(se.to_string(), pe.to_string());
    let serial = limited(q, 1, 2 * n).unwrap();
    let parallel = limited(q, 4, 2 * n).unwrap();
    assert_eq!(serial.render(), parallel.render());
}
