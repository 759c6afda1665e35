//! The embedded-engine oracle.
//!
//! Every row a server returned is checked against `Engine::run_read` on an
//! in-memory graph that has seen the same statement prefix, and every
//! final state against the graph that prefix leaves behind. The oracle
//! applies writes with `Engine::apply_clauses` — the same clause semantics
//! the server runs, without the per-statement commit check that costs as
//! much as the statement under test on a populated graph — so validating a
//! run stays a small fraction of the run.

use std::collections::HashMap;

use cypher_core::{Engine, Table};
use cypher_graph::{PropertyGraph, Value};
use cypher_parser::parse;

use super::stream::OpKind;
use super::{Ctx, Res};

/// FNV-1a over the rows' debug rendering, rows sorted first: statements
/// without `ORDER BY` promise a bag, not a sequence.
pub fn checksum_rows(rows: &[Vec<Value>]) -> u64 {
    let mut rendered: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    rendered.sort_unstable();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for row in &rendered {
        for b in row.bytes().chain(std::iter::once(b'\n')) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// One executed statement as a client recorded it.
#[derive(Clone, Debug)]
pub struct Executed {
    pub kind: OpKind,
    pub text: String,
    /// [`checksum_rows`] of what the server returned (reads only).
    pub checksum: u64,
}

pub struct Oracle {
    graph: PropertyGraph,
    engine: Engine,
}

impl Oracle {
    /// Start from a private copy of the preloaded graph.
    pub fn new(graph: &PropertyGraph) -> Oracle {
        let mut graph = graph.clone();
        graph.disable_delta_capture();
        Oracle {
            graph,
            engine: Engine::revised(),
        }
    }

    pub fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    /// Replay one client's statements in the order it ran them. Returns
    /// how many reads disagreed with what the server returned.
    pub fn replay(&mut self, executed: &[Executed]) -> Res<u64> {
        let mut mismatches = 0;
        // A read repeated while the graph has not changed has the answer it
        // had before. A read-only run repeats its product scan thousands
        // of times; evaluating each would take as long as the run.
        let mut answers: HashMap<&str, u64> = HashMap::new();
        for op in executed {
            if op.kind.is_read() {
                let expect = match answers.get(op.text.as_str()) {
                    Some(&known) => known,
                    None => {
                        let rows = self
                            .engine
                            .run_read(&self.graph, &op.text)
                            .ctx("oracle read")?
                            .rows;
                        let sum = checksum_rows(&rows);
                        answers.insert(&op.text, sum);
                        sum
                    }
                };
                if expect != op.checksum {
                    mismatches += 1;
                }
            } else {
                answers.clear();
                let query = parse(&op.text).ctx("oracle parse")?;
                self.engine
                    .apply_clauses(&mut self.graph, Table::unit(), &query.first.clauses)
                    .ctx("oracle write")?;
            }
        }
        Ok(mismatches)
    }
}

/// An id-independent digest of everything the streams can change: entity
/// counts, every user's score, the `:ORDERED` relationships and the `:Tmp`
/// nodes. Two graphs that saw the same writes in any partition-respecting
/// order have the same digest.
pub fn state_digest(graph: &PropertyGraph) -> Res<String> {
    const QUERIES: [&str; 3] = [
        "MATCH (u:User) WHERE u.score IS NOT NULL \
         RETURN count(u) AS n, sum(u.score) AS s, sum(u.score * u.id) AS w",
        "MATCH (u:User)-[r:ORDERED]->(p:Product) RETURN count(r) AS n, sum(p.id) AS s",
        "MATCH (u:User)-[:NOTED]->(t:Tmp) RETURN count(t) AS n, sum(t.id) AS s, sum(u.id) AS w",
    ];
    let engine = Engine::revised();
    let mut out = format!("nodes={} rels={}", graph.node_count(), graph.rel_count());
    for q in QUERIES {
        let rows = engine.run_read(graph, q).ctx("state digest")?.rows;
        out.push_str(&format!(" {rows:?}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::preload::{Dataset, Preset};
    use crate::harness::stream::{Shape, StatementStream};

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let b = vec![vec![Value::Int(2)], vec![Value::Int(1)]];
        let c = vec![vec![Value::Int(2)], vec![Value::Int(3)]];
        assert_eq!(checksum_rows(&a), checksum_rows(&b));
        assert_ne!(checksum_rows(&a), checksum_rows(&c));
        assert_ne!(checksum_rows(&a), checksum_rows(&a[..1]));
    }

    /// The oracle's unchecked write path must leave the graph exactly where
    /// `Engine::run` (transaction + commit check) leaves it, and clients in
    /// different partitions must commute.
    #[test]
    fn oracle_matches_engine_run_and_partitions_commute() {
        let data = Dataset::build(Preset::Tiny).unwrap();
        let keys = Preset::Tiny.keys();
        let streams: Vec<Vec<Executed>> = (0..2)
            .map(|part| {
                let mut s = StatementStream::new(Shape::OltpMix, keys, 9, part, 2);
                (0..160)
                    .map(|_| {
                        let st = s.next_stmt();
                        Executed {
                            kind: st.kind,
                            text: st.text,
                            checksum: 0,
                        }
                    })
                    .collect()
            })
            .collect();

        // Reference: interleave the two clients through Engine::run.
        let engine = Engine::revised();
        let mut reference = data.graph.clone();
        let mut expected: Vec<Vec<Executed>> = vec![Vec::new(), Vec::new()];
        for i in 0..160 {
            for (part, stream) in streams.iter().enumerate() {
                let op = &stream[i];
                let res = engine.run(&mut reference, &op.text).unwrap();
                expected[part].push(Executed {
                    checksum: checksum_rows(&res.rows),
                    ..op.clone()
                });
            }
        }

        // Oracle: one client after the other.
        let mut oracle = Oracle::new(&data.graph);
        for stream in &expected {
            assert_eq!(oracle.replay(stream).unwrap(), 0);
        }
        assert_eq!(
            state_digest(oracle.graph()).unwrap(),
            state_digest(&reference).unwrap()
        );
        assert_ne!(
            state_digest(oracle.graph()).unwrap(),
            state_digest(&data.graph).unwrap()
        );
    }
}
