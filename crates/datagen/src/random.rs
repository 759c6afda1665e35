//! Random property graphs for matching and update benchmarks, and random
//! value generation for property tests.

use cypher_graph::{NodeId, PropertyGraph, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`random_graph`].
#[derive(Clone, Copy, Debug)]
pub struct RandomGraphConfig {
    pub nodes: usize,
    pub rels: usize,
    /// Number of distinct labels; each node gets one.
    pub labels: usize,
    /// Number of distinct relationship types.
    pub types: usize,
    pub seed: u64,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        RandomGraphConfig {
            nodes: 1_000,
            rels: 5_000,
            labels: 4,
            types: 3,
            seed: 42,
        }
    }
}

/// Uniform random multigraph with labelled nodes and an integer `id`
/// property per node.
pub fn random_graph(cfg: &RandomGraphConfig) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = PropertyGraph::new();
    let labels: Vec<_> = (0..cfg.labels.max(1))
        .map(|i| g.sym(&format!("L{i}")))
        .collect();
    let types: Vec<_> = (0..cfg.types.max(1))
        .map(|i| g.sym(&format!("T{i}")))
        .collect();
    let id_k = g.sym("id");
    let nodes: Vec<NodeId> = (0..cfg.nodes)
        .map(|i| {
            let label = labels[rng.gen_range(0..labels.len())];
            crate::node(&mut g, [label], [(id_k, Value::Int(i as i64))])
        })
        .collect();
    if !nodes.is_empty() {
        for _ in 0..cfg.rels {
            let src = nodes[rng.gen_range(0..nodes.len())];
            let tgt = nodes[rng.gen_range(0..nodes.len())];
            let ty = types[rng.gen_range(0..types.len())];
            crate::link(&mut g, src, ty, tgt);
        }
    }
    g
}

/// A chain graph `(0)-[:NEXT]->(1)-…->(n-1)`, for variable-length path
/// benchmarks.
pub fn chain_graph(len: usize) -> PropertyGraph {
    let mut g = PropertyGraph::new();
    let node_l = g.sym("Node");
    let next_t = g.sym("NEXT");
    let id_k = g.sym("id");
    let mut prev: Option<NodeId> = None;
    for i in 0..len {
        let n = crate::node(&mut g, [node_l], [(id_k, Value::Int(i as i64))]);
        if let Some(p) = prev {
            crate::link(&mut g, p, next_t, n);
        }
        prev = Some(n);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_counts() {
        let g = random_graph(&RandomGraphConfig {
            nodes: 50,
            rels: 120,
            ..Default::default()
        });
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.rel_count(), 120);
        g.integrity_check().unwrap();
    }

    #[test]
    fn random_graph_deterministic() {
        let cfg = RandomGraphConfig::default();
        let a = cypher_graph::fmt::dump(&random_graph(&cfg));
        let b = cypher_graph::fmt::dump(&random_graph(&cfg));
        assert_eq!(a, b);
    }

    #[test]
    fn chain_graph_shape() {
        let g = chain_graph(10);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.rel_count(), 9);
    }

    #[test]
    fn chain_graph_of_zero_and_one() {
        assert_eq!(chain_graph(0).node_count(), 0);
        let g = chain_graph(1);
        assert_eq!((g.node_count(), g.rel_count()), (1, 0));
    }
}
