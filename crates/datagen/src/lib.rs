//! # cypher-datagen — workloads for the reproduction experiments
//!
//! Generators for the graphs and driving tables used throughout the paper
//! and by the benchmark harness:
//!
//! * [`marketplace`] — the Figure 1 running-example graph, plus a scalable
//!   synthetic marketplace (users / vendors / products / orders) in the
//!   same schema;
//! * [`tables`] — driving tables for the `MERGE` experiments: the exact
//!   tables of Examples 3, 5, 6 and 7, and a parameterized order-table
//!   generator with tunable duplicate and null ratios (the "import from a
//!   relational database or a CSV file" workload of §5/§6);
//! * [`random`] — random property graphs for pattern-matching benchmarks;
//! * [`csv`] — a minimal CSV reader/writer so the import examples can
//!   round-trip through actual CSV text.
//!
//! All generators are deterministic given a seed.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csv;
pub mod marketplace;
pub mod random;
pub mod tables;

use cypher_graph::{NodeData, NodeId, PropertyGraph, PropertyMap, RelData, RelId, Symbol, Value};

pub use marketplace::{figure1_graph, marketplace_graph, Figure1Nodes, MarketplaceConfig};

/// Add a node to a graph a generator is building. Generated state is
/// committed state, so it goes in the way a snapshot load puts it: under
/// the next free id, through the restore path, with no journal entry to
/// undo.
pub(crate) fn node<L, P>(g: &mut PropertyGraph, labels: L, props: P) -> NodeId
where
    L: IntoIterator<Item = Symbol>,
    P: IntoIterator<Item = (Symbol, Value)>,
{
    let id = NodeId(g.next_ids().0);
    let data = NodeData {
        labels: labels.into_iter().collect(),
        props: props.into_iter().collect(),
    };
    g.restore_node(id, data);
    id
}

/// Link two nodes a generator just created, like [`node`]. Endpoints are
/// always live here, so failure means the generator itself is broken.
pub(crate) fn link(g: &mut PropertyGraph, src: NodeId, rel_type: Symbol, tgt: NodeId) {
    let id = RelId(g.next_ids().1);
    let data = RelData {
        src,
        tgt,
        rel_type,
        props: PropertyMap::new(),
    };
    if g.restore_rel(id, data).is_err() {
        unreachable!("generator linked a deleted node");
    }
}
pub use tables::{
    example3_table, example5_table, example6_table, example7_table, order_table, rows_as_value,
    OrderTableConfig,
};
