//! Property-based tests for the substrate: value ordering laws, the
//! journal/rollback machinery, and graph isomorphism.

use proptest::prelude::*;

use cypher_graph::{
    apply_delta, fmt::dump, isomorphic, DeleteNodeMode, Delta, NodeId, PropertyGraph, Ternary,
    Value,
};

// ---------------------------------------------------------------------
// Value laws
// ---------------------------------------------------------------------

/// Numbers, weighted toward the boundaries where `i64` and `f64` disagree:
/// ints within ±3 of ±2⁵³ collide pairwise as `f64`, and ±2⁵³, ±2⁶³ are
/// the floats they round to.
fn arb_number() -> impl Strategy<Value = Value> {
    const TWO_53: i64 = 1 << 53;
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (prop::sample::select(vec![TWO_53, -TWO_53]), -3i64..=3)
            .prop_map(|(base, d)| Value::Int(base + d)),
        prop::sample::select(vec![i64::MIN, i64::MAX]).prop_map(Value::Int),
        any::<i32>().prop_map(|i| Value::Float(f64::from(i) / 16.0)),
        prop::sample::select(vec![
            2f64.powi(53),
            -(2f64.powi(53)),
            2f64.powi(63),
            -(2f64.powi(63))
        ])
        .prop_map(Value::Float),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::INFINITY)),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        arb_number(),
        "[ -~]{0,8}".prop_map(Value::Str),
        (0u64..100).prop_map(|i| Value::Node(NodeId(i))),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::List),
            prop::collection::btree_map("[a-z]{1,3}", inner, 0..3).prop_map(Value::Map),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `global_cmp` is a total order: reflexive-equal, antisymmetric,
    /// transitive.
    #[test]
    fn global_cmp_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.global_cmp(&a), Ordering::Equal);
        prop_assert_eq!(a.global_cmp(&b), b.global_cmp(&a).reverse());
        if a.global_cmp(&b) != Ordering::Greater && b.global_cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.global_cmp(&c), Ordering::Greater);
        }
    }

    /// Equivalence is reflexive and symmetric, and ternary-true equality
    /// implies equivalence.
    #[test]
    fn equivalence_laws(a in arb_value(), b in arb_value()) {
        prop_assert!(a.equivalent(&a));
        prop_assert_eq!(a.equivalent(&b), b.equivalent(&a));
        if a.cypher_eq(&b) == Ternary::True {
            prop_assert!(a.equivalent(&b));
        }
    }

    /// Equality involving null is always unknown.
    #[test]
    fn null_equality_is_unknown(a in arb_value()) {
        prop_assert_eq!(Value::Null.cypher_eq(&a), Ternary::Unknown);
        prop_assert_eq!(a.cypher_eq(&Value::Null), Ternary::Unknown);
    }

    /// Values are equivalent exactly when they are global_cmp-equal
    /// (grouping and ordering agree), and `Ord` is that order.
    #[test]
    fn equivalence_agrees_with_global_order(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.equivalent(&b), a.global_cmp(&b) == std::cmp::Ordering::Equal);
        prop_assert_eq!(a.cmp(&b), a.global_cmp(&b));
    }

    /// Ternary-true `=` implies global_cmp-equality.
    #[test]
    fn equality_implies_global_order_equal(a in arb_value(), b in arb_value()) {
        if a.cypher_eq(&b) == Ternary::True {
            prop_assert_eq!(a.global_cmp(&b), std::cmp::Ordering::Equal);
        }
    }
}

proptest! {
    // Scalar draws are cheap; many cases make the colliding boundary pairs
    // (2⁵³ vs 2⁵³ + 1) certain to come up.
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// On numbers, `<` agrees with the global order (away from `NaN`), and
    /// equivalence and `=` agree with its `Equal`.
    #[test]
    fn numeric_comparison_agrees_with_global_order(a in arb_number(), b in arb_number()) {
        use std::cmp::Ordering;
        let is_nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
        if !is_nan(&a) && !is_nan(&b) {
            prop_assert_eq!(a.cypher_cmp(&b), Some(a.global_cmp(&b)));
        }
        prop_assert_eq!(a.equivalent(&b), a.global_cmp(&b) == Ordering::Equal);
        if a.cypher_eq(&b) == Ternary::True {
            prop_assert_eq!(a.global_cmp(&b), Ordering::Equal);
        }
    }
}

// ---------------------------------------------------------------------
// Journal / rollback
// ---------------------------------------------------------------------

/// A random mutation script against the store.
#[derive(Clone, Debug)]
enum Op {
    CreateNode { label: u8, id: i64 },
    CreateRel { src: usize, tgt: usize, ty: u8 },
    SetProp { node: usize, value: i64 },
    AddLabel { node: usize, label: u8 },
    RemoveLabel { node: usize, label: u8 },
    DeleteRel { rel: usize },
    DeleteNodeDetach { node: usize },
    DeleteNodeForce { node: usize },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..3, 0i64..50).prop_map(|(label, id)| Op::CreateNode { label, id }),
            (0usize..64, 0usize..64, 0u8..2).prop_map(|(src, tgt, ty)| Op::CreateRel {
                src,
                tgt,
                ty
            }),
            (0usize..64, 0i64..100).prop_map(|(node, value)| Op::SetProp { node, value }),
            (0usize..64, 0u8..3).prop_map(|(node, label)| Op::AddLabel { node, label }),
            (0usize..64, 0u8..3).prop_map(|(node, label)| Op::RemoveLabel { node, label }),
            (0usize..64).prop_map(|rel| Op::DeleteRel { rel }),
            (0usize..64).prop_map(|node| Op::DeleteNodeDetach { node }),
            (0usize..64).prop_map(|node| Op::DeleteNodeForce { node }),
        ],
        0..40,
    )
}

fn apply_ops(g: &mut PropertyGraph, ops: &[Op]) {
    let k = g.sym("v");
    for op in ops {
        let nodes: Vec<NodeId> = g.node_ids().collect();
        let rels: Vec<_> = g.rel_ids().collect();
        let pick_node = |i: usize| nodes.get(i % nodes.len().max(1)).copied();
        match op {
            Op::CreateNode { label, id } => {
                let l = g.sym(&format!("L{label}"));
                g.create_node([l], [(k, Value::Int(*id))]);
            }
            Op::CreateRel { src, tgt, ty } => {
                if let (Some(s), Some(t)) = (pick_node(*src), pick_node(*tgt)) {
                    let ty = g.sym(&format!("T{ty}"));
                    let _ = g.create_rel(s, ty, t, []);
                }
            }
            Op::SetProp { node, value } => {
                if let Some(n) = pick_node(*node) {
                    let _ = g.set_prop(n.into(), k, Value::Int(*value));
                }
            }
            Op::AddLabel { node, label } => {
                if let Some(n) = pick_node(*node) {
                    let l = g.sym(&format!("L{label}"));
                    let _ = g.add_label(n, l);
                }
            }
            Op::RemoveLabel { node, label } => {
                if let Some(n) = pick_node(*node) {
                    let l = g.sym(&format!("L{label}"));
                    let _ = g.remove_label(n, l);
                }
            }
            Op::DeleteRel { rel } => {
                if let Some(&r) = rels.get(rel % rels.len().max(1)) {
                    let _ = g.delete_rel(r);
                }
            }
            Op::DeleteNodeDetach { node } => {
                if let Some(n) = pick_node(*node) {
                    let _ = g.delete_node(n, DeleteNodeMode::Detach);
                }
            }
            Op::DeleteNodeForce { node } => {
                if let Some(n) = pick_node(*node) {
                    let _ = g.delete_node(n, DeleteNodeMode::Force);
                }
            }
        }
    }
}

/// Everything rollback and delta replay promise to reproduce: entities and
/// properties, per-node adjacency order, tombstones and the id allocators.
fn fingerprint(g: &PropertyGraph) -> String {
    let adjacency: Vec<_> = g
        .node_ids()
        .map(|n| (n, g.rels_out(n).to_vec(), g.rels_in(n).to_vec()))
        .collect();
    format!(
        "{}adjacency {adjacency:?}\ntombstones {:?} {:?}\nnext ids {:?}\n",
        dump(g),
        g.tomb_node_ids().collect::<Vec<_>>(),
        g.tomb_rel_ids().collect::<Vec<_>>(),
        g.next_ids(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rolling back to a savepoint restores the exact pre-savepoint state,
    /// for arbitrary mutation scripts (including force-deletes that leave
    /// dangling relationships), with delta capture on: the rolled-back
    /// mutation leaves the captured delta as it was.
    #[test]
    fn rollback_restores_exactly(setup in arb_ops(), mutation in arb_ops()) {
        let mut g = PropertyGraph::new();
        g.enable_delta_capture();
        let (committed, pending) = setup.split_at(setup.len() / 2);
        let root = g.savepoint();
        apply_ops(&mut g, committed);
        g.commit(root);
        apply_ops(&mut g, pending);
        g.commit(g.savepoint()); // not a root commit; just exercise the API
        let before = fingerprint(&g);
        let delta_before = g.delta().to_vec();
        let sp = g.savepoint();
        apply_ops(&mut g, &mutation);
        g.rollback_to(sp);
        prop_assert_eq!(fingerprint(&g), before);
        prop_assert_eq!(g.delta(), &delta_before[..]);
    }

    /// The delta captured over several statements — some rolled back whole,
    /// some to an inner savepoint, the rest root-committed — replays onto a
    /// copy of the start graph and reproduces the graph exactly.
    #[test]
    fn captured_delta_replays_exactly(
        start in arb_ops(),
        statements in prop::collection::vec((arb_ops(), arb_ops(), 0u8..3), 1..5),
    ) {
        let mut g = PropertyGraph::new();
        // `dump` lists labels in symbol order; interning every name up
        // front keeps both graphs' symbol orders equal.
        for name in ["v", "L0", "L1", "L2", "T0", "T1"] {
            g.sym(name);
        }
        let root = g.savepoint();
        apply_ops(&mut g, &start);
        g.commit(root);
        let mut replica = g.clone();
        g.enable_delta_capture();
        for (outer, inner, fate) in &statements {
            let sp = g.savepoint();
            apply_ops(&mut g, outer);
            let inner_sp = g.savepoint();
            apply_ops(&mut g, inner);
            match fate {
                0 => g.rollback_to(sp),
                1 => {
                    g.rollback_to(inner_sp);
                    g.commit(sp);
                }
                _ => g.commit(sp),
            }
        }
        let ops = Delta::from_ops(&g.take_delta(), &g);
        let root = replica.savepoint();
        for op in &ops {
            prop_assert!(apply_delta(&mut replica, op).is_ok(), "replay of {:?}", op);
        }
        replica.commit(root);
        prop_assert_eq!(fingerprint(&replica), fingerprint(&g));
    }

    /// Detach-deleting every node leaves no nodes; the only relationships
    /// that can survive the sweep are ones that were already *dangling*
    /// (a force-delete in the setup removed both endpoints, so no node's
    /// adjacency reaches them). Removing those too leaves an empty, legal
    /// graph.
    #[test]
    fn detach_delete_everything_is_always_legal(setup in arb_ops()) {
        let mut g = PropertyGraph::new();
        apply_ops(&mut g, &setup);
        let pre_dangling: std::collections::BTreeSet<_> =
            g.dangling_rels().into_iter().collect();
        let nodes: Vec<NodeId> = g.node_ids().collect();
        for n in nodes {
            let _ = g.delete_node(n, DeleteNodeMode::Detach);
        }
        prop_assert_eq!(g.node_count(), 0);
        let survivors: Vec<_> = g.rel_ids().collect();
        for r in &survivors {
            prop_assert!(
                pre_dangling.contains(r),
                "rel {r} survived the sweep but was not dangling beforehand"
            );
            g.delete_rel(*r).expect("delete dangling survivor");
        }
        prop_assert_eq!(g.rel_count(), 0);
        prop_assert!(g.integrity_check().is_ok());
    }

    /// A graph is isomorphic to a structurally identical copy built in a
    /// different id order.
    #[test]
    fn isomorphism_survives_id_permutation(ids in prop::collection::vec(0i64..10, 1..6)) {
        let build = |order: &[i64]| {
            let mut g = PropertyGraph::new();
            let l = g.sym("N");
            let k = g.sym("id");
            let t = g.sym("E");
            let nodes: Vec<NodeId> = order
                .iter()
                .map(|&i| g.create_node([l], [(k, Value::Int(i))]))
                .collect();
            // Ring topology keyed by sorted position so both builds create
            // the same logical graph.
            let mut sorted: Vec<(i64, NodeId)> =
                order.iter().copied().zip(nodes.iter().copied()).collect();
            sorted.sort_by_key(|(v, _)| *v);
            for w in 0..sorted.len() {
                let (_, a) = sorted[w];
                let (_, b) = sorted[(w + 1) % sorted.len()];
                g.create_rel(a, t, b, []).expect("live");
            }
            g
        };
        let forward = build(&ids);
        let mut reversed_ids = ids.clone();
        reversed_ids.reverse();
        let backward = build(&reversed_ids);
        prop_assert!(isomorphic(&forward, &backward));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Export/import round trip: any legal graph serialized to a Cypher
    /// CREATE script and re-run produces an isomorphic graph.
    #[test]
    fn cypher_export_roundtrips(setup in arb_ops()) {
        let mut g = PropertyGraph::new();
        apply_ops(&mut g, &setup);
        // The exporter only represents legal graphs faithfully; drop any
        // dangling relationships a force-delete left behind.
        for r in g.dangling_rels() {
            g.delete_rel(r).expect("delete dangling");
        }
        let script = cypher_core::graph_to_cypher(&g);
        let mut restored = PropertyGraph::new();
        if !script.trim().is_empty() {
            cypher_core::Engine::revised()
                .run_script(&mut restored, &script)
                .expect("restore script runs");
        }
        prop_assert!(isomorphic(&g, &restored));
    }
}
