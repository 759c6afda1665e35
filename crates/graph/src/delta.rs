//! The mutation vocabulary: the seven primitive graph updates, their
//! in-graph capture and their owned, replayable form.
//!
//! The paper's update semantics bottom out in seven primitives — create and
//! delete node and relationship, add and remove label, set property. They
//! are spelled twice here, for two lifetimes:
//!
//! * [`DeltaOp`] is the **capture**: interned symbols, the redo half of
//!   every [`PropertyGraph`] journal entry. Rollback pops entries; a root
//!   commit moves their redo halves to the graph's delta when capture is
//!   on. It is only meaningful next to the graph (and interner) that
//!   produced it.
//! * [`Delta`] is the **interface between the writer and every consumer**:
//!   labels, keys and types are owned strings, so a committed statement's
//!   delta replays against any other graph — the WAL record payload, the
//!   view maintainer's feed and the test oracles all carry it.
//!   [`Delta::from_ops`] is the one conversion, [`apply_delta`] the one
//!   replay.

use crate::graph::{DeleteNodeMode, Direction, NodeData, PropertyGraph, PropertyMap, RelData};
use crate::ids::{EntityRef, NodeId, RelId};
use crate::interner::Symbol;
use crate::value::Value;

/// One logical mutation in *redo* form, captured for write-ahead logging
/// when [`PropertyGraph::enable_delta_capture`] is on.
///
/// Every mutation journals exactly one `DeltaOp` beside its before-image.
/// [`PropertyGraph::rollback_to`] discards the entries it undoes, so the
/// delta a root commit releases is exactly the net effect of operations
/// that survived rollback. Compound mutations decompose into their
/// primitives — `DETACH DELETE` records each cascaded relationship deletion
/// as its own [`DeltaOp::DeleteRel`] before the [`DeltaOp::DeleteNode`],
/// and `SET n = {map}` records one [`DeltaOp::SetProp`] per changed key —
/// so replaying a delta in order through the primitive mutation APIs
/// reproduces the state transition exactly, including mid-statement
/// dangling phases of the legacy engine.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaOp {
    CreateNode {
        id: NodeId,
        labels: Vec<Symbol>,
        props: Vec<(Symbol, Value)>,
    },
    CreateRel {
        id: RelId,
        src: NodeId,
        tgt: NodeId,
        rel_type: Symbol,
        props: Vec<(Symbol, Value)>,
    },
    DeleteRel {
        id: RelId,
    },
    /// The node had no attached relationships at this point of the op
    /// sequence *unless* the legacy engine force-deleted it; replay with
    /// [`DeleteNodeMode::Force`] handles both.
    DeleteNode {
        id: NodeId,
    },
    AddLabel {
        node: NodeId,
        label: Symbol,
    },
    RemoveLabel {
        node: NodeId,
        label: Symbol,
    },
    /// `value: None` removes the key (Cypher's `SET n.k = null`).
    SetProp {
        entity: EntityRef,
        key: Symbol,
        value: Option<Value>,
    },
}

/// One committed primitive mutation in execution order, decoupled from any
/// interner. Entity ids are physical — replay must reproduce them exactly,
/// because committed query results may have exposed them (`id(n)`).
///
/// The sequence for a statement is its *net* effect: rolled-back statements
/// contribute nothing, and `DETACH DELETE` emits every `DeleteRel` before
/// the `DeleteNode`.
#[derive(Clone, Debug, PartialEq)]
pub enum Delta {
    CreateNode {
        id: u64,
        labels: Vec<String>,
        props: Vec<(String, Value)>,
    },
    CreateRel {
        id: u64,
        src: u64,
        tgt: u64,
        rel_type: String,
        props: Vec<(String, Value)>,
    },
    DeleteRel {
        id: u64,
    },
    DeleteNode {
        id: u64,
    },
    AddLabel {
        node: u64,
        label: String,
    },
    RemoveLabel {
        node: u64,
        label: String,
    },
    /// `value: None` removes the key (`SET n.k = null`).
    SetProp {
        entity: EntityRef,
        key: String,
        value: Option<Value>,
    },
}

impl Delta {
    /// Decouple a captured statement delta from `g`'s interner.
    pub fn from_ops(ops: &[DeltaOp], g: &PropertyGraph) -> Vec<Delta> {
        let s = |sym: Symbol| g.sym_str(sym).to_owned();
        let owned = |props: &[(Symbol, Value)]| -> Vec<(String, Value)> {
            props.iter().map(|(k, v)| (s(*k), v.clone())).collect()
        };
        ops.iter()
            .map(|op| match op {
                DeltaOp::CreateNode { id, labels, props } => Delta::CreateNode {
                    id: id.0,
                    labels: labels.iter().map(|&l| s(l)).collect(),
                    props: owned(props),
                },
                DeltaOp::CreateRel {
                    id,
                    src,
                    tgt,
                    rel_type,
                    props,
                } => Delta::CreateRel {
                    id: id.0,
                    src: src.0,
                    tgt: tgt.0,
                    rel_type: s(*rel_type),
                    props: owned(props),
                },
                DeltaOp::DeleteRel { id } => Delta::DeleteRel { id: id.0 },
                DeltaOp::DeleteNode { id } => Delta::DeleteNode { id: id.0 },
                DeltaOp::AddLabel { node, label } => Delta::AddLabel {
                    node: node.0,
                    label: s(*label),
                },
                DeltaOp::RemoveLabel { node, label } => Delta::RemoveLabel {
                    node: node.0,
                    label: s(*label),
                },
                DeltaOp::SetProp { entity, key, value } => Delta::SetProp {
                    entity: *entity,
                    key: s(*key),
                    value: value.clone(),
                },
            })
            .collect()
    }
}

/// Replay one committed op against `g`: explicit ids, symbols interned on
/// the fly, through the same primitive mutation APIs the live engine uses,
/// so a replayed graph is bit-for-bit the committed graph — ids, adjacency
/// order, tombstones and all. Any failure means the delta stream and the
/// target graph disagree (corruption, not a recoverable condition).
///
/// Returns the ids of the relationships a force `DeleteNode` detached from
/// their endpoint and left dangling — empty for every other op, and for
/// revised-dialect deltas (which always emit their `DeleteRel`s explicitly
/// first); a legacy engine's mid-statement delete of a still-connected
/// node is the one case where a relationship loses an endpoint before its
/// own delta op arrives.
///
/// Deletes, label and property changes go through the journaled paths; a
/// caller that replays a whole stream takes a savepoint first and commits
/// it afterwards — replay is not undoable.
pub fn apply_delta(g: &mut PropertyGraph, op: &Delta) -> Result<Vec<u64>, String> {
    match op {
        Delta::CreateNode { id, labels, props } => {
            if g.contains_node(NodeId(*id)) {
                return Err(format!("node {id} already exists"));
            }
            let mut data = NodeData::default();
            for l in labels {
                let s = g.sym(l);
                data.labels.insert(s);
            }
            for (k, v) in props {
                let s = g.sym(k);
                data.props.insert(s, v.clone());
            }
            g.restore_node(NodeId(*id), data);
        }
        Delta::CreateRel {
            id,
            src,
            tgt,
            rel_type,
            props,
        } => {
            if g.contains_rel(RelId(*id)) {
                return Err(format!("relationship {id} already exists"));
            }
            let rel_type = g.sym(rel_type);
            let mut map = PropertyMap::new();
            for (k, v) in props {
                let s = g.sym(k);
                map.insert(s, v.clone());
            }
            g.restore_rel(
                RelId(*id),
                RelData {
                    src: NodeId(*src),
                    tgt: NodeId(*tgt),
                    rel_type,
                    props: map,
                },
            )
            .map_err(|e| e.to_string())?;
        }
        Delta::DeleteRel { id } => {
            g.delete_rel(RelId(*id)).map_err(|e| e.to_string())?;
        }
        Delta::DeleteNode { id } => {
            // Force reproduces legacy mid-statement deletes, which leave the
            // node's relationships stored but dangling until their own
            // `DeleteRel` arrives; a revised delta has none left here.
            let node = NodeId(*id);
            let dangling = g.rels_iter(node, Direction::Either).map(|r| r.0).collect();
            g.delete_node(node, DeleteNodeMode::Force)
                .map_err(|e| e.to_string())?;
            return Ok(dangling);
        }
        Delta::AddLabel { node, label } => {
            let l = g.sym(label);
            g.add_label(NodeId(*node), l).map_err(|e| e.to_string())?;
        }
        Delta::RemoveLabel { node, label } => {
            let l = g.sym(label);
            g.remove_label(NodeId(*node), l)
                .map_err(|e| e.to_string())?;
        }
        Delta::SetProp { entity, key, value } => {
            let k = g.sym(key);
            let v = value.clone().unwrap_or(Value::Null);
            g.set_prop(*entity, k, v).map_err(|e| e.to_string())?;
        }
    }
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmt::dump;

    /// Everything replay promises to reproduce, with symbols resolved (the
    /// two graphs intern in different orders): entities and properties,
    /// per-node adjacency order, tombstones and the id allocators.
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

    /// Replay `g`'s pending delta on `replica`, asserting the two graphs
    /// are identical afterwards; returns what each op's replay returned.
    fn replay(g: &mut PropertyGraph, replica: &mut PropertyGraph) -> Vec<Vec<u64>> {
        let ops = Delta::from_ops(&g.take_delta(), g);
        let root = replica.savepoint();
        let returned = ops
            .iter()
            .map(|op| apply_delta(replica, op).unwrap())
            .collect();
        replica.commit(root);
        assert_eq!(fingerprint(replica), fingerprint(g));
        returned
    }

    #[test]
    fn replaying_the_captured_delta_reproduces_the_graph() {
        let mut g = PropertyGraph::new();
        g.enable_delta_capture();
        let mut replica = PropertyGraph::new();
        // Skew the replica's interner so symbols differ between the two.
        replica.sym("zzz");

        let (user, vendor, knows) = (g.sym("User"), g.sym("Vendor"), g.sym("KNOWS"));
        let (name, w) = (g.sym("name"), g.sym("w"));

        // CreateNode, CreateRel (one a self-loop), AddLabel, SetProp.
        let sp = g.savepoint();
        let a = g.create_node([user], [(name, Value::Str("a".into()))]);
        let b = g.create_node([user, vendor], []);
        let c = g.create_node(
            [],
            [(w, Value::List(vec![Value::Int(1), Value::Float(0.5)]))],
        );
        let ab = g.create_rel(a, knows, b, [(w, Value::Int(1))]).unwrap();
        let ba = g.create_rel(b, knows, a, []).unwrap();
        let aa = g.create_rel(a, knows, a, []).unwrap();
        let bc = g.create_rel(b, knows, c, []).unwrap();
        g.add_label(c, vendor).unwrap();
        g.set_prop(EntityRef::Rel(ba), w, Value::Bool(true))
            .unwrap();
        g.commit(sp);
        assert!(replay(&mut g, &mut replica).iter().all(Vec::is_empty));

        // RemoveLabel, SetProp removing a key, DeleteRel, and a rolled-back
        // tail that must leave no trace in the delta.
        let sp = g.savepoint();
        g.remove_label(b, vendor).unwrap();
        g.set_prop(EntityRef::Node(a), name, Value::Null).unwrap();
        g.delete_rel(aa).unwrap();
        let inner = g.savepoint();
        g.create_node([vendor], []);
        g.rollback_to(inner);
        g.commit(sp);
        assert!(replay(&mut g, &mut replica).iter().all(Vec::is_empty));

        // Revised DETACH DELETE: every DeleteRel precedes the DeleteNode, so
        // the node replay detaches nothing itself.
        let sp = g.savepoint();
        g.delete_node(c, DeleteNodeMode::Detach).unwrap();
        g.commit(sp);
        assert_eq!(replay(&mut g, &mut replica), vec![vec![], vec![]]);
        assert!(!replica.contains_rel(bc));

        // Legacy mid-statement order: the node goes first and leaves its
        // relationships dangling until their own DeleteRel ops arrive.
        let sp = g.savepoint();
        g.delete_node(a, DeleteNodeMode::Force).unwrap();
        g.delete_rel(ab).unwrap();
        g.delete_rel(ba).unwrap();
        g.commit(sp);
        assert_eq!(
            replay(&mut g, &mut replica),
            vec![vec![ab.0, ba.0], vec![], vec![]]
        );
        assert_eq!(replica.node_count(), 1);
        assert_eq!(replica.rel_count(), 0);
    }

    #[test]
    fn a_delta_the_graph_cannot_take_is_an_error() {
        let mut g = PropertyGraph::new();
        let create = Delta::CreateNode {
            id: 0,
            labels: vec![],
            props: vec![],
        };
        apply_delta(&mut g, &create).unwrap();
        assert!(apply_delta(&mut g, &create).is_err(), "duplicate node id");
        for bad in [
            Delta::DeleteNode { id: 7 },
            Delta::DeleteRel { id: 7 },
            Delta::CreateRel {
                id: 0,
                src: 0,
                tgt: 7,
                rel_type: "T".into(),
                props: vec![],
            },
            Delta::AddLabel {
                node: 7,
                label: "L".into(),
            },
            Delta::SetProp {
                entity: EntityRef::Rel(RelId(7)),
                key: "k".into(),
                value: None,
            },
        ] {
            assert!(apply_delta(&mut g, &bad).is_err(), "{bad:?}");
        }
    }
}
