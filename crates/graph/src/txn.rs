//! RAII statement transactions.
//!
//! Cypher statements are atomic at the *statement* level even in Cypher 9:
//! a failing clause aborts the whole statement and the database is left
//! unchanged. [`Transaction`] wraps a [`PropertyGraph`] savepoint so engines
//! can execute a statement, and either:
//!
//! * [`Transaction::commit`] — run the integrity check (no dangling
//!   relationships, §2) and make the changes permanent, or
//! * [`Transaction::rollback`] / drop — restore the pre-statement state.
//!
//! The legacy engine relies on the *force-delete* path leaving the graph
//! illegal mid-statement; the integrity check at commit is what turns the
//! §4.2 anomaly into a commit-time failure when the statement ends in an
//! illegal state.

use std::ops::{Deref, DerefMut};

use crate::error::Result;
use crate::graph::{PropertyGraph, Savepoint};

/// An open statement transaction. Rolls back on drop unless committed.
#[derive(Debug)]
pub struct Transaction<'g> {
    graph: &'g mut PropertyGraph,
    sp: Savepoint,
    finished: bool,
}

impl<'g> Transaction<'g> {
    /// Open a transaction at the current graph state.
    pub fn begin(graph: &'g mut PropertyGraph) -> Self {
        let sp = graph.savepoint();
        Transaction {
            graph,
            sp,
            finished: false,
        }
    }

    /// Validate and commit. If the graph violates the no-dangling invariant
    /// the transaction rolls back and the violation is returned.
    pub fn commit(mut self) -> Result<()> {
        match self.graph.integrity_check() {
            Ok(()) => {
                self.graph.commit(self.sp);
                self.finished = true;
                Ok(())
            }
            Err(e) => {
                self.graph.rollback_to(self.sp);
                self.finished = true;
                Err(e)
            }
        }
    }

    /// Explicitly roll back.
    pub fn rollback(mut self) {
        self.graph.rollback_to(self.sp);
        self.finished = true;
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.graph.rollback_to(self.sp);
        }
    }
}

impl Deref for Transaction<'_> {
    type Target = PropertyGraph;
    fn deref(&self) -> &PropertyGraph {
        self.graph
    }
}

impl DerefMut for Transaction<'_> {
    fn deref_mut(&mut self) -> &mut PropertyGraph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GraphError;
    use crate::graph::DeleteNodeMode;
    use crate::value::Value;

    #[test]
    fn committed_changes_persist() {
        let mut g = PropertyGraph::new();
        {
            let mut tx = Transaction::begin(&mut g);
            let k = tx.sym("id");
            tx.create_node([], [(k, Value::Int(1))]);
            tx.commit().unwrap();
        }
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.journal_len(), 0);
    }

    #[test]
    fn dropped_transaction_rolls_back() {
        let mut g = PropertyGraph::new();
        {
            let mut tx = Transaction::begin(&mut g);
            tx.create_node([], []);
            // dropped without commit
        }
        assert_eq!(g.node_count(), 0);
    }

    #[test]
    fn commit_fails_and_rolls_back_on_dangling() {
        let mut g = PropertyGraph::new();
        let t = g.sym("ORDERED");
        let a = g.create_node([], []);
        let b = g.create_node([], []);
        g.create_rel(a, t, b, []).unwrap();
        g.commit(g.savepoint()); // not a root commit; just exercise the API

        let tx_result = {
            let mut tx = Transaction::begin(&mut g);
            tx.delete_node(a, DeleteNodeMode::Force).unwrap();
            assert!(tx.integrity_check().is_err());
            tx.commit()
        };
        assert!(matches!(
            tx_result,
            Err(GraphError::DanglingRelationships(_))
        ));
        // Rolled back: node `a` is live again.
        assert!(g.contains_node(a));
        g.integrity_check().unwrap();
    }

    #[test]
    fn explicit_rollback() {
        let mut g = PropertyGraph::new();
        let n = g.create_node([], []);
        let tx = {
            let mut tx = Transaction::begin(&mut g);
            tx.delete_node(n, DeleteNodeMode::Strict).unwrap();
            tx
        };
        tx.rollback();
        assert!(g.contains_node(n));
    }
}
