//! Crash recovery: snapshot + committed WAL suffix → graph.
//!
//! Opening a storage directory means:
//!
//! 1. load `snapshot.bin` if it exists (else start from an empty graph),
//! 2. scan `wal.bin` for fully-committed units (torn tails are located,
//!    not trusted — see [`crate::wal::scan`]),
//! 3. replay, in log order, every unit whose txid is *newer* than the
//!    snapshot's `covered_txid` — the txid guard makes the checkpoint
//!    sequence (write snapshot, then truncate WAL) crash-safe: if the
//!    crash lands between those two steps, the stale WAL units are simply
//!    skipped instead of being applied twice,
//! 4. report the commit horizon so the caller can truncate the torn tail
//!    before appending.
//!
//! Replay is [`cypher_graph::apply_delta`], the one replay path every delta
//! consumer shares: it drives the same primitive mutation APIs the live
//! engine uses, so a replayed graph is bit-for-bit the committed graph —
//! ids, adjacency order, tombstones and all.

use std::io;
use std::path::Path;

use cypher_graph::{apply_delta, PropertyGraph};

use crate::fs::{RealFs, StorageFs};
use crate::record::Record;
use crate::{snapshot, wal};

pub const SNAPSHOT_FILE: &str = "snapshot.bin";
pub const WAL_FILE: &str = "wal.bin";

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Outcome of recovery.
#[derive(Debug)]
pub struct Recovered {
    /// The last committed state.
    pub graph: PropertyGraph,
    /// Highest transaction id seen (snapshot or WAL); 0 if none.
    pub last_txid: u64,
    /// Commit horizon of the WAL file — pass to
    /// [`Wal::open_append`](crate::wal::Wal::open_append). `None` when no
    /// WAL file exists yet; less than the header length when the file is a
    /// torn header (`open_append` recreates the log in that case).
    pub wal_committed_len: Option<u64>,
    /// Number of WAL units replayed (diagnostics).
    pub replayed: usize,
    /// Torn-tail diagnostic from the WAL scan, if any.
    pub torn: Option<String>,
    /// `covered_txid` of the snapshot this recovery started from (0 when
    /// there was no snapshot). Units at or below this horizon have been
    /// folded into the snapshot and their statement text is gone.
    pub covered_txid: u64,
    /// Statement texts recovered from [`Record::Stmt`] records in replayed
    /// units, as `(txid, dialect, text)`, in log order. This is the
    /// still-shippable suffix of the commit log: everything newer than the
    /// last checkpoint.
    pub statements: Vec<(u64, u8, String)>,
}

/// Recover the last committed graph from `dir` via the real filesystem.
pub fn recover(dir: &Path) -> io::Result<Recovered> {
    recover_with(&RealFs, dir)
}

/// Recover the last committed graph from `dir` through an arbitrary
/// [`StorageFs`] (fault injection drives this entry point).
pub fn recover_with(fs: &dyn StorageFs, dir: &Path) -> io::Result<Recovered> {
    let snap_path = dir.join(SNAPSHOT_FILE);
    let wal_path = dir.join(WAL_FILE);

    let (mut graph, covered_txid) = if fs.exists(&snap_path) {
        let loaded = snapshot::load(fs, &snap_path)?;
        (loaded.graph, loaded.covered_txid)
    } else {
        (PropertyGraph::new(), 0)
    };
    // Replay goes through the normal (journaled) mutation paths; taking the
    // root savepoint now lets us discard those undo entries at the end —
    // recovery is not undoable.
    let root = graph.savepoint();

    let mut last_txid = covered_txid;
    let mut replayed = 0;
    let mut wal_committed_len = None;
    let mut torn = None;
    let mut statements = Vec::new();
    if fs.exists(&wal_path) {
        let scan = wal::scan(fs, &wal_path)?;
        for (txid, records) in scan.units {
            if txid <= covered_txid {
                continue; // already folded into the snapshot
            }
            for record in records {
                match record {
                    // Statement provenance, not state: the mutation records
                    // that follow are authoritative for replay.
                    Record::Stmt { dialect, text } => statements.push((txid, dialect, text)),
                    // Any failure is corruption: committed units replay
                    // against exactly the state they were produced in, so a
                    // mutation the graph rejects means the log and snapshot
                    // disagree.
                    Record::Op(op) => {
                        apply_delta(&mut graph, &op)
                            .map_err(|e| corrupt(format!("replaying txn {txid}: {e}")))?;
                    }
                    Record::Begin { .. } | Record::Commit { .. } => {
                        return Err(corrupt(format!(
                            "replaying txn {txid}: boundary marker inside a unit"
                        )));
                    }
                }
            }
            last_txid = txid;
            replayed += 1;
        }
        wal_committed_len = Some(scan.committed_len);
        torn = scan.torn;
    }

    graph.commit(root);

    Ok(Recovered {
        graph,
        last_txid,
        wal_committed_len,
        replayed,
        torn,
        covered_txid,
        statements,
    })
}
