//! [`DurableGraph`] — a property graph with crash-safe persistence.
//!
//! ## Commit → fsync ordering contract
//!
//! In-memory statement atomicity is owned by the engine/transaction layer:
//! a failing statement rolls back before [`DurableGraph::apply`] sees the
//! error, so its mutations never reach the log. What `apply` adds is the
//! durability boundary: after the closure succeeds, the net mutation delta
//! is framed as one `Begin…Commit` unit, appended to the WAL with a single
//! write, and **fsynced before `apply` returns**. A result observed by the
//! caller therefore survives any later crash; a crash before the fsync
//! completes loses at most the in-flight unit, never a prefix of it (the
//! recovery scan discards units without their `Commit` frame).
//!
//! ## Seal semantics
//!
//! If the WAL append itself fails (fsync failure, short write, `ENOSPC`),
//! memory is ahead of the log and the two can no longer be reconciled by
//! appending; the handle **seals** itself read-only. A sealed handle:
//!
//! * rejects [`apply`](DurableGraph::apply) with the typed
//!   [`StorageError::Sealed`] — no silent divergence, ever;
//! * still serves reads via [`graph`](DurableGraph::graph);
//! * still accepts [`checkpoint`](DurableGraph::checkpoint) (and the
//!   bounded-retry [`checkpoint_with_retry`](DurableGraph::checkpoint_with_retry)):
//!   a snapshot captures the *current* in-memory state — including the
//!   delta the WAL refused — atomically, so a successful checkpoint
//!   re-establishes the memory-equals-disk invariant and **unseals** the
//!   handle.
//!
//! A failed *snapshot* write does not seal: nothing durable changed, the
//! previous snapshot and the WAL are intact, and the operation can simply
//! be retried. A failed WAL truncation after a successful snapshot does
//! seal — the handle's append cursor can no longer be trusted — but the
//! next checkpoint attempt (or a reopen) reconciles via the snapshot's
//! covered-txid guard.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use cypher_graph::{Delta, DeltaOp, PropertyGraph};

use crate::error::StorageError;
use crate::fs::{RealFs, StorageFs};
use crate::recover::{recover_with, SNAPSHOT_FILE, WAL_FILE};
use crate::wal::{SyncTicket, Wal};

/// Durable fence marker: its presence means this data directory was the
/// primary of a replication group that failed over, and must never ack
/// another write.
///
/// Contents, line-oriented UTF-8:
///
/// ```text
/// epoch=<u64>          (optional first line: the epoch the fencer rules in)
/// <new-primary addr>   (may be empty/absent when unknown)
/// ```
///
/// The original format was the bare address; readers accept both, so a
/// directory fenced by an older build still restarts fenced.
pub const FENCE_FILE: &str = "fence.bin";

/// A [`PropertyGraph`] bound to a storage directory (`snapshot.bin` +
/// `wal.bin`), with write-ahead logging of every committed mutation.
#[derive(Debug)]
pub struct DurableGraph {
    dir: PathBuf,
    graph: PropertyGraph,
    wal: Wal,
    next_txid: u64,
    fs: Arc<dyn StorageFs>,
    /// `Some(reason)` once a commit-unit failure sealed the handle.
    sealed: Option<String>,
    /// `Some(new_primary)` once a failover fenced this directory. Unlike a
    /// seal, a fence is durable (a marker file) and permanent — no
    /// checkpoint clears it.
    fenced: Option<Option<String>>,
    /// The epoch the fencer ruled in (0 when unfenced, or when fenced by a
    /// build that predates epochs). A fenced ex-primary's own epoch is by
    /// construction lower.
    fence_epoch: u64,
    /// `covered_txid` of the snapshot recovery started from.
    recovered_base: u64,
    /// `(txid, dialect, text)` statements recovered from the WAL, i.e. the
    /// still-shippable commit-log suffix since the last checkpoint.
    recovered_stmts: Vec<(u64, u8, String)>,
    /// The delta of the most recent [`apply_buffered_logged`] call, moved
    /// out of the graph once logged so downstream consumers (the
    /// incremental view maintainer) can take it. Empty when the last
    /// statement was read-only or rolled back.
    last_delta: Vec<DeltaOp>,
}

impl DurableGraph {
    /// Open (or create) a storage directory on the real filesystem,
    /// recovering the last committed state: load the snapshot, replay
    /// committed WAL units, truncate any torn tail, and enable delta
    /// capture for future mutations.
    pub fn open(dir: &Path) -> Result<DurableGraph, StorageError> {
        DurableGraph::open_with(RealFs::arc(), dir)
    }

    /// [`open`](DurableGraph::open) through an arbitrary [`StorageFs`] —
    /// the fault-injection entry point.
    pub fn open_with(fs: Arc<dyn StorageFs>, dir: &Path) -> Result<DurableGraph, StorageError> {
        fs.create_dir_all(dir)?;
        let (fenced, fence_epoch) = read_fence(fs.as_ref(), dir)?;
        let rec = recover_with(fs.as_ref(), dir)?;
        let wal_path = dir.join(WAL_FILE);
        let wal = match rec.wal_committed_len {
            Some(committed) => Wal::open_append(fs.as_ref(), &wal_path, committed)?,
            None => Wal::create(fs.as_ref(), &wal_path)?,
        };
        let mut graph = rec.graph;
        graph.enable_delta_capture();
        Ok(DurableGraph {
            dir: dir.to_owned(),
            graph,
            wal,
            next_txid: rec.last_txid + 1,
            fs,
            sealed: None,
            fenced,
            fence_epoch,
            recovered_base: rec.covered_txid,
            recovered_stmts: rec.statements,
            last_delta: Vec::new(),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Read-only view of the graph. Always available, sealed or not.
    pub fn graph(&self) -> &PropertyGraph {
        &self.graph
    }

    /// Number of committed units this handle has appended (diagnostics).
    pub fn next_txid(&self) -> u64 {
        self.next_txid
    }

    /// Is the handle sealed read-only after a commit-unit failure?
    pub fn is_sealed(&self) -> bool {
        self.sealed.is_some()
    }

    /// Why the handle sealed, if it did.
    pub fn seal_reason(&self) -> Option<&str> {
        self.sealed.as_deref()
    }

    fn seal(&mut self, reason: impl Into<String>) {
        if self.sealed.is_none() {
            self.sealed = Some(reason.into());
        }
    }

    fn check_sealed(&self) -> Result<(), StorageError> {
        self.check_fenced()?;
        match &self.sealed {
            Some(reason) => Err(StorageError::Sealed {
                reason: reason.clone(),
            }),
            None => Ok(()),
        }
    }

    fn check_fenced(&self) -> Result<(), StorageError> {
        match &self.fenced {
            Some(new_primary) => Err(StorageError::Fenced {
                new_primary: new_primary.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Is the handle fenced after a failover?
    pub fn is_fenced(&self) -> bool {
        self.fenced.is_some()
    }

    /// Address of the promoted primary, when the fencer supplied one.
    pub fn fence_target(&self) -> Option<&str> {
        self.fenced.as_ref().and_then(|t| t.as_deref())
    }

    /// The epoch this directory was fenced in (0 when unfenced or fenced
    /// without one). Any primary that restarts over this directory served
    /// a strictly lower epoch.
    pub fn fence_epoch(&self) -> u64 {
        self.fence_epoch
    }

    /// Fence this data directory: refuse every future write, durably.
    /// `epoch` is the election epoch the fencer rules in (0 = unknown).
    ///
    /// The in-memory fence takes effect *before* the marker file is
    /// staged, so even if persisting the marker fails (the error is
    /// returned) this handle can no longer ack a write; only the
    /// restart-survives-fencing guarantee is weakened in that case.
    /// Idempotent; a later fence may add a `new_primary` or raise the
    /// epoch a first one lacked, but never clears either.
    pub fn fence(&mut self, new_primary: Option<&str>, epoch: u64) -> Result<(), StorageError> {
        match &mut self.fenced {
            Some(existing) => {
                if existing.is_none() {
                    *existing = new_primary.map(str::to_owned);
                }
            }
            None => self.fenced = Some(new_primary.map(str::to_owned)),
        }
        self.fence_epoch = self.fence_epoch.max(epoch);
        let target = self.fence_target().map(str::to_owned);
        let path = self.dir.join(FENCE_FILE);
        let mut f = self.fs.create(&path)?;
        let mut contents = format!("epoch={}\n", self.fence_epoch);
        contents.push_str(target.as_deref().unwrap_or(""));
        f.write_all(contents.as_bytes())?;
        f.sync_data()?;
        let _ = self.fs.sync_dir(&self.dir);
        Ok(())
    }

    /// Run a mutation (typically one engine statement) against the graph
    /// and make its effects durable.
    ///
    /// The closure must leave the graph at a statement boundary — every
    /// engine entry point does: it either commits its transaction or rolls
    /// it back. Whatever net delta remains afterwards (empty when the
    /// statement failed and rolled back) is appended to the WAL as one
    /// commit unit and fsynced. The outer `Result` is the storage layer's;
    /// the inner one is the closure's own outcome, returned verbatim.
    ///
    /// If the append fails, the handle seals (see the module docs) and the
    /// outer error reports the I/O failure; every subsequent `apply`
    /// returns [`StorageError::Sealed`] until a checkpoint reconciles.
    pub fn apply<T, E>(
        &mut self,
        f: impl FnOnce(&mut PropertyGraph) -> Result<T, E>,
    ) -> Result<Result<T, E>, StorageError> {
        let out = self.apply_buffered(f)?;
        self.flush()?;
        Ok(out)
    }

    /// [`apply`](DurableGraph::apply) without the trailing fsync — the
    /// **group-commit** fast path. The statement's commit unit is written
    /// to the WAL but sits in the un-synced window until the next
    /// successful [`flush`](DurableGraph::flush); the caller must not
    /// acknowledge the statement to anyone before that flush returns `Ok`.
    ///
    /// A server's apply queue uses this to amortize one fsync over a batch
    /// of statements: run each through `apply_buffered`, `flush` once, then
    /// acknowledge the whole batch.
    pub fn apply_buffered<T, E>(
        &mut self,
        f: impl FnOnce(&mut PropertyGraph) -> Result<T, E>,
    ) -> Result<Result<T, E>, StorageError> {
        Ok(self.apply_buffered_logged(None, f)?.0)
    }

    /// [`apply_buffered`](DurableGraph::apply_buffered) with statement
    /// provenance: when `stmt` is `Some((dialect, text))` and the closure
    /// produced a non-empty delta, a [`Record::Stmt`](crate::Record::Stmt)
    /// carrying the source statement is written as the unit's first record
    /// — same unit, same single fsync at the next flush. Replication ships
    /// these recovered statements; state replay skips them.
    ///
    /// Also reports the txid the unit was appended under (`None` when the
    /// delta was empty and nothing was logged) — the sequence number a
    /// replication hub publishes for this commit.
    pub fn apply_buffered_logged<T, E>(
        &mut self,
        stmt: Option<(u8, &str)>,
        f: impl FnOnce(&mut PropertyGraph) -> Result<T, E>,
    ) -> Result<(Result<T, E>, Option<u64>), StorageError> {
        self.check_sealed()?;
        debug_assert_eq!(
            self.graph.journal_len(),
            0,
            "apply must start at a statement boundary"
        );
        self.last_delta.clear();
        let out = f(&mut self.graph);
        if self.graph.journal_len() != 0 {
            // The closure left an open transaction; durability cannot be
            // defined for half a statement.
            self.seal("a mutation closure left an uncommitted transaction");
            return Err(StorageError::Io(std::io::Error::other(
                "closure left an uncommitted transaction",
            )));
        }
        let mut logged = None;
        let ops = self.graph.take_delta();
        if !ops.is_empty() {
            let txid = self.next_txid;
            let unit = Delta::from_ops(&ops, &self.graph);
            if let Err(e) = self.wal.append_commit_unit_buffered(txid, stmt, &unit) {
                // Memory is ahead of the log — and the failed write rolled
                // the file back to the durable horizon, discarding every
                // pending unit of the batch with it. Seal: the snapshot
                // taken by the next checkpoint reconciles all of it.
                self.seal(format!("WAL append for txn {txid} failed: {e}"));
                return Err(StorageError::Io(e));
            }
            self.next_txid += 1;
            self.last_delta = ops;
            logged = Some(txid);
        }
        Ok((out, logged))
    }

    /// Take the committed delta of the most recent
    /// [`apply_buffered_logged`](DurableGraph::apply_buffered_logged) call
    /// (empty when that statement was read-only, rolled back, or the delta
    /// was already taken). The ops are in exact execution order — the same
    /// order the WAL logged them in — which is the replay contract the
    /// incremental view maintainer depends on (DESIGN.md §15).
    pub fn take_last_delta(&mut self) -> Vec<DeltaOp> {
        std::mem::take(&mut self.last_delta)
    }

    /// Fsync the group-commit window opened by
    /// [`apply_buffered`](DurableGraph::apply_buffered). On success every
    /// buffered statement of the batch is durable. On failure **none** of
    /// them is: the WAL is rolled back to the durable horizon, memory is
    /// ahead of the log, and the handle seals (checkpoint reconciles, as
    /// for any commit-unit failure). A no-op when nothing is pending.
    ///
    /// Errors with [`StorageError::Sealed`] when an earlier append already
    /// sealed the handle: that append's rollback discarded **every**
    /// pending unit of the batch, so the window being empty means the
    /// batch was lost, not that it is durable — the caller must not
    /// acknowledge any statement buffered before the seal.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.check_sealed()?;
        if let Err(e) = self.wal.sync() {
            self.seal(format!("WAL group-commit fsync failed: {e}"));
            return Err(StorageError::Io(e));
        }
        Ok(())
    }

    /// First half of a **pipelined** [`flush`](DurableGraph::flush): stage
    /// the group-commit window for an off-thread fsync. The returned
    /// [`SyncTicket`]'s [`sync`](SyncTicket::sync) runs elsewhere
    /// (overlapping the next batch's
    /// [`apply_buffered`](DurableGraph::apply_buffered) calls on this
    /// handle); its outcome comes back through
    /// [`complete_flush`](DurableGraph::complete_flush). Returns `None`
    /// when the window is empty — nothing to sync, the flush is trivially
    /// complete.
    ///
    /// Fails with [`StorageError::Sealed`] exactly as `flush` does when an
    /// earlier append already sealed the handle (the emptied window means
    /// the batch was discarded, not durable). Failing to obtain the second
    /// file handle also seals: the batch cannot be proven durable.
    pub fn stage_flush(&mut self) -> Result<Option<SyncTicket>, StorageError> {
        self.check_sealed()?;
        if self.wal.pending() == 0 {
            return Ok(None);
        }
        match self.wal.stage_sync() {
            Ok(ticket) => Ok(Some(ticket)),
            Err(e) => {
                self.seal(format!("WAL group-commit stage failed: {e}"));
                Err(StorageError::Io(e))
            }
        }
    }

    /// Second half of a pipelined flush: record the staged fsync's
    /// outcome. `Ok` makes every statement of the staged batch durable —
    /// even on a handle sealed *after* the stage by a later batch's append
    /// failure, because the staged bytes were already in the file below
    /// the failure. `Err` rolls the WAL back to the durable horizon —
    /// discarding the staged batch **and** any units buffered since — and
    /// seals; the caller must [`reopen`](DurableGraph::reopen) (or
    /// checkpoint) to reconcile, and must not acknowledge anything
    /// buffered after the failed stage either.
    pub fn complete_flush(&mut self, outcome: std::io::Result<()>) -> Result<(), StorageError> {
        if let Err(e) = self.wal.complete_sync(outcome) {
            self.seal(format!("WAL group-commit fsync failed: {e}"));
            return Err(StorageError::Io(e));
        }
        Ok(())
    }

    /// Statements buffered but not yet durable (diagnostics for the apply
    /// queue: non-zero between `apply_buffered` and `flush`).
    pub fn pending_bytes(&self) -> u64 {
        self.wal.pending()
    }

    /// Write a full snapshot and truncate the WAL.
    ///
    /// Ordering makes this crash-safe at every point: the snapshot is
    /// written atomically (temp file + rename) and records the txid horizon
    /// it covers *before* the WAL is reset; a crash in between leaves both
    /// a complete snapshot and a WAL whose units are all ≤ the horizon,
    /// which recovery skips via the txid guard.
    ///
    /// Unlike [`apply`](DurableGraph::apply), a checkpoint is attemptable
    /// on a **sealed** handle — it is the reconciliation path: on success
    /// the snapshot has absorbed everything in memory (including any delta
    /// the WAL refused), so the handle unseals.
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        if self.graph.journal_len() != 0 {
            return Err(StorageError::Io(std::io::Error::other(
                "cannot checkpoint mid-statement (open transaction)",
            )));
        }
        let covered = self.next_txid - 1;
        crate::snapshot::write(
            self.fs.as_ref(),
            &self.graph,
            &self.dir.join(SNAPSHOT_FILE),
            covered,
        )?;
        // The snapshot is durable and self-contained from here on. A WAL
        // truncation failure leaves an untrustworthy append cursor, so it
        // seals; recovery (and the next checkpoint attempt) stay correct
        // via the covered-txid guard.
        if let Err(e) = self.wal.reset() {
            self.seal(format!("WAL truncation after checkpoint failed: {e}"));
            return Err(StorageError::Io(e));
        }
        if self.sealed.take().is_some() {
            // The snapshot folded in whatever delta a panic left unlogged.
            self.graph.take_delta();
        }
        Ok(())
    }

    /// [`checkpoint`](DurableGraph::checkpoint) with bounded retry and
    /// exponential backoff, for transient errors (`ENOSPC` after space is
    /// reclaimed, intermittent fsync failures). Tries up to `attempts`
    /// times, sleeping `backoff`, `2×backoff`, … between tries. Returns the
    /// last error if every attempt fails.
    pub fn checkpoint_with_retry(
        &mut self,
        attempts: u32,
        backoff: Duration,
    ) -> Result<(), StorageError> {
        let mut wait = backoff;
        let mut last = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(wait);
                wait = wait.saturating_mul(2);
            }
            match self.checkpoint() {
                Ok(()) => return Ok(()),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            StorageError::Io(std::io::Error::other(
                "checkpoint retry loop ran zero attempts",
            ))
        }))
    }

    /// Re-establish the statement-boundary invariants after a panic
    /// unwound through a mutation closure.
    ///
    /// The engine's transaction RAII already rolls back the in-memory
    /// mutations (unwinding pops their journal entries before any reach
    /// the delta), so in the common case this is a no-op. If the panic
    /// struck outside a transaction scope and left residue behind, the
    /// graph is rolled back to the last statement boundary; if a
    /// root-committed but un-logged delta remains even so, the handle
    /// seals — a checkpoint then reconciles, exactly as for a failed
    /// append.
    pub fn reconcile_after_panic(&mut self) {
        if self.graph.journal_len() != 0 {
            self.graph.rollback_all();
        }
        if !self.graph.delta().is_empty() {
            self.seal("a panic left uncommitted changes in memory");
        }
    }

    /// Checkpoint and consume the handle, returning the in-memory graph
    /// (with delta capture switched off). The directory then holds a fresh
    /// snapshot and an empty log — the cheapest possible next `open`.
    ///
    /// Works on a sealed handle too (the checkpoint is the reconciliation).
    pub fn close(mut self) -> Result<PropertyGraph, StorageError> {
        self.checkpoint()?;
        self.graph.disable_delta_capture();
        Ok(self.graph)
    }

    /// `covered_txid` of the snapshot this handle recovered from: units at
    /// or below it have no recoverable statement text.
    pub fn recovered_base(&self) -> u64 {
        self.recovered_base
    }

    /// Take the `(txid, dialect, text)` statements recovered from the WAL
    /// (the commit-log suffix since the last checkpoint). A server's apply
    /// worker seeds its in-memory statement mirror from this once.
    pub fn take_recovered_statements(&mut self) -> Vec<(u64, u8, String)> {
        std::mem::take(&mut self.recovered_stmts)
    }

    /// Discard in-memory state and re-run recovery from disk, rolling the
    /// graph back to the durable horizon.
    ///
    /// This is the replication-safe alternative to seal-then-checkpoint: a
    /// checkpoint on a sealed handle folds never-logged (and therefore
    /// never-shipped) mutations into the snapshot, silently diverging any
    /// replica. Reopening instead forgets exactly the units that were
    /// never acked and never shipped. On failure the handle stays sealed
    /// and keeps refusing writes. A fence always survives (it is re-read
    /// from its marker file).
    pub fn reopen(&mut self) -> Result<(), StorageError> {
        let fresh = DurableGraph::open_with(Arc::clone(&self.fs), &self.dir)?;
        *self = fresh;
        Ok(())
    }

    /// Complete snapshot-file bytes of the current graph, covering every
    /// unit this handle has committed — the bootstrap payload shipped to a
    /// replica too far behind for log catch-up. Returns `(covered_txid,
    /// bytes)`.
    pub fn encode_snapshot_bytes(&self) -> Result<(u64, Vec<u8>), StorageError> {
        let covered = self.next_txid - 1;
        let bytes = crate::snapshot::encode_bytes(&self.graph, covered)?;
        Ok((covered, bytes))
    }

    /// Replace this handle's entire state with a shipped snapshot payload
    /// (see [`encode_snapshot_bytes`](DurableGraph::encode_snapshot_bytes)).
    ///
    /// The payload is decoded (strict CRC) *before* anything durable
    /// changes; it is then staged to `snapshot.bin` with the atomic
    /// checkpoint sequence and the WAL is truncated, so a crash at any
    /// point recovers either the old state or the new one, never a blend.
    /// Clears a seal (the installed state is self-contained); refused on a
    /// fenced handle. Returns the snapshot's `covered_txid` — the sequence
    /// number tailing resumes from.
    pub fn install_snapshot(&mut self, bytes: &[u8]) -> Result<u64, StorageError> {
        self.check_fenced()?;
        let loaded = crate::snapshot::decode_bytes(bytes)?;
        crate::snapshot::write_bytes(self.fs.as_ref(), bytes, &self.dir.join(SNAPSHOT_FILE))?;
        if let Err(e) = self.wal.reset() {
            self.seal(format!("WAL truncation after snapshot install failed: {e}"));
            return Err(StorageError::Io(e));
        }
        let mut graph = loaded.graph;
        graph.enable_delta_capture();
        self.graph = graph;
        self.next_txid = loaded.covered_txid + 1;
        self.recovered_base = loaded.covered_txid;
        self.recovered_stmts.clear();
        self.sealed = None;
        Ok(loaded.covered_txid)
    }
}

/// Read the fence marker, if present. Absence is the normal case. Returns
/// `(fence, epoch)`; the bare-address legacy format reads as epoch 0.
fn read_fence(
    fs: &dyn StorageFs,
    dir: &Path,
) -> Result<(Option<Option<String>>, u64), StorageError> {
    let path = dir.join(FENCE_FILE);
    if !fs.exists(&path) {
        return Ok((None, 0));
    }
    let bytes = fs.read(&path)?;
    let text = String::from_utf8_lossy(&bytes);
    let mut epoch = 0u64;
    let addr = match text.split_once('\n') {
        Some((first, rest)) if first.trim().starts_with("epoch=") => {
            epoch = first
                .trim()
                .trim_start_matches("epoch=")
                .parse()
                .unwrap_or(0);
            rest.trim().to_owned()
        }
        _ => text.trim().to_owned(),
    };
    Ok((Some(if addr.is_empty() { None } else { Some(addr) }), epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FaultFs, FaultKind, OpKind};
    use cypher_graph::{isomorphic, DeleteNodeMode, GraphError, Value};

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cypher-durable-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn create_one(g: &mut PropertyGraph) -> Result<(), GraphError> {
        let sp = g.savepoint();
        g.create_node([], []);
        g.commit(sp);
        Ok(())
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = tmpdir("reopen");
        let mut d = DurableGraph::open(&dir).unwrap();
        d.apply(|g| -> Result<(), GraphError> {
            let sp = g.savepoint();
            let user = g.sym("User");
            let id_k = g.sym("id");
            g.create_node([user], [(id_k, Value::Int(89))]);
            g.commit(sp);
            Ok(())
        })
        .unwrap()
        .unwrap();
        let before = d.graph().clone();
        drop(d);

        let d = DurableGraph::open(&dir).unwrap();
        assert!(isomorphic(&before, d.graph()));
        assert_eq!(d.graph().node_count(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn failed_statement_writes_nothing() {
        let dir = tmpdir("failed");
        let mut d = DurableGraph::open(&dir).unwrap();
        let wal_before = d.wal.len().unwrap();
        let result: Result<(), GraphError> = d
            .apply(|g| {
                let sp = g.savepoint();
                g.create_node([], []);
                // Statement fails: roll back like the engine would.
                g.rollback_to(sp);
                Err(GraphError::NodeNotFound(cypher_graph::NodeId(42)))
            })
            .unwrap();
        assert!(result.is_err());
        assert_eq!(d.wal.len().unwrap(), wal_before, "no unit appended");
        assert_eq!(d.graph().node_count(), 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_wal_and_reopen_matches() {
        let dir = tmpdir("checkpoint");
        let mut d = DurableGraph::open(&dir).unwrap();
        for i in 0..5i64 {
            d.apply(|g| -> Result<(), GraphError> {
                let sp = g.savepoint();
                let k = g.sym("i");
                g.create_node([], [(k, Value::Int(i))]);
                g.commit(sp);
                Ok(())
            })
            .unwrap()
            .unwrap();
        }
        assert!(!d.wal.is_empty().unwrap());
        d.checkpoint().unwrap();
        assert!(d.wal.is_empty().unwrap());

        // More work after the checkpoint lands in the (fresh) WAL.
        d.apply(|g| -> Result<(), GraphError> {
            let sp = g.savepoint();
            let dead = g.create_node([], []);
            g.delete_node(dead, DeleteNodeMode::Strict).unwrap();
            g.commit(sp);
            Ok(())
        })
        .unwrap()
        .unwrap();
        let before = d.graph().clone();
        drop(d);

        let d = DurableGraph::open(&dir).unwrap();
        assert!(isomorphic(&before, d.graph()));
        assert_eq!(d.graph().next_ids(), before.next_ids());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stale_wal_units_skipped_after_checkpoint_crash() {
        // Simulate a crash *between* snapshot rename and WAL truncation:
        // take a checkpoint, then restore the pre-checkpoint WAL bytes.
        let dir = tmpdir("staleskip");
        let mut d = DurableGraph::open(&dir).unwrap();
        d.apply(create_one).unwrap().unwrap();
        let wal_bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let before = d.graph().clone();
        d.checkpoint().unwrap();
        drop(d);
        std::fs::write(dir.join(WAL_FILE), &wal_bytes).unwrap();

        let d = DurableGraph::open(&dir).unwrap();
        // The unit is still in the WAL but covered by the snapshot; replaying
        // it would collide on the node id.
        assert!(isomorphic(&before, d.graph()));
        assert_eq!(d.graph().node_count(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn close_leaves_fresh_snapshot_and_empty_wal() {
        let dir = tmpdir("close");
        let mut d = DurableGraph::open(&dir).unwrap();
        d.apply(create_one).unwrap().unwrap();
        let before = d.graph().clone();
        d.close().unwrap();
        assert!(dir.join(SNAPSHOT_FILE).exists());

        let rec = crate::recover::recover(&dir).unwrap();
        assert_eq!(rec.replayed, 0, "everything came from the snapshot");
        assert!(isomorphic(&before, &rec.graph));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A failed commit-unit fsync seals the handle; further applies return
    /// the typed `Sealed` error and in-memory state is preserved.
    #[test]
    fn failed_append_seals_the_handle() {
        let dir = tmpdir("seal");
        let mut d = DurableGraph::open(&dir).unwrap();
        d.apply(create_one).unwrap().unwrap();
        drop(d);

        // Measure how many fs ops a reopen of this dir costs, then plan a
        // fault at the fsync of the next append (reopen + write + sync).
        let counting = FaultFs::counting();
        drop(DurableGraph::open_with(counting.arc(), &dir).unwrap());
        let open_ops = counting.ops();

        let fault = FaultFs::fail_at(open_ops + 1);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        let err = d.apply(create_one).unwrap_err();
        assert!(
            matches!(err, StorageError::Io(_)),
            "first failure is the I/O error"
        );
        assert!(d.is_sealed());
        assert!(fault.triggered());

        // Reads still work; writes are refused with the typed Sealed error.
        assert_eq!(d.graph().node_count(), 2, "memory kept the mutation");
        let err = d.apply(create_one).unwrap_err();
        assert!(matches!(err, StorageError::Sealed { .. }));
        assert!(err.to_string().contains("sealed"));

        // On-disk state is still the last committed one.
        let rec = crate::recover::recover(&dir).unwrap();
        assert_eq!(rec.graph.node_count(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A successful checkpoint reconciles a sealed handle: the snapshot
    /// absorbs the refused delta, the handle unseals, and new applies work.
    #[test]
    fn checkpoint_unseals_and_preserves_memory_state() {
        let dir = tmpdir("unseal");
        drop(DurableGraph::open(&dir).unwrap());

        // Reopening a header-only log does no fsync, so the first sync
        // after this open is the first append's commit fsync.
        let fault = FaultFs::fail_on(OpKind::Sync, 0, FaultKind::SyncFailure);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        d.apply(create_one).unwrap_err();
        assert!(d.is_sealed());

        // Checkpoint (fault is one-shot, storage is healthy again).
        d.checkpoint().unwrap();
        assert!(!d.is_sealed());
        d.apply(create_one).unwrap().unwrap();
        assert_eq!(d.graph().node_count(), 2);
        let before = d.graph().clone();
        drop(d);

        let d = DurableGraph::open(&dir).unwrap();
        assert!(isomorphic(&before, d.graph()));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `checkpoint_with_retry` survives a transient snapshot-write failure.
    #[test]
    fn checkpoint_retry_recovers_from_transient_fault() {
        let dir = tmpdir("retry");
        let mut d = DurableGraph::open(&dir).unwrap();
        d.apply(create_one).unwrap().unwrap();
        drop(d);

        // Reopen does no `create`; the first one is the snapshot temp file
        // of the first checkpoint attempt.
        let fault = FaultFs::fail_on(OpKind::Create, 0, FaultKind::NoSpace);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        d.checkpoint_with_retry(3, Duration::from_millis(1))
            .unwrap();
        assert!(!d.is_sealed());
        assert!(d.wal.is_empty().unwrap());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Group commit: a batch of buffered applies becomes durable with a
    /// single fsync, and a reopen replays every statement of the batch.
    #[test]
    fn buffered_batch_is_durable_after_one_flush() {
        let dir = tmpdir("groupbatch");
        let counting = FaultFs::counting();
        let mut d = DurableGraph::open_with(counting.arc(), &dir).unwrap();
        let syncs_before = counting.ops_of(OpKind::Sync);
        for _ in 0..5 {
            d.apply_buffered(create_one).unwrap().unwrap();
        }
        assert!(d.pending_bytes() > 0);
        d.flush().unwrap();
        assert_eq!(d.pending_bytes(), 0);
        assert_eq!(
            counting.ops_of(OpKind::Sync) - syncs_before,
            1,
            "five statements, one fsync"
        );
        let before = d.graph().clone();
        drop(d);
        let d = DurableGraph::open(&dir).unwrap();
        assert!(isomorphic(&before, d.graph()));
        assert_eq!(d.graph().node_count(), 5);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A failed batch flush seals the handle; on-disk state is the last
    /// durable prefix (none of the batch), memory keeps everything, and a
    /// checkpoint reconciles + unseals.
    #[test]
    fn failed_flush_seals_and_checkpoint_reconciles() {
        let dir = tmpdir("groupflushfail");
        drop(DurableGraph::open(&dir).unwrap());
        // Reopening a header-only log does no fsync, so the first sync
        // after this open is the batch flush.
        let fault = FaultFs::fail_on(OpKind::Sync, 0, FaultKind::SyncFailure);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        d.apply_buffered(create_one).unwrap().unwrap();
        d.apply_buffered(create_one).unwrap().unwrap();
        let err = d.flush().unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(d.is_sealed());
        assert_eq!(d.graph().node_count(), 2, "memory kept the batch");

        // On-disk: nothing from the batch survived the rollback.
        let rec = crate::recover::recover(&dir).unwrap();
        assert_eq!(rec.graph.node_count(), 0);

        // Checkpoint reconciles (fault was one-shot) and unseals.
        d.checkpoint().unwrap();
        assert!(!d.is_sealed());
        let before = d.graph().clone();
        drop(d);
        let d = DurableGraph::open(&dir).unwrap();
        assert!(isomorphic(&before, d.graph()));
        assert_eq!(d.graph().node_count(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Pipelined flush: batch N stages, batch N+1 applies while N's fsync
    /// is "in flight", completion retires N, a second flush covers N+1 —
    /// and reopen replays both batches.
    #[test]
    fn staged_flush_overlaps_next_batch() {
        let dir = tmpdir("stagedpipeline");
        let counting = FaultFs::counting();
        let mut d = DurableGraph::open_with(counting.arc(), &dir).unwrap();
        let syncs_before = counting.ops_of(OpKind::Sync);
        d.apply_buffered(create_one).unwrap().unwrap();
        let mut ticket = d.stage_flush().unwrap().unwrap();
        // Batch N+1 applies while N's ticket is outstanding.
        d.apply_buffered(create_one).unwrap().unwrap();
        assert!(d.pending_bytes() > 0);
        d.complete_flush(ticket.sync()).unwrap();
        d.flush().unwrap();
        assert_eq!(
            counting.ops_of(OpKind::Sync) - syncs_before,
            2,
            "one fsync per batch"
        );
        let before = d.graph().clone();
        drop(d);
        let d = DurableGraph::open(&dir).unwrap();
        assert!(isomorphic(&before, d.graph()));
        assert_eq!(d.graph().node_count(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// An empty window stages as `None` — trivially complete.
    #[test]
    fn stage_flush_with_nothing_pending_is_none() {
        let dir = tmpdir("stagednone");
        let mut d = DurableGraph::open(&dir).unwrap();
        assert!(d.stage_flush().unwrap().is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A failed staged fsync seals and discards the staged batch plus
    /// everything buffered after it; `reopen` rolls memory back to the
    /// durable horizon.
    #[test]
    fn failed_staged_flush_seals_and_reopen_recovers() {
        let dir = tmpdir("stagedflushfail");
        drop(DurableGraph::open(&dir).unwrap());
        // Reopening a header-only log does no fsync; sync 0 is the staged
        // batch fsync.
        let fault = FaultFs::fail_on(OpKind::Sync, 0, FaultKind::SyncFailure);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        d.apply_buffered(create_one).unwrap().unwrap();
        let mut ticket = d.stage_flush().unwrap().unwrap();
        d.apply_buffered(create_one).unwrap().unwrap(); // batch N+1
        let err = d.complete_flush(ticket.sync()).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(d.is_sealed());
        assert_eq!(d.graph().node_count(), 2, "memory ran ahead");

        d.reopen().unwrap();
        assert!(!d.is_sealed());
        assert_eq!(d.graph().node_count(), 0, "nothing was durable");
        d.apply(create_one).unwrap().unwrap();
        assert_eq!(d.graph().node_count(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A later batch's append failure (which seals) must not retroactively
    /// downgrade the staged batch: its bytes were already below the
    /// failure point, and `complete_flush(Ok)` retires it as durable.
    #[test]
    fn later_append_failure_does_not_lose_staged_batch() {
        let dir = tmpdir("stagedlaterfail");
        // Write 0 is the WAL header; write 1 is batch N's unit; write 2
        // (batch N+1's unit) fails short and seals.
        let fault = FaultFs::fail_on(OpKind::Write, 2, FaultKind::ShortWrite);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        d.apply_buffered(create_one).unwrap().unwrap();
        let mut ticket = d.stage_flush().unwrap().unwrap();
        let err = d.apply_buffered(create_one).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(d.is_sealed());

        // Batch N still becomes durable despite the seal.
        d.complete_flush(ticket.sync()).unwrap();
        let rec = crate::recover::recover(&dir).unwrap();
        assert_eq!(rec.graph.node_count(), 1, "batch N survived");

        d.reopen().unwrap();
        assert_eq!(d.graph().node_count(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A mid-batch append failure rolls back every pending unit (including
    /// earlier statements of the batch) and seals; a subsequent `flush`
    /// must report `Sealed` instead of silently no-opping over the emptied
    /// window — otherwise the caller would acknowledge discarded units.
    #[test]
    fn flush_after_midbatch_append_failure_reports_sealed() {
        let dir = tmpdir("midbatchseal");
        // Write 0 is the WAL header; write 1 is the first buffered unit;
        // write 2 (the second unit) fails and rolls the file back to the
        // durable horizon, discarding write 1 with it.
        let fault = FaultFs::fail_on(OpKind::Write, 2, FaultKind::ShortWrite);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        d.apply_buffered(create_one).unwrap().unwrap();
        assert!(d.pending_bytes() > 0);
        let err = d.apply_buffered(create_one).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(d.is_sealed());
        // The rollback emptied the window; a bare WAL sync would no-op.
        assert_eq!(d.pending_bytes(), 0);
        let err = d.flush().unwrap_err();
        assert!(matches!(err, StorageError::Sealed { .. }));
        // On disk nothing of the batch survived.
        let rec = crate::recover::recover(&dir).unwrap();
        assert_eq!(rec.graph.node_count(), 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `flush` on an empty window is free and `apply` still means
    /// buffered-apply + flush (durability before acknowledge).
    #[test]
    fn flush_with_nothing_pending_is_ok() {
        let dir = tmpdir("emptyflush");
        let mut d = DurableGraph::open(&dir).unwrap();
        d.flush().unwrap();
        d.apply(create_one).unwrap().unwrap();
        assert_eq!(d.pending_bytes(), 0, "apply flushes its own unit");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Statement provenance rides inside the commit unit and is recovered
    /// on reopen; state replay is unaffected.
    #[test]
    fn logged_statements_are_recovered_in_order() {
        let dir = tmpdir("stmtlog");
        let mut d = DurableGraph::open(&dir).unwrap();
        for (i, text) in ["CREATE (:A)", "CREATE (:B)"].iter().enumerate() {
            let (out, txid) = d
                .apply_buffered_logged(Some((1, text)), create_one)
                .unwrap();
            out.unwrap();
            assert_eq!(txid, Some(i as u64 + 1));
        }
        // A statement with an empty delta logs nothing.
        let (_, txid) = d
            .apply_buffered_logged(Some((1, "MATCH (n) RETURN n")), |_g| {
                Ok::<(), GraphError>(())
            })
            .unwrap();
        assert_eq!(txid, None);
        d.flush().unwrap();
        drop(d);

        let mut d = DurableGraph::open(&dir).unwrap();
        assert_eq!(d.graph().node_count(), 2);
        assert_eq!(d.recovered_base(), 0);
        assert_eq!(
            d.take_recovered_statements(),
            vec![
                (1, 1, "CREATE (:A)".to_owned()),
                (2, 1, "CREATE (:B)".to_owned()),
            ]
        );
        assert!(d.take_recovered_statements().is_empty(), "take drains");

        // A checkpoint absorbs the units; their text is gone afterwards.
        d.checkpoint().unwrap();
        drop(d);
        let mut d = DurableGraph::open(&dir).unwrap();
        assert_eq!(d.recovered_base(), 2);
        assert!(d.take_recovered_statements().is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A fence refuses writes with the typed error, survives reopen via its
    /// marker file, and is NOT cleared by a checkpoint.
    #[test]
    fn fence_is_durable_and_checkpoint_does_not_clear_it() {
        let dir = tmpdir("fence");
        let mut d = DurableGraph::open(&dir).unwrap();
        d.apply(create_one).unwrap().unwrap();
        d.fence(Some("10.0.0.2:7878"), 3).unwrap();
        assert!(d.is_fenced());
        assert_eq!(d.fence_target(), Some("10.0.0.2:7878"));
        assert_eq!(d.fence_epoch(), 3);

        let err = d.apply(create_one).unwrap_err();
        assert!(matches!(
            &err,
            StorageError::Fenced { new_primary: Some(a) } if a == "10.0.0.2:7878"
        ));
        assert!(err.is_fenced() && !err.is_sealed());

        // Checkpoint still works (shutdown path) but does not unfence.
        d.checkpoint().unwrap();
        assert!(d.is_fenced());
        assert!(d.apply(create_one).unwrap_err().is_fenced());
        drop(d);

        // The zombie restarts: still fenced, reads intact.
        let mut d = DurableGraph::open(&dir).unwrap();
        assert!(d.is_fenced());
        assert_eq!(d.fence_target(), Some("10.0.0.2:7878"));
        assert_eq!(d.fence_epoch(), 3, "epoch survives the restart");
        assert_eq!(d.graph().node_count(), 1);
        assert!(d.apply(create_one).unwrap_err().is_fenced());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A marker written by the pre-epoch format (bare address) still fences
    /// on open, reading as epoch 0; re-fencing upgrades it in place.
    #[test]
    fn legacy_fence_marker_still_fences() {
        let dir = tmpdir("fencelegacy");
        drop(DurableGraph::open(&dir).unwrap());
        std::fs::write(dir.join(FENCE_FILE), b"10.0.0.7:7878").unwrap();
        let mut d = DurableGraph::open(&dir).unwrap();
        assert!(d.is_fenced());
        assert_eq!(d.fence_target(), Some("10.0.0.7:7878"));
        assert_eq!(d.fence_epoch(), 0);
        // Re-fencing with an epoch upgrades the marker without clearing
        // the recorded primary.
        d.fence(None, 5).unwrap();
        drop(d);
        let d = DurableGraph::open(&dir).unwrap();
        assert_eq!(d.fence_target(), Some("10.0.0.7:7878"));
        assert_eq!(d.fence_epoch(), 5);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The in-memory fence holds even when persisting the marker fails.
    #[test]
    fn fence_refuses_writes_even_if_marker_write_fails() {
        let dir = tmpdir("fencefault");
        drop(DurableGraph::open(&dir).unwrap());
        let fault = FaultFs::fail_on(OpKind::Create, 0, FaultKind::NoSpace);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        assert!(d.fence(None, 1).is_err(), "marker write failed");
        assert!(d.is_fenced(), "process-local fence still holds");
        assert!(d.apply(create_one).unwrap_err().is_fenced());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// install_snapshot replaces graph + WAL with the shipped state and
    /// re-bases the txid counter; a corrupt payload changes nothing.
    #[test]
    fn install_snapshot_rebases_onto_shipped_state() {
        let primary_dir = tmpdir("shipsrc");
        let replica_dir = tmpdir("shipdst");
        let mut primary = DurableGraph::open(&primary_dir).unwrap();
        for _ in 0..4 {
            primary.apply(create_one).unwrap().unwrap();
        }
        let (covered, bytes) = primary.encode_snapshot_bytes().unwrap();
        assert_eq!(covered, 4);

        let mut replica = DurableGraph::open(&replica_dir).unwrap();
        replica.apply(create_one).unwrap().unwrap(); // stale local state

        // Corrupt payload: typed error, local state untouched.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(replica.install_snapshot(&bad).is_err());
        assert_eq!(replica.graph().node_count(), 1);

        assert_eq!(replica.install_snapshot(&bytes).unwrap(), 4);
        assert_eq!(replica.next_txid(), 5);
        assert!(isomorphic(primary.graph(), replica.graph()));

        // Tail from here: the next unit gets txid 5, and everything
        // survives a replica restart.
        replica.apply(create_one).unwrap().unwrap();
        let before = replica.graph().clone();
        drop(replica);
        let replica = DurableGraph::open(&replica_dir).unwrap();
        assert!(isomorphic(&before, replica.graph()));
        assert_eq!(replica.next_txid(), 6);
        std::fs::remove_dir_all(primary_dir).unwrap();
        std::fs::remove_dir_all(replica_dir).unwrap();
    }

    /// `reopen` rolls memory back to the durable horizon after a failed
    /// flush — the replication-safe alternative to seal-then-checkpoint.
    #[test]
    fn reopen_rolls_back_to_durable_horizon() {
        let dir = tmpdir("reopenroll");
        let mut d = DurableGraph::open(&dir).unwrap();
        d.apply(create_one).unwrap().unwrap();
        drop(d);

        let counting = FaultFs::counting();
        drop(DurableGraph::open_with(counting.arc(), &dir).unwrap());
        let open_ops = counting.ops();

        let fault = FaultFs::fail_at(open_ops + 1);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        d.apply(create_one).unwrap_err();
        assert!(d.is_sealed());
        assert_eq!(d.graph().node_count(), 2, "memory ran ahead");

        d.reopen().unwrap();
        assert!(!d.is_sealed());
        assert_eq!(d.graph().node_count(), 1, "memory back at durable state");
        d.apply(create_one).unwrap().unwrap();
        assert_eq!(d.graph().node_count(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A failed snapshot write does NOT seal: nothing durable changed.
    #[test]
    fn failed_snapshot_write_does_not_seal() {
        let dir = tmpdir("snapfail");
        let fault = FaultFs::counting();
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        d.apply(create_one).unwrap().unwrap();
        drop(d);

        let fault = FaultFs::fail_on(OpKind::Rename, 0, FaultKind::RenameFailure);
        let mut d = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        let err = d.checkpoint().unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert!(!d.is_sealed(), "snapshot failure is retryable, not sealing");
        d.apply(create_one).unwrap().unwrap();
        assert_eq!(d.graph().node_count(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
