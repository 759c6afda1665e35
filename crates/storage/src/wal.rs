//! The append-only write-ahead log file.
//!
//! ## File layout
//!
//! ```text
//! [8-byte magic "CYWALv1\n"]
//! frame*                          where frame = [len u32][crc u32][payload]
//! ```
//!
//! `len` is the payload length, `crc` its CRC-32. Each committed unit is a
//! frame sequence `Begin{txid}, Stmt?, op*, Commit{txid}`, written with a
//! **single** `write` call followed by one `fsync`; the commit only counts
//! once the `Commit` frame is fully on disk.
//!
//! ## Torn-tail discipline
//!
//! [`scan`] walks frames from the header until the first sign of damage —
//! a short header, a length running past EOF, a CRC mismatch, an
//! undecodable payload, or a unit that ends without its `Commit`. Everything
//! from the last good commit boundary onward is reported as garbage via
//! [`Scan::committed_len`]; [`Wal::open_append`] truncates it away before
//! appending anything new, so a crashed half-write can never be interpreted
//! as data, no matter what bytes it left behind.
//!
//! ## Durable-length discipline
//!
//! The handle tracks [`durable_len`](Wal::durable_len): the byte offset up
//! to which the file is known fsynced. It advances **only after** a
//! successful `write + sync` pair; when either step fails, the append
//! restores the file to `durable_len` (best-effort truncate + re-seek) and
//! reports the error with the in-memory horizon unmoved. The in-memory view
//! therefore can never run ahead of what is durable — the invariant
//! [`DurableGraph`](crate::DurableGraph)'s seal logic builds on.
//!
//! All I/O goes through a [`StorageFs`], so every path here is exercised
//! under deterministic fault injection (see [`crate::fs::FaultFs`]).

use std::io;
use std::path::{Path, PathBuf};

use cypher_graph::Delta;

use crate::crc::crc32;
use crate::fs::{StorageFile, StorageFs, SyncHandle};
use crate::record::{arr, encode_op, encode_stmt, Record};

/// Magic + version. Bump the digit when the frame or record format changes.
pub const MAGIC: &[u8; 8] = b"CYWALv1\n";

/// Per-frame overhead: length prefix + CRC.
const FRAME_HEADER: usize = 8;

/// Append one framed payload to `buf`.
fn put_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// An open WAL in append mode.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn StorageFile>,
    path: PathBuf,
    /// Byte offset up to which the file is known durable (≥ header).
    durable_len: u64,
    /// Bytes written past `durable_len + inflight` but not yet fsynced —
    /// the group commit window (see
    /// [`Wal::append_commit_unit_buffered`]). Zero outside a batch.
    pending: u64,
    /// Bytes staged for an off-thread fsync (between [`Wal::stage_sync`]
    /// and [`Wal::complete_sync`]) — the in-flight half of a pipelined
    /// commit. They sit directly above `durable_len` in the file; the
    /// pending window sits above them. Zero outside a staged sync.
    inflight: u64,
}

/// A staged group-commit fsync: a second handle onto the WAL file that a
/// flush stage may sync **on another thread** while the owning [`Wal`]
/// keeps appending into a fresh pending window. Produced by
/// [`Wal::stage_sync`]; the outcome of [`SyncTicket::sync`] must be
/// reported back through [`Wal::complete_sync`] before the next stage.
#[derive(Debug)]
pub struct SyncTicket {
    handle: Box<dyn SyncHandle>,
}

impl SyncTicket {
    /// Perform the staged fsync (`SyncHandle: Send` — callable off-thread).
    pub fn sync(&mut self) -> io::Result<()> {
        self.handle.sync_data()
    }
}

impl Wal {
    /// Create a fresh log (truncating any existing file), write the header
    /// and fsync it.
    pub fn create(fs: &dyn StorageFs, path: &Path) -> io::Result<Wal> {
        let mut file = fs.create(path)?;
        file.write_all(MAGIC)?;
        file.sync_data()?;
        Ok(Wal {
            file,
            path: path.to_owned(),
            durable_len: MAGIC.len() as u64,
            pending: 0,
            inflight: 0,
        })
    }

    /// Open an existing log for appending, first truncating it to
    /// `committed_len` (as determined by [`scan`]) to drop any torn tail.
    /// The truncation is fsynced before the handle is returned.
    ///
    /// A `committed_len` below the header length means the file never got a
    /// complete header (a crash during creation); the log is recreated.
    pub fn open_append(fs: &dyn StorageFs, path: &Path, committed_len: u64) -> io::Result<Wal> {
        if committed_len < MAGIC.len() as u64 {
            return Wal::create(fs, path);
        }
        let mut file = fs.open_rw(path)?;
        if file.len()? != committed_len {
            file.set_len(committed_len)?;
            file.sync_data()?;
        }
        file.seek_end()?;
        Ok(Wal {
            file,
            path: path.to_owned(),
            durable_len: committed_len,
            pending: 0,
            inflight: 0,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte offset up to which the log is known durable.
    pub fn durable_len(&self) -> u64 {
        self.durable_len
    }

    /// Append one committed unit — `Begin{txid}`, the source statement if
    /// given, the mutation records, `Commit{txid}` — as a single write,
    /// then fsync.
    ///
    /// On success the unit is durable and `durable_len` advances past it: a
    /// crash at any later point replays it in full. On error the in-memory
    /// horizon does **not** move; whatever partial bytes made it out are
    /// truncated away (best-effort here, and again by the next
    /// [`scan`]/[`open_append`] pair if the truncation itself fails).
    pub fn append_commit_unit(
        &mut self,
        txid: u64,
        stmt: Option<(u8, &str)>,
        ops: &[Delta],
    ) -> io::Result<()> {
        self.append_commit_unit_buffered(txid, stmt, ops)?;
        self.sync()
    }

    /// Append one committed unit **without** fsyncing — the group-commit
    /// fast path. The unit's bytes are handed to the OS in a single write
    /// but do not count as durable until the next successful
    /// [`sync`](Wal::sync); until then they sit in the `pending` window.
    ///
    /// On a write failure the file is rolled back to the durable horizon,
    /// which discards **every** pending unit of the current batch, not just
    /// this one — the caller (the durable layer) must treat the whole batch
    /// as unlogged.
    pub fn append_commit_unit_buffered(
        &mut self,
        txid: u64,
        stmt: Option<(u8, &str)>,
        ops: &[Delta],
    ) -> io::Result<()> {
        let mut unit = Vec::with_capacity(64 + ops.len() * 32);
        let mut payload = Vec::with_capacity(64);
        Record::Begin { txid }.encode(&mut payload);
        put_frame(&mut unit, &payload);
        if let Some((dialect, text)) = stmt {
            payload.clear();
            encode_stmt(&mut payload, dialect, text);
            put_frame(&mut unit, &payload);
        }
        for op in ops {
            payload.clear();
            encode_op(&mut payload, op);
            put_frame(&mut unit, &payload);
        }
        payload.clear();
        Record::Commit { txid }.encode(&mut payload);
        put_frame(&mut unit, &payload);

        match self.file.write_all(&unit) {
            Ok(()) => {
                self.pending += unit.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.rollback_to_durable();
                Err(e)
            }
        }
    }

    /// Fsync the pending group-commit window. On success every buffered
    /// unit becomes durable at once — one fsync amortized over the batch —
    /// and the horizon advances past all of them. On failure the file is
    /// rolled back to the durable horizon (all pending units discarded) and
    /// the error is reported with the horizon unmoved. A no-op when nothing
    /// is pending.
    pub fn sync(&mut self) -> io::Result<()> {
        debug_assert_eq!(self.inflight, 0, "in-thread sync with a staged sync open");
        if self.pending == 0 {
            return Ok(());
        }
        match self.file.sync_data() {
            Ok(()) => {
                // Only now — after the fsync — does the horizon advance.
                self.durable_len += self.pending;
                self.pending = 0;
                Ok(())
            }
            Err(e) => {
                // Roll the file back to the durable horizon so a surviving
                // process doesn't append after garbage. If this fails too,
                // the scan-side torn-tail discipline still protects reopen.
                self.rollback_to_durable();
                Err(e)
            }
        }
    }

    /// Stage the pending window for an **off-thread** fsync: the pending
    /// bytes move into the in-flight window and a [`SyncTicket`] holding a
    /// second file handle is returned. The caller runs
    /// [`SyncTicket::sync`] (typically on a flusher thread) and reports
    /// its outcome through [`Wal::complete_sync`]; meanwhile new units may
    /// be appended into a fresh pending window. At most one staged sync
    /// may be outstanding at a time.
    pub fn stage_sync(&mut self) -> io::Result<SyncTicket> {
        debug_assert_eq!(self.inflight, 0, "one staged sync at a time");
        let handle = self.file.sync_handle()?;
        self.inflight += self.pending;
        self.pending = 0;
        Ok(SyncTicket { handle })
    }

    /// Record the outcome of a staged fsync. On `Ok` the durable horizon
    /// advances past the in-flight window. On `Err` the file rolls back to
    /// the durable horizon, which discards the failed in-flight bytes
    /// **and** every unit appended since the stage — those sit above the
    /// failed window in the file and can no longer become durable in
    /// order.
    pub fn complete_sync(&mut self, outcome: io::Result<()>) -> io::Result<()> {
        match outcome {
            Ok(()) => {
                self.durable_len += self.inflight;
                self.inflight = 0;
                Ok(())
            }
            Err(e) => {
                self.inflight = 0;
                self.rollback_to_durable();
                Err(e)
            }
        }
    }

    /// Bytes appended but not yet fsynced (the open group-commit window).
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Bytes staged for an off-thread fsync, not yet resolved.
    pub fn inflight(&self) -> u64 {
        self.inflight
    }

    fn rollback_to_durable(&mut self) {
        // Keep any staged (in-flight) bytes: their fate is decided by
        // `complete_sync`, not by this append-side rollback.
        let _ = self.file.set_len(self.durable_len + self.inflight);
        let _ = self.file.seek_end();
        self.pending = 0;
    }

    /// Reset the log to an empty (header-only) state — the checkpoint
    /// truncation step. Fsynced before returning. The durable horizon only
    /// moves if every step succeeds. Any pending (un-synced) units are
    /// discarded with the rest of the log: the caller checkpoints the full
    /// in-memory graph, which subsumes them.
    pub fn reset(&mut self) -> io::Result<()> {
        debug_assert_eq!(self.inflight, 0, "reset with a staged sync open");
        self.file.set_len(MAGIC.len() as u64)?;
        self.file.seek_end()?;
        self.file.sync_data()?;
        self.durable_len = MAGIC.len() as u64;
        self.pending = 0;
        self.inflight = 0;
        Ok(())
    }

    /// Current file length (diagnostics / tests).
    pub fn len(&self) -> io::Result<u64> {
        self.file.len()
    }

    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? <= MAGIC.len() as u64)
    }
}

/// Result of scanning a log file.
#[derive(Debug, Default)]
pub struct Scan {
    /// Fully-committed units in log order: `(txid, ops)`.
    pub units: Vec<(u64, Vec<Record>)>,
    /// Byte offset just past the last committed unit. Normally at least the
    /// header length; **less** than the header length only when the file is
    /// a torn header (crash during log creation), in which case
    /// [`Wal::open_append`] recreates the log.
    pub committed_len: u64,
    /// Diagnostic describing why scanning stopped early, if it did.
    pub torn: Option<String>,
}

impl Scan {
    /// Highest committed txid, if any unit exists.
    pub fn last_txid(&self) -> Option<u64> {
        self.units.last().map(|(txid, _)| *txid)
    }
}

/// Scan a WAL file, collecting committed units and locating the commit
/// horizon. Corruption never errors — it just ends the scan. A file that is
/// a strict prefix of the magic (including empty) is a crash during log
/// creation and scans as an empty log with `committed_len == 0`; any other
/// garbled *header* does error, because that means the file is not a WAL at
/// all (truncating it on such evidence could destroy user data).
pub fn scan(fs: &dyn StorageFs, path: &Path) -> io::Result<Scan> {
    let data = fs.read(path)?;
    if data.len() < MAGIC.len() {
        return if data[..] == MAGIC[..data.len()] {
            Ok(Scan {
                committed_len: 0,
                torn: Some(format!(
                    "torn header ({} of {} bytes)",
                    data.len(),
                    MAGIC.len()
                )),
                ..Scan::default()
            })
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a WAL file (bad magic)", path.display()),
            ))
        };
    }
    if &data[..MAGIC.len()] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a WAL file (bad magic)", path.display()),
        ));
    }

    let mut scan = Scan {
        committed_len: MAGIC.len() as u64,
        ..Scan::default()
    };
    let mut pos = MAGIC.len();
    // The unit currently being assembled: (txid, ops).
    let mut open_unit: Option<(u64, Vec<Record>)> = None;

    macro_rules! torn {
        ($($msg:tt)*) => {{
            scan.torn = Some(format!($($msg)*));
            return Ok(scan);
        }};
    }

    while pos < data.len() {
        if data.len() - pos < FRAME_HEADER {
            torn!("short frame header at offset {pos}");
        }
        let len = u32::from_le_bytes(arr(&data[pos..pos + 4])) as usize;
        let crc = u32::from_le_bytes(arr(&data[pos + 4..pos + 8]));
        let start = pos + FRAME_HEADER;
        let Some(end) = start.checked_add(len).filter(|&e| e <= data.len()) else {
            torn!("frame at offset {pos} runs past end of file");
        };
        let payload = &data[start..end];
        if crc32(payload) != crc {
            torn!("CRC mismatch at offset {pos}");
        }
        let record = match Record::decode(payload) {
            Ok(r) => r,
            Err(e) => torn!("undecodable record at offset {pos}: {e}"),
        };
        match (&mut open_unit, record) {
            (None, Record::Begin { txid }) => open_unit = Some((txid, Vec::new())),
            (None, other) => torn!("record outside Begin/Commit at offset {pos}: {other:?}"),
            (Some((txid, _)), Record::Commit { txid: c }) if *txid == c => {
                if let Some(unit) = open_unit.take() {
                    scan.units.push(unit);
                    scan.committed_len = end as u64;
                }
            }
            (Some((txid, _)), Record::Commit { txid: c }) => {
                torn!("commit txid {c} does not match begin txid {txid} at offset {pos}");
            }
            (Some(_), Record::Begin { txid }) => {
                torn!("nested Begin {{txid: {txid}}} at offset {pos}");
            }
            (Some((_, ops)), op) => ops.push(op),
        }
        pos = end;
    }
    if let Some((txid, _)) = open_unit {
        scan.torn = Some(format!("unit {txid} has no Commit (crash mid-write)"));
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{FaultFs, FaultKind, OpKind, RealFs};
    use cypher_graph::Value;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cypher-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ops() -> Vec<Delta> {
        vec![
            Delta::CreateNode {
                id: 0,
                labels: vec!["User".into()],
                props: vec![("id".into(), Value::Int(89))],
            },
            Delta::AddLabel {
                node: 0,
                label: "Vendor".into(),
            },
        ]
    }

    /// What a scan reports for a unit appended from `ops`.
    fn records(ops: &[Delta]) -> Vec<Record> {
        ops.iter().cloned().map(Record::Op).collect()
    }

    #[test]
    fn append_then_scan_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.bin");
        let mut wal = Wal::create(&RealFs, &path).unwrap();
        wal.append_commit_unit(1, None, &ops()).unwrap();
        // A unit's source statement rides as its first record.
        wal.append_commit_unit(
            2,
            Some((1, "MATCH (n) DELETE n")),
            &[Delta::DeleteNode { id: 0 }],
        )
        .unwrap();
        let scan = scan(&RealFs, &path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.units.len(), 2);
        assert_eq!(scan.units[0], (1, records(&ops())));
        let stmt = Record::Stmt {
            dialect: 1,
            text: "MATCH (n) DELETE n".into(),
        };
        let delete = Record::Op(Delta::DeleteNode { id: 0 });
        assert_eq!(scan.units[1], (2, vec![stmt, delete]));
        assert_eq!(scan.committed_len, wal.len().unwrap());
        assert_eq!(scan.committed_len, wal.durable_len());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn every_truncation_point_recovers_committed_prefix() {
        let dir = tmpdir("trunc");
        let path = dir.join("wal.bin");
        let mut wal = Wal::create(&RealFs, &path).unwrap();
        wal.append_commit_unit(1, None, &ops()).unwrap();
        let after_first = wal.len().unwrap();
        wal.append_commit_unit(2, None, &[Delta::DeleteNode { id: 0 }])
            .unwrap();
        let full = std::fs::read(&path).unwrap();
        drop(wal);

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan(&RealFs, &path).unwrap();
            // Only whole committed units survive, whatever the cut point.
            let (units, horizon) = if cut == full.len() {
                (2, full.len() as u64)
            } else if (cut as u64) >= after_first {
                (1, after_first)
            } else if cut >= MAGIC.len() {
                (0, MAGIC.len() as u64)
            } else {
                (0, 0) // torn header: recreate territory
            };
            assert_eq!(scan.units.len(), units, "cut at {cut}");
            assert_eq!(scan.committed_len, horizon, "cut at {cut}");
            // A cut exactly on a commit boundary looks like a clean file;
            // anywhere else the scanner must flag the torn tail.
            let on_boundary = cut == MAGIC.len() || cut as u64 == after_first || cut == full.len();
            assert_eq!(scan.torn.is_some(), !on_boundary, "cut at {cut}");
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn bit_flip_in_committed_region_stops_scan_there() {
        let dir = tmpdir("bitflip");
        let path = dir.join("wal.bin");
        let mut wal = Wal::create(&RealFs, &path).unwrap();
        wal.append_commit_unit(1, None, &ops()).unwrap();
        let after_first = wal.len().unwrap();
        wal.append_commit_unit(2, None, &[Delta::DeleteNode { id: 0 }])
            .unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let i = after_first as usize + FRAME_HEADER; // first payload byte of unit 2
        bytes[i] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan(&RealFs, &path).unwrap();
        assert_eq!(scan.units.len(), 1);
        assert_eq!(scan.committed_len, after_first);
        assert!(scan.torn.unwrap().contains("CRC mismatch"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn open_append_truncates_torn_tail() {
        let dir = tmpdir("reopen");
        let path = dir.join("wal.bin");
        let mut wal = Wal::create(&RealFs, &path).unwrap();
        wal.append_commit_unit(1, None, &ops()).unwrap();
        let committed = wal.len().unwrap();
        drop(wal);
        // Simulate a crash mid-append: garbage after the commit horizon.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
        std::fs::write(&path, &bytes).unwrap();

        let s = scan(&RealFs, &path).unwrap();
        assert_eq!(s.committed_len, committed);
        let mut wal = Wal::open_append(&RealFs, &path, s.committed_len).unwrap();
        assert_eq!(wal.len().unwrap(), committed);
        wal.append_commit_unit(2, None, &[Delta::DeleteNode { id: 0 }])
            .unwrap();
        let s = scan(&RealFs, &path).unwrap();
        assert!(s.torn.is_none());
        assert_eq!(s.units.len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn torn_header_recreates_instead_of_erroring() {
        let dir = tmpdir("tornheader");
        let path = dir.join("wal.bin");
        // Crash mid-creation: only part of the magic made it out.
        std::fs::write(&path, &MAGIC[..3]).unwrap();
        let s = scan(&RealFs, &path).unwrap();
        assert_eq!(s.committed_len, 0);
        assert!(s.torn.unwrap().contains("torn header"));
        let mut wal = Wal::open_append(&RealFs, &path, 0).unwrap();
        wal.append_commit_unit(1, None, &ops()).unwrap();
        let s = scan(&RealFs, &path).unwrap();
        assert_eq!(s.units.len(), 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn non_wal_file_is_an_error_not_a_truncation_candidate() {
        let dir = tmpdir("magic");
        let path = dir.join("not-a-wal");
        std::fs::write(&path, b"precious user data, definitely not a WAL").unwrap();
        assert_eq!(
            scan(&RealFs, &path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // Short but non-prefix garbage is equally protected.
        std::fs::write(&path, b"hi").unwrap();
        assert_eq!(
            scan(&RealFs, &path).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The satellite regression: a failed `sync_data` after a successful
    /// `write` must not advance the durable horizon, and the partial bytes
    /// must be rolled back so a follow-up append lands at the right offset.
    #[test]
    fn failed_fsync_does_not_advance_durable_len() {
        let dir = tmpdir("fsyncfail");
        let path = dir.join("wal.bin");
        // Sync 0 is Wal::create's header sync; sync 1 is the first append's.
        let fault = FaultFs::fail_on(OpKind::Sync, 1, FaultKind::SyncFailure);
        let fs = fault.arc();
        let mut wal = Wal::create(fs.as_ref(), &path).unwrap();
        let before = wal.durable_len();
        let err = wal.append_commit_unit(1, None, &ops()).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert!(fault.triggered());
        assert_eq!(wal.durable_len(), before, "horizon must not move");
        assert_eq!(wal.len().unwrap(), before, "partial bytes truncated");

        // The handle is still usable at the storage level (the durable
        // layer seals above; the WAL itself reconciled): a retried append
        // lands exactly at the durable horizon.
        wal.append_commit_unit(1, None, &ops()).unwrap();
        let s = scan(&RealFs, &path).unwrap();
        assert!(s.torn.is_none());
        assert_eq!(s.units.len(), 1);
        assert_eq!(s.units[0], (1, records(&ops())));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Group commit: several buffered units become durable with one fsync.
    #[test]
    fn buffered_units_become_durable_on_one_sync() {
        let dir = tmpdir("groupcommit");
        let path = dir.join("wal.bin");
        let counting = FaultFs::counting();
        let fs = counting.arc();
        let mut wal = Wal::create(fs.as_ref(), &path).unwrap();
        let syncs_after_create = counting.ops_of(OpKind::Sync);
        let before = wal.durable_len();
        wal.append_commit_unit_buffered(1, None, &ops()).unwrap();
        wal.append_commit_unit_buffered(2, None, &[Delta::DeleteNode { id: 0 }])
            .unwrap();
        assert_eq!(wal.durable_len(), before, "horizon waits for the sync");
        assert!(wal.pending() > 0);
        wal.sync().unwrap();
        assert_eq!(wal.pending(), 0);
        assert_eq!(wal.durable_len(), wal.len().unwrap());
        assert_eq!(
            counting.ops_of(OpKind::Sync) - syncs_after_create,
            1,
            "exactly one fsync for the whole batch"
        );
        let s = scan(&RealFs, &path).unwrap();
        assert_eq!(s.units.len(), 2);
        assert!(s.torn.is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A failed batch fsync discards every pending unit, not a prefix.
    #[test]
    fn failed_batch_sync_discards_all_pending_units() {
        let dir = tmpdir("groupsyncfail");
        let path = dir.join("wal.bin");
        // Sync 0 is Wal::create's header sync; sync 1 is the batch sync.
        let fault = FaultFs::fail_on(OpKind::Sync, 1, FaultKind::SyncFailure);
        let fs = fault.arc();
        let mut wal = Wal::create(fs.as_ref(), &path).unwrap();
        wal.append_commit_unit_buffered(1, None, &ops()).unwrap();
        wal.append_commit_unit_buffered(2, None, &[Delta::DeleteNode { id: 0 }])
            .unwrap();
        wal.sync().unwrap_err();
        assert_eq!(wal.pending(), 0);
        assert_eq!(wal.durable_len(), MAGIC.len() as u64);
        assert_eq!(wal.len().unwrap(), MAGIC.len() as u64);
        let s = scan(&RealFs, &path).unwrap();
        assert!(s.units.is_empty(), "no unit of the batch survived");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The pipelined path: batch N's staged fsync runs on another thread
    /// while batch N+1 is appended; completion advances the horizon past
    /// exactly batch N, and the follow-up sync covers batch N+1.
    #[test]
    fn staged_sync_overlaps_new_appends() {
        let dir = tmpdir("stagedoverlap");
        let path = dir.join("wal.bin");
        let mut wal = Wal::create(&RealFs, &path).unwrap();
        wal.append_commit_unit_buffered(1, None, &ops()).unwrap();
        let batch_n = wal.pending();
        let mut ticket = wal.stage_sync().unwrap();
        assert_eq!(wal.pending(), 0);
        assert_eq!(wal.inflight(), batch_n);

        // Batch N+1 lands in a fresh pending window while N is in flight.
        wal.append_commit_unit_buffered(2, None, &[Delta::DeleteNode { id: 0 }])
            .unwrap();
        assert!(wal.pending() > 0);

        let outcome = std::thread::spawn(move || ticket.sync()).join().unwrap();
        wal.complete_sync(outcome).unwrap();
        assert_eq!(wal.inflight(), 0);
        assert_eq!(wal.durable_len(), MAGIC.len() as u64 + batch_n);

        wal.sync().unwrap();
        assert_eq!(wal.durable_len(), wal.len().unwrap());
        let s = scan(&RealFs, &path).unwrap();
        assert_eq!(s.units.len(), 2);
        assert!(s.torn.is_none());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A failed staged fsync discards the in-flight batch AND everything
    /// appended after it — later units cannot become durable in order.
    #[test]
    fn failed_staged_sync_discards_inflight_and_later_pending() {
        let dir = tmpdir("stagedfail");
        let path = dir.join("wal.bin");
        // Sync 0 is Wal::create's header sync; sync 1 is the staged one.
        let fault = FaultFs::fail_on(OpKind::Sync, 1, FaultKind::SyncFailure);
        let fs = fault.arc();
        let mut wal = Wal::create(fs.as_ref(), &path).unwrap();
        wal.append_commit_unit_buffered(1, None, &ops()).unwrap();
        let mut ticket = wal.stage_sync().unwrap();
        wal.append_commit_unit_buffered(2, None, &[Delta::DeleteNode { id: 0 }])
            .unwrap();
        let outcome = ticket.sync();
        assert!(outcome.is_err());
        wal.complete_sync(outcome).unwrap_err();
        assert_eq!(wal.pending(), 0);
        assert_eq!(wal.inflight(), 0);
        assert_eq!(wal.durable_len(), MAGIC.len() as u64);
        assert_eq!(wal.len().unwrap(), MAGIC.len() as u64);
        let s = scan(&RealFs, &path).unwrap();
        assert!(s.units.is_empty(), "neither batch survived");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// An append failure while a staged sync is in flight must roll back
    /// only the pending window — the staged bytes' fate belongs to
    /// `complete_sync`, and here they resolve durable.
    #[test]
    fn append_failure_preserves_staged_window() {
        let dir = tmpdir("stagedappendfail");
        let path = dir.join("wal.bin");
        // Write 0 is the header; write 1 is batch N; write 2 (batch N+1)
        // fails short.
        let fault = FaultFs::fail_on(OpKind::Write, 2, FaultKind::ShortWrite);
        let fs = fault.arc();
        let mut wal = Wal::create(fs.as_ref(), &path).unwrap();
        wal.append_commit_unit_buffered(1, None, &ops()).unwrap();
        let batch_n = wal.pending();
        let mut ticket = wal.stage_sync().unwrap();
        wal.append_commit_unit_buffered(2, None, &[Delta::DeleteNode { id: 0 }])
            .unwrap_err();
        assert_eq!(wal.inflight(), batch_n, "staged window untouched");
        assert_eq!(wal.len().unwrap(), MAGIC.len() as u64 + batch_n);

        wal.complete_sync(ticket.sync()).unwrap();
        assert_eq!(wal.durable_len(), MAGIC.len() as u64 + batch_n);
        let s = scan(&RealFs, &path).unwrap();
        assert_eq!(s.units.len(), 1, "batch N is durable, N+1 discarded");
        assert_eq!(s.units[0], (1, records(&ops())));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// `sync` with an empty window is free (no fsync issued).
    #[test]
    fn sync_without_pending_is_a_noop() {
        let dir = tmpdir("noopsync");
        let path = dir.join("wal.bin");
        let counting = FaultFs::counting();
        let fs = counting.arc();
        let mut wal = Wal::create(fs.as_ref(), &path).unwrap();
        let syncs = counting.ops_of(OpKind::Sync);
        wal.sync().unwrap();
        assert_eq!(counting.ops_of(OpKind::Sync), syncs);
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Same discipline for a short write (ENOSPC mid-buffer).
    #[test]
    fn short_write_rolls_back_to_durable_horizon() {
        let dir = tmpdir("shortwrite");
        let path = dir.join("wal.bin");
        // Write 0 is the header; write 1 is the first commit unit.
        let fault = FaultFs::fail_on(OpKind::Write, 1, FaultKind::ShortWrite);
        let fs = fault.arc();
        let mut wal = Wal::create(fs.as_ref(), &path).unwrap();
        wal.append_commit_unit(1, None, &ops()).unwrap_err();
        assert_eq!(wal.durable_len(), MAGIC.len() as u64);
        assert_eq!(wal.len().unwrap(), MAGIC.len() as u64);
        let s = scan(&RealFs, &path).unwrap();
        assert!(s.units.is_empty());
        assert!(s.torn.is_none(), "partial unit fully rolled back");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
