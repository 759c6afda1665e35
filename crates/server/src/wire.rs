//! The binary wire protocol.
//!
//! Every message travels in one **frame**:
//!
//! ```text
//! [u32 payload length][u32 CRC-32 of payload][payload bytes]
//! ```
//!
//! All integers are little-endian. The CRC is the same IEEE polynomial the
//! storage layer uses for WAL records, so a corrupted or torn frame is
//! detected before any field is parsed. Payloads start with a one-byte
//! message tag (client tags `0x01..=0x10`, server tags `0x81..=0x91`)
//! followed by tag-specific fields.
//!
//! | tag    | message     | direction | fields |
//! |--------|-------------|-----------|--------|
//! | `0x01` | Hello       | C→S | `u16` protocol version, `u8` dialect, `u8` lint mode, 3×`u64` budgets (`u64::MAX` = server value; others clamped to the server's ceilings) |
//! | `0x02` | Run         | C→S | statement text |
//! | `0x03` | Pull        | C→S | `u32` max rows |
//! | `0x04` | Commit      | C→S | — (checkpoint the durable store) |
//! | `0x05` | Reset       | C→S | — (discard any pending result) |
//! | `0x06` | Goodbye     | C→S | — |
//! | `0x07` | Shutdown    | C→S | — (admin; refused unless enabled) |
//! | `0x08` | DumpGraph   | C→S | — (canonical `CREATE` script of the graph) |
//! | `0x09` | CommitLog   | C→S | — (the committed statements the catch-up mirror retains, in commit order) |
//! | `0x0A` | Subscribe   | C→S | `u64` from-sequence (replica tailer; terminal — the session becomes a unit stream) |
//! | `0x0B` | Promote     | C→S | — (admin; replica → primary failover) |
//! | `0x0C` | Stats       | C→S | — (role, epoch, sequence, queue depth, per-replica lag) |
//! | `0x0D` | Fence       | C→S | new-primary address, `u64` epoch (admin; permanently write-fence this server) |
//! | `0x0E` | Ack         | C→S | 2×`u64` (durably applied sequence, replica's view of the primary epoch) — sent by a replica tailer on its subscribe stream |
//! | `0x0F` | SubscribeQuery | C→S | query text (register a live view; terminal — the session becomes a delta stream) |
//! | `0x10` | UnsubscribeQuery | C→S | `u64` view id — sent on the delta stream to end it cleanly |
//! | `0x81` | HelloOk     | S→C | `u16` version, `u64` session id, effective-limits string |
//! | `0x82` | RunOk       | S→C | `u8` read-only flag, `u64` epoch, column names |
//! | `0x83` | Rows        | S→C | row block (values nested at most `MAX_VALUE_DEPTH` = 1 024 lists/maps deep), `u8` has-more flag, 7×`u64` update stats (nodes created, rels created, nodes deleted, rels deleted, props set, labels added, labels removed) |
//! | `0x84` | CommitOk    | S→C | — |
//! | `0x85` | ResetOk     | S→C | — |
//! | `0x86` | Bye         | S→C | — (also acknowledges Shutdown) |
//! | `0x87` | DumpOk      | S→C | script text |
//! | `0x88` | LogOk       | S→C | statement list |
//! | `0x89` | Unit        | S→C | `u64` sequence, `u8` dialect, statement text (one shipped commit unit) |
//! | `0x8A` | Snapshot    | S→C | `u64` sequence, snapshot-file bytes (replica bootstrap) |
//! | `0x8B` | SubscribeOk | S→C | 2×`u64` (current commit sequence, primary epoch) — re-sent periodically as the keepalive/heartbeat |
//! | `0x8C` | StatsOk     | S→C | `u8` role, redirect addr, 4×`u64` (epoch, commit seq, queue depth, primary-seen seq), `u64` replication epoch, `u8` quorum state, `u64` overflow drops, per-replica (addr, sent-seq, acked-seq) list, per-view (id, query, flags, rows, deltas, fallbacks) list |
//! | `0x8D` | PromoteOk   | S→C | `u64` sequence the new primary starts from |
//! | `0x8E` | FenceOk     | S→C | — |
//! | `0x8F` | Error       | S→C | `u16` code, `u8` retryable, message, detail |
//! | `0x90` | SubscribeQueryOk | S→C | `u64` view id, `u64` epoch, `u8` fallback flag, column names — the initial rows follow as the first `ViewDelta` |
//! | `0x91` | ViewDelta   | S→C | 3×`u64` (view id, statement sequence, epoch), add then remove row bags (row, `u64` multiplicity; same nesting cap as `Rows`); an empty batch is the idle keepalive |
//!
//! Values use a tagged encoding covering the full
//! [`Value`](cypher_graph::Value) enum; nodes, relationships and paths
//! travel as their numeric ids (the graph vocabulary is server-side).
//! Lists and maps nest at most [`MAX_VALUE_DEPTH`] levels deep; a deeper
//! value is a protocol error, so no frame can exhaust the decoder's stack.

use std::io::{self, Read, Write};

use cypher_graph::{PathValue, Value};
use cypher_ivm::ViewStat;
use cypher_storage::crc::crc32;

use crate::error::ErrorCode;

/// Protocol version spoken by this build. A client whose `Hello` carries a
/// different version is refused with [`ErrorCode::Version`].
pub const PROTOCOL_VERSION: u16 = 1;

/// Upper bound on a frame payload; anything larger is a protocol error
/// (protects the peer from a corrupted length prefix).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Deepest list/map nesting a decoded value may have: `MAX_VALUE_DEPTH`
/// nested lists decode, one more is a protocol error. Above what a parsed
/// literal can build on a session thread, and decodable on a 2 MiB stack.
pub const MAX_VALUE_DEPTH: usize = 1024;

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    Hello {
        version: u16,
        /// 0 = legacy Cypher 9, 1 = revised (§7).
        dialect: u8,
        /// 0 = off, 1 = warn, 2 = deny.
        lint: u8,
        /// Session budgets; `u64::MAX` means "use the server value".
        /// Anything else is clamped to the server-configured budget (the
        /// operator's flags are ceilings, not defaults) — the `HelloOk`
        /// reports the effective limits.
        max_rows: u64,
        max_writes: u64,
        timeout_ms: u64,
    },
    Run {
        text: String,
    },
    Pull {
        max: u32,
    },
    Commit,
    Reset,
    Goodbye,
    Shutdown,
    DumpGraph,
    CommitLog,
    /// Replica tailer handshake: stream committed units with sequence
    /// numbers greater than `from`. Terminal — after `SubscribeOk` the
    /// session speaks only `Snapshot`/`Unit`/`SubscribeOk` frames until the
    /// connection closes.
    Subscribe {
        from: u64,
    },
    /// Admin (gated): turn this replica into a primary.
    Promote,
    /// Observability: role, epoch, commit sequence, queue depth, lag.
    Stats,
    /// Admin (gated): permanently write-fence this server. `new_primary`
    /// (may be empty) and `epoch` (the election epoch the fencer rules in;
    /// 0 = unknown) are recorded in the durable fence marker.
    Fence {
        new_primary: String,
        epoch: u64,
    },
    /// Replica → primary on the subscribe stream: everything up to and
    /// including `seq` is fsynced on the replica. `epoch` is the replica's
    /// view of the primary epoch — a quorum-counting primary ignores acks
    /// from a different epoch.
    Ack {
        seq: u64,
        epoch: u64,
    },
    /// Register a live view over `text` in the session's dialect and lint
    /// mode. Terminal — after `SubscribeQueryOk` the session speaks only
    /// `ViewDelta` frames until the client sends `UnsubscribeQuery` or
    /// `Goodbye` (or drops the connection).
    SubscribeQuery {
        text: String,
    },
    /// Sent on the delta stream: tear down view `view` and end the stream
    /// with a clean `Bye`.
    UnsubscribeQuery {
        view: u64,
    },
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    HelloOk {
        version: u16,
        session: u64,
        /// The session's effective budgets, rendered by
        /// `ExecLimits`'s `Display` (same string the shell's `:limits`
        /// prints).
        limits: String,
    },
    RunOk {
        read_only: bool,
        /// Snapshot epoch the statement observed (diagnostics).
        epoch: u64,
        columns: Vec<String>,
    },
    Rows {
        rows: Vec<Vec<Value>>,
        has_more: bool,
        /// nodes created, rels created, nodes deleted, rels deleted,
        /// props set, labels added, labels removed — zero until the
        /// final block.
        stats: [u64; 7],
    },
    CommitOk,
    ResetOk,
    Bye,
    DumpOk {
        script: String,
    },
    LogOk {
        statements: Vec<String>,
    },
    /// One shipped commit unit (replication stream).
    Unit {
        seq: u64,
        dialect: u8,
        text: String,
    },
    /// Replica bootstrap payload: complete snapshot-file bytes covering
    /// every unit up to and including `seq`; tailing resumes after it.
    Snapshot {
        seq: u64,
        bytes: Vec<u8>,
    },
    /// Subscribe accepted; `seq` is the primary's current commit sequence
    /// and `epoch` its replication epoch. Re-sent periodically on an idle
    /// stream as a keepalive, so a replica can measure lag — and renew its
    /// liveness lease on the primary — even when no units flow.
    SubscribeOk {
        seq: u64,
        epoch: u64,
    },
    StatsOk {
        /// 0 = primary, 1 = replica, 2 = fenced.
        role: u8,
        /// Where writes should go instead (replica/fenced); empty on a
        /// primary.
        redirect: String,
        epoch: u64,
        /// Highest committed (durable) sequence number.
        commit_seq: u64,
        /// Apply-queue depth (jobs submitted but not yet finished).
        queue_len: u64,
        /// Replica only: the primary's commit sequence as last observed on
        /// the tail stream — `primary_seen - commit_seq` is applied lag.
        primary_seen: u64,
        /// The replication epoch this server rules (primary) or last
        /// observed from its primary (replica); on a fenced server, the
        /// epoch it was fenced in.
        repl_epoch: u64,
        /// Quorum state: 0 async, 1 in-sync, 2 degraded, 3 timed-out.
        quorum: u8,
        /// Cumulative subscribers dropped for feed-backlog overflow.
        overflow_drops: u64,
        /// Primary only: per-subscriber (address, highest sequence
        /// enqueued, highest sequence durably acknowledged) —
        /// `commit_seq - sent` is ship lag, `commit_seq - acked` is
        /// durability lag.
        replicas: Vec<(String, u64, u64)>,
        /// Registered live views and their maintenance counters.
        views: Vec<ViewStat>,
    },
    PromoteOk {
        /// Commit sequence the promoted primary starts accepting writes at.
        seq: u64,
    },
    FenceOk,
    Error {
        code: ErrorCode,
        retryable: bool,
        message: String,
        /// Structured payload for some codes (JSON-lines diagnostics for
        /// `Lint`); empty otherwise.
        detail: String,
    },
    /// Live-view registration accepted. The view's current rows arrive as
    /// the first `ViewDelta` (all adds), so the client replay starts from
    /// the registration snapshot.
    SubscribeQueryOk {
        view: u64,
        /// Snapshot epoch the registration observed.
        epoch: u64,
        /// `true` when the query re-evaluates in full at every commit
        /// instead of being incrementally maintained.
        fallback: bool,
        columns: Vec<String>,
    },
    /// One ordered delta batch for a registered view: rows to add and rows
    /// to retract, each with a multiplicity. An empty batch (no adds, no
    /// removes) is the idle keepalive.
    ViewDelta {
        view: u64,
        /// Commit sequence of the statement that produced the batch; 0 for
        /// the initial-snapshot batch and keepalives.
        seq: u64,
        epoch: u64,
        adds: Vec<(Vec<Value>, u64)>,
        removes: Vec<(Vec<Value>, u64)>,
    },
}

/// Why a frame or payload failed to decode.
#[derive(Debug)]
pub enum WireError {
    Io(io::Error),
    /// CRC mismatch, truncated payload, unknown tag, bad UTF-8, oversize
    /// frame: the connection is beyond recovery and should close.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    fn protocol(msg: impl Into<String>) -> WireError {
        WireError::Protocol(msg.into())
    }

    /// Did the peer just close the socket cleanly (EOF before any byte of
    /// a frame)? Sessions treat this as a silent Goodbye.
    pub fn is_clean_eof(&self) -> bool {
        matches!(self, WireError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }
}

pub type WireResult<T> = std::result::Result<T, WireError>;

/// Write one frame: length, CRC, payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> WireResult<()> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(WireError::protocol(format!(
            "outgoing frame of {} bytes exceeds MAX_FRAME",
            payload.len()
        )));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, verifying length bound and CRC.
pub fn read_frame(r: &mut impl Read) -> WireResult<Vec<u8>> {
    let mut head = [0u8; 8];
    r.read_exact(&mut head)?;
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if len > MAX_FRAME {
        return Err(WireError::protocol(format!(
            "frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(WireError::protocol("frame CRC mismatch"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------- encoding

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_str_list(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// View-delta row bags travel as (row, `u64` multiplicity) pairs.
fn put_row_bag(out: &mut Vec<u8>, bag: &[(Vec<Value>, u64)]) {
    put_u32(out, bag.len() as u32);
    for (row, n) in bag {
        put_u32(out, row.len() as u32);
        for v in row {
            put_value(out, v);
        }
        put_u64(out, *n);
    }
}

/// Value tags (`0x00..=0x09`).
fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0x00),
        Value::Bool(b) => {
            put_u8(out, 0x01);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, 0x02);
            put_u64(out, *i as u64);
        }
        Value::Float(x) => {
            put_u8(out, 0x03);
            put_u64(out, x.to_bits());
        }
        Value::Str(s) => {
            put_u8(out, 0x04);
            put_str(out, s);
        }
        Value::List(items) => {
            put_u8(out, 0x05);
            put_u32(out, items.len() as u32);
            for item in items {
                put_value(out, item);
            }
        }
        Value::Map(entries) => {
            put_u8(out, 0x06);
            put_u32(out, entries.len() as u32);
            for (k, item) in entries {
                put_str(out, k);
                put_value(out, item);
            }
        }
        Value::Node(id) => {
            put_u8(out, 0x07);
            put_u64(out, id.0);
        }
        Value::Rel(id) => {
            put_u8(out, 0x08);
            put_u64(out, id.0);
        }
        Value::Path(p) => {
            put_u8(out, 0x09);
            put_u32(out, p.nodes.len() as u32);
            for n in &p.nodes {
                put_u64(out, n.0);
            }
            put_u32(out, p.rels.len() as u32);
            for r in &p.rels {
                put_u64(out, r.0);
            }
        }
    }
}

// ---------------------------------------------------------------- decoding

/// Cursor over a frame payload with bounds-checked reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::protocol("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> WireResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn str(&mut self) -> WireResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::protocol("string field is not UTF-8"))
    }

    fn bytes(&mut self) -> WireResult<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn row(&mut self) -> WireResult<Vec<Value>> {
        let w = self.u32()? as usize;
        let mut row = Vec::with_capacity(w.min(4096));
        for _ in 0..w {
            row.push(self.value(0)?);
        }
        Ok(row)
    }

    fn row_bag(&mut self) -> WireResult<Vec<(Vec<Value>, u64)>> {
        let n = self.u32()? as usize;
        let mut bag = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            bag.push((self.row()?, self.u64()?));
        }
        Ok(bag)
    }

    fn str_list(&mut self) -> WireResult<Vec<String>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }

    /// One value nested inside `depth` lists/maps. Only the container arms
    /// recurse, and they keep this frame small: [`MAX_VALUE_DEPTH`] levels
    /// must fit a 2 MiB thread stack in a debug build.
    fn value(&mut self, depth: usize) -> WireResult<Value> {
        let tag = self.u8()?;
        if !matches!(tag, 0x05 | 0x06) {
            return self.leaf(tag);
        }
        if depth >= MAX_VALUE_DEPTH {
            return Err(WireError::protocol(format!(
                "value nested deeper than {MAX_VALUE_DEPTH} levels"
            )));
        }
        let n = self.u32()? as usize;
        if tag == 0x05 {
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                items.push(self.value(depth + 1)?);
            }
            Ok(Value::List(items))
        } else {
            let mut entries = std::collections::BTreeMap::new();
            for _ in 0..n {
                let k = self.str()?;
                entries.insert(k, self.value(depth + 1)?);
            }
            Ok(Value::Map(entries))
        }
    }

    /// A value that contains no other value.
    fn leaf(&mut self, tag: u8) -> WireResult<Value> {
        Ok(match tag {
            0x00 => Value::Null,
            0x01 => Value::Bool(self.u8()? != 0),
            0x02 => Value::Int(self.u64()? as i64),
            0x03 => Value::Float(f64::from_bits(self.u64()?)),
            0x04 => Value::Str(self.str()?),
            0x07 => Value::Node(cypher_graph::NodeId(self.u64()?)),
            0x08 => Value::Rel(cypher_graph::RelId(self.u64()?)),
            0x09 => {
                let n = self.u32()? as usize;
                let mut nodes = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    nodes.push(cypher_graph::NodeId(self.u64()?));
                }
                let m = self.u32()? as usize;
                let mut rels = Vec::with_capacity(m.min(4096));
                for _ in 0..m {
                    rels.push(cypher_graph::RelId(self.u64()?));
                }
                Value::Path(PathValue { nodes, rels })
            }
            tag => return Err(WireError::protocol(format!("unknown value tag {tag:#04x}"))),
        })
    }

    fn finish(self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::protocol(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Hello {
                version,
                dialect,
                lint,
                max_rows,
                max_writes,
                timeout_ms,
            } => {
                put_u8(&mut out, 0x01);
                put_u16(&mut out, *version);
                put_u8(&mut out, *dialect);
                put_u8(&mut out, *lint);
                put_u64(&mut out, *max_rows);
                put_u64(&mut out, *max_writes);
                put_u64(&mut out, *timeout_ms);
            }
            Request::Run { text } => {
                put_u8(&mut out, 0x02);
                put_str(&mut out, text);
            }
            Request::Pull { max } => {
                put_u8(&mut out, 0x03);
                put_u32(&mut out, *max);
            }
            Request::Commit => put_u8(&mut out, 0x04),
            Request::Reset => put_u8(&mut out, 0x05),
            Request::Goodbye => put_u8(&mut out, 0x06),
            Request::Shutdown => put_u8(&mut out, 0x07),
            Request::DumpGraph => put_u8(&mut out, 0x08),
            Request::CommitLog => put_u8(&mut out, 0x09),
            Request::Subscribe { from } => {
                put_u8(&mut out, 0x0A);
                put_u64(&mut out, *from);
            }
            Request::Promote => put_u8(&mut out, 0x0B),
            Request::Stats => put_u8(&mut out, 0x0C),
            Request::Fence { new_primary, epoch } => {
                put_u8(&mut out, 0x0D);
                put_str(&mut out, new_primary);
                put_u64(&mut out, *epoch);
            }
            Request::Ack { seq, epoch } => {
                put_u8(&mut out, 0x0E);
                put_u64(&mut out, *seq);
                put_u64(&mut out, *epoch);
            }
            Request::SubscribeQuery { text } => {
                put_u8(&mut out, 0x0F);
                put_str(&mut out, text);
            }
            Request::UnsubscribeQuery { view } => {
                put_u8(&mut out, 0x10);
                put_u64(&mut out, *view);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> WireResult<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            0x01 => Request::Hello {
                version: r.u16()?,
                dialect: r.u8()?,
                lint: r.u8()?,
                max_rows: r.u64()?,
                max_writes: r.u64()?,
                timeout_ms: r.u64()?,
            },
            0x02 => Request::Run { text: r.str()? },
            0x03 => Request::Pull { max: r.u32()? },
            0x04 => Request::Commit,
            0x05 => Request::Reset,
            0x06 => Request::Goodbye,
            0x07 => Request::Shutdown,
            0x08 => Request::DumpGraph,
            0x09 => Request::CommitLog,
            0x0A => Request::Subscribe { from: r.u64()? },
            0x0B => Request::Promote,
            0x0C => Request::Stats,
            0x0D => Request::Fence {
                new_primary: r.str()?,
                epoch: r.u64()?,
            },
            0x0E => Request::Ack {
                seq: r.u64()?,
                epoch: r.u64()?,
            },
            0x0F => Request::SubscribeQuery { text: r.str()? },
            0x10 => Request::UnsubscribeQuery { view: r.u64()? },
            tag => {
                return Err(WireError::protocol(format!(
                    "unknown request tag {tag:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::HelloOk {
                version,
                session,
                limits,
            } => {
                put_u8(&mut out, 0x81);
                put_u16(&mut out, *version);
                put_u64(&mut out, *session);
                put_str(&mut out, limits);
            }
            Response::RunOk {
                read_only,
                epoch,
                columns,
            } => {
                put_u8(&mut out, 0x82);
                put_u8(&mut out, u8::from(*read_only));
                put_u64(&mut out, *epoch);
                put_str_list(&mut out, columns);
            }
            Response::Rows {
                rows,
                has_more,
                stats,
            } => {
                put_u8(&mut out, 0x83);
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_u32(&mut out, row.len() as u32);
                    for v in row {
                        put_value(&mut out, v);
                    }
                }
                put_u8(&mut out, u8::from(*has_more));
                for s in stats {
                    put_u64(&mut out, *s);
                }
            }
            Response::CommitOk => put_u8(&mut out, 0x84),
            Response::ResetOk => put_u8(&mut out, 0x85),
            Response::Bye => put_u8(&mut out, 0x86),
            Response::DumpOk { script } => {
                put_u8(&mut out, 0x87);
                put_str(&mut out, script);
            }
            Response::LogOk { statements } => {
                put_u8(&mut out, 0x88);
                put_str_list(&mut out, statements);
            }
            Response::Unit { seq, dialect, text } => {
                put_u8(&mut out, 0x89);
                put_u64(&mut out, *seq);
                put_u8(&mut out, *dialect);
                put_str(&mut out, text);
            }
            Response::Snapshot { seq, bytes } => {
                put_u8(&mut out, 0x8A);
                put_u64(&mut out, *seq);
                put_bytes(&mut out, bytes);
            }
            Response::SubscribeOk { seq, epoch } => {
                put_u8(&mut out, 0x8B);
                put_u64(&mut out, *seq);
                put_u64(&mut out, *epoch);
            }
            Response::StatsOk {
                role,
                redirect,
                epoch,
                commit_seq,
                queue_len,
                primary_seen,
                repl_epoch,
                quorum,
                overflow_drops,
                replicas,
                views,
            } => {
                put_u8(&mut out, 0x8C);
                put_u8(&mut out, *role);
                put_str(&mut out, redirect);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *commit_seq);
                put_u64(&mut out, *queue_len);
                put_u64(&mut out, *primary_seen);
                put_u64(&mut out, *repl_epoch);
                put_u8(&mut out, *quorum);
                put_u64(&mut out, *overflow_drops);
                put_u32(&mut out, replicas.len() as u32);
                for (addr, sent, acked) in replicas {
                    put_str(&mut out, addr);
                    put_u64(&mut out, *sent);
                    put_u64(&mut out, *acked);
                }
                put_u32(&mut out, views.len() as u32);
                for v in views {
                    put_u64(&mut out, v.id);
                    put_str(&mut out, &v.query);
                    // bit 0 = incremental, bit 1 = broken.
                    let flags = u8::from(v.incremental) | (u8::from(v.broken) << 1);
                    put_u8(&mut out, flags);
                    put_u64(&mut out, v.rows);
                    put_u64(&mut out, v.deltas);
                    put_u64(&mut out, v.fallbacks);
                }
            }
            Response::PromoteOk { seq } => {
                put_u8(&mut out, 0x8D);
                put_u64(&mut out, *seq);
            }
            Response::FenceOk => put_u8(&mut out, 0x8E),
            Response::Error {
                code,
                retryable,
                message,
                detail,
            } => {
                put_u8(&mut out, 0x8F);
                put_u16(&mut out, *code as u16);
                put_u8(&mut out, u8::from(*retryable));
                put_str(&mut out, message);
                put_str(&mut out, detail);
            }
            Response::SubscribeQueryOk {
                view,
                epoch,
                fallback,
                columns,
            } => {
                put_u8(&mut out, 0x90);
                put_u64(&mut out, *view);
                put_u64(&mut out, *epoch);
                put_u8(&mut out, u8::from(*fallback));
                put_str_list(&mut out, columns);
            }
            Response::ViewDelta {
                view,
                seq,
                epoch,
                adds,
                removes,
            } => {
                put_u8(&mut out, 0x91);
                put_u64(&mut out, *view);
                put_u64(&mut out, *seq);
                put_u64(&mut out, *epoch);
                put_row_bag(&mut out, adds);
                put_row_bag(&mut out, removes);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> WireResult<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            0x81 => Response::HelloOk {
                version: r.u16()?,
                session: r.u64()?,
                limits: r.str()?,
            },
            0x82 => Response::RunOk {
                read_only: r.u8()? != 0,
                epoch: r.u64()?,
                columns: r.str_list()?,
            },
            0x83 => {
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    rows.push(r.row()?);
                }
                let has_more = r.u8()? != 0;
                let mut stats = [0u64; 7];
                for s in &mut stats {
                    *s = r.u64()?;
                }
                Response::Rows {
                    rows,
                    has_more,
                    stats,
                }
            }
            0x84 => Response::CommitOk,
            0x85 => Response::ResetOk,
            0x86 => Response::Bye,
            0x87 => Response::DumpOk { script: r.str()? },
            0x88 => Response::LogOk {
                statements: r.str_list()?,
            },
            0x89 => Response::Unit {
                seq: r.u64()?,
                dialect: r.u8()?,
                text: r.str()?,
            },
            0x8A => Response::Snapshot {
                seq: r.u64()?,
                bytes: r.bytes()?,
            },
            0x8B => Response::SubscribeOk {
                seq: r.u64()?,
                epoch: r.u64()?,
            },
            0x8C => {
                let role = r.u8()?;
                let redirect = r.str()?;
                let epoch = r.u64()?;
                let commit_seq = r.u64()?;
                let queue_len = r.u64()?;
                let primary_seen = r.u64()?;
                let repl_epoch = r.u64()?;
                let quorum = r.u8()?;
                let overflow_drops = r.u64()?;
                let n = r.u32()? as usize;
                let mut replicas = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let addr = r.str()?;
                    let sent = r.u64()?;
                    replicas.push((addr, sent, r.u64()?));
                }
                let m = r.u32()? as usize;
                let mut views = Vec::with_capacity(m.min(4096));
                for _ in 0..m {
                    let id = r.u64()?;
                    let query = r.str()?;
                    let flags = r.u8()?;
                    views.push(ViewStat {
                        id,
                        query,
                        incremental: flags & 1 != 0,
                        broken: flags & 2 != 0,
                        rows: r.u64()?,
                        deltas: r.u64()?,
                        fallbacks: r.u64()?,
                    });
                }
                Response::StatsOk {
                    role,
                    redirect,
                    epoch,
                    commit_seq,
                    queue_len,
                    primary_seen,
                    repl_epoch,
                    quorum,
                    overflow_drops,
                    replicas,
                    views,
                }
            }
            0x8D => Response::PromoteOk { seq: r.u64()? },
            0x8E => Response::FenceOk,
            0x8F => Response::Error {
                code: ErrorCode::from_u16(r.u16()?),
                retryable: r.u8()? != 0,
                message: r.str()?,
                detail: r.str()?,
            },
            0x90 => Response::SubscribeQueryOk {
                view: r.u64()?,
                epoch: r.u64()?,
                fallback: r.u8()? != 0,
                columns: r.str_list()?,
            },
            0x91 => Response::ViewDelta {
                view: r.u64()?,
                seq: r.u64()?,
                epoch: r.u64()?,
                adds: r.row_bag()?,
                removes: r.row_bag()?,
            },
            tag => {
                return Err(WireError::protocol(format!(
                    "unknown response tag {tag:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_graph::{NodeId, RelId};

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req.encode()).unwrap();
        let payload = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp.encode()).unwrap();
        let payload = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Hello {
            version: PROTOCOL_VERSION,
            dialect: 1,
            lint: 2,
            max_rows: u64::MAX,
            max_writes: 10,
            timeout_ms: 250,
        });
        roundtrip_req(Request::Run {
            text: "MATCH (n) RETURN n.name AS déjà — 'vu'".into(),
        });
        roundtrip_req(Request::Pull { max: 1000 });
        for req in [
            Request::Commit,
            Request::Reset,
            Request::Goodbye,
            Request::Shutdown,
            Request::DumpGraph,
            Request::CommitLog,
            Request::Subscribe { from: 42 },
            Request::Promote,
            Request::Stats,
            Request::Fence {
                new_primary: "127.0.0.1:7879".into(),
                epoch: 4,
            },
            Request::Fence {
                new_primary: String::new(),
                epoch: 0,
            },
            Request::Ack { seq: 77, epoch: 2 },
            Request::SubscribeQuery {
                text: "MATCH (n:Person) RETURN n.name".into(),
            },
            Request::UnsubscribeQuery { view: 3 },
        ] {
            roundtrip_req(req);
        }
    }

    #[test]
    fn replication_responses_roundtrip() {
        roundtrip_resp(Response::Unit {
            seq: 9,
            dialect: 1,
            text: "CREATE (:N)".into(),
        });
        roundtrip_resp(Response::Snapshot {
            seq: 17,
            bytes: vec![0xCA, 0xFE, 0x00, 0x42],
        });
        roundtrip_resp(Response::SubscribeOk { seq: 0, epoch: 1 });
        roundtrip_resp(Response::StatsOk {
            role: 1,
            redirect: "10.0.0.1:7878".into(),
            epoch: 3,
            commit_seq: 120,
            queue_len: 2,
            primary_seen: 125,
            repl_epoch: 2,
            quorum: 1,
            overflow_drops: 4,
            replicas: vec![("10.0.0.2:51234".into(), 118, 117)],
            views: vec![
                ViewStat {
                    id: 1,
                    query: "MATCH (n:Person) RETURN n.name".into(),
                    incremental: true,
                    rows: 12,
                    deltas: 30,
                    fallbacks: 0,
                    broken: false,
                },
                ViewStat {
                    id: 2,
                    query: "MATCH (n) RETURN n.x ORDER BY n.x".into(),
                    incremental: false,
                    rows: 3,
                    deltas: 5,
                    fallbacks: 40,
                    broken: true,
                },
            ],
        });
        roundtrip_resp(Response::StatsOk {
            role: 0,
            redirect: String::new(),
            epoch: 0,
            commit_seq: 0,
            queue_len: 0,
            primary_seen: 0,
            repl_epoch: 0,
            quorum: 0,
            overflow_drops: 0,
            replicas: vec![],
            views: vec![],
        });
        roundtrip_resp(Response::PromoteOk { seq: 121 });
        roundtrip_resp(Response::FenceOk);
    }

    #[test]
    fn live_view_responses_roundtrip() {
        roundtrip_resp(Response::SubscribeQueryOk {
            view: 7,
            epoch: 3,
            fallback: false,
            columns: vec!["n.name".into(), "count(*)".into()],
        });
        roundtrip_resp(Response::ViewDelta {
            view: 7,
            seq: 42,
            epoch: 3,
            adds: vec![
                (vec![Value::str("a"), Value::Int(2)], 1),
                (vec![Value::Null, Value::Float(1.5)], 3),
            ],
            removes: vec![(vec![Value::str("b"), Value::Int(1)], 1)],
        });
        // Empty batch doubles as the keepalive frame.
        roundtrip_resp(Response::ViewDelta {
            view: 7,
            seq: 0,
            epoch: 3,
            adds: vec![],
            removes: vec![],
        });
    }

    #[test]
    fn responses_roundtrip_with_every_value_kind() {
        roundtrip_resp(Response::HelloOk {
            version: 1,
            session: 42,
            limits: "limits: rows 100, time 250 ms".into(),
        });
        roundtrip_resp(Response::RunOk {
            read_only: true,
            epoch: 7,
            columns: vec!["a".into(), "b".into()],
        });
        let deep = Value::List(vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-5),
            Value::Float(2.5),
            Value::str("hi"),
            Value::Map([("k".to_string(), Value::Int(1))].into_iter().collect()),
            Value::Node(NodeId(9)),
            Value::Rel(RelId(3)),
            Value::Path(PathValue {
                nodes: vec![NodeId(1), NodeId(2)],
                rels: vec![RelId(8)],
            }),
        ]);
        roundtrip_resp(Response::Rows {
            rows: vec![vec![deep, Value::Int(1)], vec![Value::Null, Value::Null]],
            has_more: false,
            stats: [1, 2, 3, 4, 5, 6, 7],
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Busy,
            retryable: true,
            message: "server at capacity".into(),
            detail: String::new(),
        });
        for resp in [Response::CommitOk, Response::ResetOk, Response::Bye] {
            roundtrip_resp(resp);
        }
        roundtrip_resp(Response::DumpOk {
            script: "CREATE (:A);".into(),
        });
        roundtrip_resp(Response::LogOk {
            statements: vec!["CREATE (:A)".into(), "CREATE (:B)".into()],
        });
    }

    #[test]
    fn corrupted_frame_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Commit.encode()).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Protocol(m) if m.contains("CRC")));
    }

    #[test]
    fn oversize_frame_is_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Protocol(m) if m.contains("MAX_FRAME")));
    }

    #[test]
    fn trailing_bytes_are_a_protocol_error() {
        let mut payload = Request::Commit.encode();
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
    }
}
