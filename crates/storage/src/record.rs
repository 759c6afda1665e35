//! Logical WAL records and their binary encoding.
//!
//! A record is a transaction boundary marker, the source statement of a
//! unit, or one primitive graph mutation. The mutation vocabulary is not
//! defined here: a mutation record *is* a [`cypher_graph::Delta`] — labels,
//! relationship types and property keys carried as strings, never as
//! interner symbols, so a log written by one process replays correctly in
//! another with a freshly-built interner. Entity ids, by contrast, are
//! physical — recovery must reproduce them exactly, because committed query
//! results may have exposed them (`id(n)`). This module owns only the byte
//! layout.
//!
//! ## Wire format
//!
//! All integers are little-endian. A record's *payload* is a one-byte tag
//! followed by its fields:
//!
//! ```text
//! u64            as 8 bytes LE
//! i64            as 8 bytes LE (two's complement)
//! f64            as 8 bytes LE (IEEE-754 bit pattern)
//! string         u32 length + UTF-8 bytes
//! value          1 tag byte + body (see `encode_value`); the elements
//!                of a list are scalars, never lists
//! props          u32 count + (string key, value) pairs
//! labels         u32 count + strings
//!
//! 0x01 Begin        u64 txid
//! 0x02 Commit       u64 txid
//! 0x03 Stmt         u8 dialect, string text
//! 0x10 CreateNode   u64 id, labels, props
//! 0x11 CreateRel    u64 id, u64 src, u64 tgt, string type, props
//! 0x12 DeleteNode   u64 id
//! 0x13 DeleteRel    u64 id
//! 0x14 AddLabel     u64 node, string label
//! 0x15 RemoveLabel  u64 node, string label
//! 0x16 SetProp      u8 kind (0 node, 1 rel), u64 id, string key,
//!                   u8 present (0 removes the key), value if present
//! ```
//!
//! Framing (length prefix + CRC) is the WAL's job, not the record's — see
//! [`crate::wal`].

use std::io;

use cypher_graph::{Delta, EntityRef, NodeId, RelId, Value};

/// One WAL record: a transaction boundary, a unit's source statement, or
/// one logical mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// Start of a committed unit. `txid`s are strictly increasing within
    /// one log file.
    Begin { txid: u64 },
    /// End of a committed unit. A unit whose `Commit` never made it to disk
    /// is discarded wholesale by recovery.
    Commit { txid: u64 },
    /// The source statement that produced this unit, written by the server
    /// as the unit's first record. Replay for *state* skips it (the
    /// mutation records that follow are authoritative); replication and the
    /// commit-log oracle recover it to re-ship or re-run the statement.
    Stmt {
        /// Dialect byte as the server encodes it (0 = Cypher 9, 1 = revised).
        dialect: u8,
        text: String,
    },
    /// One primitive graph mutation.
    Op(Delta),
}

// Record tags. Gaps are deliberate headroom for future record kinds.
const TAG_BEGIN: u8 = 0x01;
const TAG_COMMIT: u8 = 0x02;
const TAG_STMT: u8 = 0x03;
const TAG_CREATE_NODE: u8 = 0x10;
const TAG_CREATE_REL: u8 = 0x11;
const TAG_DELETE_NODE: u8 = 0x12;
const TAG_DELETE_REL: u8 = 0x13;
const TAG_ADD_LABEL: u8 = 0x14;
const TAG_REMOVE_LABEL: u8 = 0x15;
const TAG_SET_PROP: u8 = 0x16;

// Value tags.
const VTAG_BOOL: u8 = 0x01;
const VTAG_INT: u8 = 0x02;
const VTAG_FLOAT: u8 = 0x03;
const VTAG_STR: u8 = 0x04;
const VTAG_LIST: u8 = 0x05;

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

/// Copy a slice into a fixed-size array. Callers guarantee `s.len() == N`
/// (every call site sizes the slice with a bounds-checked `take`/range), so
/// this is the panic-free spelling of `try_into().unwrap()`.
pub(crate) fn arr<const N: usize>(s: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(s);
    a
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    // Strings come from interned symbols and property values; a 4 GiB one
    // cannot be constructed through the engine. Saturating keeps the
    // encoder total; the decoder's bounds checks reject the frame anyway.
    debug_assert!(s.len() <= u32::MAX as usize, "string longer than u32::MAX");
    put_u32(buf, u32::try_from(s.len()).unwrap_or(u32::MAX));
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            buf.push(VTAG_BOOL);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(VTAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(VTAG_FLOAT);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(VTAG_STR);
            put_str(buf, s);
        }
        Value::List(items) => {
            buf.push(VTAG_LIST);
            put_u32(buf, items.len() as u32);
            for item in items {
                encode_value(buf, item);
            }
        }
        other => unreachable!("non-storable value in a mutation record: {other:?}"),
    }
}

fn put_props(buf: &mut Vec<u8>, props: &[(String, Value)]) {
    put_u32(buf, props.len() as u32);
    for (k, v) in props {
        put_str(buf, k);
        encode_value(buf, v);
    }
}

fn put_strings(buf: &mut Vec<u8>, items: &[String]) {
    put_u32(buf, items.len() as u32);
    for s in items {
        put_str(buf, s);
    }
}

// ---------------------------------------------------------------------
// Primitive readers — every read is bounds-checked so that a corrupt
// payload yields `InvalidData`, never a panic.
// ---------------------------------------------------------------------

pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos == self.data.len()
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| corrupt("record payload truncated"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(arr(self.take(4)?)))
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(arr(self.take(8)?)))
    }

    pub(crate) fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_le_bytes(arr(self.take(8)?)))
    }

    pub(crate) fn str(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid UTF-8 in record string"))
    }

    /// A property value: a scalar or a list of scalars, exactly the shapes
    /// [`Value::storable_as_property`] admits. A list inside a list is
    /// corrupt, so decoding never recurses.
    pub(crate) fn value(&mut self) -> io::Result<Value> {
        match self.u8()? {
            VTAG_LIST => {
                let n = self.u32()? as usize;
                // Each element is at least 2 bytes; reject absurd counts
                // before allocating.
                if n > self.data.len() - self.pos {
                    return Err(corrupt("list length exceeds payload"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let tag = self.u8()?;
                    items.push(self.scalar(tag)?);
                }
                Ok(Value::List(items))
            }
            tag => self.scalar(tag),
        }
    }

    fn scalar(&mut self, tag: u8) -> io::Result<Value> {
        match tag {
            VTAG_BOOL => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(corrupt(format!("invalid bool byte {b:#x}"))),
            },
            VTAG_INT => Ok(Value::Int(self.i64()?)),
            VTAG_FLOAT => Ok(Value::Float(f64::from_bits(self.u64()?))),
            VTAG_STR => Ok(Value::Str(self.str()?)),
            VTAG_LIST => Err(corrupt("list nested in a list")),
            t => Err(corrupt(format!("unknown value tag {t:#x}"))),
        }
    }

    fn props(&mut self) -> io::Result<Vec<(String, Value)>> {
        let n = self.u32()? as usize;
        if n > self.data.len() - self.pos {
            return Err(corrupt("property count exceeds payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let k = self.str()?;
            let v = self.value()?;
            out.push((k, v));
        }
        Ok(out)
    }

    fn strings(&mut self) -> io::Result<Vec<String>> {
        let n = self.u32()? as usize;
        if n > self.data.len() - self.pos {
            return Err(corrupt("string count exceeds payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.str()?);
        }
        Ok(out)
    }
}

/// Append a [`Record::Stmt`] payload built from borrowed text.
pub(crate) fn encode_stmt(buf: &mut Vec<u8>, dialect: u8, text: &str) {
    buf.push(TAG_STMT);
    buf.push(dialect);
    put_str(buf, text);
}

/// Append a [`Record::Op`] payload.
pub(crate) fn encode_op(buf: &mut Vec<u8>, op: &Delta) {
    match op {
        Delta::CreateNode { id, labels, props } => {
            buf.push(TAG_CREATE_NODE);
            put_u64(buf, *id);
            put_strings(buf, labels);
            put_props(buf, props);
        }
        Delta::CreateRel {
            id,
            src,
            tgt,
            rel_type,
            props,
        } => {
            buf.push(TAG_CREATE_REL);
            put_u64(buf, *id);
            put_u64(buf, *src);
            put_u64(buf, *tgt);
            put_str(buf, rel_type);
            put_props(buf, props);
        }
        Delta::DeleteNode { id } => {
            buf.push(TAG_DELETE_NODE);
            put_u64(buf, *id);
        }
        Delta::DeleteRel { id } => {
            buf.push(TAG_DELETE_REL);
            put_u64(buf, *id);
        }
        Delta::AddLabel { node, label } => {
            buf.push(TAG_ADD_LABEL);
            put_u64(buf, *node);
            put_str(buf, label);
        }
        Delta::RemoveLabel { node, label } => {
            buf.push(TAG_REMOVE_LABEL);
            put_u64(buf, *node);
            put_str(buf, label);
        }
        Delta::SetProp { entity, key, value } => {
            buf.push(TAG_SET_PROP);
            match entity {
                EntityRef::Node(n) => {
                    buf.push(0);
                    put_u64(buf, n.0);
                }
                EntityRef::Rel(r) => {
                    buf.push(1);
                    put_u64(buf, r.0);
                }
            }
            put_str(buf, key);
            match value {
                None => buf.push(0),
                Some(v) => {
                    buf.push(1);
                    encode_value(buf, v);
                }
            }
        }
    }
}

impl Record {
    /// Append this record's payload (tag + fields, no framing) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Record::Begin { txid } => {
                buf.push(TAG_BEGIN);
                put_u64(buf, *txid);
            }
            Record::Commit { txid } => {
                buf.push(TAG_COMMIT);
                put_u64(buf, *txid);
            }
            Record::Stmt { dialect, text } => encode_stmt(buf, *dialect, text),
            Record::Op(op) => encode_op(buf, op),
        }
    }

    /// Decode one record from a complete payload. The whole payload must be
    /// consumed — trailing bytes mean corruption the CRC happened to miss.
    pub fn decode(payload: &[u8]) -> io::Result<Record> {
        let mut r = Reader::new(payload);
        let record = match r.u8()? {
            TAG_BEGIN => Record::Begin { txid: r.u64()? },
            TAG_COMMIT => Record::Commit { txid: r.u64()? },
            TAG_STMT => Record::Stmt {
                dialect: r.u8()?,
                text: r.str()?,
            },
            TAG_CREATE_NODE => Record::Op(Delta::CreateNode {
                id: r.u64()?,
                labels: r.strings()?,
                props: r.props()?,
            }),
            TAG_CREATE_REL => Record::Op(Delta::CreateRel {
                id: r.u64()?,
                src: r.u64()?,
                tgt: r.u64()?,
                rel_type: r.str()?,
                props: r.props()?,
            }),
            TAG_DELETE_NODE => Record::Op(Delta::DeleteNode { id: r.u64()? }),
            TAG_DELETE_REL => Record::Op(Delta::DeleteRel { id: r.u64()? }),
            TAG_ADD_LABEL => Record::Op(Delta::AddLabel {
                node: r.u64()?,
                label: r.str()?,
            }),
            TAG_REMOVE_LABEL => Record::Op(Delta::RemoveLabel {
                node: r.u64()?,
                label: r.str()?,
            }),
            TAG_SET_PROP => {
                let entity = match r.u8()? {
                    0 => EntityRef::Node(NodeId(r.u64()?)),
                    1 => EntityRef::Rel(RelId(r.u64()?)),
                    b => return Err(corrupt(format!("invalid entity kind {b:#x}"))),
                };
                let key = r.str()?;
                let value = match r.u8()? {
                    0 => None,
                    1 => Some(r.value()?),
                    b => return Err(corrupt(format!("invalid option byte {b:#x}"))),
                };
                Record::Op(Delta::SetProp { entity, key, value })
            }
            t => return Err(corrupt(format!("unknown record tag {t:#x}"))),
        };
        if !r.is_empty() {
            return Err(corrupt("trailing bytes after record"));
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(r: Record) {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(Record::decode(&buf).unwrap(), r, "payload {buf:?}");
    }

    fn set_prop(entity: EntityRef, value: Option<Value>) -> Record {
        Record::Op(Delta::SetProp {
            entity,
            key: "k".into(),
            value,
        })
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(Record::Begin { txid: 7 });
        round_trip(Record::Commit { txid: u64::MAX });
        round_trip(Record::Stmt {
            dialect: 1,
            text: "CREATE (:User {name: 'Ann'})".into(),
        });
        round_trip(Record::Stmt {
            dialect: 0,
            text: String::new(),
        });
        round_trip(Record::Op(Delta::CreateNode {
            id: 3,
            labels: vec!["User".into(), "Vendor".into()],
            props: vec![
                ("id".into(), Value::Int(-89)),
                ("name".into(), Value::Str("Bob".into())),
                ("score".into(), Value::Float(1.5)),
                ("active".into(), Value::Bool(true)),
                (
                    "tags".into(),
                    Value::List(vec![Value::Str("a".into()), Value::Int(2)]),
                ),
            ],
        }));
        round_trip(Record::Op(Delta::CreateRel {
            id: 0,
            src: 1,
            tgt: 1,
            rel_type: "SELF".into(),
            props: vec![],
        }));
        round_trip(Record::Op(Delta::DeleteNode { id: 12 }));
        round_trip(Record::Op(Delta::DeleteRel { id: 0 }));
        round_trip(Record::Op(Delta::AddLabel {
            node: 4,
            label: "Product".into(),
        }));
        round_trip(Record::Op(Delta::RemoveLabel {
            node: 4,
            label: "".into(),
        }));
        round_trip(set_prop(
            EntityRef::Node(NodeId(9)),
            Some(Value::Float(f64::NEG_INFINITY)),
        ));
        round_trip(set_prop(EntityRef::Rel(RelId(2)), None));
    }

    /// The on-disk format, pinned: one golden payload per record tag (and
    /// per value tag, inside the `CreateNode`), decoded and re-encoded. A
    /// data directory written by any earlier build must keep opening, so
    /// these bytes may only ever change together with [`crate::wal::MAGIC`].
    #[test]
    fn golden_bytes_per_tag() {
        let golden: [(&[u8], Record); 11] = [
            (b"\x01\x07\0\0\0\0\0\0\0", Record::Begin { txid: 7 }),
            (
                b"\x02\x08\x07\x06\x05\x04\x03\x02\x01",
                Record::Commit {
                    txid: 0x0102_0304_0506_0708,
                },
            ),
            (
                b"\x03\x01\x08\0\0\0RETURN 1",
                Record::Stmt {
                    dialect: 1,
                    text: "RETURN 1".into(),
                },
            ),
            (
                b"\x10\x03\0\0\0\0\0\0\0\
                  \x01\0\0\0\x04\0\0\0User\
                  \x05\0\0\0\
                  \x02\0\0\0id\x02\xfe\xff\xff\xff\xff\xff\xff\xff\
                  \x02\0\0\0ok\x01\x01\
                  \x01\0\0\0f\x03\0\0\0\0\0\0\xf8\x3f\
                  \x01\0\0\0s\x04\x02\0\0\0\xc3\xa9\
                  \x01\0\0\0l\x05\x01\0\0\0\x01\0",
                Record::Op(Delta::CreateNode {
                    id: 3,
                    labels: vec!["User".into()],
                    props: vec![
                        ("id".into(), Value::Int(-2)),
                        ("ok".into(), Value::Bool(true)),
                        ("f".into(), Value::Float(1.5)),
                        ("s".into(), Value::Str("é".into())),
                        ("l".into(), Value::List(vec![Value::Bool(false)])),
                    ],
                }),
            ),
            (
                b"\x11\x01\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0\x03\0\0\0\0\0\0\0\
                  \x01\0\0\0T\0\0\0\0",
                Record::Op(Delta::CreateRel {
                    id: 1,
                    src: 2,
                    tgt: 3,
                    rel_type: "T".into(),
                    props: vec![],
                }),
            ),
            (
                b"\x12\x0c\0\0\0\0\0\0\0",
                Record::Op(Delta::DeleteNode { id: 12 }),
            ),
            (
                b"\x13\0\0\0\0\0\0\0\0",
                Record::Op(Delta::DeleteRel { id: 0 }),
            ),
            (
                b"\x14\x04\0\0\0\0\0\0\0\x01\0\0\0P",
                Record::Op(Delta::AddLabel {
                    node: 4,
                    label: "P".into(),
                }),
            ),
            (
                b"\x15\x04\0\0\0\0\0\0\0\0\0\0\0",
                Record::Op(Delta::RemoveLabel {
                    node: 4,
                    label: String::new(),
                }),
            ),
            (
                b"\x16\0\x09\0\0\0\0\0\0\0\x01\0\0\0k\x01\x02\x01\0\0\0\0\0\0\0",
                set_prop(EntityRef::Node(NodeId(9)), Some(Value::Int(1))),
            ),
            (
                b"\x16\x01\x02\0\0\0\0\0\0\0\x01\0\0\0k\0",
                set_prop(EntityRef::Rel(RelId(2)), None),
            ),
        ];
        for (bytes, record) in golden {
            assert_eq!(
                Record::decode(bytes).unwrap(),
                record,
                "decode {bytes:02x?}"
            );
            let mut buf = Vec::new();
            record.encode(&mut buf);
            assert_eq!(buf, bytes, "encode {record:?}");
        }
    }

    /// Properties hold scalars or lists of scalars, so a list inside a list
    /// is corrupt. Nesting of any depth is refused at its second level,
    /// without recursing once per level.
    #[test]
    fn nested_lists_are_corrupt() {
        let set_prop_of = |value: &[u8]| {
            let mut payload = b"\x16\0\0\0\0\0\0\0\0\0\x01\0\0\0k\x01".to_vec();
            payload.extend_from_slice(value);
            payload
        };
        let one_list = set_prop_of(b"\x05\x01\0\0\0\x02\x01\0\0\0\0\0\0\0");
        assert_eq!(
            Record::decode(&one_list).unwrap(),
            set_prop(
                EntityRef::Node(NodeId(0)),
                Some(Value::List(vec![Value::Int(1)]))
            )
        );
        let list_in_list = set_prop_of(b"\x05\x01\0\0\0\x05\x01\0\0\0\x02\x01\0\0\0\0\0\0\0");
        let err = Record::decode(&list_in_list).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        let mut deep = Vec::new();
        for _ in 0..200_000 {
            deep.extend_from_slice(b"\x05\x01\0\0\0");
        }
        deep.extend_from_slice(b"\x02\x01\0\0\0\0\0\0\0");
        let err = Record::decode(&set_prop_of(&deep)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn nan_survives_bit_exactly() {
        let mut buf = Vec::new();
        set_prop(EntityRef::Node(NodeId(0)), Some(Value::Float(f64::NAN))).encode(&mut buf);
        match Record::decode(&buf).unwrap() {
            Record::Op(Delta::SetProp {
                value: Some(Value::Float(f)),
                ..
            }) => assert!(f.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_invalid_data_not_panic() {
        let mut buf = Vec::new();
        Record::Op(Delta::CreateNode {
            id: 1,
            labels: vec!["User".into()],
            props: vec![("id".into(), Value::Int(5))],
        })
        .encode(&mut buf);
        for cut in 0..buf.len() {
            let err = Record::decode(&buf[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        Record::Begin { txid: 1 }.encode(&mut buf);
        buf.push(0xAA);
        assert!(Record::decode(&buf).is_err());
    }
}
