//! Frame-robustness torture: truncations and corruptions of valid frames
//! must surface as typed [`WireError`]s — never a panic, never a hang.
//!
//! The replication tailer trusts this property completely: its recovery
//! story ("any decode error → drop the connection and re-subscribe") is
//! only sound if no byte stream can wedge or crash the decoder.

use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use cypher_graph::Value;
use cypher_server::wire::{
    read_frame, write_frame, Request, Response, WireError, MAX_FRAME, MAX_VALUE_DEPTH,
    PROTOCOL_VERSION,
};
use cypher_server::{serve, ServerConfig};

/// A representative sample of every frame family, both directions,
/// including the replication frames added for log shipping.
fn sample_payloads() -> Vec<Vec<u8>> {
    let requests = [
        Request::Hello {
            version: PROTOCOL_VERSION,
            dialect: 1,
            lint: 2,
            max_rows: 10_000,
            max_writes: 500,
            timeout_ms: 2_000,
        },
        Request::Run {
            text: "CREATE (a:Person {name: 'Nils'})-[:KNOWS]->(:Person)".to_owned(),
        },
        Request::Pull { max: 128 },
        Request::Subscribe { from: 42 },
        Request::Promote,
        Request::Stats,
        Request::Fence {
            new_primary: "10.0.0.7:7878".to_owned(),
            epoch: 5,
        },
        Request::Ack { seq: 41, epoch: 5 },
        Request::CommitLog,
        Request::SubscribeQuery {
            text: "MATCH (n:Person) RETURN n.name".to_owned(),
        },
        Request::UnsubscribeQuery { view: 3 },
    ];
    let responses = [
        Response::HelloOk {
            version: PROTOCOL_VERSION,
            session: 7,
            limits: "rows=10000 writes=500 timeout=2000ms".to_owned(),
        },
        Response::Unit {
            seq: 99,
            dialect: 1,
            text: "MATCH (n) DETACH DELETE n".to_owned(),
        },
        Response::Snapshot {
            seq: 12,
            bytes: vec![0xAB; 64],
        },
        Response::SubscribeOk { seq: 12, epoch: 5 },
        Response::StatsOk {
            role: 1,
            redirect: "127.0.0.1:7878".to_owned(),
            epoch: 3,
            commit_seq: 41,
            queue_len: 2,
            primary_seen: 44,
            repl_epoch: 5,
            quorum: 1,
            overflow_drops: 2,
            replicas: vec![("10.0.0.8:9999".to_owned(), 41, 40)],
            views: vec![cypher_ivm::ViewStat {
                id: 1,
                query: "MATCH (n) RETURN count(*)".to_owned(),
                incremental: true,
                rows: 1,
                deltas: 7,
                fallbacks: 0,
                broken: false,
            }],
        },
        Response::PromoteOk { seq: 41 },
        Response::FenceOk,
        Response::SubscribeQueryOk {
            view: 3,
            epoch: 5,
            fallback: false,
            columns: vec!["n.name".to_owned()],
        },
        Response::ViewDelta {
            view: 3,
            seq: 44,
            epoch: 5,
            adds: vec![(vec![cypher_graph::Value::str("Nils")], 1)],
            removes: vec![(vec![cypher_graph::Value::Null], 2)],
        },
    ];
    requests
        .iter()
        .map(Request::encode)
        .chain(responses.iter().map(Response::encode))
        .collect()
}

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).unwrap();
    buf
}

/// Every proper prefix of a valid frame must decode to a typed error.
#[test]
fn every_byte_truncation_is_a_typed_error() {
    for payload in sample_payloads() {
        let frame = frame_bytes(&payload);
        for cut in 0..frame.len() {
            let mut cursor = Cursor::new(&frame[..cut]);
            let result = read_frame(&mut cursor);
            assert!(
                result.is_err(),
                "truncation to {cut}/{} bytes decoded as a frame",
                frame.len()
            );
        }
        // Sanity: the untruncated frame still round-trips.
        let mut cursor = Cursor::new(&frame[..]);
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
    }
}

/// Flipping any single byte of a valid frame — header or payload — must be
/// detected: the length bound catches a wild length prefix, the CRC
/// catches everything else.
#[test]
fn every_single_byte_corruption_is_detected() {
    for payload in sample_payloads() {
        let frame = frame_bytes(&payload);
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xFF;
            let mut cursor = Cursor::new(&bad[..]);
            let result = read_frame(&mut cursor);
            assert!(
                result.is_err(),
                "corruption at byte {i}/{} went undetected",
                frame.len()
            );
        }
    }
}

/// Even when a corrupted payload slips past framing (possible only if an
/// attacker recomputes the CRC), the tag-level decoders must return typed
/// errors, not panic: flip every byte of every payload and decode both
/// ways. `Ok` is acceptable (some flips produce a different valid message);
/// a panic fails the test.
#[test]
fn corrupted_payloads_never_panic_the_decoders() {
    for payload in sample_payloads() {
        for i in 0..payload.len() {
            let mut bad = payload.clone();
            bad[i] ^= 0xFF;
            let _ = Request::decode(&bad);
            let _ = Response::decode(&bad);
        }
        // Truncated payloads (framing already validated length/CRC, but
        // decoders must still bounds-check their reads).
        for cut in 0..payload.len() {
            let _ = Request::decode(&payload[..cut]);
            let _ = Response::decode(&payload[..cut]);
        }
    }
}

/// A length prefix beyond `MAX_FRAME` is refused before any allocation or
/// read of the oversized body.
#[test]
fn oversize_length_prefix_is_refused() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    let mut cursor = Cursor::new(&bytes[..]);
    let err = read_frame(&mut cursor).unwrap_err();
    assert!(
        err.to_string().contains("MAX_FRAME"),
        "expected the length-bound error, got: {err}"
    );
}

/// A `Rows` frame carrying one value nested `depth` lists deep.
fn nested_rows(depth: usize) -> Response {
    let mut value = Value::Int(1);
    for _ in 0..depth {
        value = Value::List(vec![value]);
    }
    Response::Rows {
        rows: vec![vec![value]],
        has_more: false,
        stats: [0; 7],
    }
}

/// A value at the nesting cap decodes, one level more is a protocol error
/// — on a 2 MiB thread, the stack a session or tailer thread gets.
#[test]
fn value_nesting_is_capped() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let at_cap = nested_rows(MAX_VALUE_DEPTH);
            assert_eq!(Response::decode(&at_cap.encode()).unwrap(), at_cap);
            let over = nested_rows(MAX_VALUE_DEPTH + 1).encode();
            assert!(matches!(
                Response::decode(&over),
                Err(WireError::Protocol(_))
            ));
        })
        .unwrap()
        .join()
        .unwrap();
}

/// A 1 MB `Rows` payload of 200 000 nested list headers is refused with a
/// typed error instead of recursing once per header.
#[test]
fn deeply_nested_frame_is_a_typed_error() {
    let mut payload = vec![0x83];
    payload.extend_from_slice(&1u32.to_le_bytes()); // one row
    payload.extend_from_slice(&1u32.to_le_bytes()); // of one value
    for _ in 0..200_000 {
        payload.push(0x05);
        payload.extend_from_slice(&1u32.to_le_bytes());
    }
    payload.push(0x00);
    payload.push(0);
    payload.extend_from_slice(&[0; 7 * 8]);
    assert!(matches!(
        Response::decode(&payload),
        Err(WireError::Protocol(_))
    ));
}

/// A live server fed a truncated frame must drop the connection promptly —
/// no hang, no crash — and keep serving other sessions afterwards.
#[test]
fn live_server_survives_truncated_and_corrupt_frames() {
    let dir = std::env::temp_dir().join(format!("cypher-torture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let handle = serve(ServerConfig::new(&dir)).unwrap();

    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        dialect: 1,
        lint: 0,
        max_rows: u64::MAX,
        max_writes: u64::MAX,
        timeout_ms: u64::MAX,
    };
    let attacks: Vec<Vec<u8>> = vec![
        // Half a header.
        vec![0x10, 0x00, 0x00],
        // Header promising 16 bytes, delivering 3.
        {
            let mut b = Vec::new();
            b.extend_from_slice(&16u32.to_le_bytes());
            b.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
            b.extend_from_slice(&[1, 2, 3]);
            b
        },
        // Valid framing, corrupted payload byte.
        {
            let mut b = frame_bytes(&hello.encode());
            let last = b.len() - 1;
            b[last] ^= 0xFF;
            b
        },
        // Oversize length prefix.
        {
            let mut b = Vec::new();
            b.extend_from_slice(&u32::MAX.to_le_bytes());
            b.extend_from_slice(&0u32.to_le_bytes());
            b
        },
    ];
    for attack in attacks {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&attack).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        // The server must close the connection (EOF) rather than hang; a
        // read timeout here means a wedged session thread.
        let mut sink = Vec::new();
        let outcome = stream.read_to_end(&mut sink);
        assert!(
            outcome.is_ok(),
            "session hung instead of closing on garbage input"
        );
    }

    // The server is still healthy: a well-formed session works.
    let mut client = cypher_server::Client::connect(
        handle.addr(),
        &cypher_server::HelloOptions::server_defaults(),
    )
    .unwrap();
    client.run("CREATE (:Survivor)").unwrap();
    let rows = client.run("MATCH (n:Survivor) RETURN n").unwrap();
    assert_eq!(rows.rows.len(), 1);

    // A statement nested far past the parser's bound is a parse error,
    // not a dead session thread, and the session goes on serving.
    let hostile = format!("RETURN {}1{}", "(".repeat(100_000), ")".repeat(100_000));
    let err = client.run(&hostile).expect_err("nesting past the bound");
    assert_eq!(err.code(), Some(cypher_server::ErrorCode::Parse), "{err}");
    let rows = client.run("MATCH (n:Survivor) RETURN n").unwrap();
    assert_eq!(rows.rows.len(), 1);
    client.goodbye().unwrap();
    let mut fresh = cypher_server::Client::connect(
        handle.addr(),
        &cypher_server::HelloOptions::server_defaults(),
    )
    .unwrap();
    let rows = fresh.run("MATCH (n:Survivor) RETURN n").unwrap();
    assert_eq!(rows.rows.len(), 1);
    fresh.goodbye().unwrap();
    handle.stop();
}
