//! The traced run: per-layer metrics.
//!
//! `--trace` never feeds an end-to-end number. It does three things:
//!
//! 1. runs the workload untraced for half the measured time and then again
//!    with client-side spans for the other half — the ratio of the two
//!    throughputs is `trace.overhead_ratio`, and the untraced half gives
//!    the per-class client numbers (`client.*`);
//! 2. **replays** the same seeded stream single-threaded through the
//!    layers in the order `SharedStore` calls them — parse → lint →
//!    `apply_buffered_logged{run_query}` → `flush` → epoch bump, a snapshot
//!    publish before the first read after a write, `ViewManager::
//!    apply_statement` when views are registered — with a span around each
//!    call, so a statement's time is attributed to the crate it was spent
//!    in without instrumenting any of them;
//! 3. probes single public functions that the replay cannot isolate
//!    (`integrity_check` runs inside `run_query`; a wire round trip needs a
//!    server) on the workload's own graph.
//!
//! Layers are this repository's crates: `parser`, `analysis`, `core`,
//! `graph`, `storage`, `server`, `replication`, `ivm`, `datagen`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cypher_analysis::analyze;
use cypher_core::{Dialect, Engine, EngineBuilder};
use cypher_graph::{EpochSnapshots, PropertyGraph};
use cypher_ivm::{Delta, ViewManager};
use cypher_parser::{parse, validate, Query};
use cypher_replication::{Role, ShippedUnit};
use cypher_server::{
    Client, HelloOptions, ReplicaApply, ServerConfig, SharedStore, StoreOptions, WriteOutcome,
};
use cypher_storage::DurableGraph;

use super::clients::{drive, Phase};
use super::import::{import_engine, ImportBatches, IMPORT_BATCH_ROWS, IMPORT_MERGE_SAME};
use super::preload::{output_dir, Dataset, Scratch};
use super::report::{Meta, Metrics, PER_LAYER};
use super::stats::median_of;
use super::stream::{OpKind, Shape, StatementStream, SCAN_TEXT};
use super::trace::{merge, stage_stats, write_trace, Recorder, Span, StageStat};
use super::workload::{
    measure_restart, setup_servers, validate as validate_run, RunConfig, Servers, WindowStats,
    Workload, FALLBACK_VIEWS, MAINTAINED_VIEWS, PROBE_VIEW,
};
use super::{Ctx, Res};

/// What a traced run reports.
pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub trace_file: PathBuf,
}

/// Wall-clock budget of the stage replay and of each probe loop. Probes
/// are medians of single calls, so a handful of samples is enough; the
/// budgets keep a traced run on the 100k graph (where one write costs
/// >100 ms) inside the time an untraced run takes.
const REPLAY_BUDGET: Duration = Duration::from_millis(2_000);
const REPLAY_MAX_STATEMENTS: usize = 2_000;
const PROBE_BUDGET: Duration = Duration::from_millis(300);
const PROBE_MAX_SAMPLES: usize = 400;
const PROBE_MIN_SAMPLES: usize = 3;

/// The engine a server session builds (`ServerConfig::new` defaults).
fn session_engine() -> Engine {
    let cfg = ServerConfig::new("unused");
    EngineBuilder::new(cfg.dialect)
        .read_workers(cfg.read_workers)
        .morsel_size(cfg.morsel_size)
        .parallel_threshold(cfg.parallel_threshold)
        .build()
}

/// Call `f` until the budget or the sample cap is reached; the median
/// duration in microseconds.
fn probe_us(mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let started = Instant::now();
    let mut us = Vec::new();
    while us.len() < PROBE_MIN_SAMPLES
        || (started.elapsed() < PROBE_BUDGET && us.len() < PROBE_MAX_SAMPLES)
    {
        let t0 = Instant::now();
        f()?;
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    Ok(median_of(us))
}

// ---------------------------------------------------------------------
// Stage replay
// ---------------------------------------------------------------------

/// What the replay feeds through the layers.
enum Source {
    Stream(StatementStream),
    Import(ImportBatches),
}

struct Replayed {
    spans: Vec<Span>,
    statements: usize,
    writes: usize,
    rows_merged: usize,
    elapsed_s: f64,
    wal_bytes: u64,
    register_ms: f64,
    fallbacks: u64,
    delta_rows: u64,
    durable: DurableGraph,
}

struct Views {
    maintained: ViewManager,
    fallback: ViewManager,
    register_ms: f64,
}

fn register_probe_views(graph: &PropertyGraph) -> Res<Views> {
    let engine = Engine::revised();
    let mut maintained = ViewManager::new(graph, 0);
    let t0 = Instant::now();
    for text in std::iter::once(PROBE_VIEW).chain(MAINTAINED_VIEWS) {
        let reg = maintained.register(text, &engine).ctx("register view")?;
        if reg.fallback {
            return Err(format!("view `{text}` is no longer maintainable"));
        }
    }
    let register_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut fallback = ViewManager::new(graph, 0);
    for text in FALLBACK_VIEWS {
        let reg = fallback.register(text, &engine).ctx("register view")?;
        if !reg.fallback {
            return Err(format!("view `{text}` no longer forces a fallback"));
        }
    }
    Ok(Views {
        maintained,
        fallback,
        register_ms,
    })
}

/// Replay `source` on a freshly installed data directory, one statement at
/// a time, recording a span per layer call.
fn replay(data: &Dataset, dir: &Path, mut source: Source, with_views: bool) -> Res<Replayed> {
    data.install(dir)?;
    let mut durable = DurableGraph::open(dir).ctx("replay: open")?;
    let wal = dir.join("wal.bin");
    let wal_len = || std::fs::metadata(&wal).map_or(0, |m| m.len());
    let wal0 = wal_len();
    let snaps = EpochSnapshots::new();
    snaps.publish(durable.graph());
    let mut views = if with_views {
        Some(register_probe_views(durable.graph())?)
    } else {
        None
    };
    let read_engine = session_engine();
    let dialect = read_engine.dialect;
    let dialect_byte = cypher_server::store::dialect_byte(dialect);
    let mut rec = Recorder::new(Instant::now());
    let (mut statements, mut writes, mut rows_merged, mut delta_rows) = (0, 0, 0, 0u64);
    let started = Instant::now();

    while started.elapsed() < REPLAY_BUDGET && statements < REPLAY_MAX_STATEMENTS {
        let op = statements as u64;
        let (kind, text, engine) = match &mut source {
            Source::Stream(s) => {
                let st = s.next_stmt();
                (st.kind, st.text, read_engine.clone())
            }
            Source::Import(b) => {
                let rows = b.next_batch();
                rows_merged += IMPORT_BATCH_ROWS;
                (
                    OpKind::WriteRel,
                    IMPORT_MERGE_SAME.to_owned(),
                    import_engine(Dialect::Revised, rows),
                )
            }
        };
        statements += 1;
        let root = rec.enter("statement", op);

        let s = rec.enter("parser.parse", op);
        let query: Query = parse(&text).ctx("replay: parse")?;
        validate(&query, dialect).ctx("replay: validate")?;
        rec.exit(s);

        let s = rec.enter("analysis.lint", op);
        std::hint::black_box(analyze(&text, &query, dialect));
        rec.exit(s);

        if kind.is_read() {
            let snap = match snaps.cached() {
                Some(snap) => snap,
                None => {
                    let s = rec.enter("graph.publish", op);
                    let snap = snaps.publish(durable.graph());
                    rec.exit(s);
                    snap
                }
            };
            let s = rec.enter(read_span(kind), op);
            engine.run_read_query(&snap, &query).ctx("replay: read")?;
            rec.exit(s);
        } else {
            writes += 1;
            let s = rec.enter("storage.apply", op);
            let applied = durable.apply_buffered_logged(Some((dialect_byte, &text)), |g| {
                let inner = rec.enter("core.run_write", op);
                let out = engine.run_query(g, &query);
                rec.exit(inner);
                out
            });
            rec.exit(s);
            let (result, seq) = applied.ctx("replay: apply")?;
            result.ctx("replay: write")?;

            let s = rec.enter("storage.flush", op);
            durable.flush().ctx("replay: flush")?;
            rec.exit(s);

            let s = rec.enter("graph.bump", op);
            snaps.bump();
            rec.exit(s);

            if let (Some(v), Some(seq)) = (views.as_mut(), seq) {
                let ops = durable.take_last_delta();
                let deltas = Delta::from_ops(&ops, durable.graph());
                let s = rec.enter("ivm.maintained", op);
                let updates = v.maintained.apply_statement(seq, &deltas)?;
                rec.exit(s);
                let s = rec.enter("ivm.fallback", op);
                let more = v.fallback.apply_statement(seq, &deltas)?;
                rec.exit(s);
                delta_rows += updates
                    .iter()
                    .chain(&more)
                    .map(|u| (u.adds.len() + u.removes.len()) as u64)
                    .sum::<u64>();
            }
        }
        rec.exit(root);
    }

    let fallbacks = views.as_ref().map_or(0, |v| {
        v.fallback.stats().iter().map(|s| s.fallbacks).sum::<u64>()
    });
    Ok(Replayed {
        spans: rec.into_spans(),
        statements,
        writes,
        rows_merged,
        elapsed_s: started.elapsed().as_secs_f64(),
        wal_bytes: wal_len().saturating_sub(wal0),
        register_ms: views.as_ref().map_or(0.0, |v| v.register_ms),
        fallbacks,
        delta_rows,
        durable,
    })
}

fn read_span(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read2Hop => "core.read_2hop",
        OpKind::ReadScan => "core.read_scan",
        _ => "core.read_point",
    }
}

// ---------------------------------------------------------------------
// Probes of single public functions
// ---------------------------------------------------------------------

struct GraphProbes {
    integrity_check_us: f64,
    publish_us: f64,
    read_point_us: f64,
    read_2hop_us: f64,
    read_scan_us: f64,
}

fn probe_graph(graph: &PropertyGraph, w: Workload, cfg: &RunConfig) -> Res<GraphProbes> {
    let integrity_check_us = probe_us(|| graph.integrity_check().ctx("integrity check"))?;
    // One epoch turn as the store pays it: the bump drops the previous
    // snapshot (freeing a whole graph when no reader still holds it) and
    // the publish clones the next one.
    let snaps = EpochSnapshots::new();
    let publish_us = probe_us(|| {
        snaps.bump();
        std::hint::black_box(snaps.publish(graph));
        Ok(())
    })?;
    let snap: Arc<PropertyGraph> = snaps.publish(graph);
    let engine = session_engine();
    let keys = w.preset(cfg.check).keys();
    let mut stream = StatementStream::new(Shape::PointAnd2Hop, keys, cfg.seed, 0, 1);
    let mut points = Vec::new();
    let mut hops = Vec::new();
    for _ in 0..PROBE_MAX_SAMPLES {
        points.push(parse(&stream.next_stmt().text).ctx("parse point read")?);
        hops.push(parse(&stream.next_stmt().text).ctx("parse 2-hop read")?);
    }
    let scan = parse(SCAN_TEXT).ctx("parse scan")?;
    let run_each = |queries: &[Query]| -> Res<f64> {
        let mut i = 0;
        probe_us(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            engine
                .run_read_query(&snap, q)
                .map(|_| ())
                .ctx("read probe")
        })
    };
    Ok(GraphProbes {
        integrity_check_us,
        publish_us,
        read_point_us: run_each(&points)?,
        read_2hop_us: run_each(&hops)?,
        read_scan_us: run_each(std::slice::from_ref(&scan))?,
    })
}

struct StorageProbes {
    recover_ms: f64,
    checkpoint_ms: f64,
    snapshot_bytes_per_entity: f64,
}

/// `DurableGraph::open` on snapshot + the replay's WAL (measured exactly as
/// `restart_s` is), then `checkpoint` on the reopened store.
fn probe_storage(dir: &Path, scratch: &Path, durable: DurableGraph) -> Res<StorageProbes> {
    drop(durable);
    let (recover_s, mut durable) = measure_restart(dir, scratch, 3)?;
    let mut checkpoint_ms = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        durable.checkpoint().ctx("checkpoint probe")?;
        checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let entities = (durable.graph().node_count() + durable.graph().rel_count()).max(1);
    let bytes = std::fs::metadata(durable.dir().join("snapshot.bin")).map_or(0, |m| m.len());
    Ok(StorageProbes {
        recover_ms: recover_s * 1e3,
        checkpoint_ms: median_of(checkpoint_ms),
        snapshot_bytes_per_entity: bytes as f64 / entities as f64,
    })
}

#[derive(Default)]
struct ServerProbes {
    wire_rtt_us: f64,
    submit_write_us: f64,
    snapshot_after_write_us: f64,
}

/// Probe the running primary: a wire round trip that touches no graph,
/// `submit_write` without the wire, and the snapshot a reader needs right
/// after a write. Runs after validation — it changes the graph.
fn probe_server(servers: &Servers, w: Workload, cfg: &RunConfig) -> Res<ServerProbes> {
    let mut client = Client::connect(servers.primary.addr(), &HelloOptions::server_defaults())
        .ctx("probe connect")?;
    let wire_rtt_us = probe_us(|| client.run("RETURN 1 AS one").map(|_| ()).ctx("wire probe"))?;
    let _ = client.goodbye();

    let store = servers.primary.store();
    let engine = Engine::revised();
    let keys = w.preset(cfg.check).keys();
    // Its own partition count keeps these ids apart from nothing — the
    // run is validated already — but its own seed keeps them repeatable.
    let mut stream = StatementStream::new(Shape::ViewWriter, keys, cfg.seed ^ 0x5eed, 0, 1);
    let (mut submit_us, mut snapshot_us) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while submit_us.len() < PROBE_MIN_SAMPLES
        || (started.elapsed() < 2 * PROBE_BUDGET && submit_us.len() < PROBE_MAX_SAMPLES)
    {
        let text = stream.next_stmt().text;
        let t0 = Instant::now();
        let outcome = store
            .submit_write(text, engine.clone())
            .map_err(|b| format!("submit probe: busy ({})", b.0))?;
        submit_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if !matches!(outcome, WriteOutcome::Ok(_)) {
            return Err(format!("submit probe: {outcome:?}"));
        }
        let t1 = Instant::now();
        let snap = store.snapshot();
        snapshot_us.push(t1.elapsed().as_nanos() as f64 / 1e3);
        if snap.is_none() {
            return Err("snapshot probe: queue refused".to_owned());
        }
    }
    Ok(ServerProbes {
        wire_rtt_us,
        submit_write_us: median_of(submit_us),
        snapshot_after_write_us: median_of(snapshot_us),
    })
}

/// `SharedStore::replicate` on a stand-alone replica store: the cost of
/// applying one shipped unit, without the network.
fn probe_replication(data: &Dataset, dir: &Path, w: Workload, cfg: &RunConfig) -> Res<f64> {
    data.install(dir)?;
    let durable = DurableGraph::open(dir).ctx("replica probe: open")?;
    let store = SharedStore::start_with(
        durable,
        StoreOptions {
            role: Role::Replica {
                primary: "probe".to_owned(),
            },
            ..StoreOptions::default()
        },
    );
    let keys = w.preset(cfg.check).keys();
    let mut stream = StatementStream::new(Shape::WriteOnly, keys, cfg.seed, 0, 2);
    let mut seq = 0;
    let result = probe_us(|| {
        seq += 1;
        let unit = ShippedUnit {
            seq,
            dialect: 1,
            text: stream.next_stmt().text,
        };
        match store.replicate(unit) {
            Ok(ReplicaApply::Applied) => Ok(()),
            Ok(other) => Err(format!("replica probe: {other:?}")),
            Err(b) => Err(format!("replica probe: busy ({})", b.0)),
        }
    });
    store.shutdown();
    result
}

/// In-memory `Engine::run` of the import batches under each MERGE policy:
/// rows per second, for `MERGE SAME`, `MERGE ALL` and legacy `MERGE`.
fn probe_merge(data: &Dataset, w: Workload, cfg: &RunConfig) -> Res<[f64; 3]> {
    let variants = [
        (Dialect::Revised, IMPORT_MERGE_SAME.to_owned()),
        (
            Dialect::Revised,
            IMPORT_MERGE_SAME.replace("MERGE SAME", "MERGE ALL"),
        ),
        (
            Dialect::Cypher9,
            IMPORT_MERGE_SAME.replace("MERGE SAME", "MERGE"),
        ),
    ];
    let mut out = [0.0; 3];
    for (slot, (dialect, text)) in out.iter_mut().zip(variants) {
        let mut graph = data.graph.clone();
        let mut batches = ImportBatches::new(w.preset(cfg.check), cfg.seed);
        let started = Instant::now();
        let mut rows = 0usize;
        let mut busy = Duration::ZERO;
        while rows < 2 * IMPORT_BATCH_ROWS || started.elapsed() < 2 * PROBE_BUDGET {
            let engine = import_engine(dialect, batches.next_batch());
            let t0 = Instant::now();
            engine.run(&mut graph, &text).ctx("merge probe")?;
            busy += t0.elapsed();
            rows += IMPORT_BATCH_ROWS;
        }
        *slot = rows as f64 / busy.as_secs_f64().max(1e-9);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

#[derive(Default)]
struct Numbers {
    untraced: WindowStats,
    traced_ops_s: f64,
    generate_s: f64,
    preload_s: f64,
    converge_ms: f64,
    server: ServerProbes,
    replicate_us: f64,
    merge_rows_s: [f64; 3],
}

pub fn run(w: Workload, cfg: &RunConfig, meta: &Meta) -> Res<Traced> {
    let cfg = RunConfig { setups: 1, ..*cfg };
    let scratch = Scratch::new(&format!("{}-trace", w.name()))?;
    let mut spans: Vec<Span> = Vec::new();
    let mut n = Numbers::default();

    let (data, source) = if w == Workload::ImportMerge10k {
        // Embedded workload: the untraced half is a plain run; the replay
        // below is its traced half.
        let half = RunConfig {
            seconds: cfg.seconds / 2.0,
            ..cfg
        };
        let outcome = super::workload::run(w, &half)?;
        n.untraced = outcome.window;
        n.generate_s = outcome.setup.generate_s;
        n.preload_s = outcome.setup.preload_s;
        let data = Dataset::build(w.preset(cfg.check))?;
        n.merge_rows_s = probe_merge(&data, w, &cfg)?;
        let source = Source::Import(ImportBatches::new(w.preset(cfg.check), cfg.seed));
        (data, source)
    } else {
        let (data, servers, cost) = setup_servers(w, &cfg, &scratch, true)?;
        n.generate_s = cost.generate_s;
        n.preload_s = cost.preload_s;
        let half = cfg.seconds / 2.0;
        let phases = [
            Phase {
                seconds: cfg.warmup_s,
                traced: false,
            },
            Phase {
                seconds: half,
                traced: false,
            },
            Phase {
                seconds: half,
                traced: true,
            },
        ];
        let result = drive(w, &servers, &cfg, &phases, true).and_then(|driven| {
            let (_, recovered) = measure_restart(&servers.primary_dir, scratch.path(), 1)?;
            validate_run(w, &data, &servers, &driven, recovered.graph())?;
            n.untraced = driven.window(1);
            n.traced_ops_s = driven.window(2).all_ops_s();
            n.converge_ms = driven.converge_ms;
            for c in driven.clients {
                merge(&mut spans, c.spans);
            }
            n.server = probe_server(&servers, w, &cfg)?;
            Ok(())
        });
        servers.stop();
        result?;
        if w == Workload::QuorumPair10k {
            n.replicate_us = probe_replication(&data, &scratch.dir("replica-probe"), w, &cfg)?;
        }
        let keys = w.preset(cfg.check).keys();
        let (shape, parts) = match w {
            Workload::ReadOnly10k => (Shape::ReadOnly, 2),
            Workload::LiveViews10k => (Shape::ViewWriter, 1),
            Workload::QuorumPair10k => (Shape::WriteOnly, 2),
            _ => (Shape::OltpMix, 2),
        };
        let source = Source::Stream(StatementStream::new(shape, keys, cfg.seed, 0, parts));
        (data, source)
    };

    let replay_dir = scratch.dir("replay");
    let replayed = replay(&data, &replay_dir, source, w == Workload::LiveViews10k)?;
    let stages = stage_stats(&replayed.spans);
    let graph_probes = probe_graph(replayed.durable.graph(), w, &cfg)?;
    if w == Workload::ImportMerge10k {
        n.traced_ops_s = replayed.statements as f64 / replayed.elapsed_s.max(1e-9);
    }
    let writes = replayed.writes.max(1) as f64;
    let had_views = w == Workload::LiveViews10k && replayed.writes > 0;
    if had_views && replayed.fallbacks != replayed.writes as u64 * FALLBACK_VIEWS.len() as u64 {
        return Err(format!(
            "{}: {} fallback re-evaluations over {} statements, expected exactly {} per statement",
            w.name(),
            replayed.fallbacks,
            replayed.writes,
            FALLBACK_VIEWS.len()
        ));
    }
    let wal_bytes_per_write = if replayed.rows_merged > 0 {
        replayed.wal_bytes as f64 / replayed.rows_merged as f64
    } else {
        replayed.wal_bytes as f64 / writes
    };
    let Replayed {
        spans: replay_spans,
        statements,
        fallbacks,
        delta_rows,
        register_ms,
        durable,
        ..
    } = replayed;
    merge(&mut spans, replay_spans);
    let storage = probe_storage(&replay_dir, scratch.path(), durable)?;

    let stage = |name: &str| stages.get(name).copied().unwrap_or_default();
    let med = |name: &str| stage(name).median_us;
    let run_write_us = med("core.run_write");
    let headline_ms = if w.headline_is_write() {
        n.untraced.write.p50_ms
    } else {
        n.untraced.read.p50_ms
    };
    // Stage medians on the headline statement's blocking path. Lint is
    // measured but not on it: the server's default lint mode is off.
    let path_us = if w.headline_is_write() {
        med("parser.parse") + med("storage.apply") + med("storage.flush") + med("graph.bump")
    } else {
        med("parser.parse") + med("core.read_point")
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let u = &n.untraced;
    let values: Vec<(&'static str, f64)> = vec![
        ("client.write_mean_ms", u.write.mean_ms),
        ("client.write_p50_ms", u.write.p50_ms),
        ("client.write_p95_ms", u.write.p95_ms),
        ("client.write_p99_ms", u.write.p99_ms),
        ("client.write_samples", u.write.samples as f64),
        ("client.read_mean_ms", u.read.mean_ms),
        ("client.read_p50_ms", u.read.p50_ms),
        ("client.read_p95_ms", u.read.p95_ms),
        ("client.read_p99_ms", u.read.p99_ms),
        ("client.read_samples", u.read.samples as f64),
        ("client.notify_p50_ms", u.notify.p50_ms),
        ("client.notify_p95_ms", u.notify.p95_ms),
        ("client.notify_samples", u.notify.samples as f64),
        ("client.import_rows_s", u.import_rows_s),
        ("client.wal_bytes_per_write", u.wal_bytes_per_write),
        ("parser.parse_us", med("parser.parse")),
        ("analysis.lint_us", med("analysis.lint")),
        ("core.read_point_us", graph_probes.read_point_us),
        ("core.read_2hop_us", graph_probes.read_2hop_us),
        ("core.read_scan_us", graph_probes.read_scan_us),
        ("core.run_write_us", run_write_us),
        (
            "core.run_write_net_us",
            (run_write_us - graph_probes.integrity_check_us).max(0.0),
        ),
        ("core.merge_same_rows_s", n.merge_rows_s[0]),
        ("core.merge_all_rows_s", n.merge_rows_s[1]),
        ("core.merge_legacy_rows_s", n.merge_rows_s[2]),
        ("graph.integrity_check_us", graph_probes.integrity_check_us),
        ("graph.publish_us", graph_probes.publish_us),
        (
            "storage.apply_self_us",
            stage("storage.apply").self_median_us,
        ),
        ("storage.flush_us", med("storage.flush")),
        (
            "storage.flushes_per_write",
            u.flushes_per_write.unwrap_or(0.0),
        ),
        ("storage.wal_bytes_per_write", wal_bytes_per_write),
        ("storage.checkpoint_ms", storage.checkpoint_ms),
        ("storage.recover_ms", storage.recover_ms),
        (
            "storage.snapshot_bytes_per_entity",
            storage.snapshot_bytes_per_entity,
        ),
        ("server.wire_rtt_us", n.server.wire_rtt_us),
        ("server.submit_write_us", n.server.submit_write_us),
        (
            "server.snapshot_after_write_us",
            n.server.snapshot_after_write_us,
        ),
        ("server.queue_len_max", u.queue_len_max as f64),
        ("server.busy_retries", u.busy_retries as f64),
        ("replication.replicate_us_per_unit", n.replicate_us),
        ("replication.lag_units_max", u.lag_units_max as f64),
        ("replication.converge_ms", n.converge_ms),
        ("ivm.register_ms", register_ms),
        ("ivm.maintained_us_per_stmt", med("ivm.maintained")),
        ("ivm.fallback_us_per_stmt", med("ivm.fallback")),
        (
            "ivm.fallbacks_per_stmt",
            if had_views {
                fallbacks as f64 / writes
            } else {
                0.0
            },
        ),
        (
            "ivm.delta_rows_per_stmt",
            if had_views {
                delta_rows as f64 / writes
            } else {
                0.0
            },
        ),
        ("datagen.generate_s", n.generate_s),
        ("bench.preload_s", n.preload_s),
        ("trace.coverage_ratio", ratio(path_us / 1e3, headline_ms)),
        ("trace.overhead_ratio", ratio(n.traced_ops_s, u.all_ops_s())),
        ("trace.replayed_statements", statements as f64),
        ("trace.untraced_ops_s", u.all_ops_s()),
        ("trace.traced_ops_s", n.traced_ops_s),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    print_stages(&stages);

    let trace_file = output_dir()?.join(format!("{}.trace.json", w.name()));
    write_trace(&trace_file, &meta.json(), &spans)?;
    Ok(Traced {
        metrics: values,
        attempted: u.attempted,
        failed: u.failed,
        trace_file,
    })
}

fn print_stages(stages: &std::collections::BTreeMap<&'static str, StageStat>) {
    println!("  stages (median us, self-time median us, count):");
    for (name, st) in stages {
        println!(
            "    {name:<20} {:>12.2} {:>12.2} {:>8}",
            st.median_us, st.self_median_us, st.count
        );
    }
}
