//! The closed loop: client connections, the probe subscriber, the poller,
//! and the phases they move through together.
//!
//! Every client sends its next statement only after the reply to the last
//! one. All clients enter and leave a phase (warm-up, measured, traced)
//! at a barrier, so a phase's wall time and its samples belong together.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cypher_core::Engine;
use cypher_server::{Client, HelloOptions, SharedStore, ViewEvent};

use super::oracle::{checksum_rows, Executed};
use super::stats::LatencySummary;
use super::stream::{OpKind, Shape, StatementStream};
use super::trace::{Recorder, Span};
use super::workload::{
    RunConfig, Servers, WindowStats, Workload, FALLBACK_VIEWS, MAINTAINED_VIEWS, PROBE_VIEW,
};
use super::{Ctx, Res};

/// One measured statement.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub kind: OpKind,
    pub latency_ns: u64,
    /// When the reply arrived, relative to the run's origin.
    pub end_ns: u64,
}

/// What one client connection did in one phase.
#[derive(Default)]
pub struct PhaseLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub busy_retries: u64,
}

/// What one client connection did over all phases.
#[derive(Default)]
pub struct ClientLog {
    /// Every successfully executed statement, in order (for the oracle).
    pub executed: Vec<Executed>,
    /// Reply time of every successful write, in order (view notification
    /// latency is measured from here).
    pub write_acks_ns: Vec<u64>,
    pub phases: Vec<PhaseLog>,
    pub spans: Vec<Span>,
    pub fatal: Option<String>,
}

/// A phase of the closed loop; all clients enter and leave it together.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    pub seconds: f64,
    /// Record client-side spans (the traced re-run).
    pub traced: bool,
}

struct Shared {
    origin: Instant,
    barrier: Barrier,
    /// Deadline of the current phase, ns after `origin`.
    deadline_ns: AtomicU64,
}

const BUSY_ATTEMPTS: u32 = 50;

/// Where a client connects and what it sends.
pub struct ClientPlan {
    pub addr: String,
    pub stream: StatementStream,
    /// In-process view subscriptions this client drains between statements
    /// (the hub cuts off a subscriber whose backlog fills).
    pub drain: Vec<Receiver<ViewEvent>>,
}

fn client_loop(plan: ClientPlan, phases: &[Phase], shared: &Shared) -> ClientLog {
    let mut log = ClientLog::default();
    let mut stream = plan.stream;
    let mut client = match Client::connect(&plan.addr, &HelloOptions::server_defaults()) {
        Ok(c) => Some(c),
        Err(e) => {
            log.fatal = Some(format!("connect {}: {e}", plan.addr));
            None
        }
    };
    let mut rec = Recorder::new(shared.origin);
    for phase in phases {
        shared.barrier.wait();
        let deadline = Duration::from_nanos(shared.deadline_ns.load(Ordering::Acquire));
        rec.recording = phase.traced;
        let mut done = PhaseLog::default();
        while shared.origin.elapsed() < deadline {
            let Some(conn) = client.as_mut() else { break };
            let op_id = stream.position();
            let root = rec.enter("client.statement", op_id);
            let generate = rec.enter("client.generate", op_id);
            let stmt = stream.next_stmt();
            rec.exit(generate);
            done.attempted += 1;
            let run = rec.enter("client.run", op_id);
            let t0 = Instant::now();
            let mut tries = 0;
            let reply = loop {
                match conn.run(&stmt.text) {
                    Err(e) if e.is_busy() && tries < BUSY_ATTEMPTS => {
                        tries += 1;
                        done.busy_retries += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    other => break other,
                }
            };
            let latency_ns = t0.elapsed().as_nanos() as u64;
            let end_ns = shared.origin.elapsed().as_nanos() as u64;
            rec.exit(run);
            match reply {
                Ok(out) => {
                    let check = rec.enter("client.checksum", op_id);
                    let checksum = if stmt.kind.is_read() {
                        checksum_rows(&out.rows)
                    } else {
                        log.write_acks_ns.push(end_ns);
                        0
                    };
                    rec.exit(check);
                    done.samples.push(Sample {
                        kind: stmt.kind,
                        latency_ns,
                        end_ns,
                    });
                    log.executed.push(Executed {
                        kind: stmt.kind,
                        text: stmt.text,
                        checksum,
                    });
                }
                Err(e) => {
                    done.failed += 1;
                    if log.fatal.is_none() {
                        log.fatal = Some(format!("`{}`: {e}", stmt.text));
                    }
                    // A refused statement breaks the stream's own
                    // assumptions (a later DELETE expects this CREATE);
                    // workloads are chosen so that none fails.
                    client = None;
                }
            }
            for rx in &plan.drain {
                while rx.try_recv().is_ok() {}
            }
            rec.exit(root);
        }
        shared.barrier.wait();
        log.phases.push(done);
    }
    if let Some(c) = client {
        let _ = c.goodbye();
    }
    log.spans = rec.into_spans();
    log
}

/// What the probe subscriber saw.
#[derive(Default)]
pub struct ProbeLog {
    /// `(commit seq, receipt time ns after origin)` of every delta batch.
    pub receipts: Vec<(u64, u64)>,
    /// The view's rows as accumulated from the initial batch and every
    /// delta: debug-rendered row → multiplicity.
    pub rows: std::collections::BTreeMap<String, i64>,
    pub fatal: Option<String>,
}

/// Subscribe to [`PROBE_VIEW`] over a real connection and apply delta
/// batches until `stop_after` names the last commit sequence to wait for.
fn probe_loop(addr: String, origin: Instant, ready: &Barrier, stop_after: &AtomicU64) -> ProbeLog {
    let mut log = ProbeLog::default();
    let connect = Client::connect(&addr, &HelloOptions::server_defaults())
        .map_err(|e| e.to_string())
        .and_then(|mut c| match c.subscribe_query(PROBE_VIEW) {
            Ok(sub) if !sub.fallback => Ok((c, sub.view)),
            Ok(_) => Err("the probe view registered as a fallback view".to_owned()),
            Err(e) => Err(e.to_string()),
        });
    ready.wait();
    let (mut client, view) = match connect {
        Ok(ok) => ok,
        Err(e) => {
            log.fatal = Some(format!("probe subscribe: {e}"));
            return log;
        }
    };
    let mut seen = 0u64;
    loop {
        let last = stop_after.load(Ordering::Acquire);
        if last != u64::MAX && seen >= last {
            break;
        }
        // Idle keepalives (every 100 ms) keep this from blocking forever.
        match client.next_view_delta() {
            Ok(batch) => {
                let at = origin.elapsed().as_nanos() as u64;
                if batch.seq > 0 {
                    log.receipts.push((batch.seq, at));
                    seen = seen.max(batch.seq);
                }
                for (row, n) in &batch.adds {
                    *log.rows.entry(format!("{row:?}")).or_insert(0) += *n as i64;
                }
                for (row, n) in &batch.removes {
                    *log.rows.entry(format!("{row:?}")).or_insert(0) -= *n as i64;
                }
            }
            Err(e) => {
                log.fatal = Some(format!("probe stream: {e}"));
                return log;
            }
        }
    }
    log.rows.retain(|_, n| *n != 0);
    if let Err(e) = client.unsubscribe_query(view) {
        log.fatal = Some(format!("probe unsubscribe: {e}"));
    }
    log
}

/// Polled at 10 Hz while clients run (traced runs only).
#[derive(Default)]
struct Polled {
    queue_len_max: u64,
    lag_units_max: u64,
}

fn poll_loop(servers: &Servers, stop: &AtomicBool) -> Polled {
    let mut p = Polled::default();
    while !stop.load(Ordering::Acquire) {
        let stats = servers.primary.store().stats();
        // `SharedStore` counts a job after sending it, so the worker can
        // count it out first and the gauge reads as a wrapped negative for
        // an instant; such a sample is an empty queue, not 2^64 jobs.
        if stats.queue_len <= i64::MAX as u64 {
            p.queue_len_max = p.queue_len_max.max(stats.queue_len);
        }
        if let Some((replica, _)) = &servers.replica {
            let behind = stats
                .commit_seq
                .saturating_sub(replica.store().commit_seq());
            p.lag_units_max = p.lag_units_max.max(behind);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    p
}

/// The result of driving a set of servers through some phases.
pub struct Driven {
    /// The primary's commit sequence before the first statement.
    base_seq: u64,
    pub clients: Vec<ClientLog>,
    pub probe: Option<ProbeLog>,
    /// Per phase: elapsed seconds between the start and end barriers.
    pub elapsed_s: Vec<f64>,
    /// Per phase: WAL bytes and fsyncs added.
    pub wal_bytes: Vec<u64>,
    pub fsyncs: Vec<Option<u64>>,
    pub queue_len_max: u64,
    pub lag_units_max: u64,
    /// Time from the last acknowledgement to the replica reaching the
    /// primary's commit sequence (quorum workload), ms.
    pub converge_ms: f64,
}

/// Register the in-process views of the live-view workload and check that
/// each landed on the side of the maintainable fragment it was chosen for.
fn register_views(store: &Arc<SharedStore>) -> Res<Vec<Receiver<ViewEvent>>> {
    let engine = Engine::revised();
    let mut feeds = Vec::new();
    let wanted = MAINTAINED_VIEWS
        .iter()
        .map(|v| (*v, false))
        .chain(FALLBACK_VIEWS.iter().map(|v| (*v, true)));
    for (text, want_fallback) in wanted {
        let sub = store
            .subscribe_view(text.to_owned(), engine.clone())
            .map_err(|b| format!("subscribe view: busy ({})", b.0))?
            .ctx("subscribe view")?;
        if sub.reg.fallback != want_fallback {
            return Err(format!(
                "view `{text}` registered with fallback={}, the workload needs {want_fallback}",
                sub.reg.fallback
            ));
        }
        feeds.push(sub.events);
    }
    Ok(feeds)
}

/// The statement streams of a server workload, one per connection, and
/// the address each connects to.
fn client_plans(
    w: Workload,
    servers: &Servers,
    cfg: &RunConfig,
    drain: Vec<Receiver<ViewEvent>>,
) -> Vec<ClientPlan> {
    let keys = w.preset(cfg.check).keys();
    let primary = servers.primary.addr().to_string();
    let plan = |addr: &str, shape, part, parts| ClientPlan {
        addr: addr.to_owned(),
        stream: StatementStream::new(shape, keys, cfg.seed, part, parts),
        drain: Vec::new(),
    };
    match w {
        Workload::OltpMix10k | Workload::OltpMix100k => vec![
            plan(&primary, Shape::OltpMix, 0, 2),
            plan(&primary, Shape::OltpMix, 1, 2),
        ],
        Workload::ReadOnly10k => vec![
            plan(&primary, Shape::ReadOnly, 0, 2),
            plan(&primary, Shape::ReadOnly, 1, 2),
        ],
        Workload::LiveViews10k => vec![ClientPlan {
            drain,
            ..plan(&primary, Shape::ViewWriter, 0, 1)
        }],
        Workload::QuorumPair10k => {
            let replica = servers
                .replica
                .as_ref()
                .map_or_else(|| primary.clone(), |(h, _)| h.addr().to_string());
            // The reader's users are ones the writer never touches, so its
            // rows do not depend on how far the replica has caught up.
            vec![
                plan(&primary, Shape::WriteOnly, 0, 2),
                plan(&replica, Shape::PointAnd2Hop, 1, 2),
            ]
        }
        Workload::ImportMerge10k => Vec::new(),
    }
}

/// Drive `servers` through `phases` with the workload's clients.
pub fn drive(
    w: Workload,
    servers: &Servers,
    cfg: &RunConfig,
    phases: &[Phase],
    poll: bool,
) -> Res<Driven> {
    let origin = Instant::now();
    let feeds = if w == Workload::LiveViews10k {
        register_views(servers.primary.store())?
    } else {
        Vec::new()
    };
    let plans = client_plans(w, servers, cfg, feeds);
    let shared = Shared {
        origin,
        barrier: Barrier::new(plans.len() + 1),
        deadline_ns: AtomicU64::new(0),
    };
    let base_seq = servers.primary.store().commit_seq();
    let stop_probe = AtomicU64::new(u64::MAX);
    let stop_poll = AtomicBool::new(false);
    let probe_ready = Barrier::new(2);
    let mut driven = Driven {
        base_seq,
        clients: Vec::new(),
        probe: None,
        elapsed_s: Vec::new(),
        wal_bytes: Vec::new(),
        fsyncs: Vec::new(),
        queue_len_max: 0,
        lag_units_max: 0,
        converge_ms: 0.0,
    };

    std::thread::scope(|scope| {
        let probe = (w == Workload::LiveViews10k).then(|| {
            let addr = servers.primary.addr().to_string();
            let handle = scope.spawn(|| probe_loop(addr, origin, &probe_ready, &stop_probe));
            // Writes must not start before the probe's initial snapshot.
            probe_ready.wait();
            handle
        });
        let poller = poll.then(|| scope.spawn(|| poll_loop(servers, &stop_poll)));
        let handles: Vec<_> = plans
            .into_iter()
            .map(|plan| {
                let shared = &shared;
                scope.spawn(move || client_loop(plan, phases, shared))
            })
            .collect();

        for phase in phases {
            let (wal0, sync0) = (servers.wal_len(), servers.fsyncs());
            let deadline = origin.elapsed() + Duration::from_secs_f64(phase.seconds);
            shared
                .deadline_ns
                .store(deadline.as_nanos() as u64, Ordering::Release);
            shared.barrier.wait();
            let t0 = Instant::now();
            shared.barrier.wait();
            driven.elapsed_s.push(t0.elapsed().as_secs_f64());
            driven
                .wal_bytes
                .push(servers.wal_len().saturating_sub(wal0));
            driven.fsyncs.push(
                sync0
                    .zip(servers.fsyncs())
                    .map(|(a, b)| b.saturating_sub(a)),
            );
        }
        let acked = Instant::now();
        for h in handles {
            match h.join() {
                Ok(log) => driven.clients.push(log),
                Err(_) => driven.clients.push(ClientLog {
                    fatal: Some("client thread panicked".to_owned()),
                    ..ClientLog::default()
                }),
            }
        }
        if let Some((replica, _)) = &servers.replica {
            let head = servers.primary.store().commit_seq();
            let give_up = acked + Duration::from_secs(10);
            while replica.store().commit_seq() < head && Instant::now() < give_up {
                std::thread::sleep(Duration::from_micros(200));
            }
            driven.converge_ms = acked.elapsed().as_secs_f64() * 1e3;
        }
        let writes: u64 = driven
            .clients
            .iter()
            .map(|c| c.write_acks_ns.len() as u64)
            .sum();
        stop_probe.store(base_seq + writes, Ordering::Release);
        if let Some(h) = probe {
            driven.probe = Some(h.join().unwrap_or_else(|_| ProbeLog {
                fatal: Some("probe thread panicked".to_owned()),
                ..ProbeLog::default()
            }));
        }
        stop_poll.store(true, Ordering::Release);
        if let Some(h) = poller {
            if let Ok(p) = h.join() {
                driven.queue_len_max = p.queue_len_max;
                driven.lag_units_max = p.lag_units_max;
            }
        }
    });

    for c in &driven.clients {
        if let Some(e) = &c.fatal {
            return Err(format!("{}: a statement failed: {e}", w.name()));
        }
    }
    if let Some(ProbeLog { fatal: Some(e), .. }) = &driven.probe {
        return Err(format!("{}: {e}", w.name()));
    }
    Ok(driven)
}

impl Driven {
    /// Summarize phase `i`. View notification latency pairs the writer's
    /// k-th acknowledgement with the probe's receipt of commit sequence
    /// `base_seq + k` (one writer, every write commits).
    pub fn window(&self, i: usize) -> WindowStats {
        let mut w = WindowStats {
            elapsed_s: self.elapsed_s.get(i).copied().unwrap_or(0.0),
            queue_len_max: self.queue_len_max,
            lag_units_max: self.lag_units_max,
            ..WindowStats::default()
        };
        let (mut write_ns, mut read_ns) = (Vec::new(), Vec::new());
        let (mut first_end, mut last_end) = (u64::MAX, 0u64);
        for phase in self.clients.iter().filter_map(|c| c.phases.get(i)) {
            for s in &phase.samples {
                if s.kind.is_read() {
                    read_ns.push(s.latency_ns);
                } else {
                    write_ns.push(s.latency_ns);
                    first_end = first_end.min(s.end_ns);
                    last_end = last_end.max(s.end_ns);
                }
            }
            w.attempted += phase.attempted;
            w.failed += phase.failed;
            w.busy_retries += phase.busy_retries;
        }
        w.ok_ops = (write_ns.len() + read_ns.len()) as u64;
        if !write_ns.is_empty() {
            let n = write_ns.len() as f64;
            w.wal_bytes_per_write = self.wal_bytes.get(i).copied().unwrap_or(0) as f64 / n;
            w.flushes_per_write = self.fsyncs.get(i).copied().flatten().map(|f| f as f64 / n);
        }
        w.write = LatencySummary::from_ns(&write_ns);
        w.read = LatencySummary::from_ns(&read_ns);
        if let (Some(probe), Some(writer)) = (&self.probe, self.clients.first()) {
            let notify_ns: Vec<u64> = probe
                .receipts
                .iter()
                .filter_map(|&(seq, at)| {
                    let k = seq.checked_sub(self.base_seq + 1)? as usize;
                    let ack = *writer.write_acks_ns.get(k)?;
                    // Only writes acknowledged inside this window.
                    (ack >= first_end && ack <= last_end).then(|| at.saturating_sub(ack))
                })
                .collect();
            w.notify = LatencySummary::from_ns(&notify_ns);
        }
        w
    }
}
