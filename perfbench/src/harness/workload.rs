//! The six workloads, measured end to end.
//!
//! All server workloads share one load shape: an in-process
//! `serve(ServerConfig::new(dir))` on a scratch data directory (real
//! `RealFs` fsync, default group-commit policy), driven by a **closed loop
//! of two connections** — callers are sessions that wait for each reply,
//! and the host has two cores, so there are never more generator threads
//! than that. A run is: set up (several times, for a steady `setup_s`),
//! warm up, measure for a fixed duration, then validate everything the
//! server returned.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cypher_core::Engine;
use cypher_graph::PropertyGraph;
use cypher_replication::Role;
use cypher_server::{
    serve, serve_with, Client, HelloOptions, ServerConfig, ServerHandle, SharedStore, StoreOptions,
};
use cypher_storage::{DurableGraph, FaultFs, OpKind as FsOp};

use super::clients::{drive, Driven, Phase};
use super::import::run_import;
use super::oracle::{state_digest, Oracle};
use super::preload::{copy_data_dir, Dataset, Preset, Scratch};
use super::stats::{median_of, LatencySummary};
use super::{Ctx, Res};

/// The workloads of `BENCHMARK.json`. Names are stable identifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OltpMix10k,
    OltpMix100k,
    ReadOnly10k,
    ImportMerge10k,
    LiveViews10k,
    QuorumPair10k,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::OltpMix10k,
        Workload::OltpMix100k,
        Workload::ReadOnly10k,
        Workload::ImportMerge10k,
        Workload::LiveViews10k,
        Workload::QuorumPair10k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpMix10k => "oltp_mix_10k",
            Workload::OltpMix100k => "oltp_mix_100k",
            Workload::ReadOnly10k => "read_only_10k",
            Workload::ImportMerge10k => "import_merge_10k",
            Workload::LiveViews10k => "live_views_10k",
            Workload::QuorumPair10k => "quorum_pair_10k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::OltpMix10k => {
                "50/50 point/2-hop reads and one-entity writes on 10.4k nodes/18k rels: \
                 fixed per-statement overhead (commit check, WAL, fsync, publish, queue, wire) dominates"
            }
            Workload::OltpMix100k => {
                "the same stream on 104k nodes/180k rels: footprint unchanged, so whatever grows \
                 10k->100k is an O(graph) stage; working set no longer fits L2"
            }
            Workload::ReadOnly10k => {
                "reads only (point, 2-hop, one label-scan aggregate), snapshot stays cached: \
                 the bypass workload for every write-path change; wire/session/map cost shows here"
            }
            Workload::ImportMerge10k => {
                "embedded 500-row UNWIND..MERGE SAME batches, one fsync each: large-footprint \
                 statements where matching/collapse and WAL bytes dominate, overhead is amortised"
            }
            Workload::LiveViews10k => {
                "8 registered views (6 maintained, 2 fallback) and one writer whose every statement \
                 changes the probe view: isolates view maintenance and the view feed"
            }
            Workload::QuorumPair10k => {
                "primary with sync_replicas=1 plus one replica, writer on the primary, reader on \
                 the replica: the only workload with ship -> replica apply -> ack on the blocking path"
            }
        }
    }

    pub fn preset(self, check: bool) -> Preset {
        match (check, self) {
            (true, _) => Preset::Tiny,
            (false, Workload::OltpMix100k) => Preset::G100k,
            (false, _) => Preset::G10k,
        }
    }

    /// Whether `latency_mean_ms` is the workload's write or read latency.
    pub fn headline_is_write(self) -> bool {
        self != Workload::ReadOnly10k
    }
}

/// One probe view a real client subscribes to, five more maintainable
/// views and two that force fallback re-evaluation (an `ORDER BY … LIMIT`
/// is outside the maintainable fragment).
pub const PROBE_VIEW: &str = "MATCH (u:User) WHERE u.score > 0 RETURN u.id AS id, u.score AS score";
pub const MAINTAINED_VIEWS: [&str; 5] = [
    "MATCH (u:User)-[:ORDERED]->(p:Product) RETURN u.id AS user, p.id AS product",
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product) RETURN v.id AS vendor, count(p) AS offered",
    "MATCH (p:Product) WHERE p.price > 1500 RETURN p.id AS id, p.price AS price",
    "MATCH (v:Vendor)-[:OFFERS]->(p:Product)<-[:ORDERED]-(u:User) WHERE u.score > 0 \
     RETURN v.id AS vendor, count(*) AS sales",
    "MATCH (u:User) RETURN count(u) AS users",
];
pub const FALLBACK_VIEWS: [&str; 2] = [
    "MATCH (u:User) WHERE u.score > 0 RETURN u.id AS id ORDER BY u.score DESC LIMIT 10",
    "MATCH (p:Product) WITH p ORDER BY p.price DESC LIMIT 5 RETURN p.id AS id, p.price AS price",
];

/// How a run is parameterised. Everything but `seed` is fixed by the
/// benchmark definition (or by `--check`), not tuned per commit.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Warm-up before it; its statements are validated but not timed.
    pub warmup_s: f64,
    /// Tiny graphs, every validator, no claim about speed.
    pub check: bool,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Restart measurements per run; `restart_s` is their median.
    pub restarts: usize,
}

/// Latencies of one measured window, by class.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    pub elapsed_s: f64,
    pub ok_ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub busy_retries: u64,
    pub write: LatencySummary,
    pub read: LatencySummary,
    pub notify: LatencySummary,
    /// Rows durably merged per second (import only).
    pub import_rows_s: f64,
    /// WAL growth over the window divided by its acknowledged writes.
    pub wal_bytes_per_write: f64,
    /// fsyncs over the window divided by its acknowledged writes; only
    /// known when the store was opened through a counting filesystem.
    pub flushes_per_write: Option<f64>,
    pub queue_len_max: u64,
    pub lag_units_max: u64,
}

impl WindowStats {
    /// Statements of every class completed per second.
    pub fn all_ops_s(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.ok_ops as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// Everything one untraced run reports.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub setup: SetupCost,
    pub window: WindowStats,
    pub restart_s: f64,
    pub converge_ms: f64,
    pub peak_rss_mb: f64,
    /// Names of the validators that ran (all passed, or the run failed).
    pub validated: Vec<&'static str>,
    pub nodes: usize,
    pub rels: usize,
}

impl Outcome {
    pub fn headline(&self) -> &LatencySummary {
        if self.workload.headline_is_write() {
            &self.window.write
        } else {
            &self.window.read
        }
    }

    /// Headline-class statements completed per second. Where a replica
    /// reader runs beside the writer, counting its reads would report the
    /// reader's speed, not the workload's; the OLTP mix is half reads, so
    /// all its statements per second are twice this.
    pub fn throughput_ops_s(&self) -> f64 {
        if self.window.elapsed_s > 0.0 {
            self.headline().samples as f64 / self.window.elapsed_s
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------------
// Servers
// ---------------------------------------------------------------------

/// The running servers of one set-up.
pub struct Servers {
    pub primary: ServerHandle,
    pub primary_dir: PathBuf,
    pub replica: Option<(ServerHandle, PathBuf)>,
    /// Counts the primary's filesystem operations (traced runs only).
    pub fs_counter: Option<FaultFs>,
}

impl Servers {
    /// Install the dataset and start the workload's server(s). `counted`
    /// opens the primary through a counting filesystem wrapper so a traced
    /// run can report fsyncs per write; untraced runs use plain `serve`.
    pub fn start(w: Workload, data: &Dataset, root: &Path, counted: bool) -> Res<Servers> {
        let primary_dir = root.join("primary");
        data.install(&primary_dir)?;
        let mut config = ServerConfig::new(&primary_dir);
        if w == Workload::QuorumPair10k {
            config.sync_replicas = 1;
        }
        let (primary, fs_counter) = if counted {
            let fs = FaultFs::counting();
            let durable =
                DurableGraph::open_with(fs.arc(), &primary_dir).ctx("open counted store")?;
            let store = SharedStore::start_with(
                durable,
                StoreOptions {
                    queue_depth: config.queue_depth,
                    max_batch: config.max_batch,
                    max_inflight: config.max_inflight,
                    role: Role::Primary,
                    sync_replicas: config.sync_replicas,
                    sync_timeout: config.sync_timeout,
                    sync_policy: config.sync_policy,
                },
            );
            (serve_with(config, store).ctx("serve primary")?, Some(fs))
        } else {
            (serve(config).ctx("serve primary")?, None)
        };

        let replica = if w == Workload::QuorumPair10k {
            let dir = root.join("replica");
            data.install(&dir)?;
            let mut rc = ServerConfig::new(&dir);
            rc.replica_of = Some(primary.addr().to_string());
            let handle = serve(rc).ctx("serve replica")?;
            // The quorum needs the replica attached before the first write.
            let deadline = Instant::now() + Duration::from_secs(10);
            while primary.store().stats().replicas.is_empty() {
                if Instant::now() > deadline {
                    return Err("replica did not attach within 10 s".to_owned());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Some((handle, dir))
        } else {
            None
        };
        Ok(Servers {
            primary,
            primary_dir,
            replica,
            fs_counter,
        })
    }

    pub fn stop(self) {
        if let Some((replica, _)) = &self.replica {
            replica.stop();
        }
        self.primary.stop();
    }

    pub fn wal_len(&self) -> u64 {
        std::fs::metadata(self.primary_dir.join("wal.bin")).map_or(0, |m| m.len())
    }

    pub fn fsyncs(&self) -> Option<u64> {
        self.fs_counter.as_ref().map(|fs| fs.ops_of(FsOp::Sync))
    }
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// Check a finished server run: every read against the oracle, the
/// recovered and replicated state against the state the oracle reached,
/// the probe view against a fresh evaluation. Returns the validators run.
pub fn validate(
    w: Workload,
    data: &Dataset,
    servers: &Servers,
    driven: &Driven,
    recovered: &PropertyGraph,
) -> Res<Vec<&'static str>> {
    let mut passed = Vec::new();
    let mut oracle = Oracle::new(&data.graph);
    let mut mismatches = 0;
    for c in &driven.clients {
        mismatches += oracle.replay(&c.executed)?;
    }
    if mismatches > 0 {
        return Err(format!(
            "{}: {mismatches} reads differ from the embedded oracle",
            w.name()
        ));
    }
    passed.push("reads equal the embedded oracle");

    let want = state_digest(oracle.graph())?;
    let got = state_digest(recovered)?;
    if want != got {
        return Err(format!(
            "{}: state recovered from snapshot + WAL differs from the acknowledged writes\n  \
             oracle:    {want}\n  recovered: {got}",
            w.name()
        ));
    }
    passed.push("every acknowledged write survives a restart without a checkpoint");

    if let Some(probe) = &driven.probe {
        let fresh = Engine::revised()
            .run_read(oracle.graph(), PROBE_VIEW)
            .ctx("probe re-evaluation")?;
        let mut expect = std::collections::BTreeMap::new();
        for row in &fresh.rows {
            *expect.entry(format!("{row:?}")).or_insert(0i64) += 1;
        }
        if expect != probe.rows {
            return Err(format!(
                "{}: the probe view accumulated {} rows, a fresh evaluation gives {}",
                w.name(),
                probe.rows.len(),
                expect.len()
            ));
        }
        if probe.receipts.is_empty() {
            return Err(format!("{}: the probe received no delta", w.name()));
        }
        passed.push("accumulated probe view equals a fresh evaluation");
    }

    if let Some((replica, _)) = &servers.replica {
        let dump = |h: &ServerHandle| -> Res<String> {
            let mut c = Client::connect(h.addr(), &HelloOptions::server_defaults())
                .ctx("connect for dump")?;
            let script = c.dump_graph().ctx("dump graph")?;
            let _ = c.goodbye();
            Ok(script)
        };
        if dump(&servers.primary)? != dump(replica)? {
            return Err(format!(
                "{}: replica dump differs from the primary's after convergence",
                w.name()
            ));
        }
        passed.push("replica dump equals the primary's");
    }
    Ok(passed)
}

/// Copy the primary's data directory as a crash would leave it — the
/// server still running, nothing checkpointed — and time
/// `DurableGraph::open` on the copy. Returns the median and the last
/// recovered store.
pub fn measure_restart(dir: &Path, scratch: &Path, times: usize) -> Res<(f64, DurableGraph)> {
    let copy = scratch.join("restart");
    copy_data_dir(dir, &copy)?;
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let durable = DurableGraph::open(&copy).ctx("restart: open snapshot + WAL")?;
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(durable);
    }
    let recovered = last.ok_or_else(|| "restart: nothing opened".to_owned())?;
    Ok((median_of(secs), recovered))
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/// What a set-up cost, by part.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupCost {
    pub total_s: f64,
    pub generate_s: f64,
    /// Snapshot encode + install + open/serve.
    pub preload_s: f64,
}

/// Build a workload's fixture `rounds` times from scratch, each in its own
/// directory under `scratch`, discarding all but the last; `setup_s` is the
/// median cost of a round.
pub fn repeat_setup<T>(
    rounds: usize,
    scratch: &Scratch,
    mut build: impl FnMut(&Path) -> Res<(Dataset, T)>,
    mut discard: impl FnMut(T),
) -> Res<(Dataset, T, SetupCost)> {
    let mut costs: Vec<SetupCost> = Vec::new();
    let mut kept = None;
    for round in 0..rounds.max(1) {
        if let Some((_, fixture)) = kept.take() {
            discard(fixture);
        }
        let root = scratch.dir(&format!("setup-{round}"));
        let t0 = Instant::now();
        let (data, fixture) = build(&root)?;
        let total_s = t0.elapsed().as_secs_f64();
        costs.push(SetupCost {
            total_s,
            generate_s: data.generate_s,
            preload_s: total_s - data.generate_s,
        });
        kept = Some((data, fixture));
    }
    let (data, fixture) = kept.ok_or_else(|| "no set-up ran".to_owned())?;
    let pick = |f: fn(&SetupCost) -> f64| median_of(costs.iter().map(f).collect());
    let cost = SetupCost {
        total_s: pick(|c| c.total_s),
        generate_s: pick(|c| c.generate_s),
        preload_s: pick(|c| c.preload_s),
    };
    Ok((data, fixture, cost))
}

/// Set a server workload up `cfg.setups` times.
pub fn setup_servers(
    w: Workload,
    cfg: &RunConfig,
    scratch: &Scratch,
    counted: bool,
) -> Res<(Dataset, Servers, SetupCost)> {
    repeat_setup(
        cfg.setups,
        scratch,
        |root| {
            let data = Dataset::build(w.preset(cfg.check))?;
            let servers = Servers::start(w, &data, root, counted)?;
            Ok((data, servers))
        },
        Servers::stop,
    )
}

// ---------------------------------------------------------------------
// Running a workload
// ---------------------------------------------------------------------

/// One untraced run: every end-to-end metric of one workload.
pub fn run(w: Workload, cfg: &RunConfig) -> Res<Outcome> {
    if w == Workload::ImportMerge10k {
        return run_import(cfg);
    }
    let scratch = Scratch::new(w.name())?;
    let (data, servers, cost) = setup_servers(w, cfg, &scratch, false)?;
    let phases = [
        Phase {
            seconds: cfg.warmup_s,
            traced: false,
        },
        Phase {
            seconds: cfg.seconds,
            traced: false,
        },
    ];
    let result = drive(w, &servers, cfg, &phases, false).and_then(|driven| {
        let (restart_s, recovered) =
            measure_restart(&servers.primary_dir, scratch.path(), cfg.restarts)?;
        let validated = validate(w, &data, &servers, &driven, recovered.graph())?;
        Ok(Outcome {
            workload: w,
            setup: cost,
            window: driven.window(1),
            restart_s,
            converge_ms: driven.converge_ms,
            peak_rss_mb: 0.0,
            validated,
            nodes: data.graph.node_count(),
            rels: data.graph.rel_count(),
        })
    });
    servers.stop();
    let mut outcome = result?;
    outcome.peak_rss_mb = peak_rss_mb();
    Ok(outcome)
}
