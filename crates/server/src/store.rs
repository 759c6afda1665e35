//! The shared store: one writer, many snapshot readers, one shipping lane.
//!
//! All mutation funnels through a single **apply worker** thread (the
//! batch *builder*) that owns the [`DurableGraph`]. Sessions enqueue jobs
//! on a bounded channel; the builder drains up to a batch and runs each
//! write through [`DurableGraph::apply_buffered_logged`]. Group commit is
//! **pipelined** across two stages: instead of fsyncing inline, the
//! builder stages the batch's WAL window ([`DurableGraph::stage_flush`])
//! and hands the resulting [`SyncTicket`] to a dedicated *flusher* thread,
//! then immediately goes back to applying the next batch. The flusher
//! fsyncs the ticket, publishes the (now durable) units and sends the
//! acknowledgements — so batch N+1 executes while batch N's fsync and
//! quorum wait are in flight, yet every write is still acknowledged only
//! after its batch's flush: the classic durability-before-acknowledge
//! protocol, one fsync amortized over the batch.
//!
//! Pipeline depth is one staged window. Before staging batch N+1 the
//! builder waits for batch N's fsync outcome and retires it with
//! [`DurableGraph::complete_flush`]. A failed fsync therefore downgrades
//! exactly its own batch (the flusher reports the storage error to every
//! statement whose commit units were rolled off the log together) plus
//! any batch the builder had already applied on top of the doomed window
//! — those statements were never acknowledged, and the builder rolls the
//! in-memory graph back to the durable horizon before touching anything
//! else.
//!
//! Readers never touch the queue in steady state: the flusher bumps an
//! epoch counter after every batch that changed the graph, and sessions
//! read through [`EpochSnapshots`] — at most one `Arc<PropertyGraph>`
//! clone is taken per epoch, at a statement boundary, so a snapshot is
//! always statement-atomic (never a dangling relationship mid-`DELETE`,
//! extending §4.2's guarantee across sessions). When the cached snapshot
//! is stale a session enqueues a [`Job::Snapshot`]; queue FIFO order plus
//! pipeline draining then guarantees read-your-writes: a snapshot (or any
//! other non-batchable job) makes the builder drain the flush stage
//! first, and the flusher bumps the epoch *before* acknowledging a batch,
//! so a session that saw its write acked always observes at least that
//! write's epoch.
//!
//! # Replication
//!
//! The worker is also the **replication source of truth**. Each committed
//! update statement's text rides inside its own WAL commit unit
//! ([`cypher_storage::Record::Stmt`]), so the statement's durability and
//! its shippability are one fsync. Right after a batch's fsync succeeds
//! the flusher hands its units to the [`ReplicationHub`], which fans them
//! out to subscribed replica feeders — a replica can therefore never
//! observe a unit the primary could still lose: the hub only ever sees
//! post-flush units.
//!
//! On a replica the same worker applies [`Job::Replicate`] jobs instead of
//! client writes: it checks the unit's sequence number against
//! `next_txid`, replays the statement through a per-dialect engine, and
//! asserts the resulting txid equals the shipped sequence — any mismatch
//! is divergence and aborts the tail rather than corrupting silently.
//! Writes and replicated units share the same group-commit machinery, so
//! catch-up gets batched fsyncs for free.
//!
//! If a group commit's flush fails, the WAL has rolled back to the durable
//! horizon but the in-memory graph briefly ran ahead; the worker calls
//! [`DurableGraph::reopen`] to rebuild memory from the durable state.
//! This matters for replication: the legacy "checkpoint absorbs sealed
//! memory" path would fold never-shipped mutations into the primary's
//! state and silently diverge every replica. After `reopen`, memory ==
//! durable == shipped, always.
//!
//! The worker also maintains the **mirror**: the units shipped since the
//! recovery base, newest `MIRROR_CAP_BYTES` of them, from which late
//! subscribers are back-filled (older subscribers bootstrap from a full
//! snapshot instead). Its statement texts, in commit order, are also what
//! the `CommitLog` frame serves — the serialization oracle for the
//! differential tests: replaying them through a single-threaded engine
//! must reproduce the server's graph byte-for-byte. It lives behind a small
//! mutex shared by the two stages: the flusher extends it as batches
//! retire, and the builder reads it for tail jobs only after draining the
//! pipeline, so subscribers still attach gap-free.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cypher_core::{Engine, EngineBuilder, EvalError, QueryResult};
use cypher_graph::{Delta, EpochSnapshots, PropertyGraph};
use cypher_ivm::{Registered, ViewManager, ViewStat, ViewUpdate};
use cypher_parser::Dialect;
use cypher_replication::{
    PeerProgress, QuorumState, QuorumStateCell, ReplicationHub, Role, RoleCell, ShippedUnit,
    Subscription, SyncPolicy,
};
use cypher_storage::{DurableGraph, StorageError, SyncTicket};

/// Stable wire/WAL encoding of a statement's dialect.
pub fn dialect_byte(d: Dialect) -> u8 {
    match d {
        Dialect::Cypher9 => 0,
        Dialect::Revised => 1,
    }
}

/// Inverse of [`dialect_byte`]; unknown bytes fall back to the revised
/// dialect (forward compatibility — a newer primary's dialect is closer
/// to `Revised` than to the legacy semantics).
pub fn dialect_from_byte(b: u8) -> Dialect {
    match b {
        0 => Dialect::Cypher9,
        _ => Dialect::Revised,
    }
}

/// Outcome of a write submitted to the apply queue.
#[derive(Debug)]
pub enum WriteOutcome {
    /// Executed and durable (the batch's fsync succeeded).
    Ok(QueryResult),
    /// The statement itself failed and rolled back; the store is fine.
    Eval(EvalError),
    /// The durability layer failed; the statement is NOT acknowledged.
    Storage(StorageError),
    /// Strict quorum mode: the batch is durable **locally** and was
    /// shipped, but the required replica confirmations did not arrive in
    /// time. The write is refused (retryable) — it may still surface,
    /// so retries must be idempotent.
    Quorum {
        /// Replicas that confirmed durability before the deadline.
        acked: usize,
        /// Confirmations `--sync-replicas` required.
        needed: usize,
        /// How long the group commit waited, in milliseconds.
        waited_ms: u64,
    },
}

/// Outcome of applying one shipped unit on a replica.
#[derive(Debug)]
pub enum ReplicaApply {
    /// Applied and durable; `commit_seq` advanced to the unit's sequence.
    Applied,
    /// The unit's sequence is already applied (duplicate after a
    /// reconnect); skipped without touching the graph.
    Skipped,
    /// The unit skips ahead of the replica's log; the tailer must
    /// re-subscribe from its durable position instead of applying.
    Gap {
        /// The sequence number the replica expected next.
        expected: u64,
    },
    /// The statement did not reproduce the primary's effect here — the
    /// replica's state is suspect and the tail must stop.
    Diverged(String),
    /// The durability layer failed; the unit is not applied (the tailer
    /// retries after the worker re-opened the store).
    Storage(StorageError),
}

/// How a fresh subscriber starts: backlog replay or snapshot bootstrap.
pub enum SubscribeStart {
    /// The subscriber's position is within the retained mirror: these
    /// units (in order) bring it to the primary's head.
    Backlog(Vec<ShippedUnit>),
    /// The subscriber is older than the mirror: it must install this
    /// encoded snapshot (covering sequence `seq`) and tail from there.
    Snapshot { seq: u64, bytes: Vec<u8> },
}

/// A granted subscription: the catch-up payload plus the live feed.
pub struct SubscribeReply {
    /// Catch-up payload handed out atomically with the hub attach: every
    /// unit is either in here or will arrive on `sub`, never neither.
    pub start: SubscribeStart,
    /// The live feed of units committed after the catch-up point.
    pub sub: Subscription,
    /// The primary's commit sequence at attach time (lag baseline).
    pub seq: u64,
}

/// One row-level view delta delivered to a subscribed session, stamped
/// with the reader epoch the change is visible at.
#[derive(Debug)]
pub struct ViewEvent {
    pub update: ViewUpdate,
    pub epoch: u64,
}

/// A granted live-query subscription: the registration outcome (initial
/// rows included), the epoch it is consistent with, and the event feed.
pub struct ViewSubscription {
    pub reg: Registered,
    pub epoch: u64,
    pub events: Receiver<ViewEvent>,
}

/// Per-subscriber event backlog. A session that stops draining for this
/// many statement deltas is cut off (same policy as replica feeds): the
/// store never blocks the flush stage on a slow subscriber.
const VIEW_FEED_DEPTH: usize = 1024;

/// All live-query state of one store: the view manager (shadow graph +
/// registered views) and the per-view delivery channels. One mutex guards
/// both — registration and unsubscription run on arbitrary threads, while
/// the flush stage feeds committed deltas — and every critical section is
/// short except the feed itself, which is exactly the serialization the
/// ordered-delivery guarantee needs.
pub struct ViewHub {
    inner: Mutex<ViewHubState>,
}

#[derive(Default)]
struct ViewHubState {
    /// Lazily created at the first registration, dropped with the last
    /// view — an idle server pays nothing for the subsystem.
    mgr: Option<ViewManager>,
    subs: HashMap<u64, SyncSender<ViewEvent>>,
}

impl ViewHub {
    fn new() -> ViewHub {
        ViewHub {
            inner: Mutex::new(ViewHubState::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ViewHubState> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Any views registered? The apply stage skips delta capture entirely
    /// when not — registration is a worker tail job, so it cannot race a
    /// batch into missing its delta.
    fn active(&self) -> bool {
        self.lock().mgr.as_ref().is_some_and(|m| !m.is_empty())
    }

    /// Register a view. Runs on the worker thread after a pipeline drain,
    /// so `committed` (the builder's graph) equals the durable, flushed,
    /// fully-fed state the manager's shadow must start from.
    fn register(
        &self,
        committed: &PropertyGraph,
        seq: u64,
        epoch: u64,
        text: &str,
        engine: &Engine,
    ) -> Result<ViewSubscription, EvalError> {
        let mut state = self.lock();
        let mgr = state
            .mgr
            .get_or_insert_with(|| ViewManager::new(committed, seq));
        let reg = mgr.register(text, engine)?;
        let (tx, rx) = mpsc::sync_channel(VIEW_FEED_DEPTH);
        state.subs.insert(reg.id, tx);
        Ok(ViewSubscription {
            reg,
            epoch,
            events: rx,
        })
    }

    /// Drop one view. Returns `false` for an unknown id.
    pub fn unsubscribe(&self, id: u64) -> bool {
        let mut state = self.lock();
        state.subs.remove(&id);
        let Some(mgr) = &mut state.mgr else {
            return false;
        };
        let known = mgr.unregister(id);
        if mgr.is_empty() {
            state.mgr = None;
        }
        known
    }

    /// Per-view maintenance counters (for `Stats`).
    pub fn stats(&self) -> Vec<ViewStat> {
        self.lock()
            .mgr
            .as_ref()
            .map(ViewManager::stats)
            .unwrap_or_default()
    }

    /// Drop every view and subscription (snapshot install, fence,
    /// shutdown). Receivers observe the disconnect and end their feeds.
    pub fn reset(&self) {
        let mut state = self.lock();
        state.mgr = None;
        state.subs.clear();
    }

    /// Feed the committed statement deltas of one flushed batch, in commit
    /// order, and route the resulting row deltas to their subscribers.
    /// Called by the flush stage strictly after the batch's fsync (and
    /// after its acknowledgements — notification latency is off the write
    /// path).
    fn feed(&self, deltas: &[(u64, Vec<Delta>)], epoch: u64) {
        let mut state = self.lock();
        // Taken out for disjoint borrows; the lock is held throughout, so
        // no other thread can observe the temporarily absent manager.
        let Some(mut mgr) = state.mgr.take() else {
            return;
        };
        let mut drop_views: Vec<u64> = Vec::new();
        for (seq, ops) in deltas {
            match mgr.apply_statement(*seq, ops) {
                Ok(updates) => {
                    for update in updates {
                        let id = update.view;
                        let gone = match state.subs.get(&id) {
                            Some(tx) => tx.try_send(ViewEvent { update, epoch }).is_err(),
                            None => true,
                        };
                        if gone {
                            // Receiver gone (session died without
                            // unsubscribing) or its backlog overflowed:
                            // cut the subscriber off rather than stall or
                            // buffer unboundedly.
                            drop_views.push(id);
                        }
                    }
                }
                Err(e) => {
                    // The delta stream and the shadow disagree — never
                    // serve another delta from a corrupt shadow. Dropping
                    // the channels ends every subscription visibly.
                    eprintln!("cypher-serve: view maintenance diverged: {e}");
                    state.subs.clear();
                    return;
                }
            }
        }
        for id in drop_views {
            state.subs.remove(&id);
            mgr.unregister(id);
        }
        if !mgr.is_empty() {
            state.mgr = Some(mgr);
        }
    }
}

/// A point-in-time statistics sample, assembled without touching the
/// worker queue (all sources are atomics or lock-free-ish shared state),
/// so `Stats` works even when the apply queue is wedged.
#[derive(Clone, Debug)]
pub struct StoreStats {
    /// Current replication role.
    pub role: Role,
    /// Reader epoch (bumps on every batch that changed the graph).
    pub epoch: u64,
    /// Highest durable (flushed) commit sequence.
    pub commit_seq: u64,
    /// Jobs currently queued for the apply worker.
    pub queue_len: u64,
    /// Replica only: highest sequence received from the primary.
    pub primary_seen: u64,
    /// The replication epoch this server believes is current (bumped by
    /// every failover promotion; a fenced zombie's is stale).
    pub repl_epoch: u64,
    /// Quorum-replication state (async / in-sync / degraded / timed-out).
    pub quorum: QuorumState,
    /// Subscribers disconnected because their feed backlog overflowed.
    pub overflow_drops: u64,
    /// Primary only: per-subscriber shipping and durable-ack progress.
    pub replicas: Vec<PeerProgress>,
    /// Live query views registered on this store, with maintenance
    /// counters.
    pub views: Vec<ViewStat>,
}

/// A unit of work for the apply worker.
pub enum Job {
    /// Run one update statement. The engine rides along because budgets,
    /// dialect and lint policy are per-session.
    Write {
        text: String,
        engine: Engine,
        resp: SyncSender<WriteOutcome>,
    },
    /// Apply one unit shipped from the primary (replica mode).
    Replicate {
        unit: ShippedUnit,
        resp: SyncSender<ReplicaApply>,
    },
    /// Publish a fresh epoch snapshot (only sent when the cache is stale).
    Snapshot {
        resp: SyncSender<Arc<PropertyGraph>>,
    },
    /// Checkpoint the durable store (snapshot + WAL truncate); also the
    /// reconciliation path for a sealed handle.
    Checkpoint {
        resp: SyncSender<Result<(), StorageError>>,
    },
    /// The retained committed-statement texts, in commit order.
    CommitLog { resp: SyncSender<Vec<String>> },
    /// Attach a replica subscriber; the worker decides backlog vs
    /// snapshot bootstrap atomically with respect to publishing.
    Subscribe {
        label: String,
        from: u64,
        resp: SyncSender<Result<SubscribeReply, StorageError>>,
    },
    /// Replace the store's contents with an encoded snapshot shipped by
    /// the primary (replica bootstrap).
    InstallSnapshot {
        bytes: Vec<u8>,
        resp: SyncSender<Result<u64, StorageError>>,
    },
    /// Register a live query view. A tail job: the worker drains the
    /// flush pipeline first, so the view's initial snapshot is computed on
    /// durable, fully-fed state and the first delta it receives is exactly
    /// the next committed statement.
    SubscribeView {
        text: String,
        engine: Engine,
        resp: SyncSender<Result<ViewSubscription, EvalError>>,
    },
    /// Durably fence this store: it will never acknowledge another write,
    /// even across restarts. `epoch` is the replication epoch the fencer
    /// is acting in; it is persisted in the marker so a restarted zombie
    /// knows how stale it is.
    Fence {
        new_primary: Option<String>,
        epoch: u64,
        resp: SyncSender<Result<(), StorageError>>,
    },
    /// Drain, flush and exit.
    Shutdown,
}

/// Global in-flight statement cap (admission control layer one).
///
/// `try_acquire` never blocks: over the cap means the caller sends the
/// retryable `Busy` error instead of queueing unbounded work.
pub struct Gate {
    inflight: AtomicUsize,
    cap: usize,
}

impl Gate {
    pub fn new(cap: usize) -> Gate {
        Gate {
            inflight: AtomicUsize::new(0),
            cap,
        }
    }

    pub fn try_acquire(self: &Arc<Self>) -> Option<GateGuard> {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.cap {
                return None;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(GateGuard {
                        gate: Arc::clone(self),
                    })
                }
                Err(now) => cur = now,
            }
        }
    }

    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// RAII release of one in-flight slot.
pub struct GateGuard {
    gate: Arc<Gate>,
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Tunables for [`SharedStore::start_with`]. `Default` reproduces the
/// historical asynchronous-replication behaviour of [`SharedStore::start`].
#[derive(Clone, Debug)]
pub struct StoreOptions {
    /// Apply-queue depth (admission control layer two).
    pub queue_depth: usize,
    /// Group-commit batch bound.
    pub max_batch: usize,
    /// Global in-flight statement cap.
    pub max_inflight: usize,
    /// Configured starting role (a durable fence overrides it).
    pub role: Role,
    /// `--sync-replicas N`: client acknowledgements wait until `N`
    /// replicas confirmed durability of the batch. `0` is asynchronous.
    pub sync_replicas: usize,
    /// How long a group commit waits for quorum before `sync_policy`
    /// decides the batch's fate.
    pub sync_timeout: Duration,
    /// What a timed-out quorum wait does: refuse (strict) or acknowledge
    /// and degrade to async (degrade).
    pub sync_policy: SyncPolicy,
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions {
            queue_depth: 64,
            max_batch: 32,
            max_inflight: 64,
            role: Role::Primary,
            sync_replicas: 0,
            sync_timeout: Duration::from_secs(5),
            sync_policy: SyncPolicy::Strict,
        }
    }
}

/// Handle to the apply worker plus the reader-side snapshot cache.
/// Cloneable across sessions; the worker exits when [`shutdown`]
/// (`SharedStore::shutdown`) runs or every handle is dropped.
pub struct SharedStore {
    tx: SyncSender<Job>,
    snaps: Arc<EpochSnapshots>,
    gate: Arc<Gate>,
    max_batch: usize,
    worker: Mutex<Option<JoinHandle<()>>>,
    hub: Arc<ReplicationHub>,
    role: Arc<RoleCell>,
    commit_seq: Arc<AtomicU64>,
    primary_seen: Arc<AtomicU64>,
    queue_len: Arc<AtomicUsize>,
    quorum: Arc<QuorumStateCell>,
    repl_epoch: Arc<AtomicU64>,
    views: Arc<ViewHub>,
}

impl SharedStore {
    /// Spawn the apply worker with asynchronous replication (no quorum
    /// waits). Shorthand for [`SharedStore::start_with`] with default
    /// quorum options.
    pub fn start(
        durable: DurableGraph,
        queue_depth: usize,
        max_batch: usize,
        max_inflight: usize,
        role: Role,
    ) -> Arc<SharedStore> {
        SharedStore::start_with(
            durable,
            StoreOptions {
                queue_depth,
                max_batch,
                max_inflight,
                role,
                ..StoreOptions::default()
            },
        )
    }

    /// Spawn the apply worker over an already-opened durable graph.
    ///
    /// `opts.role` is the configured starting role; a durably fenced
    /// store overrides it to [`Role::Fenced`] — a zombie ex-primary
    /// restarts fenced no matter what its command line says.
    pub fn start_with(mut durable: DurableGraph, opts: StoreOptions) -> Arc<SharedStore> {
        let role = if durable.is_fenced() {
            Role::Fenced {
                new_primary: durable.fence_target().map(str::to_owned),
            }
        } else {
            opts.role
        };
        let commit_seq = Arc::new(AtomicU64::new(durable.next_txid().saturating_sub(1)));
        let primary_seen = Arc::new(AtomicU64::new(0));
        let queue_len = Arc::new(AtomicUsize::new(0));
        let hub = Arc::new(ReplicationHub::new(opts.queue_depth.max(1) * 4));
        let (tx, rx) = mpsc::sync_channel(opts.queue_depth.max(1));
        let snaps = Arc::new(EpochSnapshots::new());
        let batch = opts.max_batch.max(1);
        let quorum = Arc::new(QuorumStateCell::new(if opts.sync_replicas == 0 {
            QuorumState::Async
        } else {
            QuorumState::InSync
        }));
        // Epochs start at 1; a fenced marker carries the epoch the fencer
        // acted in, which is the freshest this zombie has ever seen.
        let repl_epoch = Arc::new(AtomicU64::new(durable.fence_epoch().max(1)));

        let mut ship = ShipState::starting_after(durable.recovered_base());
        ship.keep(
            durable
                .take_recovered_statements()
                .into_iter()
                .map(|(seq, dialect, text)| ShippedUnit { seq, dialect, text }),
        );
        let views = Arc::new(ViewHub::new());
        let flush = Arc::new(FlushCtx {
            snaps: Arc::clone(&snaps),
            hub: Arc::clone(&hub),
            views: Arc::clone(&views),
            commit_seq: Arc::clone(&commit_seq),
            quorum: Arc::clone(&quorum),
            sync_replicas: opts.sync_replicas,
            sync_timeout: opts.sync_timeout,
            sync_policy: opts.sync_policy,
            ship: Mutex::new(ship),
        });
        let state = WorkerState {
            durable,
            primary_seen: Arc::clone(&primary_seen),
            flush,
            replica_engines: HashMap::new(),
        };
        let worker_queue = Arc::clone(&queue_len);
        let worker = std::thread::Builder::new()
            .name("cypher-apply".to_owned())
            .spawn(move || apply_worker(state, rx, worker_queue, batch))
            .ok();
        Arc::new(SharedStore {
            tx,
            snaps,
            gate: Arc::new(Gate::new(opts.max_inflight.max(1))),
            max_batch: batch,
            worker: Mutex::new(worker),
            hub,
            role: Arc::new(RoleCell::new(role)),
            commit_seq,
            primary_seen,
            queue_len,
            quorum,
            repl_epoch,
            views,
        })
    }

    pub fn gate(&self) -> &Arc<Gate> {
        &self.gate
    }

    /// The store's current replication role (shared with sessions and the
    /// replica tailer).
    pub fn role(&self) -> &Arc<RoleCell> {
        &self.role
    }

    /// Current write epoch (diagnostics; also stamped into `RunOk`).
    pub fn epoch(&self) -> u64 {
        self.snaps.epoch()
    }

    /// Highest durable commit sequence (== the WAL's last flushed txid).
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::Acquire)
    }

    /// A statement-atomic snapshot for a reader. Wait-free when the cache
    /// is current; otherwise one `Snapshot` job goes through the queue
    /// (FIFO ⇒ read-your-writes) and the worker publishes a fresh clone.
    /// `None` means the queue refused (full or worker gone) — the caller
    /// reports `Busy`.
    pub fn snapshot(&self) -> Option<Arc<PropertyGraph>> {
        if let Some(g) = self.snaps.cached() {
            return Some(g);
        }
        let (resp, rx) = mpsc::sync_channel(1);
        self.try_submit(Job::Snapshot { resp }).ok()?;
        rx.recv().ok()
    }

    /// Submit a write statement; blocks until the worker has flushed the
    /// batch containing it. `Err` means the queue refused admission.
    pub fn submit_write(&self, text: String, engine: Engine) -> Result<WriteOutcome, Busy> {
        let (resp, rx) = mpsc::sync_channel(1);
        self.try_submit(Job::Write { text, engine, resp })?;
        rx.recv().map_err(|_| Busy("apply worker exited"))
    }

    /// Apply one shipped unit (replica tailer path); blocks until the
    /// containing group commit flushed.
    pub fn replicate(&self, unit: ShippedUnit) -> Result<ReplicaApply, Busy> {
        let (resp, rx) = mpsc::sync_channel(1);
        self.try_submit(Job::Replicate { unit, resp })?;
        rx.recv().map_err(|_| Busy("apply worker exited"))
    }

    /// Checkpoint the durable store (the wire `Commit` frame).
    pub fn checkpoint(&self) -> Result<Result<(), StorageError>, Busy> {
        let (resp, rx) = mpsc::sync_channel(1);
        self.try_submit(Job::Checkpoint { resp })?;
        rx.recv().map_err(|_| Busy("apply worker exited"))
    }

    /// The statements the catch-up mirror retains, in commit order: every
    /// one committed since the last checkpoint before this process started,
    /// unless the mirror's byte cap dropped the oldest (differential-test
    /// oracle and `CommitLog` frame).
    pub fn commit_log(&self) -> Result<Vec<String>, Busy> {
        let (resp, rx) = mpsc::sync_channel(1);
        self.try_submit(Job::CommitLog { resp })?;
        rx.recv().map_err(|_| Busy("apply worker exited"))
    }

    /// Attach a replica subscriber. The worker performs the attach, so
    /// the handed-out catch-up payload and the live feed are gap-free by
    /// construction (nothing publishes between them).
    pub fn subscribe(
        &self,
        label: String,
        from: u64,
    ) -> Result<Result<SubscribeReply, StorageError>, Busy> {
        let (resp, rx) = mpsc::sync_channel(1);
        self.try_submit(Job::Subscribe { label, from, resp })?;
        rx.recv().map_err(|_| Busy("apply worker exited"))
    }

    /// Register a live query view and return its initial snapshot plus
    /// the committed-delta event feed. Goes through the worker queue (tail
    /// job) so registration lands exactly at a statement boundary of the
    /// durable state.
    pub fn subscribe_view(
        &self,
        text: String,
        engine: Engine,
    ) -> Result<Result<ViewSubscription, EvalError>, Busy> {
        let (resp, rx) = mpsc::sync_channel(1);
        self.try_submit(Job::SubscribeView { text, engine, resp })?;
        rx.recv().map_err(|_| Busy("apply worker exited"))
    }

    /// Drop a live query view (no queue round-trip needed: the hub mutex
    /// serializes against the feed). Returns `false` for an unknown id.
    pub fn unsubscribe_view(&self, id: u64) -> bool {
        self.views.unsubscribe(id)
    }

    /// Replace the store's contents with a snapshot shipped by the
    /// primary (replica bootstrap). Returns the covered sequence.
    pub fn install_snapshot(&self, bytes: Vec<u8>) -> Result<Result<u64, StorageError>, Busy> {
        let (resp, rx) = mpsc::sync_channel(1);
        self.try_submit(Job::InstallSnapshot { bytes, resp })?;
        rx.recv().map_err(|_| Busy("apply worker exited"))
    }

    /// Durably fence this store and drop every subscriber. The role flips
    /// to [`Role::Fenced`] even when persisting the marker failed — the
    /// in-memory fence in the storage layer refuses writes regardless.
    /// `epoch` is the fencer's replication epoch; the marker keeps the
    /// highest epoch ever written.
    pub fn fence(
        &self,
        new_primary: Option<String>,
        epoch: u64,
    ) -> Result<Result<(), StorageError>, Busy> {
        let (resp, rx) = mpsc::sync_channel(1);
        self.try_submit(Job::Fence {
            new_primary: new_primary.clone(),
            epoch,
            resp,
        })?;
        let out = rx.recv().map_err(|_| Busy("apply worker exited"))?;
        self.repl_epoch.fetch_max(epoch, Ordering::AcqRel);
        self.role.set(Role::Fenced { new_primary });
        Ok(out)
    }

    /// Promote this store to primary (manual failover): role flip plus an
    /// epoch bump — the new reign is distinguishable from the old one.
    /// Returns the commit sequence the new primary serves writes from.
    pub fn promote(&self) -> u64 {
        let next = self.repl_epoch().saturating_add(1);
        self.promote_with_epoch(next)
    }

    /// Promote into a specific replication epoch (automatic failover: the
    /// election winner promotes at `old epoch + 1`). The stored epoch
    /// only ever moves forward.
    pub fn promote_with_epoch(&self, epoch: u64) -> u64 {
        self.repl_epoch.fetch_max(epoch, Ordering::AcqRel);
        self.role.set(Role::Primary);
        self.commit_seq()
    }

    /// The replication epoch this server currently believes in.
    pub fn repl_epoch(&self) -> u64 {
        self.repl_epoch.load(Ordering::Acquire)
    }

    /// A replica learned the primary's epoch from a `SubscribeOk` frame.
    /// Epochs only move forward — a stale frame cannot regress it.
    pub fn note_primary_epoch(&self, epoch: u64) {
        self.repl_epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Current quorum-replication state (for `Stats` and the write path).
    pub fn quorum_state(&self) -> QuorumState {
        self.quorum.get()
    }

    /// Note the highest sequence number the tailer has received from the
    /// primary (replica-side lag bookkeeping).
    pub fn note_primary_seen(&self, seq: u64) {
        self.primary_seen.fetch_max(seq, Ordering::AcqRel);
    }

    /// Sample the store's statistics without going through the queue.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            role: self.role.get(),
            epoch: self.epoch(),
            commit_seq: self.commit_seq(),
            queue_len: self.queue_len.load(Ordering::Relaxed) as u64,
            primary_seen: self.primary_seen.load(Ordering::Acquire),
            repl_epoch: self.repl_epoch(),
            quorum: self.quorum.get(),
            overflow_drops: self.hub.overflow_drops(),
            replicas: self.hub.peers(),
            views: self.views.stats(),
        }
    }

    /// Count the job before sending it: the worker decrements as soon as
    /// it receives, so counting after a successful send could let it
    /// decrement first and wrap `queue_len` below zero.
    fn try_submit(&self, job: Job) -> Result<(), Busy> {
        self.queue_len.fetch_add(1, Ordering::Relaxed);
        let refused = match self.tx.try_send(job) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Full(_)) => Busy("apply queue full"),
            Err(TrySendError::Disconnected(_)) => Busy("apply worker exited"),
        };
        self.queue_len.fetch_sub(1, Ordering::Relaxed);
        Err(refused)
    }

    /// Stop the worker after it drains everything already queued. Blocking
    /// send: shutdown must not be refused by a momentarily full queue.
    /// Subscribers are disconnected first so their feeder sessions end.
    pub fn shutdown(&self) {
        self.hub.disconnect_all();
        self.views.reset();
        self.queue_len.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(Job::Shutdown).is_err() {
            self.queue_len.fetch_sub(1, Ordering::Relaxed);
        }
        if let Ok(mut guard) = self.worker.lock() {
            if let Some(h) = guard.take() {
                let _ = h.join();
            }
        }
    }

    /// The configured group-commit batch size (diagnostics).
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }
}

/// Admission refused; carries the reason for the `Busy` error message.
#[derive(Debug, Clone, Copy)]
pub struct Busy(pub &'static str);

/// Everything the batch-builder stage owns: the durable graph plus the
/// structures that must only ever change on the builder thread, in
/// lockstep with the WAL.
struct WorkerState {
    durable: DurableGraph,
    primary_seen: Arc<AtomicU64>,
    /// State shared with the flush/ack stage.
    flush: Arc<FlushCtx>,
    /// Replica mode: cached per-dialect engines for replaying shipped
    /// statements. No lint, no budgets — the primary already enforced its
    /// session policies before committing, and a replica must apply
    /// whatever the primary committed.
    replica_engines: HashMap<u8, Engine>,
}

/// Retention cap of the catch-up mirror, in bytes of retained units. A
/// subscriber that falls further behind than this bootstraps from a
/// snapshot, which is about what a backlog of this size would cost to
/// ship anyway.
const MIRROR_CAP_BYTES: usize = 16 << 20;

/// Shipping bookkeeping shared between the builder and flusher stages.
/// The flusher extends it as batches retire durable; the builder reads it
/// for tail jobs only after draining the pipeline, so those reads observe
/// a quiesced, batch-boundary state.
struct ShipState {
    /// Shipped units retained for subscriber catch-up: every committed
    /// unit with `seq > mirror_base`, in order. Seeded at startup from the
    /// WAL replay, so the retention window is "since the last checkpoint
    /// before this process started", cut to the newest
    /// [`MIRROR_CAP_BYTES`].
    mirror: VecDeque<ShippedUnit>,
    /// Bytes the retained units account for (see [`unit_bytes`]).
    mirror_bytes: usize,
    /// Sequence the mirror starts after; a subscriber at or beyond this
    /// can catch up from the mirror, an older one needs a snapshot.
    mirror_base: u64,
}

/// What one retained unit counts against [`MIRROR_CAP_BYTES`].
fn unit_bytes(unit: &ShippedUnit) -> usize {
    unit.text.len() + std::mem::size_of::<ShippedUnit>()
}

impl ShipState {
    /// An empty mirror whose first unit will be `base + 1`.
    fn starting_after(base: u64) -> ShipState {
        ShipState {
            mirror: VecDeque::new(),
            mirror_bytes: 0,
            mirror_base: base,
        }
    }

    /// Append durable units, then drop the oldest until the mirror fits
    /// its cap again; a subscriber behind a dropped unit takes the
    /// snapshot-bootstrap path.
    fn keep(&mut self, units: impl IntoIterator<Item = ShippedUnit>) {
        for unit in units {
            self.mirror_bytes += unit_bytes(&unit);
            self.mirror.push_back(unit);
        }
        while self.mirror_bytes > MIRROR_CAP_BYTES {
            let Some(oldest) = self.mirror.pop_front() else {
                break;
            };
            self.mirror_bytes -= unit_bytes(&oldest);
            self.mirror_base = oldest.seq;
        }
    }
}

/// Everything the flush/ack stage needs, shared (behind one `Arc`) with
/// the builder thread, which uses the same cells for tail jobs and for
/// rolling back after a failed flush.
struct FlushCtx {
    snaps: Arc<EpochSnapshots>,
    hub: Arc<ReplicationHub>,
    /// Live-query views fed by the flush stage (post-fsync only).
    views: Arc<ViewHub>,
    commit_seq: Arc<AtomicU64>,
    /// Quorum-replication state reported through `Stats`.
    quorum: Arc<QuorumStateCell>,
    /// Replica confirmations each group commit waits for (0 = async).
    sync_replicas: usize,
    /// Quorum wait deadline per group commit.
    sync_timeout: Duration,
    /// Refuse or degrade when the wait times out.
    sync_policy: SyncPolicy,
    ship: Mutex<ShipState>,
}

impl FlushCtx {
    fn ship(&self) -> MutexGuard<'_, ShipState> {
        // Both stages only ever append or swap whole values under this
        // lock; a poisoned guard still holds consistent data.
        self.ship.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One staged group commit travelling from the builder to the flusher:
/// the WAL window's sync ticket (`None` when the batch appended nothing),
/// the per-item acknowledgements it gates, and the units to ship once
/// durable.
struct FlushBatch {
    ticket: Option<SyncTicket>,
    acks: Vec<PendingAck>,
    units: Vec<ShippedUnit>,
    /// Per-committed-statement graph deltas for view maintenance, in
    /// commit order. Captured only while views are registered; empty
    /// otherwise.
    deltas: Vec<(u64, Vec<Delta>)>,
    /// Highest txid applied when the batch was staged (the batch's commit
    /// sequence once durable). Meaningless when `units` is empty.
    head_seq: u64,
}

/// The builder's handle to the flush stage: the job channel, the fsync
/// outcomes coming back, and whether a staged window is still in flight.
struct Pipeline {
    /// `None` when the flusher thread could not be spawned — the builder
    /// then degrades to serial (in-line) group commits.
    tx: Option<SyncSender<FlushBatch>>,
    done_rx: Receiver<std::io::Result<()>>,
    /// A batch has been handed to the flusher and its outcome not yet
    /// consumed. At most one, matching the WAL's single staged window.
    outstanding: bool,
    flusher: Option<JoinHandle<()>>,
}

impl Pipeline {
    fn spawn(ctx: Arc<FlushCtx>) -> Pipeline {
        let (tx, rx) = mpsc::sync_channel::<FlushBatch>(1);
        let (done_tx, done_rx) = mpsc::sync_channel::<std::io::Result<()>>(1);
        let flusher = std::thread::Builder::new()
            .name("cypher-flush".to_owned())
            .spawn(move || flush_worker(ctx, rx, done_tx))
            .ok();
        Pipeline {
            tx: flusher.is_some().then_some(tx),
            done_rx,
            outstanding: false,
            flusher,
        }
    }

    /// Disconnect the job channel and wait for the flusher to exit. The
    /// caller must have drained the pipeline first.
    fn join(mut self) {
        self.tx = None;
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
    }
}

/// The flush/ack stage: fsync each staged batch, publish + acknowledge
/// it, then report the fsync outcome to the builder. Because the outcome
/// is sent only after the batch fully retired (acks included), consuming
/// it doubles as a pipeline drain barrier: once the builder has received
/// it, the flusher is idle and the ship state is quiesced.
fn flush_worker(
    ctx: Arc<FlushCtx>,
    rx: Receiver<FlushBatch>,
    done: SyncSender<std::io::Result<()>>,
) {
    while let Ok(batch) = rx.recv() {
        let outcome = run_flush(&ctx, batch);
        if done.send(outcome).is_err() {
            return;
        }
    }
}

/// One batched unit of group-committed work: a client write or a shipped
/// unit. Both run through `apply_buffered_logged` and share the batch's
/// single fsync.
enum BatchItem {
    Write {
        text: String,
        engine: Engine,
        resp: SyncSender<WriteOutcome>,
    },
    Replicate {
        unit: ShippedUnit,
        resp: SyncSender<ReplicaApply>,
    },
}

/// Per-item result held until the batch's flush decides its fate.
enum PendingAck {
    Write(SyncSender<WriteOutcome>, WriteOutcome),
    Replicate(SyncSender<ReplicaApply>, ReplicaApply),
}

fn apply_worker(
    mut state: WorkerState,
    rx: Receiver<Job>,
    queue_len: Arc<AtomicUsize>,
    max_batch: usize,
) {
    let mut pipe = Pipeline::spawn(Arc::clone(&state.flush));
    loop {
        // Block for the first job, then opportunistically drain more up to
        // the batch bound. Only writes and replicated units extend a
        // batch: the first other job closes it (it must observe the
        // flushed, epoch-bumped state).
        let Ok(first) = rx.recv() else {
            // Every SharedStore handle dropped: drain, flush and exit.
            drain_pipeline(&mut state, &mut pipe);
            let _ = state.durable.flush();
            pipe.join();
            return;
        };
        queue_len.fetch_sub(1, Ordering::Relaxed);
        let mut items: Vec<BatchItem> = Vec::new();
        let mut tail: Option<Job> = None;
        match as_batch_item(first) {
            Ok(item) => items.push(item),
            Err(other) => tail = Some(*other),
        }
        while tail.is_none() && items.len() < max_batch {
            match rx.try_recv() {
                Ok(job) => {
                    queue_len.fetch_sub(1, Ordering::Relaxed);
                    match as_batch_item(job) {
                        Ok(item) => items.push(item),
                        Err(other) => tail = Some(*other),
                    }
                }
                Err(_) => break,
            }
        }

        if !items.is_empty() {
            dispatch_batch(&mut state, &mut pipe, items);
        }

        let Some(tail) = tail else { continue };
        // Non-batchable jobs must observe flushed, epoch-bumped,
        // fully-acknowledged state: drain the flush stage first. (Failure
        // recovery, if the in-flight batch's fsync failed, also happens
        // here, inside drain_pipeline.)
        drain_pipeline(&mut state, &mut pipe);
        match tail {
            Job::Snapshot { resp } => {
                let _ = resp.send(state.flush.snaps.publish(state.durable.graph()));
            }
            Job::Checkpoint { resp } => {
                let _ = resp.send(run_checkpoint(&mut state));
            }
            Job::CommitLog { resp } => {
                let ship = state.flush.ship();
                let _ = resp.send(ship.mirror.iter().map(|u| u.text.clone()).collect());
            }
            Job::Subscribe { label, from, resp } => {
                let _ = resp.send(run_subscribe(&mut state, &label, from));
            }
            Job::SubscribeView { text, engine, resp } => {
                let seq = state.durable.next_txid().saturating_sub(1);
                let epoch = state.flush.snaps.epoch();
                let _ = resp.send(state.flush.views.register(
                    state.durable.graph(),
                    seq,
                    epoch,
                    &text,
                    &engine,
                ));
            }
            Job::InstallSnapshot { bytes, resp } => {
                let _ = resp.send(run_install_snapshot(&mut state, &bytes));
            }
            Job::Fence {
                new_primary,
                epoch,
                resp,
            } => {
                // Disconnect first: a fenced store must not ship another
                // unit, even one already committed, on a live feed that a
                // replica might mistake for primary liveness.
                state.flush.hub.disconnect_all();
                // A fenced store commits nothing more; end live query
                // feeds too rather than leaving them to idle forever.
                state.flush.views.reset();
                let _ = resp.send(state.durable.fence(new_primary.as_deref(), epoch));
            }
            Job::Shutdown => {
                let _ = state.durable.flush();
                pipe.join();
                return;
            }
            Job::Write { .. } | Job::Replicate { .. } => {
                unreachable!("batchable jobs never land in tail")
            }
        }
    }
}

/// Run one batch through the two-stage pipeline: apply every item (batch
/// N+1's applies overlap batch N's fsync/quorum wait on the flusher),
/// retire the previous staged window, then stage this batch's window and
/// hand it to the flusher.
fn dispatch_batch(state: &mut WorkerState, pipe: &mut Pipeline, items: Vec<BatchItem>) {
    let Some(tx) = pipe.tx.clone() else {
        // No flusher thread (spawn failed at startup): serial group commit.
        run_batch(state, items);
        return;
    };
    let (acks, units, deltas, head_seq) = apply_batch(state, items);
    if drain_pipeline(state, pipe) {
        // The in-flight predecessor batch's fsync failed while this batch
        // was applied on top of it; drain_pipeline already rolled the
        // graph (and this batch's never-staged WAL bytes) back to the
        // durable horizon. Nothing here was acknowledged — downgrade it
        // all, exactly like the predecessor's own items.
        let msg =
            "group commit failed: a preceding batch's fsync failed and rolled this batch back";
        for ack in acks {
            send_ack(ack, Some(msg));
        }
        return;
    }
    match state.durable.stage_flush() {
        Ok(ticket) => match tx.send(FlushBatch {
            ticket,
            acks,
            units,
            deltas,
            head_seq,
        }) {
            Ok(()) => pipe.outstanding = true,
            Err(mpsc::SendError(batch)) => {
                // Flusher gone mid-run (it only exits on teardown or
                // panic): fall back to completing this commit in-line so
                // the durability protocol still holds, and stay serial.
                pipe.tx = None;
                finish_flush_inline(state, batch);
            }
        },
        Err(e) => {
            // Sealed (a mid-batch append failure already rolled the
            // window back) or the sync handle could not be acquired:
            // nothing in this batch is durable.
            let msg = format!("group commit failed: {e}");
            recover_after_failed_flush(state);
            for ack in acks {
                send_ack(ack, Some(&msg));
            }
        }
    }
}

/// Consume the outstanding flush outcome, if any, retiring the staged WAL
/// window. Returns `true` when that flush failed — the durable graph has
/// then already been rolled back to the durable horizon and reader caches
/// invalidated.
fn drain_pipeline(state: &mut WorkerState, pipe: &mut Pipeline) -> bool {
    if !pipe.outstanding {
        return false;
    }
    pipe.outstanding = false;
    let outcome = pipe
        .done_rx
        .recv()
        .unwrap_or_else(|_| Err(std::io::Error::other("flush stage exited")));
    if state.durable.complete_flush(outcome).is_err() {
        recover_after_failed_flush(state);
        true
    } else {
        false
    }
}

/// Roll back after a failed group commit. The WAL already rolled back to
/// the durable horizon: nothing in the failed window is durable, nothing
/// was acknowledged as committed and nothing was shipped. Reopen so the
/// in-memory graph matches the durable (== shipped) state — the legacy
/// "sealed memory runs ahead until a checkpoint absorbs it" semantic
/// would diverge every replica. The epoch bumps so no reader keeps a
/// cache from the rolled-back window.
fn recover_after_failed_flush(state: &mut WorkerState) {
    if let Err(reopen_err) = state.durable.reopen() {
        // Could not rebuild from disk either; the handle stays sealed and
        // every later write reports it.
        eprintln!("cypher-serve: reopen after failed flush also failed: {reopen_err}");
    }
    state.flush.snaps.bump();
    state.flush.commit_seq.store(
        state.durable.next_txid().saturating_sub(1),
        Ordering::Release,
    );
}

/// Complete a staged commit on the builder thread (flusher unavailable):
/// same protocol, no overlap.
fn finish_flush_inline(state: &mut WorkerState, batch: FlushBatch) {
    let ctx = Arc::clone(&state.flush);
    let outcome = run_flush(&ctx, batch);
    if state.durable.complete_flush(outcome).is_err() {
        recover_after_failed_flush(state);
    }
}

fn as_batch_item(job: Job) -> Result<BatchItem, Box<Job>> {
    match job {
        Job::Write { text, engine, resp } => Ok(BatchItem::Write { text, engine, resp }),
        Job::Replicate { unit, resp } => Ok(BatchItem::Replicate { unit, resp }),
        other => Err(Box::new(other)),
    }
}

/// Checkpoint, reconciling a sealed handle the replication-safe way: a
/// seal means the in-memory graph may be ahead of the durable (and
/// therefore shipped) horizon, so absorb **nothing** — reopen from the
/// durable state, then checkpoint that.
fn run_checkpoint(state: &mut WorkerState) -> Result<(), StorageError> {
    if state.durable.is_sealed() {
        state.durable.reopen()?;
        // Memory rolled back: invalidate reader caches and re-truth the
        // published sequence.
        state.flush.snaps.bump();
        state.flush.commit_seq.store(
            state.durable.next_txid().saturating_sub(1),
            Ordering::Release,
        );
    }
    state.durable.checkpoint()
}

/// Grant a subscription. Runs on the worker so nothing can publish
/// between assembling the catch-up payload and attaching the live feed.
fn run_subscribe(
    state: &mut WorkerState,
    label: &str,
    from: u64,
) -> Result<SubscribeReply, StorageError> {
    let head = state.durable.next_txid().saturating_sub(1);
    let ship = state.flush.ship();
    if from >= ship.mirror_base {
        // The mirror covers the subscriber's position: hand out the tail
        // it is missing and attach at the head.
        let backlog: Vec<ShippedUnit> = ship
            .mirror
            .iter()
            .filter(|u| u.seq > from)
            .cloned()
            .collect();
        drop(ship);
        let sub = state.flush.hub.attach(label, head);
        Ok(SubscribeReply {
            start: SubscribeStart::Backlog(backlog),
            sub,
            seq: head,
        })
    } else {
        drop(ship);
        // Too far behind (a checkpoint truncated its window before this
        // process started): bootstrap from a full snapshot.
        let (covered, bytes) = state.durable.encode_snapshot_bytes()?;
        let sub = state.flush.hub.attach(label, covered);
        Ok(SubscribeReply {
            start: SubscribeStart::Snapshot {
                seq: covered,
                bytes,
            },
            sub,
            seq: head,
        })
    }
}

/// Install a shipped snapshot: the replica's entire state is replaced and
/// its replication bookkeeping rebased onto the covered sequence.
fn run_install_snapshot(state: &mut WorkerState, bytes: &[u8]) -> Result<u64, StorageError> {
    let covered = state.durable.install_snapshot(bytes)?;
    // The entire graph was replaced: every view's shadow is now wrong.
    // Reset rather than resync — subscribers observe the disconnect and
    // re-register against the new state.
    state.flush.views.reset();
    *state.flush.ship() = ShipState::starting_after(covered);
    state.flush.commit_seq.store(covered, Ordering::Release);
    state.primary_seen.fetch_max(covered, Ordering::AcqRel);
    state.flush.snaps.bump();
    Ok(covered)
}

/// What `apply_batch` hands the flush stage: pending acknowledgements,
/// the units to ship once durable, the per-statement committed deltas
/// (seq, ops) for the view hub, and the batch's head txid.
type AppliedBatch = (
    Vec<PendingAck>,
    Vec<ShippedUnit>,
    Vec<(u64, Vec<Delta>)>,
    u64,
);

/// The apply half of a group commit: run each item through
/// `apply_buffered_logged` so its commit unit joins the un-synced WAL
/// window. Returns the pending acknowledgements, the units to ship once
/// durable, and the batch's head txid. No item is acknowledged here —
/// that is the flush stage's job, after the window is durable.
fn apply_batch(state: &mut WorkerState, items: Vec<BatchItem>) -> AppliedBatch {
    let mut acks: Vec<PendingAck> = Vec::new();
    let mut batch_units: Vec<ShippedUnit> = Vec::new();
    let mut batch_deltas: Vec<(u64, Vec<Delta>)> = Vec::new();
    // Sampled once per batch: registration is a tail job, so it cannot
    // land between two items of the same batch.
    let capture = state.flush.views.active();

    for item in items {
        match item {
            BatchItem::Write { text, engine, resp } => {
                let dialect = dialect_byte(engine.dialect);
                let applied = state
                    .durable
                    .apply_buffered_logged(Some((dialect, &text)), |g| engine.run(g, &text));
                match applied {
                    Ok((Ok(result), Some(seq))) => {
                        if capture {
                            let ops = state.durable.take_last_delta();
                            batch_deltas.push((seq, Delta::from_ops(&ops, state.durable.graph())));
                        }
                        batch_units.push(ShippedUnit { seq, dialect, text });
                        acks.push(PendingAck::Write(resp, WriteOutcome::Ok(result)));
                    }
                    Ok((Ok(result), None)) => {
                        // No graph delta: nothing logged, nothing shipped.
                        acks.push(PendingAck::Write(resp, WriteOutcome::Ok(result)));
                    }
                    Ok((Err(e), _)) => acks.push(PendingAck::Write(resp, WriteOutcome::Eval(e))),
                    Err(e) => {
                        // Append failure seals the handle; later items of
                        // the batch see Sealed from their own apply, and
                        // the stage attempt afterwards reports Sealed too,
                        // downgrading every earlier Ok (their units were
                        // rolled off the log).
                        acks.push(PendingAck::Write(resp, WriteOutcome::Storage(e)));
                    }
                }
            }
            BatchItem::Replicate { unit, resp } => {
                state.primary_seen.fetch_max(unit.seq, Ordering::AcqRel);
                let outcome = apply_shipped(state, &unit);
                if matches!(outcome, ReplicaApply::Applied) {
                    if capture {
                        let ops = state.durable.take_last_delta();
                        batch_deltas.push((unit.seq, Delta::from_ops(&ops, state.durable.graph())));
                    }
                    batch_units.push(unit);
                }
                acks.push(PendingAck::Replicate(resp, outcome));
            }
        }
    }

    let head_seq = state.durable.next_txid().saturating_sub(1);
    (acks, batch_units, batch_deltas, head_seq)
}

/// The flush/ack half of a group commit: fsync the staged window, then —
/// and only then — publish the units, wait for quorum and acknowledge
/// every item. On an fsync failure every item of the batch (even ones
/// that executed cleanly) reports the storage error: none of them was
/// ever acknowledged, so none of them is lost *silently*. The builder
/// learns the outcome through the returned `Result` and rolls the
/// in-memory graph back, so memory never runs ahead of what replicas
/// were shipped.
fn run_flush(ctx: &FlushCtx, batch: FlushBatch) -> std::io::Result<()> {
    let FlushBatch {
        ticket,
        acks,
        units,
        deltas,
        head_seq,
    } = batch;
    let synced = match ticket {
        Some(mut t) => t.sync(),
        None => Ok(()),
    };
    if let Err(e) = synced {
        let msg = format!("group commit failed: {e}");
        for ack in acks {
            send_ack(ack, Some(&msg));
        }
        return Err(e);
    }

    let mut quorum_fail: Option<(usize, usize, u64)> = None;
    if !units.is_empty() {
        // New statement-boundary state: re-truth the published sequence,
        // invalidate reader caches, ship the (now durable) units to every
        // subscriber and keep them in the catch-up mirror. The epoch bumps
        // *before* the acks go out, so an acknowledged writer's next read
        // always misses the stale cache.
        ctx.commit_seq.store(head_seq, Ordering::Release);
        ctx.snaps.bump();
        let dropped = ctx.hub.publish(&units);
        for label in dropped {
            eprintln!("cypher-serve: replica {label} dropped (feed backlog full)");
        }
        ctx.ship().keep(units);

        // Quorum gate: the batch is locally durable and shipped; hold the
        // client acknowledgements until enough replicas confirmed their
        // own fsync of every unit in it.
        if ctx.sync_replicas > 0 {
            let waited = Instant::now();
            let deadline = waited + ctx.sync_timeout;
            if ctx.hub.wait_durable(head_seq, ctx.sync_replicas, deadline) {
                ctx.quorum.set(QuorumState::InSync);
            } else {
                let acked = ctx.hub.durable_count(head_seq);
                let waited_ms = waited.elapsed().as_millis() as u64;
                match ctx.sync_policy {
                    SyncPolicy::Strict => {
                        ctx.quorum.set(QuorumState::TimedOut);
                        quorum_fail = Some((acked, ctx.sync_replicas, waited_ms));
                    }
                    SyncPolicy::Degrade => ctx.quorum.set(QuorumState::Degraded),
                }
            }
        }
    }
    for ack in acks {
        match quorum_fail {
            Some((acked, needed, waited_ms)) => send_quorum_refusal(ack, acked, needed, waited_ms),
            None => send_ack(ack, None),
        }
    }
    // Feed the view subsystem last: the batch is durable (fsync above),
    // its epoch is published, and the acknowledgements are out — live
    // query notification latency never sits on the write path. Quorum
    // refusal does not gate this: the batch is durable locally and
    // visible to readers (the epoch bumped before the quorum wait), so
    // subscribers must see it too.
    if !deltas.is_empty() {
        ctx.views.feed(&deltas, ctx.snaps.epoch());
    }
    Ok(())
}

/// Serial group commit: apply, stage, fsync and acknowledge a batch on
/// the calling thread. The degraded path when no flusher thread exists,
/// and the reference implementation the pipelined path must match.
fn run_batch(state: &mut WorkerState, items: Vec<BatchItem>) {
    let (acks, units, deltas, head_seq) = apply_batch(state, items);
    match state.durable.stage_flush() {
        Ok(ticket) => finish_flush_inline(
            state,
            FlushBatch {
                ticket,
                acks,
                units,
                deltas,
                head_seq,
            },
        ),
        Err(e) => {
            let msg = format!("group commit failed: {e}");
            recover_after_failed_flush(state);
            for ack in acks {
                send_ack(ack, Some(&msg));
            }
        }
    }
}

/// Acknowledge one batch item. `downgrade` carries the group-commit
/// failure message when the batch's flush failed: positive outcomes turn
/// into storage errors (the work is gone), negatives pass through.
fn send_ack(ack: PendingAck, downgrade: Option<&str>) {
    match ack {
        PendingAck::Write(resp, outcome) => {
            let outcome = match (downgrade, outcome) {
                (Some(msg), WriteOutcome::Ok(_)) => {
                    WriteOutcome::Storage(StorageError::Io(std::io::Error::other(msg.to_owned())))
                }
                (_, other) => other,
            };
            let _ = resp.send(outcome);
        }
        PendingAck::Replicate(resp, outcome) => {
            let outcome = match (downgrade, outcome) {
                (Some(msg), ReplicaApply::Applied) => {
                    ReplicaApply::Storage(StorageError::Io(std::io::Error::other(msg.to_owned())))
                }
                (_, other) => other,
            };
            let _ = resp.send(outcome);
        }
    }
}

/// Acknowledge one batch item after a timed-out strict quorum wait:
/// positive write outcomes become the retryable [`WriteOutcome::Quorum`]
/// refusal (the work is durable locally but unconfirmed), negatives pass
/// through unchanged. Replicated units keep their outcome — a replica's
/// own apply does not wait on other replicas.
fn send_quorum_refusal(ack: PendingAck, acked: usize, needed: usize, waited_ms: u64) {
    match ack {
        PendingAck::Write(resp, outcome) => {
            let outcome = match outcome {
                WriteOutcome::Ok(_) => WriteOutcome::Quorum {
                    acked,
                    needed,
                    waited_ms,
                },
                other => other,
            };
            let _ = resp.send(outcome);
        }
        PendingAck::Replicate(resp, outcome) => {
            let _ = resp.send(outcome);
        }
    }
}

/// Replay one shipped unit against the replica's graph, enforcing the
/// sequence discipline: apply exactly at `next_txid`, skip duplicates,
/// refuse gaps, and treat any execution difference as divergence.
fn apply_shipped(state: &mut WorkerState, unit: &ShippedUnit) -> ReplicaApply {
    let expected = state.durable.next_txid();
    if unit.seq < expected {
        return ReplicaApply::Skipped;
    }
    if unit.seq > expected {
        return ReplicaApply::Gap { expected };
    }
    let engine = state
        .replica_engines
        .entry(unit.dialect)
        .or_insert_with(|| EngineBuilder::new(dialect_from_byte(unit.dialect)).build())
        .clone();
    match state
        .durable
        .apply_buffered_logged(Some((unit.dialect, &unit.text)), |g| {
            engine.run(g, &unit.text)
        }) {
        Ok((Ok(_), Some(seq))) if seq == unit.seq => ReplicaApply::Applied,
        Ok((Ok(_), Some(seq))) => {
            ReplicaApply::Diverged(format!("unit {} landed at local txid {seq}", unit.seq))
        }
        Ok((Ok(_), None)) => ReplicaApply::Diverged(format!(
            "unit {} changed nothing here but committed a delta on the primary",
            unit.seq
        )),
        Ok((Err(e), _)) => {
            ReplicaApply::Diverged(format!("unit {} failed on the replica: {e}", unit.seq))
        }
        Err(e) => ReplicaApply::Storage(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypher_core::graph_to_cypher;

    fn temp_store(name: &str, queue: usize, batch: usize, inflight: usize) -> Arc<SharedStore> {
        let dir =
            std::env::temp_dir().join(format!("cypher-server-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let durable = DurableGraph::open(&dir).unwrap();
        SharedStore::start(durable, queue, batch, inflight, Role::Primary)
    }

    fn worker_state(durable: DurableGraph) -> WorkerState {
        WorkerState {
            durable,
            primary_seen: Arc::new(AtomicU64::new(0)),
            flush: Arc::new(FlushCtx {
                snaps: Arc::new(EpochSnapshots::new()),
                hub: Arc::new(ReplicationHub::new(8)),
                views: Arc::new(ViewHub::new()),
                commit_seq: Arc::new(AtomicU64::new(0)),
                quorum: Arc::new(QuorumStateCell::new(QuorumState::Async)),
                sync_replicas: 0,
                sync_timeout: Duration::from_secs(5),
                sync_policy: SyncPolicy::Strict,
                ship: Mutex::new(ShipState::starting_after(0)),
            }),
            replica_engines: HashMap::new(),
        }
    }

    fn temp_store_quorum(
        name: &str,
        sync_replicas: usize,
        sync_timeout: Duration,
        sync_policy: SyncPolicy,
    ) -> Arc<SharedStore> {
        let dir =
            std::env::temp_dir().join(format!("cypher-server-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let durable = DurableGraph::open(&dir).unwrap();
        SharedStore::start_with(
            durable,
            StoreOptions {
                queue_depth: 16,
                max_batch: 8,
                max_inflight: 8,
                role: Role::Primary,
                sync_replicas,
                sync_timeout,
                sync_policy,
            },
        )
    }

    /// `queue_len` counts a job before sending it, so the worker's
    /// decrement on receipt can never run first and wrap the counter: with
    /// one outstanding job per submitter it never exceeds the queue cap
    /// plus the submitter count, and it drains back to zero.
    #[test]
    fn queue_len_stays_bounded_under_submit_churn() {
        const SUBMITTERS: u64 = 4;
        let store = temp_store("queue-len", 1, 1, 8);
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sampler = {
            let (store, done) = (Arc::clone(&store), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut max = 0;
                while !done.load(Ordering::Relaxed) {
                    max = max.max(store.stats().queue_len);
                    std::thread::yield_now();
                }
                max
            })
        };
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let _ = store.commit_log();
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        let max = sampler.join().unwrap();
        assert!(max <= 1 + SUBMITTERS, "queue_len peaked at {max}");
        assert_eq!(store.stats().queue_len, 0);
        store.shutdown();
    }

    #[test]
    fn writes_commit_and_readers_see_them() {
        let store = temp_store("rw", 16, 8, 8);
        let engine = Engine::revised();
        match store
            .submit_write("CREATE (:A {id: 1})".into(), engine.clone())
            .unwrap()
        {
            WriteOutcome::Ok(res) => assert_eq!(res.stats.nodes_created, 1),
            other => panic!("{other:?}"),
        }
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.node_count(), 1);
        // Same epoch: second snapshot is the cached Arc, not a new clone.
        let again = store.snapshot().unwrap();
        assert!(Arc::ptr_eq(&snap, &again));
        assert_eq!(store.commit_seq(), 1);
        store.shutdown();
    }

    /// Live query subscription end-to-end at the store level: register a
    /// view, commit writes, and verify (a) every committed change arrives
    /// as an ordered row delta, (b) replaying the deltas over the initial
    /// snapshot reproduces a fresh evaluation on the final state, and
    /// (c) unsubscribing stops the feed.
    #[test]
    fn view_subscription_delivers_replayable_deltas() {
        let store = temp_store("views", 16, 8, 8);
        let engine = Engine::revised();
        match store
            .submit_write("CREATE (:P {name: 'a'})".into(), engine.clone())
            .unwrap()
        {
            WriteOutcome::Ok(_) => {}
            other => panic!("{other:?}"),
        }
        let sub = store
            .subscribe_view("MATCH (n:P) RETURN n.name".into(), engine.clone())
            .unwrap()
            .unwrap();
        assert!(!sub.reg.fallback);
        assert_eq!(sub.reg.columns, vec!["n.name".to_owned()]);
        assert_eq!(sub.reg.rows.len(), 1);
        let mut rows: HashMap<String, (Vec<cypher_graph::Value>, u64)> = sub
            .reg
            .rows
            .iter()
            .map(|(r, n)| (format!("{r:?}"), (r.clone(), *n)))
            .collect();
        for stmt in [
            "CREATE (:P {name: 'b'})",
            "MATCH (n:P {name: 'a'}) SET n.name = 'c'",
            "MATCH (n:P {name: 'b'}) DETACH DELETE n",
        ] {
            match store.submit_write(stmt.into(), engine.clone()).unwrap() {
                WriteOutcome::Ok(_) => {}
                other => panic!("{other:?}"),
            }
            let ev = sub
                .events
                .recv_timeout(Duration::from_secs(5))
                .expect("a delta per committed statement");
            assert!(ev.epoch > 0);
            for (row, n) in &ev.update.removes {
                let key = format!("{row:?}");
                let e = rows.get_mut(&key).expect("remove of a present row");
                assert!(e.1 >= *n);
                e.1 -= *n;
                if e.1 == 0 {
                    rows.remove(&key);
                }
            }
            for (row, n) in &ev.update.adds {
                let e = rows
                    .entry(format!("{row:?}"))
                    .or_insert_with(|| (row.clone(), 0));
                e.1 += *n;
            }
        }
        let snap = store.snapshot().unwrap();
        let fresh = engine.run_read(&snap, "MATCH (n:P) RETURN n.name").unwrap();
        let mut expected: Vec<String> = fresh.rows.iter().map(|r| format!("{r:?}")).collect();
        expected.sort();
        let mut replayed: Vec<String> = rows
            .values()
            .flat_map(|(r, n)| std::iter::repeat_n(format!("{r:?}"), *n as usize))
            .collect();
        replayed.sort();
        assert_eq!(replayed, expected, "replayed deltas != final state");
        assert_eq!(store.stats().views.len(), 1);

        assert!(store.unsubscribe_view(sub.reg.id));
        assert!(!store.unsubscribe_view(sub.reg.id));
        match store
            .submit_write("CREATE (:P {name: 'z'})".into(), engine.clone())
            .unwrap()
        {
            WriteOutcome::Ok(_) => {}
            other => panic!("{other:?}"),
        }
        // The channel is disconnected once the hub dropped the sender.
        match sub.events.recv_timeout(Duration::from_millis(500)) {
            Err(_) => {}
            Ok(ev) => panic!("unsubscribed view still produced {ev:?}"),
        }
        store.shutdown();
    }

    #[test]
    fn commit_log_replay_reproduces_the_graph() {
        let store = temp_store("log", 16, 8, 8);
        let engine = Engine::revised();
        for stmt in [
            "CREATE (:A {id: 1})",
            "CREATE (:B {id: 2})",
            "MATCH (a:A), (b:B) CREATE (a)-[:R]->(b)",
        ] {
            match store.submit_write(stmt.into(), engine.clone()).unwrap() {
                WriteOutcome::Ok(_) => {}
                other => panic!("{other:?}"),
            }
        }
        // A failed statement must not enter the log.
        match store
            .submit_write("MATCH (a:A) DELETE a".into(), engine.clone())
            .unwrap()
        {
            WriteOutcome::Eval(EvalError::DeleteWouldDangle { .. }) => {}
            other => panic!("{other:?}"),
        }
        let log = store.commit_log().unwrap();
        assert_eq!(log.len(), 3);
        let snap = store.snapshot().unwrap();
        let mut replay = cypher_graph::PropertyGraph::new();
        for stmt in &log {
            engine.run(&mut replay, stmt).unwrap();
        }
        assert_eq!(graph_to_cypher(&replay), graph_to_cypher(&snap));
        store.shutdown();
    }

    /// A mid-batch WAL append failure rolls back every pending unit of the
    /// batch, so statements that executed *earlier* in the same batch must
    /// not be acknowledged as `Ok` — their units are gone. Every statement
    /// of the batch reports a storage error and the mirror stays empty.
    /// The worker reopens the store, so the in-memory graph rolls back to
    /// the durable horizon instead of running ahead of it.
    #[test]
    fn midbatch_append_failure_downgrades_earlier_acks() {
        use cypher_storage::{FaultFs, FaultKind, OpKind};
        let dir = std::env::temp_dir().join(format!(
            "cypher-server-store-midbatch-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Write 0 is the WAL header; write 1 is the first statement's
        // commit unit; write 2 (the second statement's unit) fails and
        // rolls the file back to the durable horizon, taking write 1 too.
        let fault = FaultFs::fail_on(OpKind::Write, 2, FaultKind::ShortWrite);
        let durable = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        let mut state = worker_state(durable);
        let engine = Engine::revised();
        let (tx_a, rx_a) = mpsc::sync_channel(1);
        let (tx_b, rx_b) = mpsc::sync_channel(1);
        run_batch(
            &mut state,
            vec![
                BatchItem::Write {
                    text: "CREATE (:A)".to_owned(),
                    engine: engine.clone(),
                    resp: tx_a,
                },
                BatchItem::Write {
                    text: "CREATE (:B)".to_owned(),
                    engine,
                    resp: tx_b,
                },
            ],
        );
        match rx_a.recv().unwrap() {
            WriteOutcome::Storage(_) => {}
            other => panic!("first statement must not be acked after the rollback: {other:?}"),
        }
        match rx_b.recv().unwrap() {
            WriteOutcome::Storage(_) => {}
            other => panic!("{other:?}"),
        }
        assert!(
            state.flush.ship().mirror.is_empty(),
            "nothing durable, nothing shipped"
        );
        // The reopen rolled memory back to the durable horizon: the
        // store's graph is empty again and accepts new writes.
        assert_eq!(state.durable.graph().node_count(), 0);
        assert!(!state.durable.is_sealed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// FIFO read-your-writes across the two-stage pipeline: after a write
    /// is acknowledged, the writer's next snapshot must contain it. The
    /// flusher bumps the epoch before acking, and a snapshot job drains
    /// the flush stage before publishing, so this holds for every write
    /// even while earlier batches are still in flight.
    #[test]
    fn acked_write_is_visible_to_the_writers_next_read() {
        let store = temp_store("ryw", 32, 4, 16);
        let engine = Engine::revised();
        for i in 0..25u32 {
            match store
                .submit_write(format!("CREATE (:N {{id: {i}}})"), engine.clone())
                .unwrap()
            {
                WriteOutcome::Ok(_) => {}
                other => panic!("{other:?}"),
            }
            let snap = store.snapshot().unwrap();
            assert_eq!(
                snap.node_count(),
                (i + 1) as usize,
                "write {i} was acked but its epoch is not visible"
            );
            assert_eq!(store.commit_seq(), (i + 1) as u64);
        }
        store.shutdown();
    }

    /// Pipelined-commit torture: fail the N-th fsync for every N while a
    /// successor batch is mid-apply on the builder. Scripted against the
    /// stage internals so the interleaving is exact: batch A is staged,
    /// batch B applies one item, A's fsync resolves (possibly faulted), B
    /// applies its second item, then A retires and B stages. Invariants:
    /// a batch whose fsync failed reports storage errors to *its own*
    /// sessions, a successor applied on top of the doomed window is never
    /// falsely acked, and recovery replays exactly the durable horizon.
    #[test]
    fn pipelined_torture_every_fsync_index() {
        use cypher_storage::{recover, FaultFs, FaultKind, OpKind};

        let scenario = |fault: &FaultFs, dir: &std::path::Path| -> Option<Vec<(String, bool)>> {
            // (label, acked-ok) per statement, in submission order.
            let durable = DurableGraph::open_with(fault.arc(), dir).ok()?;
            let mut state = worker_state(durable);
            let ctx = Arc::clone(&state.flush);
            let engine = Engine::revised();
            let w = |label: &str| {
                let (tx, rx) = mpsc::sync_channel(1);
                (
                    BatchItem::Write {
                        text: format!("CREATE (:{label})"),
                        engine: engine.clone(),
                        resp: tx,
                    },
                    rx,
                )
            };
            let (a1, rx_a1) = w("A1");
            let (a2, rx_a2) = w("A2");
            let (b1, rx_b1) = w("B1");
            let (b2, rx_b2) = w("B2");

            // Batch A: apply + stage its WAL window.
            let (acks_a, units_a, _, head_a) = apply_batch(&mut state, vec![a1, a2]);
            let staged_a = match state.durable.stage_flush() {
                Ok(t) => t,
                Err(e) => panic!("appends are not faulted in this sweep: {e}"),
            };
            // Batch B starts applying while A's fsync is in flight...
            let (mut acks_b, mut units_b, _, _) = apply_batch(&mut state, vec![b1]);
            // ...the flusher resolves A's fsync (this is where the fault
            // fires when the sweep index points at A's sync)...
            let outcome_a = run_flush(
                &ctx,
                FlushBatch {
                    ticket: staged_a,
                    acks: acks_a,
                    units: units_a,
                    deltas: Vec::new(),
                    head_seq: head_a,
                },
            );
            // ...and B finishes applying before the builder retires A.
            let (acks_b2, units_b2, _, head_b) = apply_batch(&mut state, vec![b2]);
            acks_b.extend(acks_b2);
            units_b.extend(units_b2);

            if state.durable.complete_flush(outcome_a).is_err() {
                // A's window is gone and B executed on top of it: the
                // builder rolls back and downgrades all of B un-staged.
                recover_after_failed_flush(&mut state);
                for ack in acks_b {
                    send_ack(ack, Some("group commit failed: predecessor fsync failed"));
                }
            } else {
                // A retired; stage and flush B normally (its own fsync
                // may be the faulted one).
                match state.durable.stage_flush() {
                    Ok(ticket) => {
                        let outcome_b = run_flush(
                            &ctx,
                            FlushBatch {
                                ticket,
                                acks: acks_b,
                                units: units_b,
                                deltas: Vec::new(),
                                head_seq: head_b,
                            },
                        );
                        if state.durable.complete_flush(outcome_b).is_err() {
                            recover_after_failed_flush(&mut state);
                        }
                    }
                    Err(e) => {
                        recover_after_failed_flush(&mut state);
                        let msg = format!("group commit failed: {e}");
                        for ack in acks_b {
                            send_ack(ack, Some(&msg));
                        }
                    }
                }
            }

            let mut out = Vec::new();
            for (label, rx) in [("A1", rx_a1), ("A2", rx_a2), ("B1", rx_b1), ("B2", rx_b2)] {
                let ok = match rx.recv().unwrap() {
                    WriteOutcome::Ok(_) => true,
                    WriteOutcome::Storage(_) => false,
                    other => panic!("{label}: unexpected outcome {other:?}"),
                };
                out.push((label.to_owned(), ok));
            }
            Some(out)
        };

        // Counting pass: how many syncs does the healthy run perform?
        let base = std::env::temp_dir().join(format!(
            "cypher-server-store-torture-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let counting = FaultFs::counting();
        let healthy = scenario(&counting, &base).unwrap();
        assert!(
            healthy.iter().all(|(_, ok)| *ok),
            "healthy run acks everything: {healthy:?}"
        );
        let total_syncs = counting.ops_of(OpKind::Sync);
        assert!(total_syncs >= 2, "sweep needs at least two batch fsyncs");

        for n in 0..total_syncs {
            let dir = base.join(format!("sweep-{n}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let fault = FaultFs::fail_on(OpKind::Sync, n, FaultKind::SyncFailure);
            let Some(acked) = scenario(&fault, &dir) else {
                // The faulted sync was part of opening the store; nothing
                // was ever acknowledged, nothing to check.
                continue;
            };
            assert!(fault.triggered(), "sweep index {n} never fired");

            // The golden invariant: acked ⟺ durable, for every statement.
            let recovered = recover(&dir).unwrap();
            let rendered = graph_to_cypher(&recovered.graph);
            for (label, ok) in &acked {
                assert_eq!(
                    rendered.contains(&format!(":{label}")),
                    *ok,
                    "sync fault at index {n}: {label} acked={ok} but durable state is {rendered:?}"
                );
            }
            // A fault on A's fsync must not falsely ack B (B rode on the
            // doomed window), and A's own sessions must see the error.
            if !acked[0].1 {
                assert!(
                    acked.iter().all(|(_, ok)| !ok),
                    "batch B falsely acked over a failed predecessor: {acked:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// End-to-end pipelined failure through the real two-thread store: a
    /// one-shot fsync fault downgrades exactly the writes whose batches
    /// rode the doomed window, later writes succeed again, and the
    /// recovered graph contains precisely the acknowledged statements.
    #[test]
    fn e2e_fsync_fault_acks_match_durable_state() {
        use cypher_storage::{recover, FaultFs, FaultKind, OpKind};
        let dir = std::env::temp_dir().join(format!(
            "cypher-server-store-e2e-fault-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fault = FaultFs::fail_on(OpKind::Sync, 1, FaultKind::SyncFailure);
        let durable = DurableGraph::open_with(fault.arc(), &dir).unwrap();
        let store = SharedStore::start(durable, 16, 4, 8, Role::Primary);
        let engine = Engine::revised();

        let mut acked = Vec::new();
        let mut storage_errors = 0;
        for i in 0..6u32 {
            let label = format!("E{i}");
            match store
                .submit_write(format!("CREATE (:{label})"), engine.clone())
                .unwrap()
            {
                WriteOutcome::Ok(_) => acked.push((label, true)),
                WriteOutcome::Storage(_) => {
                    storage_errors += 1;
                    acked.push((label, false));
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(fault.triggered());
        assert!(storage_errors >= 1, "the faulted batch must be downgraded");
        // Read-your-writes still holds after recovery: the snapshot shows
        // exactly the acknowledged writes.
        let snap = store.snapshot().unwrap();
        assert_eq!(
            snap.node_count(),
            acked.iter().filter(|(_, ok)| *ok).count()
        );
        store.shutdown();

        let recovered = recover(&dir).unwrap();
        let rendered = graph_to_cypher(&recovered.graph);
        for (label, ok) in &acked {
            assert_eq!(
                rendered.contains(&format!(":{label}")),
                *ok,
                "{label} acked={ok}, durable: {rendered:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The replica path: shipped units apply in sequence; duplicates are
    /// skipped, gaps refused, and the commit sequence tracks the tail.
    #[test]
    fn shipped_units_apply_in_sequence_with_skip_and_gap() {
        let dir = std::env::temp_dir().join(format!(
            "cypher-server-store-replica-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let durable = DurableGraph::open(&dir).unwrap();
        let store = SharedStore::start(
            durable,
            16,
            8,
            8,
            Role::Replica {
                primary: "127.0.0.1:1".into(),
            },
        );
        let unit = |seq: u64, text: &str| ShippedUnit {
            seq,
            dialect: 1,
            text: text.to_owned(),
        };
        assert!(matches!(
            store.replicate(unit(1, "CREATE (:A {id: 1})")).unwrap(),
            ReplicaApply::Applied
        ));
        // A duplicate (reconnect overlap) is skipped, not re-applied.
        assert!(matches!(
            store.replicate(unit(1, "CREATE (:A {id: 1})")).unwrap(),
            ReplicaApply::Skipped
        ));
        // A gap is refused before touching the graph.
        assert!(matches!(
            store.replicate(unit(5, "CREATE (:Z)")).unwrap(),
            ReplicaApply::Gap { expected: 2 }
        ));
        assert!(matches!(
            store.replicate(unit(2, "CREATE (:B {id: 2})")).unwrap(),
            ReplicaApply::Applied
        ));
        assert_eq!(store.commit_seq(), 2);
        assert_eq!(store.stats().primary_seen, 5);
        let snap = store.snapshot().unwrap();
        assert_eq!(snap.node_count(), 2);
        store.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Subscribe hands out a gap-free backlog + live feed: units committed
    /// before the subscribe arrive in the backlog, units after arrive on
    /// the subscription channel, none arrive twice.
    #[test]
    fn subscribe_backlog_and_live_feed_are_gap_free() {
        let store = temp_store("sub", 16, 8, 8);
        let engine = Engine::revised();
        store
            .submit_write("CREATE (:A {id: 1})".into(), engine.clone())
            .unwrap();
        store
            .submit_write("CREATE (:B {id: 2})".into(), engine.clone())
            .unwrap();
        let reply = store.subscribe("test-replica".into(), 0).unwrap().unwrap();
        let SubscribeStart::Backlog(backlog) = reply.start else {
            panic!("fresh store must serve catch-up from the mirror")
        };
        assert_eq!(
            backlog.iter().map(|u| u.seq).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(reply.seq, 2);
        store
            .submit_write("CREATE (:C {id: 3})".into(), engine)
            .unwrap();
        let live = reply.sub.rx.recv().unwrap();
        assert_eq!(live.seq, 3);
        assert_eq!(live.text, "CREATE (:C {id: 3})");
        let stats = store.stats();
        assert_eq!(stats.replicas.len(), 1);
        assert_eq!(stats.replicas[0].label, "test-replica");
        assert_eq!(stats.replicas[0].sent, 3);
        assert_eq!(stats.replicas[0].acked, 0, "no Ack frames were sent");
        store.shutdown();
    }

    /// A subscriber behind the mirror window gets a snapshot bootstrap,
    /// and installing that snapshot on a fresh store reproduces the
    /// primary's graph and sequence position.
    #[test]
    fn snapshot_bootstrap_rebases_a_fresh_replica() {
        let primary = temp_store("boot-p", 16, 8, 8);
        let engine = Engine::revised();
        primary
            .submit_write("CREATE (:A {id: 1})".into(), engine.clone())
            .unwrap();
        primary
            .submit_write("CREATE (:B {id: 2})".into(), engine.clone())
            .unwrap();
        // Checkpoint, then restart the store: the new process's mirror
        // starts at the checkpoint, so a from-zero subscriber is behind it.
        primary.checkpoint().unwrap().unwrap();
        primary
            .submit_write("CREATE (:C {id: 3})".into(), engine.clone())
            .unwrap();
        primary.shutdown();
        let dir =
            std::env::temp_dir().join(format!("cypher-server-store-boot-p-{}", std::process::id()));
        let durable = DurableGraph::open(&dir).unwrap();
        let primary = SharedStore::start(durable, 16, 8, 8, Role::Primary);

        let reply = primary.subscribe("newborn".into(), 0).unwrap().unwrap();
        let SubscribeStart::Snapshot { seq, bytes } = reply.start else {
            panic!("a from-zero subscriber is behind the restarted mirror")
        };
        assert_eq!(seq, 3);

        let replica = temp_store("boot-r", 16, 8, 8);
        assert_eq!(replica.install_snapshot(bytes).unwrap().unwrap(), 3);
        assert_eq!(replica.commit_seq(), 3);
        let p = primary.snapshot().unwrap();
        let r = replica.snapshot().unwrap();
        assert_eq!(graph_to_cypher(&p), graph_to_cypher(&r));
        // The rebased replica tails from seq 4.
        primary
            .submit_write("CREATE (:D {id: 4})".into(), engine)
            .unwrap();
        let live = reply.sub.rx.recv().unwrap();
        assert_eq!(live.seq, 4);
        assert!(matches!(
            replica.replicate(live).unwrap(),
            ReplicaApply::Applied
        ));
        primary.shutdown();
        replica.shutdown();
    }

    /// Overflowing the mirror's byte cap drops its oldest units: a
    /// subscriber behind the dropped ones bootstraps from a snapshot and
    /// converges on the primary's graph, one inside the window still
    /// catches up from the backlog.
    #[test]
    fn mirror_overflow_falls_back_to_snapshot_bootstrap() {
        let primary = temp_store("cap-p", 16, 8, 8);
        let engine = Engine::revised();
        // Five units of a quarter of the cap each (statement text is what
        // a unit retains, so padding is enough): only three fit.
        let pad = " ".repeat(MIRROR_CAP_BYTES / 4);
        for i in 1..=5 {
            let text = format!("CREATE (:Pad {{id: {i}}}){pad}");
            match primary.submit_write(text, engine.clone()).unwrap() {
                WriteOutcome::Ok(_) => {}
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(primary.commit_log().unwrap().len(), 3);

        let recent = primary.subscribe("recent".into(), 2).unwrap().unwrap();
        let SubscribeStart::Backlog(backlog) = recent.start else {
            panic!("seq 2 is the retained window's base")
        };
        assert_eq!(
            backlog.iter().map(|u| u.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );

        let late = primary.subscribe("late".into(), 0).unwrap().unwrap();
        let SubscribeStart::Snapshot { seq, bytes } = late.start else {
            panic!("a from-zero subscriber is behind the capped mirror")
        };
        assert_eq!(seq, 5);
        let replica = temp_store("cap-r", 16, 8, 8);
        assert_eq!(replica.install_snapshot(bytes).unwrap().unwrap(), 5);
        primary
            .submit_write("CREATE (:Pad {id: 6})".into(), engine)
            .unwrap();
        let live = late.sub.rx.recv().unwrap();
        assert_eq!(live.seq, 6);
        assert!(matches!(
            replica.replicate(live).unwrap(),
            ReplicaApply::Applied
        ));
        let p = primary.snapshot().unwrap();
        let r = replica.snapshot().unwrap();
        assert_eq!(graph_to_cypher(&p), graph_to_cypher(&r));
        primary.shutdown();
        replica.shutdown();
        // The padded WAL is tens of megabytes: do not leave it behind.
        for name in ["cap-p", "cap-r"] {
            let dir = format!("cypher-server-store-{name}-{}", std::process::id());
            let _ = std::fs::remove_dir_all(std::env::temp_dir().join(dir));
        }
    }

    /// Fencing flips the role durably: the store refuses writes with the
    /// typed fence error, and a restart comes back fenced no matter what
    /// role the command line asks for.
    #[test]
    fn fence_refuses_writes_and_survives_restart() {
        let store = temp_store("fence", 16, 8, 8);
        let engine = Engine::revised();
        store
            .submit_write("CREATE (:A)".into(), engine.clone())
            .unwrap();
        store
            .fence(Some("10.0.0.9:7878".into()), 7)
            .unwrap()
            .unwrap();
        assert_eq!(store.role().get().as_u8(), 2);
        assert_eq!(store.repl_epoch(), 7);
        match store
            .submit_write("CREATE (:B)".into(), engine.clone())
            .unwrap()
        {
            WriteOutcome::Storage(e) => assert!(e.is_fenced(), "{e}"),
            other => panic!("fenced store must refuse writes: {other:?}"),
        }
        store.shutdown();
        let dir =
            std::env::temp_dir().join(format!("cypher-server-store-fence-{}", std::process::id()));
        let durable = DurableGraph::open(&dir).unwrap();
        // Ask for Primary; the durable fence wins.
        let store = SharedStore::start(durable, 16, 8, 8, Role::Primary);
        let role = store.role().get();
        assert_eq!(role.as_u8(), 2);
        assert_eq!(role.redirect(), Some("10.0.0.9:7878"));
        assert_eq!(
            store.repl_epoch(),
            7,
            "the fence marker's epoch survives restart"
        );
        match store.submit_write("CREATE (:C)".into(), engine).unwrap() {
            WriteOutcome::Storage(e) => assert!(e.is_fenced(), "{e}"),
            other => panic!("restarted zombie must stay fenced: {other:?}"),
        }
        store.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Strict quorum with no replica attached: the write is refused with
    /// the typed quorum outcome, yet it IS locally durable (at-least-once
    /// semantics — the retry must be idempotent).
    #[test]
    fn strict_quorum_times_out_without_replicas() {
        let store = temp_store_quorum(
            "quorum-strict",
            1,
            Duration::from_millis(50),
            SyncPolicy::Strict,
        );
        match store
            .submit_write("CREATE (:A)".into(), Engine::revised())
            .unwrap()
        {
            WriteOutcome::Quorum {
                acked: 0,
                needed: 1,
                ..
            } => {}
            other => panic!("expected a quorum refusal: {other:?}"),
        }
        let stats = store.stats();
        assert_eq!(stats.quorum, QuorumState::TimedOut);
        assert_eq!(
            store.commit_seq(),
            1,
            "a refused write is still locally durable"
        );
        store.shutdown();
    }

    /// The degrade policy acknowledges the write anyway and surfaces the
    /// degradation through `Stats` instead of failing the write path.
    #[test]
    fn degrade_policy_acks_and_reports_degraded() {
        let store = temp_store_quorum(
            "quorum-degrade",
            1,
            Duration::from_millis(50),
            SyncPolicy::Degrade,
        );
        match store
            .submit_write("CREATE (:A)".into(), Engine::revised())
            .unwrap()
        {
            WriteOutcome::Ok(_) => {}
            other => panic!("degrade must acknowledge: {other:?}"),
        }
        assert_eq!(store.stats().quorum, QuorumState::Degraded);
        store.shutdown();
    }

    /// With a subscriber that confirms durability, a strict quorum write
    /// succeeds and the per-replica acked sequence shows up in stats.
    #[test]
    fn strict_quorum_succeeds_when_replica_acks() {
        let store = temp_store_quorum("quorum-ok", 1, Duration::from_secs(10), SyncPolicy::Strict);
        let reply = store.subscribe("r1".into(), 0).unwrap().unwrap();
        let ack = reply.sub.ack.clone();
        let rx = reply.sub.rx;
        let feeder = std::thread::spawn(move || {
            // Play the replica: receive the unit, pretend to fsync it,
            // confirm durability.
            let unit = rx.recv().unwrap();
            ack.note(unit.seq);
            unit.seq
        });
        match store
            .submit_write("CREATE (:A)".into(), Engine::revised())
            .unwrap()
        {
            WriteOutcome::Ok(_) => {}
            other => panic!("quorum of 1 with one acking replica: {other:?}"),
        }
        assert_eq!(feeder.join().unwrap(), 1);
        let stats = store.stats();
        assert_eq!(stats.quorum, QuorumState::InSync);
        assert_eq!(stats.replicas[0].acked, 1);
        store.shutdown();
    }

    #[test]
    fn promote_bumps_the_replication_epoch() {
        let store = temp_store("promote-epoch", 16, 8, 8);
        assert_eq!(store.repl_epoch(), 1);
        store.promote();
        assert_eq!(store.repl_epoch(), 2);
        // An election winner promotes into a specific epoch; stale calls
        // cannot regress it.
        store.promote_with_epoch(9);
        assert_eq!(store.repl_epoch(), 9);
        store.promote_with_epoch(4);
        assert_eq!(store.repl_epoch(), 9);
        store.shutdown();
    }

    #[test]
    fn gate_refuses_over_cap_and_releases() {
        let gate = Arc::new(Gate::new(2));
        let a = gate.try_acquire().unwrap();
        let _b = gate.try_acquire().unwrap();
        assert!(gate.try_acquire().is_none());
        drop(a);
        assert!(gate.try_acquire().is_some());
    }

    #[test]
    fn full_queue_reports_busy() {
        // Queue depth 1 with a worker kept busy is racy to arrange; use the
        // cheaper invariant instead: after shutdown the channel disconnects
        // and submission reports Busy rather than panicking.
        let store = temp_store("busy", 1, 1, 1);
        store.shutdown();
        assert!(store
            .submit_write("CREATE (:A)".into(), Engine::revised())
            .is_err());
        assert!(store.commit_log().is_err());
    }
}
