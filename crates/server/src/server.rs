//! The multiplexing worker pool.
//!
//! A [`Server`] compiles the program once, spawns `workers` threads, and
//! pins every admitted session to one worker for its lifetime (sessions
//! are not `Send` across workers and never need to be — all operations on
//! a session execute on its home worker, so no session ever sees
//! concurrent mutation). The only way a session changes workers is
//! [`Server::migrate`], which moves its *snapshot bytes* through the
//! server at a quiescent point — the live object never crosses a thread.
//!
//! ## Placement
//!
//! Sessions are unit-weight, so balancing them needs no partition: a new
//! session goes to the worker with the fewest live sessions (lowest
//! index on ties), and [`Server::rebalance`] moves sessions from the
//! fullest worker to the emptiest until no two workers differ by more
//! than one. The per-worker live counts live in the routing table itself
//! ([`crate::slab::RouteSlab::live_on`]), next to the routes they count.
//!
//! Routing is a [`crate::slab::RouteSlab`]: ids are slab slots with a
//! generation tag, so lookup is one bounds-checked index instead of a
//! hash probe, and a handle held past destroy fails with a typed
//! [`ServerError::StaleSession`].
//!
//! ## Residency
//!
//! Each worker keeps its sessions in a `SessionTable` (`crate::store`).
//! With [`ServerConfig::resident_budget`] set, the table evicts
//! least-recently-used sessions to snapshot files under
//! [`ServerConfig::evict_dir`] and faults them back in transparently on
//! their next request — fixed resident footprint per worker, the QCDSP
//! fixed-per-node-memory shape applied to session state.
//!
//! ## Backpressure
//!
//! Each worker has a bounded submission queue, enforced with a depth
//! counter on the server side: [`Server::submit`] rejects with
//! [`ServerError::Overloaded`] the moment the target worker's queue is at
//! capacity, without enqueueing anything. Every *accepted* request is
//! answered by exactly one [`Reply`] on the completion channel — acks are
//! never dropped, so `accepted == replies` is an invariant the stress
//! tests assert.
//!
//! ## Observability
//!
//! Workers count requests, MRA cycles, WME changes, evictions and
//! fault-ins per worker id, track high-water queue depth, and sample
//! per-request and per-cycle latency into exact histograms — all through
//! the [`mpps_telemetry::MetricSink`] machinery. [`Server::metrics`]
//! flushes every worker and merges the registries with the server-side
//! admission counters.

use crate::session::{Session, SessionId};
use crate::slab::{RouteError, RouteSlab};
use crate::snapshot::program_fingerprint;
use crate::store::{Extracted, SessionEnv, SessionTable};
use crate::ServerError;
use crossbeam::channel::{self, Receiver, Sender};
use mpps_ops::{Program, RunOutcome, Strategy, Wme, WmeId};
use mpps_rete::{EngineConfig, ReteNetwork};
use mpps_telemetry::{MetricSink, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monotone id identifying one accepted request; every accepted request
/// produces exactly one [`Reply`] carrying it.
pub type RequestId = u64;

/// Distinguishes concurrently live servers in one process so their
/// default eviction directories never collide.
static SERVER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads (each owns its sessions exclusively). Must be ≥ 1;
    /// [`Server::new`] rejects 0 with [`ServerError::Config`].
    pub workers: usize,
    /// Bounded per-worker submission queue capacity; submissions beyond
    /// it are rejected with [`ServerError::Overloaded`]. Must be ≥ 1.
    pub queue_capacity: usize,
    /// Conflict-resolution strategy sessions run under.
    pub strategy: Strategy,
    /// Per-session match-engine configuration. The default table size is
    /// deliberately small (16): global-memory buckets cost space per
    /// *session* here, not per server, and serving WMs are tiny.
    pub engine: EngineConfig,
    /// Cycle budget per ingestion batch (guards runaway rule loops).
    pub max_cycles_per_batch: usize,
    /// Maximum sessions held live in memory **per worker**; the rest are
    /// snapshotted to disk and faulted back in on demand. `None` keeps
    /// everything resident (the pre-eviction behavior).
    pub resident_budget: Option<usize>,
    /// Where evicted-session snapshots live (one subdirectory per
    /// worker). `None` picks a per-server directory under the system
    /// temp dir; spill files are deleted on fault-in, destroy and worker
    /// shutdown either way.
    pub evict_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: mpps_telemetry::available_cpus().clamp(1, 8),
            queue_capacity: 64,
            strategy: Strategy::Lex,
            engine: EngineConfig {
                table_size: 16,
                record_trace: false,
            },
            max_cycles_per_batch: 4096,
            resident_budget: None,
            evict_dir: None,
        }
    }
}

/// What a worker is asked to do to one session.
enum Op {
    Create(Vec<Wme>),
    /// Remove one WME by time tag (if any), ingest `wmes`, settle.
    Ingest {
        remove: Option<WmeId>,
        wmes: Vec<Wme>,
    },
    Destroy,
    Snapshot,
    /// Rebuild a session from snapshot bytes under the envelope's id: a
    /// restore (fresh id) or, when `adopting`, the arrival half of a
    /// migration (the session's original id).
    Restore {
        bytes: Vec<u8>,
        adopting: bool,
    },
    /// Migration departure: extract the session and ship its snapshot
    /// bytes back (evicted sessions ship their spill file unread).
    Evacuate,
    /// Force the session to disk now (tests and operational tooling; the
    /// budget sweep is the steady-state eviction path).
    Evict,
}

impl Op {
    /// Whether the op is subject to the queue bound (and so moves the
    /// depth counter). An adoption is not: it is sent by the server
    /// itself after a successful evacuation, when the bytes are already
    /// off the source worker and must not be stranded by a full queue.
    fn counted(&self) -> bool {
        !matches!(self, Op::Restore { adopting: true, .. })
    }
}

/// One request to one session, as shipped to its worker.
struct Envelope {
    request: RequestId,
    session: SessionId,
    op: Op,
}

enum ToWorker {
    Session(Envelope),
    /// Ship the worker's metrics back. Not counted against queue
    /// capacity.
    Flush(RequestId),
}

/// Completion shipped back from a worker. Every accepted request yields
/// exactly one reply.
#[derive(Clone, Debug)]
pub enum Reply {
    /// A session was created (or restored, or adopted after migration)
    /// and settled to quiescence.
    Ready {
        /// The session now live.
        session: SessionId,
        /// The request this answers.
        request: RequestId,
        /// Worker the session is pinned to.
        worker: usize,
    },
    /// An ingestion/removal batch was matched and fired to completion.
    Cycles {
        /// The session that ran.
        session: SessionId,
        /// The request this answers.
        request: RequestId,
        /// Worker that ran it.
        worker: usize,
        /// Productions fired while settling this batch.
        fired: usize,
        /// MRA cycles executed (including the final quiescent match).
        cycles: usize,
        /// WME changes the matcher processed (external + RHS-driven).
        wme_changes: usize,
        /// How the settle ended.
        outcome: RunOutcome,
        /// Wall time on the worker, start of request to reply, in ns.
        nanos: u64,
        /// Request start, ns since the server's epoch (for trace export).
        start_ns: u64,
    },
    /// A snapshot was taken.
    SnapshotBytes {
        /// Session snapshotted.
        session: SessionId,
        /// The request this answers.
        request: RequestId,
        /// The versioned snapshot (see [`crate::snapshot`]).
        bytes: Vec<u8>,
    },
    /// A session was destroyed.
    Destroyed {
        /// The session that is gone.
        session: SessionId,
        /// The request this answers.
        request: RequestId,
    },
    /// A session left its worker for migration; these are its snapshot
    /// bytes.
    Evacuated {
        /// The session that departed.
        session: SessionId,
        /// The request this answers.
        request: RequestId,
        /// Worker it departed from.
        worker: usize,
        /// Its state, in the versioned snapshot codec.
        bytes: Vec<u8>,
    },
    /// A session was forced to disk by [`Server::evict`].
    Evicted {
        /// The session now on disk.
        session: SessionId,
        /// The request this answers.
        request: RequestId,
        /// Worker holding its spill file.
        worker: usize,
        /// Spill size in bytes.
        bytes: u64,
    },
    /// A worker's metrics registry (answer to a flush).
    Metrics {
        /// The request this answers.
        request: RequestId,
        /// Worker that exported it.
        worker: usize,
        /// The worker's counters/gauges/histograms.
        registry: Box<MetricsRegistry>,
    },
    /// The request failed on the worker; the session (if any) is
    /// unchanged except as described by `error`.
    Failed {
        /// Session involved, when the request named one.
        session: Option<SessionId>,
        /// The request this answers.
        request: RequestId,
        /// Stringified error (transportable across the channel).
        error: String,
    },
}

impl Reply {
    /// The request id this reply answers.
    pub fn request(&self) -> RequestId {
        match self {
            Reply::Ready { request, .. }
            | Reply::Cycles { request, .. }
            | Reply::SnapshotBytes { request, .. }
            | Reply::Destroyed { request, .. }
            | Reply::Evacuated { request, .. }
            | Reply::Evicted { request, .. }
            | Reply::Metrics { request, .. }
            | Reply::Failed { request, .. } => *request,
        }
    }
}

struct WorkerHandle {
    tx: Sender<ToWorker>,
    depth: Arc<AtomicUsize>,
    join: JoinHandle<()>,
}

/// What one [`Server::rebalance`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Live sessions when the pass started.
    pub examined: usize,
    /// Sessions migrated from a fuller worker to an emptier one.
    pub moved: usize,
    /// Moves skipped because a worker queue was saturated (retryable).
    pub skipped: usize,
}

/// The rule-engine server: one compiled program, many sessions, a worker
/// pool with bounded queues. See the [module docs](self) for the design.
pub struct Server {
    program: Arc<Program>,
    network: Arc<ReteNetwork>,
    config: ServerConfig,
    fingerprint: u64,
    workers: Vec<WorkerHandle>,
    reply_rx: Receiver<Reply>,
    buffered: VecDeque<Reply>,
    routes: RouteSlab,
    /// Create/Restore/adoption requests whose `Ready` has not arrived
    /// yet: if the worker reports failure instead, the session never
    /// materialized there and its route is withdrawn.
    pending_admissions: HashMap<RequestId, SessionId>,
    /// Evacuations whose bytes have not come back yet: evacuate request →
    /// (target worker, request id reserved for the adoption). Whoever
    /// receives the `Evacuated` reply completes the hand-off, so a
    /// migration whose caller stopped waiting still lands.
    evacuating: HashMap<RequestId, (usize, RequestId)>,
    next_request: u64,
    in_flight: usize,
    overloaded: u64,
    migrations: u64,
    admitted_per_worker: Vec<u64>,
}

impl Server {
    /// Validate `config`, compile `program` and spawn the worker pool.
    ///
    /// Degenerate configurations (`workers == 0`, `queue_capacity == 0`)
    /// are rejected with [`ServerError::Config`] — not silently clamped.
    pub fn new(program: Program, config: ServerConfig) -> Result<Server, ServerError> {
        if config.workers == 0 {
            return Err(ServerError::Config("workers must be at least 1".into()));
        }
        if config.queue_capacity == 0 {
            return Err(ServerError::Config(
                "queue capacity must be at least 1".into(),
            ));
        }
        let network = ReteNetwork::compile(&program)
            .map(Arc::new)
            .map_err(|e| ServerError::Engine(e.to_string()))?;
        let fingerprint = program_fingerprint(&program);
        let program = Arc::new(program);
        let workers = config.workers;
        let evict_base = config.evict_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "mpps-evict-{}-{}",
                std::process::id(),
                SERVER_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        let (reply_tx, reply_rx) = channel::unbounded();
        let mut handles = Vec::with_capacity(workers);
        let epoch = Instant::now();
        for index in 0..workers {
            let (tx, rx) = channel::unbounded();
            let depth = Arc::new(AtomicUsize::new(0));
            let ctx = WorkerCtx {
                index,
                env: SessionEnv {
                    program: Arc::clone(&program),
                    network: Arc::clone(&network),
                    engine: config.engine,
                    fingerprint,
                },
                config: config.clone(),
                evict_dir: evict_base.join(format!("w{index}")),
                depth: Arc::clone(&depth),
                reply_tx: reply_tx.clone(),
                epoch,
            };
            let join = std::thread::Builder::new()
                .name(format!("mpps-serve-{index}"))
                .spawn(move || worker_loop(ctx, rx))
                .expect("spawn server worker");
            handles.push(WorkerHandle { tx, depth, join });
        }
        Ok(Server {
            program,
            network,
            config,
            fingerprint,
            workers: handles,
            reply_rx,
            buffered: VecDeque::new(),
            routes: RouteSlab::new(),
            pending_admissions: HashMap::new(),
            evacuating: HashMap::new(),
            next_request: 0,
            overloaded: 0,
            migrations: 0,
            in_flight: 0,
            admitted_per_worker: vec![0; workers],
        })
    }

    /// The shared program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The shared compiled network.
    pub fn network(&self) -> &ReteNetwork {
        &self.network
    }

    /// The configuration the pool runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The fingerprint snapshots taken on this server carry (and restores
    /// are checked against).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Live sessions (admitted and not destroyed).
    pub fn sessions(&self) -> usize {
        self.routes.len()
    }

    /// The worker a live session is currently pinned to.
    pub fn worker_of(&self, session: SessionId) -> Result<usize, ServerError> {
        self.routes.get(session).map_err(|e| match e {
            RouteError::Stale(id) => ServerError::StaleSession(id),
            RouteError::Unknown(id) => ServerError::UnknownSession(id),
        })
    }

    /// Accepted requests whose replies have not been received yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Submissions rejected with [`ServerError::Overloaded`] so far.
    pub fn overload_rejections(&self) -> u64 {
        self.overloaded
    }

    /// Sessions moved between workers by [`Server::migrate`] so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Instantaneous submission-queue depth per worker.
    pub fn worker_depths(&self) -> Vec<usize> {
        self.workers
            .iter()
            .map(|w| w.depth.load(Ordering::Relaxed))
            .collect()
    }

    /// Admit a new session on the least-loaded worker and ship its
    /// initial WM. Counts against that worker's queue.
    pub fn create_session(
        &mut self,
        initial: Vec<Wme>,
    ) -> Result<(SessionId, RequestId), ServerError> {
        self.admit(Op::Create(initial))
    }

    /// Restore a snapshot as a **new** session on this server.
    pub fn restore(&mut self, bytes: Vec<u8>) -> Result<(SessionId, RequestId), ServerError> {
        self.admit(Op::Restore {
            bytes,
            adopting: false,
        })
    }

    /// Submit a batch of WMEs to a session. The worker ingests the batch
    /// and runs the MRA cycle to quiescence (bounded by
    /// `max_cycles_per_batch`), then replies [`Reply::Cycles`].
    pub fn submit(&mut self, session: SessionId, wmes: Vec<Wme>) -> Result<RequestId, ServerError> {
        self.dispatch(session, Op::Ingest { remove: None, wmes })
    }

    /// Submit removal of one WME (by time tag) to a session.
    pub fn submit_remove(
        &mut self,
        session: SessionId,
        id: WmeId,
    ) -> Result<RequestId, ServerError> {
        self.dispatch(
            session,
            Op::Ingest {
                remove: Some(id),
                wmes: Vec::new(),
            },
        )
    }

    /// Request a snapshot of a session (replies [`Reply::SnapshotBytes`]).
    pub fn snapshot(&mut self, session: SessionId) -> Result<RequestId, ServerError> {
        self.dispatch(session, Op::Snapshot)
    }

    /// Force a session's state to disk now (replies [`Reply::Evicted`]).
    /// The next request for it faults it back in transparently. The
    /// budget sweep evicts LRU sessions automatically; this entry point
    /// exists for tests and operational tooling.
    pub fn evict(&mut self, session: SessionId) -> Result<RequestId, ServerError> {
        self.dispatch(session, Op::Evict)
    }

    /// Destroy a session. Further submissions for it fail immediately
    /// with [`ServerError::StaleSession`]; requests already queued are
    /// still answered.
    pub fn destroy_session(&mut self, session: SessionId) -> Result<RequestId, ServerError> {
        let request = self.dispatch(session, Op::Destroy)?;
        self.routes
            .remove(session)
            .expect("dispatch routed the session, so it is live");
        Ok(request)
    }

    /// Move a live session to a different worker through the snapshot
    /// codec, at a quiescent point: the source worker evacuates the
    /// session (snapshot bytes; an evicted session ships its spill file
    /// unread), and once those bytes are back on the server the target
    /// worker adopts them under the **same** [`SessionId`]. Because this
    /// method holds `&mut self`, no new request for the session can be
    /// queued between evacuation and adoption, and per-worker FIFO order
    /// guarantees requests accepted before the migration complete first.
    ///
    /// Returns the adoption's request id; its [`Reply::Ready`] confirms
    /// the session is live on `to`. Fails without state change if `to`
    /// is out of range, equals the current worker, or the source worker's
    /// queue is saturated.
    ///
    /// [`ServerError::Timeout`] does **not** cancel the move: the
    /// evacuation is already queued, and whichever receive call picks up
    /// its [`Reply::Evacuated`] hands the bytes to `to`. Until then the
    /// session is in transit — let the replies drain before submitting to
    /// it again.
    pub fn migrate(
        &mut self,
        session: SessionId,
        to: usize,
        timeout: Duration,
    ) -> Result<RequestId, ServerError> {
        let from = self.worker_of(session)?;
        if to >= self.workers.len() {
            return Err(ServerError::Config(format!(
                "cannot migrate {session} to worker {to}: only {} workers",
                self.workers.len()
            )));
        }
        if to == from {
            return Err(ServerError::Config(format!(
                "session {session} is already on worker {to}"
            )));
        }
        let evac = self.dispatch(session, Op::Evacuate)?;
        let adopt = self.next_request();
        self.evacuating.insert(evac, (to, adopt));
        match self.wait_for(evac, timeout)? {
            // account() sent the adoption when it saw this reply.
            Reply::Evacuated { .. } => Ok(adopt),
            Reply::Failed { error, .. } => Err(ServerError::Engine(error)),
            other => Err(ServerError::Engine(format!(
                "evacuation answered by unexpected reply {other:?}"
            ))),
        }
    }

    /// Even out the live sessions: move one from the fullest worker to
    /// the emptiest until no two workers differ by more than one — the
    /// fewest migrations that get there, and none at all on a pool that
    /// is already even. Admission keeps a pool even by itself; destroys
    /// and manual [`Server::migrate`] calls are what skew it. Saturated
    /// workers cause moves to be skipped (and reported), not failed.
    pub fn rebalance(&mut self, timeout: Duration) -> Result<RebalanceReport, ServerError> {
        let workers = self.workers.len();
        let mut live: Vec<usize> = (0..workers).map(|w| self.routes.live_on(w)).collect();
        // Plan on the counts first: `leaving[w]` lists the targets of the
        // sessions worker `w` gives up.
        let mut leaving = vec![Vec::new(); workers];
        loop {
            let from = (0..workers).rev().max_by_key(|&w| live[w]).unwrap_or(0);
            let to = (0..workers).min_by_key(|&w| live[w]).unwrap_or(0);
            if live[from] - live[to] <= 1 {
                break;
            }
            live[from] -= 1;
            live[to] += 1;
            leaving[from].push(to);
        }
        let moves: Vec<(SessionId, usize)> = self
            .routes
            .iter_live()
            .filter_map(|(id, worker)| Some((id, leaving[worker].pop()?)))
            .collect();
        let mut report = RebalanceReport {
            examined: self.routes.len(),
            ..RebalanceReport::default()
        };
        for (session, to) in moves {
            match self.migrate(session, to, timeout) {
                Ok(_) => report.moved += 1,
                Err(ServerError::Overloaded { .. }) => report.skipped += 1,
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Receive the next reply, waiting up to `timeout`.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Reply, ServerError> {
        if let Some(reply) = self.buffered.pop_front() {
            return Ok(reply);
        }
        match self.reply_rx.recv_timeout(timeout) {
            Ok(reply) => {
                self.account(&reply);
                Ok(reply)
            }
            Err(channel::RecvTimeoutError::Timeout) => Err(ServerError::Timeout),
            Err(channel::RecvTimeoutError::Disconnected) => Err(ServerError::Shutdown),
        }
    }

    /// Receive a reply if one is already waiting.
    pub fn try_recv(&mut self) -> Option<Reply> {
        if let Some(reply) = self.buffered.pop_front() {
            return Some(reply);
        }
        let reply = self.reply_rx.try_recv().ok()?;
        self.account(&reply);
        Some(reply)
    }

    /// Wait for the reply answering `request`, buffering any other
    /// replies that arrive first (they are still delivered by later
    /// `recv`/`drain` calls — no ack is lost).
    pub fn wait_for(
        &mut self,
        request: RequestId,
        timeout: Duration,
    ) -> Result<Reply, ServerError> {
        if let Some(at) = self.buffered.iter().position(|r| r.request() == request) {
            return Ok(self.buffered.remove(at).expect("position is in range"));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .ok_or(ServerError::Timeout)?;
            match self.reply_rx.recv_timeout(remaining) {
                Ok(reply) => {
                    self.account(&reply);
                    if reply.request() == request {
                        return Ok(reply);
                    }
                    self.buffered.push_back(reply);
                }
                Err(channel::RecvTimeoutError::Timeout) => return Err(ServerError::Timeout),
                Err(channel::RecvTimeoutError::Disconnected) => return Err(ServerError::Shutdown),
            }
        }
    }

    /// Drain replies until nothing is in flight, applying `sink` to each.
    /// `timeout` bounds the wait for each *individual* reply, so a healthy
    /// server drains in time proportional to the backlog.
    pub fn drain(
        &mut self,
        timeout: Duration,
        mut sink: impl FnMut(&Reply),
    ) -> Result<usize, ServerError> {
        let mut drained = 0;
        while let Some(reply) = self.buffered.pop_front() {
            sink(&reply);
            drained += 1;
        }
        while self.in_flight > 0 {
            let reply = self.recv_timeout(timeout)?;
            sink(&reply);
            drained += 1;
        }
        Ok(drained)
    }

    /// Flush every worker's metrics and merge them with the server-side
    /// counters: `serve.admitted` (sessions placed on each worker, by
    /// admission or migration), `serve.overloaded` (rejected
    /// submissions), `serve.migrations` (sessions moved between workers).
    pub fn metrics(&mut self, timeout: Duration) -> Result<MetricsRegistry, ServerError> {
        let mut merged = MetricsRegistry::new();
        for worker in 0..self.workers.len() {
            let request = self.next_request();
            self.workers[worker]
                .tx
                .send(ToWorker::Flush(request))
                .map_err(|_| ServerError::Shutdown)?;
            match self.wait_for(request, timeout)? {
                Reply::Metrics { registry, .. } => merged.merge(&registry),
                other => {
                    // Only a Metrics reply ever carries a flush request id.
                    debug_assert!(false, "flush answered by {other:?}");
                }
            }
        }
        for (worker, &count) in self.admitted_per_worker.iter().enumerate() {
            if count > 0 {
                merged.add("serve.admitted", worker as u64, count);
            }
        }
        if self.overloaded > 0 {
            merged.add("serve.overloaded", 0, self.overloaded);
        }
        if self.migrations > 0 {
            merged.add("serve.migrations", 0, self.migrations);
        }
        Ok(merged)
    }

    /// Place a new session on the worker with the fewest live sessions
    /// (lowest index on ties) and send it `op`. A saturated worker
    /// rejects before anything is recorded: the id is not consumed.
    fn admit(&mut self, op: Op) -> Result<(SessionId, RequestId), ServerError> {
        let worker = (0..self.workers.len())
            .min_by_key(|&w| self.routes.live_on(w))
            .expect("Server::new rejects an empty pool");
        let session = self.routes.peek_next();
        let request = self.next_request();
        self.send(worker, request, session, op)?;
        let issued = self.routes.insert(worker);
        debug_assert_eq!(issued, session, "peeked id must be the issued id");
        self.placed(request, session, worker);
        Ok((session, request))
    }

    /// Send `op` to the worker `session` is pinned to.
    fn dispatch(&mut self, session: SessionId, op: Op) -> Result<RequestId, ServerError> {
        let worker = self.worker_of(session)?;
        let request = self.next_request();
        self.send(worker, request, session, op)
    }

    /// Record that `request` is installing `session` on `worker`; a
    /// `Failed` answer withdraws the placement (see [`Server::account`]).
    fn placed(&mut self, request: RequestId, session: SessionId, worker: usize) {
        self.pending_admissions.insert(request, session);
        self.admitted_per_worker[worker] += 1;
    }

    fn next_request(&mut self) -> RequestId {
        self.next_request += 1;
        self.next_request
    }

    /// Enqueue `op` for `session` on `worker` as request `request`. A
    /// counted op must claim a slot in the worker's bounded queue first;
    /// an uncounted one bypasses the bound (the worker will not move the
    /// depth counter for it) but is still answered by exactly one reply.
    fn send(
        &mut self,
        worker: usize,
        request: RequestId,
        session: SessionId,
        op: Op,
    ) -> Result<RequestId, ServerError> {
        let handle = &self.workers[worker];
        let counted = op.counted();
        // Optimistically claim a slot; undo if over capacity. The counter
        // is the *only* admission gate, so claim-then-check is race-free
        // even with a future multi-submitter front end.
        if counted && handle.depth.fetch_add(1, Ordering::AcqRel) >= self.config.queue_capacity {
            handle.depth.fetch_sub(1, Ordering::AcqRel);
            self.overloaded += 1;
            return Err(ServerError::Overloaded {
                session,
                worker,
                capacity: self.config.queue_capacity,
            });
        }
        let envelope = Envelope {
            request,
            session,
            op,
        };
        if handle.tx.send(ToWorker::Session(envelope)).is_err() {
            if counted {
                handle.depth.fetch_sub(1, Ordering::AcqRel);
            }
            return Err(ServerError::Shutdown);
        }
        self.in_flight += 1;
        Ok(request)
    }

    /// Bookkeeping for every reply as it comes off the channel, whoever
    /// asked for it.
    fn account(&mut self, reply: &Reply) {
        // Everything but a metrics flush moved the in-flight counter.
        if !matches!(reply, Reply::Metrics { .. }) {
            self.in_flight = self.in_flight.saturating_sub(1);
        }
        match reply {
            // Admission (or adoption) confirmed: the session exists on
            // its worker.
            Reply::Ready { request, .. } => {
                self.pending_admissions.remove(request);
            }
            // A failed Create/Restore/adoption never materialized the
            // session on the worker: withdraw its route so the live
            // counts placement reads don't go stale. A session destroyed
            // mid-flight has no route left to withdraw (and the id may
            // not be reissued yet: the generation check makes this a
            // no-op rather than a second decrement).
            Reply::Failed { request, .. } => {
                self.evacuating.remove(request);
                if let Some(session) = self.pending_admissions.remove(request) {
                    if let Ok(worker) = self.routes.remove(session) {
                        self.admitted_per_worker[worker] -= 1;
                    }
                }
            }
            // The session now exists only as these bytes: hand them to
            // the target worker, whether or not migrate() is still
            // waiting. A session destroyed while in transit stays gone.
            Reply::Evacuated {
                request,
                session,
                bytes,
                ..
            } => {
                let Some((to, adopt)) = self.evacuating.remove(request) else {
                    return;
                };
                if self.routes.set_worker(*session, to).is_err() {
                    return;
                }
                let op = Op::Restore {
                    bytes: bytes.clone(),
                    adopting: true,
                };
                if self.send(to, adopt, *session, op).is_ok() {
                    self.placed(adopt, *session, to);
                    self.migrations += 1;
                }
            }
            _ => {}
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Dropping the senders disconnects the queues: each worker
        // answers what is already queued, cleans up its spill directory
        // and exits.
        let joins: Vec<_> = self.workers.drain(..).map(|w| w.join).collect();
        for join in joins {
            let _ = join.join();
        }
    }
}

/// Everything a worker thread needs, moved in at spawn.
struct WorkerCtx {
    index: usize,
    env: SessionEnv,
    config: ServerConfig,
    /// This worker's spill directory for evicted sessions.
    evict_dir: PathBuf,
    depth: Arc<AtomicUsize>,
    reply_tx: Sender<Reply>,
    epoch: Instant,
}

fn worker_loop(ctx: WorkerCtx, rx: Receiver<ToWorker>) {
    // Sessions are not `Send`, so the table is born on its worker.
    let mut table = SessionTable::new(ctx.config.resident_budget, ctx.evict_dir.clone());
    let mut metrics = MetricsRegistry::new();
    let wid = ctx.index as u64;
    while let Ok(message) = rx.recv() {
        // High-water queue depth *including* the request being taken.
        // `send` claims a slot before checking the bound, so a rejected
        // submit is briefly visible here as one over capacity; it is a
        // rejection in flight, never a queued message.
        let depth = ctx.depth.load(Ordering::Relaxed);
        metrics.set(
            "serve.queue_depth",
            wid,
            depth.min(ctx.config.queue_capacity) as u64,
        );
        let reply = match message {
            ToWorker::Flush(request) => {
                metrics.set("serve.sessions_live", wid, table.len() as u64);
                metrics.set("serve.resident", wid, table.resident_count() as u64);
                metrics.set("serve.evicted", wid, table.evicted_count() as u64);
                Reply::Metrics {
                    request,
                    worker: ctx.index,
                    registry: Box::new(metrics.clone()),
                }
            }
            ToWorker::Session(Envelope {
                request,
                session,
                op,
            }) => {
                let counted = op.counted();
                let reply = perform(&ctx, &mut table, &mut metrics, request, session, op);
                // Whatever the op did to residency (admission, fault-in),
                // bring the table back within its budget.
                let sweep = table.enforce_budget();
                if sweep.evicted > 0 || sweep.failed > 0 {
                    metrics.add("serve.evictions", wid, sweep.evicted);
                    metrics.add("serve.eviction_bytes", wid, sweep.bytes);
                    if sweep.failed > 0 {
                        metrics.add("serve.evict_failed", wid, sweep.failed);
                    }
                }
                if counted {
                    ctx.depth.fetch_sub(1, Ordering::AcqRel);
                }
                reply.unwrap_or_else(|e| Reply::Failed {
                    session: Some(session),
                    request,
                    error: e.to_string(),
                })
            }
        };
        if ctx.reply_tx.send(reply).is_err() {
            break; // server dropped; nobody is listening
        }
    }
    table.cleanup();
}

/// Carry out one request against the worker's table. Success-path
/// metrics are recorded here, so a failed op counts nowhere.
fn perform(
    ctx: &WorkerCtx,
    table: &mut SessionTable,
    metrics: &mut MetricsRegistry,
    request: RequestId,
    session: SessionId,
    op: Op,
) -> Result<Reply, Box<dyn Error>> {
    let worker = ctx.index;
    let wid = worker as u64;
    let env = &ctx.env;
    // What both ways of installing a session answer with.
    let ready = Reply::Ready {
        session,
        request,
        worker,
    };
    Ok(match op {
        Op::Create(initial) => {
            let mut s = Session::new(
                Arc::clone(&env.program),
                Arc::clone(&env.network),
                ctx.config.strategy,
                env.engine,
                env.fingerprint,
            );
            settle(ctx, metrics, &mut s, session, request, initial)?;
            table.insert(session, s)?;
            metrics.add("serve.sessions_created", wid, 1);
            ready
        }
        Op::Restore { bytes, adopting } => {
            let s = Session::restore(
                Arc::clone(&env.program),
                Arc::clone(&env.network),
                env.engine,
                env.fingerprint,
                &bytes,
            )?;
            table.insert(session, s)?;
            let counter = match adopting {
                true => "serve.sessions_adopted",
                false => "serve.sessions_restored",
            };
            metrics.add(counter, wid, 1);
            ready
        }
        Op::Ingest { remove, wmes } => {
            let (s, faulted) = table.get_mut(session, env)?;
            if faulted {
                metrics.add("serve.faultins", wid, 1);
            }
            if let Some(id) = remove {
                s.remove(id)?;
            }
            settle(ctx, metrics, s, session, request, wmes)?
        }
        Op::Snapshot => {
            let bytes = table.snapshot_bytes(session)?;
            metrics.add("serve.snapshots", wid, 1);
            Reply::SnapshotBytes {
                session,
                request,
                bytes,
            }
        }
        Op::Evacuate => {
            let bytes = match table.extract(session)? {
                Extracted::Evicted(bytes) => bytes,
                Extracted::Resident(s) => match s.snapshot() {
                    Ok(bytes) => bytes,
                    Err(e) => {
                        // The session must not be lost to a refused
                        // snapshot: put it back and fail the migration.
                        let _ = table.insert(session, *s);
                        return Err(e.into());
                    }
                },
            };
            metrics.add("serve.evacuations", wid, 1);
            Reply::Evacuated {
                session,
                request,
                worker,
                bytes,
            }
        }
        Op::Evict => {
            let bytes = table.evict_now(session)?;
            metrics.add("serve.evictions", wid, 1);
            Reply::Evicted {
                session,
                request,
                worker,
                bytes,
            }
        }
        Op::Destroy => {
            table.remove(session)?;
            Reply::Destroyed { session, request }
        }
    })
}

/// Ingest `wmes` into `s` and run the MRA cycle to quiescence, recording
/// latency and throughput metrics; the [`Reply::Cycles`] says what ran.
fn settle(
    ctx: &WorkerCtx,
    metrics: &mut MetricsRegistry,
    s: &mut Session,
    session: SessionId,
    request: RequestId,
    wmes: Vec<Wme>,
) -> Result<Reply, Box<dyn Error>> {
    let wid = ctx.index as u64;
    let started = Instant::now();
    let start_ns = started.duration_since(ctx.epoch).as_nanos() as u64;
    s.ingest(wmes);
    let (result, wme_changes) = s.run(ctx.config.max_cycles_per_batch)?;
    let nanos = started.elapsed().as_nanos() as u64;
    metrics.add("serve.requests", wid, 1);
    metrics.add("serve.cycles", wid, result.cycles as u64);
    metrics.add("serve.fired", wid, result.fired.len() as u64);
    metrics.add("serve.wme_changes", wid, wme_changes as u64);
    metrics.observe("serve.batch_ns", nanos);
    metrics.observe("serve.cycle_ns", nanos / (result.cycles.max(1) as u64));
    Ok(Reply::Cycles {
        session,
        request,
        worker: ctx.index,
        fired: result.fired.len(),
        cycles: result.cycles,
        wme_changes,
        outcome: result.outcome,
        nanos,
        start_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_workloads::serve;
    use proptest::prelude::*;

    const TIMEOUT: Duration = Duration::from_secs(30);

    fn tiny_server(config: ServerConfig) -> Server {
        let program = mpps_ops::parse_program("(p noop (never ^seen t) --> (halt))").unwrap();
        Server::new(program, config).unwrap()
    }

    #[test]
    fn degenerate_configs_are_typed_errors_not_clamps() {
        let program = mpps_ops::parse_program("(p noop (never ^seen t) --> (halt))").unwrap();
        for (config, needle) in [
            (
                ServerConfig {
                    workers: 0,
                    ..ServerConfig::default()
                },
                "workers",
            ),
            (
                ServerConfig {
                    queue_capacity: 0,
                    ..ServerConfig::default()
                },
                "queue capacity",
            ),
        ] {
            match Server::new(program.clone(), config) {
                Err(ServerError::Config(msg)) => {
                    assert!(msg.contains(needle), "{msg:?} should mention {needle}")
                }
                Err(other) => panic!("expected Config error about {needle}, got {other:?}"),
                Ok(_) => panic!("expected Config error about {needle}, got a server"),
            }
        }
    }

    #[test]
    fn migrating_to_a_bad_target_is_rejected_without_state_change() {
        let mut server = tiny_server(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let (session, request) = server.create_session(Vec::new()).unwrap();
        server.wait_for(request, TIMEOUT).unwrap();
        let home = server.worker_of(session).unwrap();
        assert!(matches!(
            server.migrate(session, 99, Duration::from_secs(1)),
            Err(ServerError::Config(_))
        ));
        assert!(matches!(
            server.migrate(session, home, Duration::from_secs(1)),
            Err(ServerError::Config(_))
        ));
        assert_eq!(server.worker_of(session).unwrap(), home);
    }

    const WORKERS: usize = 3;

    fn live_counts(server: &Server) -> [usize; WORKERS] {
        std::array::from_fn(|w| server.routes.live_on(w))
    }

    /// The slab's per-worker counts, the slab's length and the set of
    /// live routes are one ledger: they agree with each other and with
    /// the test's own model.
    fn assert_ledger(server: &Server, live: &[SessionId], step: usize) {
        assert_eq!(server.sessions(), live.len(), "step {step}");
        assert_eq!(server.routes.iter_live().count(), live.len(), "step {step}");
        let counted: usize = live_counts(server).iter().sum();
        assert_eq!(counted, live.len(), "step {step}: counts drifted");
    }

    /// Admit through `admit` and check the placement rule: the session
    /// lands on a worker whose live count was minimal, lowest index first.
    fn admit_checked(
        server: &mut Server,
        admit: impl FnOnce(&mut Server) -> (SessionId, RequestId),
    ) -> (SessionId, RequestId) {
        let before = live_counts(server);
        let (id, request) = admit(server);
        let least = before
            .iter()
            .position(|n| n == before.iter().min().unwrap());
        assert_eq!(
            server.worker_of(id).ok(),
            least,
            "placed against {before:?}"
        );
        (id, request)
    }

    fn expect_ready(server: &mut Server, request: RequestId) {
        let reply = server.wait_for(request, TIMEOUT).unwrap();
        assert!(matches!(reply, Reply::Ready { .. }), "{reply:?}");
    }

    fn expect_failed(server: &mut Server, request: RequestId) {
        let reply = server.wait_for(request, TIMEOUT).unwrap();
        assert!(matches!(reply, Reply::Failed { .. }), "{reply:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Create / destroy / failed-restore / restore / migrate churn.
        /// Every admission goes to a least-loaded worker, and a failed
        /// Create/Restore must not leave a phantom session routed and
        /// counted — nor may unwinding one that a racing destroy already
        /// unwound take the counts below the truth.
        #[test]
        fn placement_counts_survive_create_destroy_churn(
            ops in proptest::collection::vec((0u8..6, any::<u8>()), 30),
        ) {
            let mut server = Server::new(
                serve::program(),
                ServerConfig { workers: WORKERS, ..ServerConfig::default() },
            )
            .unwrap();
            let mut live: Vec<SessionId> = Vec::new();
            for (step, (op, pick)) in ops.into_iter().enumerate() {
                let pick = pick as usize % live.len().max(1);
                match op {
                    // A corrupt restore fails on the worker and must be
                    // unwound.
                    1 => {
                        let (phantom, request) = admit_checked(&mut server, |s| {
                            s.restore(vec![0xDE, 0xAD]).unwrap()
                        });
                        expect_failed(&mut server, request);
                        prop_assert!(matches!(
                            server.submit(phantom, Vec::new()),
                            Err(ServerError::StaleSession(_) | ServerError::UnknownSession(_))
                        ));
                    }
                    // A successful restore is an admission like any other.
                    2 if !live.is_empty() => {
                        let request = server.snapshot(live[pick]).unwrap();
                        let Reply::SnapshotBytes { bytes, .. } =
                            server.wait_for(request, TIMEOUT).unwrap()
                        else {
                            panic!("step {step}: expected snapshot bytes");
                        };
                        let (id, request) =
                            admit_checked(&mut server, |s| s.restore(bytes).unwrap());
                        expect_ready(&mut server, request);
                        live.push(id);
                    }
                    3 if !live.is_empty() => {
                        let request = server.destroy_session(live.swap_remove(pick)).unwrap();
                        let reply = server.wait_for(request, TIMEOUT).unwrap();
                        prop_assert!(matches!(reply, Reply::Destroyed { .. }));
                    }
                    4 if !live.is_empty() => {
                        let id = live[pick];
                        let to = (server.worker_of(id).unwrap() + 1) % WORKERS;
                        let request = server.migrate(id, to, TIMEOUT).unwrap();
                        expect_ready(&mut server, request);
                        prop_assert_eq!(server.worker_of(id), Ok(to));
                    }
                    _ => {
                        let (id, request) = admit_checked(&mut server, |s| {
                            s.create_session(serve::initial()).unwrap()
                        });
                        expect_ready(&mut server, request);
                        live.push(id);
                    }
                }
                assert_ledger(&server, &live, step);
            }
            // Destroy racing a doomed restore: the destroy withdraws the
            // route first, so the later `Failed` reply must not withdraw
            // a second time.
            let (doomed, restore_req) = server.restore(vec![0xBA, 0xD0]).unwrap();
            let destroy_req = server.destroy_session(doomed).unwrap();
            for request in [restore_req, destroy_req] {
                expect_failed(&mut server, request);
            }
            assert_ledger(&server, &live, usize::MAX);
            // The survivors still work after all the churn.
            for &id in &live {
                server.submit(id, serve::round(id.0, 0, 1)).unwrap();
            }
            let mut failures = 0;
            server
                .drain(TIMEOUT, |r| failures += matches!(r, Reply::Failed { .. }) as usize)
                .unwrap();
            prop_assert_eq!(failures, 0);
        }
    }
}
