//! The multiplexing worker pool.
//!
//! A [`Server`] compiles the program once, spawns `workers` threads, and
//! pins every admitted session to one worker for its lifetime (sessions
//! are not `Send` across workers and never need to be — all operations on
//! a session execute on its home worker, so no session ever sees
//! concurrent mutation). Like the paper's static split of the hash range
//! (§3), ownership never moves: a session leaves its worker only as
//! snapshot bytes ([`Server::snapshot`]) restored as a new session
//! ([`Server::restore`]), on this server or another.
//!
//! ## Placement
//!
//! Sessions are unit-weight, so balancing them needs no partition: a new
//! session goes to the worker with the fewest live sessions (lowest
//! index on ties). Admission is the one placement rule; under create /
//! destroy churn it keeps the workers within one session of each other
//! (EXPERIMENTS.md, "Live session migration: measured, then deleted").
//! The per-worker live counts live in the routing table itself
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
//!
//! A failure here — a worker that cannot be spawned, a session handle
//! that no longer routes — is a typed [`ServerError`], so the module
//! denies `unwrap`, `expect` and `panic!` outside tests.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::session::{Session, SessionId};
use crate::slab::{RouteError, RouteSlab};
use crate::snapshot::program_fingerprint;
use crate::store::{SessionEnv, SessionTable};
use crate::ServerError;
use crossbeam::channel::{self, Receiver, Sender};
use mpps_ops::{Program, RunOutcome, Strategy, Wme, WmeId};
use mpps_rete::{EngineConfig, ReteNetwork, MAX_TABLE_SIZE};
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
    /// Per-session match-engine configuration. Every session has its own
    /// pair of global tables and runs on one worker, so there is nothing
    /// for buckets to partition: the default table size is 1, one flat
    /// bucket a side, and probes go through the kernel's `(node,
    /// key_hash)` prefilter. `Session::run` shrinks every bucket to its
    /// entries after each run. A program whose sessions hold large
    /// working memories can ask for more buckets (`mpps serve
    /// --table-size N`).
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
                table_size: 1,
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
    /// Rebuild a session from snapshot bytes under the envelope's (fresh)
    /// id.
    Restore(Vec<u8>),
    /// Force the session to disk now (tests and operational tooling; the
    /// budget sweep is the steady-state eviction path).
    Evict,
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
    /// A session was created (or restored) and settled to quiescence.
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
    /// Create/Restore requests whose `Ready` has not arrived yet: if the
    /// worker reports failure instead, the session never materialized
    /// there and its route is withdrawn.
    pending_admissions: HashMap<RequestId, SessionId>,
    next_request: u64,
    in_flight: usize,
    overloaded: u64,
    admitted_per_worker: Vec<u64>,
}

impl Server {
    /// Validate `config`, compile `program` and spawn the worker pool.
    ///
    /// Degenerate configurations (`workers == 0`, `queue_capacity == 0`,
    /// an engine table size of 0 or above [`MAX_TABLE_SIZE`]) are rejected
    /// with [`ServerError::Config`] — not silently clamped.
    pub fn new(program: Program, config: ServerConfig) -> Result<Server, ServerError> {
        if config.workers == 0 {
            return Err(ServerError::Config("workers must be at least 1".into()));
        }
        if config.queue_capacity == 0 {
            return Err(ServerError::Config(
                "queue capacity must be at least 1".into(),
            ));
        }
        if !(1..=MAX_TABLE_SIZE).contains(&config.engine.table_size) {
            return Err(ServerError::Config(format!(
                "engine table size must be in 1..={MAX_TABLE_SIZE}"
            )));
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
            // On failure the handles built so far are dropped with their
            // senders, so those workers see a closed queue and exit.
            let join = std::thread::Builder::new()
                .name(format!("mpps-serve-{index}"))
                .spawn(move || worker_loop(ctx, rx))
                .map_err(|_| ServerError::Shutdown)?;
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
            next_request: 0,
            overloaded: 0,
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
        self.routes.get(session).map_err(route_error)
    }

    /// Accepted requests whose replies have not been received yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Submissions rejected with [`ServerError::Overloaded`] so far.
    pub fn overload_rejections(&self) -> u64 {
        self.overloaded
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
        self.admit(Op::Restore(bytes))
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
        self.routes.remove(session).map_err(route_error)?;
        Ok(request)
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
        let at = self.buffered.iter().position(|r| r.request() == request);
        if let Some(reply) = at.and_then(|at| self.buffered.remove(at)) {
            return Ok(reply);
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
    /// counters: `serve.admitted` (sessions placed on each worker) and
    /// `serve.overloaded` (rejected submissions).
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
        Ok(merged)
    }

    /// Place a new session on the worker with the fewest live sessions
    /// (lowest index on ties) and send it `op`. A saturated worker
    /// rejects before anything is recorded: the id is not consumed. Until
    /// its `Ready` arrives the admission is pending: a `Failed` answer
    /// withdraws it (see [`Server::account`]).
    fn admit(&mut self, op: Op) -> Result<(SessionId, RequestId), ServerError> {
        let worker = (0..self.workers.len())
            .min_by_key(|&w| self.routes.live_on(w))
            .ok_or_else(|| ServerError::Config("the worker pool is empty".into()))?;
        let session = self.routes.peek_next();
        let request = self.next_request();
        self.send(worker, request, session, op)?;
        let issued = self.routes.insert(worker);
        debug_assert_eq!(issued, session, "peeked id must be the issued id");
        self.pending_admissions.insert(request, session);
        self.admitted_per_worker[worker] += 1;
        Ok((session, request))
    }

    /// Send `op` to the worker `session` is pinned to.
    fn dispatch(&mut self, session: SessionId, op: Op) -> Result<RequestId, ServerError> {
        let worker = self.worker_of(session)?;
        let request = self.next_request();
        self.send(worker, request, session, op)
    }

    fn next_request(&mut self) -> RequestId {
        self.next_request += 1;
        self.next_request
    }

    /// Enqueue `op` for `session` on `worker` as request `request`,
    /// claiming a slot in the worker's bounded queue first.
    fn send(
        &mut self,
        worker: usize,
        request: RequestId,
        session: SessionId,
        op: Op,
    ) -> Result<RequestId, ServerError> {
        let handle = &self.workers[worker];
        // Optimistically claim a slot; undo if over capacity. The counter
        // is the *only* admission gate, so claim-then-check is race-free
        // even with a future multi-submitter front end.
        if handle.depth.fetch_add(1, Ordering::AcqRel) >= self.config.queue_capacity {
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
            handle.depth.fetch_sub(1, Ordering::AcqRel);
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
            // Admission confirmed: the session exists on its worker.
            Reply::Ready { request, .. } => {
                self.pending_admissions.remove(request);
            }
            // A failed Create/Restore never materialized the
            // session on the worker: withdraw its route so the live
            // counts placement reads don't go stale. A session destroyed
            // mid-flight has no route left to withdraw (and the id may
            // not be reissued yet: the generation check makes this a
            // no-op rather than a second decrement).
            Reply::Failed { request, .. } => {
                if let Some(session) = self.pending_admissions.remove(request) {
                    if let Ok(worker) = self.routes.remove(session) {
                        self.admitted_per_worker[worker] -= 1;
                    }
                }
            }
            _ => {}
        }
    }
}

/// A routing failure as the server reports it.
fn route_error(e: RouteError) -> ServerError {
    match e {
        RouteError::Stale(id) => ServerError::StaleSession(id),
        RouteError::Unknown(id) => ServerError::UnknownSession(id),
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
                ctx.depth.fetch_sub(1, Ordering::AcqRel);
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
        Op::Restore(bytes) => {
            let s = Session::restore(
                Arc::clone(&env.program),
                Arc::clone(&env.network),
                env.engine,
                env.fingerprint,
                &bytes,
            )?;
            table.insert(session, s)?;
            metrics.add("serve.sessions_restored", wid, 1);
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
            (
                ServerConfig {
                    engine: EngineConfig {
                        table_size: 0,
                        record_trace: false,
                    },
                    ..ServerConfig::default()
                },
                "table size",
            ),
            (
                ServerConfig {
                    engine: EngineConfig {
                        table_size: MAX_TABLE_SIZE + 1,
                        record_trace: false,
                    },
                    ..ServerConfig::default()
                },
                "table size",
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

    const WORKERS: usize = 3;

    fn live_counts(server: &Server) -> [usize; WORKERS] {
        std::array::from_fn(|w| server.routes.live_on(w))
    }

    /// The slab's per-worker counts, the slab's length and the set of
    /// live routes are one ledger: they agree with each other and with
    /// the test's own model.
    fn assert_ledger(server: &Server, live: &[SessionId], step: usize) {
        assert_eq!(server.sessions(), live.len(), "step {step}");
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

        /// Create / destroy / failed-restore / restore churn.
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
