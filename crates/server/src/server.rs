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
//! ## Admission
//!
//! Session → worker assignment reuses [`mpps_core::Partition`] — the same
//! abstraction the paper's §4 mapping uses for hash-bucket → processor
//! placement, one level up: sessions hash into a fixed shard space and a
//! partition maps shards to workers. Round-robin and seeded-random are
//! static; greedy rebuilds an LPT partition over live-session-per-shard
//! counts every `greedy_rebuild_interval` admissions. Pinned sessions
//! follow the new map only when [`Server::rebalance`] migrates them.
//!
//! Routing is a [`crate::slab::RouteSlab`]: ids are slab slots with a
//! generation tag, so lookup is one bounds-checked index instead of a
//! hash probe, and a handle held past destroy fails with a typed
//! [`ServerError::StaleSession`].
//!
//! ## Residency
//!
//! Each worker keeps its sessions in a [`crate::store::SessionTable`].
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
use crate::store::{EvictionSweep, Extracted, SessionEnv, SessionTable};
use crate::ServerError;
use crossbeam::channel::{self, Receiver, Sender};
use mpps_core::Partition;
use mpps_ops::{Program, RunOutcome, Strategy, Wme, WmeId};
use mpps_rete::{EngineConfig, ReteNetwork};
use mpps_telemetry::{MetricSink, MetricsRegistry};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Monotone id identifying one accepted request; every accepted request
/// produces exactly one [`Reply`] carrying it.
pub type RequestId = u64;

/// How sessions are assigned to workers at admission.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sharding {
    /// Shards dealt to workers in rotation ([`Partition::round_robin`]).
    RoundRobin,
    /// Shards scattered by a seeded hash ([`Partition::random`]).
    Random(u64),
    /// LPT over live-session counts per shard ([`Partition::greedy`]),
    /// rebuilt periodically as sessions come and go.
    Greedy,
}

impl Sharding {
    /// Parse a CLI spelling: `rr`, `random[:seed]` or `greedy`.
    pub fn parse(s: &str) -> Option<Sharding> {
        match s {
            "rr" | "round-robin" => Some(Sharding::RoundRobin),
            "greedy" => Some(Sharding::Greedy),
            _ => {
                let rest = s.strip_prefix("random")?;
                match rest.strip_prefix(':') {
                    None if rest.is_empty() => Some(Sharding::Random(0xC0FFEE)),
                    Some(seed) => seed.parse().ok().map(Sharding::Random),
                    _ => None,
                }
            }
        }
    }
}

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
    /// Size of the shard space sessions hash into before the partition
    /// maps shards to workers. Must be ≥ 1; 0 is a config error, not a
    /// silent clamp.
    pub shards: u64,
    /// Shard → worker strategy.
    pub sharding: Sharding,
    /// Conflict-resolution strategy sessions run under.
    pub strategy: Strategy,
    /// Per-session match-engine configuration. The default table size is
    /// deliberately small (16): global-memory buckets cost space per
    /// *session* here, not per server, and serving WMs are tiny.
    pub engine: EngineConfig,
    /// Cycle budget per ingestion batch (guards runaway rule loops).
    pub max_cycles_per_batch: usize,
    /// How many admissions between greedy-partition rebuilds.
    pub greedy_rebuild_interval: u64,
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
            shards: 256,
            sharding: Sharding::RoundRobin,
            strategy: Strategy::Lex,
            engine: EngineConfig {
                table_size: 16,
                record_trace: false,
            },
            max_cycles_per_batch: 4096,
            greedy_rebuild_interval: 64,
            resident_budget: None,
            evict_dir: None,
        }
    }
}

/// Work shipped to a worker thread.
enum Request {
    Create {
        session: SessionId,
        request: RequestId,
        initial: Vec<Wme>,
    },
    Ingest {
        session: SessionId,
        request: RequestId,
        wmes: Vec<Wme>,
    },
    Remove {
        session: SessionId,
        request: RequestId,
        id: WmeId,
    },
    Destroy {
        session: SessionId,
        request: RequestId,
    },
    Snapshot {
        session: SessionId,
        request: RequestId,
    },
    Restore {
        session: SessionId,
        request: RequestId,
        bytes: Vec<u8>,
    },
    /// Migration departure: extract the session and ship its snapshot
    /// bytes back (evicted sessions ship their spill file unread).
    Evacuate {
        session: SessionId,
        request: RequestId,
    },
    /// Migration arrival: rebuild the evacuated session under its
    /// *original* id. Control plane — sent by the server itself after a
    /// successful evacuation, so it bypasses the queue bound (the bytes
    /// are already off the source worker and must not be stranded).
    Adopt {
        session: SessionId,
        request: RequestId,
        bytes: Vec<u8>,
    },
    /// Force one session to disk now (tests and operational tooling; the
    /// budget sweep is the steady-state eviction path).
    Evict {
        session: SessionId,
        request: RequestId,
    },
    /// Control plane: ship the worker's metrics back. Not counted against
    /// queue capacity.
    Flush {
        request: RequestId,
    },
    Shutdown,
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

    /// True when the reply answers a request that moved the in-flight
    /// counter (everything but metrics flushes).
    fn counted(&self) -> bool {
        !matches!(self, Reply::Metrics { .. })
    }
}

/// Patch the server-assigned request id into an outbound request.
fn patch_request(request: &mut Request, id: RequestId) {
    match request {
        Request::Create { request, .. }
        | Request::Ingest { request, .. }
        | Request::Remove { request, .. }
        | Request::Destroy { request, .. }
        | Request::Snapshot { request, .. }
        | Request::Restore { request, .. }
        | Request::Evacuate { request, .. }
        | Request::Adopt { request, .. }
        | Request::Evict { request, .. }
        | Request::Flush { request } => *request = id,
        Request::Shutdown => {}
    }
}

struct WorkerHandle {
    tx: Sender<Request>,
    depth: Arc<AtomicUsize>,
    join: Option<JoinHandle<()>>,
}

/// What one [`Server::rebalance`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Live sessions examined against the rebuilt partition.
    pub examined: usize,
    /// Sessions migrated to their newly preferred worker.
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
    buffered: std::collections::VecDeque<Reply>,
    partition: Partition,
    routes: RouteSlab,
    shard_sessions: Vec<u64>,
    /// Create/Restore/Adopt requests whose `Ready` has not arrived yet:
    /// request id → the admission to unwind if the worker reports
    /// failure instead (the session never materialized there).
    pending_admissions: HashMap<u64, (SessionId, usize)>,
    admissions: u64,
    next_request: u64,
    in_flight: usize,
    overloaded: u64,
    migrations: u64,
    admitted_per_worker: Vec<u64>,
}

impl Server {
    /// Validate `config`, compile `program` and spawn the worker pool.
    ///
    /// Degenerate configurations (`workers == 0`, `shards == 0`,
    /// `queue_capacity == 0`) are rejected with [`ServerError::Config`] —
    /// not silently clamped.
    pub fn new(program: Program, config: ServerConfig) -> Result<Server, ServerError> {
        if config.workers == 0 {
            return Err(ServerError::Config("workers must be at least 1".into()));
        }
        if config.shards == 0 {
            return Err(ServerError::Config("shards must be at least 1".into()));
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
                program: Arc::clone(&program),
                network: Arc::clone(&network),
                config: config.clone(),
                fingerprint,
                depth: Arc::clone(&depth),
                reply_tx: reply_tx.clone(),
                epoch,
                evict_dir: evict_base.join(format!("w{index}")),
            };
            let join = std::thread::Builder::new()
                .name(format!("mpps-serve-{index}"))
                .spawn(move || worker_loop(ctx, rx))
                .expect("spawn server worker");
            handles.push(WorkerHandle {
                tx,
                depth,
                join: Some(join),
            });
        }
        let partition = build_partition(&config, workers, &vec![0; config.shards as usize]);
        let shard_sessions = vec![0; config.shards as usize];
        Ok(Server {
            program,
            network,
            config,
            fingerprint,
            workers: handles,
            reply_rx,
            buffered: std::collections::VecDeque::new(),
            partition,
            routes: RouteSlab::new(),
            shard_sessions,
            pending_admissions: HashMap::new(),
            admissions: 0,
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

    /// Live-session count per shard — the activity vector greedy
    /// admission packs with. Invariant: sums to [`Server::sessions`]
    /// once every Create/Restore has been answered.
    pub fn shard_session_counts(&self) -> &[u64] {
        &self.shard_sessions
    }

    /// The worker a live session is currently pinned to.
    pub fn worker_of(&self, session: SessionId) -> Result<usize, ServerError> {
        self.route(session)
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

    /// Admit a new session (pinned to a worker by the sharding policy)
    /// and ship its initial WM. Counts against the target worker's queue.
    pub fn create_session(
        &mut self,
        initial: Vec<Wme>,
    ) -> Result<(SessionId, RequestId), ServerError> {
        let session = self.routes.peek_next();
        let worker = self.admit(session)?;
        let request = self
            .send(
                worker,
                session,
                Request::Create {
                    session,
                    request: 0, // patched by send()
                    initial,
                },
            )
            .inspect_err(|_| self.unwind_admission(session, worker))?;
        self.pending_admissions.insert(request, (session, worker));
        Ok((session, request))
    }

    /// Restore a snapshot as a **new** session on this server.
    pub fn restore(&mut self, bytes: Vec<u8>) -> Result<(SessionId, RequestId), ServerError> {
        let session = self.routes.peek_next();
        let worker = self.admit(session)?;
        let request = self
            .send(
                worker,
                session,
                Request::Restore {
                    session,
                    request: 0,
                    bytes,
                },
            )
            .inspect_err(|_| self.unwind_admission(session, worker))?;
        self.pending_admissions.insert(request, (session, worker));
        Ok((session, request))
    }

    /// Submit a batch of WMEs to a session. The worker ingests the batch
    /// and runs the MRA cycle to quiescence (bounded by
    /// `max_cycles_per_batch`), then replies [`Reply::Cycles`].
    pub fn submit(&mut self, session: SessionId, wmes: Vec<Wme>) -> Result<RequestId, ServerError> {
        let worker = self.route(session)?;
        self.send(
            worker,
            session,
            Request::Ingest {
                session,
                request: 0,
                wmes,
            },
        )
    }

    /// Submit removal of one WME (by time tag) to a session.
    pub fn submit_remove(
        &mut self,
        session: SessionId,
        id: WmeId,
    ) -> Result<RequestId, ServerError> {
        let worker = self.route(session)?;
        self.send(
            worker,
            session,
            Request::Remove {
                session,
                request: 0,
                id,
            },
        )
    }

    /// Request a snapshot of a session (replies [`Reply::SnapshotBytes`]).
    pub fn snapshot(&mut self, session: SessionId) -> Result<RequestId, ServerError> {
        let worker = self.route(session)?;
        self.send(
            worker,
            session,
            Request::Snapshot {
                session,
                request: 0,
            },
        )
    }

    /// Force a session's state to disk now (replies [`Reply::Evicted`]).
    /// The next request for it faults it back in transparently. The
    /// budget sweep evicts LRU sessions automatically; this entry point
    /// exists for tests and operational tooling.
    pub fn evict(&mut self, session: SessionId) -> Result<RequestId, ServerError> {
        let worker = self.route(session)?;
        self.send(
            worker,
            session,
            Request::Evict {
                session,
                request: 0,
            },
        )
    }

    /// Destroy a session. Further submissions for it fail immediately
    /// with [`ServerError::StaleSession`]; requests already queued are
    /// still answered. Fails with [`ServerError::ShardAccounting`] —
    /// before any state changes — if the shard ledger has drifted (an
    /// internal invariant breach that `debug_assert!` used to hide in
    /// release builds).
    pub fn destroy_session(&mut self, session: SessionId) -> Result<RequestId, ServerError> {
        let worker = self.route(session)?;
        let shard = self.shard_of(session);
        if self.shard_sessions[shard] == 0 {
            return Err(ServerError::ShardAccounting { session, shard });
        }
        let request = self.send(
            worker,
            session,
            Request::Destroy {
                session,
                request: 0,
            },
        )?;
        self.routes
            .remove(session)
            .expect("route() above proved the session live");
        self.shard_sessions[shard] -= 1;
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
    pub fn migrate(
        &mut self,
        session: SessionId,
        to: usize,
        timeout: Duration,
    ) -> Result<RequestId, ServerError> {
        let from = self.route(session)?;
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
        let evac = self.send(
            from,
            session,
            Request::Evacuate {
                session,
                request: 0,
            },
        )?;
        let bytes = match self.wait_for(evac, timeout)? {
            Reply::Evacuated { bytes, .. } => bytes,
            Reply::Failed { error, .. } => return Err(ServerError::Engine(error)),
            other => {
                return Err(ServerError::Engine(format!(
                    "evacuation answered by unexpected reply {other:?}"
                )))
            }
        };
        // The session now exists only as bytes we hold. Adoption is
        // control-plane: it must not be bounced by a full queue, or the
        // state would be stranded.
        let adopt = self.send_control(
            to,
            Request::Adopt {
                session,
                request: 0,
                bytes,
            },
        )?;
        self.routes
            .set_worker(session, to)
            .expect("route() above proved the session live");
        // If adoption fails on the worker (disk-level corruption is the
        // only path), account() unwinds this like a failed admission so
        // the routing table never points at a session that isn't there.
        self.pending_admissions.insert(adopt, (session, to));
        self.migrations += 1;
        Ok(adopt)
    }

    /// Rebuild the partition as greedy LPT over the current per-shard
    /// live-session counts and migrate every session whose shard now maps
    /// to a different worker. This is the other half of greedy admission:
    /// admission only places *future* sessions; rebalance moves the ones
    /// already pinned. Saturated workers cause moves to be skipped (and
    /// reported), not failed.
    pub fn rebalance(&mut self, timeout: Duration) -> Result<RebalanceReport, ServerError> {
        self.partition = Partition::greedy(&self.shard_sessions, self.workers.len());
        let moves: Vec<(SessionId, usize)> = self
            .routes
            .iter_live()
            .map(|(id, cur)| (id, cur, self.partition.owner(self.shard_of(id) as u64)))
            .filter(|&(_, cur, want)| cur != want)
            .map(|(id, _, want)| (id, want))
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
    /// admission counters: `serve.admitted` (sessions per worker),
    /// `serve.overloaded` (rejected submissions), `serve.migrations`
    /// (sessions moved between workers).
    pub fn metrics(&mut self, timeout: Duration) -> Result<MetricsRegistry, ServerError> {
        let mut merged = MetricsRegistry::new();
        for worker in 0..self.workers.len() {
            let request = self.next_request();
            self.workers[worker]
                .tx
                .send(Request::Flush { request })
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

    fn shard_of(&self, session: SessionId) -> usize {
        // Multiplicative hash so consecutive ids spread across shards
        // (greedy and random placements would otherwise see runs).
        let h = session.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        (h % self.partition.table_size()) as usize
    }

    /// Pick (and record) the worker for a new session.
    fn admit(&mut self, session: SessionId) -> Result<usize, ServerError> {
        if self.config.sharding == Sharding::Greedy
            && self
                .admissions
                .is_multiple_of(self.config.greedy_rebuild_interval.max(1))
        {
            self.partition =
                build_partition(&self.config, self.workers.len(), &self.shard_sessions);
        }
        self.admissions += 1;
        let shard = self.shard_of(session);
        let worker = self.partition.owner(shard as u64);
        // Reject at admission when the worker is saturated, before any
        // state is recorded (the peeked id is not consumed either).
        let depth = self.workers[worker].depth.load(Ordering::Acquire);
        if depth >= self.config.queue_capacity {
            self.overloaded += 1;
            return Err(ServerError::Overloaded {
                session,
                worker,
                capacity: self.config.queue_capacity,
            });
        }
        let issued = self.routes.insert(worker);
        debug_assert_eq!(issued, session, "peeked id must be the issued id");
        self.shard_sessions[shard] += 1;
        self.admitted_per_worker[worker] += 1;
        Ok(worker)
    }

    /// Roll back [`Server::admit`]'s bookkeeping for a session whose
    /// Create/Restore never reached — or never materialized on — its
    /// worker. A session destroyed mid-flight was already unwound by
    /// `destroy_session` (its route is gone), so this is a no-op then;
    /// without that guard the count would be decremented twice and drift
    /// negative.
    fn unwind_admission(&mut self, session: SessionId, worker: usize) {
        if self.routes.remove(session).is_err() {
            return;
        }
        let shard = self.shard_of(session);
        self.shard_sessions[shard] = self.shard_sessions[shard].saturating_sub(1);
        self.admitted_per_worker[worker] = self.admitted_per_worker[worker].saturating_sub(1);
    }

    fn route(&self, session: SessionId) -> Result<usize, ServerError> {
        self.routes.get(session).map_err(|e| match e {
            RouteError::Stale(id) => ServerError::StaleSession(id),
            RouteError::Unknown(id) => ServerError::UnknownSession(id),
        })
    }

    fn next_request(&mut self) -> RequestId {
        self.next_request += 1;
        self.next_request
    }

    /// Enqueue a data-plane request on `worker`, enforcing the bounded
    /// queue. On success the request id is patched in and returned.
    fn send(
        &mut self,
        worker: usize,
        session: SessionId,
        mut request: Request,
    ) -> Result<RequestId, ServerError> {
        let handle = &self.workers[worker];
        // Optimistically claim a slot; undo if over capacity. The counter
        // is the *only* admission gate, so claim-then-check is race-free
        // even with a future multi-submitter front end.
        let depth = handle.depth.fetch_add(1, Ordering::AcqRel);
        if depth >= self.config.queue_capacity {
            handle.depth.fetch_sub(1, Ordering::AcqRel);
            self.overloaded += 1;
            return Err(ServerError::Overloaded {
                session,
                worker,
                capacity: self.config.queue_capacity,
            });
        }
        let id = self.next_request();
        patch_request(&mut request, id);
        if self.workers[worker].tx.send(request).is_err() {
            self.workers[worker].depth.fetch_sub(1, Ordering::AcqRel);
            return Err(ServerError::Shutdown);
        }
        self.in_flight += 1;
        Ok(id)
    }

    /// Enqueue a control-plane request on `worker`: not subject to the
    /// queue bound (the worker will not move the depth counter for it),
    /// but still answered by exactly one counted reply.
    fn send_control(
        &mut self,
        worker: usize,
        mut request: Request,
    ) -> Result<RequestId, ServerError> {
        let id = self.next_request();
        patch_request(&mut request, id);
        if self.workers[worker].tx.send(request).is_err() {
            return Err(ServerError::Shutdown);
        }
        self.in_flight += 1;
        Ok(id)
    }

    fn account(&mut self, reply: &Reply) {
        if reply.counted() {
            self.in_flight = self.in_flight.saturating_sub(1);
        }
        match reply {
            // Admission (or adoption) confirmed: the session exists on
            // its worker.
            Reply::Ready { request, .. } => {
                self.pending_admissions.remove(request);
            }
            // A failed Create/Restore/Adopt never materialized the
            // session on the worker: unwind the admission so the
            // live-session counts the greedy rebuild packs against don't
            // go stale.
            Reply::Failed { request, .. } => {
                if let Some((session, worker)) = self.pending_admissions.remove(request) {
                    self.unwind_admission(session, worker);
                }
            }
            _ => {}
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        for worker in &self.workers {
            let _ = worker.tx.send(Request::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
        }
    }
}

fn build_partition(config: &ServerConfig, workers: usize, shard_sessions: &[u64]) -> Partition {
    match config.sharding {
        Sharding::RoundRobin => Partition::round_robin(config.shards, workers),
        Sharding::Random(seed) => Partition::random(config.shards, workers, seed),
        Sharding::Greedy => Partition::greedy(shard_sessions, workers),
    }
}

/// Everything a worker thread needs, moved in at spawn.
struct WorkerCtx {
    index: usize,
    program: Arc<Program>,
    network: Arc<ReteNetwork>,
    config: ServerConfig,
    fingerprint: u64,
    depth: Arc<AtomicUsize>,
    reply_tx: Sender<Reply>,
    epoch: Instant,
    /// This worker's spill directory for evicted sessions.
    evict_dir: PathBuf,
}

fn worker_loop(ctx: WorkerCtx, rx: Receiver<Request>) {
    let mut table = SessionTable::new(ctx.config.resident_budget, ctx.evict_dir.clone());
    let env = SessionEnv {
        program: Arc::clone(&ctx.program),
        network: Arc::clone(&ctx.network),
        engine: ctx.config.engine,
        fingerprint: ctx.fingerprint,
    };
    let mut metrics = MetricsRegistry::new();
    let wid = ctx.index as u64;
    while let Ok(request) = rx.recv() {
        // Control-plane messages (flush/adopt/shutdown) bypass the
        // bounded queue, so only data-plane requests move the depth
        // counter.
        let counted = !matches!(
            request,
            Request::Flush { .. } | Request::Adopt { .. } | Request::Shutdown
        );
        // High-water queue depth *including* the request being taken.
        metrics.set(
            "serve.queue_depth",
            wid,
            ctx.depth.load(Ordering::Relaxed) as u64,
        );
        let mut sweep = EvictionSweep::default();
        let reply = match request {
            Request::Shutdown => break,
            Request::Flush { request } => {
                metrics.set("serve.sessions_live", wid, table.len() as u64);
                metrics.set("serve.resident", wid, table.resident_count() as u64);
                metrics.set("serve.evicted", wid, table.evicted_count() as u64);
                Some(Reply::Metrics {
                    request,
                    worker: ctx.index,
                    registry: Box::new(metrics.clone()),
                })
            }
            Request::Create {
                session,
                request,
                initial,
            } => {
                let mut s = Session::new(
                    Arc::clone(&ctx.program),
                    Arc::clone(&ctx.network),
                    ctx.config.strategy,
                    ctx.config.engine,
                    ctx.fingerprint,
                );
                let reply =
                    settle_into(&ctx, &mut metrics, &mut s, session, request, initial, true);
                let reply = if matches!(reply, Reply::Failed { .. }) {
                    reply
                } else {
                    match table.insert(session, s) {
                        Ok(()) => reply,
                        Err(e) => fail(session, request, e.to_string()),
                    }
                };
                metrics.add("serve.sessions_created", wid, 1);
                sweep = table.enforce_budget();
                Some(reply)
            }
            Request::Restore {
                session,
                request,
                bytes,
            } => Some(
                match admit_bytes(&ctx, &mut table, session, request, &bytes) {
                    Ok(reply) => {
                        metrics.add("serve.sessions_restored", wid, 1);
                        sweep = table.enforce_budget();
                        reply
                    }
                    Err(reply) => reply,
                },
            ),
            Request::Adopt {
                session,
                request,
                bytes,
            } => Some(
                match admit_bytes(&ctx, &mut table, session, request, &bytes) {
                    Ok(reply) => {
                        metrics.add("serve.sessions_adopted", wid, 1);
                        sweep = table.enforce_budget();
                        reply
                    }
                    Err(reply) => reply,
                },
            ),
            Request::Ingest {
                session,
                request,
                wmes,
            } => Some(match table.get_mut(session, &env) {
                Err(e) => fail(session, request, e.to_string()),
                Ok((s, faulted)) => {
                    if faulted {
                        metrics.add("serve.faultins", wid, 1);
                    }
                    let reply = settle_into(&ctx, &mut metrics, s, session, request, wmes, false);
                    sweep = table.enforce_budget();
                    reply
                }
            }),
            Request::Remove {
                session,
                request,
                id,
            } => Some(match table.get_mut(session, &env) {
                Err(e) => fail(session, request, e.to_string()),
                Ok((s, faulted)) => {
                    if faulted {
                        metrics.add("serve.faultins", wid, 1);
                    }
                    let reply = match s.remove(id) {
                        Err(e) => fail(session, request, e.to_string()),
                        Ok(()) => {
                            settle_into(&ctx, &mut metrics, s, session, request, Vec::new(), false)
                        }
                    };
                    sweep = table.enforce_budget();
                    reply
                }
            }),
            Request::Snapshot { session, request } => Some(match table.snapshot_bytes(session) {
                Err(e) => fail(session, request, e.to_string()),
                Ok(bytes) => {
                    metrics.add("serve.snapshots", wid, 1);
                    Reply::SnapshotBytes {
                        session,
                        request,
                        bytes,
                    }
                }
            }),
            Request::Evacuate { session, request } => Some(match table.extract(session) {
                Err(e) => fail(session, request, e.to_string()),
                Ok(Extracted::Evicted(bytes)) => {
                    metrics.add("serve.evacuations", wid, 1);
                    Reply::Evacuated {
                        session,
                        request,
                        worker: ctx.index,
                        bytes,
                    }
                }
                Ok(Extracted::Resident(s)) => match s.snapshot() {
                    Ok(bytes) => {
                        metrics.add("serve.evacuations", wid, 1);
                        Reply::Evacuated {
                            session,
                            request,
                            worker: ctx.index,
                            bytes,
                        }
                    }
                    Err(e) => {
                        // The session must not be lost to a refused
                        // snapshot: put it back and fail the migration.
                        let _ = table.insert(session, *s);
                        fail(session, request, e.to_string())
                    }
                },
            }),
            Request::Evict { session, request } => Some(match table.evict_now(session) {
                Err(e) => fail(session, request, e.to_string()),
                Ok(bytes) => {
                    metrics.add("serve.evictions", wid, 1);
                    Reply::Evicted {
                        session,
                        request,
                        worker: ctx.index,
                        bytes,
                    }
                }
            }),
            Request::Destroy { session, request } => Some(match table.remove(session) {
                Err(e) => fail(session, request, e.to_string()),
                Ok(()) => Reply::Destroyed { session, request },
            }),
        };
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
        if let Some(reply) = reply {
            if ctx.reply_tx.send(reply).is_err() {
                break; // server dropped; nobody is listening
            }
        }
    }
    table.cleanup();
}

/// Rebuild a session from snapshot bytes (restore or migration adoption)
/// and install it. Returns the `Ready` reply, or the `Failed` reply as
/// `Err` so callers can skip their success-path metrics.
fn admit_bytes(
    ctx: &WorkerCtx,
    table: &mut SessionTable,
    session: SessionId,
    request: RequestId,
    bytes: &[u8],
) -> Result<Reply, Reply> {
    match Session::restore(
        Arc::clone(&ctx.program),
        Arc::clone(&ctx.network),
        ctx.config.engine,
        ctx.fingerprint,
        bytes,
    ) {
        Ok(s) => match table.insert(session, s) {
            Ok(()) => Ok(Reply::Ready {
                session,
                request,
                worker: ctx.index,
            }),
            Err(e) => Err(fail(session, request, e.to_string())),
        },
        Err(e) => Err(fail(session, request, e.to_string())),
    }
}

fn fail(session: SessionId, request: RequestId, error: String) -> Reply {
    Reply::Failed {
        session: Some(session),
        request,
        error,
    }
}

/// Ingest `wmes` into `s` and run the MRA cycle to quiescence, recording
/// latency and throughput metrics. `creating` selects the Ready reply
/// shape (session admission) over Cycles (steady-state ingestion).
#[allow(clippy::too_many_arguments)]
fn settle_into(
    ctx: &WorkerCtx,
    metrics: &mut MetricsRegistry,
    s: &mut Session,
    session: SessionId,
    request: RequestId,
    wmes: Vec<Wme>,
    creating: bool,
) -> Reply {
    let wid = ctx.index as u64;
    let started = Instant::now();
    let start_ns = started.duration_since(ctx.epoch).as_nanos() as u64;
    s.ingest(wmes);
    match s.run(ctx.config.max_cycles_per_batch) {
        Err(e) => Reply::Failed {
            session: Some(session),
            request,
            error: e.to_string(),
        },
        Ok((result, wme_changes)) => {
            let nanos = started.elapsed().as_nanos() as u64;
            metrics.add("serve.requests", wid, 1);
            metrics.add("serve.cycles", wid, result.cycles as u64);
            metrics.add("serve.fired", wid, result.fired.len() as u64);
            metrics.add("serve.wme_changes", wid, wme_changes as u64);
            metrics.observe("serve.batch_ns", nanos);
            metrics.observe("serve.cycle_ns", nanos / (result.cycles.max(1) as u64));
            if creating {
                Reply::Ready {
                    session,
                    request,
                    worker: ctx.index,
                }
            } else {
                Reply::Cycles {
                    session,
                    request,
                    worker: ctx.index,
                    fired: result.fired.len(),
                    cycles: result.cycles,
                    wme_changes,
                    outcome: result.outcome,
                    nanos,
                    start_ns,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                    shards: 0,
                    ..ServerConfig::default()
                },
                "shards",
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
    fn shard_ledger_drift_is_a_typed_error_in_release_builds() {
        let mut server = tiny_server(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let (session, request) = server.create_session(Vec::new()).unwrap();
        server.wait_for(request, Duration::from_secs(30)).unwrap();
        // Corrupt the ledger the way the old debug_assert! could only
        // catch in debug builds.
        let shard = server.shard_of(session);
        server.shard_sessions[shard] = 0;
        assert_eq!(
            server.destroy_session(session).unwrap_err(),
            ServerError::ShardAccounting { session, shard }
        );
        // The failed destroy changed nothing: the session is still
        // routable once the ledger is repaired.
        server.shard_sessions[shard] = 1;
        server.destroy_session(session).unwrap();
    }

    #[test]
    fn migrating_to_a_bad_target_is_rejected_without_state_change() {
        let mut server = tiny_server(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let (session, request) = server.create_session(Vec::new()).unwrap();
        server.wait_for(request, Duration::from_secs(30)).unwrap();
        let home = server.route(session).unwrap();
        assert!(matches!(
            server.migrate(session, 99, Duration::from_secs(1)),
            Err(ServerError::Config(_))
        ));
        assert!(matches!(
            server.migrate(session, home, Duration::from_secs(1)),
            Err(ServerError::Config(_))
        ));
        assert_eq!(server.route(session).unwrap(), home);
    }
}
