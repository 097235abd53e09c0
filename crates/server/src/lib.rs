#![warn(missing_docs)]

//! # mpps-server — rule-engine-as-a-service over the match kernel
//!
//! The paper parallelizes *one* production system across processors. The
//! ROADMAP's serving direction transposes that: a long-running engine
//! compiles an OPS5 program **once** and multiplexes **many** independent
//! working-memory sessions (one per simulated user) over a pool of worker
//! threads. This crate is that serving layer:
//!
//! * [`Session`] — one user's working memory, conflict-set state and
//!   refraction memory over a fresh [`mpps_rete::ReteMatcher`] that shares
//!   the compiled network (`Arc<ReteNetwork>`) and program
//!   (`Arc<Program>`) with every other session.
//! * [`Server`] — the worker pool. A new session is pinned to the worker
//!   with the fewest live sessions for its lifetime (sessions are
//!   unit-weight, so admission is all the balancing there is to do, and
//!   ownership never moves). Each worker has a **bounded**
//!   submission queue: when a worker's queue is full, [`Server::submit`]
//!   returns [`ServerError::Overloaded`] immediately instead of buffering
//!   without bound — backpressure is part of the API, not an afterthought.
//! * [`snapshot`] — a versioned byte codec for session state
//!   ([`Session::snapshot`] / [`Server::restore`]): working memory,
//!   pending changes, refraction keys and outputs round-trip to bytes and
//!   restore onto a *fresh* server, where the matcher is rebuilt by
//!   replaying the matcher-visible WM (matchers are pure folds over
//!   change batches — the equivalence the differential fuzzer pins down).
//! * [`drive`] — the drivers behind `mpps serve`: a synthetic
//!   many-session load generator (ticket-triage rounds from
//!   `mpps_workloads::serve`) and a line-oriented script interpreter for
//!   deterministic smoke tests.
//!
//! Worker load is observable through the [`mpps_telemetry::MetricsRegistry`]
//! machinery: per-worker request/cycle/WME-change counters, high-water
//! queue-depth gauges and exact latency histograms, merged across workers
//! by [`Server::metrics`].

pub mod drive;
pub mod server;
pub mod session;
pub mod slab;
pub mod snapshot;
mod store;

pub use drive::{run_script, run_synthetic, ScriptReport, SyntheticReport, SyntheticSpec};
pub use server::{Reply, RequestId, Server, ServerConfig};
pub use session::{Session, SessionId};
pub use slab::{RouteError, RouteSlab};
pub use snapshot::{program_fingerprint, SnapshotError, SNAPSHOT_VERSION};

use std::fmt;

/// Errors surfaced by the serving layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServerError {
    /// The target worker's submission queue is at capacity. The request
    /// was **not** enqueued; retry after draining completions.
    Overloaded {
        /// Session whose submission was rejected.
        session: SessionId,
        /// Worker the session is pinned to.
        worker: usize,
        /// The configured per-worker queue capacity.
        capacity: usize,
    },
    /// The session id is not live on this server (never created, or
    /// already destroyed and its slot not yet reused).
    UnknownSession(SessionId),
    /// The session id is from a previous generation of its slab slot —
    /// the handle was kept past `destroy` and the slot has moved on.
    StaleSession(SessionId),
    /// The server was constructed with a degenerate configuration
    /// (zero workers or queue capacity).
    Config(String),
    /// A worker thread has shut down or disconnected.
    Shutdown,
    /// A snapshot failed to decode (see [`SnapshotError`]).
    Snapshot(SnapshotError),
    /// A timed wait elapsed before the awaited reply arrived.
    Timeout,
    /// A script driver line could not be parsed or referenced an unknown
    /// session name.
    Script(String),
    /// The underlying interpreter/matcher reported an error (stringified
    /// for transport across the worker channel).
    Engine(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Overloaded {
                session,
                worker,
                capacity,
            } => write!(
                f,
                "worker {worker} queue full (capacity {capacity}): submission for {session} rejected"
            ),
            ServerError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServerError::StaleSession(id) => write!(
                f,
                "stale session handle {id}: the session was destroyed and its slot reused"
            ),
            ServerError::Config(msg) => write!(f, "config: {msg}"),
            ServerError::Shutdown => write!(f, "server worker has shut down"),
            ServerError::Snapshot(e) => write!(f, "snapshot: {e}"),
            ServerError::Timeout => write!(f, "timed out waiting for a reply"),
            ServerError::Script(msg) => write!(f, "script: {msg}"),
            ServerError::Engine(msg) => write!(f, "engine: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<SnapshotError> for ServerError {
    fn from(e: SnapshotError) -> Self {
        ServerError::Snapshot(e)
    }
}
