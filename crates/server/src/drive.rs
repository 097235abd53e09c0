//! Drivers behind `mpps serve`: a synthetic many-session load generator
//! and a deterministic line-oriented script interpreter. A script is
//! client text, so the module denies `unwrap`, `expect` and `panic!`
//! outside tests.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::server::{Reply, Server, ServerConfig};
use crate::session::SessionId;
use crate::ServerError;
use mpps_ops::{parse_wme, Program};
use mpps_telemetry::MetricsRegistry;
use mpps_workloads::serve as workload;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How long a healthy worker may take to answer one request before the
/// drivers declare the pool wedged.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Shape of a synthetic load run.
#[derive(Clone, Copy, Debug)]
pub struct SyntheticSpec {
    /// Concurrent sessions to admit.
    pub sessions: usize,
    /// Ingestion rounds per session.
    pub rounds: u64,
    /// Request WMEs per round per session.
    pub wmes_per_round: usize,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            sessions: 1000,
            rounds: 3,
            wmes_per_round: 4,
        }
    }
}

/// What a synthetic run measured.
#[derive(Clone, Debug)]
pub struct SyntheticReport {
    /// Sessions admitted.
    pub sessions: usize,
    /// Rounds ingested per session.
    pub rounds: u64,
    /// Total requests answered (creations + ingestion batches).
    pub replies: u64,
    /// Requests that came back `Failed`.
    pub failures: u64,
    /// Total WME changes the matchers processed.
    pub wme_changes: u64,
    /// Total MRA cycles executed.
    pub cycles: u64,
    /// Total production firings.
    pub fired: u64,
    /// Submissions rejected with `Overloaded` (each was retried).
    pub overloads: u64,
    /// Sessions snapshotted to disk by the resident-budget sweep (plus
    /// any forced evictions).
    pub evictions: u64,
    /// Evicted sessions transparently faulted back in on their next
    /// request.
    pub faultins: u64,
    /// The per-worker resident budget the run was under (`None` = all
    /// resident).
    pub resident_budget: Option<usize>,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Sustained WME changes per second over the run.
    pub changes_per_sec: f64,
    /// Sustained MRA cycles per second over the run.
    pub cycles_per_sec: f64,
    /// p50 of per-cycle latency on the workers, nanoseconds.
    pub p50_cycle_ns: u64,
    /// p95 of per-cycle latency on the workers, nanoseconds.
    pub p95_cycle_ns: u64,
    /// p95 of per-request (batch) latency on the workers, nanoseconds.
    pub p95_batch_ns: u64,
    /// Requests handled per worker (admission balance).
    pub worker_requests: Vec<u64>,
    /// High-water submission-queue depth per worker.
    pub worker_queue_high: Vec<u64>,
    /// The merged metrics registry (for trace/JSON export).
    pub metrics: MetricsRegistry,
}

/// Run the synthetic ticket-triage load: admit `spec.sessions` sessions
/// of [`mpps_workloads::serve`], ingest `spec.rounds` rounds into each,
/// and drain to completion. Backpressure is handled by draining replies
/// and retrying whenever a submission is rejected — so the run also
/// exercises the `Overloaded` path under real load.
pub fn run_synthetic(
    config: ServerConfig,
    spec: &SyntheticSpec,
) -> Result<SyntheticReport, ServerError> {
    let worker_count = config.workers;
    let resident_budget = config.resident_budget;
    let mut server = Server::new(workload::program(), config)?;
    let started = Instant::now();
    let mut tally = Tally::default();

    let mut ids = Vec::with_capacity(spec.sessions);
    for _ in 0..spec.sessions {
        let (id, _) = loop {
            match server.create_session(workload::initial()) {
                Ok(ok) => break ok,
                Err(ServerError::Overloaded { .. }) => {
                    let reply = server.recv_timeout(REPLY_TIMEOUT)?;
                    tally.absorb(&reply);
                }
                Err(e) => return Err(e),
            }
        };
        ids.push(id);
    }

    for round in 0..spec.rounds {
        for &id in &ids {
            let batch = workload::round(id.0, round, spec.wmes_per_round);
            loop {
                match server.submit(id, batch.clone()) {
                    Ok(_) => break,
                    Err(ServerError::Overloaded { .. }) => {
                        let reply = server.recv_timeout(REPLY_TIMEOUT)?;
                        tally.absorb(&reply);
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    server.drain(REPLY_TIMEOUT, |reply| tally.absorb(reply))?;
    let elapsed = started.elapsed();
    let overloads = server.overload_rejections();
    let metrics = server.metrics(REPLY_TIMEOUT)?;

    let secs = elapsed.as_secs_f64().max(1e-9);
    let quantile = |name: &str, q: f64| {
        metrics
            .histogram(name)
            .and_then(|h| h.quantile(q))
            .unwrap_or_default()
    };
    let per_worker = |name: &str| {
        let mut v = vec![0u64; worker_count];
        if let Some(series) = metrics.counter(name).or_else(|| metrics.gauge(name)) {
            for (&k, &n) in series {
                if let Some(slot) = v.get_mut(k as usize) {
                    *slot = n;
                }
            }
        }
        v
    };
    Ok(SyntheticReport {
        sessions: spec.sessions,
        rounds: spec.rounds,
        replies: tally.replies,
        failures: tally.failures,
        wme_changes: metrics.counter_total("serve.wme_changes"),
        cycles: metrics.counter_total("serve.cycles"),
        fired: metrics.counter_total("serve.fired"),
        overloads,
        evictions: metrics.counter_total("serve.evictions"),
        faultins: metrics.counter_total("serve.faultins"),
        resident_budget,
        elapsed,
        changes_per_sec: metrics.counter_total("serve.wme_changes") as f64 / secs,
        cycles_per_sec: metrics.counter_total("serve.cycles") as f64 / secs,
        p50_cycle_ns: quantile("serve.cycle_ns", 0.50),
        p95_cycle_ns: quantile("serve.cycle_ns", 0.95),
        p95_batch_ns: quantile("serve.batch_ns", 0.95),
        worker_requests: per_worker("serve.requests"),
        worker_queue_high: per_worker("serve.queue_depth"),
        metrics,
    })
}

#[derive(Default)]
struct Tally {
    replies: u64,
    failures: u64,
}

impl Tally {
    fn absorb(&mut self, reply: &Reply) {
        self.replies += 1;
        if matches!(reply, Reply::Failed { .. }) {
            self.failures += 1;
        }
    }
}

/// What a script run produced: one log line per command, in order.
#[derive(Clone, Debug)]
pub struct ScriptReport {
    /// Human-readable outcome of each script line.
    pub log: Vec<String>,
}

/// Run a line-oriented session script against a fresh server. Commands
/// (one per line, `#` starts a comment):
///
/// ```text
/// session <name>              create an empty session
/// make <name> (class ^a v …)  ingest one WME and settle
/// run <name>                  settle without new input
/// snapshot <name>             snapshot; bytes kept under <name>
/// restore <new> <from>        restore <from>'s last snapshot as <new>
/// destroy <name>              destroy the session
/// ```
///
/// `session` and `restore` refuse a name that is in use; `destroy` frees
/// it. Every command waits for its reply before the next line runs, so
/// output is deterministic — the CLI smoke tests diff it.
pub fn run_script(
    program: Program,
    script: &str,
    config: ServerConfig,
) -> Result<ScriptReport, ServerError> {
    let mut server = Server::new(program, config)?;
    let mut names: HashMap<String, SessionId> = HashMap::new();
    let mut snapshots: HashMap<String, Vec<u8>> = HashMap::new();
    let mut log = Vec::new();

    for (lineno, line) in script.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let bad = |msg: String| ServerError::Script(format!("line {}: {msg}", lineno + 1));
        let mut words = line.splitn(3, char::is_whitespace);
        let cmd = words.next().unwrap_or_default();
        let name = words
            .next()
            .ok_or_else(|| bad(format!("`{cmd}` needs a session name")))?
            .to_string();
        let rest = words.next().unwrap_or("").trim();
        let lookup = |names: &HashMap<String, SessionId>, n: &str| {
            names
                .get(n)
                .copied()
                .ok_or_else(|| bad(format!("unknown session `{n}`")))
        };
        // Rebinding a live name would orphan its session: still resident,
        // no longer reachable from the script.
        if matches!(cmd, "session" | "restore") && names.contains_key(&name) {
            return Err(bad(format!(
                "session `{name}` already exists; destroy it first"
            )));
        }
        match cmd {
            "session" => {
                let (id, request) = server.create_session(Vec::new())?;
                let reply = server.wait_for(request, REPLY_TIMEOUT)?;
                names.insert(name.clone(), id);
                log.push(match reply {
                    Reply::Ready { worker, .. } => {
                        format!("session {name} = {id} on worker {worker}")
                    }
                    other => format!("session {name}: unexpected {other:?}"),
                });
            }
            "make" | "run" => {
                let id = lookup(&names, &name)?;
                let wmes = if cmd == "make" {
                    vec![parse_wme(rest).map_err(|e| bad(format!("bad wme: {e}")))?]
                } else {
                    Vec::new()
                };
                let request = server.submit(id, wmes)?;
                match server.wait_for(request, REPLY_TIMEOUT)? {
                    Reply::Cycles {
                        fired,
                        cycles,
                        outcome,
                        ..
                    } => log.push(format!(
                        "{cmd} {name}: fired {fired} in {cycles} cycles ({outcome:?})"
                    )),
                    Reply::Failed { error, .. } => log.push(format!("{cmd} {name}: error {error}")),
                    other => log.push(format!("{cmd} {name}: unexpected {other:?}")),
                }
            }
            "snapshot" => {
                let id = lookup(&names, &name)?;
                let request = server.snapshot(id)?;
                match server.wait_for(request, REPLY_TIMEOUT)? {
                    Reply::SnapshotBytes { bytes, .. } => {
                        log.push(format!("snapshot {name}: {} bytes", bytes.len()));
                        snapshots.insert(name.clone(), bytes);
                    }
                    Reply::Failed { error, .. } => {
                        log.push(format!("snapshot {name}: error {error}"))
                    }
                    other => log.push(format!("snapshot {name}: unexpected {other:?}")),
                }
            }
            "restore" => {
                let from = rest;
                let bytes = snapshots
                    .get(from)
                    .ok_or_else(|| bad(format!("no snapshot named `{from}`")))?
                    .clone();
                let (id, request) = server.restore(bytes)?;
                match server.wait_for(request, REPLY_TIMEOUT)? {
                    Reply::Ready { worker, .. } => {
                        names.insert(name.clone(), id);
                        log.push(format!("restore {name} = {id} on worker {worker}"));
                    }
                    Reply::Failed { error, .. } => {
                        log.push(format!("restore {name}: error {error}"))
                    }
                    other => log.push(format!("restore {name}: unexpected {other:?}")),
                }
            }
            "destroy" => {
                let id = lookup(&names, &name)?;
                let request = server.destroy_session(id)?;
                match server.wait_for(request, REPLY_TIMEOUT)? {
                    Reply::Destroyed { .. } => {
                        names.remove(&name);
                        log.push(format!("destroy {name}: ok"));
                    }
                    Reply::Failed { error, .. } => {
                        log.push(format!("destroy {name}: error {error}"))
                    }
                    other => log.push(format!("destroy {name}: unexpected {other:?}")),
                }
            }
            _ => return Err(bad(format!("unknown command `{cmd}`"))),
        }
    }
    Ok(ScriptReport { log })
}
