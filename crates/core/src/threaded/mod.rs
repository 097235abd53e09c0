//! A real multi-threaded message-passing executor for the mapping.
//!
//! This is the "actual implementation" counterpart of the paper's
//! simulation: every match processor is an OS thread owning a partition of
//! the hash-index range, and tokens move between threads as
//! crossbeam-channel messages. The match semantics are the shared
//! [`mpps_rete::kernel`], so a token is processed by exactly the processor
//! that owns its destination bucket — the distributed hash table of §3.
//!
//! **Nothing shared but channels.** As on the paper's machine (§3.2),
//! every node has only its own memory. Each worker matches over a
//! full-size [`mpps_rete::GlobalMemories`] of its own, the sequential
//! engine's type, and touches only the buckets it owns, so the union of
//! the owned buckets is exactly the two global tables of §3. Workers keep
//! private [`mpps_rete::TokenArena`]s; a token crossing to another worker
//! travels as a self-contained [`FlatToken`] and is re-interned by the
//! receiving arena. A worker's only output is messages: the coordinator
//! owns the conflict set, every [`WorkerStats`] total and the cycle's
//! in-flight count.
//!
//! **Bucket ownership.** Ownership is an arbitrary [`Partition`] (round
//! robin, seeded random, or the §5.2.2 offline greedy), shared verbatim
//! with the trace-driven simulator, so the distribution experiments run on
//! real threads. [`ThreadedMatcher::with_partition`] takes any partition;
//! [`ThreadedMatcher::new`] defaults to round robin. Only workers decide
//! ownership, and only through the partition, which is fixed at spawn.
//!
//! **Broadcast roots.** As in §3.2 and the simulator
//! ([`crate::simexec`]), the coordinator sends each worker the cycle's
//! change packet, one shared copy. Every worker runs all the constant tests and keeps the root
//! activations whose bucket it owns; the owner of bucket 0 completes
//! single-CE productions. Roots then take the same path as the kernel's
//! own output: an owned bucket's work stays local, a peer's left token is
//! forwarded to it.
//!
//! **Termination detection.** The paper explicitly deferred this ("we do
//! not simulate termination detection … the subject of future work"). A
//! real executor cannot: the coordinator must know when a cycle's token
//! cascade has drained. After draining the packet or a peer batch, a
//! worker sends the coordinator one `Drained` report: the drain's
//! instantiations, its statistics deltas, and the number of peer batches it
//! is about to send. The coordinator's in-flight count starts at the number
//! of workers (one packet each); each report does −1 + its batch count, and
//! the cycle is over at zero.
//! The report is sent *before* the batches it counts, and all replies share
//! one channel, so a peer's report can never overtake the report that
//! announced its batch. The simulator prices this detector as
//! [`crate::simexec::TerminationModel::Reports`], at its granularity of
//! one message per routed token rather than one per peer batch.
//!
//! **Failure model.** A worker thread that panics never sends its report,
//! so the in-flight count would never reach zero; the coordinator
//! therefore waits with a timeout and polls its [`JoinHandle`]s, turning a
//! dead worker into a typed [`MatchError::WorkerPanicked`] from
//! [`Matcher::try_process`] within bounded time (the blanket
//! [`Matcher::process`] panics with the same context instead of hanging).
//! Once a worker has died the matcher is poisoned: every later cycle
//! reports the same error, and drop still shuts the survivors down
//! cleanly.
//!
//! **Retraction ordering.** The coordinator keeps the conflict set in an
//! [`mpps_ops::ConflictSet`]: *signed counts* per instantiation key.
//! Token cascades for the same key race across workers, so a `Sign::Minus`
//! may reach the coordinator before the matching `Sign::Plus`; the count
//! simply goes transiently negative and the entry is dropped when it
//! settles back at zero. Only entries with a positive count are visible to
//! [`Matcher::select`] and [`Matcher::conflict_set`].

use crate::partition::Partition;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mpps_ops::{
    ConflictSet, Instantiation, MatchError, Matcher, OpsError, Program, Sign, Strategy, WmeChange,
};
use mpps_rete::kernel;
use mpps_rete::{FlatToken, NodeId, ReteNetwork};
use mpps_telemetry::recorder::THREADED_PID;
use mpps_telemetry::{MetricSink, MetricsRegistry, NullMetrics, Recorder, TraceRecorder, Track};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(test)]
mod tests;
mod worker;

use worker::Worker;

/// How often the blocked coordinator checks worker liveness. Bounds the
/// time between a worker dying and `try_process` returning an error.
const LIVENESS_POLL: Duration = Duration::from_millis(20);

/// Metric names emitted by the threaded executor's profiling hooks, on
/// top of the kernel's `node.*`/`bucket.*`/`arena.*`/`cycle.*` series
/// (see [`mpps_rete::kernel::metric`]).
pub mod metric {
    /// Activations executed per drain (histogram, one sample per worker
    /// drain) — the live per-drain skew lane.
    pub const DRAIN_ACTIVATIONS: &str = "drain.activations";
    /// Tokens forwarded to each peer, keyed by receiving worker index.
    pub const PEER_FORWARDED: &str = "peer.forwarded";
    /// Cumulative match-work nanoseconds, keyed by worker index.
    pub const WORKER_WORK_NS: &str = "worker.work-ns";
    /// Cumulative barrier-wait nanoseconds (cycle wall minus this
    /// worker's match work), keyed by worker index.
    pub const WORKER_WAIT_NS: &str = "worker.wait-ns";
}

/// A left token forwarded to the worker that owns its bucket: the
/// arena-agnostic form of a `Work::Left`, re-interned by the receiver.
struct WireWork {
    node: NodeId,
    sign: Sign,
    flat: FlatToken,
    key_hash: u64,
}

enum ToWorker {
    /// The cycle's change packet, broadcast by the coordinator: run the
    /// constant tests, keep the owned roots, drain, then report.
    Changes(Arc<[WmeChange]>),
    /// Left tokens forwarded by a peer: drained to completion, then
    /// reported.
    Work(Vec<WireWork>),
    /// Ask the worker to export its metrics registry (between cycles).
    Report,
    Shutdown,
    /// Test-only: make the receiving worker panic on its *next* message,
    /// simulating a crash inside the match kernel. Arming the trap rather
    /// than springing it lets a test choose which request the worker dies
    /// on, with that request's send guaranteed to have succeeded.
    #[cfg(test)]
    Poison,
}

enum ToCoordinator {
    /// Everything one drain produced: its instantiations in
    /// generation order and its [`WorkerStats`] deltas. `stats.messages_sent`
    /// is the number of peer batches the worker sends right after this
    /// report, so the coordinator's in-flight count does −1 + that.
    Drained {
        worker: usize,
        prods: Vec<(Sign, Instantiation)>,
        stats: WorkerStats,
    },
    /// Reply to [`ToWorker::Report`]: the worker's exported metrics.
    Metrics { registry: Box<MetricsRegistry> },
}

/// One worker's activity: per drain in its report, summed per worker by
/// the coordinator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerStats {
    /// Activations executed on this worker.
    pub tokens_processed: u64,
    /// Left tokens handed to another worker.
    pub tokens_forwarded: u64,
    /// Cross-thread `Work` messages sent (coalesced per peer per drain).
    pub messages_sent: u64,
    /// Peak local work-queue depth observed.
    pub max_queue_depth: u64,
    /// Left-table entries examined by probes on this worker's buckets.
    pub left_probes: u64,
    /// Right-table entries examined by probes on this worker's buckets.
    pub right_probes: u64,
    /// Nanoseconds spent draining the local work queue (zero unless the
    /// matcher was spawned profiled).
    pub work_ns: u64,
}

impl WorkerStats {
    const ZERO: WorkerStats = WorkerStats {
        tokens_processed: 0,
        tokens_forwarded: 0,
        messages_sent: 0,
        max_queue_depth: 0,
        left_probes: 0,
        right_probes: 0,
        work_ns: 0,
    };

    /// Fold one drain's report into the running totals: counts add, the
    /// queue-depth peak takes the max.
    fn absorb(&mut self, drain: &WorkerStats) {
        self.tokens_processed += drain.tokens_processed;
        self.tokens_forwarded += drain.tokens_forwarded;
        self.messages_sent += drain.messages_sent;
        self.max_queue_depth = self.max_queue_depth.max(drain.max_queue_depth);
        self.left_probes += drain.left_probes;
        self.right_probes += drain.right_probes;
        self.work_ns += drain.work_ns;
    }
}

/// Executor-wide activity snapshot (see [`ThreadedMatcher::stats`]).
#[derive(Clone, Debug)]
pub struct ThreadedStats {
    /// One entry per worker thread, in worker order.
    pub per_worker: Vec<WorkerStats>,
    /// Match cycles executed so far.
    pub cycles: u64,
    /// Instantiations currently live in the conflict set.
    pub conflict_entries: usize,
}

/// The distributed hash-table matcher running on real threads.
pub struct ThreadedMatcher {
    workers: Vec<Sender<ToWorker>>,
    from_workers: Receiver<ToCoordinator>,
    conflict: ConflictSet,
    handles: Vec<JoinHandle<()>>,
    /// Per-worker totals, summed from the drain reports.
    stats: Vec<WorkerStats>,
    cycles: u64,
    /// First worker observed dead; poisons every later cycle.
    failed: Option<usize>,
    /// Workers were spawned with live metrics (`Worker<MetricsRegistry>`).
    profiled: bool,
    /// Coordinator-side record on the named worker lanes: every profiled
    /// cycle's wall/work/wait series and `match-work` / `barrier-wait`
    /// spans (see [`record_cycle`]).
    trace: TraceRecorder,
    /// Where the next cycle starts on `trace`'s synthetic timeline.
    trace_end_ns: u64,
}

/// Lay one finished cycle onto `rec` at `t`: each worker lane
/// ([`Track::match_worker`]) gets a `match-work` span followed by a
/// `barrier-wait` span filling the rest of the cycle's wall time, and the
/// per-cycle phase series get their samples. Cycles sit end to end on a
/// synthetic timeline starting at 0; returns where the next one starts.
/// Every drain of a cycle is reported inside it, so a worker's work never
/// exceeds the wall time and the lanes never overlap.
fn record_cycle(rec: &mut TraceRecorder, t: u64, wall_ns: u64, work_ns: &[u64]) -> u64 {
    for (w, &work) in work_ns.iter().enumerate() {
        let wait = wall_ns.saturating_sub(work);
        rec.observe(kernel::metric::CYCLE_WORK_NS, work);
        rec.observe(kernel::metric::CYCLE_WAIT_NS, wait);
        rec.add(metric::WORKER_WORK_NS, w as u64, work);
        rec.add(metric::WORKER_WAIT_NS, w as u64, wait);
        let track = Track::match_worker(w);
        let split = t + work;
        rec.span(track, "match-work", t, split);
        if wait > 0 {
            rec.span(track, "barrier-wait", split, t + wall_ns);
        }
    }
    rec.observe(kernel::metric::CYCLE_WALL_NS, wall_ns);
    t + wall_ns.max(1)
}

impl ThreadedMatcher {
    /// Spawn `workers` match-processor threads for a compiled network with
    /// `table_size` hash buckets (buckets are assigned round-robin).
    pub fn new(network: ReteNetwork, workers: usize, table_size: u64) -> Self {
        Self::with_partition(network, Partition::round_robin(table_size, workers))
    }

    /// Spawn one match-processor thread per partition processor, with
    /// bucket ownership taken verbatim from `partition` — the same
    /// strategies (round robin / random / offline greedy) the simulator
    /// sweeps in §5.2.2, on real threads. Each worker holds a full-size
    /// table pair and touches only the buckets the partition gives it.
    pub fn with_partition(network: ReteNetwork, partition: Partition) -> Self {
        Self::build(network, partition, false)
    }

    /// Like [`ThreadedMatcher::new`], but every worker carries a live
    /// [`MetricsRegistry`] feeding [`ThreadedMatcher::profile_snapshot`].
    pub fn new_profiled(network: ReteNetwork, workers: usize, table_size: u64) -> Self {
        Self::with_partition_profiled(network, Partition::round_robin(table_size, workers))
    }

    /// Like [`ThreadedMatcher::with_partition`], but with live metrics:
    /// workers are monomorphized over [`MetricsRegistry`] instead of
    /// [`NullMetrics`], recording per-node/per-bucket kernel series plus
    /// per-drain skew lanes, and the coordinator times every cycle's
    /// barrier-wait vs match-work split.
    pub fn with_partition_profiled(network: ReteNetwork, partition: Partition) -> Self {
        Self::build(network, partition, true)
    }

    fn build(network: ReteNetwork, partition: Partition, profiled: bool) -> Self {
        assert!(partition.table_size() > 0, "need at least one bucket");
        let workers = partition.processors();
        let network = Arc::new(network);
        let partition = Arc::new(partition);
        let (to_coord, from_workers) = unbounded();
        let channels: Vec<(Sender<ToWorker>, Receiver<ToWorker>)> =
            (0..workers).map(|_| unbounded()).collect();
        let senders: Vec<Sender<ToWorker>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let spawn_worker = |me: usize, rx: Receiver<ToWorker>| {
            let wiring = (
                network.clone(),
                partition.clone(),
                senders.clone(),
                to_coord.clone(),
            );
            // The worker's metric sink is a *type* (zero-cost when
            // disabled), so the flag picks which monomorphization to spawn.
            if profiled {
                Worker::spawn(me, MetricsRegistry::new(), rx, wiring)
            } else {
                Worker::spawn(me, NullMetrics, rx, wiring)
            }
        };
        let handles = channels
            .into_iter()
            .enumerate()
            .map(|(me, (_, rx))| spawn_worker(me, rx))
            .collect();
        let mut trace = TraceRecorder::new();
        trace.name_process(THREADED_PID, "threaded matcher");
        for w in 0..workers {
            trace.name_track(Track::match_worker(w), format!("match thread {w}"));
        }
        ThreadedMatcher {
            workers: senders,
            from_workers,
            conflict: ConflictSet::default(),
            handles,
            stats: vec![WorkerStats::ZERO; workers],
            cycles: 0,
            failed: None,
            profiled,
            trace,
            trace_end_ns: 0,
        }
    }

    /// Compile `program` and spawn an executor with default table size.
    pub fn from_program(program: &Program, workers: usize) -> Result<Self, OpsError> {
        Ok(Self::new(ReteNetwork::compile(program)?, workers, 2048))
    }

    /// Profiled variant of [`ThreadedMatcher::from_program`].
    pub fn from_program_profiled(program: &Program, workers: usize) -> Result<Self, OpsError> {
        Ok(Self::new_profiled(
            ReteNetwork::compile(program)?,
            workers,
            2048,
        ))
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of per-worker and coordinator activity since spawn.
    pub fn stats(&self) -> ThreadedStats {
        ThreadedStats {
            per_worker: self.stats.clone(),
            cycles: self.cycles,
            conflict_entries: self.conflict.len(),
        }
    }

    /// The executor's whole trace as one recorder — the real
    /// counterpart of the simulated machine's per-processor tracks: one
    /// named lane per worker ([`Track::match_worker`]) carrying its final
    /// [`ThreadedStats`] counter values, the same values as cross-worker
    /// `threaded.*` histograms (per-worker probe counts are the skew of the
    /// partitioned tables), and, on a profiled matcher, every cycle's
    /// `match-work` / `barrier-wait` spans and phase series.
    pub fn export_trace(&self) -> TraceRecorder {
        let mut rec = self.trace.clone();
        let stats = self.stats();
        for (i, w) in stats.per_worker.iter().enumerate() {
            let track = Track::match_worker(i);
            rec.counter(track, "tokens-processed", 0, w.tokens_processed);
            rec.counter(track, "tokens-forwarded", 0, w.tokens_forwarded);
            rec.counter(track, "messages-sent", 0, w.messages_sent);
            rec.counter(track, "queue-depth-max", 0, w.max_queue_depth);
            rec.counter(track, "left-probes", 0, w.left_probes);
            rec.counter(track, "right-probes", 0, w.right_probes);
            rec.counter(track, "work-ns", 0, w.work_ns);
            rec.observe("threaded.tokens-processed", w.tokens_processed);
            rec.observe("threaded.tokens-forwarded", w.tokens_forwarded);
            rec.observe("threaded.messages-sent", w.messages_sent);
            rec.observe("threaded.queue-depth-max", w.max_queue_depth);
            rec.observe("threaded.left-probes", w.left_probes);
            rec.observe("threaded.right-probes", w.right_probes);
            rec.observe("threaded.work-ns", w.work_ns);
        }
        rec.observe("threaded.conflict-set-size", stats.conflict_entries as u64);
        rec.observe("threaded.cycles", stats.cycles);
        rec
    }

    /// Collect one merged [`MetricsRegistry`] across every worker plus the
    /// coordinator's per-cycle series. Must be called *between* cycles
    /// (quiescent); each worker is asked to export its registry and the
    /// replies are merged. On an unprofiled matcher this returns the
    /// (empty) coordinator registry without touching the workers.
    pub fn profile_snapshot(&mut self) -> Result<MetricsRegistry, MatchError> {
        let mut merged = self.trace.registry().clone();
        if !self.profiled {
            return Ok(merged);
        }
        if let Some(worker) = self.failed {
            return Err(MatchError::WorkerPanicked { worker });
        }
        self.broadcast(|| ToWorker::Report)?;
        let mut replies = 0;
        self.wait_for_workers(|this, reply| {
            let ToCoordinator::Metrics { registry } = reply else {
                unreachable!("between cycles only the solicited replies arrive")
            };
            merged.merge(&registry);
            replies += 1;
            replies == this.workers.len()
        })?;
        Ok(merged)
    }

    /// Returns the first dead (panicked) worker, if any, and poisons the
    /// matcher. A worker only exits early when it — or a thread it talks
    /// to — has panicked mid-cycle.
    fn dead_worker(&mut self) -> Option<usize> {
        if self.failed.is_some() {
            return self.failed;
        }
        let dead = self.handles.iter().position(JoinHandle::is_finished);
        if dead.is_some() {
            self.failed = dead;
        }
        dead
    }

    /// Send every worker the message `msg` builds. A closed channel means
    /// that worker died: the matcher is poisoned and the error returned.
    fn broadcast(&mut self, msg: impl Fn() -> ToWorker) -> Result<(), MatchError> {
        for (w, tx) in self.workers.iter().enumerate() {
            if tx.send(msg()).is_err() {
                self.failed = Some(w);
                return Err(MatchError::WorkerPanicked { worker: w });
            }
        }
        Ok(())
    }

    /// The fallible cycle driver behind both `Matcher::process` and
    /// `Matcher::try_process`. As in §3.2, the control processor broadcasts
    /// the cycle's changes in one packet; every worker runs the constant
    /// tests and keeps the roots it owns. The coordinator then folds drain
    /// reports until no batch is in flight. When profiled, each worker's
    /// barrier-wait share is `cycle wall − that worker's reported drain
    /// time`. Every drain of a cycle starts after the packet is sent and is
    /// reported before the cycle ends, so the split is exact.
    fn process_cycle(&mut self, changes: &[WmeChange]) -> Result<(), MatchError> {
        if let Some(worker) = self.failed {
            return Err(MatchError::WorkerPanicked { worker });
        }
        self.cycles += 1;
        let t0 = self.profiled.then(std::time::Instant::now);
        let mut in_flight = 0usize;
        if !changes.is_empty() {
            let packet: Arc<[WmeChange]> = changes.into();
            self.broadcast(|| ToWorker::Changes(packet.clone()))?;
            in_flight = self.workers.len();
        }
        let mut work_ns = vec![0u64; self.workers.len()];
        if in_flight > 0 {
            self.wait_for_workers(|this, reply| {
                let ToCoordinator::Drained {
                    worker,
                    prods,
                    stats,
                } = reply
                else {
                    unreachable!("between-cycle replies are consumed by their own wait")
                };
                for (sign, inst) in prods {
                    this.conflict.update(sign, inst);
                }
                this.stats[worker].absorb(&stats);
                work_ns[worker] += stats.work_ns;
                in_flight = in_flight + stats.messages_sent as usize - 1;
                in_flight == 0
            })?;
        }
        if let Some(t0) = t0 {
            let wall_ns = t0.elapsed().as_nanos() as u64;
            self.trace_end_ns = record_cycle(&mut self.trace, self.trace_end_ns, wall_ns, &work_ns);
        }
        Ok(())
    }

    /// The one place the coordinator blocks on its workers: hands every
    /// reply to `on_reply` until it returns `true`. Waits with a timeout
    /// and polls the [`JoinHandle`]s, so a worker that died (and so never
    /// sends the reply being waited for) surfaces as a typed error in
    /// bounded time instead of a hang.
    fn wait_for_workers(
        &mut self,
        mut on_reply: impl FnMut(&mut Self, ToCoordinator) -> bool,
    ) -> Result<(), MatchError> {
        loop {
            let reply = match self.from_workers.recv_timeout(LIVENESS_POLL) {
                Ok(reply) => reply,
                Err(RecvTimeoutError::Timeout) => match self.dead_worker() {
                    Some(worker) => return Err(MatchError::WorkerPanicked { worker }),
                    None => continue,
                },
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(match self.dead_worker() {
                        Some(worker) => MatchError::WorkerPanicked { worker },
                        None => MatchError::Disconnected,
                    });
                }
            };
            if on_reply(self, reply) {
                return Ok(());
            }
        }
    }

    /// Test hook: arm worker `worker` to panic on the message after this
    /// one, simulating a crash inside the match kernel.
    #[cfg(test)]
    fn poison_worker(&self, worker: usize) {
        let _ = self.workers[worker].send(ToWorker::Poison);
    }
}

impl Matcher for ThreadedMatcher {
    fn process(&mut self, changes: &[WmeChange]) {
        if let Err(e) = self.process_cycle(changes) {
            panic!("ThreadedMatcher::process: {e}");
        }
    }

    fn try_process(&mut self, changes: &[WmeChange]) -> Result<(), MatchError> {
        self.process_cycle(changes)
    }

    fn conflict_set(&self) -> Vec<Instantiation> {
        self.conflict.sorted()
    }

    fn select(
        &self,
        program: &Program,
        strategy: Strategy,
        refracted: &dyn Fn(&Instantiation) -> bool,
    ) -> Option<Instantiation> {
        self.conflict.select(program, strategy, refracted).cloned()
    }
}

impl Drop for ThreadedMatcher {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.send(ToWorker::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}
