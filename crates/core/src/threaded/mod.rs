//! A real multi-threaded message-passing executor for the mapping.
//!
//! This is the "actual implementation" counterpart of the paper's
//! simulation: every match processor is an OS thread owning a partition of
//! the hash-index range, and tokens move between threads as
//! crossbeam-channel messages. The match semantics are the shared
//! [`mpps_rete::kernel`], so a token is processed by exactly the processor
//! that owns its destination bucket — the distributed hash table of §3.
//!
//! **Sharded two-global-hash-tables.** The two global tables (§3: one for
//! all left memories, one for all right memories) are physically sharded:
//! each worker materializes only the bucket pairs its partition owns, as a
//! [`ShardedMemories`] indexed through a process-wide slot map. Workers
//! keep private [`mpps_rete::TokenArena`]s; a token crossing a shard
//! boundary travels as a self-contained [`FlatToken`] and is re-interned
//! by the receiving arena.
//!
//! **Bucket ownership.** Ownership is an arbitrary [`Partition`] (round
//! robin, seeded random, or the §5.2.2 offline greedy), shared verbatim
//! with the trace-driven simulator, so the distribution experiments run on
//! real threads. [`ThreadedMatcher::with_partition`] takes any partition;
//! [`ThreadedMatcher::new`] defaults to round robin.
//!
//! **Termination detection.** The paper explicitly deferred this ("we do
//! not simulate termination detection … the subject of future work"). A
//! real executor cannot: the coordinator must know when a cycle's token
//! cascade has drained. We use an atomic outstanding-work counter with the
//! Dijkstra-style invariant *increment before send, decrement after
//! processing*, which makes zero a stable state that can only be observed
//! when no work exists anywhere. A fully message-based detector would be
//! Safra's algorithm (Dijkstra, EWD 998); the simulator prices one as
//! [`crate::simexec::TerminationModel::RingToken`].
//!
//! **Failure model.** A worker thread that panics can never decrement the
//! counter, so quiescence would never be observed; the coordinator
//! therefore waits with a timeout and polls its [`JoinHandle`]s, turning a
//! dead worker into a typed [`MatchError::WorkerPanicked`] from
//! [`Matcher::try_process`] within bounded time (the blanket
//! [`Matcher::process`] panics with the same context instead of hanging).
//! Once a worker has died the matcher is poisoned: every later cycle
//! reports the same error, and drop still shuts the survivors down
//! cleanly.
//!
//! **Retraction ordering.** The conflict set is kept as *signed counts*
//! per instantiation key. Token cascades for the same key race across
//! workers, so a `Sign::Minus` may reach the coordinator before the
//! matching `Sign::Plus`; the count simply goes transiently negative and
//! the entry is dropped when it settles back at zero. Only entries with a
//! positive count are visible in [`Matcher::conflict_set`].

use crate::partition::Partition;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use mpps_ops::{
    Instantiation, MatchError, Matcher, OpsError, ProductionId, Program, Sign, Value, Wme,
    WmeChange, WmeId,
};
use mpps_rete::kernel::{self, RootWork};
use mpps_rete::{FlatToken, NodeId, ReteNetwork, ShardedMemories};
use mpps_telemetry::recorder::THREADED_PID;
use mpps_telemetry::{MetricSink, MetricsRegistry, NullMetrics, Recorder, TraceRecorder, Track};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

mod adapt;
#[cfg(test)]
mod tests;
mod worker;

use adapt::AdaptState;
pub use adapt::{AdaptOptions, RebalanceEvent};
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

/// Cross-thread work: arena-agnostic form of [`Work`]. Tokens travel as
/// seed values or [`FlatToken`]s and are adopted into the receiving
/// worker's private arena.
enum WireWork {
    /// A root activation routed by the coordinator ([`RootWork::Right`]
    /// or [`RootWork::Seed`]; `Prod` roots complete at the coordinator).
    Root(RootWork),
    Left {
        node: NodeId,
        sign: Sign,
        flat: FlatToken,
        key_hash: u64,
    },
}

/// A stored memory entry crossing a shard boundary during a barrier-time
/// bucket migration. Left tokens travel flat (self-contained value chain)
/// and are re-interned by the adopting worker's arena; the stored
/// `neg_count` moves verbatim because the right bucket it was derived from
/// migrates in the same batch.
enum MigratedEntry {
    Left {
        node: NodeId,
        key_hash: u64,
        flat: FlatToken,
        neg_count: u32,
    },
    Right {
        node: NodeId,
        key_hash: u64,
        wme_id: WmeId,
        wme: Arc<Wme>,
    },
}

enum ToWorker {
    Work(Vec<WireWork>),
    /// Ask the worker to export its metrics registry (between cycles).
    Report,
    /// Rebind bucket ownership (between cycles): swap in the new partition
    /// and shard layout, keep still-owned buckets in place, and export the
    /// lost buckets' entries to the coordinator for rerouting.
    Migrate {
        partition: Arc<Partition>,
        slot_of: Arc<Vec<u32>>,
        shard_len: usize,
    },
    /// Entries migrated from other workers' shards, to be interned into
    /// this worker's (already rebuilt) shard. Channel FIFO guarantees this
    /// lands after the worker's own `Migrate` and before any later `Work`.
    Adopt(Vec<MigratedEntry>),
    Shutdown,
    /// Test-only: make the receiving worker panic on its *next* message,
    /// simulating a crash inside the match kernel. Arming the trap rather
    /// than springing it lets a test choose which request the worker dies
    /// on, with that request's send guaranteed to have succeeded.
    #[cfg(test)]
    Poison,
}

enum ToCoordinator {
    Prod {
        sign: Sign,
        inst: Instantiation,
    },
    Quiescent,
    /// Reply to [`ToWorker::Report`]: the worker's exported metrics.
    Metrics {
        registry: Box<MetricsRegistry>,
    },
    /// Reply to [`ToWorker::Migrate`]: entries this worker no longer owns,
    /// grouped by new owner. Routed through the coordinator — collecting
    /// every reply before dispatching `Adopt` batches is the barrier that
    /// keeps an export from racing ahead of its new owner's own `Migrate`.
    Migrated {
        exports: Vec<(usize, Vec<MigratedEntry>)>,
    },
}

/// Monotonic per-worker activity counters, shared with the coordinator.
#[derive(Debug, Default)]
struct WorkerCounters {
    /// Activations executed on this worker.
    tokens_processed: AtomicU64,
    /// Left tokens handed to *another* worker.
    tokens_forwarded: AtomicU64,
    /// Cross-thread `Work` messages actually sent (≤ tokens forwarded,
    /// thanks to per-peer coalescing).
    messages_sent: AtomicU64,
    /// Instantiations reported to the coordinator.
    instantiations_sent: AtomicU64,
    /// Peak local work-queue depth observed.
    max_queue_depth: AtomicU64,
    /// Left-table entries examined by probes on this worker's shard.
    left_probes: AtomicU64,
    /// Right-table entries examined by probes on this worker's shard.
    right_probes: AtomicU64,
    /// Nanoseconds spent draining the local work queue (profiled runs
    /// only; stays zero under `NullMetrics`).
    work_ns: AtomicU64,
}

/// Snapshot of one worker's [`WorkerCounters`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerStats {
    /// Activations executed on this worker.
    pub tokens_processed: u64,
    /// Left tokens handed to another worker.
    pub tokens_forwarded: u64,
    /// Cross-thread `Work` messages sent (coalesced per peer per drain).
    pub messages_sent: u64,
    /// Instantiations reported to the coordinator.
    pub instantiations_sent: u64,
    /// Peak local work-queue depth observed.
    pub max_queue_depth: u64,
    /// Left-table entries examined by probes on this worker's shard.
    pub left_probes: u64,
    /// Right-table entries examined by probes on this worker's shard.
    pub right_probes: u64,
    /// Nanoseconds spent draining the local work queue (zero unless the
    /// matcher was spawned profiled).
    pub work_ns: u64,
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

/// What a barrier-time migration moved (see [`ThreadedMatcher::migrate_to`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Buckets whose owner changed.
    pub moved_buckets: u64,
    /// Left (beta-token) entries shipped between shards.
    pub moved_left: u64,
    /// Right (WME) entries shipped between shards.
    pub moved_right: u64,
}

/// The distributed hash-table matcher running on real threads.
pub struct ThreadedMatcher {
    network: Arc<ReteNetwork>,
    partition: Arc<Partition>,
    table_size: u64,
    workers: Vec<Sender<ToWorker>>,
    from_workers: Receiver<ToCoordinator>,
    outstanding: Arc<AtomicI64>,
    conflict: BTreeMap<Instantiation, i64>,
    handles: Vec<JoinHandle<()>>,
    counters: Vec<Arc<WorkerCounters>>,
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
    /// Online repartitioner state (profiled matchers only).
    adapt: Option<AdaptState>,
}

/// Lay one finished cycle onto `rec` at `t`: each worker lane
/// ([`Track::match_worker`]) gets a `match-work` span followed by a
/// `barrier-wait` span filling the rest of the cycle's wall time, and the
/// per-cycle phase series get their samples. Cycles sit end to end on a
/// synthetic timeline starting at 0; returns where the next one starts.
///
/// A drain time a worker published late is credited to the *next* cycle
/// (see [`Worker::run`]), so one cycle's `work_ns` can exceed its wall
/// time: the drawn span is clamped to the cycle so that lanes never
/// overlap, while the series and totals keep the exact values.
fn record_cycle(rec: &mut TraceRecorder, t: u64, wall_ns: u64, work_ns: &[u64]) -> u64 {
    for (w, &work) in work_ns.iter().enumerate() {
        let wait = wall_ns.saturating_sub(work);
        rec.observe(kernel::metric::CYCLE_WORK_NS, work);
        rec.observe(kernel::metric::CYCLE_WAIT_NS, wait);
        rec.add(metric::WORKER_WORK_NS, w as u64, work);
        rec.add(metric::WORKER_WAIT_NS, w as u64, wait);
        let track = Track::match_worker(w);
        let split = t + work.min(wall_ns);
        rec.span(track, "match-work", t, split);
        if wait > 0 {
            rec.span(track, "barrier-wait", split, t + wall_ns);
        }
    }
    rec.observe(kernel::metric::CYCLE_WALL_NS, wall_ns);
    t + wall_ns.max(1)
}

/// Dense shard layout under `partition`: each global bucket's local slot
/// in its owner's shard, and every worker's shard length.
fn shard_layout(partition: &Partition) -> (Arc<Vec<u32>>, Vec<usize>) {
    let mut slot_of = vec![0u32; partition.table_size() as usize];
    let mut shard_len = vec![0usize; partition.processors()];
    for b in 0..partition.table_size() {
        let w = partition.owner(b);
        slot_of[b as usize] = shard_len[w] as u32;
        shard_len[w] += 1;
    }
    (Arc::new(slot_of), shard_len)
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
    /// sweeps in §5.2.2, on real threads. The partition also fixes the
    /// physical shard layout: worker *w* materializes exactly the bucket
    /// pairs it owns, densely packed through a shared slot map.
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
        let table_size = partition.table_size();
        assert!(table_size > 0, "need at least one bucket");
        let workers = partition.processors();
        let network = Arc::new(network);
        let partition = Arc::new(partition);
        let (slot_of, shard_len) = shard_layout(&partition);
        let outstanding = Arc::new(AtomicI64::new(0));
        let (to_coord, from_workers) = unbounded();
        let channels: Vec<(Sender<ToWorker>, Receiver<ToWorker>)> =
            (0..workers).map(|_| unbounded()).collect();
        let senders: Vec<Sender<ToWorker>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let counters: Vec<Arc<WorkerCounters>> = (0..workers)
            .map(|_| Arc::new(WorkerCounters::default()))
            .collect();
        let spawn_worker = |me: usize, rx: Receiver<ToWorker>| {
            let mem = ShardedMemories::new(slot_of.clone(), shard_len[me]);
            let common = (
                network.clone(),
                partition.clone(),
                senders.clone(),
                to_coord.clone(),
                outstanding.clone(),
                counters[me].clone(),
            );
            // The worker's metric sink is a *type* (zero-cost when
            // disabled), so the flag picks which monomorphization to spawn.
            if profiled {
                Worker::spawn(me, mem, MetricsRegistry::new(), table_size, rx, common)
            } else {
                Worker::spawn(me, mem, NullMetrics, table_size, rx, common)
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
            network,
            partition,
            table_size,
            workers: senders,
            from_workers,
            outstanding,
            conflict: BTreeMap::new(),
            handles,
            counters,
            cycles: 0,
            failed: None,
            profiled,
            trace,
            trace_end_ns: 0,
            adapt: None,
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

    /// The bucket-ownership partition this executor routes with.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Snapshot of per-worker and coordinator activity since spawn.
    pub fn stats(&self) -> ThreadedStats {
        ThreadedStats {
            per_worker: self
                .counters
                .iter()
                .map(|c| WorkerStats {
                    tokens_processed: c.tokens_processed.load(Ordering::Relaxed),
                    tokens_forwarded: c.tokens_forwarded.load(Ordering::Relaxed),
                    messages_sent: c.messages_sent.load(Ordering::Relaxed),
                    instantiations_sent: c.instantiations_sent.load(Ordering::Relaxed),
                    max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
                    left_probes: c.left_probes.load(Ordering::Relaxed),
                    right_probes: c.right_probes.load(Ordering::Relaxed),
                    work_ns: c.work_ns.load(Ordering::Relaxed),
                })
                .collect(),
            cycles: self.cycles,
            conflict_entries: self.conflict.values().filter(|&&count| count > 0).count(),
        }
    }

    /// The executor's whole trace as one recorder — the real
    /// counterpart of the simulated machine's per-processor tracks: one
    /// named lane per worker ([`Track::match_worker`]) carrying its final
    /// [`ThreadedStats`] counter values, the same values as cross-worker
    /// `threaded.*` histograms (per-shard probe counts are the skew of the
    /// sharded tables), and, on a profiled matcher, every cycle's
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
        for (w, tx) in self.workers.iter().enumerate() {
            if tx.send(ToWorker::Report).is_err() {
                self.failed = Some(w);
                return Err(MatchError::WorkerPanicked { worker: w });
            }
        }
        let mut replies = 0;
        self.wait_for_workers(|this, reply| match reply {
            ToCoordinator::Metrics { registry } => {
                merged.merge(&registry);
                replies += 1;
                replies == this.workers.len()
            }
            ToCoordinator::Migrated { .. } => {
                unreachable!("migration replies are consumed by migrate_to")
            }
            _ => false,
        })?;
        Ok(merged)
    }

    /// Re-own buckets according to `partition` at a cycle barrier.
    ///
    /// Must be called *between* cycles (the matcher is quiescent, so no
    /// tokens are queued or buffered anywhere). Every worker rebuilds its
    /// shard under the new layout: bucket pairs it keeps move in place
    /// (same arena — token ids stay valid), pairs it loses are flattened
    /// and routed — via the coordinator, whose collect-all acts as the
    /// barrier — to their new owners, which re-intern them before any
    /// later cycle's work (channel FIFO). Works on unprofiled matchers
    /// too; the partition must keep the same table size and worker count.
    pub fn migrate_to(&mut self, partition: Partition) -> Result<MigrationStats, MatchError> {
        assert_eq!(
            partition.table_size(),
            self.table_size,
            "migration cannot resize the hash table"
        );
        assert_eq!(
            partition.processors(),
            self.workers.len(),
            "migration cannot change the worker count"
        );
        if let Some(worker) = self.failed {
            return Err(MatchError::WorkerPanicked { worker });
        }
        debug_assert_eq!(
            self.outstanding.load(Ordering::SeqCst),
            0,
            "migration must run at a cycle barrier"
        );
        let moved_buckets = (0..self.table_size)
            .filter(|&b| partition.owner(b) != self.partition.owner(b))
            .count() as u64;
        if moved_buckets == 0 {
            return Ok(MigrationStats::default());
        }
        let (slot_of, shard_len) = shard_layout(&partition);
        let partition = Arc::new(partition);
        for (w, tx) in self.workers.iter().enumerate() {
            let msg = ToWorker::Migrate {
                partition: partition.clone(),
                slot_of: slot_of.clone(),
                shard_len: shard_len[w],
            };
            if tx.send(msg).is_err() {
                self.failed = Some(w);
                return Err(MatchError::WorkerPanicked { worker: w });
            }
        }
        let mut adopt: Vec<Vec<MigratedEntry>> =
            (0..self.workers.len()).map(|_| Vec::new()).collect();
        let (mut moved_left, mut moved_right) = (0u64, 0u64);
        let mut replies = 0;
        self.wait_for_workers(|this, reply| match reply {
            ToCoordinator::Migrated { exports } => {
                for (to, batch) in exports {
                    for e in &batch {
                        match e {
                            MigratedEntry::Left { .. } => moved_left += 1,
                            MigratedEntry::Right { .. } => moved_right += 1,
                        }
                    }
                    adopt[to].extend(batch);
                }
                replies += 1;
                replies == this.workers.len()
            }
            _ => false,
        })?;
        for (to, batch) in adopt.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if self.workers[to].send(ToWorker::Adopt(batch)).is_err() {
                self.failed = Some(to);
                return Err(MatchError::WorkerPanicked { worker: to });
            }
        }
        self.partition = partition;
        Ok(MigrationStats {
            moved_buckets,
            moved_left,
            moved_right,
        })
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

    /// Materialize the instantiation of a single-CE production satisfied
    /// at the coordinator (root-level seed values).
    fn root_instantiation(
        &self,
        node: NodeId,
        production: ProductionId,
        wme_id: WmeId,
        vals: &[Value],
    ) -> Instantiation {
        Instantiation::new(
            production,
            &[wme_id],
            self.network
                .layout(node)
                .vars
                .iter()
                .map(|&(s, r)| {
                    debug_assert_eq!(r.level, 0, "root instantiation has one level");
                    (s, vals[r.slot as usize])
                })
                .collect(),
        )
    }

    /// The fallible cycle driver behind both `Matcher::process` and
    /// `Matcher::try_process`. When profiled, wraps the real driver in a
    /// wall-clock timer and derives each worker's barrier-wait share as
    /// `cycle wall − that worker's match-work delta` — drain times are
    /// measured on the workers themselves, so the coordinator never has
    /// to guess at message timing.
    fn process_cycle(&mut self, changes: &[WmeChange]) -> Result<(), MatchError> {
        if !self.profiled {
            return self.process_cycle_inner(changes);
        }
        let before: Vec<u64> = self
            .counters
            .iter()
            .map(|c| c.work_ns.load(Ordering::Relaxed))
            .collect();
        let t0 = std::time::Instant::now();
        let result = self.process_cycle_inner(changes);
        if result.is_ok() {
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let work_ns: Vec<u64> = (self.counters.iter().zip(&before))
                .map(|(c, &b)| c.work_ns.load(Ordering::Relaxed).saturating_sub(b))
                .collect();
            self.trace_end_ns = record_cycle(&mut self.trace, self.trace_end_ns, wall_ns, &work_ns);
            if let Some(every) = self.adapt.as_ref().map(|s| s.options.every) {
                if self.cycles.is_multiple_of(every) {
                    self.maybe_rebalance()?;
                }
            }
        }
        result
    }

    fn process_cycle_inner(&mut self, changes: &[WmeChange]) -> Result<(), MatchError> {
        if let Some(worker) = self.failed {
            return Err(MatchError::WorkerPanicked { worker });
        }
        self.cycles += 1;
        // Constant tests run here (the coordinator plays the part of the
        // broadcast + duplicated constant tests of §3.2); root activations
        // are then routed to their bucket owners.
        let mut batches: Vec<Vec<WireWork>> = (0..self.workers.len()).map(|_| Vec::new()).collect();
        let mut roots: Vec<RootWork> = Vec::new();
        let mut total: i64 = 0;
        for change in changes {
            kernel::alpha_roots(&self.network, change, &mut roots);
            for root in roots.drain(..) {
                let key_hash = match &root {
                    RootWork::Prod {
                        node,
                        production,
                        sign,
                        wme_id,
                        vals,
                    } => {
                        // Single-CE productions complete at the control
                        // processor without touching the hash table.
                        let inst = self.root_instantiation(*node, *production, *wme_id, vals);
                        self.apply_production(*sign, inst);
                        continue;
                    }
                    RootWork::Right { key_hash, .. } | RootWork::Seed { key_hash, .. } => *key_hash,
                };
                let owner = self.partition.owner(key_hash % self.table_size);
                batches[owner].push(WireWork::Root(root));
                total += 1;
            }
        }
        if total == 0 {
            return Ok(());
        }
        self.outstanding.fetch_add(total, Ordering::SeqCst);
        for (owner, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() && self.workers[owner].send(ToWorker::Work(batch)).is_err() {
                self.failed = Some(owner);
                return Err(MatchError::WorkerPanicked { worker: owner });
            }
        }
        self.wait_for_workers(|this, reply| match reply {
            // A stale notification from a previous cycle is harmless: the
            // counter is non-zero while work remains.
            ToCoordinator::Quiescent => this.outstanding.load(Ordering::SeqCst) == 0,
            ToCoordinator::Migrated { .. } => {
                unreachable!("migration replies are consumed by migrate_to")
            }
            // Metrics replies are only solicited between cycles
            // (`profile_snapshot` drains them); a stray one here carries
            // no work accounting and is safely dropped.
            _ => false,
        })
    }

    /// The one place the coordinator blocks on its workers: hands every
    /// reply to `on_reply` until it returns `true`. Waits with a timeout
    /// and polls the [`JoinHandle`]s, so a worker that died (and can never
    /// reply or drain its share of the outstanding count) surfaces as a
    /// typed error in bounded time instead of a hang.
    ///
    /// Instantiation reports are folded into the conflict set here,
    /// whichever wait they arrive in, and never reach `on_reply`; the one
    /// that takes the outstanding count to zero is delivered as
    /// [`ToCoordinator::Quiescent`] — the coordinator made the final
    /// decrement, so no worker will announce it.
    fn wait_for_workers(
        &mut self,
        mut on_reply: impl FnMut(&Self, ToCoordinator) -> bool,
    ) -> Result<(), MatchError> {
        loop {
            let reply = match self.from_workers.recv_timeout(LIVENESS_POLL) {
                Ok(ToCoordinator::Prod { sign, inst }) => {
                    self.apply_production(sign, inst);
                    if self.outstanding.fetch_sub(1, Ordering::SeqCst) != 1 {
                        continue;
                    }
                    ToCoordinator::Quiescent
                }
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

    /// Fold one instantiation report into the signed conflict counts.
    ///
    /// Cascades for the same key race across workers, so a `Minus` may
    /// arrive before its `Plus`: the count goes transiently negative and
    /// the entry is removed once it settles back at zero (from either
    /// direction). This replaces the historical
    /// `expect("retracting unknown instantiation")` panic.
    fn apply_production(&mut self, sign: Sign, inst: Instantiation) {
        let delta: i64 = match sign {
            Sign::Plus => 1,
            Sign::Minus => -1,
        };
        match self.conflict.entry(inst) {
            Entry::Occupied(mut slot) => {
                *slot.get_mut() += delta;
                if *slot.get() == 0 {
                    slot.remove();
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(delta);
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
        self.conflict
            .iter()
            .filter(|&(_, &count)| count > 0)
            .map(|(inst, _)| inst.clone())
            .collect()
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
