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
//! when no work exists anywhere. A fully message-based detector (Safra's
//! algorithm) is provided in [`crate::termination`] and demonstrated on
//! the simulated machine.
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
use mpps_rete::kernel::{self, Kernel, RootWork, Work};
use mpps_rete::{
    FlatToken, LeftEntry, NodeId, ReteNetwork, RightEntry, ShardedMemories, TokenStore,
};
use mpps_telemetry::recorder::THREADED_PID;
use mpps_telemetry::{MetricSink, MetricsRegistry, NullMetrics, Recorder, TraceRecorder, Track};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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

/// One cycle's coordinator-side phase split, kept for Chrome-trace lane
/// synthesis when profiling is on.
struct CycleSplit {
    wall_ns: u64,
    /// `(work_ns, wait_ns)` per worker, in worker order.
    per_worker: Vec<(u64, u64)>,
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

/// Tuning for the online repartitioner (see
/// [`ThreadedMatcher::enable_adaptation`]).
#[derive(Clone, Copy, Debug)]
pub struct AdaptOptions {
    /// Re-evaluate the partition every this many cycles.
    pub every: u64,
    /// Only migrate when the per-worker load-skew factor (max/mean of the
    /// activation deltas since the last evaluation) exceeds this.
    pub skew_threshold: f64,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            every: 4,
            skew_threshold: 1.25,
        }
    }
}

/// One automatic rebalance performed by the online repartitioner.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceEvent {
    /// Match cycle after which the migration ran.
    pub cycle: u64,
    /// Per-worker load skew (max/mean) before, under the old partition.
    pub skew_before: f64,
    /// Projected per-worker load skew under the new partition.
    pub skew_after: f64,
    /// Buckets whose owner changed.
    pub moved_buckets: u64,
    /// Memory entries shipped between shards.
    pub moved_entries: u64,
    /// The hottest single bucket's share of the window's activations.
    /// When this exceeds `1/workers`, migration alone cannot balance the
    /// load — one bucket saturates its owner — and the caller should split
    /// the hot node with a network rewrite (copy-and-constraint).
    pub hot_bucket_share: f64,
}

/// Coordinator-side state of the online repartitioner.
struct AdaptState {
    options: AdaptOptions,
    /// Cumulative per-bucket activation counts at the last evaluation.
    last_buckets: Vec<u64>,
    /// Every rebalance performed so far.
    events: Vec<RebalanceEvent>,
}

struct Worker<M: MetricSink = NullMetrics> {
    me: usize,
    network: Arc<ReteNetwork>,
    kernel: Kernel<ShardedMemories, M>,
    table_size: u64,
    partition: Arc<Partition>,
    inbox: Receiver<ToWorker>,
    peers: Vec<Sender<ToWorker>>,
    coordinator: Sender<ToCoordinator>,
    outstanding: Arc<AtomicI64>,
    counters: Arc<WorkerCounters>,
}

impl<M: MetricSink> Worker<M> {
    fn run(mut self) {
        // FIFO is load-bearing: a +token and the cancelling −token of the
        // same value are always generated on one thread (same parent
        // bucket) and must reach their destination bucket in generation
        // order, or the delete would precede the add. Per-peer outgoing
        // buffers preserve that order while coalescing one message per
        // peer per drain.
        let mut local: std::collections::VecDeque<Work> = std::collections::VecDeque::new();
        let mut outgoing: Vec<Vec<WireWork>> = (0..self.peers.len()).map(|_| Vec::new()).collect();
        let mut out: Vec<Work> = Vec::new();
        while let Ok(msg) = self.inbox.recv() {
            match msg {
                ToWorker::Shutdown => break,
                ToWorker::Report => {
                    let registry = Box::new(self.kernel.metrics.export());
                    if self
                        .coordinator
                        .send(ToCoordinator::Metrics { registry })
                        .is_err()
                    {
                        return;
                    }
                }
                #[cfg(test)]
                ToWorker::Poison => {
                    let _ = self.inbox.recv();
                    panic!("worker {} poisoned by test hook", self.me)
                }
                ToWorker::Migrate {
                    partition,
                    slot_of,
                    shard_len,
                } => {
                    if !self.migrate(partition, slot_of, shard_len) {
                        return;
                    }
                }
                ToWorker::Adopt(batch) => self.adopt_migrated(batch),
                ToWorker::Work(batch) => {
                    let drain_timer = M::ENABLED.then(std::time::Instant::now);
                    let mut drained: u64 = 0;
                    for w in batch {
                        let adopted = self.adopt(w);
                        local.push_back(adopted);
                    }
                    self.counters
                        .max_queue_depth
                        .fetch_max(local.len() as u64, Ordering::Relaxed);
                    while let Some(item) = local.pop_front() {
                        if M::ENABLED {
                            drained += 1;
                        }
                        if !self.process(item, &mut local, &mut outgoing, &mut out) {
                            return;
                        }
                    }
                    if let Some(t0) = drain_timer {
                        // Publish match-work time before flushing so a
                        // quiescence triggered by the flushed tokens (on
                        // another thread) usually sees this drain's share.
                        // The coordinator reads these counters racily; any
                        // publish it misses is credited to the next cycle,
                        // so totals stay exact even if one cycle's split is
                        // approximate.
                        self.counters
                            .work_ns
                            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        self.kernel
                            .metrics
                            .observe(metric::DRAIN_ACTIVATIONS, drained);
                        self.kernel.record_arena_metrics(self.me as u64);
                    }
                    if !self.flush(&mut outgoing) {
                        return;
                    }
                    // Publish probe totals once per drain (single writer).
                    self.counters
                        .left_probes
                        .store(self.kernel.stats.left_probes, Ordering::Relaxed);
                    self.counters
                        .right_probes
                        .store(self.kernel.stats.right_probes, Ordering::Relaxed);
                }
            }
        }
    }

    /// Adopt one wire item into this worker's arena.
    fn adopt(&mut self, w: WireWork) -> Work {
        match w {
            WireWork::Root(root) => {
                debug_assert!(
                    !matches!(root, RootWork::Prod { .. }),
                    "prod work stays at the coordinator"
                );
                self.kernel.adopt_root(root)
            }
            WireWork::Left {
                node,
                sign,
                flat,
                key_hash,
            } => Work::Left {
                node,
                sign,
                token: self.kernel.arena.intern(&flat),
                key_hash,
            },
        }
    }

    /// Rebind this worker's shard to a new partition (between cycles, so
    /// no tokens are in flight). Bucket pairs still owned move into the
    /// rebuilt shard in place — same arena, so their `TokenId`s stay
    /// valid; pairs lost to another worker are flattened and shipped to
    /// the coordinator for rerouting. Returns `false` if the coordinator
    /// is gone.
    fn migrate(
        &mut self,
        partition: Arc<Partition>,
        slot_of: Arc<Vec<u32>>,
        shard_len: usize,
    ) -> bool {
        let mut exports: Vec<Vec<MigratedEntry>> =
            (0..self.peers.len()).map(|_| Vec::new()).collect();
        let mut new_mem = ShardedMemories::new(slot_of, shard_len);
        for bucket in 0..self.table_size {
            if self.partition.owner(bucket) != self.me {
                continue;
            }
            let (lefts, rights) = self.kernel.mem.take_bucket(bucket);
            let to = partition.owner(bucket);
            if to == self.me {
                *new_mem.left_bucket_mut(bucket) = lefts;
                *new_mem.right_bucket_mut(bucket) = rights;
            } else {
                for e in lefts {
                    let flat = self.kernel.arena.extract(e.token);
                    self.kernel.arena.release(e.token);
                    exports[to].push(MigratedEntry::Left {
                        node: e.node,
                        key_hash: e.key_hash,
                        flat,
                        neg_count: e.neg_count,
                    });
                }
                for e in rights {
                    exports[to].push(MigratedEntry::Right {
                        node: e.node,
                        key_hash: e.key_hash,
                        wme_id: e.wme_id,
                        wme: e.wme,
                    });
                }
            }
        }
        self.kernel.mem = new_mem;
        self.partition = partition;
        let exports: Vec<(usize, Vec<MigratedEntry>)> = exports
            .into_iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .collect();
        self.coordinator
            .send(ToCoordinator::Migrated { exports })
            .is_ok()
    }

    /// Intern entries another worker exported for buckets this worker now
    /// owns (the shard was already rebuilt by this worker's `Migrate`).
    fn adopt_migrated(&mut self, batch: Vec<MigratedEntry>) {
        for entry in batch {
            match entry {
                MigratedEntry::Left {
                    node,
                    key_hash,
                    flat,
                    neg_count,
                } => {
                    debug_assert_eq!(
                        self.partition.owner(key_hash % self.table_size),
                        self.me,
                        "adopted entry must target an owned bucket"
                    );
                    let token = self.kernel.arena.intern(&flat);
                    self.kernel
                        .mem
                        .left_bucket_mut(key_hash % self.table_size)
                        .push(LeftEntry {
                            node,
                            key_hash,
                            token,
                            neg_count,
                        });
                }
                MigratedEntry::Right {
                    node,
                    key_hash,
                    wme_id,
                    wme,
                } => {
                    debug_assert_eq!(
                        self.partition.owner(key_hash % self.table_size),
                        self.me,
                        "adopted entry must target an owned bucket"
                    );
                    self.kernel
                        .mem
                        .right_bucket_mut(key_hash % self.table_size)
                        .push(RightEntry {
                            node,
                            key_hash,
                            wme_id,
                            wme,
                        });
                }
            }
        }
    }

    /// Process one activation; returns `false` if a channel endpoint died
    /// (coordinator or a peer gone), which terminates this worker too.
    fn process(
        &mut self,
        item: Work,
        local: &mut std::collections::VecDeque<Work>,
        outgoing: &mut [Vec<WireWork>],
        out: &mut Vec<Work>,
    ) -> bool {
        debug_assert!(
            !matches!(item, Work::Prod { .. }),
            "prod work stays at the coordinator"
        );
        debug_assert_eq!(
            self.partition.owner(item.bucket(self.table_size)),
            self.me,
            "routed work must target an owned shard bucket"
        );
        self.kernel.activate(&self.network, item, out);
        self.counters
            .tokens_processed
            .fetch_add(1, Ordering::Relaxed);
        for o in out.drain(..) {
            match o {
                Work::Prod {
                    node,
                    production,
                    sign,
                    token,
                } => {
                    let inst = self
                        .kernel
                        .instantiation(&self.network, node, production, token);
                    self.kernel.arena.release(token);
                    // Increment-before-send keeps zero unreachable while
                    // this instantiation is in flight.
                    self.outstanding.fetch_add(1, Ordering::SeqCst);
                    self.counters
                        .instantiations_sent
                        .fetch_add(1, Ordering::Relaxed);
                    if self
                        .coordinator
                        .send(ToCoordinator::Prod { sign, inst })
                        .is_err()
                    {
                        return false;
                    }
                }
                Work::Left {
                    node,
                    sign,
                    token,
                    key_hash,
                } => {
                    let bucket = key_hash % self.table_size;
                    let to = self.partition.owner(bucket);
                    self.outstanding.fetch_add(1, Ordering::SeqCst);
                    if to == self.me {
                        local.push_back(Work::Left {
                            node,
                            sign,
                            token,
                            key_hash,
                        });
                        self.counters
                            .max_queue_depth
                            .fetch_max(local.len() as u64, Ordering::Relaxed);
                    } else {
                        self.counters
                            .tokens_forwarded
                            .fetch_add(1, Ordering::Relaxed);
                        if M::ENABLED {
                            self.kernel
                                .metrics
                                .add(metric::PEER_FORWARDED, to as u64, 1);
                        }
                        let flat = self.kernel.arena.extract(token);
                        self.kernel.arena.release(token);
                        outgoing[to].push(WireWork::Left {
                            node,
                            sign,
                            flat,
                            key_hash,
                        });
                    }
                }
                Work::Right { .. } => {
                    unreachable!("two-input nodes only generate left activations")
                }
            }
        }
        if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
            // We performed the final decrement: the cascade has drained.
            // (Buffered outgoing tokens hold their own increments, so a
            // non-empty buffer makes this branch unreachable.)
            if self.coordinator.send(ToCoordinator::Quiescent).is_err() {
                return false;
            }
        }
        true
    }

    /// Send each peer its coalesced batch; returns `false` if a peer died.
    fn flush(&mut self, outgoing: &mut [Vec<WireWork>]) -> bool {
        for (to, buf) in outgoing.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            self.counters.messages_sent.fetch_add(1, Ordering::Relaxed);
            if self.peers[to]
                .send(ToWorker::Work(std::mem::take(buf)))
                .is_err()
            {
                return false;
            }
        }
        true
    }
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
    /// Coordinator-side registry: per-cycle wall/work/wait series.
    cycle_registry: MetricsRegistry,
    /// Per-cycle phase splits for Chrome-trace lane synthesis.
    cycle_splits: Vec<CycleSplit>,
    /// Online repartitioner state (profiled matchers only).
    adapt: Option<AdaptState>,
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
        assert!(workers > 0, "need at least one worker");
        assert!(table_size > 0, "need at least one bucket");
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
        assert!(workers > 0, "need at least one worker");
        assert!(table_size > 0, "need at least one bucket");
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
        // The worker's metric sink is a *type* (zero-cost when disabled),
        // so the profiled flag picks which monomorphization to spawn.
        type WorkerWiring = (
            Arc<ReteNetwork>,
            Arc<Partition>,
            Vec<Sender<ToWorker>>,
            Sender<ToCoordinator>,
            Arc<AtomicI64>,
            Arc<WorkerCounters>,
        );
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
            fn spawn<M: MetricSink + Send + 'static>(
                me: usize,
                mem: ShardedMemories,
                metrics: M,
                table_size: u64,
                inbox: Receiver<ToWorker>,
                (network, partition, peers, coordinator, outstanding, counters): WorkerWiring,
            ) -> JoinHandle<()> {
                let worker = Worker {
                    me,
                    network,
                    kernel: Kernel::with_metrics(mem, metrics),
                    table_size,
                    partition,
                    inbox,
                    peers,
                    coordinator,
                    outstanding,
                    counters,
                };
                std::thread::Builder::new()
                    .name(format!("mpps-match-{me}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker thread")
            }
            if profiled {
                spawn(me, mem, MetricsRegistry::new(), table_size, rx, common)
            } else {
                spawn(me, mem, NullMetrics, table_size, rx, common)
            }
        };
        let handles = channels
            .into_iter()
            .enumerate()
            .map(|(me, (_, rx))| spawn_worker(me, rx))
            .collect();
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
            cycle_registry: MetricsRegistry::new(),
            cycle_splits: Vec::new(),
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

    /// Whether this executor was spawned with live metrics.
    pub fn is_profiled(&self) -> bool {
        self.profiled
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

    /// Emit the current [`ThreadedStats`] into a [`Recorder`]: one lane
    /// per worker ([`Track::match_worker`]) carrying final counter values,
    /// plus cross-worker histograms — the real executor's counterpart of
    /// the simulated machine's per-processor tracks. Per-shard probe
    /// counts feed the skew histograms of the sharded tables.
    pub fn record_into<R: Recorder>(&self, rec: &mut R) {
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
            rec.sample("threaded.tokens-processed", w.tokens_processed);
            rec.sample("threaded.tokens-forwarded", w.tokens_forwarded);
            rec.sample("threaded.messages-sent", w.messages_sent);
            rec.sample("threaded.queue-depth-max", w.max_queue_depth);
            rec.sample("threaded.left-probes", w.left_probes);
            rec.sample("threaded.right-probes", w.right_probes);
            rec.sample("threaded.work-ns", w.work_ns);
        }
        rec.sample("threaded.conflict-set-size", stats.conflict_entries as u64);
        rec.sample("threaded.cycles", stats.cycles);
    }

    /// Collect one merged [`MetricsRegistry`] across every worker plus the
    /// coordinator's per-cycle series. Must be called *between* cycles
    /// (quiescent); each worker is asked to export its registry and the
    /// replies are merged. On an unprofiled matcher this returns the
    /// (empty) coordinator registry without touching the workers.
    pub fn profile_snapshot(&mut self) -> Result<MetricsRegistry, MatchError> {
        let mut merged = self.cycle_registry.clone();
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

    /// Turn on the online repartitioner: every `options.every` cycles the
    /// coordinator diffs the cumulative per-bucket activation counters
    /// (the kernel's `bucket.activations` series) against the previous
    /// window, and when the per-worker load skew exceeds
    /// `options.skew_threshold` it re-runs the §5.2.2 greedy (LPT)
    /// packing over the window's activity and migrates bucket ownership at
    /// the cycle barrier. Requires a profiled matcher — the counters feed
    /// the decision.
    pub fn enable_adaptation(&mut self, options: AdaptOptions) {
        assert!(
            self.profiled,
            "online repartitioning needs a profiled matcher (bucket counters)"
        );
        assert!(options.every > 0, "adaptation period must be positive");
        self.adapt = Some(AdaptState {
            options,
            last_buckets: vec![0; self.table_size as usize],
            events: Vec::new(),
        });
    }

    /// Every rebalance the online repartitioner has performed.
    pub fn rebalance_events(&self) -> &[RebalanceEvent] {
        self.adapt.as_ref().map_or(&[], |s| &s.events)
    }

    /// One evaluation of the online repartitioner (post-cycle, quiescent):
    /// diff bucket counters, and if the load skew warrants it and greedy
    /// can actually improve it, migrate.
    fn maybe_rebalance(&mut self) -> Result<(), MatchError> {
        let snapshot = self.profile_snapshot()?;
        let mut delta = vec![0u64; self.table_size as usize];
        let threshold = {
            let Some(state) = self.adapt.as_mut() else {
                return Ok(());
            };
            if let Some(series) = snapshot.counter(kernel::metric::BUCKET_ACTIVATIONS) {
                for (&bucket, &count) in series {
                    let b = bucket as usize;
                    if b < delta.len() {
                        delta[b] = count.saturating_sub(state.last_buckets[b]);
                        state.last_buckets[b] = count;
                    }
                }
            }
            state.options.skew_threshold
        };
        let total: u64 = delta.iter().sum();
        if total == 0 {
            return Ok(());
        }
        let skew_before = crate::partition::load_skew(&self.partition.loads(&delta));
        if skew_before <= threshold {
            return Ok(());
        }
        let candidate = Partition::greedy(&delta, self.workers.len());
        let skew_after = crate::partition::load_skew(&candidate.loads(&delta));
        if skew_after >= skew_before {
            return Ok(());
        }
        let hottest = delta.iter().copied().max().unwrap_or(0);
        let stats = self.migrate_to(candidate)?;
        let event = RebalanceEvent {
            cycle: self.cycles,
            skew_before,
            skew_after,
            moved_buckets: stats.moved_buckets,
            moved_entries: stats.moved_left + stats.moved_right,
            hot_bucket_share: hottest as f64 / total as f64,
        };
        if let Some(state) = self.adapt.as_mut() {
            state.events.push(event);
        }
        Ok(())
    }

    /// Synthesize the per-cycle phase split into Chrome-trace spans: for
    /// every recorded cycle, each worker lane ([`Track::match_worker`])
    /// gets a `match-work` span followed by a `barrier-wait` span filling
    /// the rest of the cycle wall time. Cycles are laid end to end on a
    /// synthetic timeline starting at 0 µs; merge with
    /// [`name_threaded_tracks`] and [`ThreadedMatcher::record_into`] for
    /// named lanes and counter tracks in the same export.
    pub fn record_cycles_into(&self, rec: &mut TraceRecorder) {
        let mut t: u64 = 0;
        for split in &self.cycle_splits {
            for (w, &(work_ns, wait_ns)) in split.per_worker.iter().enumerate() {
                let track = Track::match_worker(w);
                rec.span(track, "match-work", t, t + work_ns);
                if wait_ns > 0 {
                    rec.span(
                        track,
                        "barrier-wait",
                        t + work_ns,
                        t + split.wall_ns.max(work_ns),
                    );
                }
            }
            t += split.wall_ns.max(1);
        }
    }

    /// Number of match cycles whose phase split has been recorded
    /// (profiled matchers only; always zero otherwise).
    pub fn recorded_cycles(&self) -> usize {
        self.cycle_splits.len()
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
            let mut per_worker = Vec::with_capacity(self.counters.len());
            for (w, c) in self.counters.iter().enumerate() {
                let work = c.work_ns.load(Ordering::Relaxed).saturating_sub(before[w]);
                let wait = wall_ns.saturating_sub(work);
                self.cycle_registry
                    .observe(kernel::metric::CYCLE_WORK_NS, work);
                self.cycle_registry
                    .observe(kernel::metric::CYCLE_WAIT_NS, wait);
                self.cycle_registry
                    .add(metric::WORKER_WORK_NS, w as u64, work);
                self.cycle_registry
                    .add(metric::WORKER_WAIT_NS, w as u64, wait);
                per_worker.push((work, wait));
            }
            self.cycle_registry
                .observe(kernel::metric::CYCLE_WALL_NS, wall_ns);
            self.cycle_splits.push(CycleSplit {
                wall_ns,
                per_worker,
            });
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

/// Name the threaded executor's worker lanes in an exported trace, the
/// way [`crate::simexec::name_machine_tracks`] names the simulated ones.
pub fn name_threaded_tracks(rec: &mut TraceRecorder, workers: usize) {
    rec.name_process(THREADED_PID, "threaded matcher");
    for w in 0..workers {
        rec.name_track(Track::match_worker(w), format!("match thread {w}"));
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

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_ops::{parse_program, Wme};
    use mpps_rete::ReteMatcher;

    fn add(id: u64, wme: Wme) -> WmeChange {
        WmeChange::add(WmeId(id), wme)
    }

    fn del(id: u64, wme: Wme) -> WmeChange {
        WmeChange::remove(WmeId(id), wme)
    }

    const BLUE: &str = r#"
        (p clear-the-blue-block
           (block ^name <b2> ^color blue)
           (block ^name <b2> ^on <b1>)
           (hand ^state free)
           -->
           (remove 2))
    "#;

    fn blue_wmes() -> Vec<WmeChange> {
        vec![
            add(
                1,
                Wme::new("block", &[("name", "b1".into()), ("color", "blue".into())]),
            ),
            add(
                2,
                Wme::new("block", &[("name", "b1".into()), ("on", "table".into())]),
            ),
            add(3, Wme::new("hand", &[("state", "free".into())])),
        ]
    }

    fn agree(src: &str, batches: &[Vec<WmeChange>], workers: usize) {
        let prog = parse_program(src).unwrap();
        let mut seq = ReteMatcher::from_program(&prog).unwrap();
        let mut par = ThreadedMatcher::from_program(&prog, workers).unwrap();
        for batch in batches {
            seq.process(batch);
            par.process(batch);
            assert_eq!(
                seq.conflict_set(),
                par.conflict_set(),
                "diverged after a batch with {workers} workers"
            );
        }
    }

    fn agree_on_partition(src: &str, batches: &[Vec<WmeChange>], partition: Partition) {
        let prog = parse_program(src).unwrap();
        let label = format!(
            "{} workers over {} buckets",
            partition.processors(),
            partition.table_size()
        );
        let mut seq = ReteMatcher::from_program(&prog).unwrap();
        let network = ReteNetwork::compile(&prog).unwrap();
        let mut par = ThreadedMatcher::with_partition(network, partition);
        for batch in batches {
            seq.process(batch);
            par.process(batch);
            assert_eq!(
                seq.conflict_set(),
                par.conflict_set(),
                "diverged after a batch ({label})"
            );
        }
    }

    #[test]
    fn matches_paper_example_in_parallel() {
        for workers in [1, 2, 4] {
            agree(BLUE, &[blue_wmes()], workers);
        }
    }

    #[test]
    fn incremental_cycles_stay_consistent() {
        let wmes = blue_wmes();
        let batches: Vec<Vec<WmeChange>> = wmes.iter().map(|c| vec![c.clone()]).collect();
        agree(BLUE, &batches, 3);
    }

    #[test]
    fn deletions_retract_across_threads() {
        let wmes = blue_wmes();
        let batches = vec![
            wmes.clone(),
            vec![del(3, wmes[2].wme.clone())],
            vec![add(4, Wme::new("hand", &[("state", "free".into())]))],
        ];
        agree(BLUE, &batches, 4);
    }

    #[test]
    fn cross_product_all_pairs() {
        let mut changes = Vec::new();
        for i in 0..8 {
            changes.push(add(
                1 + i,
                Wme::new(
                    "team",
                    &[("side", "left".into()), ("name", (i as i64).into())],
                ),
            ));
        }
        for i in 0..8 {
            changes.push(add(
                100 + i,
                Wme::new(
                    "team",
                    &[("side", "right".into()), ("name", (100 + i as i64).into())],
                ),
            ));
        }
        let src = r#"
            (p cross (team ^side left ^name <a>) (team ^side right ^name <b>) --> (remove 1))
        "#;
        let prog = parse_program(src).unwrap();
        let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
        par.process(&changes);
        assert_eq!(par.conflict_set().len(), 64);
    }

    #[test]
    fn negation_behaves_under_parallelism() {
        let src = r#"
            (p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))
        "#;
        let e = Wme::new("edge", &[("to", 7.into())]);
        let batches = vec![
            vec![add(1, Wme::new("node", &[("id", 7.into())]))],
            vec![add(2, e.clone())],
            vec![del(2, e)],
        ];
        agree(src, &batches, 4);
    }

    #[test]
    fn single_ce_production_handled_at_coordinator() {
        let src = "(p solo (alarm ^level <l>) --> (remove 1))";
        let batches = vec![
            vec![add(1, Wme::new("alarm", &[("level", 3.into())]))],
            vec![del(1, Wme::new("alarm", &[("level", 3.into())]))],
        ];
        agree(src, &batches, 2);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let prog = parse_program(BLUE).unwrap();
        let mut par = ThreadedMatcher::from_program(&prog, 2).unwrap();
        par.process(&[]);
        assert!(par.conflict_set().is_empty());
    }

    #[test]
    fn mixed_add_delete_batch_converges() {
        // Adds and deletes of *different* WMEs in one batch: the final
        // state must match the sequential engine no matter how the
        // token cascades interleave.
        let src = "(p j (a ^v <x>) (b ^v <x>) --> (remove 1))";
        let a1 = Wme::new("a", &[("v", 1.into())]);
        let b1 = Wme::new("b", &[("v", 1.into())]);
        let b2 = Wme::new("b", &[("v", 1.into()), ("extra", 1.into())]);
        let batches = vec![
            vec![add(1, a1), add(2, b1.clone())],
            vec![del(2, b1), add(3, b2)],
        ];
        for workers in [1, 2, 4] {
            agree(src, &batches, workers);
        }
    }

    #[test]
    fn shutdown_is_clean() {
        let prog = parse_program(BLUE).unwrap();
        let par = ThreadedMatcher::from_program(&prog, 4).unwrap();
        assert_eq!(par.worker_count(), 4);
        drop(par); // must not hang or panic
    }

    /// Regression pin for the retraction race: a `Minus` report reaching
    /// the coordinator before its matching `Plus` used to hit
    /// `expect("retracting unknown instantiation")`. Signed counts keep
    /// the entry latent at −1 until the `Plus` settles it at zero.
    #[test]
    fn minus_before_plus_settles_without_panicking() {
        let prog = parse_program("(p solo (alarm ^level <l>) --> (remove 1))").unwrap();
        let network = ReteNetwork::compile(&prog).unwrap();
        let mut roots = Vec::new();
        kernel::alpha_roots(
            &network,
            &WmeChange::add(WmeId(1), Wme::new("alarm", &[("level", 3.into())])),
            &mut roots,
        );
        let RootWork::Prod {
            node,
            production,
            wme_id,
            vals,
            ..
        } = roots.into_iter().next().unwrap()
        else {
            panic!("single-CE production produces prod work");
        };
        let mut par = ThreadedMatcher::from_program(&prog, 2).unwrap();
        let inst = par.root_instantiation(node, production, wme_id, &vals);

        // Minus first: transiently negative, invisible, no panic.
        par.apply_production(Sign::Minus, inst.clone());
        assert!(par.conflict_set().is_empty());
        // The matching Plus settles the count at zero: entry dropped.
        par.apply_production(Sign::Plus, inst.clone());
        assert!(par.conflict_set().is_empty());
        assert_eq!(par.stats().conflict_entries, 0);

        // And the normal order still works on the same key afterwards.
        par.apply_production(Sign::Plus, inst.clone());
        assert_eq!(par.conflict_set().len(), 1);
        par.apply_production(Sign::Minus, inst);
        assert!(par.conflict_set().is_empty());
    }

    fn stress_iterations() -> u64 {
        std::env::var("MPPS_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(100)
    }

    /// Interleaving stress over the Tourney-style cross-product section:
    /// adds and deletes of the *same join values* race through ≥4 workers
    /// for many seeds, and the conflict set must agree with the
    /// sequential engine after every batch. Iteration count is env-gated
    /// (`MPPS_STRESS_ITERS`) so CI can crank it up in release mode.
    #[test]
    fn retraction_race_stress() {
        // Two join levels sharing <x> spread the buckets across workers,
        // so +/− cascades for one instantiation cross thread boundaries.
        let src = r#"
            (p pair (slot ^v <x>) (east ^v <x>) (west ^v <x>) --> (remove 1))
        "#;
        let prog = parse_program(src).unwrap();
        for seed in 0..stress_iterations() {
            // Seed-varied shape: how many join values, and which half of
            // the WMEs gets deleted-and-readded in the racing batch.
            let values = 3 + (seed % 5) as i64;
            let mut id = 0u64;
            let mut wme = |class: &str, v: i64| {
                id += 1;
                (WmeId(id), Wme::new(class, &[("v", v.into())]))
            };
            let mut first = Vec::new();
            let mut live: Vec<(WmeId, Wme)> = Vec::new();
            for v in 0..values {
                for class in ["slot", "east", "west"] {
                    let (i, w) = wme(class, v);
                    live.push((i, w.clone()));
                    first.push(WmeChange::add(i, w));
                }
            }
            // Racing batch: delete every east/west WME of the even join
            // values and re-add fresh WMEs with the *same* join values,
            // so Minus and Plus instantiations for identical keys are in
            // flight simultaneously.
            let mut second = Vec::new();
            for (i, w) in &live {
                let v = w.get(mpps_ops::intern("v")).unwrap();
                let is_even = matches!(v, mpps_ops::Value::Int(n) if n % 2 == (seed % 2) as i64);
                if is_even && w.class() != mpps_ops::intern("slot") {
                    second.push(WmeChange::remove(*i, w.clone()));
                }
            }
            for v in 0..values {
                if v % 2 == (seed % 2) as i64 {
                    let (i, w) = wme("east", v);
                    second.push(WmeChange::add(i, w));
                    let (i, w) = wme("west", v);
                    second.push(WmeChange::add(i, w));
                }
            }
            let mut seq = ReteMatcher::from_program(&prog).unwrap();
            let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
            for batch in [&first, &second] {
                seq.process(batch);
                par.try_process(batch).expect("workers healthy");
                assert_eq!(
                    seq.conflict_set(),
                    par.conflict_set(),
                    "diverged at seed {seed}"
                );
            }
        }
    }

    /// A dead worker must surface as a typed error in bounded time — this
    /// used to leave the coordinator blocked in `recv()` forever.
    #[test]
    fn worker_death_surfaces_error_not_hang() {
        let prog = parse_program(BLUE).unwrap();
        let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
        for w in 0..4 {
            par.poison_worker(w);
        }
        let err = par
            .try_process(&blue_wmes())
            .expect_err("cycle over dead workers must fail");
        assert!(matches!(err, MatchError::WorkerPanicked { .. }), "{err:?}");
        // The matcher is poisoned: later cycles fail fast with the same
        // error instead of touching dead channels.
        let again = par.try_process(&blue_wmes()).expect_err("still poisoned");
        assert_eq!(again, err);
        drop(par); // must not hang on join
    }

    /// The between-cycle wait sites obey the same failure model as a
    /// cycle. Worker 1 of a profiled matcher holding stored state dies
    /// either on receiving `request` (its send succeeded, so only the wait
    /// loop's liveness poll can notice) or before it (`dead_first`: the
    /// send itself fails). Both must give the typed error in bounded time,
    /// leave the matcher poisoned, and still drop cleanly.
    fn assert_worker_death_surfaces(request: impl Fn(&mut ThreadedMatcher) -> Option<MatchError>) {
        for dead_first in [false, true] {
            let prog = parse_program(BLUE).unwrap();
            let mut par = ThreadedMatcher::from_program_profiled(&prog, 2).unwrap();
            par.process(&blue_wmes());
            par.poison_worker(1);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            if dead_first {
                par.workers[1].send(ToWorker::Report).unwrap();
                while !par.handles[1].is_finished() {
                    assert!(std::time::Instant::now() < deadline, "worker never died");
                    std::thread::yield_now();
                }
            }
            let err = request(&mut par).expect("request over a dead worker must fail");
            assert!(
                std::time::Instant::now() < deadline,
                "dead worker took too long to surface (dead_first: {dead_first})"
            );
            assert_eq!(err, MatchError::WorkerPanicked { worker: 1 });
            assert_eq!(request(&mut par), Some(err.clone()), "still poisoned");
            assert_eq!(par.try_process(&blue_wmes()), Err(err));
            drop(par); // must not hang on join
        }
    }

    #[test]
    fn worker_death_surfaces_error_not_hang_in_profile_snapshot() {
        assert_worker_death_surfaces(|par| par.profile_snapshot().err());
    }

    #[test]
    fn worker_death_surfaces_error_not_hang_in_migrate_to() {
        assert_worker_death_surfaces(|par| par.migrate_to(Partition::random(2048, 2, 7)).err());
    }

    /// The infallible `Matcher::process` entry point panics with context
    /// (never hangs) when a worker has died.
    #[test]
    fn process_panics_with_context_after_worker_death() {
        let prog = parse_program(BLUE).unwrap();
        let mut par = ThreadedMatcher::from_program(&prog, 2).unwrap();
        par.poison_worker(0);
        par.poison_worker(1);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par.process(&blue_wmes());
        }))
        .expect_err("process must panic, not hang");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("panicked"), "panic lacks context: {msg:?}");
    }

    #[test]
    fn partition_strategies_agree_with_sequential() {
        let wmes = blue_wmes();
        let batches = vec![wmes.clone(), vec![del(3, wmes[2].wme.clone())]];
        for partition in [
            Partition::round_robin(64, 4),
            Partition::random(64, 4, 1989),
            Partition::single(64),
            Partition::greedy(&[7, 0, 3, 0, 9, 1, 0, 2], 3),
        ] {
            agree_on_partition(BLUE, &batches, partition);
        }
    }

    #[test]
    fn forwarding_is_coalesced_per_peer() {
        // Many join values across two join levels force heavy cross-
        // worker forwarding; per-drain coalescing must send strictly
        // fewer messages than tokens.
        let src = "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (remove 1))";
        let prog = parse_program(src).unwrap();
        let mut changes = Vec::new();
        let mut id = 0u64;
        for v in 0..64i64 {
            for class in ["a", "b", "c"] {
                id += 1;
                changes.push(add(id, Wme::new(class, &[("v", v.into())])));
            }
        }
        let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
        par.process(&changes);
        assert_eq!(par.conflict_set().len(), 64);
        let stats = par.stats();
        let forwarded: u64 = stats.per_worker.iter().map(|w| w.tokens_forwarded).sum();
        let messages: u64 = stats.per_worker.iter().map(|w| w.messages_sent).sum();
        assert!(forwarded > 0, "expected cross-worker traffic: {stats:?}");
        assert!(
            messages < forwarded,
            "coalescing should batch tokens: {messages} messages for {forwarded} tokens"
        );
        let processed: u64 = stats.per_worker.iter().map(|w| w.tokens_processed).sum();
        assert!(processed > 0);
        assert_eq!(stats.cycles, 1);
        assert_eq!(stats.conflict_entries, 64);
    }

    #[test]
    fn per_shard_probe_counters_are_reported() {
        // Probes on the sharded tables must show up per worker so the
        // skew histograms can compare shard load.
        let src = "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (remove 1))";
        let prog = parse_program(src).unwrap();
        let mut changes = Vec::new();
        let mut id = 0u64;
        for v in 0..32i64 {
            for class in ["a", "b", "c"] {
                id += 1;
                changes.push(add(id, Wme::new(class, &[("v", v.into())])));
            }
        }
        let mut par = ThreadedMatcher::from_program(&prog, 4).unwrap();
        par.process(&changes);
        let stats = par.stats();
        let left: u64 = stats.per_worker.iter().map(|w| w.left_probes).sum();
        let right: u64 = stats.per_worker.iter().map(|w| w.right_probes).sum();
        assert!(left > 0, "left-table probes recorded: {stats:?}");
        assert!(right > 0, "right-table probes recorded: {stats:?}");
    }

    #[test]
    fn record_into_emits_worker_lanes() {
        let prog = parse_program(BLUE).unwrap();
        let mut par = ThreadedMatcher::from_program(&prog, 3).unwrap();
        par.process(&blue_wmes());
        let mut rec = TraceRecorder::new();
        name_threaded_tracks(&mut rec, par.worker_count());
        par.record_into(&mut rec);
        let lanes: std::collections::BTreeSet<_> = rec.counters().iter().map(|c| c.track).collect();
        assert_eq!(lanes.len(), 3, "one lane per worker");
        assert!(lanes.contains(&Track::match_worker(0)));
        assert!(rec.histogram("threaded.tokens-processed").is_some());
        assert!(
            rec.histogram("threaded.left-probes").is_some(),
            "per-shard probe lanes exported"
        );
        assert_eq!(
            rec.histogram("threaded.conflict-set-size").unwrap().max(),
            Some(1)
        );
        assert!(rec
            .track_names()
            .iter()
            .any(|(t, n)| *t == Track::match_worker(2) && n == "match thread 2"));
    }

    /// Lane-name audit: every track `record_into` (and the profiled
    /// `record_cycles_into`) emits onto must be named by
    /// `name_threaded_tracks`, and the names themselves are pinned so
    /// they stay stable across runs and releases.
    #[test]
    fn lane_names_match_between_recorder_and_namer() {
        let prog = parse_program(BLUE).unwrap();
        let network = ReteNetwork::compile(&prog).unwrap();
        let mut par =
            ThreadedMatcher::with_partition_profiled(network, Partition::round_robin(64, 3));
        par.process(&blue_wmes());
        let mut rec = TraceRecorder::new();
        name_threaded_tracks(&mut rec, par.worker_count());
        par.record_into(&mut rec);
        par.record_cycles_into(&mut rec);

        // Pin the literal names.
        assert!(rec
            .process_names()
            .iter()
            .any(|(p, n)| *p == THREADED_PID && n == "threaded matcher"));
        for w in 0..par.worker_count() {
            let expect = format!("match thread {w}");
            assert!(
                rec.track_names()
                    .iter()
                    .any(|(t, n)| *t == Track::match_worker(w) && *n == expect),
                "missing pinned lane name {expect:?}"
            );
        }
        // Every emitted track is a named track.
        let named: std::collections::BTreeSet<Track> =
            rec.track_names().iter().map(|(t, _)| *t).collect();
        for c in rec.counters() {
            assert!(
                named.contains(&c.track),
                "unnamed counter lane {:?}",
                c.track
            );
        }
        for s in rec.spans() {
            assert!(named.contains(&s.track), "unnamed span lane {:?}", s.track);
        }
    }

    /// Profiling must be observation-only: a profiled matcher produces
    /// the same conflict set as an unprofiled one and as the sequential
    /// engine, while its snapshot carries the threaded skew lanes.
    #[test]
    fn profiled_threaded_matches_identically_and_snapshots_metrics() {
        let src = "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (remove 1))";
        let prog = parse_program(src).unwrap();
        let mut changes = Vec::new();
        let mut id = 0u64;
        for v in 0..32i64 {
            for class in ["a", "b", "c"] {
                id += 1;
                changes.push(add(id, Wme::new(class, &[("v", v.into())])));
            }
        }
        let mut plain = ThreadedMatcher::from_program(&prog, 4).unwrap();
        let mut prof = ThreadedMatcher::from_program_profiled(&prog, 4).unwrap();
        assert!(!plain.is_profiled());
        assert!(prof.is_profiled());
        plain.process(&changes);
        prof.process(&changes);
        assert_eq!(plain.conflict_set(), prof.conflict_set());

        // Unprofiled snapshot is empty and cheap.
        assert!(plain.profile_snapshot().unwrap().is_empty());
        assert_eq!(plain.recorded_cycles(), 0);

        let snap = prof.profile_snapshot().unwrap();
        assert!(
            snap.counter_total(kernel::metric::NODE_ACTIVATIONS) > 0,
            "per-node activations recorded"
        );
        assert!(
            snap.counter_total(kernel::metric::BUCKET_ACTIVATIONS)
                == snap.counter_total(kernel::metric::NODE_ACTIVATIONS),
            "bucket and node lanes count the same activations"
        );
        assert!(
            snap.counter_total(metric::PEER_FORWARDED) > 0,
            "cross-worker forwarding recorded per peer"
        );
        let drains = snap
            .histogram(metric::DRAIN_ACTIVATIONS)
            .expect("per-drain skew lane present");
        assert!(drains.count() > 0);
        assert_eq!(prof.recorded_cycles(), 1);
        let wall = snap
            .histogram(kernel::metric::CYCLE_WALL_NS)
            .expect("cycle wall series");
        assert_eq!(wall.count(), 1);
        let work = snap
            .histogram(kernel::metric::CYCLE_WORK_NS)
            .expect("per-worker work split");
        let wait = snap
            .histogram(kernel::metric::CYCLE_WAIT_NS)
            .expect("per-worker wait split");
        assert_eq!(work.count(), 4, "one work sample per worker per cycle");
        assert_eq!(wait.count(), 4, "one wait sample per worker per cycle");

        // The snapshot is cumulative and repeatable between cycles.
        let again = prof.profile_snapshot().unwrap();
        assert_eq!(again, snap);

        // And the matcher still matches correctly afterwards.
        let w = Wme::new("a", &[("v", 0.into())]);
        prof.process(&[del(1, w)]);
        assert_eq!(prof.conflict_set().len(), 31);
        assert_eq!(prof.recorded_cycles(), 2);
    }

    #[test]
    fn migrate_to_same_partition_is_a_noop() {
        let prog = parse_program(BLUE).unwrap();
        let network = ReteNetwork::compile(&prog).unwrap();
        let partition = Partition::round_robin(64, 3);
        let mut par = ThreadedMatcher::with_partition(network, partition.clone());
        par.process(&blue_wmes());
        let stats = par.migrate_to(partition).unwrap();
        assert_eq!(stats, MigrationStats::default());
        assert_eq!(par.conflict_set().len(), 1);
    }

    /// Migrating every bucket onto one worker and back must move the
    /// stored token state losslessly: retractions after the round trip
    /// still find every entry (a lost or duplicated token would panic the
    /// kernel or diverge the conflict set).
    #[test]
    fn migration_round_trip_preserves_stored_state() {
        let src = r#"
            (p pair (slot ^v <x>) (east ^v <x>) (west ^v <x>) --> (remove 1))
            (p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))
        "#;
        let prog = parse_program(src).unwrap();
        let mut seq = ReteMatcher::from_program(&prog).unwrap();
        let network = ReteNetwork::compile(&prog).unwrap();
        let mut par = ThreadedMatcher::with_partition(network, Partition::round_robin(64, 4));

        let mut adds = Vec::new();
        let mut id = 0u64;
        for v in 0..6i64 {
            for class in ["slot", "east", "west"] {
                id += 1;
                adds.push(add(id, Wme::new(class, &[("v", v.into())])));
            }
            id += 1;
            adds.push(add(id, Wme::new("node", &[("id", v.into())])));
            id += 1;
            adds.push(add(id, Wme::new("edge", &[("to", v.into())])));
        }
        seq.process(&adds);
        par.process(&adds);
        assert_eq!(seq.conflict_set(), par.conflict_set());

        // Pile everything onto worker 0, then spread it back out. The
        // negative-node counts must survive both hops.
        let all_on_zero = Partition::from_owners(vec![0; 64], 4);
        let onto = par.migrate_to(all_on_zero).unwrap();
        assert!(onto.moved_buckets > 0);
        assert!(
            onto.moved_left + onto.moved_right > 0,
            "stored entries must travel: {onto:?}"
        );
        let back = par.migrate_to(Partition::round_robin(64, 4)).unwrap();
        assert!(back.moved_buckets > 0);

        // Retract every WME: every migrated entry must be found again.
        let removes: Vec<WmeChange> = adds
            .iter()
            .map(|c| WmeChange::remove(c.id, c.wme.clone()))
            .collect();
        seq.process(&removes);
        par.process(&removes);
        assert_eq!(seq.conflict_set(), par.conflict_set());
        assert!(par.conflict_set().is_empty());
    }

    /// Negative-node counts co-migrate with their bucket pair: flipping a
    /// negation *after* a migration must produce exactly the sequential
    /// conflict set.
    #[test]
    fn negation_flips_correctly_after_migration() {
        let src = "(p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))";
        let prog = parse_program(src).unwrap();
        let mut seq = ReteMatcher::from_program(&prog).unwrap();
        let network = ReteNetwork::compile(&prog).unwrap();
        let mut par = ThreadedMatcher::with_partition(network, Partition::round_robin(64, 4));
        let e7 = Wme::new("edge", &[("to", 7.into())]);
        let first = vec![
            add(1, Wme::new("node", &[("id", 7.into())])),
            add(2, Wme::new("node", &[("id", 8.into())])),
            add(3, e7.clone()),
        ];
        seq.process(&first);
        par.process(&first);
        assert_eq!(seq.conflict_set(), par.conflict_set());

        par.migrate_to(Partition::from_owners(vec![3; 64], 4))
            .unwrap();

        // Deleting the edge flips the blocked token live; the migrated
        // neg_count is what makes this transition fire exactly once.
        let second = vec![del(3, e7)];
        seq.process(&second);
        par.process(&second);
        assert_eq!(seq.conflict_set(), par.conflict_set());
        assert_eq!(par.conflict_set().len(), 2);
    }

    /// Migration-under-load stress: a cross-product-heavy workload with
    /// racing adds/deletes, re-partitioned between *every* cycle through
    /// rotating strategies. The ownership map and stored tokens must stay
    /// consistent — any loss or double-count diverges from the sequential
    /// engine or panics a kernel assert.
    #[test]
    fn migration_under_load_stress() {
        let src = r#"
            (p pair (slot ^v <x>) (east ^v <x>) (west ^v <x>) --> (remove 1))
            (p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))
        "#;
        let prog = parse_program(src).unwrap();
        for seed in 0..stress_iterations() {
            let values = 3 + (seed % 4) as i64;
            let mut seq = ReteMatcher::from_program(&prog).unwrap();
            let network = ReteNetwork::compile(&prog).unwrap();
            let mut par = ThreadedMatcher::with_partition(network, Partition::round_robin(64, 4));

            let mut id = 0u64;
            let mut first = Vec::new();
            for v in 0..values {
                for class in ["slot", "east", "west"] {
                    id += 1;
                    first.push(add(id, Wme::new(class, &[("v", v.into())])));
                }
                id += 1;
                first.push(add(id, Wme::new("node", &[("id", v.into())])));
                if v % 2 == 0 {
                    id += 1;
                    first.push(add(id, Wme::new("edge", &[("to", v.into())])));
                }
            }
            // Racing batch: delete the even-value east/west WMEs and the
            // edges, re-add fresh WMEs with the same join values.
            let mut second = Vec::new();
            for c in &first {
                let class = c.wme.class();
                let even = c
                    .wme
                    .get(mpps_ops::intern("v"))
                    .or_else(|| c.wme.get(mpps_ops::intern("to")))
                    .is_some_and(|v| matches!(v, mpps_ops::Value::Int(n) if n % 2 == 0));
                if even
                    && (class == mpps_ops::intern("east")
                        || class == mpps_ops::intern("west")
                        || class == mpps_ops::intern("edge"))
                {
                    second.push(WmeChange::remove(c.id, c.wme.clone()));
                }
            }
            for v in (0..values).step_by(2) {
                id += 1;
                second.push(add(id, Wme::new("east", &[("v", v.into())])));
                id += 1;
                second.push(add(id, Wme::new("west", &[("v", v.into())])));
            }
            let partitions = [
                Partition::random(64, 4, seed),
                Partition::from_owners(vec![(seed % 4) as u32; 64], 4),
                Partition::round_robin(64, 4),
            ];
            for (i, batch) in [&first, &second].into_iter().enumerate() {
                seq.process(batch);
                par.try_process(batch).expect("workers healthy");
                assert_eq!(
                    seq.conflict_set(),
                    par.conflict_set(),
                    "diverged at seed {seed} batch {i}"
                );
                par.migrate_to(partitions[(seed as usize + i) % partitions.len()].clone())
                    .expect("migration at the barrier");
                // Ownership changed but state didn't: still equivalent.
                assert_eq!(
                    seq.conflict_set(),
                    par.conflict_set(),
                    "migration changed the conflict set at seed {seed} batch {i}"
                );
            }
        }
    }

    /// The online repartitioner: starting from a deliberately terrible
    /// partition (every bucket on worker 0), the skew counters must
    /// trigger a greedy re-pack and migrate at the barrier, after which
    /// the matcher remains equivalent to the sequential engine.
    #[test]
    fn adaptive_repartitioner_rebalances_and_stays_equivalent() {
        let src = "(p j3 (a ^v <x>) (b ^v <x>) (c ^v <x>) --> (remove 1))";
        let prog = parse_program(src).unwrap();
        let mut seq = ReteMatcher::from_program(&prog).unwrap();
        let network = ReteNetwork::compile(&prog).unwrap();
        let mut par = ThreadedMatcher::with_partition_profiled(
            network,
            Partition::from_owners(vec![0; 64], 4),
        );
        par.enable_adaptation(AdaptOptions {
            every: 1,
            skew_threshold: 1.5,
        });

        let mut changes = Vec::new();
        let mut id = 0u64;
        for v in 0..32i64 {
            for class in ["a", "b", "c"] {
                id += 1;
                changes.push(add(id, Wme::new(class, &[("v", v.into())])));
            }
        }
        seq.process(&changes);
        par.process(&changes);
        assert_eq!(seq.conflict_set(), par.conflict_set());

        let events = par.rebalance_events();
        assert!(!events.is_empty(), "skewed start must trigger a rebalance");
        let e = events[0];
        assert!(
            e.skew_after < e.skew_before,
            "rebalance must project an improvement: {e:?}"
        );
        assert!(e.moved_buckets > 0);
        assert!(e.hot_bucket_share > 0.0 && e.hot_bucket_share <= 1.0);

        // Post-migration cycles stay equivalent (deletes probe migrated
        // entries).
        let removes: Vec<WmeChange> = changes
            .iter()
            .take(30)
            .map(|c| WmeChange::remove(c.id, c.wme.clone()))
            .collect();
        seq.process(&removes);
        par.process(&removes);
        assert_eq!(seq.conflict_set(), par.conflict_set());

        // A balanced partition should not keep re-triggering forever on
        // the same workload shape: events stay bounded by cycles.
        assert!(par.rebalance_events().len() as u64 <= par.stats().cycles);
    }
}
