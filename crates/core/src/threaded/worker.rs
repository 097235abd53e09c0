//! One match processor: a thread draining its work queue through the
//! shared kernel over the shard of the two global hash tables it owns.

use super::{metric, MigratedEntry, ToCoordinator, ToWorker, WireWork, WorkerCounters};
use crate::partition::Partition;
use crossbeam::channel::{Receiver, Sender};
use mpps_rete::kernel::{Kernel, RootWork, Work};
use mpps_rete::{LeftEntry, ReteNetwork, RightEntry, ShardedMemories, TokenStore};
use mpps_telemetry::{MetricSink, NullMetrics};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub(super) struct Worker<M: MetricSink = NullMetrics> {
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

/// What every worker is wired to, whichever sink it is monomorphized over.
pub(super) type WorkerWiring = (
    Arc<ReteNetwork>,
    Arc<Partition>,
    Vec<Sender<ToWorker>>,
    Sender<ToCoordinator>,
    Arc<AtomicI64>,
    Arc<WorkerCounters>,
);

impl<M: MetricSink + Send + 'static> Worker<M> {
    /// Start worker `me` on its own thread.
    pub(super) fn spawn(
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
