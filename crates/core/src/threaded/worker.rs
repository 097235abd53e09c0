//! One match processor: a thread whose only outputs are messages.
//!
//! A worker matches through the shared kernel over a full-size
//! [`GlobalMemories`] of its own and touches only the buckets its partition
//! assigns it. It holds no state the coordinator reads: each `Work` batch
//! is drained to completion, and then everything the drain produced goes out
//! as messages — one `Drained` report to the coordinator, then one coalesced
//! batch per peer.

use super::{metric, MigratedEntry, ToCoordinator, ToWorker, WireWork, WorkerStats};
use crate::partition::Partition;
use crossbeam::channel::{Receiver, Sender};
use mpps_rete::kernel::{Kernel, RootWork, Work};
use mpps_rete::{GlobalMemories, LeftEntry, ReteNetwork, RightEntry};
use mpps_telemetry::{MetricSink, NullMetrics};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

pub(super) struct Worker<M: MetricSink = NullMetrics> {
    me: usize,
    network: Arc<ReteNetwork>,
    kernel: Kernel<M>,
    partition: Arc<Partition>,
    inbox: Receiver<ToWorker>,
    peers: Vec<Sender<ToWorker>>,
    coordinator: Sender<ToCoordinator>,
    /// The drain's work queue. FIFO is load-bearing: a +token and the
    /// cancelling −token of the same value are always generated on one
    /// thread (same parent bucket) and must reach their destination bucket
    /// in generation order, or the delete would precede the add.
    local: VecDeque<Work>,
    /// Left tokens bound for each peer, flushed as one batch per peer per
    /// drain; per-peer buffers keep the generation order.
    outgoing: Vec<Vec<WireWork>>,
    /// Kernel output scratch.
    out: Vec<Work>,
}

/// What every worker is wired to, whichever sink it is monomorphized over.
pub(super) type WorkerWiring = (
    Arc<ReteNetwork>,
    Arc<Partition>,
    Vec<Sender<ToWorker>>,
    Sender<ToCoordinator>,
);

impl<M: MetricSink + Send + 'static> Worker<M> {
    /// Start worker `me` on its own thread.
    pub(super) fn spawn(
        me: usize,
        metrics: M,
        inbox: Receiver<ToWorker>,
        (network, partition, peers, coordinator): WorkerWiring,
    ) -> JoinHandle<()> {
        let mem = GlobalMemories::new(partition.table_size());
        let worker = Worker {
            me,
            network,
            kernel: Kernel::with_metrics(mem, metrics),
            partition,
            inbox,
            outgoing: peers.iter().map(|_| Vec::new()).collect(),
            peers,
            coordinator,
            local: VecDeque::new(),
            out: Vec::new(),
        };
        std::thread::Builder::new()
            .name(format!("mpps-match-{me}"))
            .spawn(move || worker.run())
            .expect("spawn worker thread")
    }
}

impl<M: MetricSink> Worker<M> {
    fn run(mut self) {
        while let Ok(msg) = self.inbox.recv() {
            if !self.handle(msg) {
                return;
            }
        }
    }

    /// Handle one message. Returns `false` when the worker stops: on
    /// `Shutdown`, or once the coordinator or a peer it sends to is gone.
    fn handle(&mut self, msg: ToWorker) -> bool {
        match msg {
            ToWorker::Work(batch) => self.drain(batch),
            ToWorker::Report => {
                let registry = Box::new(self.kernel.metrics.export());
                self.coordinator
                    .send(ToCoordinator::Metrics { registry })
                    .is_ok()
            }
            ToWorker::Migrate(partition) => self.migrate(partition),
            ToWorker::Adopt(batch) => {
                self.adopt_migrated(batch);
                true
            }
            ToWorker::Shutdown => false,
            #[cfg(test)]
            ToWorker::Poison => {
                let _ = self.inbox.recv();
                panic!("worker {} poisoned by test hook", self.me)
            }
        }
    }

    /// Drain one batch to completion, then send the coordinator its report
    /// and each peer the tokens bound for it.
    fn drain(&mut self, batch: Vec<WireWork>) -> bool {
        let timer = M::ENABLED.then(Instant::now);
        for w in batch {
            let work = self.adopt(w);
            self.local.push_back(work);
        }
        let table_size = self.partition.table_size();
        let mut prods = Vec::new();
        let (mut processed, mut forwarded) = (0u64, 0u64);
        let mut max_queue_depth = self.local.len() as u64;
        while let Some(item) = self.local.pop_front() {
            debug_assert!(
                !matches!(item, Work::Prod { .. }),
                "prod work stays at the coordinator"
            );
            debug_assert_eq!(
                self.partition.owner(item.bucket(table_size)),
                self.me,
                "routed work must target an owned bucket"
            );
            self.kernel.activate(&self.network, item, &mut self.out);
            processed += 1;
            for o in self.out.drain(..) {
                match o {
                    Work::Prod {
                        node,
                        production,
                        sign,
                        token,
                    } => {
                        let inst =
                            self.kernel
                                .instantiation(&self.network, node, production, token);
                        self.kernel.arena.release(token);
                        prods.push((sign, inst));
                    }
                    Work::Left {
                        node,
                        sign,
                        token,
                        key_hash,
                    } => {
                        let to = self.partition.owner(key_hash % table_size);
                        if to == self.me {
                            self.local.push_back(Work::Left {
                                node,
                                sign,
                                token,
                                key_hash,
                            });
                            max_queue_depth = max_queue_depth.max(self.local.len() as u64);
                        } else {
                            forwarded += 1;
                            self.kernel
                                .metrics
                                .add(metric::PEER_FORWARDED, to as u64, 1);
                            let flat = self.kernel.arena.extract(token);
                            self.kernel.arena.release(token);
                            self.outgoing[to].push(WireWork::Left {
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
        }
        let work_ns = timer.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        self.kernel
            .metrics
            .observe(metric::DRAIN_ACTIVATIONS, processed);
        self.kernel.record_arena_metrics(self.me as u64);
        let probes = std::mem::take(&mut self.kernel.stats);
        let stats = WorkerStats {
            tokens_processed: processed,
            tokens_forwarded: forwarded,
            messages_sent: self.outgoing.iter().filter(|b| !b.is_empty()).count() as u64,
            instantiations_sent: prods.len() as u64,
            max_queue_depth,
            left_probes: probes.left_probes,
            right_probes: probes.right_probes,
            work_ns,
        };
        // The report is sent before the batches it counts. All replies
        // share one channel, so the report of a peer that drains one of
        // these batches can never overtake this one, and the coordinator's
        // in-flight count cannot reach zero while a batch is still out.
        let report = ToCoordinator::Drained {
            worker: self.me,
            prods,
            stats,
        };
        if self.coordinator.send(report).is_err() {
            return false;
        }
        for (to, buf) in self.outgoing.iter_mut().enumerate() {
            if !buf.is_empty()
                && self.peers[to]
                    .send(ToWorker::Work(std::mem::take(buf)))
                    .is_err()
            {
                return false;
            }
        }
        true
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

    /// Rebind this worker to a new partition (between cycles, so no tokens
    /// are in flight). Buckets it keeps stay where they are; each pair it
    /// loses is taken out, flattened and shipped to the coordinator for
    /// rerouting. Returns `false` if the coordinator is gone.
    fn migrate(&mut self, partition: Arc<Partition>) -> bool {
        let mut exports: Vec<Vec<MigratedEntry>> =
            (0..self.peers.len()).map(|_| Vec::new()).collect();
        for bucket in 0..partition.table_size() {
            let to = partition.owner(bucket);
            if self.partition.owner(bucket) != self.me || to == self.me {
                continue;
            }
            let (lefts, rights) = self.kernel.mem.take_bucket(bucket);
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
    /// owns (its own `Migrate` has already rebound the partition).
    fn adopt_migrated(&mut self, batch: Vec<MigratedEntry>) {
        let table_size = self.partition.table_size();
        for entry in batch {
            match entry {
                MigratedEntry::Left {
                    node,
                    key_hash,
                    flat,
                    neg_count,
                } => {
                    let bucket = key_hash % table_size;
                    debug_assert_eq!(
                        self.partition.owner(bucket),
                        self.me,
                        "adopted entry must target an owned bucket"
                    );
                    let token = self.kernel.arena.intern(&flat);
                    self.kernel.mem.left_bucket_mut(bucket).push(LeftEntry {
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
                    let bucket = key_hash % table_size;
                    debug_assert_eq!(
                        self.partition.owner(bucket),
                        self.me,
                        "adopted entry must target an owned bucket"
                    );
                    self.kernel.mem.right_bucket_mut(bucket).push(RightEntry {
                        node,
                        key_hash,
                        wme_id,
                        wme,
                    });
                }
            }
        }
    }
}
