//! One match processor: a thread whose only outputs are messages.
//!
//! A worker matches through the shared kernel over a full-size
//! [`GlobalMemories`] of its own and touches only the buckets its partition
//! assigns it. Its input is the cycle's change packet, whose constant tests
//! it runs for every change, keeping the roots it owns (§3.2), or a peer's
//! batch of forwarded left tokens. It holds no state the coordinator reads:
//! each input is drained to completion, and then everything the drain
//! produced goes out as messages — one `Drained` report to the coordinator,
//! then one coalesced batch per peer.

use super::{metric, ToCoordinator, ToWorker, WireWork, WorkerStats};
use crate::partition::Partition;
use crossbeam::channel::{Receiver, Sender};
use mpps_ops::{Instantiation, Sign};
use mpps_rete::kernel::{Kernel, Work};
use mpps_rete::{GlobalMemories, ReteNetwork};
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
    /// The current drain's instantiations, in generation order.
    prods: Vec<(Sign, Instantiation)>,
    /// The current drain's forwarded-token count and peak queue depth.
    forwarded: u64,
    max_queue_depth: u64,
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
            prods: Vec::new(),
            forwarded: 0,
            max_queue_depth: 0,
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
            // The constant tests of §3.2 over the whole packet: the kernel
            // keeps the roots this worker owns, so the owner of bucket 0
            // completes single-CE productions.
            ToWorker::Changes(changes) => self.drain(|w| {
                for change in changes.iter() {
                    w.kernel.roots(
                        &w.network,
                        change,
                        |bucket| w.partition.owner(bucket) == w.me,
                        &mut w.out,
                    );
                }
            }),
            ToWorker::Work(batch) => self.drain(|w| {
                for t in batch {
                    let token = w.kernel.arena.intern(&t.flat);
                    w.out.push(Work::Left {
                        node: t.node,
                        sign: t.sign,
                        token,
                        key_hash: t.key_hash,
                    });
                }
            }),
            ToWorker::Report => {
                let registry = Box::new(self.kernel.metrics.export());
                self.coordinator
                    .send(ToCoordinator::Metrics { registry })
                    .is_ok()
            }
            ToWorker::Shutdown => false,
            #[cfg(test)]
            ToWorker::Poison => {
                let _ = self.inbox.recv();
                panic!("worker {} poisoned by test hook", self.me)
            }
        }
    }

    /// Route the kernel's output: instantiations into the report, work on
    /// an owned bucket onto the local queue, and left tokens for another
    /// worker's bucket into that peer's batch.
    fn dispatch(&mut self) {
        let table_size = self.partition.table_size();
        for o in self.out.drain(..) {
            match o {
                Work::Prod {
                    production,
                    sign,
                    token,
                    ..
                } => {
                    let inst = self.kernel.instantiation(production, token);
                    self.kernel.arena.release(token);
                    self.prods.push((sign, inst));
                }
                Work::Left {
                    node,
                    sign,
                    token,
                    key_hash,
                } if self.partition.owner(key_hash % table_size) != self.me => {
                    let to = self.partition.owner(key_hash % table_size);
                    self.forwarded += 1;
                    self.kernel
                        .metrics
                        .add(metric::PEER_FORWARDED, to as u64, 1);
                    let flat = self.kernel.arena.extract(token);
                    self.kernel.arena.release(token);
                    self.outgoing[to].push(WireWork {
                        node,
                        sign,
                        flat,
                        key_hash,
                    });
                }
                work => {
                    self.local.push_back(work);
                    self.max_queue_depth = self.max_queue_depth.max(self.local.len() as u64);
                }
            }
        }
    }

    /// One drain: `input` puts the message's work in the kernel output
    /// scratch, which is dispatched like any kernel output; the local queue
    /// then runs to completion, and the coordinator gets the drain's report
    /// and each peer the tokens bound for it. The report's `work_ns` covers
    /// `input`, so a packet's constant tests count as match work.
    fn drain(&mut self, input: impl FnOnce(&mut Self)) -> bool {
        let timer = M::ENABLED.then(Instant::now);
        input(self);
        self.dispatch();
        let table_size = self.partition.table_size();
        let mut processed = 0u64;
        while let Some(item) = self.local.pop_front() {
            debug_assert_eq!(
                self.partition.owner(item.bucket(table_size)),
                self.me,
                "queued work must target an owned bucket"
            );
            self.kernel.activate(&self.network, item, &mut self.out);
            processed += 1;
            self.dispatch();
        }
        // Right work never leaves this worker, so none outlives the drain.
        self.kernel.end_batch();
        let work_ns = timer.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        self.kernel
            .metrics
            .observe(metric::DRAIN_ACTIVATIONS, processed);
        self.kernel.record_arena_metrics(self.me as u64);
        let probes = std::mem::take(&mut self.kernel.stats);
        let stats = WorkerStats {
            tokens_processed: processed,
            tokens_forwarded: std::mem::take(&mut self.forwarded),
            messages_sent: self.outgoing.iter().filter(|b| !b.is_empty()).count() as u64,
            max_queue_depth: std::mem::take(&mut self.max_queue_depth),
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
            prods: std::mem::take(&mut self.prods),
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
}
