//! The message-passing machine: sequential processors + interconnect.
//!
//! Cost semantics (matching §4 / Table 5-1 of the paper):
//!
//! * a handler's declared [`Ctx::compute`] time occupies its processor;
//! * every remote [`Ctx::send`] costs `send_overhead` of *sender* CPU; the
//!   message then spends the network latency on the wire (occupying no
//!   CPU) and `recv_overhead` of *receiver* CPU when its handler starts;
//! * a [`Ctx::broadcast`] costs one `send_overhead` (Nectar-style hardware
//!   broadcast) and delivers to every other processor;
//! * self-sends bypass all three costs but still queue — a processor works
//!   on one message at a time, FIFO in arrival order.
//!
//! The simulation is event-driven and fully deterministic.

use crate::event::EventQueue;
use crate::metrics::{MachineMetrics, ProcessorMetrics};
use crate::network::{NetworkModel, NetworkUsage};
use crate::time::SimTime;
use mpps_telemetry::{NullMetrics, Recorder, Track};
use std::collections::VecDeque;

/// Index of a processor in the machine.
pub type ProcId = usize;

/// Machine-wide cost parameters.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Number of processors (nodes).
    pub processors: usize,
    /// CPU time a sender spends per remote message (Table 5-1 "send").
    pub send_overhead: SimTime,
    /// CPU time a receiver spends per remote message (Table 5-1 "receive").
    pub recv_overhead: SimTime,
    /// The interconnect model (latency only; never occupies a CPU).
    pub network: NetworkModel,
}

impl MachineConfig {
    /// A machine with `processors` nodes and zero communication costs.
    pub fn ideal(processors: usize) -> Self {
        MachineConfig {
            processors,
            send_overhead: SimTime::ZERO,
            recv_overhead: SimTime::ZERO,
            network: NetworkModel::Constant(SimTime::ZERO),
        }
    }
}

/// Behaviour of one processor.
pub trait Node {
    /// Message type exchanged between nodes.
    type Msg: Clone;

    /// Called for each delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: ProcId, msg: Self::Msg);

    /// Static label for the handler that `msg` will run — used to name
    /// telemetry spans. Only called when the simulator's [`Recorder`] is
    /// enabled.
    fn describe(&self, _msg: &Self::Msg) -> &'static str {
        "message"
    }
}

/// Where an outgoing message should go.
struct Outgoing<M> {
    /// Simulated instant the message leaves the sender.
    departure: SimTime,
    to: ProcId,
    msg: M,
    /// True when produced by `send`/`broadcast` to a remote node (pays
    /// network latency + receive overhead); false for self-sends.
    remote: bool,
}

/// Handler-side view of the machine: declares compute time and sends.
pub struct Ctx<'a, M> {
    me: ProcId,
    start: SimTime,
    elapsed: SimTime,
    cfg: &'a MachineConfig,
    outgoing: Vec<Outgoing<M>>,
}

impl<'a, M: Clone> Ctx<'a, M> {
    /// This processor's id.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Current simulated time inside the handler.
    pub fn now(&self) -> SimTime {
        self.start + self.elapsed
    }

    /// Number of processors in the machine.
    pub fn processors(&self) -> usize {
        self.cfg.processors
    }

    /// Spend `dt` of this processor's time.
    pub fn compute(&mut self, dt: SimTime) {
        self.elapsed += dt;
    }

    /// Send `msg` to `to`. Remote sends cost `send_overhead` CPU time here
    /// and latency + `recv_overhead` on the way; self-sends are free but
    /// queue behind other work.
    pub fn send(&mut self, to: ProcId, msg: M) {
        assert!(to < self.cfg.processors, "send to unknown processor {to}");
        if to == self.me {
            self.outgoing.push(Outgoing {
                departure: self.now(),
                to,
                msg,
                remote: false,
            });
        } else {
            self.elapsed += self.cfg.send_overhead;
            self.outgoing.push(Outgoing {
                departure: self.now(),
                to,
                msg,
                remote: true,
            });
        }
    }

    /// Broadcast to every *other* processor for the cost of a single send
    /// overhead (hardware broadcast, as the paper assumes for the control
    /// processor's WME packet).
    pub fn broadcast(&mut self, msg: M) {
        self.elapsed += self.cfg.send_overhead;
        let departure = self.now();
        for to in 0..self.cfg.processors {
            if to != self.me {
                self.outgoing.push(Outgoing {
                    departure,
                    to,
                    msg: msg.clone(),
                    remote: true,
                });
            }
        }
    }
}

enum Event<M> {
    /// A message finished its network transit and joins `to`'s queue.
    Arrival {
        to: ProcId,
        from: ProcId,
        msg: M,
        remote: bool,
    },
    /// `proc` is free and has queued work: start the next message.
    Wakeup { proc: ProcId },
}

/// A processor's one queued [`Event::Wakeup`] and the requests held behind
/// it.
///
/// Every request reserves its sequence number, as a push would, so all
/// other events keep their order. A request for the time of the queued
/// wakeup is held instead of queued: a handler that costs nothing leaves
/// the processor free at that time, and the next message must then start
/// at the lowest held `(time, seq)` (see `Simulator::release_held_wakeup`).
#[derive(Default)]
struct WakeSlot {
    /// Time of the processor's wakeup in the event queue (or being
    /// handled); `None` when it has none.
    time: Option<SimTime>,
    /// Sequence numbers of the requests held for `time`, ascending.
    held: VecDeque<u64>,
}

/// Outcome of a [`Simulator::run`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Time the last processor finished.
    pub makespan: SimTime,
    /// Per-processor and network statistics.
    pub metrics: MachineMetrics,
}

/// The discrete-event machine simulator.
///
/// Generic over a telemetry [`Recorder`]; the default [`NullMetrics`]
/// monomorphizes every recording site away, so `Simulator<N>` is the
/// uninstrumented simulator it always was. Pass a
/// [`mpps_telemetry::TraceRecorder`] (usually via
/// [`Simulator::with_recorder`]) to capture per-processor busy spans in
/// simulated time, queue-depth counters, and network-transit samples.
pub struct Simulator<N: Node, R: Recorder = NullMetrics> {
    cfg: MachineConfig,
    nodes: Vec<N>,
    queue: EventQueue<Event<N::Msg>>,
    pending: Vec<VecDeque<(ProcId, N::Msg, bool)>>,
    wakes: Vec<WakeSlot>,
    /// A handler's sends, kept between handlers so a run allocates it once.
    outgoing: Vec<Outgoing<N::Msg>>,
    free_at: Vec<SimTime>,
    proc_metrics: Vec<ProcessorMetrics>,
    usage: NetworkUsage,
    /// Events a run may take before it panics as a livelock: unlimited,
    /// except where a test lowers it.
    max_events: u64,
    recorder: R,
}

impl<N: Node> Simulator<N> {
    /// Build a simulator; `nodes.len()` must equal `cfg.processors`.
    pub fn new(cfg: MachineConfig, nodes: Vec<N>) -> Self {
        Simulator::with_recorder(cfg, nodes, NullMetrics)
    }
}

impl<N: Node, R: Recorder> Simulator<N, R> {
    /// Build a simulator that reports telemetry to `recorder`.
    pub fn with_recorder(cfg: MachineConfig, nodes: Vec<N>, recorder: R) -> Self {
        assert_eq!(
            nodes.len(),
            cfg.processors,
            "one node per configured processor"
        );
        assert!(cfg.processors > 0, "need at least one processor");
        Simulator {
            pending: (0..cfg.processors).map(|_| VecDeque::new()).collect(),
            wakes: (0..cfg.processors).map(|_| WakeSlot::default()).collect(),
            outgoing: Vec::new(),
            free_at: vec![SimTime::ZERO; cfg.processors],
            proc_metrics: vec![ProcessorMetrics::default(); cfg.processors],
            nodes,
            cfg,
            // Every processor typically has at least a couple of deliveries
            // in flight; pre-size so small simulations never reallocate the
            // heap mid-cycle.
            queue: EventQueue::with_capacity(4 * cfg.processors),
            usage: NetworkUsage::default(),
            max_events: u64::MAX,
            recorder,
        }
    }

    /// Inject an external message (delivered like a self-send: no
    /// overheads). This is how a run gets its first message.
    pub fn inject(&mut self, time: SimTime, to: ProcId, msg: N::Msg) {
        assert!(to < self.cfg.processors, "inject to unknown processor");
        self.queue.push(
            time,
            Event::Arrival {
                to,
                from: to,
                msg,
                remote: false,
            },
        );
    }

    /// Immutable access to a node (e.g. to read results after `run`).
    pub fn node(&self, id: ProcId) -> &N {
        &self.nodes[id]
    }

    /// The telemetry recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Consume the simulator and return its recorder (to export a trace
    /// after the run).
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Run a handler on `proc` starting at `start`; schedules outgoing
    /// messages and advances the processor clock.
    fn execute<F>(&mut self, proc: ProcId, start: SimTime, label: &'static str, f: F)
    where
        F: FnOnce(&mut N, &mut Ctx<'_, N::Msg>),
    {
        let mut ctx = Ctx {
            me: proc,
            start,
            elapsed: SimTime::ZERO,
            cfg: &self.cfg,
            outgoing: std::mem::take(&mut self.outgoing),
        };
        f(&mut self.nodes[proc], &mut ctx);
        let elapsed = ctx.elapsed;
        let mut outgoing = ctx.outgoing;
        for out in outgoing.drain(..) {
            if out.remote {
                let latency = self.cfg.network.latency(proc, out.to);
                let arrival = out.departure + latency;
                self.usage.record(out.departure, arrival);
                self.proc_metrics[proc].messages_sent += 1;
                if R::ENABLED {
                    self.recorder.observe("network-transit-ns", latency.as_ns());
                }
                self.queue.push(
                    arrival,
                    Event::Arrival {
                        to: out.to,
                        from: proc,
                        msg: out.msg,
                        remote: true,
                    },
                );
            } else {
                self.queue.push(
                    out.departure,
                    Event::Arrival {
                        to: out.to,
                        from: proc,
                        msg: out.msg,
                        remote: false,
                    },
                );
            }
        }
        self.outgoing = outgoing;
        let end = start + elapsed;
        if R::ENABLED && elapsed > SimTime::ZERO {
            self.recorder
                .span(Track::sim_proc(proc), label, start.as_ns(), end.as_ns());
        }
        self.free_at[proc] = end;
        self.proc_metrics[proc].busy_time += elapsed;
        if !self.pending[proc].is_empty() {
            self.request_wakeup(proc, end);
        }
    }

    /// Ask for a wakeup of `proc` at `at`, which is its free time. Only one
    /// per processor per time is queued; the rest are held.
    fn request_wakeup(&mut self, proc: ProcId, at: SimTime) {
        let seq = self.queue.reserve_seq();
        let slot = &mut self.wakes[proc];
        if slot.time == Some(at) {
            slot.held.push_back(seq);
        } else {
            // A request for another time comes only while the wakeup at
            // the old time is being handled and its message keeps the
            // processor busy past it: the held requests would find it busy.
            slot.held.clear();
            slot.time = Some(at);
            self.queue.push_at(at, seq, Event::Wakeup { proc });
        }
    }

    /// After `proc`'s wakeup at `time` has started its message: if that
    /// cost nothing and work is left, the next message starts where the
    /// lowest held request for `time` stands, so queue it under its own
    /// sequence number. Otherwise every held request would find the
    /// processor busy or its queue empty: drop them.
    fn release_held_wakeup(&mut self, proc: ProcId, time: SimTime) {
        let slot = &mut self.wakes[proc];
        if slot.time != Some(time) {
            // The message keeps `proc` busy and left work: a request for
            // its end already replaced the held ones.
            return;
        }
        let free = self.free_at[proc] <= time && !self.pending[proc].is_empty();
        match slot.held.pop_front() {
            Some(seq) if free => self.queue.push_at(time, seq, Event::Wakeup { proc }),
            _ => {
                slot.held.clear();
                slot.time = None;
            }
        }
    }

    /// Start the next queued message on `proc` at `now` (which must be ≥
    /// its free time).
    fn run_next_pending(&mut self, proc: ProcId, now: SimTime) {
        if let Some((from, msg, remote)) = self.pending[proc].pop_front() {
            if R::ENABLED {
                self.recorder.counter(
                    Track::sim_proc(proc),
                    "queue-depth",
                    now.as_ns(),
                    self.pending[proc].len() as u64,
                );
            }
            self.start_message(proc, now, from, msg, remote);
        }
    }

    fn start_message(
        &mut self,
        proc: ProcId,
        start: SimTime,
        from: ProcId,
        msg: N::Msg,
        remote: bool,
    ) {
        self.proc_metrics[proc].messages_handled += 1;
        let recv = if remote {
            self.cfg.recv_overhead
        } else {
            SimTime::ZERO
        };
        let label = if R::ENABLED {
            self.nodes[proc].describe(&msg)
        } else {
            "message"
        };
        self.execute(proc, start, label, |node, ctx| {
            ctx.compute(recv);
            node.on_message(ctx, from, msg);
        });
    }

    /// Process the injected messages and everything they cause until no
    /// event remains.
    pub fn run(&mut self) -> RunReport {
        let mut events: u64 = 0;
        while let Some((time, ev)) = self.queue.pop() {
            events += 1;
            assert!(
                events <= self.max_events,
                "event budget exhausted: likely livelock in node logic"
            );
            match ev {
                Event::Arrival {
                    to,
                    from,
                    msg,
                    remote,
                } => {
                    if self.free_at[to] <= time && self.pending[to].is_empty() {
                        self.start_message(to, time, from, msg, remote);
                    } else {
                        self.pending[to].push_back((from, msg, remote));
                        if R::ENABLED {
                            let depth = self.pending[to].len() as u64;
                            self.recorder.counter(
                                Track::sim_proc(to),
                                "queue-depth",
                                time.as_ns(),
                                depth,
                            );
                            self.recorder.observe("queue-depth", depth);
                        }
                        let wake = self.free_at[to].max(time);
                        self.request_wakeup(to, wake);
                    }
                }
                Event::Wakeup { proc } => {
                    debug_assert!(
                        self.free_at[proc] <= time && !self.pending[proc].is_empty(),
                        "a wakeup that starts no message"
                    );
                    if self.free_at[proc] <= time {
                        self.run_next_pending(proc, time);
                    }
                    self.release_held_wakeup(proc, time);
                }
            }
        }
        let makespan = self.free_at.iter().copied().max().unwrap_or(SimTime::ZERO);
        RunReport {
            makespan,
            metrics: MachineMetrics {
                processors: self.proc_metrics.clone(),
                network_busy: self.usage.busy_time(),
                network_messages: self.usage.messages,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<N: Node, R: Recorder> Simulator<N, R> {
        /// Safety valve: abort after this many events (default
        /// unlimited). The guard in [`Simulator::run`] stays in every
        /// build; only tests lower it.
        fn set_max_events(&mut self, max: u64) {
            self.max_events = max;
        }
    }

    /// Relays a counter around the ring `hops` times, spending `work` per
    /// hop. An injected `None` at processor 0 sends the first hop.
    struct Relay {
        work: SimTime,
        hops: u32,
        received: u32,
    }

    impl Node for Relay {
        type Msg = Option<u32>;
        fn on_message(&mut self, ctx: &mut Ctx<'_, Option<u32>>, _from: ProcId, msg: Option<u32>) {
            let Some(remaining) = msg else {
                ctx.send(1 % ctx.processors(), Some(self.hops));
                return;
            };
            self.received += 1;
            ctx.compute(self.work);
            if remaining > 0 {
                let next = (ctx.me() + 1) % ctx.processors();
                ctx.send(next, Some(remaining - 1));
            }
        }
    }

    fn relay_machine(
        procs: usize,
        send: u64,
        recv: u64,
        latency: u64,
        work: u64,
        hops: u32,
    ) -> Simulator<Relay> {
        let cfg = MachineConfig {
            processors: procs,
            send_overhead: SimTime::from_us(send),
            recv_overhead: SimTime::from_us(recv),
            network: NetworkModel::Constant(SimTime::from_us(latency)),
        };
        let nodes = (0..procs)
            .map(|_| Relay {
                work: SimTime::from_us(work),
                hops,
                received: 0,
            })
            .collect();
        let mut sim = Simulator::new(cfg, nodes);
        sim.inject(SimTime::ZERO, 0, None);
        sim
    }

    #[test]
    fn single_hop_accounts_all_costs() {
        // send(5) on proc0, latency(2), recv(3)+work(10) on proc1.
        let mut sim = relay_machine(2, 5, 3, 2, 10, 0);
        let report = sim.run();
        assert_eq!(report.makespan, SimTime::from_us(5 + 2 + 3 + 10));
        assert_eq!(report.metrics.processors[0].busy_time, SimTime::from_us(5));
        assert_eq!(report.metrics.processors[1].busy_time, SimTime::from_us(13));
        assert_eq!(report.metrics.network_messages, 1);
        assert_eq!(report.metrics.network_busy, SimTime::from_us(2));
    }

    #[test]
    fn ring_of_hops_sums_linearly() {
        // 4 hops around 4 procs: each hop = send 1 + latency 1 + recv 1 + work 2.
        let mut sim = relay_machine(4, 1, 1, 1, 2, 3);
        let report = sim.run();
        // Walk: p0's send completes at 1; arrive p1 at 2; each relaying
        // handler takes recv(1)+work(2)+send(1)=4 and the message spends
        // latency 1 on the wire. p1: 2..6, p2: 7..11, p3: 12..16 (receives
        // remaining=1, still relays a final 0), p0: 17..20 (recv+work, no
        // further send).
        assert_eq!(report.makespan, SimTime::from_us(20));
        let handled: u32 = (0..4).map(|i| sim.node(i).received).sum();
        assert_eq!(handled, 4);
    }

    #[test]
    fn self_send_skips_overheads_but_queues() {
        /// An injected `true` does 4us of work and sends itself two jobs.
        struct SelfLoop {
            left: u32,
        }
        impl Node for SelfLoop {
            type Msg = bool;
            fn on_message(&mut self, ctx: &mut Ctx<'_, bool>, _f: ProcId, kick: bool) {
                if kick {
                    ctx.compute(SimTime::from_us(4));
                    ctx.send(ctx.me(), false);
                    ctx.send(ctx.me(), false);
                } else {
                    self.left -= 1;
                    ctx.compute(SimTime::from_us(10));
                }
            }
        }
        let cfg = MachineConfig {
            processors: 1,
            send_overhead: SimTime::from_us(99),
            recv_overhead: SimTime::from_us(99),
            network: NetworkModel::Constant(SimTime::from_us(99)),
        };
        let mut sim = Simulator::new(cfg, vec![SelfLoop { left: 2 }]);
        sim.inject(SimTime::ZERO, 0, true);
        let report = sim.run();
        // No send/recv overhead, no latency: 4 + 10 + 10.
        assert_eq!(report.makespan, SimTime::from_us(24));
        assert_eq!(sim.node(0).left, 0);
        assert_eq!(report.metrics.network_messages, 0);
    }

    #[test]
    fn busy_processor_queues_messages_fifo() {
        /// An injected `None` makes node 0 send three jobs to node 1
        /// back-to-back; node 1 records processing order.
        struct Sink {
            order: Vec<u32>,
        }
        impl Node for Sink {
            type Msg = Option<u32>;
            fn on_message(&mut self, ctx: &mut Ctx<'_, Option<u32>>, _f: ProcId, m: Option<u32>) {
                match m {
                    None => (0..3).for_each(|k| ctx.send(1, Some(k))),
                    Some(k) => {
                        self.order.push(k);
                        ctx.compute(SimTime::from_us(50));
                    }
                }
            }
        }
        let cfg = MachineConfig {
            processors: 2,
            send_overhead: SimTime::from_us(1),
            recv_overhead: SimTime::from_us(1),
            network: NetworkModel::Constant(SimTime::from_ns(500)),
        };
        let mut sim = Simulator::new(cfg, vec![Sink { order: vec![] }, Sink { order: vec![] }]);
        sim.inject(SimTime::ZERO, 0, None);
        let report = sim.run();
        assert_eq!(sim.node(1).order, vec![0, 1, 2]);
        // p0: 3 sends = 3us. p1: three handlers of 51us each, first starts
        // at 1.5us => ends 154.5us.
        assert_eq!(report.makespan, SimTime::from_ns(154_500));
        assert_eq!(report.metrics.processors[1].messages_handled, 3);
    }

    #[test]
    fn zero_cost_handlers_start_in_event_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        /// Logs `(time, proc, msg)` as each message starts. `w` and `x`
        /// keep their processor busy 10 µs, `B` 5 µs, the rest cost nothing.
        struct Script {
            log: Rc<RefCell<Vec<(u64, ProcId, char)>>>,
        }
        impl Node for Script {
            type Msg = char;
            fn on_message(&mut self, ctx: &mut Ctx<'_, char>, _f: ProcId, m: char) {
                self.log.borrow_mut().push((ctx.now().as_ns(), ctx.me(), m));
                match m {
                    'w' => ctx.compute(SimTime::from_us(10)),
                    'k' => {
                        "ABCD".chars().for_each(|c| ctx.send(1, c));
                        ctx.send(2, 'x');
                    }
                    'x' => {
                        ctx.compute(SimTime::from_us(10));
                        ctx.send(3, 'X');
                    }
                    'X' => ctx.send(1, 'Y'),
                    'B' => ctx.compute(SimTime::from_us(5)),
                    _ => {}
                }
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let nodes = (0..4).map(|_| Script { log: log.clone() }).collect();
        let mut sim = Simulator::new(MachineConfig::ideal(4), nodes);
        sim.inject(SimTime::ZERO, 1, 'w');
        sim.inject(SimTime::ZERO, 0, 'k');
        let report = sim.run();
        // A..D arrive at 0 while processor 1 is busy until 10. At 10, A costs
        // nothing, so B starts at once, before X (queued at 0 by x, after
        // the requests for A..D); B then holds processor 1 until 15, so
        // C, D and Y (sent at 10 by X) start there.
        let us = |t: u64| t * 1_000;
        assert_eq!(
            *log.borrow(),
            [
                (0, 1, 'w'),
                (0, 0, 'k'),
                (0, 2, 'x'),
                (us(10), 1, 'A'),
                (us(10), 1, 'B'),
                (us(10), 3, 'X'),
                (us(15), 1, 'C'),
                (us(15), 1, 'D'),
                (us(15), 1, 'Y'),
            ]
        );
        assert_eq!(report.makespan, SimTime::from_us(15));
    }

    #[test]
    fn broadcast_costs_one_send() {
        /// An injected `true` makes node 0 broadcast.
        struct Bcast {
            got: bool,
        }
        impl Node for Bcast {
            type Msg = bool;
            fn on_message(&mut self, ctx: &mut Ctx<'_, bool>, _f: ProcId, kick: bool) {
                if kick {
                    ctx.broadcast(false);
                } else {
                    self.got = true;
                    ctx.compute(SimTime::from_us(7));
                }
            }
        }
        let cfg = MachineConfig {
            processors: 5,
            send_overhead: SimTime::from_us(2),
            recv_overhead: SimTime::from_us(1),
            network: NetworkModel::Constant(SimTime::from_us(1)),
        };
        let mut sim = Simulator::new(cfg, (0..5).map(|_| Bcast { got: false }).collect());
        sim.inject(SimTime::ZERO, 0, true);
        let report = sim.run();
        assert!((1..5).all(|i| sim.node(i).got));
        assert!(!sim.node(0).got);
        // One send overhead on p0; everyone receives at 3us, done at 11us.
        assert_eq!(report.metrics.processors[0].busy_time, SimTime::from_us(2));
        assert_eq!(report.makespan, SimTime::from_us(11));
    }

    #[test]
    fn injected_message_starts_at_its_time() {
        struct Echo {
            count: u32,
        }
        impl Node for Echo {
            type Msg = ();
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _f: ProcId, _m: ()) {
                self.count += 1;
                ctx.compute(SimTime::from_us(3));
            }
        }
        let mut sim = Simulator::new(
            MachineConfig::ideal(2),
            vec![Echo { count: 0 }, Echo { count: 0 }],
        );
        sim.inject(SimTime::from_us(10), 1, ());
        let report = sim.run();
        assert_eq!(sim.node(1).count, 1);
        assert_eq!(report.makespan, SimTime::from_us(13));
    }

    #[test]
    fn trace_recorder_captures_spans_without_changing_results() {
        use mpps_telemetry::TraceRecorder;

        let plain = {
            let mut sim = relay_machine(4, 1, 1, 1, 2, 3);
            sim.run()
        };
        let cfg = MachineConfig {
            processors: 4,
            send_overhead: SimTime::from_us(1),
            recv_overhead: SimTime::from_us(1),
            network: NetworkModel::Constant(SimTime::from_us(1)),
        };
        let nodes = (0..4)
            .map(|_| Relay {
                work: SimTime::from_us(2),
                hops: 3,
                received: 0,
            })
            .collect();
        let mut sim = Simulator::with_recorder(cfg, nodes, TraceRecorder::new());
        sim.inject(SimTime::ZERO, 0, None);
        let traced = sim.run();
        assert_eq!(traced.makespan, plain.makespan);
        assert_eq!(traced.metrics, plain.metrics);

        let rec = sim.into_recorder();
        // Every busy interval shows up as a span; their per-track sum must
        // equal the reported busy time.
        for (proc, pm) in plain.metrics.processors.iter().enumerate() {
            let track_busy: u64 = rec
                .spans()
                .iter()
                .filter(|s| s.track == Track::sim_proc(proc))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            assert_eq!(track_busy, pm.busy_time.as_ns(), "proc {proc}");
        }
        // Default describe() labels message handlers.
        assert!(rec.spans().iter().any(|s| s.name == "message"));
        assert_eq!(
            rec.histogram("network-transit-ns").unwrap().count(),
            plain.metrics.network_messages
        );
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sim = relay_machine(8, 2, 1, 1, 3, 20);
            sim.run().makespan
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "event budget")]
    fn livelock_guard_trips() {
        struct Forever;
        impl Node for Forever {
            type Msg = ();
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _f: ProcId, _m: ()) {
                ctx.send(ctx.me(), ());
            }
        }
        let mut sim = Simulator::new(MachineConfig::ideal(1), vec![Forever]);
        sim.set_max_events(1000);
        sim.inject(SimTime::ZERO, 0, ());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "one node per configured processor")]
    fn node_count_mismatch_panics() {
        struct N;
        impl Node for N {
            type Msg = ();
            fn on_message(&mut self, _c: &mut Ctx<'_, ()>, _f: ProcId, _m: ()) {}
        }
        let _ = Simulator::new(MachineConfig::ideal(3), vec![N]);
    }
}
