//! The trace-driven simulated executor: §3.2's match procedure on the MPC.
//!
//! Each MRA cycle of an activation [`Trace`] is replayed on a simulated
//! machine of one **control processor** (id 0) plus the **match
//! processors**:
//!
//! 1. the control processor broadcasts the cycle's WME packet;
//! 2. every match processor evaluates all constant tests (30 µs,
//!    deliberately duplicated work) and keeps only the *root* activations
//!    whose hash bucket it owns — processing them **as a single unit**
//!    (the coarse granularity for the low-variance right activations);
//! 3. each activation stores its token and generates successor tokens
//!    (16 µs apiece), which are routed — **individually** (the fine
//!    granularity for the high-variance left tokens) — to the owner of
//!    their destination bucket;
//! 4. complete instantiations are sent to the control processor;
//! 5. the cycle ends when all activations have been processed; the next
//!    cycle then begins. The paper does not simulate termination
//!    detection; [`TerminationModel::Reports`] prices the detector the
//!    threaded executor runs.
//!
//! This is the **combined** mapping of §3.2 (both buckets of an index on
//! one match processor), which all of the paper's simulations use.

use crate::cost::{CostModel, OverheadSetting, NECTAR_LATENCY};
use crate::partition::Partition;
use mpps_mpcsim::{Ctx, MachineConfig, NetworkModel, Node, ProcId, SimTime, Simulator};
use mpps_rete::trace::{ActKind, ActivationRecord};
use mpps_rete::{Side, Trace};
use mpps_telemetry::{NullMetrics, OffsetRecorder, Recorder, TraceRecorder, Track};

/// How the end of a cycle's token cascade is detected.
///
/// The paper's simulator is omniscient ("we do not simulate termination
/// detection"); a real implementation must pay for it every cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TerminationModel {
    /// Omniscient cycle boundary (the paper's assumption).
    #[default]
    Omniscient,
    /// The threaded executor's detector (`crate::threaded`, §Termination
    /// detection): a worker sends the coordinator one `Drained` report per
    /// inbound packet or peer batch, and the coordinator counts them down.
    /// Here, at the simulator's granularity of one message per routed
    /// token, a match processor sends the control processor one report
    /// after each message that came from another processor: the WME packet
    /// or a routed token. A report costs a send overhead, the latency and
    /// a receive overhead at the control processor, and nothing else. The
    /// cycle still ends at quiescence, so the last report falls inside the
    /// makespan.
    Reports,
}

/// Full configuration of one simulated mapping run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MappingConfig {
    /// Number of match processors (the machine adds one control
    /// processor).
    pub match_processors: usize,
    /// Match micro-task costs.
    pub cost: CostModel,
    /// Message-processing overheads (a Table 5-1 row).
    pub overhead: OverheadSetting,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Cycle-boundary detection cost model.
    pub termination: TerminationModel,
}

impl MappingConfig {
    /// The paper's standard configuration: combined mapping, broadcast
    /// roots, omniscient termination, Nectar latency (0.5 µs), chosen
    /// overhead row.
    pub fn standard(match_processors: usize, overhead: OverheadSetting) -> Self {
        MappingConfig {
            match_processors,
            cost: CostModel::default(),
            overhead,
            network: NetworkModel::Constant(NECTAR_LATENCY),
            termination: TerminationModel::Omniscient,
        }
    }

    /// The speedup baseline: one match processor, zero overheads, zero
    /// latency ("the results from runs simulating a single match processor
    /// with zero communication overheads", §5.1).
    pub fn baseline() -> Self {
        MappingConfig {
            match_processors: 1,
            cost: CostModel::default(),
            overhead: OverheadSetting::ZERO,
            network: NetworkModel::Constant(SimTime::ZERO),
            termination: TerminationModel::Omniscient,
        }
    }
}

/// Outcome of one simulated MRA cycle.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// Wall-clock of the cycle's match phase.
    pub makespan: SimTime,
    /// Busy time per machine processor (index 0 = control).
    pub proc_busy: Vec<SimTime>,
    /// Left two-input activations processed per *match* processor.
    pub left_acts: Vec<u64>,
    /// Right two-input activations processed per *match* processor.
    pub right_acts: Vec<u64>,
    /// Messages carried by the interconnect.
    pub network_messages: u64,
    /// Time the interconnect had at least one message in flight.
    pub network_busy: SimTime,
    /// Instantiations delivered to the control processor.
    pub instantiations: u64,
}

/// Outcome of a whole simulated run.
#[derive(Clone, Debug)]
pub struct MappingReport {
    /// Per-cycle results.
    pub cycles: Vec<CycleReport>,
    /// Sum of cycle makespans (cycles are sequential, §3.2 step 5).
    pub total: SimTime,
}

impl MappingReport {
    /// Speedup of this run relative to `base` (typically
    /// [`MappingConfig::baseline`] on the same trace).
    pub fn speedup_vs(&self, base: &MappingReport) -> f64 {
        if self.total == SimTime::ZERO {
            return 0.0;
        }
        base.total.as_ns() as f64 / self.total.as_ns() as f64
    }

    /// Run-level network idle fraction (the paper reports 97–98%).
    /// Delegates to the canonical [`mpps_mpcsim::idle_fraction`].
    pub fn network_idle_fraction(&self) -> f64 {
        let busy: u64 = self.cycles.iter().map(|c| c.network_busy.as_ns()).sum();
        mpps_mpcsim::idle_fraction(SimTime::from_ns(busy), self.total)
    }

    /// Total messages across all cycles.
    pub fn network_messages(&self) -> u64 {
        self.cycles.iter().map(|c| c.network_messages).sum()
    }

    /// Per-cycle per-match-processor left-activation counts — the data of
    /// Figure 5-5. Yields one borrowed row per cycle; copy only what you
    /// keep.
    pub fn left_load_matrix(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.cycles.iter().map(|c| c.left_acts.as_slice())
    }
}

/// Immutable per-cycle data shared by all simulated nodes. Everything is
/// borrowed: the activations straight from the trace, the derived index
/// structures from a [`SimScratch`] — the inner simulation loop performs
/// no per-cycle clones.
struct CycleData<'a> {
    acts: &'a [ActivationRecord],
    children: &'a [Vec<u32>],
    /// Machine processor that handles each activation (control = 0 for
    /// instantiations).
    dest: &'a [ProcId],
    roots: &'a [u32],
}

/// Reusable buffers for the per-cycle index structures (`CycleData`).
///
/// A fresh scratch is allocated implicitly by [`simulate`] /
/// [`simulate_per_cycle`]; hot loops that fan out over many simulation
/// points (the parallel sweep engine, benchmarks) should keep one per
/// worker and call [`simulate_in`] so the buffers' capacity is reused
/// across cycles *and* across points.
#[derive(Default)]
pub struct SimScratch {
    children: Vec<Vec<u32>>,
    dest: Vec<ProcId>,
    roots: Vec<u32>,
}

impl SimScratch {
    /// An empty scratch; buffers grow to the largest cycle they see.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the cycle's index structures in place and hand out a view.
    fn prepare<'a>(
        &'a mut self,
        acts: &'a [ActivationRecord],
        partition: &Partition,
    ) -> CycleData<'a> {
        // `clear` on a Vec<u32> is O(1), so wiping every previously-used
        // entry (not just the first `acts.len()`) costs nothing and keeps
        // stale children from leaking into a later, larger cycle.
        for v in self.children.iter_mut() {
            v.clear();
        }
        if self.children.len() < acts.len() {
            self.children.resize_with(acts.len(), Vec::new);
        }
        self.roots.clear();
        self.dest.clear();
        for (i, a) in acts.iter().enumerate() {
            match a.parent {
                Some(p) => self.children[p as usize].push(i as u32),
                None => self.roots.push(i as u32),
            }
        }
        self.dest.extend(acts.iter().map(|a| match a.kind {
            ActKind::Production => 0,
            ActKind::TwoInput => MapNode::proc(partition.owner(a.bucket)),
        }));
        CycleData {
            acts,
            children: &self.children[..acts.len()],
            dest: &self.dest,
            roots: &self.roots,
        }
    }
}

#[derive(Clone)]
enum Msg {
    /// Cycle kickoff (injected at the control processor, then broadcast as
    /// the WME packet).
    Start,
    /// Process activation `i` (arriving at its destination processor).
    Act(u32),
    /// A match processor has handled a message from another processor
    /// ([`TerminationModel::Reports`]).
    Report,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Control,
    Match,
}

struct MapNode<'a> {
    role: Role,
    data: &'a CycleData<'a>,
    cost: CostModel,
    /// [`TerminationModel::Reports`], decided once per node.
    reports: bool,
    left_acts: u64,
    right_acts: u64,
    instantiations: u64,
}

impl MapNode<'_> {
    /// Machine processor of match processor `m`.
    fn proc(m: usize) -> ProcId {
        1 + m
    }

    /// Handle one activation at its owner: store, then compare/generate.
    /// Each successor costs `per_successor` and departs as soon as it is
    /// produced (successors stream out, in recorded order; they do not
    /// wait for the whole comparison to finish).
    fn process_act(&mut self, ctx: &mut Ctx<'_, Msg>, i: u32) {
        let data = self.data;
        let act = &data.acts[i as usize];
        debug_assert_eq!(act.kind, ActKind::TwoInput);
        if act.side == Side::Left {
            self.left_acts += 1;
            ctx.compute(self.cost.left_token);
        } else {
            self.right_acts += 1;
            ctx.compute(self.cost.right_token);
        }
        for &c in &data.children[i as usize] {
            ctx.compute(self.cost.per_successor);
            ctx.send(data.dest[c as usize], Msg::Act(c));
        }
    }
}

impl Node for MapNode<'_> {
    type Msg = Msg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcId, msg: Msg) {
        match (self.role, msg) {
            (Role::Control, Msg::Start) => {
                // §3.2 step 1: broadcast one packet with all the cycle's
                // WMEs (one send overhead, hardware broadcast).
                ctx.broadcast(Msg::Start);
            }
            (Role::Control, Msg::Act(i)) => {
                // An instantiation arriving from the match processors.
                debug_assert_eq!(self.data.acts[i as usize].kind, ActKind::Production);
                self.instantiations += 1;
                ctx.compute(self.cost.instantiation);
            }
            // The receive overhead is the report's whole cost here.
            (Role::Control, Msg::Report) => {}
            (Role::Match, Msg::Start) => {
                // §3.2 step 2: duplicate all constant tests, then process
                // the owned roots as one unit (coarse granularity).
                ctx.compute(self.cost.constant_tests);
                let me = ctx.me();
                // `data` is a plain shared reference (Copy), so iterating
                // the roots does not hold a borrow of `self` across the
                // `&mut self` call — no intermediate Vec needed.
                let data = self.data;
                for &r in data.roots {
                    if data.dest[r as usize] == me {
                        self.process_act(ctx, r);
                    }
                }
                if self.reports {
                    ctx.send(0, Msg::Report);
                }
            }
            (Role::Match, Msg::Act(i)) => {
                // Fine granularity: each routed token is its own unit.
                self.process_act(ctx, i);
                if self.reports && from != ctx.me() {
                    ctx.send(0, Msg::Report);
                }
            }
            (Role::Match, Msg::Report) => unreachable!("report at a match processor"),
        }
    }

    /// Phase labels for the telemetry spans (§3.2's steps): the WME
    /// broadcast/constant tests, left/right token processing, and the
    /// conflict-set and drain reports at the control processor.
    fn describe(&self, msg: &Msg) -> &'static str {
        match (self.role, msg) {
            (Role::Control, Msg::Start) => "broadcast-wmes",
            (Role::Control, Msg::Act(_)) => "conflict-set-report",
            (_, Msg::Report) => "drain-report",
            (Role::Match, Msg::Start) => "constant-tests",
            (Role::Match, Msg::Act(i)) => {
                if self.data.acts[*i as usize].side == Side::Left {
                    "left-token"
                } else {
                    "right-token"
                }
            }
        }
    }
}

/// Where each cycle's [`Partition`] comes from — both variants borrow, so
/// fanning a trace out across many simulation points never clones the
/// bucket-owner table.
enum PartitionSource<'a> {
    /// One partition for every cycle.
    Single(&'a Partition),
    /// One partition per cycle (indexed by cycle number).
    PerCycle(&'a [Partition]),
}

impl<'a> PartitionSource<'a> {
    fn for_cycle(&self, cycle: usize) -> &'a Partition {
        match *self {
            PartitionSource::Single(p) => p,
            PartitionSource::PerCycle(ps) => &ps[cycle],
        }
    }
}

/// Simulate `trace` under `config` with a single `partition` for all
/// cycles.
pub fn simulate(trace: &Trace, config: &MappingConfig, partition: &Partition) -> MappingReport {
    simulate_in(&mut SimScratch::new(), trace, config, partition)
}

/// [`simulate`] with caller-provided scratch buffers, for hot loops that
/// run many simulation points and want to reuse the per-cycle index
/// allocations across calls.
pub fn simulate_in(
    scratch: &mut SimScratch,
    trace: &Trace,
    config: &MappingConfig,
    partition: &Partition,
) -> MappingReport {
    simulate_recorded(scratch, trace, config, partition, &mut NullMetrics)
}

/// [`simulate_in`] with telemetry: per-processor busy spans (continuous
/// across cycles), cycle-boundary spans, queue-depth counters, and
/// histogram samples for activation skew and cycle makespans all flow
/// into `recorder`. The returned report is identical to an unrecorded
/// run's — recording never changes simulation results.
pub fn simulate_recorded<R: Recorder>(
    scratch: &mut SimScratch,
    trace: &Trace,
    config: &MappingConfig,
    partition: &Partition,
    recorder: &mut R,
) -> MappingReport {
    simulate_with(
        scratch,
        trace,
        config,
        PartitionSource::Single(partition),
        recorder,
    )
}

/// Name the simulated machine's trace lanes on `rec` to match `config`'s
/// processor layout (call once per recorded run, before or after the
/// simulation — metadata order does not matter).
pub fn name_machine_tracks(rec: &mut TraceRecorder, config: &MappingConfig) {
    rec.name_process(mpps_telemetry::recorder::SIM_PID, "simulated machine");
    rec.name_track(Track::sim_proc(0), "control");
    for m in 0..config.match_processors {
        rec.name_track(Track::sim_proc(MapNode::proc(m)), format!("match {m}"));
    }
    rec.name_track(Track::sim_cycles(), "cycles");
}

/// Simulate with a (possibly different) partition per cycle — the paper's
/// offline greedy produced "a series of distributions, one per cycle".
pub fn simulate_per_cycle(
    trace: &Trace,
    config: &MappingConfig,
    partitions: &[Partition],
) -> MappingReport {
    simulate_per_cycle_in(&mut SimScratch::new(), trace, config, partitions)
}

/// [`simulate_per_cycle`] with caller-provided scratch buffers.
pub fn simulate_per_cycle_in(
    scratch: &mut SimScratch,
    trace: &Trace,
    config: &MappingConfig,
    partitions: &[Partition],
) -> MappingReport {
    assert_eq!(
        partitions.len(),
        trace.cycles.len(),
        "one partition per cycle"
    );
    simulate_with(
        scratch,
        trace,
        config,
        PartitionSource::PerCycle(partitions),
        &mut NullMetrics,
    )
}

fn simulate_with<R: Recorder>(
    scratch: &mut SimScratch,
    trace: &Trace,
    config: &MappingConfig,
    source: PartitionSource<'_>,
    recorder: &mut R,
) -> MappingReport {
    let mut cycles = Vec::with_capacity(trace.cycles.len());
    let mut total = SimTime::ZERO;
    // Scratch for the per-cycle activation-skew histogram; only the
    // recorded path ever touches it.
    let mut bucket_counts = vec![
        0u64;
        if R::ENABLED {
            trace.table_size as usize
        } else {
            0
        }
    ];
    for (c, cycle) in trace.cycles.iter().enumerate() {
        let partition = source.for_cycle(c);
        assert_eq!(
            partition.table_size(),
            trace.table_size,
            "partition must cover the trace's hash-index range"
        );
        assert_eq!(
            partition.processors(),
            config.match_processors,
            "partition processor count must match the config"
        );
        // Each cycle's discrete-event simulation restarts at t = 0; the
        // offset re-bases its events onto the continuous run timeline.
        let report = run_one_cycle(
            &cycle.activations,
            config,
            partition,
            scratch,
            OffsetRecorder::new(&mut *recorder, total.as_ns()),
        );
        if R::ENABLED {
            let end = total + report.makespan;
            recorder.span(Track::sim_cycles(), "cycle", total.as_ns(), end.as_ns());
            recorder.observe("cycle-makespan-us", report.makespan.as_ns() / 1_000);
            bucket_counts.fill(0);
            for a in &cycle.activations {
                if a.kind == ActKind::TwoInput {
                    bucket_counts[a.bucket as usize] += 1;
                }
            }
            for &n in &bucket_counts {
                recorder.observe("acts-per-bucket", n);
            }
            for (&l, &r) in report.left_acts.iter().zip(&report.right_acts) {
                recorder.observe("left-acts-per-proc", l);
                recorder.observe("right-acts-per-proc", r);
            }
        }
        total += report.makespan;
        cycles.push(report);
    }
    MappingReport { cycles, total }
}

fn run_one_cycle<R: Recorder>(
    acts: &[ActivationRecord],
    config: &MappingConfig,
    partition: &Partition,
    scratch: &mut SimScratch,
    recorder: R,
) -> CycleReport {
    let p = config.match_processors;
    let data = scratch.prepare(acts, partition);
    let cfg = MachineConfig {
        processors: 1 + p,
        send_overhead: config.overhead.send,
        recv_overhead: config.overhead.recv,
        network: config.network,
    };
    let reports = config.termination == TerminationModel::Reports;
    let mk_node = |role: Role| MapNode {
        role,
        data: &data,
        cost: config.cost,
        reports,
        left_acts: 0,
        right_acts: 0,
        instantiations: 0,
    };
    let nodes = std::iter::once(mk_node(Role::Control))
        .chain((0..p).map(|_| mk_node(Role::Match)))
        .collect();
    let mut sim = Simulator::with_recorder(cfg, nodes, recorder);
    // Kick the control processor; its Start handler broadcasts the WME
    // packet (§3.2).
    sim.inject(SimTime::ZERO, 0, Msg::Start);
    let run = sim.run();
    let match_nodes = (0..p).map(|m| sim.node(MapNode::proc(m)));
    let (left_acts, right_acts) = match_nodes.map(|n| (n.left_acts, n.right_acts)).unzip();
    let instantiations = sim.node(0).instantiations;
    CycleReport {
        makespan: run.makespan,
        proc_busy: run
            .metrics
            .processors
            .iter()
            .map(|pm| pm.busy_time)
            .collect(),
        left_acts,
        right_acts,
        network_messages: run.metrics.network_messages,
        network_busy: run.metrics.network_busy,
        instantiations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_rete::trace::test_support::{self, rec};
    use mpps_rete::trace::{ActKind, ActivationRecord};

    fn trace_of(cycles: Vec<Vec<ActivationRecord>>) -> Trace {
        test_support::trace_of(8, cycles)
    }

    fn config(p: usize, overhead: OverheadSetting) -> MappingConfig {
        MappingConfig::standard(p, overhead)
    }

    fn zero_comm(p: usize) -> MappingConfig {
        MappingConfig {
            network: NetworkModel::Constant(SimTime::ZERO),
            ..MappingConfig::standard(p, OverheadSetting::ZERO)
        }
    }

    #[test]
    fn empty_cycle_costs_constant_tests_only() {
        let t = trace_of(vec![vec![]]);
        let r = simulate(&t, &zero_comm(2), &Partition::round_robin(8, 2));
        assert_eq!(r.total, SimTime::from_us(30));
    }

    #[test]
    fn serial_baseline_sums_activation_costs() {
        // Two right roots, no children: 30 + 16 + 16.
        let t = trace_of(vec![vec![
            rec(1, Side::Right, 0, None, ActKind::TwoInput),
            rec(1, Side::Right, 1, None, ActKind::TwoInput),
        ]]);
        let r = simulate(&t, &MappingConfig::baseline(), &Partition::single(8));
        assert_eq!(r.total, SimTime::from_us(62));
    }

    #[test]
    fn two_processors_split_independent_roots() {
        let t = trace_of(vec![vec![
            rec(1, Side::Right, 0, None, ActKind::TwoInput),
            rec(1, Side::Right, 1, None, ActKind::TwoInput),
        ]]);
        let r = simulate(&t, &zero_comm(2), &Partition::round_robin(8, 2));
        // Round-robin: bucket 0 -> proc 0, bucket 1 -> proc 1; in parallel.
        assert_eq!(r.total, SimTime::from_us(46));
        assert_eq!(r.cycles[0].right_acts, vec![1, 1]);
    }

    #[test]
    fn routed_left_token_with_zero_comm() {
        // Root right act (bucket 0 -> proc 0) generates one left act
        // (bucket 1 -> proc 1): 30 + (16 + 16) then 32 on the other side.
        let t = trace_of(vec![vec![
            rec(1, Side::Right, 0, None, ActKind::TwoInput),
            rec(2, Side::Left, 1, Some(0), ActKind::TwoInput),
        ]]);
        let r = simulate(&t, &zero_comm(2), &Partition::round_robin(8, 2));
        assert_eq!(r.total, SimTime::from_us(94));
        assert_eq!(r.cycles[0].left_acts, vec![0, 1]);
        assert_eq!(r.cycles[0].right_acts, vec![1, 0]);
        // Broadcast = one delivery per match processor (2) + 1 token.
        assert_eq!(r.cycles[0].network_messages, 3);
    }

    #[test]
    fn overheads_lengthen_the_critical_path() {
        // Same trace as above with the 8us overhead row and 0.5us latency.
        // Walk: broadcast send 5, arrive 5.5; match handlers recv 3 +
        // constant 30; proc0 processes root (+32) ending 70.5; send 5 ->
        // departure 75.5, arrival 76; proc1 (free since 38.5) starts 76:
        // recv 3 + left 32 -> 111.
        let t = trace_of(vec![vec![
            rec(1, Side::Right, 0, None, ActKind::TwoInput),
            rec(2, Side::Left, 1, Some(0), ActKind::TwoInput),
        ]]);
        let row8 = OverheadSetting::table_5_1()[1];
        let r = simulate(&t, &config(2, row8), &Partition::round_robin(8, 2));
        assert_eq!(r.total, SimTime::from_us(111));
    }

    #[test]
    fn instantiations_reach_the_control_processor() {
        let t = trace_of(vec![vec![
            rec(1, Side::Right, 0, None, ActKind::TwoInput),
            rec(9, Side::Left, 0, Some(0), ActKind::Production),
        ]]);
        let r = simulate(&t, &zero_comm(1), &Partition::single(8));
        assert_eq!(r.cycles[0].instantiations, 1);
        // Cost: 30 + (16 + 16 for generating the instantiation token).
        assert_eq!(r.total, SimTime::from_us(62));
    }

    #[test]
    fn speedup_vs_baseline_is_one_for_baseline() {
        let t = trace_of(vec![vec![rec(1, Side::Right, 0, None, ActKind::TwoInput)]]);
        let base = simulate(&t, &MappingConfig::baseline(), &Partition::single(8));
        assert!((base.speedup_vs(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_cycle_partitions_are_respected() {
        // Cycle 0's work is in bucket 0, cycle 1's in bucket 1. Give each
        // cycle a partition that puts the active bucket on processor 1.
        let t = trace_of(vec![
            vec![rec(1, Side::Right, 0, None, ActKind::TwoInput)],
            vec![rec(1, Side::Right, 1, None, ActKind::TwoInput)],
        ]);
        let p0 = Partition::from_owners(vec![1, 0, 0, 0, 0, 0, 0, 0], 2);
        let p1 = Partition::from_owners(vec![0, 1, 0, 0, 0, 0, 0, 0], 2);
        let r = simulate_per_cycle(&t, &zero_comm(2), &[p0, p1]);
        assert_eq!(r.cycles[0].right_acts, vec![0, 1]);
        assert_eq!(r.cycles[1].right_acts, vec![0, 1]);
    }

    #[test]
    fn network_idle_fraction_is_high_at_nectar_latency() {
        // A chain of 6 activations bouncing between two processors.
        let mut acts = vec![rec(1, Side::Right, 0, None, ActKind::TwoInput)];
        for i in 1..6 {
            acts.push(rec(
                1 + i,
                Side::Left,
                (i as u64) % 2,
                Some(i - 1),
                ActKind::TwoInput,
            ));
        }
        let t = trace_of(vec![acts]);
        let r = simulate(
            &t,
            &config(2, OverheadSetting::ZERO),
            &Partition::round_robin(8, 2),
        );
        assert!(
            r.network_idle_fraction() > 0.95,
            "idle = {}",
            r.network_idle_fraction()
        );
    }

    #[test]
    fn recorded_run_matches_unrecorded_and_covers_all_processors() {
        // A trace with roots and routed tokens over several cycles.
        let mut cycles_in = Vec::new();
        for c in 0..3u64 {
            // Cycle 0 routes a right token so both token labels appear
            // (right *roots* run inside the constant-tests unit).
            let child_side = if c == 0 { Side::Right } else { Side::Left };
            let mut acts = vec![
                rec(1, Side::Right, c % 8, None, ActKind::TwoInput),
                rec(2, child_side, (c + 1) % 8, Some(0), ActKind::TwoInput),
                rec(9, Side::Left, 0, Some(1), ActKind::Production),
            ];
            if c == 2 {
                acts.push(rec(1, Side::Right, 3, None, ActKind::TwoInput));
            }
            cycles_in.push(acts);
        }
        let t = trace_of(cycles_in);
        let row8 = OverheadSetting::table_5_1()[1];
        let cfg = config(2, row8);
        let part = Partition::round_robin(8, 2);

        let plain = simulate(&t, &cfg, &part);
        let mut rec_out = TraceRecorder::new();
        let recorded = simulate_recorded(&mut SimScratch::new(), &t, &cfg, &part, &mut rec_out);

        // Telemetry must never change simulation results.
        assert_eq!(recorded.total, plain.total);
        assert_eq!(recorded.cycles.len(), plain.cycles.len());
        for (a, b) in recorded.cycles.iter().zip(&plain.cycles) {
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.left_acts, b.left_acts);
            assert_eq!(a.network_messages, b.network_messages);
        }

        // One complete track per machine processor: the per-track span sum
        // equals the run's accumulated busy time for that processor.
        for proc in 0..3 {
            let busy: u64 = plain.cycles.iter().map(|c| c.proc_busy[proc].as_ns()).sum();
            let track: u64 = rec_out
                .spans()
                .iter()
                .filter(|s| s.track == Track::sim_proc(proc))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            assert_eq!(track, busy, "proc {proc}");
        }

        // Cycle spans tile [0, total) on the cycles lane.
        let cycle_spans: Vec<_> = rec_out
            .spans()
            .iter()
            .filter(|s| s.track == Track::sim_cycles())
            .collect();
        assert_eq!(cycle_spans.len(), 3);
        assert_eq!(cycle_spans[0].start_ns, 0);
        assert_eq!(cycle_spans[2].end_ns, plain.total.as_ns());
        assert_eq!(cycle_spans[0].end_ns, cycle_spans[1].start_ns);

        // Phase labels and skew histograms came through.
        let names: std::collections::BTreeSet<_> = rec_out.spans().iter().map(|s| s.name).collect();
        assert!(names.contains("constant-tests"));
        assert!(names.contains("left-token"));
        assert!(names.contains("right-token"));
        assert!(names.contains("broadcast-wmes"));
        assert!(names.contains("conflict-set-report"));
        let skew = rec_out.histogram("acts-per-bucket").unwrap();
        assert_eq!(skew.count(), 3 * 8); // one sample per bucket per cycle
        assert_eq!(skew.max(), Some(2)); // cycle 2 puts two activations in bucket 3
        assert_eq!(rec_out.histogram("cycle-makespan-us").unwrap().count(), 3);
        assert_eq!(
            rec_out.histogram("left-acts-per-proc").unwrap().count(),
            3 * 2
        );
    }

    #[test]
    #[should_panic(expected = "partition processor count")]
    fn partition_processor_mismatch_panics() {
        let t = trace_of(vec![vec![]]);
        simulate(&t, &zero_comm(2), &Partition::single(8));
    }

    #[test]
    #[should_panic(expected = "hash-index range")]
    fn partition_table_size_mismatch_panics() {
        let t = trace_of(vec![vec![]]);
        simulate(&t, &zero_comm(2), &Partition::round_robin(4, 2));
    }

    #[test]
    fn drain_reports_price_one_message_per_inbound_message() {
        // The trace of `overheads_lengthen_the_critical_path` (omniscient:
        // 111us, 3 messages). Under drain reports each match processor
        // reports the packet, and processor 1 reports the routed token:
        //   match 0: packet handled 5.5..70.5 (recv 3 + constant 30 + root
        //     32), token sent 75.5, report sent 80.5 -> control 81..84;
        //   match 1: packet handled 5.5..38.5, report sent 43.5 -> control
        //     44..47; token arrives 76, handled until 111, report sent 116
        //     -> control 116.5..119.5.
        let t = trace_of(vec![vec![
            rec(1, Side::Right, 0, None, ActKind::TwoInput),
            rec(2, Side::Left, 1, Some(0), ActKind::TwoInput),
        ]]);
        let row8 = OverheadSetting::table_5_1()[1];
        let cfg = MappingConfig {
            termination: TerminationModel::Reports,
            ..config(2, row8)
        };
        let part = Partition::round_robin(8, 2);
        let r = simulate(&t, &cfg, &part);
        assert_eq!(r.total, SimTime::from_ns(119_500));
        assert_eq!(r.cycles[0].network_messages, 3 + 3);
        // Control busy: broadcast send 5 + three report receives of 3.
        assert_eq!(r.cycles[0].proc_busy[0], SimTime::from_us(5 + 3 * 3));
        // A token routed to its own processor is a self-send: no report.
        let local = simulate(&t, &cfg, &Partition::from_owners(vec![0; 8], 2));
        assert_eq!(local.cycles[0].network_messages, 2 + 2);
    }

    #[test]
    fn left_load_matrix_shape() {
        let t = trace_of(vec![
            vec![rec(1, Side::Left, 0, None, ActKind::TwoInput)],
            vec![rec(1, Side::Left, 1, None, ActKind::TwoInput)],
        ]);
        let r = simulate(&t, &zero_comm(2), &Partition::round_robin(8, 2));
        let rows: Vec<&[u64]> = r.left_load_matrix().collect();
        assert_eq!(rows, vec![&[1, 0][..], &[0, 1][..]]);
    }
}
