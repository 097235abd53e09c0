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
//!    cycle then begins (the paper does not simulate termination
//!    detection, and neither does this executor).
//!
//! Two mapping variants are provided: the **combined** form used for the
//! paper's simulations (§3.2 — both buckets of an index on one processor)
//! and the **processor-pair** form of the base mapping (§3.1 — left/right
//! buckets on two processors, with the store and the opposite-memory
//! comparison proceeding in parallel). Root distribution can also be
//! switched from broadcast-plus-duplicate-constant-tests to central
//! routing for ablation.

use crate::cost::{CostModel, OverheadSetting, NECTAR_LATENCY};
use crate::partition::Partition;
use mpps_mpcsim::{Ctx, MachineConfig, NetworkModel, Node, ProcId, SimTime, Simulator};
use mpps_rete::trace::{ActKind, ActivationRecord};
use mpps_rete::{Side, Trace};
use mpps_telemetry::{NullMetrics, OffsetRecorder, Recorder, TraceRecorder, Track};

/// How left/right buckets of an index map onto processors.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MappingVariant {
    /// §3.2: both buckets of an index on one match processor (used for all
    /// of the paper's simulations).
    #[default]
    Combined,
    /// §3.1: a processor *pair* per index partition — tokens arrive at the
    /// left processor, which forwards them to the right processor; the
    /// store and the opposite-memory comparison then proceed in parallel.
    ProcessorPairs,
}

/// How root activations reach their owners.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RootDistribution {
    /// §3.2: broadcast the WME packet; every match processor duplicates
    /// the constant tests and keeps what it owns.
    #[default]
    BroadcastDuplicate,
    /// Ablation (§3.1-style constant-test processors collapsed into the
    /// control processor): the control evaluates constant tests once and
    /// routes each root activation as an individual message.
    CentralRoute,
}

/// How the end of a cycle's token cascade is detected.
///
/// The paper's simulator is omniscient ("we do not simulate termination
/// detection"); a real implementation must pay for it every cycle. The
/// ring model below prices a Safra-style probe (Dijkstra, EWD 998): after
/// the last activation drains, a token circles the match processors twice,
/// each hop costing a send overhead, the network latency, and a receive
/// overhead.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TerminationModel {
    /// Omniscient cycle boundary (the paper's assumption).
    #[default]
    Omniscient,
    /// Two token-ring rounds over the match processors appended to every
    /// cycle.
    RingToken,
}

impl TerminationModel {
    /// Extra time appended to each cycle's makespan.
    pub fn cycle_overhead(self, config: &MappingConfig) -> SimTime {
        match self {
            TerminationModel::Omniscient => SimTime::ZERO,
            TerminationModel::RingToken => {
                let p = config.match_processors as u64;
                // Worst-case neighbour latency in the configured network.
                let machine = match config.variant {
                    MappingVariant::Combined => config.match_processors + 1,
                    MappingVariant::ProcessorPairs => 2 * config.match_processors + 1,
                };
                let latency = (1..machine)
                    .map(|m| config.network.latency(machine, m, (m % (machine - 1)) + 1))
                    .max()
                    .unwrap_or(SimTime::ZERO);
                let hop = config.overhead.send + latency + config.overhead.recv;
                hop * (2 * p)
            }
        }
    }
}

/// Full configuration of one simulated mapping run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MappingConfig {
    /// Number of match processors (pairs count as one here; the machine
    /// uses two CPUs per pair under [`MappingVariant::ProcessorPairs`]).
    pub match_processors: usize,
    /// Match micro-task costs.
    pub cost: CostModel,
    /// Message-processing overheads (a Table 5-1 row).
    pub overhead: OverheadSetting,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Bucket-to-processor mapping variant.
    pub variant: MappingVariant,
    /// Root-activation distribution scheme.
    pub roots: RootDistribution,
    /// Cycle-boundary detection cost model.
    pub termination: TerminationModel,
}

impl MappingConfig {
    /// The paper's standard configuration: combined mapping, broadcast
    /// roots, Nectar latency (0.5 µs), chosen overhead row.
    pub fn standard(match_processors: usize, overhead: OverheadSetting) -> Self {
        MappingConfig {
            match_processors,
            cost: CostModel::default(),
            overhead,
            network: NetworkModel::Constant(NECTAR_LATENCY),
            variant: MappingVariant::Combined,
            roots: RootDistribution::BroadcastDuplicate,
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
            variant: MappingVariant::Combined,
            roots: RootDistribution::BroadcastDuplicate,
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
    /// instantiations; left processor of the pair under `ProcessorPairs`).
    dest: &'a [ProcId],
    roots: &'a [u32],
}

/// Reusable buffers for the per-cycle index structures ([`CycleData`]).
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
        variant: MappingVariant,
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
            ActKind::TwoInput => MapNode::left_proc(variant, partition.owner(a.bucket)),
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
    /// Cycle kickoff (broadcast or self-start).
    Start,
    /// Process activation `i` (arriving at its destination processor).
    Act(u32),
    /// Pair variant: the right processor's half of activation `i`.
    Half(u32),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Control,
    /// A match processor (combined) or the left half of a pair.
    Match {
        index: usize,
    },
    /// The right half of a pair.
    RightHalf,
}

struct MapNode<'a> {
    role: Role,
    data: &'a CycleData<'a>,
    cost: CostModel,
    variant: MappingVariant,
    roots: RootDistribution,
    left_acts: u64,
    right_acts: u64,
    instantiations: u64,
}

impl MapNode<'_> {
    /// Machine processor owning the *left* role of match processor `m`.
    fn left_proc(variant: MappingVariant, m: usize) -> ProcId {
        match variant {
            MappingVariant::Combined => 1 + m,
            MappingVariant::ProcessorPairs => 1 + 2 * m,
        }
    }

    fn partner(&self, ctx: &Ctx<'_, Msg>) -> ProcId {
        debug_assert!(matches!(self.variant, MappingVariant::ProcessorPairs));
        ctx.me() + 1
    }

    /// Handle one activation at its (left) owner.
    fn process_act(&mut self, ctx: &mut Ctx<'_, Msg>, i: u32) {
        let act = &self.data.acts[i as usize];
        debug_assert_eq!(act.kind, ActKind::TwoInput);
        let is_left = act.side == Side::Left;
        if is_left {
            self.left_acts += 1;
        } else {
            self.right_acts += 1;
        }
        match self.variant {
            MappingVariant::Combined => {
                // Store, then compare/generate: each successor costs
                // `per_successor` and departs as soon as it is produced
                // (successors stream out; they do not wait for the whole
                // comparison to finish).
                ctx.compute(if is_left {
                    self.cost.left_token
                } else {
                    self.cost.right_token
                });
                self.send_children(ctx, i);
            }
            MappingVariant::ProcessorPairs => {
                // Forward to the partner (who compares and generates) and
                // store locally; the two halves overlap in time.
                ctx.send(self.partner(ctx), Msg::Half(i));
                ctx.compute(if is_left {
                    self.cost.left_token
                } else {
                    self.cost.right_token
                });
            }
        }
    }

    /// Generate activation `i`'s successors: `per_successor` compute each,
    /// departing as soon as produced (streamed, in recorded order).
    fn send_children(&self, ctx: &mut Ctx<'_, Msg>, i: u32) {
        let data = self.data;
        for &c in &data.children[i as usize] {
            ctx.compute(self.cost.per_successor);
            ctx.send(data.dest[c as usize], Msg::Act(c));
        }
    }
}

impl Node for MapNode<'_> {
    type Msg = Msg;

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ProcId, msg: Msg) {
        match (self.role, msg) {
            (Role::Control, Msg::Start) => match self.roots {
                RootDistribution::BroadcastDuplicate => {
                    // §3.2 step 1: broadcast one packet with all the
                    // cycle's WMEs (one send overhead, hardware broadcast).
                    ctx.broadcast(Msg::Start);
                }
                RootDistribution::CentralRoute => {
                    // Ablation: evaluate constant tests once, centrally,
                    // and route every root activation individually.
                    ctx.compute(self.cost.constant_tests);
                    let data = self.data;
                    for &r in data.roots {
                        ctx.send(data.dest[r as usize], Msg::Act(r));
                    }
                }
            },
            (Role::Control, Msg::Act(i)) => {
                // An instantiation arriving from the match processors.
                debug_assert_eq!(self.data.acts[i as usize].kind, ActKind::Production);
                self.instantiations += 1;
                ctx.compute(self.cost.instantiation);
            }
            (Role::Match { index }, Msg::Start) => {
                // §3.2 step 2: duplicate all constant tests, then process
                // the owned roots as one unit (coarse granularity).
                debug_assert!(matches!(self.roots, RootDistribution::BroadcastDuplicate));
                ctx.compute(self.cost.constant_tests);
                let me = Self::left_proc(self.variant, index);
                debug_assert_eq!(me, ctx.me());
                // `data` is a plain shared reference (Copy), so iterating
                // the roots does not hold a borrow of `self` across the
                // `&mut self` call — no intermediate Vec needed.
                let data = self.data;
                for &r in data.roots {
                    if data.dest[r as usize] == me {
                        self.process_act(ctx, r);
                    }
                }
            }
            (Role::Match { .. }, Msg::Act(i)) => {
                // Fine granularity: each routed token is its own unit.
                self.process_act(ctx, i);
            }
            (Role::RightHalf, Msg::Half(i)) => {
                // The pair's comparison/generation micro-task (streamed).
                self.send_children(ctx, i);
            }
            (Role::RightHalf, Msg::Start) => {
                // Pairs' right halves also receive the broadcast and
                // duplicate the constant tests (they hold no buckets).
                ctx.compute(self.cost.constant_tests);
            }
            (role, _) => {
                let which = match role {
                    Role::Control => "control",
                    Role::Match { .. } => "match",
                    Role::RightHalf => "right-half",
                };
                unreachable!("unexpected message at {which} processor");
            }
        }
    }

    /// Phase labels for the telemetry spans (§3.2's steps): the WME
    /// broadcast/constant tests, left/right token processing, the pairs'
    /// comparison half, and the conflict-set report at the control
    /// processor.
    fn describe(&self, msg: &Msg) -> &'static str {
        match (self.role, msg) {
            (Role::Control, Msg::Start) => match self.roots {
                RootDistribution::BroadcastDuplicate => "broadcast-wmes",
                RootDistribution::CentralRoute => "constant-tests",
            },
            (Role::Control, Msg::Act(_)) => "conflict-set-report",
            (Role::Match { .. } | Role::RightHalf, Msg::Start) => "constant-tests",
            (Role::Match { .. }, Msg::Act(i)) => {
                if self.data.acts[*i as usize].side == Side::Left {
                    "left-token"
                } else {
                    "right-token"
                }
            }
            (Role::RightHalf, Msg::Half(_)) => "compare-generate",
            _ => "message",
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
        match config.variant {
            MappingVariant::Combined => {
                rec.name_track(Track::sim_proc(1 + m), format!("match {m}"));
            }
            MappingVariant::ProcessorPairs => {
                rec.name_track(Track::sim_proc(1 + 2 * m), format!("match {m} (left)"));
                rec.name_track(Track::sim_proc(2 + 2 * m), format!("match {m} (right)"));
            }
        }
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
        let mut report = run_one_cycle(
            &cycle.activations,
            config,
            partition,
            scratch,
            OffsetRecorder::new(&mut *recorder, total.as_ns()),
        );
        report.makespan += config.termination.cycle_overhead(config);
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
    let data = scratch.prepare(acts, partition, config.variant);
    let machine_procs = match config.variant {
        MappingVariant::Combined => 1 + p,
        MappingVariant::ProcessorPairs => 1 + 2 * p,
    };
    let cfg = MachineConfig {
        processors: machine_procs,
        send_overhead: config.overhead.send,
        recv_overhead: config.overhead.recv,
        network: config.network,
    };
    let mk_node = |role: Role| MapNode {
        role,
        data: &data,
        cost: config.cost,
        variant: config.variant,
        roots: config.roots,
        left_acts: 0,
        right_acts: 0,
        instantiations: 0,
    };
    let mut nodes = Vec::with_capacity(machine_procs);
    nodes.push(mk_node(Role::Control));
    for m in 0..p {
        nodes.push(mk_node(Role::Match { index: m }));
        if config.variant == MappingVariant::ProcessorPairs {
            nodes.push(mk_node(Role::RightHalf));
        }
    }
    let mut sim = Simulator::with_recorder(cfg, nodes, recorder);
    // Kick the control processor; its Start handler either broadcasts the
    // WME packet (§3.2) or routes roots centrally (ablation).
    sim.inject(SimTime::ZERO, 0, Msg::Start);
    let run = sim.run_injected();
    let mut left_acts = vec![0u64; p];
    let mut right_acts = vec![0u64; p];
    let mut instantiations = 0;
    for m in 0..p {
        let proc = MapNode::left_proc(config.variant, m);
        left_acts[m] = sim.node(proc).left_acts;
        right_acts[m] = sim.node(proc).right_acts;
    }
    instantiations += sim.node(0).instantiations;
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
    fn processor_pairs_overlap_store_and_generate() {
        // One left root with 2 successors (both productions).
        // Combined: 30 + (32 + 2*16) = 94.
        // Pairs:    30 + max(store 32, compare 2*16=32) = 62 (zero comm).
        let acts = vec![
            rec(1, Side::Left, 0, None, ActKind::TwoInput),
            rec(8, Side::Left, 0, Some(0), ActKind::Production),
            rec(9, Side::Left, 0, Some(0), ActKind::Production),
        ];
        let t = trace_of(vec![acts]);
        let combined = simulate(&t, &zero_comm(1), &Partition::single(8));
        let mut pair_cfg = zero_comm(1);
        pair_cfg.variant = MappingVariant::ProcessorPairs;
        let pairs = simulate(&t, &pair_cfg, &Partition::single(8));
        assert_eq!(combined.total, SimTime::from_us(94));
        assert_eq!(pairs.total, SimTime::from_us(62));
    }

    #[test]
    fn central_route_pays_messages_for_roots() {
        // Two right roots on different processors; central routing sends
        // each as a message instead of broadcasting + duplicating.
        let t = trace_of(vec![vec![
            rec(1, Side::Right, 0, None, ActKind::TwoInput),
            rec(1, Side::Right, 1, None, ActKind::TwoInput),
        ]]);
        let mut cfg = zero_comm(2);
        cfg.roots = RootDistribution::CentralRoute;
        let r = simulate(&t, &cfg, &Partition::round_robin(8, 2));
        // Control: 30 constant tests, then two (free) sends; matchers do 16
        // each in parallel.
        assert_eq!(r.total, SimTime::from_us(46));
        // With overheads the roots now cost per-message overhead:
        let row8 = OverheadSetting::table_5_1()[1];
        let mut cfg8 = MappingConfig::standard(2, row8);
        cfg8.roots = RootDistribution::CentralRoute;
        let r8 = simulate(&t, &cfg8, &Partition::round_robin(8, 2));
        // Control: 30 + 5 + 5; first message departs 35, arrives 35.5,
        // handler 35.5 + 3 + 16 = 54.5; second departs 40, arrives 40.5,
        // handler ends 59.5.
        assert_eq!(r8.total, SimTime::from_ns(59_500));
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
    fn termination_model_adds_per_cycle_cost() {
        let t = trace_of(vec![
            vec![rec(1, Side::Right, 0, None, ActKind::TwoInput)],
            vec![rec(1, Side::Right, 1, None, ActKind::TwoInput)],
        ]);
        let row8 = OverheadSetting::table_5_1()[1];
        let base_cfg = config(4, row8);
        let ring_cfg = MappingConfig {
            termination: TerminationModel::RingToken,
            ..base_cfg
        };
        let part = Partition::round_robin(8, 4);
        let plain = simulate(&t, &base_cfg, &part);
        let ring = simulate(&t, &ring_cfg, &part);
        // 2 rounds x 4 procs x (5 + 0.5 + 3)us = 68us per cycle, 2 cycles.
        let expected = SimTime::from_ns(2 * 2 * 4 * 8_500);
        assert_eq!(ring.total, plain.total + expected);
        assert_eq!(
            ring.cycles[0].makespan,
            plain.cycles[0].makespan + expected / 2
        );
    }

    #[test]
    fn omniscient_termination_is_free() {
        let cfg = config(8, OverheadSetting::ZERO);
        assert_eq!(
            TerminationModel::Omniscient.cycle_overhead(&cfg),
            SimTime::ZERO
        );
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
