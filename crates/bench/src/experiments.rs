//! The experiment definitions behind every table and figure of §5.
//!
//! A figure is one function
//! `fn(&Sections, &mut SweepPlan) -> impl FnOnce(&SweepResults) -> T`:
//! calling it registers the figure's simulation points on a shared plan
//! (traces registered once, identical points collapsed, baselines memoized
//! per trace), and the closure it returns turns the executed
//! [`SweepResults`] into the figure's data. The `repro` binary batches
//! every figure into **one** [`SweepPlan`]; [`solo`] runs a single figure
//! on a private plan, serially — the integration tests use that.

use mpps_core::sweep::{
    PartitionSpec, PartitionStrategy, PointId, PointSpec, SpeedupPoint, SweepPlan, SweepResults,
    TraceId,
};
use mpps_core::{
    cycle_bucket_work, CostModel, MappingConfig, OverheadSetting, Partition, TerminationModel,
};
use mpps_mpcsim::{NetworkModel, SimTime};
use mpps_rete::{split_fanout, SplitFanoutOptions, Trace};
use mpps_workloads::synth;

/// One named speedup curve per overhead row.
pub type OverheadCurves = Vec<(OverheadSetting, Vec<SpeedupPoint>)>;

/// Per-section rows of `(processors, metric_a, metric_b)`.
pub type ComparisonRows = Vec<(&'static str, Vec<(usize, f64, f64)>)>;

/// Processor counts swept in the figures (the paper plots 1–32).
pub const PROCS: &[usize] = &[1, 2, 4, 8, 12, 16, 24, 32];

/// The fixed seed of the calibrated sections (any seed reproduces the
/// Table 5-2 mix; this one is shared by all reported artifacts).
pub const SEED: u64 = 1989;

/// Every trace the figures replay, generated exactly once per run and
/// shared by reference through the plan.
pub struct Sections {
    /// Rubik's-cube solver section.
    pub rubik: Trace,
    /// Tournament scheduler section.
    pub tourney: Trace,
    /// VLSI-routing (Weaver) section.
    pub weaver: Trace,
    /// Weaver after the Figure 5-4 unsharing transform.
    pub weaver_unshared: Trace,
    /// Tourney after copy-and-constraint (Figure 5-6).
    pub tourney_copies: Trace,
}

impl Sections {
    /// Generate all traces from [`SEED`].
    pub fn generate() -> Self {
        let weaver = synth::weaver(SEED);
        let weaver_unshared = split_fanout(&weaver, SplitFanoutOptions::default());
        Sections {
            rubik: synth::rubik(SEED),
            tourney: synth::tourney(SEED),
            tourney_copies: synth::tourney_with_copies(SEED, 4),
            weaver,
            weaver_unshared,
        }
    }

    /// The three paper sections in report order.
    pub fn named(&self) -> [(&'static str, &Trace); 3] {
        [
            ("Rubik", &self.rubik),
            ("Tourney", &self.tourney),
            ("Weaver", &self.weaver),
        ]
    }
}

/// Run one figure on a private plan, serially, and return its data. The
/// sections are generated once per process and shared by every call.
pub fn solo<T, R: FnOnce(&SweepResults) -> T>(
    fig: impl FnOnce(&'static Sections, &mut SweepPlan<'static>) -> R,
) -> T {
    static SECTIONS: std::sync::OnceLock<Sections> = std::sync::OnceLock::new();
    let mut plan = SweepPlan::new();
    let render = fig(SECTIONS.get_or_init(Sections::generate), &mut plan);
    render(&plan.run(1))
}

/// Ids of one speedup curve: points over a processor sweep, all measured
/// against `base`'s memoized baseline (usually the point's own trace; the
/// transform figures measure against the *untransformed* section).
pub struct CurvePlan {
    base: TraceId,
    points: Vec<(usize, PointId)>,
}

impl CurvePlan {
    fn new<'t>(
        plan: &mut SweepPlan<'t>,
        trace: TraceId,
        base: TraceId,
        config: impl Fn(usize) -> MappingConfig,
    ) -> CurvePlan {
        let points = PROCS.iter().map(|&p| (p, point(plan, trace, config(p))));
        CurvePlan {
            base,
            points: points.collect(),
        }
    }

    fn curve(&self, r: &SweepResults) -> Vec<SpeedupPoint> {
        let base = r.baseline(self.base);
        self.points
            .iter()
            .map(|&(p, id)| {
                let report = r.report(id);
                SpeedupPoint {
                    processors: p,
                    speedup: report.speedup_vs(base),
                    total_us: report.total.as_us(),
                }
            })
            .collect()
    }
}

const RR: PartitionSpec = PartitionSpec::Strategy(PartitionStrategy::RoundRobin);

/// Register one round-robin point.
fn point(plan: &mut SweepPlan<'_>, trace: TraceId, config: MappingConfig) -> PointId {
    point_on(plan, trace, config, RR)
}

fn point_on(
    plan: &mut SweepPlan<'_>,
    trace: TraceId,
    config: MappingConfig,
    partition: PartitionSpec,
) -> PointId {
    plan.add_point(PointSpec {
        trace,
        config,
        partition,
    })
}

/// Register each paper section's trace and plan it with `f`, in report
/// order.
fn per_section<'t, P>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
    mut f: impl FnMut(&mut SweepPlan<'t>, TraceId) -> P,
) -> Vec<(&'static str, &'t Trace, P)> {
    let planned = s.named().map(|(name, trace)| {
        let t = plan.add_trace(trace);
        (name, trace, f(plan, t))
    });
    planned.into()
}

/// The Figure 5-1 configuration: zero overheads *and* zero latency.
fn no_comm(p: usize) -> MappingConfig {
    MappingConfig {
        network: NetworkModel::Constant(SimTime::ZERO),
        ..MappingConfig::standard(p, OverheadSetting::ZERO)
    }
}

/// Zero overheads at the standard (0.5 µs) network latency.
fn zero_overhead(p: usize) -> MappingConfig {
    MappingConfig::standard(p, OverheadSetting::ZERO)
}

/// The 8 µs Table 5-1 row — the Nectar-era operating point.
fn nectar(p: usize) -> MappingConfig {
    MappingConfig::standard(p, OverheadSetting::table_5_1()[1])
}

/// Figure 5-1: speedups with zero message-passing overheads (and zero
/// latency), round-robin buckets, for all sections.
pub fn fig5_1<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> Vec<(&'static str, Vec<SpeedupPoint>)> + 't {
    let curves = per_section(s, plan, |plan, t| CurvePlan::new(plan, t, t, no_comm));
    move |r: &SweepResults| {
        let curves = curves.iter().map(|(name, _, c)| (*name, c.curve(r)));
        curves.collect()
    }
}

/// Table 5-1: the overhead settings (input parameters, echoed for
/// completeness).
pub fn table5_1() -> Vec<Vec<String>> {
    OverheadSetting::table_5_1()
        .iter()
        .enumerate()
        .map(|(i, o)| {
            vec![
                format!("Run {}", i + 1),
                format!("{}", o.send),
                format!("{}", o.recv),
                format!("{}", o.total()),
            ]
        })
        .collect()
}

/// Figure 5-2: one curve per Table 5-1 overhead row (0.5 µs network
/// latency), per section.
pub fn fig5_2<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> Vec<(&'static str, OverheadCurves)> + 't {
    let sections = per_section(s, plan, |plan, t| {
        OverheadSetting::table_5_1().map(|o| {
            let curve = CurvePlan::new(plan, t, t, |p| MappingConfig::standard(p, o));
            (o, curve)
        })
    });
    move |r: &SweepResults| {
        let curves = sections
            .iter()
            .map(|(name, _, rows)| (*name, rows.iter().map(|(o, c)| (*o, c.curve(r))).collect()));
        curves.collect()
    }
}

/// §5.1's headline relative peak-speedup loss at the 32 µs overhead row
/// (paper: Rubik ≈30%, Tourney ≈45%, Weaver ≈50%), alongside each
/// section's left-activation fraction. Both curves share Figure 5-2's
/// points when planned together.
pub fn fig5_2_losses<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> Vec<(&'static str, f64, f64)> + 't {
    let heavy = OverheadSetting::table_5_1()[3];
    let sections = per_section(s, plan, |plan, t| {
        let zero = CurvePlan::new(plan, t, t, zero_overhead);
        let heavy = CurvePlan::new(plan, t, t, |p| MappingConfig::standard(p, heavy));
        (zero, heavy)
    });
    move |r: &SweepResults| {
        let losses = sections.iter().map(|(name, trace, (zero, heavy))| {
            let loss = mpps_core::sweep::speedup_loss(&zero.curve(r), &heavy.curve(r));
            (*name, loss, trace.stats().left_fraction())
        });
        losses.collect()
    }
}

/// Table 5-2: the activation mix of each section.
pub fn table5_2(s: &Sections) -> Vec<Vec<String>> {
    s.named()
        .map(|(name, trace)| {
            let st = trace.stats();
            vec![
                name.to_owned(),
                format!("{} ({:.0}%)", st.left, st.left_fraction() * 100.0),
                format!("{} ({:.0}%)", st.right, (1.0 - st.left_fraction()) * 100.0),
                format!("{}", st.total()),
            ]
        })
        .into()
}

/// A section with and without a transform, both measured against the
/// *untransformed* serial baseline, as in the paper (zero overheads).
fn transform_pair<'t>(
    plan: &mut SweepPlan<'t>,
    original: &'t Trace,
    transformed: &'t Trace,
) -> impl FnOnce(&SweepResults) -> (Vec<SpeedupPoint>, Vec<SpeedupPoint>) {
    let base = plan.add_trace(original);
    let transformed = plan.add_trace(transformed);
    let before = CurvePlan::new(plan, base, base, zero_overhead);
    let after = CurvePlan::new(plan, transformed, base, zero_overhead);
    move |r: &SweepResults| (before.curve(r), after.curve(r))
}

/// Figure 5-4: Weaver with and without the unsharing / dummy-node
/// transform, as `(shared, unshared)`.
pub fn fig5_4<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> (Vec<SpeedupPoint>, Vec<SpeedupPoint>) {
    transform_pair(plan, &s.weaver, &s.weaver_unshared)
}

/// Figure 5-5: per-processor left-activation counts in the first two
/// Rubik cycles (16 processors, round-robin buckets, zero overheads).
pub fn fig5_5<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> Vec<Vec<u64>> {
    let t = plan.add_trace(&s.rubik);
    let id = point(plan, t, zero_overhead(16));
    move |r: &SweepResults| {
        let cycles = r.report(id).left_load_matrix().take(2);
        cycles.map(<[u64]>::to_vec).collect()
    }
}

/// Figure 5-6: Tourney with and without copy-and-constraint (cross
/// production split four ways), as `(original, copies)`.
pub fn fig5_6<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> (Vec<SpeedupPoint>, Vec<SpeedupPoint>) {
    transform_pair(plan, &s.tourney, &s.tourney_copies)
}

/// §5.1 network-idle fractions: 16 processors under the 8 µs overhead
/// row, per section (paper: 97–98%).
pub fn network_idle<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> Vec<(&'static str, f64)> + 't {
    let points = per_section(s, plan, |plan, t| point(plan, t, nectar(16)));
    move |r: &SweepResults| {
        let idle = points
            .iter()
            .map(|&(name, _, id)| (name, r.report(id).network_idle_fraction()));
        idle.collect()
    }
}

/// Round-robin vs `other` placement at 16 processors, zero overheads, per
/// section: the two point ids.
fn versus_round_robin<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
    other: PartitionSpec,
) -> Vec<(&'static str, &'t Trace, (PointId, PointId))> {
    per_section(s, plan, |plan, t| {
        let rr = point(plan, t, zero_overhead(16));
        (rr, point_on(plan, t, zero_overhead(16), other))
    })
}

/// How many times faster `other` finished than `rr`.
fn gain(r: &SweepResults, rr: PointId, other: PointId) -> f64 {
    r.report(rr).total.as_ns() as f64 / r.report(other).total.as_ns() as f64
}

/// §5.2.2 greedy experiment: simulated speedup improvement of per-cycle
/// offline greedy over round-robin (paper: ×~1.4), plus the load-only
/// analytical bound.
pub fn greedy_gains<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> Vec<(&'static str, f64, f64)> + 't {
    let points = versus_round_robin(s, plan, PartitionSpec::GreedyPerCycle);
    move |r: &SweepResults| {
        let gains = points.iter().map(|&(name, trace, (rr, greedy))| {
            let bound =
                greedy_improvement_bound(trace, &Partition::round_robin(trace.table_size, 16));
            (name, gain(r, rr, greedy), bound)
        });
        gains.collect()
    }
}

/// The idealized improvement factor of per-cycle greedy over a fixed
/// assignment, estimated from per-cycle maximum loads (per-bucket work
/// stands in for time): `sum(max under fixed) / sum(max under greedy)`.
/// The paper measured ≈1.4 on its traces.
pub fn greedy_improvement_bound(trace: &Trace, fixed: &Partition) -> f64 {
    let procs = fixed.processors();
    let cost = CostModel::default();
    let mut fixed_sum = 0u64;
    let mut greedy_sum = 0u64;
    for c in 0..trace.cycles.len() {
        let work = cycle_bucket_work(trace, c, &cost);
        fixed_sum += *fixed.loads(&work).iter().max().unwrap_or(&0);
        let greedy = Partition::greedy(&work, procs);
        greedy_sum += *greedy.loads(&work).iter().max().unwrap_or(&0);
    }
    if greedy_sum == 0 {
        1.0
    } else {
        fixed_sum as f64 / greedy_sum as f64
    }
}

/// §5.2.2 random distribution: seeded random placement does not
/// significantly beat round-robin.
pub fn random_vs_round_robin<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> Vec<(&'static str, f64)> + 't {
    let random = PartitionSpec::Strategy(PartitionStrategy::Random(SEED));
    let points = versus_round_robin(s, plan, random);
    move |r: &SweepResults| {
        let gains = points
            .iter()
            .map(|&(name, _, (rr, rnd))| (name, gain(r, rr, rnd)));
        gains.collect()
    }
}

/// The §6 continuum: serial vs replicated vs single-master (analytic
/// endpoints, computed at render) vs the distributed mapping (simulated),
/// on the Rubik section at 16 processors.
pub fn continuum<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> Vec<(String, f64)> + 't {
    let t = plan.add_trace(&s.rubik);
    let distributed = point(plan, t, nectar(16));
    move |r: &SweepResults| {
        let cost = mpps_core::CostModel::default();
        let overhead = OverheadSetting::table_5_1()[1];
        let mut out: Vec<(String, f64)> =
            mpps_core::continuum::endpoints(&s.rubik, &cost, overhead, 16)
                .into_iter()
                .map(|pt| (pt.label.to_owned(), pt.speedup))
                .collect();
        let distributed = r.report(distributed).speedup_vs(r.baseline(t));
        out.push(("distributed (this paper)".to_owned(), distributed));
        out
    }
}

/// The §5.2 comparison: the distributed (MPC) mapping at zero message
/// overheads vs the shared-bus mapping at each processor count (queue
/// claims cost 4 µs on the bus; the bus simulations run at render time —
/// they use a different simulator).
pub fn shared_bus<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> ComparisonRows + 't {
    use mpps_core::continuum::serial_time;
    use mpps_core::{shared_bus_simulate, CostModel, SharedBusConfig};
    let sections = per_section(s, plan, |plan, t| {
        let ids = PROCS.iter().map(|&p| (p, point(plan, t, zero_overhead(p))));
        (t, ids.collect::<Vec<_>>())
    });
    move |r: &SweepResults| {
        let compared = sections.iter().map(|(name, trace, (t, ids))| {
            let serial = serial_time(trace, &CostModel::default());
            let base = r.baseline(*t);
            let rows = ids.iter().map(|&(procs, id)| {
                let mpc = r.report(id).speedup_vs(base);
                let bus = shared_bus_simulate(trace, &SharedBusConfig::new(procs))
                    .speedup_vs_serial(serial);
                (procs, mpc, bus)
            });
            (*name, rows.collect())
        });
        compared.collect()
    }
}

/// Termination-detection cost: omniscient cycle boundaries vs the
/// executor's drain reports ([`TerminationModel::Reports`]) at each
/// processor count under the 8 µs overhead row.
pub fn termination_cost<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> ComparisonRows + 't {
    let sections = per_section(s, plan, |plan, t| {
        let rows = PROCS.iter().map(|&p| {
            let reports = MappingConfig {
                termination: TerminationModel::Reports,
                ..nectar(p)
            };
            (p, point(plan, t, nectar(p)), point(plan, t, reports))
        });
        (t, rows.collect::<Vec<_>>())
    });
    move |r: &SweepResults| {
        let compared = sections.iter().map(|(name, _, (t, rows))| {
            let speedup = |id| r.report(id).speedup_vs(r.baseline(*t));
            let rows = rows
                .iter()
                .map(|&(p, omni, reports)| (p, speedup(omni), speedup(reports)));
            (*name, rows.collect())
        });
        compared.collect()
    }
}

/// The Cosmic-Cube-era machine model: ~2 ms store-and-forward latency
/// (500 µs per hypercube hop), ~300 µs message handling.
fn first_gen_config(p: usize) -> MappingConfig {
    MappingConfig {
        overhead: OverheadSetting {
            name: "cosmic-cube",
            send: SimTime::from_us(150),
            recv: SimTime::from_us(150),
        },
        network: NetworkModel::Hypercube {
            per_hop: SimTime::from_us(500),
        },
        ..MappingConfig::standard(p, OverheadSetting::ZERO)
    }
}

/// The §1 era comparison: each section at 16 processors under the
/// Nectar-era row and the Cosmic-Cube-era model. First-generation MPCs
/// made fine-grained match parallelism impossible; the new generation
/// makes it attractive.
pub fn era_comparison<'t>(
    s: &'t Sections,
    plan: &mut SweepPlan<'t>,
) -> impl FnOnce(&SweepResults) -> Vec<(&'static str, f64, f64)> + 't {
    let points = per_section(s, plan, |plan, t| {
        let new_gen = point(plan, t, nectar(16));
        (t, new_gen, point(plan, t, first_gen_config(16)))
    });
    move |r: &SweepResults| {
        let rows = points.iter().map(|&(name, _, (t, new_gen, old))| {
            let speedup = |id| r.report(id).speedup_vs(r.baseline(t));
            (name, speedup(new_gen), speedup(old))
        });
        rows.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_core::simulate;
    use mpps_core::sweep::baseline;
    use mpps_ops::Sign;
    use mpps_rete::trace::{ActKind, ActivationRecord, TraceCycle};
    use mpps_rete::{NodeId, Side};

    /// A figure planned alone and the same figure batched with others must
    /// produce identical data; the batch must also be smaller than the sum
    /// of its parts (shared points deduplicate).
    #[test]
    fn batched_plan_matches_solo_and_deduplicates() {
        let s = Sections::generate();
        let mut plan = SweepPlan::new();
        let idle = network_idle(&s, &mut plan);
        let idle_points = plan.point_count();
        let era = era_comparison(&s, &mut plan);
        // The era's new-generation points are exactly the network-idle
        // points: only the Cosmic-Cube points are new.
        assert_eq!(plan.point_count(), idle_points + 3);
        assert_eq!(plan.trace_count(), 3);
        let r = plan.run(2);
        assert_eq!(idle(&r), solo(network_idle));
        assert_eq!(era(&r), solo(era_comparison));
    }

    #[test]
    fn solo_matches_direct_simulation() {
        // Spot-check one figure against a hand-rolled simulate() loop.
        let s = Sections::generate();
        let got = solo(fig5_5);
        let report = simulate(
            &s.rubik,
            &MappingConfig::standard(16, OverheadSetting::ZERO),
            &Partition::round_robin(s.rubik.table_size, 16),
        );
        let want: Vec<Vec<u64>> = report
            .left_load_matrix()
            .take(2)
            .map(<[u64]>::to_vec)
            .collect();
        assert_eq!(got, want);
        // And the baseline memoization agrees with the helper.
        let mut plan = SweepPlan::new();
        let t = plan.add_trace(&s.rubik);
        let r = plan.run(3);
        assert_eq!(r.baseline(t).total, baseline(&s.rubik).total);
    }

    fn skewed_trace() -> Trace {
        // Two cycles; each concentrates activity on buckets that
        // round-robin maps to one processor (stride 2 on 2 procs).
        let mut t = Trace::new(8);
        for cycle in 0..2u64 {
            let mut acts = Vec::new();
            for i in 0..12u64 {
                acts.push(ActivationRecord {
                    node: NodeId(1),
                    side: Side::Left,
                    sign: Sign::Plus,
                    // Cycle 0 hits even buckets (proc 0), cycle 1 odd.
                    bucket: (2 * (i % 4) + cycle) % 8,
                    parent: None,
                    kind: ActKind::TwoInput,
                });
            }
            t.cycles.push(TraceCycle { activations: acts });
        }
        t
    }

    #[test]
    fn greedy_improvement_factor_on_adversarial_trace() {
        let t = skewed_trace();
        let rr = Partition::round_robin(8, 2);
        let f = greedy_improvement_bound(&t, &rr);
        assert!((f - 2.0).abs() < 1e-9, "12/6 per cycle → ×2, got {f}");
    }

    #[test]
    fn greedy_never_worse_than_fixed() {
        let t = skewed_trace();
        for procs in [1usize, 2, 4] {
            let rr = Partition::round_robin(8, procs);
            assert!(greedy_improvement_bound(&t, &rr) >= 1.0 - 1e-9);
        }
    }
}
