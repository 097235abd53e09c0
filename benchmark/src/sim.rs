//! `sim-sweep`: the paper's own deliverable — the Figure 5-1/5-2 grid of
//! the trace-driven simulator. Three calibrated synthetic sections ×
//! processors {1..64} × the four Table 5-1 overhead rows × {round-robin,
//! greedy} = 168 points per sweep, `jobs = 1`.
//!
//! Speed is host time; the simulated statistics themselves are checked for
//! exact equality (across rounds, across `jobs`, and at seed 1 against a
//! pinned checksum), so a simulator speed-up must leave every one identical.

use crate::harness::{fnv1a, median, p50_p99_us, rounds, timed_setup, Opts, Rng, Spans};
use crate::metrics::Outcome;
use mpps_core::sweep::{peak, speedup_loss};
use mpps_core::{
    bucket_activity, load_skew, MappingConfig, OverheadSetting, Partition, PartitionSpec,
    PartitionStrategy, PointId, PointSpec, SpeedupPoint, SweepPlan, SweepResults, TraceId,
};
use mpps_rete::Trace;
use mpps_workloads::synth;
use std::time::Instant;

const PROCESSORS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
const STRATEGIES: [PartitionStrategy; 2] = [
    PartitionStrategy::RoundRobin,
    PartitionStrategy::GreedyWholeTrace,
];
/// Trace sets a run rotates through, one sweep (= one round) each in turn.
/// Which two of a sweep's 168 points are its slowest depends on the draw
/// (for about half the seeds the greedy packer produces a Tourney partition
/// that simulates 25 % slower), so one set would make a run's `op_p99_us`
/// a property of its seed; ten make it a property of the simulator.
const TRACE_SETS: usize = 10;
/// FNV-1a of the 168 makespans of the first trace set at seed 1, in plan
/// order.
const SEED_1_CHECKSUM: &str = include_str!("../data/sim-sweep-seed1.checksum");

pub struct Inputs {
    /// Per set: the three calibrated synthetic sections.
    sets: Vec<[Trace; 3]>,
}

pub fn build(opts: &Opts) -> Inputs {
    let mut rng = Rng::new(opts.seed);
    let sets = (0..TRACE_SETS)
        .map(|_| {
            let seed = rng.next_u64();
            [
                synth::rubik(seed),
                synth::tourney(seed),
                synth::weaver(seed),
            ]
        })
        .collect();
    Inputs { sets }
}

/// The plan and, per section × strategy × overhead row, its curve's points.
struct Grid<'t> {
    plan: SweepPlan<'t>,
    traces: Vec<TraceId>,
    /// `curves[section][strategy][overhead]` = point ids over `PROCESSORS`.
    curves: Vec<Vec<Vec<Vec<PointId>>>>,
    /// Activation records replayed by one sweep (every point and baseline).
    acts_per_sweep: u64,
}

fn grid(traces: &[Trace; 3]) -> Grid<'_> {
    let mut plan = SweepPlan::new();
    let mut acts_per_sweep = 0u64;
    let mut ids = Vec::new();
    let curves = traces
        .iter()
        .map(|trace| {
            let t = plan.add_trace(trace);
            ids.push(t);
            let acts: u64 = trace
                .cycles
                .iter()
                .map(|c| c.activations.len() as u64)
                .sum();
            let points = (STRATEGIES.len() * 4 * PROCESSORS.len()) as u64;
            acts_per_sweep += acts * (points + 1);
            STRATEGIES
                .iter()
                .map(|&strategy| {
                    OverheadSetting::table_5_1()
                        .iter()
                        .map(|&overhead| {
                            PROCESSORS
                                .iter()
                                .map(|&p| {
                                    plan.add_point(PointSpec {
                                        trace: t,
                                        config: MappingConfig::standard(p, overhead),
                                        partition: PartitionSpec::Strategy(strategy),
                                    })
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    Grid {
        plan,
        traces: ids,
        curves,
        acts_per_sweep,
    }
}

impl Grid<'_> {
    fn point_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        self.curves.iter().flatten().flatten().flatten().copied()
    }

    /// Digest of every simulated makespan, in plan order.
    fn checksum(&self, results: &SweepResults) -> u64 {
        fnv1a(
            self.point_ids()
                .flat_map(|id| results.report(id).total.as_ns().to_le_bytes()),
        )
    }
}

/// The grids of a run, swept in rotation.
struct Rotation<'t> {
    grids: Vec<Grid<'t>>,
    /// Per grid, the checksum its first sweep produced: every later sweep
    /// of it, under any `jobs`, must reproduce it.
    seen: Vec<Option<u64>>,
    next: usize,
}

impl<'t> Rotation<'t> {
    fn new(inp: &'t Inputs) -> Self {
        Rotation {
            grids: inp.sets.iter().map(grid).collect(),
            seen: vec![None; inp.sets.len()],
            next: 0,
        }
    }

    /// Every phase starts from the first set, so that phases of different
    /// lengths still compare sweeps of the same sets.
    fn restart(&mut self) {
        self.next = 0;
    }

    /// Sweep the next grid. `false` if its makespans differ from those of
    /// that grid's first sweep.
    fn sweep(&mut self, jobs: usize) -> (&Grid<'t>, SweepResults, bool) {
        let at = self.next;
        self.next = (at + 1) % self.grids.len();
        let grid = &self.grids[at];
        let results = grid.plan.run(jobs);
        let sum = grid.checksum(&results);
        let same = *self.seen[at].get_or_insert(sum) == sum;
        (grid, results, same)
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup) = timed_setup(opts, || build(opts));
    let gen_ms = median(&setup) * 1e3;
    let mut rotation = Rotation::new(&inp);
    let points = rotation.grids[0].plan.point_count() as u64;

    // The first set once, ahead of the phases: the run's digest and, at
    // seed 1, the pinned check.
    let (_, first, _) = rotation.sweep(1);
    let digest = rotation.seen[0].expect("just swept");
    out.attempted += points;
    if opts.seed == 1 {
        let pinned = SEED_1_CHECKSUM.trim();
        out.check(format!("{digest:016x}") == pinned, || {
            format!("makespan checksum {digest:016x} differs from the pinned {pinned}")
        });
    }
    out.digest = Some(digest);

    if opts.trace {
        traced(&inp, &mut rotation, &first, gen_ms, opts, &mut out);
        return out;
    }
    rotation.restart();
    let (mut rate, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    rounds(opts.rounds(1.0), |measured| {
        let t0 = Instant::now();
        let (grid, results, same) = rotation.sweep(1);
        let wall = t0.elapsed().as_secs_f64();
        if measured {
            out.attempted += points;
            out.check(same, || "simulated makespans changed between rounds".into());
            let (p50, p99) = p50_p99_us(&mut results.point_wall_ns_all().to_vec());
            rate.push(grid.acts_per_sweep as f64 / wall);
            p50s.push(p50);
            p99s.push(p99);
        }
    });
    let n = points * rate.len() as u64;
    out.end_to_end(rate, p50s, p99s, n, setup);
    out
}

fn traced(
    inp: &Inputs,
    rotation: &mut Rotation<'_>,
    first: &SweepResults,
    gen_ms: f64,
    opts: &Opts,
    out: &mut Outcome,
) {
    let points = rotation.grids[0].plan.point_count() as u64;
    let mut sweep_wall = |jobs: usize, budget: f64, out: &mut Outcome| {
        rotation.restart();
        let mut walls = Vec::new();
        rounds(opts.rounds(budget), |measured| {
            let t0 = Instant::now();
            let (_, _, same) = rotation.sweep(jobs);
            if measured {
                walls.push(t0.elapsed().as_secs_f64());
                out.attempted += points;
                out.check(same, || format!("makespans differ under jobs = {jobs}"));
            }
        });
        median(&walls)
    };
    // Untraced reference, and the same sweeps on two workers.
    let plain = sweep_wall(1, 0.25, out);
    let jobs2 = sweep_wall(2, 0.25, out);
    out.single("core.sweep.jobs2_speedup", plain / jobs2);

    // The sweep engine times every task itself; the spans are its numbers.
    rotation.restart();
    let mut spans = Spans::new();
    let began = Instant::now();
    let root = spans.open("workload", None);
    let mut traced_wall = Vec::new();
    let (mut point_ns, mut acts) = (0u64, 0u64);
    rounds(opts.rounds(0.3), |measured| {
        let round = spans.open("round", Some(root));
        let t0 = Instant::now();
        let sweep = spans.open("sweep", Some(round));
        let (grid, results, _) = rotation.sweep(1);
        let mut at = spans.kept[sweep as usize].start_ns;
        for &t in &grid.traces {
            let ns = results.baseline_wall_ns(t);
            spans.leaf("core.simexec.baseline", "sweep", at, at + ns, Some(sweep));
            at += ns;
        }
        for &ns in results.point_wall_ns_all() {
            spans.leaf("core.simexec.point", "sweep", at, at + ns, Some(sweep));
            at += ns;
            point_ns += ns;
        }
        acts += grid.acts_per_sweep;
        spans.close(sweep);
        if measured {
            traced_wall.push(t0.elapsed().as_secs_f64());
        }
        spans.close(round);
    });
    spans.close(root);
    let wall_ns = began.elapsed().as_nanos() as u64;
    let grid = &rotation.grids[0];
    out.single(
        "core.simexec.host_ns_per_act",
        point_ns as f64 / acts.max(1) as f64,
    );
    out.single("core.sweep.points", points as f64);
    out.single("core.sweep.dedup_hits", grid.plan.dedup_hits() as f64);
    out.single("telemetry.trace_overhead", median(&traced_wall) / plain);
    out.traced(
        opts,
        "sim-sweep",
        &spans,
        wall_ns,
        &spans.recorder("sim-sweep"),
    );
    out.single("workloads.synth.gen_ms", gen_ms);

    // The simulated results of the first set: the shape of the paper's
    // Table 5-2. Round-robin curves; exact, so any change is a model change,
    // not noise.
    let curve = |section: usize, overhead: usize| -> Vec<SpeedupPoint> {
        grid.curves[section][0][overhead]
            .iter()
            .map(|&id| first.speedup_point(id))
            .collect()
    };
    let names: [(&'static str, &'static str); 3] = [
        (
            "core.simexec.peak_speedup_rubik",
            "core.simexec.loss_at_32us_rubik",
        ),
        (
            "core.simexec.peak_speedup_tourney",
            "core.simexec.loss_at_32us_tourney",
        ),
        (
            "core.simexec.peak_speedup_weaver",
            "core.simexec.loss_at_32us_weaver",
        ),
    ];
    for (section, (peak_name, loss_name)) in names.into_iter().enumerate() {
        let zero = curve(section, 0);
        out.single(peak_name, peak(&zero).speedup);
        out.single(loss_name, speedup_loss(&zero, &curve(section, 3)));
    }
    let messages: u64 = grid
        .point_ids()
        .map(|id| first.report(id).network_messages())
        .sum();
    out.single("mpcsim.network_messages", messages as f64);

    // The greedy packer alone, on the section with the most buckets in use.
    let activity = bucket_activity(&inp.sets[0][0]);
    let mut greedy = Vec::new();
    let mut skew = 0.0;
    for _ in 0..opts.size(400, 20) {
        let t0 = Instant::now();
        let partition = Partition::greedy(&activity, 16);
        greedy.push(t0.elapsed().as_nanos() as u64);
        skew = load_skew(&partition.loads(&activity));
    }
    out.p50_us("core.partition.greedy_us_p50", &mut greedy);
    out.single("core.partition.greedy_skew", skew);
}
