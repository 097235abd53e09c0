//! Parameter sweeps: the speedup curves behind Figures 5-1 through 5-6,
//! and the parallel [`SweepPlan`] engine that executes all of a run's
//! simulation points on a worker pool.

use crate::cost::OverheadSetting;
use crate::partition::Partition;
use crate::simexec::{
    simulate, simulate_in, simulate_per_cycle_in, MappingConfig, MappingReport, SimScratch,
};
use mpps_rete::Trace;
use mpps_telemetry::recorder::SWEEP_PID;
use mpps_telemetry::{MetricSink, Recorder, TraceRecorder, Track};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// One point on a speedup curve.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SpeedupPoint {
    /// Number of match processors.
    pub processors: usize,
    /// Speedup relative to the one-processor zero-overhead baseline.
    pub speedup: f64,
    /// Absolute simulated match time.
    pub total_us: f64,
}

/// How buckets are assigned to processors in a sweep.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum PartitionStrategy {
    /// Round-robin (the paper's default).
    #[default]
    RoundRobin,
    /// Seeded uniform random placement.
    Random(u64),
    /// Offline greedy (LPT) using whole-trace bucket activity.
    GreedyWholeTrace,
}

impl PartitionStrategy {
    /// Materialize a partition for `trace` over `processors`.
    pub fn build(self, trace: &Trace, processors: usize) -> Partition {
        match self {
            PartitionStrategy::RoundRobin => Partition::round_robin(trace.table_size, processors),
            PartitionStrategy::Random(seed) => {
                Partition::random(trace.table_size, processors, seed)
            }
            PartitionStrategy::GreedyWholeTrace => {
                Partition::greedy(&crate::partition::bucket_activity(trace), processors)
            }
        }
    }
}

/// Run the baseline (1 processor, zero overheads, zero latency) for
/// `trace`.
pub fn baseline(trace: &Trace) -> MappingReport {
    simulate(
        trace,
        &MappingConfig::baseline(),
        &Partition::single(trace.table_size),
    )
}

/// Identifies a trace registered in a [`SweepPlan`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceId(usize);

/// Identifies a simulation point added to a [`SweepPlan`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PointId(usize);

/// How a point derives its bucket partition(s) from the trace.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PartitionSpec {
    /// A single whole-trace partition built by a [`PartitionStrategy`].
    Strategy(PartitionStrategy),
    /// The paper's §5.2.2 offline bound: one work-weighted greedy (LPT)
    /// distribution per cycle.
    GreedyPerCycle,
}

/// One simulation point: a trace replayed under a full mapping
/// configuration and a partition recipe. `PartialEq` drives the plan's
/// deduplication — two figures asking for the same point share one run.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PointSpec {
    /// The trace to replay.
    pub trace: TraceId,
    /// Mapping configuration of the run.
    pub config: MappingConfig,
    /// Partition recipe.
    pub partition: PartitionSpec,
}

/// A deduplicated batch of simulation points, executed together on a
/// worker pool.
///
/// Traces are registered once and shared by reference; identical points
/// (by [`PointSpec`] equality) collapse to a single run; the one-processor
/// zero-overhead baseline of every registered trace is computed exactly
/// once. Execution order is arbitrary, but results are keyed by point
/// index, so [`SweepPlan::run`] returns the same answer for any worker
/// count — including `jobs = 1`, which is the serial path.
#[derive(Default)]
pub struct SweepPlan<'t> {
    traces: Vec<&'t Trace>,
    points: Vec<PointSpec>,
    dedup_hits: u64,
}

impl<'t> SweepPlan<'t> {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `trace`, sharing it if this exact instance (by address)
    /// was registered before.
    pub fn add_trace(&mut self, trace: &'t Trace) -> TraceId {
        if let Some(i) = self.traces.iter().position(|&t| std::ptr::eq(t, trace)) {
            return TraceId(i);
        }
        self.traces.push(trace);
        TraceId(self.traces.len() - 1)
    }

    /// Add a simulation point, deduplicating against existing ones.
    pub fn add_point(&mut self, spec: PointSpec) -> PointId {
        if let Some(i) = self.points.iter().position(|p| *p == spec) {
            self.dedup_hits += 1;
            return PointId(i);
        }
        self.points.push(spec);
        PointId(self.points.len() - 1)
    }

    /// How many [`SweepPlan::add_point`] calls were answered by an
    /// already-planned point instead of a new run.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Number of distinct simulation points (excluding baselines).
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Number of distinct traces (= memoized baselines).
    pub fn trace_count(&self) -> usize {
        self.traces.len()
    }

    /// Execute every baseline and point on `jobs` workers (clamped to at
    /// least 1) and return the results keyed by id.
    pub fn run(&self, jobs: usize) -> SweepResults {
        self.run_impl(jobs, None)
    }

    /// [`SweepPlan::run`] with wall-time telemetry: one trace track per
    /// worker carrying a span per executed task (labeled `baseline` /
    /// `point`), per-task wall-clock and per-worker busy-time histograms,
    /// and the plan's dedup-hit count. Simulation results are identical
    /// to an untraced [`SweepPlan::run`].
    pub fn run_traced(&self, jobs: usize, recorder: &mut TraceRecorder) -> SweepResults {
        self.run_impl(jobs, Some(recorder))
    }

    fn task_label(i: usize, n_base: usize) -> &'static str {
        if i < n_base {
            "baseline"
        } else {
            "point"
        }
    }

    fn run_impl(&self, jobs: usize, recorder: Option<&mut TraceRecorder>) -> SweepResults {
        let n_base = self.traces.len();
        let n = n_base + self.points.len();
        let mut slots: Vec<Option<(MappingReport, u64)>> = Vec::new();
        slots.resize_with(n, || None);
        let workers = jobs.max(1).min(n);
        // All worker spans share one wall-clock origin: the run start.
        let run_start = Instant::now();
        let traced = recorder.is_some();
        let next = AtomicUsize::new(0);
        // One worker's life: claim tasks until none is left, hand each
        // result to `emit`, return what was recorded on the way.
        type Emit<'a> = &'a mut dyn FnMut(usize, MappingReport, u64) -> bool;
        let work = |w: usize, emit: Emit| -> TraceRecorder {
            // One scratch per worker: cycle-index buffers are reused
            // across every point the worker claims.
            let mut scratch = SimScratch::new();
            let mut rec = TraceRecorder::new();
            let mut busy_ns = 0u64;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t0 = Instant::now();
                let report = self.execute(i, n_base, &mut scratch);
                let wall = t0.elapsed().as_nanos() as u64;
                if traced {
                    let end = run_start.elapsed().as_nanos() as u64;
                    rec.span(
                        Track::worker(w),
                        Self::task_label(i, n_base),
                        end.saturating_sub(wall),
                        end,
                    );
                    rec.observe("task-wall-ns", wall);
                    busy_ns += wall;
                }
                if !emit(i, report, wall) {
                    break;
                }
            }
            if traced && busy_ns > 0 {
                rec.observe("worker-busy-ns", busy_ns);
            }
            rec
        };
        // Results land in their slot by index: completion order (and
        // therefore worker count) cannot affect the output.
        let worker_recs: Vec<TraceRecorder> = if workers <= 1 {
            vec![work(0, &mut |i, report, wall| {
                slots[i] = Some((report, wall));
                true
            })]
        } else {
            std::thread::scope(|s| {
                let (tx, rx) = mpsc::channel::<(usize, MappingReport, u64)>();
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let (tx, work) = (tx.clone(), &work);
                        s.spawn(move || {
                            work(w, &mut |i, report, wall| tx.send((i, report, wall)).is_ok())
                        })
                    })
                    .collect();
                drop(tx);
                for (i, report, wall) in rx {
                    slots[i] = Some((report, wall));
                }
                handles
                    .into_iter()
                    .map(|h| h.join().expect("sweep worker panicked"))
                    .collect()
            })
        };
        if let Some(rec) = recorder {
            // Worker-index order, so the combined trace layout is stable.
            for wrec in worker_recs {
                rec.merge(wrec);
            }
            rec.name_process(SWEEP_PID, "sweep workers");
            for w in 0..workers {
                rec.name_track(Track::worker(w), format!("worker {w}"));
            }
            rec.observe("dedup-hits", self.dedup_hits);
        }
        let mut it = slots
            .into_iter()
            .map(|r| r.expect("every task produces a report"));
        let (baselines, baseline_wall_ns): (Vec<_>, Vec<_>) = it.by_ref().take(n_base).unzip();
        let (reports, point_wall_ns): (Vec<_>, Vec<_>) = it.unzip();
        SweepResults {
            baselines,
            reports,
            specs: self.points.clone(),
            baseline_wall_ns,
            point_wall_ns,
        }
    }

    /// Run task `i` of the flat schedule: baselines first, then points.
    fn execute(&self, i: usize, n_base: usize, scratch: &mut SimScratch) -> MappingReport {
        if i < n_base {
            let trace = self.traces[i];
            return simulate_in(
                scratch,
                trace,
                &MappingConfig::baseline(),
                &Partition::single(trace.table_size),
            );
        }
        let spec = &self.points[i - n_base];
        let trace = self.traces[spec.trace.0];
        match spec.partition {
            PartitionSpec::Strategy(strategy) => {
                let partition = strategy.build(trace, spec.config.match_processors);
                simulate_in(scratch, trace, &spec.config, &partition)
            }
            PartitionSpec::GreedyPerCycle => {
                let procs = spec.config.match_processors;
                let parts: Vec<Partition> = (0..trace.cycles.len())
                    .map(|c| {
                        let work = crate::partition::cycle_bucket_work(trace, c, &spec.config.cost);
                        Partition::greedy(&work, procs)
                    })
                    .collect();
                simulate_per_cycle_in(scratch, trace, &spec.config, &parts)
            }
        }
    }
}

/// Results of a [`SweepPlan::run`], keyed by the ids the plan handed out.
pub struct SweepResults {
    baselines: Vec<MappingReport>,
    reports: Vec<MappingReport>,
    specs: Vec<PointSpec>,
    baseline_wall_ns: Vec<u64>,
    point_wall_ns: Vec<u64>,
}

impl SweepResults {
    /// Host wall-clock spent simulating a point (always measured; the
    /// cost is two `Instant` reads per task).
    pub fn point_wall_ns(&self, id: PointId) -> u64 {
        self.point_wall_ns[id.0]
    }

    /// Host wall-clock spent on every point, indexed like the plan's
    /// point ids.
    pub fn point_wall_ns_all(&self) -> &[u64] {
        &self.point_wall_ns
    }

    /// Host wall-clock spent computing a trace's memoized baseline.
    pub fn baseline_wall_ns(&self, id: TraceId) -> u64 {
        self.baseline_wall_ns[id.0]
    }

    /// The report of a point.
    pub fn report(&self, id: PointId) -> &MappingReport {
        &self.reports[id.0]
    }

    /// The memoized one-processor zero-overhead baseline of a trace.
    pub fn baseline(&self, id: TraceId) -> &MappingReport {
        &self.baselines[id.0]
    }

    /// Speedup of a point against its own trace's baseline.
    pub fn speedup(&self, id: PointId) -> f64 {
        self.reports[id.0].speedup_vs(&self.baselines[self.specs[id.0].trace.0])
    }

    /// The point as a [`SpeedupPoint`] (processor count from its config).
    pub fn speedup_point(&self, id: PointId) -> SpeedupPoint {
        SpeedupPoint {
            processors: self.specs[id.0].config.match_processors,
            speedup: self.speedup(id),
            total_us: self.reports[id.0].total.as_us(),
        }
    }
}

/// Speedup vs processor count at a fixed overhead setting — one curve of
/// Figure 5-1 (overhead zero) or Figure 5-2 (each Table 5-1 row).
pub fn speedup_curve(
    trace: &Trace,
    processors: &[usize],
    overhead: OverheadSetting,
    strategy: PartitionStrategy,
) -> Vec<SpeedupPoint> {
    speedup_curve_jobs(trace, processors, overhead, strategy, 1)
}

/// [`speedup_curve`] executed on a [`SweepPlan`] with `jobs` workers —
/// identical output for any worker count.
pub fn speedup_curve_jobs(
    trace: &Trace,
    processors: &[usize],
    overhead: OverheadSetting,
    strategy: PartitionStrategy,
    jobs: usize,
) -> Vec<SpeedupPoint> {
    let mut plan = SweepPlan::new();
    let t = plan.add_trace(trace);
    let ids: Vec<PointId> = processors
        .iter()
        .map(|&p| {
            plan.add_point(PointSpec {
                trace: t,
                config: MappingConfig::standard(p, overhead),
                partition: PartitionSpec::Strategy(strategy),
            })
        })
        .collect();
    let results = plan.run(jobs);
    ids.into_iter()
        .map(|id| results.speedup_point(id))
        .collect()
}

/// Peak speedup of a curve (the paper quotes "up to 8–12 fold").
pub fn peak(curve: &[SpeedupPoint]) -> SpeedupPoint {
    *curve
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .expect("curve must be non-empty")
}

/// Relative speedup loss between two curves' peaks — how §5.1 quantifies
/// the impact of overheads ("loss of 30% of speedup").
pub fn speedup_loss(zero_overhead: &[SpeedupPoint], with_overhead: &[SpeedupPoint]) -> f64 {
    let z = peak(zero_overhead).speedup;
    let w = peak(with_overhead).speedup;
    if z == 0.0 {
        0.0
    } else {
        1.0 - w / z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_rete::trace::test_support::{flat_trace, rec, trace_of};
    use mpps_rete::trace::ActKind;
    use mpps_rete::Side;

    #[test]
    fn embarrassingly_parallel_trace_scales() {
        let t = flat_trace(64, 64);
        let curve = speedup_curve(
            &t,
            &[1, 2, 4, 8],
            OverheadSetting::ZERO,
            PartitionStrategy::RoundRobin,
        );
        assert!((curve[0].speedup - 1.0).abs() < 0.05);
        // Speedup grows monotonically for this ideal workload.
        assert!(curve[1].speedup > curve[0].speedup);
        assert!(curve[3].speedup > curve[2].speedup);
        // Constant tests (30us) are duplicated, so speedup is sublinear:
        // with 8 procs: base = 30 + 64*16 = 1054; par = 30 + 8*16 = 158.
        assert!((curve[3].speedup - 1054.0 / 158.0).abs() < 0.05);
    }

    #[test]
    fn overhead_rows_order_curves() {
        let t = flat_trace(32, 32);
        let rows = OverheadSetting::table_5_1();
        // Right-activation-only traces are overhead-insensitive under
        // broadcast distribution (no token messages) — curves coincide.
        let speeds: Vec<f64> = rows
            .iter()
            .map(|&o| speedup_curve(&t, &[4], o, PartitionStrategy::RoundRobin)[0].speedup)
            .collect();
        assert!(speeds.windows(2).all(|w| w[0] >= w[1] - 1e-9));
    }

    #[test]
    fn peak_and_loss() {
        let a = vec![
            SpeedupPoint {
                processors: 1,
                speedup: 1.0,
                total_us: 100.0,
            },
            SpeedupPoint {
                processors: 4,
                speedup: 4.0,
                total_us: 25.0,
            },
        ];
        let b = vec![SpeedupPoint {
            processors: 4,
            speedup: 2.0,
            total_us: 50.0,
        }];
        assert_eq!(peak(&a).processors, 4);
        assert!((speedup_loss(&a, &b) - 0.5).abs() < 1e-12);
    }

    /// A trace with parent/child structure so greedy-per-cycle and the
    /// baseline see non-trivial work.
    fn chain_trace(table: u64) -> Trace {
        let cycles = (0..3u64)
            .map(|cycle| {
                let mut acts = vec![rec(1, Side::Right, cycle % table, None, ActKind::TwoInput)];
                for i in 1..6u32 {
                    acts.push(rec(
                        1 + i,
                        Side::Left,
                        (cycle + i as u64 * 3) % table,
                        Some(i - 1),
                        ActKind::TwoInput,
                    ));
                }
                acts
            })
            .collect();
        trace_of(table, cycles)
    }

    #[test]
    fn plan_deduplicates_points_and_traces() {
        let t = flat_trace(16, 16);
        let mut plan = SweepPlan::new();
        let a = plan.add_trace(&t);
        let b = plan.add_trace(&t);
        assert_eq!(a, b);
        assert_eq!(plan.trace_count(), 1);
        let spec = PointSpec {
            trace: a,
            config: MappingConfig::standard(4, OverheadSetting::ZERO),
            partition: PartitionSpec::Strategy(PartitionStrategy::RoundRobin),
        };
        let p1 = plan.add_point(spec);
        let p2 = plan.add_point(spec);
        assert_eq!(p1, p2);
        assert_eq!(plan.point_count(), 1);
        let other = PointSpec {
            config: MappingConfig::standard(8, OverheadSetting::ZERO),
            ..spec
        };
        assert_ne!(plan.add_point(other), p1);
        assert_eq!(plan.point_count(), 2);
    }

    #[test]
    fn plan_results_are_identical_for_any_worker_count() {
        let t = chain_trace(16);
        let build = || {
            let mut plan = SweepPlan::new();
            let tid = plan.add_trace(&t);
            let ids: Vec<PointId> = [1usize, 2, 4, 8]
                .iter()
                .flat_map(|&p| {
                    [
                        PartitionSpec::Strategy(PartitionStrategy::RoundRobin),
                        PartitionSpec::Strategy(PartitionStrategy::Random(7)),
                        PartitionSpec::GreedyPerCycle,
                    ]
                    .map(|partition| {
                        plan.add_point(PointSpec {
                            trace: tid,
                            config: MappingConfig::standard(p, OverheadSetting::table_5_1()[1]),
                            partition,
                        })
                    })
                })
                .collect();
            (plan, tid, ids)
        };
        let (plan, tid, ids) = build();
        let serial = plan.run(1);
        for jobs in [2, 3, 8, 64] {
            let parallel = plan.run(jobs);
            assert_eq!(parallel.baseline(tid).total, serial.baseline(tid).total);
            for &id in &ids {
                assert_eq!(parallel.report(id).total, serial.report(id).total);
                assert_eq!(parallel.speedup(id), serial.speedup(id));
            }
        }
    }

    #[test]
    fn plan_matches_direct_simulation() {
        let t = chain_trace(16);
        let mut plan = SweepPlan::new();
        let tid = plan.add_trace(&t);
        let config = MappingConfig::standard(4, OverheadSetting::table_5_1()[2]);
        let id = plan.add_point(PointSpec {
            trace: tid,
            config,
            partition: PartitionSpec::Strategy(PartitionStrategy::RoundRobin),
        });
        let results = plan.run(4);
        let direct = simulate(&t, &config, &Partition::round_robin(16, 4));
        assert_eq!(results.report(id).total, direct.total);
        assert_eq!(results.baseline(tid).total, baseline(&t).total);
    }

    #[test]
    fn parallel_curves_match_serial_helpers() {
        let t = chain_trace(16);
        let procs = [1usize, 2, 4, 8];
        let sc = speedup_curve(
            &t,
            &procs,
            OverheadSetting::ZERO,
            PartitionStrategy::Random(3),
        );
        let pc = speedup_curve_jobs(
            &t,
            &procs,
            OverheadSetting::ZERO,
            PartitionStrategy::Random(3),
            5,
        );
        assert_eq!(sc, pc);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_worker_tracks() {
        let t = chain_trace(16);
        let mut plan = SweepPlan::new();
        let tid = plan.add_trace(&t);
        let spec = PointSpec {
            trace: tid,
            config: MappingConfig::standard(4, OverheadSetting::table_5_1()[1]),
            partition: PartitionSpec::Strategy(PartitionStrategy::RoundRobin),
        };
        let id = plan.add_point(spec);
        let dup = plan.add_point(spec); // dedup hit
        assert_eq!(id, dup);
        assert_eq!(plan.dedup_hits(), 1);
        plan.add_point(PointSpec {
            config: MappingConfig::standard(8, OverheadSetting::table_5_1()[1]),
            ..spec
        });

        let untraced = plan.run(2);
        let mut rec = TraceRecorder::new();
        let traced = plan.run_traced(2, &mut rec);
        assert_eq!(traced.report(id).total, untraced.report(id).total);
        assert_eq!(traced.baseline(tid).total, untraced.baseline(tid).total);

        // One span per executed task (1 baseline + 2 points), all on
        // worker lanes in the sweep track group.
        assert_eq!(rec.spans().len(), 3);
        assert!(rec.spans().iter().all(|s| s.track.pid == SWEEP_PID));
        assert_eq!(rec.histogram("task-wall-ns").unwrap().count(), 3);
        assert_eq!(rec.histogram("dedup-hits").unwrap().max(), Some(1));
        assert!(rec.histogram("worker-busy-ns").is_some());
        assert!(rec
            .process_names()
            .iter()
            .any(|(p, n)| *p == SWEEP_PID && n == "sweep workers"));

        // Wall-clock was measured for every task even without tracing.
        assert!(untraced.point_wall_ns(id) > 0);
        assert_eq!(untraced.point_wall_ns_all().len(), 2);
        assert!(untraced.baseline_wall_ns(tid) > 0);
    }

    #[test]
    fn empty_plan_runs() {
        let plan = SweepPlan::new();
        let results = plan.run(8);
        assert_eq!(results.reports.len(), 0);
        assert_eq!(results.baselines.len(), 0);
    }

    #[test]
    fn strategies_build_valid_partitions() {
        let t = flat_trace(16, 16);
        for s in [
            PartitionStrategy::RoundRobin,
            PartitionStrategy::Random(7),
            PartitionStrategy::GreedyWholeTrace,
        ] {
            let p = s.build(&t, 4);
            assert_eq!(p.processors(), 4);
            assert_eq!(p.table_size(), 16);
        }
    }
}
