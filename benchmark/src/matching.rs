//! The three match workloads — `rubik-modify`, `tourney-cross`,
//! `weaver-small` — over the sequential and the threaded executor.
//!
//! Timed run: the full recognise–act loop of `Interpreter<ReteMatcher>`,
//! one clock read per `step`. Traced run: the same loop over
//! `Timed<ReteMatcher>` with a span per cycle and matcher call, then the
//! threaded executor on the same inputs (checked against the sequential
//! outputs), exact activation counts, and the simulator's prediction for the
//! threads it models.

use crate::harness::{
    fnv1a, median, p50_p99_us, percentile, rounds, timed_setup, Opts, Rng, Spans, Timed,
    KEEP_PER_ROUND,
};
use crate::metrics::Outcome;
use mpps_core::{simulate, sweep, MappingConfig, OverheadSetting, Partition, ThreadedMatcher};
use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{Interpreter, Matcher, ProductionId, Program, RunOutcome, Strategy, Wme, WmeId};
use mpps_rete::kernel::metric;
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_telemetry::MetricsRegistry;
use mpps_workloads::{capture_trace, rubik, tourney, weaver};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Rubik,
    Tourney,
    Weaver,
}

/// Rubik plan length: long enough that the 103-production compile is <1 %
/// of a round and the load cycle <1 % of the cycle samples.
const RUBIK_MOVES: usize = 400;
/// The paper's cross-product: 32 × 32 teams in one hash bucket.
const TOURNEY_TEAMS: usize = 32;
/// A long thin grid: ≥200 small cycles per run.
const WEAVER_GRID: (i64, i64) = (200, 2);
/// 201 `extend-path` firings (the route detours once through row 1) and
/// the closing `net-routed`.
const WEAVER_FIRED: usize = 202;
/// Hash buckets of both executors (the engine's default).
const TABLE_SIZE: u64 = 2048;

/// Everything a run needs, built once in set-up.
pub struct Inputs {
    kind: Kind,
    program: Arc<Program>,
    network: Arc<ReteNetwork>,
    /// Initial working memories; run `i` of a round loads `initial[i % len]`.
    initial: Vec<Vec<Wme>>,
    max_cycles: usize,
    runs_per_round: usize,
    /// Firings every run must make.
    expect_fired: usize,
    expect_outcome: RunOutcome,
}

pub fn build(kind: Kind, opts: &Opts) -> Inputs {
    let mut rng = Rng::new(opts.seed);
    let (program, initial, max_cycles, runs, expect_fired, expect_outcome) = match kind {
        Kind::Rubik => {
            let moves: Vec<rubik::Face> = (0..RUBIK_MOVES)
                .map(|_| [rubik::Face::U, rubik::Face::R][rng.below(2)])
                .collect();
            (
                rubik::program(),
                vec![rubik::initial(&moves)],
                RUBIK_MOVES + 8,
                opts.size(16, 1),
                RUBIK_MOVES + 1,
                RunOutcome::Halted,
            )
        }
        Kind::Tourney => {
            // The seed picks the order teams enter working memory (their
            // time tags), hence which pairs LEX schedules first, and that
            // moves a run's median cycle by up to 7 %. Every run of a round
            // gets an order of its own, so that a round's cost is that of
            // the rule and not of a lucky or unlucky order.
            let runs = opts.size(80, 4);
            let initial = (0..runs)
                .map(|_| {
                    let mut wmes = tourney::initial(TOURNEY_TEAMS, TOURNEY_TEAMS);
                    let teams = wmes.len() - 1;
                    rng.shuffle(&mut wmes[..teams]);
                    wmes
                })
                .collect();
            (
                tourney::program(),
                initial,
                TOURNEY_TEAMS + 8,
                runs,
                TOURNEY_TEAMS,
                RunOutcome::Quiescent,
            )
        }
        Kind::Weaver => (
            // One net on a fixed grid: this workload has no freedom for the
            // seed to drive, which is what keeps its cycles uniformly small.
            weaver::program(),
            vec![weaver::initial(WEAVER_GRID.0, WEAVER_GRID.1)],
            4 * WEAVER_GRID.0 as usize,
            opts.size(200, 10),
            WEAVER_FIRED,
            RunOutcome::Quiescent,
        ),
    };
    let network = ReteNetwork::compile(&program).expect("workload program compiles");
    Inputs {
        kind,
        program: Arc::new(program),
        network: Arc::new(network),
        initial,
        max_cycles,
        runs_per_round: runs,
        expect_fired,
        expect_outcome,
    }
}

/// What a finished run left behind, for the output checks.
#[derive(PartialEq, Eq, Debug)]
struct Final {
    cycles: usize,
    fired: usize,
    changes: usize,
    outcome: RunOutcome,
    wm_digest: u64,
    conflict_set: Vec<(ProductionId, Vec<WmeId>)>,
}

fn final_state<M: Matcher>(interp: &Interpreter<M>, outcome: RunOutcome) -> Final {
    let mut wm: Vec<String> = interp
        .working_memory()
        .iter()
        .map(|(id, w)| format!("{id} {w}\n"))
        .collect();
    wm.sort();
    Final {
        cycles: interp.cycles(),
        fired: interp.fired().len(),
        changes: interp.change_log().iter().map(Vec::len).sum(),
        outcome,
        wm_digest: fnv1a(wm.iter().flat_map(|s| s.bytes())),
        // Already in canonical (production, wme_ids) order.
        conflict_set: interp
            .matcher()
            .conflict_set()
            .iter()
            .map(|i| i.key())
            .collect(),
    }
}

/// One complete run: load the initial working memory, step to the end.
/// `on_cycle(interp, is_load_cycle, start_ns, end_ns)` sees every step.
fn drive<M: Matcher>(
    inp: &Inputs,
    run: usize,
    matcher: M,
    epoch: Instant,
    mut on_cycle: impl FnMut(&Interpreter<M>, bool, u64, u64),
) -> (Interpreter<M>, RunOutcome) {
    let mut interp = Interpreter::with_shared_program(inp.program.clone(), Strategy::Lex, matcher);
    for wme in &inp.initial[run % inp.initial.len()] {
        interp.add_wme(wme.clone());
    }
    let mut outcome = RunOutcome::CycleLimit;
    let mut start = epoch.elapsed().as_nanos() as u64;
    for cycle in 0..inp.max_cycles {
        let step = interp.step().expect("workload steps never fail");
        let end = epoch.elapsed().as_nanos() as u64;
        on_cycle(&interp, cycle == 0, start, end);
        start = end;
        match step {
            StepOutcome::Quiescent => {
                outcome = RunOutcome::Quiescent;
                break;
            }
            StepOutcome::Fired(_) if interp.is_halted() => {
                outcome = RunOutcome::Halted;
                break;
            }
            StepOutcome::Fired(_) => {}
        }
    }
    (interp, outcome)
}

fn seq_matcher(inp: &Inputs) -> ReteMatcher {
    ReteMatcher::new_shared(
        inp.network.clone(),
        EngineConfig {
            table_size: TABLE_SIZE,
            record_trace: false,
        },
    )
}

/// Every run must fire the pinned count and end the pinned way.
fn check_run<M: Matcher>(
    out: &mut Outcome,
    inp: &Inputs,
    what: &str,
    interp: &Interpreter<M>,
    outcome: RunOutcome,
) {
    out.attempted += 1;
    let fired = interp.fired().len();
    out.check(
        fired == inp.expect_fired && outcome == inp.expect_outcome,
        || {
            format!(
                "{what}: fired {fired} ended {outcome:?}, expected {} {:?}",
                inp.expect_fired, inp.expect_outcome
            )
        },
    );
}

/// Per-round results of a stepping phase.
#[derive(Default)]
struct Phase {
    changes_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    load_us: Vec<f64>,
    wall_s: Vec<f64>,
    samples_per_round: u64,
    reference: Option<Final>,
}

/// Rounds of `runs_per_round` plain runs over the matcher `make` builds:
/// one clock read per step, outputs checked outside the timed region.
fn plain_phase<M: Matcher>(
    inp: &Inputs,
    out: &mut Outcome,
    what: &str,
    n_rounds: usize,
    runs_per_round: usize,
    make: impl Fn() -> M,
    same_as: Option<&Final>,
) -> Phase {
    let epoch = Instant::now();
    let mut phase = Phase::default();
    let mut samples: Vec<u64> = Vec::new();
    let mut loads: Vec<u64> = Vec::new();
    rounds(n_rounds, |measured| {
        samples.clear();
        loads.clear();
        let mut wall_ns = 0u64;
        let mut changes = 0usize;
        for run in 0..runs_per_round {
            let t0 = Instant::now();
            let (interp, outcome) = drive(inp, run, make(), epoch, |_, load, start, end| {
                if load {
                    loads.push(end - start);
                } else {
                    samples.push(end - start);
                }
            });
            wall_ns += t0.elapsed().as_nanos() as u64;
            if !measured {
                continue;
            }
            changes += interp.change_log().iter().map(Vec::len).sum::<usize>();
            check_run(out, inp, what, &interp, outcome);
            if run == 0 {
                // The full comparison (final WM, conflict set) once a round.
                let f = final_state(&interp, outcome);
                if let Some(reference) = same_as.or(phase.reference.as_ref()) {
                    out.check(&f == reference, || {
                        format!("{what}: final state differs from the reference run")
                    });
                }
                phase.reference.get_or_insert(f);
            }
        }
        if measured {
            let (p50, p99) = p50_p99_us(&mut samples);
            phase
                .changes_per_s
                .push(changes as f64 / (wall_ns as f64 / 1e9));
            phase.p50_us.push(p50);
            phase.p99_us.push(p99);
            loads.sort_unstable();
            phase.load_us.push(percentile(&loads, 0.5) as f64 / 1e3);
            phase.wall_s.push(wall_ns as f64 / 1e9);
            phase.samples_per_round = samples.len() as u64;
        }
    });
    phase
}

pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup) = timed_setup(opts, || build(kind, opts));
    if opts.trace {
        traced(&inp, opts, &mut out);
    } else {
        let seq = plain_phase(
            &inp,
            &mut out,
            "seq",
            opts.rounds(1.0),
            inp.runs_per_round,
            || seq_matcher(&inp),
            None,
        );
        out.digest = seq.reference.as_ref().map(|f| f.wm_digest);
        let n = seq.samples_per_round * seq.p50_us.len() as u64;
        out.end_to_end(seq.changes_per_s, seq.p50_us, seq.p99_us, n, setup);
    }
    out
}

/// Workers of the threaded phases: the coordinator blocks in `recv` while
/// they match, so this keeps at most `nproc` threads runnable.
pub fn thr_workers() -> usize {
    mpps_telemetry::available_cpus().clamp(1, 2)
}

fn traced(inp: &Inputs, opts: &Opts, out: &mut Outcome) {
    // Sequential reference, untraced: the base of `trace_overhead` and of
    // `speedup_vs_seq`, and the outputs every other phase must reproduce.
    let seq = plain_phase(
        inp,
        out,
        "seq",
        opts.rounds(0.2),
        inp.runs_per_round,
        || seq_matcher(inp),
        None,
    );
    let reference = seq.reference.as_ref().expect("at least one measured round");
    out.digest = Some(reference.wm_digest);
    let seq_rate = median(&seq.changes_per_s);

    // The same rounds over `Timed<ReteMatcher>`, a span per layer call.
    let mut spans = Spans::new();
    let epoch = spans.epoch;
    let traced_began = Instant::now();
    let root = spans.open("workload", None);
    let mut cs_lens: Vec<u64> = Vec::new();
    let mut traced_wall: Vec<f64> = Vec::new();
    let mut cycles = 0u64;
    let mut changes = 0u64;
    rounds(opts.rounds(0.3), |measured| {
        let round = spans.open("round", Some(root));
        let mut kept = 0usize;
        let t0 = Instant::now();
        for i in 0..inp.runs_per_round {
            let run = spans.open("run", Some(round));
            let matcher = Timed::new(seq_matcher(inp), epoch);
            let (interp, outcome) = drive(inp, i, matcher, epoch, |interp, load, start, end| {
                let keep = (kept < KEEP_PER_ROUND).then_some(run);
                kept += 1;
                let m = interp.matcher();
                let cycle = spans.leaf("cycle", "run", start, end, keep);
                let (p0, p1) = m.process;
                spans.leaf("matcher.process", "cycle", p0, p1, cycle);
                let (c0, c1) = m.conflict.get();
                spans.leaf("matcher.conflict_set", "cycle", c0, c1, cycle);
                if !load {
                    cs_lens.push(m.conflict_len.get() as u64);
                }
            });
            cycles += interp.cycles() as u64;
            changes += interp.change_log().iter().map(Vec::len).sum::<usize>() as u64;
            if measured {
                check_run(out, inp, "traced seq", &interp, outcome);
            }
            drop(interp);
            spans.close(run);
        }
        if measured {
            traced_wall.push(t0.elapsed().as_secs_f64());
        }
        spans.close(round);
    });
    spans.close(root);
    let traced_wall_ns = traced_began.elapsed().as_nanos() as u64;

    // Spans and these sums cover the warm-up round too: same work, and the
    // shares are ratios within it.
    let cycle_ns = spans.total_ns("cycle");
    let share = |ns: u64| ns as f64 / cycle_ns.max(1) as f64;
    let process_ns = spans.total_ns("matcher.process");
    let conflict_ns = spans.total_ns("matcher.conflict_set");
    let self_ns = spans.self_ns("cycle");
    out.single("rete.engine.process_share", share(process_ns));
    out.single(
        "rete.engine.process_ns_per_change",
        process_ns as f64 / changes.max(1) as f64,
    );
    out.single("rete.engine.conflict_set_share", share(conflict_ns));
    cs_lens.sort_unstable();
    out.single(
        "rete.engine.conflict_set_len_p50",
        percentile(&cs_lens, 0.5) as f64,
    );
    out.single(
        "rete.engine.conflict_set_len_max",
        cs_lens.last().copied().unwrap_or(0) as f64,
    );
    out.single("ops.interpreter.self_share", share(self_ns));
    out.single(
        "ops.interpreter.self_ns_per_cycle",
        self_ns as f64 / cycles.max(1) as f64,
    );
    out.median_of(
        "ops.interpreter.load_cycle_us_p50",
        seq.load_us.clone(),
        seq.load_us.len() as u64,
    );
    out.single("ops.interpreter.cycles", reference.cycles as f64);
    out.single("ops.interpreter.fired", reference.fired as f64);
    out.single("ops.interpreter.changes", reference.changes as f64);
    out.single(
        "telemetry.trace_overhead",
        median(&traced_wall) / median(&seq.wall_s),
    );
    let name = name_of(inp.kind);
    out.traced(opts, name, &spans, traced_wall_ns, &spans.recorder(name));

    // Compile happens once, in set-up: its share of everything this run did.
    let mut compiles: Vec<u64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(ReteNetwork::compile(&inp.program).expect("compiles"));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    compiles.sort_unstable();
    let compile_ns = percentile(&compiles, 0.5);
    let stats = inp.network.stats();
    out.single(
        "rete.network.compile_share",
        compile_ns as f64 / (compile_ns + traced_wall_ns) as f64,
    );
    out.single("rete.network.compile_us_p50", compile_ns as f64 / 1e3);
    out.single(
        "rete.network.nodes",
        (stats.alpha + stats.two_input + stats.production) as f64,
    );

    counts(inp, out, reference);
    threaded(inp, opts, out, reference, seq_rate);
}

pub fn name_of(kind: Kind) -> &'static str {
    match kind {
        Kind::Rubik => "rubik-modify",
        Kind::Tourney => "tourney-cross",
        Kind::Weaver => "weaver-small",
    }
}

/// Exact counts from one run under the profiled kernel, and the left/right
/// split from one run under the trace-recording engine. Counts, not times:
/// they must repeat exactly for a seed.
fn counts(inp: &Inputs, out: &mut Outcome, reference: &Final) {
    let profiled = ReteMatcher::with_metrics_shared(
        inp.network.clone(),
        EngineConfig {
            table_size: TABLE_SIZE,
            record_trace: false,
        },
        MetricsRegistry::new(),
    );
    let (mut interp, outcome) = drive(inp, 0, profiled, Instant::now(), |_, _, _, _| {});
    out.attempted += 1;
    out.check(&final_state(&interp, outcome) == reference, || {
        "profiled run differs from the plain run".into()
    });
    let registry = interp.matcher_mut().profile();
    let activations = registry.counter_total(metric::NODE_ACTIVATIONS);
    let probes = registry.counter_total(metric::NODE_LEFT_PROBES)
        + registry.counter_total(metric::NODE_RIGHT_PROBES);
    out.single(
        "rete.engine.probes_per_activation",
        probes as f64 / activations.max(1) as f64,
    );
    let high_water = registry
        .gauge(metric::ARENA_HIGH_WATER)
        .and_then(|g| g.values().max().copied())
        .unwrap_or(0);
    out.single("rete.engine.arena_high_water", high_water as f64);

    let captured = capture_trace(
        (*inp.program).clone(),
        inp.initial[0].clone(),
        Strategy::Lex,
        inp.max_cycles,
        TABLE_SIZE,
    )
    .expect("capture run");
    out.attempted += 1;
    out.check(captured.result.fired.len() == reference.fired, || {
        "trace-capture run fired a different count".into()
    });
    let stats = captured.trace.stats();
    out.single("rete.engine.activations_left", stats.left as f64);
    out.single("rete.engine.activations_right", stats.right as f64);
    out.single("rete.engine.left_share", stats.left_fraction());

    // The simulator's view of the threads it models: the captured trace at
    // `thr_workers` processors, round-robin buckets as `ThreadedMatcher::new`
    // assigns them, zero message overhead (the model's most optimistic row).
    let workers = thr_workers();
    let report = simulate(
        &captured.trace,
        &MappingConfig::standard(workers, OverheadSetting::ZERO),
        &Partition::round_robin(TABLE_SIZE, workers),
    );
    out.single(
        "core.simexec.predicted_speedup",
        report.speedup_vs(&sweep::baseline(&captured.trace)),
    );
}

/// The threaded executor on the same inputs, every run checked against the
/// sequential outputs.
fn threaded(inp: &Inputs, opts: &Opts, out: &mut Outcome, reference: &Final, seq_rate: f64) {
    let workers = thr_workers();
    out.single("core.threaded.workers", workers as f64);
    let make = || ThreadedMatcher::new((*inp.network).clone(), workers, TABLE_SIZE);
    // A quarter of the runs per round: on two CPUs the threaded executor is
    // several times slower than the sequential one, and the phase must fit.
    let runs = inp.runs_per_round.div_ceil(4);
    let thr = plain_phase(
        inp,
        out,
        "threaded",
        opts.rounds(0.3),
        runs,
        make,
        Some(reference),
    );
    let thr_rate = median(&thr.changes_per_s);
    let n = thr.samples_per_round * thr.p50_us.len() as u64;
    out.median_of(
        "core.threaded.changes_per_s",
        thr.changes_per_s,
        thr.wall_s.len() as u64,
    );
    out.median_of("core.threaded.cycle_p50_us", thr.p50_us, n);
    out.median_of("core.threaded.cycle_p99_us", thr.p99_us, n);
    let speedup = thr_rate / seq_rate;
    out.single("core.threaded.speedup_vs_seq", speedup);
    if let Some(predicted) = out.get("core.simexec.predicted_speedup").map(|m| m.value) {
        out.single("core.simexec.model_error", (predicted - speedup) / speedup);
    }

    // A few profiled runs for the inside of `process`: the workers' own
    // work clocks against the time the coordinator spent in the call.
    let epoch = Instant::now();
    let (mut process_ns, mut step_ns, mut work_ns) = (0u64, 0u64, 0u64);
    let (mut cycles, mut messages, mut forwarded, mut processed) = (0u64, 0u64, 0u64, 0u64);
    let mut skews = Vec::new();
    for _ in 0..runs.min(4) {
        let matcher = Timed::new(
            ThreadedMatcher::new_profiled((*inp.network).clone(), workers, TABLE_SIZE),
            epoch,
        );
        let (interp, outcome) = drive(inp, 0, matcher, epoch, |interp, _, start, end| {
            let (p0, p1) = interp.matcher().process;
            process_ns += p1 - p0;
            step_ns += end - start;
        });
        check_run(out, inp, "threaded profiled", &interp, outcome);
        out.check(&final_state(&interp, outcome) == reference, || {
            "threaded profiled run differs from the sequential run".into()
        });
        let stats = interp.matcher().inner.stats();
        cycles += stats.cycles;
        let per: Vec<u64> = stats
            .per_worker
            .iter()
            .map(|w| w.tokens_processed)
            .collect();
        skews.push(mpps_core::load_skew(&per));
        for w in &stats.per_worker {
            work_ns += w.work_ns;
            messages += w.messages_sent;
            forwarded += w.tokens_forwarded;
            processed += w.tokens_processed;
        }
    }
    let work_share = work_ns as f64 / (workers as u64 * process_ns).max(1) as f64;
    out.single(
        "core.threaded.process_share",
        process_ns as f64 / step_ns.max(1) as f64,
    );
    out.single("core.threaded.work_share", work_share);
    out.single("core.threaded.wait_share", 1.0 - work_share);
    out.single(
        "core.threaded.messages_per_cycle",
        messages as f64 / cycles.max(1) as f64,
    );
    out.single(
        "core.threaded.forwarded_share",
        forwarded as f64 / processed.max(1) as f64,
    );
    out.single("core.threaded.worker_skew", median(&skews));
}
