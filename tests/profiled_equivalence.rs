//! Profiling must be invisible to match semantics: a profiled matcher
//! (kernel hooks recording into a `MetricsRegistry`) and an unprofiled
//! one (`NullMetrics`, every hook compiled away) compute identical
//! conflict sets after every batch of the three characteristic workloads
//! — on both the sequential engine and the threaded executor — and the
//! sink may as well be a `TraceRecorder`: it exports the same registry.

use mpps::core::{bucket_activity, threaded, ThreadedMatcher};
use mpps::ops::{Interpreter, Matcher, Program, Strategy, Wme, WmeChange};
use mpps::rete::{kernel, EngineConfig, NodeKind, ReteMatcher, ReteNetwork};
use mpps::telemetry::{MetricsRegistry, TraceRecorder, Track};
use mpps::workloads::{rubik, tourney, weaver};

/// Replay-capture: run `program` under the interpreter for `cycles`
/// recognize-act cycles and return the per-cycle WM change batches it
/// handed the matcher.
fn batches(program: &Program, initial: Vec<Wme>, cycles: usize) -> Vec<Vec<WmeChange>> {
    let m = ReteMatcher::from_program(program).unwrap();
    let mut interp = Interpreter::with_matcher(program.clone(), Strategy::Lex, m);
    for w in initial {
        interp.add_wme(w);
    }
    interp.run(cycles).unwrap();
    interp.change_log().to_vec()
}

fn workloads() -> Vec<(&'static str, Program, Vec<Vec<WmeChange>>)> {
    vec![
        (
            "rubik",
            rubik::program(),
            batches(
                &rubik::program(),
                rubik::initial(&rubik::alternating_moves(2)),
                8,
            ),
        ),
        (
            "tourney",
            tourney::program(),
            batches(&tourney::program(), tourney::initial(8, 8), 4),
        ),
        (
            "weaver",
            weaver::program(),
            batches(&weaver::program(), weaver::initial(4, 4), 8),
        ),
    ]
}

/// Every series of `reg` that counts rather than times (`*-ns` series
/// are wall-clock and differ run to run), as comparable text.
fn counted_series(reg: &MetricsRegistry) -> String {
    let timed = |name: &str| name.ends_with("-ns");
    format!(
        "{:?} {:?} {:?}",
        (reg.counters().iter().filter(|(n, _)| !timed(n))).collect::<Vec<_>>(),
        (reg.gauges().iter().filter(|(n, _)| !timed(n))).collect::<Vec<_>>(),
        (reg.histograms().iter().filter(|(n, _)| !timed(n))).collect::<Vec<_>>(),
    )
}

#[test]
fn profiled_sequential_matches_unprofiled_on_every_workload() {
    for (name, program, batches) in workloads() {
        let network = || ReteNetwork::compile(&program).unwrap();
        let mut plain = ReteMatcher::from_program(&program).unwrap();
        let mut profiled =
            ReteMatcher::with_metrics(network(), EngineConfig::default(), MetricsRegistry::new());
        let mut recorded =
            ReteMatcher::with_metrics(network(), EngineConfig::default(), TraceRecorder::new());
        for (i, batch) in batches.iter().enumerate() {
            plain.process(batch);
            profiled.process(batch);
            recorded.process(batch);
            assert_eq!(
                plain.conflict_set(),
                profiled.conflict_set(),
                "{name}: sequential conflict sets diverged at batch {i}"
            );
            assert_eq!(
                plain.conflict_set(),
                recorded.conflict_set(),
                "{name}: conflict sets diverged at batch {i} with a TraceRecorder sink"
            );
        }
        let reg = profiled.profile();
        assert_eq!(
            counted_series(&recorded.profile()),
            counted_series(&reg),
            "{name}: a TraceRecorder sink exported a different registry"
        );
        assert!(
            reg.counter_total(kernel::metric::NODE_ACTIVATIONS) > 0,
            "{name}: profiled run recorded no activations"
        );
        assert!(
            plain.profile().is_empty(),
            "{name}: unprofiled matcher leaked metrics"
        );
    }
}

#[test]
fn profiled_threaded_matches_unprofiled_on_every_workload() {
    for (name, program, batches) in workloads() {
        for workers in [1usize, 3] {
            let mut plain = ThreadedMatcher::from_program(&program, workers).unwrap();
            let mut profiled = ThreadedMatcher::from_program_profiled(&program, workers).unwrap();
            for (i, batch) in batches.iter().enumerate() {
                plain.process(batch);
                profiled.process(batch);
                assert_eq!(
                    plain.conflict_set(),
                    profiled.conflict_set(),
                    "{name}: threaded({workers}) conflict sets diverged at batch {i}"
                );
                // The coordinator's totals are exact at every barrier: each
                // drain is reported before its cycle ends.
                let processed: u64 = (profiled.stats().per_worker.iter())
                    .map(|w| w.tokens_processed)
                    .sum();
                let activations = (profiled.profile_snapshot().unwrap())
                    .counter_total(kernel::metric::NODE_ACTIVATIONS);
                assert_eq!(
                    processed, activations,
                    "{name}: threaded({workers}) stats and profile disagree at batch {i}"
                );
            }
            let reg = profiled.profile_snapshot().unwrap();
            assert!(
                reg.counter_total(kernel::metric::NODE_ACTIVATIONS) > 0,
                "{name}: profiled threaded({workers}) recorded no activations"
            );
            assert!(
                plain.profile_snapshot().unwrap().is_empty(),
                "{name}: unprofiled threaded({workers}) leaked metrics"
            );
        }
    }
}

/// The profiled threaded executor agrees with the profiled sequential
/// engine — the two profiled code paths share nothing but the kernel, so
/// this catches instrumentation that perturbs one executor's scheduling.
#[test]
fn profiled_threaded_matches_profiled_sequential() {
    for (name, program, batches) in workloads() {
        let mut seq = ReteMatcher::with_metrics(
            ReteNetwork::compile(&program).unwrap(),
            EngineConfig::default(),
            MetricsRegistry::new(),
        );
        let mut thr = ThreadedMatcher::from_program_profiled(&program, 2).unwrap();
        for batch in &batches {
            seq.process(batch);
            thr.process(batch);
        }
        assert_eq!(
            seq.conflict_set(),
            thr.conflict_set(),
            "{name}: profiled sequential vs profiled threaded diverged"
        );
    }
}

/// The threaded executor's exported trace never draws two spans over one
/// another on a lane, and the drawn work is exactly the work the workers
/// reported: every drain lies inside its cycle, so no span is clamped.
#[test]
fn threaded_trace_lanes_never_overlap() {
    let program = tourney::program();
    let mut thr = ThreadedMatcher::from_program_profiled(&program, 2).unwrap();
    let batches = batches(&program, tourney::initial(8, 8), 12);
    for batch in &batches {
        thr.process(batch);
    }
    let rec = thr.export_trace();
    for w in 0..2 {
        let mut lane: Vec<(u64, u64)> = (rec.spans().iter())
            .filter(|s| s.track == Track::match_worker(w))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        assert!(lane.len() >= batches.len(), "lane {w}: a span per cycle");
        lane.sort_unstable();
        for pair in lane.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "lane {w}: {pair:?} overlap");
        }
        let drawn: u64 = (rec.spans().iter())
            .filter(|s| s.track == Track::match_worker(w) && s.name == "match-work")
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let exact = rec
            .registry()
            .counter(threaded::metric::WORKER_WORK_NS)
            .unwrap()[&(w as u64)];
        assert_eq!(
            drawn, exact,
            "lane {w}: drew {drawn} ns of {exact} ns worked"
        );
    }
}

/// The constant tests look their alphas up: each rubik sticker change is
/// tested against the one sticker alpha filed under its `pos`, not against
/// all 24 of its class.
#[test]
fn each_sticker_change_runs_one_constant_test() {
    let program = rubik::program();
    let network = ReteNetwork::compile(&program).unwrap();
    let sticker = mpps::ops::intern("sticker");
    let alphas: Vec<u64> = network
        .iter()
        .filter(|(_, n)| matches!(n, NodeKind::Alpha(a) if a.class == sticker))
        .map(|(id, _)| u64::from(id.0))
        .collect();
    assert_eq!(alphas.len(), 24, "one sticker alpha per position");
    let mut m = ReteMatcher::with_metrics(network, EngineConfig::default(), MetricsRegistry::new());
    let mut changes = 0u64;
    for batch in batches(&program, rubik::initial(&rubik::alternating_moves(2)), 8) {
        changes += batch.iter().filter(|c| c.wme.class() == sticker).count() as u64;
        m.process(&batch);
    }
    let reg = m.profile();
    let tests = reg.counter(kernel::metric::ALPHA_TESTS).unwrap();
    let sticker_tests: u64 = alphas.iter().filter_map(|id| tests.get(id)).sum();
    assert!(changes > 0, "vacuous");
    assert_eq!(sticker_tests, changes, "constant tests per sticker change");
}

/// The kernel's `bucket.activations` counter and the activation trace's
/// per-bucket two-input counts are the same measurement taken two ways.
/// `mpps run --partition greedy` packs buckets from the counter of its
/// profiled pre-run; the paper's offline greedy (§5.2.2) and the simulator
/// experiments pack from the trace — this pins that they cannot disagree.
#[test]
fn bucket_activation_counter_equals_traced_bucket_activity() {
    for (name, program, batches) in workloads() {
        let config = EngineConfig {
            record_trace: true,
            ..EngineConfig::default()
        };
        let mut m = ReteMatcher::with_metrics(
            ReteNetwork::compile(&program).unwrap(),
            config,
            MetricsRegistry::new(),
        );
        for batch in &batches {
            m.process(batch);
        }
        let traced = bucket_activity(&m.take_trace().unwrap());
        let mut counted = vec![0u64; config.table_size as usize];
        let reg = m.profile();
        for (&bucket, &n) in reg.counter(kernel::metric::BUCKET_ACTIVATIONS).unwrap() {
            counted[bucket as usize] = n;
        }
        assert!(traced.iter().sum::<u64>() > 0, "{name}: vacuous");
        assert_eq!(counted, traced, "{name}: counter and trace disagree");
    }
}
