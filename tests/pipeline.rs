//! End-to-end pipeline tests across crates: interpreter × matchers on the
//! runnable workloads, trace round-trips, and trace-driven simulation of
//! organically captured traces.

use mpps::core::sweep::{baseline, speedup_curve, PartitionStrategy};
use mpps::core::{simulate, MappingConfig, OverheadSetting, Partition, ThreadedMatcher};
use mpps::ops::interpreter::StepOutcome;
use mpps::ops::{Interpreter, Matcher, NaiveMatcher, Strategy};
use mpps::rete::{ReteMatcher, Trace};
use mpps::workloads::{rubik, tourney, weaver};

/// Run the same program+WM under two interpreters and compare the full
/// firing sequences and outputs.
fn assert_same_run<A: Matcher, B: Matcher>(
    program: mpps::ops::Program,
    initial: Vec<mpps::ops::Wme>,
    mk_a: impl FnOnce(&mpps::ops::Program) -> A,
    mk_b: impl FnOnce(&mpps::ops::Program) -> B,
    max_cycles: usize,
) {
    let a_matcher = mk_a(&program);
    let b_matcher = mk_b(&program);
    let mut a = Interpreter::with_matcher(program.clone(), Strategy::Lex, a_matcher);
    let mut b = Interpreter::with_matcher(program, Strategy::Lex, b_matcher);
    for w in &initial {
        a.add_wme(w.clone());
        b.add_wme(w.clone());
    }
    let ra = a.run(max_cycles).unwrap();
    let rb = b.run(max_cycles).unwrap();
    assert_eq!(ra.outcome, rb.outcome);
    assert_eq!(ra.fired, rb.fired, "identical firing sequences");
    assert_eq!(a.output(), b.output());
    assert_eq!(a.working_memory().len(), b.working_memory().len());
}

#[test]
fn rubik_runs_identically_on_all_matchers() {
    // Small move count: the naive matcher is exponential in CE count, so
    // use the observer-free program for the naive comparison.
    let program = rubik::program_with_observers(0);
    let initial = rubik::initial(&rubik::alternating_moves(2));
    assert_same_run(
        program.clone(),
        initial.clone(),
        |p| ReteMatcher::from_program(p).unwrap(),
        |p| ThreadedMatcher::from_program(p, 3).unwrap(),
        20,
    );
}

#[test]
fn tourney_runs_identically_on_naive_and_rete() {
    assert_same_run(
        tourney::program(),
        tourney::initial(4, 4),
        |p| NaiveMatcher::new(p.clone()),
        |p| ReteMatcher::from_program(p).unwrap(),
        40,
    );
}

#[test]
fn tourney_runs_identically_on_rete_and_threaded() {
    assert_same_run(
        tourney::program(),
        tourney::initial(5, 5),
        |p| ReteMatcher::from_program(p).unwrap(),
        |p| ThreadedMatcher::from_program(p, 4).unwrap(),
        60,
    );
}

#[test]
fn weaver_runs_identically_on_naive_and_rete() {
    assert_same_run(
        weaver::program(),
        weaver::initial(4, 2),
        |p| NaiveMatcher::new(p.clone()),
        |p| ReteMatcher::from_program(p).unwrap(),
        40,
    );
}

#[test]
fn captured_traces_roundtrip_through_text() {
    for trace in [
        rubik::section(3, 256).trace,
        tourney::section(4, 4, 3, 256).trace,
        weaver::section(4, 2, 15, 256).trace,
    ] {
        let text = trace.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(back.table_size, trace.table_size);
        assert_eq!(back.cycles.len(), trace.cycles.len());
        for (a, b) in trace.cycles.iter().zip(back.cycles.iter()) {
            assert_eq!(a.activations, b.activations);
        }
    }
}

/// FNV-1a over every activation's `(node, side, sign, parent, kind)`, in
/// trace order. Buckets are left out: a symbol's hash depends on the order
/// symbols were interned, which differs between test processes.
fn activation_digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for cycle in &trace.cycles {
        eat(b"|");
        for a in &cycle.activations {
            eat(&a.node.0.to_le_bytes());
            eat(&[a.side as u8, a.sign as u8, a.kind as u8]);
            eat(&a.parent.map_or(u32::MAX, |p| p).to_le_bytes());
        }
    }
    h
}

/// The order the constant tests visit alpha nodes is the order roots enter
/// the queue, so it fixes every trace the simulator reads. These digests
/// were recorded when the constant tests scanned each class's alphas in id
/// order; a lookup that visits them in any other order changes them.
#[test]
fn captured_traces_keep_their_root_order() {
    for (name, trace, digest) in [
        (
            "rubik",
            rubik::section(4, 256).trace,
            13_845_674_446_002_557_179,
        ),
        (
            "tourney",
            tourney::section(4, 4, 3, 256).trace,
            15_347_466_455_054_504_685,
        ),
        (
            "weaver",
            weaver::section(4, 2, 15, 256).trace,
            3_148_381_866_304_595_142,
        ),
    ] {
        assert!(trace.stats().total() > 0, "{name}: vacuous");
        assert_eq!(
            activation_digest(&trace),
            digest,
            "{name}: root order moved"
        );
    }
}

#[test]
fn captured_rubik_trace_matches_paper_mix() {
    // The organically captured cube trace lands close to Table 5-2's
    // Rubik row (28% left / 72% right) — evidence the runnable ruleset
    // has the right character, not just the calibrated generator.
    let run = rubik::section(6, 512);
    let f = run.trace.stats().left_fraction();
    assert!(
        (0.18..=0.42).contains(&f),
        "left fraction {f} out of the Rubik-like band"
    );
}

#[test]
fn simulating_a_captured_trace_gives_speedup() {
    let trace = rubik::section(6, 512).trace;
    let curve = speedup_curve(
        &trace,
        &[1, 4, 16],
        OverheadSetting::ZERO,
        PartitionStrategy::RoundRobin,
    );
    assert!((curve[0].speedup - 1.0).abs() < 0.05);
    assert!(curve[1].speedup > 1.8, "4 procs: {}", curve[1].speedup);
    assert!(
        curve[2].speedup > curve[1].speedup,
        "16 procs beats 4 procs"
    );
}

#[test]
fn simulation_processes_every_activation_regardless_of_partition() {
    let trace = tourney::section(6, 6, 3, 256).trace;
    let expected = trace.stats();
    for p in [1usize, 3, 8] {
        let config = MappingConfig::standard(p, OverheadSetting::table_5_1()[1]);
        let partition = Partition::round_robin(trace.table_size, p);
        let report = simulate(&trace, &config, &partition);
        let left: u64 = report
            .cycles
            .iter()
            .map(|c| c.left_acts.iter().sum::<u64>())
            .sum();
        let right: u64 = report
            .cycles
            .iter()
            .map(|c| c.right_acts.iter().sum::<u64>())
            .sum();
        let insts: u64 = report.cycles.iter().map(|c| c.instantiations).sum();
        assert_eq!(left as usize, expected.left, "left conservation at P={p}");
        assert_eq!(
            right as usize, expected.right,
            "right conservation at P={p}"
        );
        assert_eq!(
            insts as usize, expected.instantiations,
            "instantiation conservation at P={p}"
        );
    }
}

#[test]
fn baseline_equals_single_processor_zero_overhead_run() {
    let trace = weaver::section(4, 2, 12, 256).trace;
    let base = baseline(&trace);
    let explicit = simulate(
        &trace,
        &MappingConfig::baseline(),
        &Partition::single(trace.table_size),
    );
    assert_eq!(base.total, explicit.total);
}

#[test]
fn unshared_network_reduces_sharing_but_preserves_firings() {
    let program = tourney::program();
    let shared = mpps::rete::ReteNetwork::compile(&program).unwrap();
    let unshared = mpps::rete::transform::unshare(&program).unwrap();
    assert!(unshared.stats().shared_two_input <= shared.stats().shared_two_input);
    // Semantics preserved end to end.
    let initial = tourney::initial(3, 3);
    let mk =
        |net: mpps::rete::ReteNetwork| ReteMatcher::new(net, mpps::rete::EngineConfig::default());
    assert_same_run(
        program.clone(),
        initial,
        |_| mk(shared),
        |_| mk(unshared),
        40,
    );
}
/// Step `interp` to quiescence and return the conflict-set size the
/// matcher reports after each step, and the number of firings.
fn conflict_set_sizes<M: Matcher>(interp: &mut Interpreter<M>) -> (Vec<usize>, usize) {
    let mut sizes = Vec::new();
    let mut fired = 0;
    loop {
        let outcome = interp.step().unwrap();
        sizes.push(interp.matcher().conflict_set().len());
        match outcome {
            StepOutcome::Fired(_) => fired += 1,
            StepOutcome::Quiescent => return (sizes, fired),
        }
    }
}

/// Ten independent grid cells retire one per cycle: the conflict set
/// reads 10, 9, …, 0 across the steps and 10 firings happen. These are
/// the only co-resident, non-interfering instantiations an exact
/// parallel-firing rule could batch — and on the paper's programs no
/// cycle has more than one (the measurement that retired parallel
/// firing).
#[test]
fn parallel_firing_on_independent_workloads() {
    use mpps::ops::parse_program;
    let prog =
        parse_program("(p take (cell ^state free ^x <x> ^y <y>) --> (modify 1 ^state used))")
            .unwrap();
    let mut interp = Interpreter::with_matcher(
        prog.clone(),
        Strategy::Lex,
        ReteMatcher::from_program(&prog).unwrap(),
    );
    for i in 0..10 {
        interp.add_wme(mpps::ops::Wme::new(
            "cell",
            &[("state", "free".into()), ("x", i.into()), ("y", 0.into())],
        ));
    }
    let (sizes, fired) = conflict_set_sizes(&mut interp);
    assert_eq!(sizes, (0..=10).rev().collect::<Vec<usize>>());
    assert_eq!(fired, 10);
}

/// Serial Tourney 3×3 fires exactly 3 pairings: each firing's `busy`
/// WMEs block, through a negated CE, the pairings that share a team, so
/// the conflict set reads 9 → 4 → 1 → 0. Co-firing all 9 pairings in one
/// cycle, as a deletion-only compatibility rule admits (`make` +
/// negation interference goes unseen), reaches a state no serial run
/// reaches.
#[test]
fn parallel_firing_negation_interference_is_documented_behaviour() {
    let program = tourney::program();
    let matcher = ReteMatcher::from_program(&program).unwrap();
    let mut interp = Interpreter::with_matcher(program, Strategy::Lex, matcher);
    for w in tourney::initial(3, 3) {
        interp.add_wme(w);
    }
    let (sizes, fired) = conflict_set_sizes(&mut interp);
    assert_eq!(sizes, vec![9, 4, 1, 0]);
    assert_eq!(fired, 3, "one pairing per cycle, 3 in all");
}

#[test]
fn mea_strategy_runs_workloads_to_the_same_outcome() {
    // LEX and MEA may fire in different orders but the cube permutations
    // commute per move plan, so the final cube state agrees.
    let program = rubik::program_with_observers(0);
    let initial = rubik::initial(&rubik::alternating_moves(3));
    let state = |strategy: Strategy| {
        let m = ReteMatcher::from_program(&program).unwrap();
        let mut interp = Interpreter::with_matcher(program.clone(), strategy, m);
        for w in initial.clone() {
            interp.add_wme(w);
        }
        interp.run(30).unwrap();
        let mut stickers: Vec<String> = interp
            .working_memory()
            .iter()
            .filter(|(_, w)| w.class().as_str() == "sticker")
            .map(|(_, w)| w.to_string())
            .collect();
        stickers.sort();
        stickers
    };
    assert_eq!(state(Strategy::Lex), state(Strategy::Mea));
}
