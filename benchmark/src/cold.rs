//! `cold-start`: what every `mpps run FILE` and every `from_program` pays.
//! One operation is program text → `parse_program` → `ReteNetwork::compile`
//! → matcher → initial working memory → run to the end → drop, cycling over
//! four small programs. Compile is a large share here and a vanishing one in
//! `rubik-modify`, which compiles once in set-up.

use crate::harness::{median, p50_p99_us, rounds, timed_setup, Opts, Rng, Spans, KEEP_PER_ROUND};
use crate::metrics::Outcome;
use mpps_ops::{parse_program, parse_wme, Interpreter, Program, RunOutcome, Strategy, Wme};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_workloads::{rubik, tourney, weaver};
use std::hint::black_box;
use std::time::Instant;

/// A copy of `examples/data/monkey.{ops,wm}`: the benchmark may name no
/// file outside its own directory.
const MONKEY_OPS: &str = include_str!("../data/monkey.ops");
const MONKEY_WM: &str = include_str!("../data/monkey.wm");

struct Instance {
    name: &'static str,
    text: String,
    initial: Vec<Wme>,
    max_cycles: usize,
    expect_fired: usize,
    expect_outcome: RunOutcome,
}

pub struct Inputs {
    instances: Vec<Instance>,
    ops_per_round: usize,
}

/// Program text as a user's file would hold it, rendered through
/// `Production`'s `Display`.
fn render(program: &Program) -> String {
    program
        .iter()
        .map(|(_, p)| format!("{p}\n"))
        .collect::<String>()
}

pub fn build(opts: &Opts) -> Inputs {
    let mut rng = Rng::new(opts.seed);
    let moves: Vec<rubik::Face> = (0..2)
        .map(|_| [rubik::Face::U, rubik::Face::R][rng.below(2)])
        .collect();
    let mut teams = tourney::initial(8, 8);
    let n = teams.len() - 1;
    rng.shuffle(&mut teams[..n]);
    let monkey_wm = MONKEY_WM
        .lines()
        .map(|l| l.split(';').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| parse_wme(l).expect("monkey.wm parses"))
        .collect();
    let instances = vec![
        Instance {
            name: "rubik",
            text: render(&rubik::program()),
            initial: rubik::initial(&moves),
            max_cycles: 16,
            expect_fired: 3,
            expect_outcome: RunOutcome::Halted,
        },
        Instance {
            name: "tourney",
            text: render(&tourney::program()),
            initial: teams,
            max_cycles: 16,
            expect_fired: 8,
            expect_outcome: RunOutcome::Quiescent,
        },
        Instance {
            name: "weaver",
            text: render(&weaver::program()),
            initial: weaver::initial(4, 4),
            max_cycles: 64,
            expect_fired: 10,
            expect_outcome: RunOutcome::Quiescent,
        },
        Instance {
            name: "monkey",
            text: MONKEY_OPS.to_string(),
            initial: monkey_wm,
            max_cycles: 16,
            expect_fired: 3,
            expect_outcome: RunOutcome::Halted,
        },
    ];
    Inputs {
        instances,
        ops_per_round: opts.size(1600, 40),
    }
}

/// Wall-clock of one operation's stages, ns.
struct Stages {
    parse: u64,
    compile: u64,
    run: u64,
    drop: u64,
    fired: usize,
    outcome: RunOutcome,
    nodes: usize,
}

fn operate(inst: &Instance, epoch: Instant) -> Stages {
    let now = || epoch.elapsed().as_nanos() as u64;
    let t0 = now();
    let program = parse_program(black_box(&inst.text)).expect("instance parses");
    let t1 = now();
    let network = ReteNetwork::compile(&program).expect("instance compiles");
    let stats = network.stats();
    let t2 = now();
    let matcher = ReteMatcher::new(network, EngineConfig::default());
    let mut interp = Interpreter::with_matcher(program, Strategy::Lex, matcher);
    for wme in &inst.initial {
        interp.add_wme(wme.clone());
    }
    let result = interp.run(inst.max_cycles).expect("instance runs");
    let t3 = now();
    drop(interp);
    let t4 = now();
    Stages {
        parse: t1 - t0,
        compile: t2 - t1,
        run: t3 - t2,
        drop: t4 - t3,
        fired: result.fired.len(),
        outcome: result.outcome,
        nodes: stats.alpha + stats.two_input + stats.production,
    }
}

fn check(out: &mut Outcome, inst: &Instance, s: &Stages) {
    out.attempted += 1;
    let ok = s.fired == inst.expect_fired && s.outcome == inst.expect_outcome;
    out.check(ok, || {
        format!("{}: fired {} ended {:?}", inst.name, s.fired, s.outcome)
    });
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let (inp, setup) = timed_setup(opts, || build(opts));
    if opts.trace {
        traced(&inp, opts, &mut out);
        return out;
    }
    let (mut rate, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples: Vec<u64> = Vec::new();
    rounds(opts.rounds(1.0), |measured| {
        samples.clear();
        let mut wall = 0u64;
        for op in 0..inp.ops_per_round {
            let inst = &inp.instances[op % inp.instances.len()];
            let t0 = Instant::now();
            let stages = operate(inst, t0);
            let ns = t0.elapsed().as_nanos() as u64;
            wall += ns;
            samples.push(ns);
            if measured {
                check(&mut out, inst, &stages);
            }
        }
        if measured {
            let (p50, p99) = p50_p99_us(&mut samples);
            rate.push(inp.ops_per_round as f64 / (wall as f64 / 1e9));
            p50s.push(p50);
            p99s.push(p99);
        }
    });
    let n = (inp.ops_per_round * rate.len()) as u64;
    out.end_to_end(rate, p50s, p99s, n, setup);
    out
}

fn traced(inp: &Inputs, opts: &Opts, out: &mut Outcome) {
    // Untraced reference rounds: the base of `trace_overhead`.
    let mut plain_wall = Vec::new();
    rounds(opts.rounds(0.3), |measured| {
        let t0 = Instant::now();
        for op in 0..inp.ops_per_round {
            let inst = &inp.instances[op % inp.instances.len()];
            black_box(operate(inst, t0));
        }
        if measured {
            plain_wall.push(t0.elapsed().as_secs_f64());
        }
    });

    let mut spans = Spans::new();
    let epoch = spans.epoch;
    let began = Instant::now();
    let root = spans.open("workload", None);
    let mut traced_wall = Vec::new();
    // The Rubik instance alone — the 103-production program, whose runs are
    // the slowest quarter of the mix and so set `op_p99_us`: its parse and
    // compile times, and [total, compile] ns.
    let (mut parse, mut compile) = (Vec::new(), Vec::new());
    let mut rubik_ns = [0u64; 2];
    // One pass over the four instances: firings must repeat for a seed.
    let pass: Vec<Stages> = inp.instances.iter().map(|i| operate(i, epoch)).collect();
    rounds(opts.rounds(0.5), |measured| {
        let round = spans.open("round", Some(root));
        let t0 = Instant::now();
        for op in 0..inp.ops_per_round {
            let inst = &inp.instances[op % inp.instances.len()];
            let keep = (op < KEEP_PER_ROUND).then_some(round);
            let start = spans.now();
            let s = operate(inst, epoch);
            let end = spans.now();
            let run = spans.leaf("run", "round", start, end, keep);
            let mut at = start;
            for (name, ns) in [
                ("ops.parser.parse", s.parse),
                ("rete.network.compile", s.compile),
                ("load_and_run", s.run),
                ("drop", s.drop),
            ] {
                spans.leaf(name, "run", at, at + ns, run);
                at += ns;
            }
            if measured {
                check(out, inst, &s);
                if inst.name == "rubik" {
                    parse.push(s.parse);
                    compile.push(s.compile);
                    rubik_ns[0] += end - start;
                    rubik_ns[1] += s.compile;
                }
            }
        }
        if measured {
            traced_wall.push(t0.elapsed().as_secs_f64());
        }
        spans.close(round);
    });
    spans.close(root);
    let wall_ns = began.elapsed().as_nanos() as u64;

    let run_ns = spans.total_ns("run").max(1);
    out.p50_us("ops.parser.parse_us_p50", &mut parse);
    out.p50_us("rete.network.compile_us_p50", &mut compile);
    out.single(
        "ops.parser.parse_share",
        spans.total_ns("ops.parser.parse") as f64 / run_ns as f64,
    );
    out.single(
        "rete.network.compile_share",
        spans.total_ns("rete.network.compile") as f64 / run_ns as f64,
    );
    out.single(
        "rete.network.compile_share_rubik",
        rubik_ns[1] as f64 / rubik_ns[0].max(1) as f64,
    );
    out.single(
        "rete.network.nodes",
        pass.iter().map(|s| s.nodes).sum::<usize>() as f64,
    );
    out.single(
        "ops.interpreter.fired",
        pass.iter().map(|s| s.fired).sum::<usize>() as f64,
    );
    out.single(
        "telemetry.trace_overhead",
        median(&traced_wall) / median(&plain_wall),
    );
    let recorder = spans.recorder("cold-start");
    out.traced(opts, "cold-start", &spans, wall_ns, &recorder);
}
