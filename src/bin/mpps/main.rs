//! `mpps` — run, trace and simulate OPS5-subset production systems.
//!
//! ```text
//! mpps run <program.ops|rubik|tourney|weaver> [--wm <file.wm>] [--cycles N]
//!          [--strategy lex|mea]
//!          [--matcher rete|naive|treat|threaded] [--workers N] [--table-size N]
//!          [--partition rr|random|greedy] [--seed N] [--quiet] [--stats]
//!          [--profile DIR] [--adapt]
//! mpps trace <program.ops> [--wm <file.wm>] [--cycles N] [--table-size N]
//!            [--out <file.trace>]
//! mpps simulate <file.trace> [--procs 1,2,4,8,16,32] [--overhead 0|8|16|32]
//!               [--partition rr|random|greedy] [--seed N] [--jobs N]
//!               [--format text|json] [--trace-out FILE] [--stats]
//! mpps fuzz [--seed N] [--iters N] [--matchers naive,rete,treat,threaded|all]
//!           [--max-productions N] [--shrink] [--out DIR] [--profile DIR]
//! mpps serve (--synthetic | --script FILE) [--program FILE|rubik|tourney|weaver]
//!           [--sessions N] [--rounds N] [--wmes N] [--workers N] [--queue N]
//!           [--shards N] [--sharding rr|random[:SEED]|greedy] [--strategy lex|mea]
//!           [--table-size N] [--stats] [--adapt]
//!           [--resident-budget N] [--evict-dir DIR] [--migrate]
//! ```
//!
//! The `run` program argument is either a `.ops` file or one of the
//! builtin characteristic sections (`rubik`, `tourney`, `weaver`), which
//! come with their own initial working memory; a file with the same name
//! takes precedence.
//!
//! `mpps run --profile DIR` re-spawns the chosen matcher with live
//! metrics (rete, treat and threaded; naive has no kernel to profile)
//! and writes `DIR/match_profile.json` — top-K hot nodes, bucket skew
//! factor, arena occupancy, and for `--matcher threaded` the per-cycle
//! barrier-wait vs match-work split plus `DIR/trace.json`, a Chrome
//! trace whose per-worker lanes carry both the counter tracks and the
//! synthesized match-work / barrier-wait spans (open at
//! <https://ui.perfetto.dev>). Profiling never changes the run's stdout:
//! profiled and unprofiled runs print byte-identical output.
//!
//! `mpps fuzz --profile DIR` additionally replays every generated case
//! under profiled rete, treat, and threaded matchers and writes the
//! merged registry to `DIR/match_profile.json` — exercising the profiler
//! hooks across the whole generated grammar (negation, leading-negated
//! CEs, …) is the point, so replay happens for clean and diverging cases
//! alike.
//!
//! `mpps fuzz` drives the differential oracle: every case is a random
//! program plus a random WM-change schedule, run through all requested
//! matchers in lockstep with the naive matcher as ground truth. Diverging
//! cases are (optionally `--shrink`-minimized and) written to `--out` as
//! runnable `.ops` + `.sched` reproducer pairs; the exit status is 1 when
//! any divergence was found.
//!
//! `.ops` files hold productions in the textual syntax; `.wm` files hold
//! one WME per line, e.g. `(block ^name b1 ^color blue)`. Lines starting
//! with `;` are comments.
//!
//! `--trace-out FILE` re-runs the largest requested machine with telemetry
//! enabled and writes a Chrome `trace_event` file (open it at
//! <https://ui.perfetto.dev>); `--stats` prints histogram percentiles of
//! the recorded metrics. Neither changes the summary output.
//!
//! With `--matcher threaded`, `--partition` picks the bucket-ownership
//! strategy for the real thread pool (greedy does an offline profiled
//! sequential pre-run to measure bucket activity, as in §5.2.2), and
//! `--stats` prints per-worker activity counters to stderr.
//!
//! `mpps run --matcher threaded --adapt` closes the skew loop: a profiled
//! sequential pre-run measures per-node activations and the per-bucket
//! activation skew, `compile_suggested` derives copy-and-constraint splits
//! (plus unsharing) for the hot cross-product nodes that bucket migration
//! cannot spread, the transformed network runs under the threaded matcher
//! with the online repartitioner enabled, and the before/after bucket
//! skew factors plus every rebalance event are reported on stderr. The
//! run's stdout is unchanged. `mpps serve --adapt` applies the static
//! (unshare-only) suggested plan at compile time — the server has no WME
//! sample to derive split boundaries from.
//!
//! `mpps serve` runs the rule-engine-as-a-service layer: one compiled
//! program multiplexed across many independent working-memory sessions on
//! a bounded-queue worker pool. `--synthetic` drives the built-in
//! ticket-triage load (`--sessions`/`--rounds`/`--wmes`) and prints
//! sustained WME-changes/sec plus cycle-latency percentiles;
//! `--script FILE` replays a deterministic session script
//! (`session`/`make`/`run`/`snapshot`/`restore`/`destroy`, one command
//! per line) and prints one log line per command. Every subcommand
//! rejects flags it does not understand with its usage line and exit
//! status 2.

mod format;

use format::{stats_block, OutputFormat, SimulateSummary};
use mpps::core::sweep::{baseline, speedup_curve_jobs, PartitionStrategy};
use mpps::core::{bucket_skew_factor, name_threaded_tracks, render_match_profile};
use mpps::core::{
    name_machine_tracks, simulate_recorded, AdaptOptions, MappingConfig, OverheadSetting,
    Partition, SimScratch, ThreadedMatcher,
};
use mpps::difftest::{fuzz_one, write_repro, FuzzCase, GenConfig, MatcherKind, ScheduleOp};
use mpps::ops::{
    interpreter::StepOutcome, parse_program, parse_wme, Interpreter, Matcher, NaiveMatcher,
    Program, Strategy, TreatMatcher, Wme, WmeId,
};
use mpps::rete::{compile_suggested, kernel, EngineConfig, ReteMatcher, ReteNetwork, Trace};
use mpps::server::{run_script, run_synthetic, ServerConfig, Sharding, SyntheticSpec};
use mpps::telemetry::{chrome::chrome_trace, MetricsRegistry, TraceRecorder};
use mpps::workloads::{rubik, serve, tourney, weaver};
use std::process::exit;

/// One usage line per subcommand, shared by the full `usage()` dump and
/// the per-command unknown-flag diagnostics so both always agree.
const USAGE_LINES: &[(&str, &str)] = &[
    (
        "run",
        "mpps run <program.ops|rubik|tourney|weaver> [--wm FILE] [--cycles N]\n\
         \x20          [--strategy lex|mea]\n\
         \x20          [--matcher rete|naive|treat|threaded] [--workers N] [--table-size N]\n\
         \x20          [--partition rr|random|greedy] [--seed N] [--quiet] [--stats]\n\
         \x20          [--profile DIR] [--adapt]",
    ),
    (
        "trace",
        "mpps trace <program.ops> [--wm FILE] [--cycles N] [--table-size N]\n\
         \x20          [--strategy lex|mea] [--out FILE]",
    ),
    (
        "simulate",
        "mpps simulate <file.trace> [--procs LIST] [--overhead 0|8|16|32]\n\
         \x20          [--partition rr|random|greedy] [--seed N] [--jobs N]\n\
         \x20          [--format text|json] [--trace-out FILE] [--stats]",
    ),
    (
        "fuzz",
        "mpps fuzz [--seed N] [--iters N] [--matchers LIST|all]\n\
         \x20          [--max-productions N] [--shrink] [--out DIR] [--profile DIR]",
    ),
    (
        "serve",
        "mpps serve (--synthetic | --script FILE) [--program FILE|rubik|tourney|weaver]\n\
         \x20          [--sessions N] [--rounds N] [--wmes N]\n\
         \x20          [--workers N] [--queue N] [--shards N]\n\
         \x20          [--sharding rr|random[:SEED]|greedy] [--strategy lex|mea]\n\
         \x20          [--table-size N] [--stats] [--adapt]\n\
         \x20          [--resident-budget N] [--evict-dir DIR] [--migrate]",
    ),
];

fn usage() -> ! {
    let lines: Vec<String> = USAGE_LINES
        .iter()
        .map(|(_, line)| format!("  {}", line.replace('\n', "\n ")))
        .collect();
    eprintln!("usage:\n{}", lines.join("\n"));
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("mpps: {msg}");
    exit(1)
}

/// Invalid command-line input: report and exit with the usage status (2),
/// distinguishing caller mistakes from runtime failures (1).
fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("mpps: {msg}");
    exit(2)
}

/// Reject flags a subcommand does not understand: consistent diagnostic,
/// the subcommand's own usage line, exit status 2. Silently ignoring a
/// misspelled flag is how `--cycels 5` runs for 10 000 cycles.
fn check_flags(cmd: &str, args: &Args, allowed: &[&str]) {
    for (key, _) in &args.flags {
        if !allowed.contains(&key.as_str()) {
            eprintln!("mpps: unknown flag --{key} for `mpps {cmd}`");
            if let Some((_, line)) = USAGE_LINES.iter().find(|(name, _)| *name == cmd) {
                eprintln!("usage: {line}");
            }
            exit(2);
        }
    }
}

/// Minimal flag parser: positional args plus `--key value` pairs.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key == "quiet"
                    || key == "stats"
                    || key == "shrink"
                    || key == "synthetic"
                    || key == "adapt"
                    || key == "migrate"
                {
                    flags.push((key.to_owned(), "true".to_owned()));
                } else {
                    let Some(v) = it.next() else {
                        fail(format!("flag --{key} needs a value"));
                    };
                    flags.push((key.to_owned(), v));
                }
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(format!("bad value for --{key}: {v:?}"))),
        }
    }
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")))
}

fn load_wmes(path: Option<&str>) -> Vec<Wme> {
    let Some(path) = path else {
        return Vec::new();
    };
    read_file(path)
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with(';'))
        .map(|l| parse_wme(l).unwrap_or_else(|e| fail(format!("bad WME {l:?}: {e}"))))
        .collect()
}

fn strategy_of(args: &Args) -> Strategy {
    match args.get("strategy").unwrap_or("lex") {
        "lex" => Strategy::Lex,
        "mea" => Strategy::Mea,
        other => fail(format!("unknown strategy {other:?} (lex|mea)")),
    }
}

fn run_with<M: Matcher>(
    program: mpps::ops::Program,
    wmes: Vec<Wme>,
    matcher: M,
    strategy: Strategy,
    cycles: usize,
    quiet: bool,
) -> Interpreter<M> {
    let mut interp = Interpreter::with_matcher(program, strategy, matcher);
    for w in wmes {
        interp.add_wme(w);
    }
    let result = interp.run(cycles).unwrap_or_else(|e| fail(e));
    if !quiet {
        for f in &result.fired {
            println!("cycle {:>4}: {}", f.cycle, f.name);
        }
        for line in interp.output() {
            let rendered: Vec<String> = line.iter().map(ToString::to_string).collect();
            println!("write: {}", rendered.join(" "));
        }
    }
    println!(
        "{:?} after {} cycles, {} firings, {} WMEs live",
        result.outcome,
        result.cycles,
        result.fired.len(),
        interp.working_memory().len()
    );
    interp
}

/// The sequential pre-run behind `--partition greedy` and `--adapt`: one
/// profiled run of the whole program, whose kernel counters give both the
/// per-bucket activity greedy placement packs (§5.2.2) and the per-node
/// activations the transform plan is suggested from.
fn profiled_pre_run(
    program: &Program,
    wmes: &[Wme],
    strategy: Strategy,
    cycles: usize,
    table_size: u64,
) -> MetricsRegistry {
    let network = ReteNetwork::compile(program).unwrap_or_else(|e| fail(e));
    let matcher = ReteMatcher::with_metrics(
        network,
        EngineConfig {
            table_size,
            record_trace: false,
        },
        MetricsRegistry::new(),
    );
    let mut interp = Interpreter::with_matcher(program.clone(), strategy, matcher);
    for w in wmes {
        interp.add_wme(w.clone());
    }
    interp.run(cycles).unwrap_or_else(|e| fail(e));
    interp.matcher_mut().profile()
}

/// The builtin characteristic sections usable as `mpps run` programs:
/// program plus initial working memory, sized like the bench sections.
fn builtin_workload(name: &str) -> Option<(Program, Vec<Wme>)> {
    match name {
        "rubik" => Some((
            rubik::program(),
            rubik::initial(&rubik::alternating_moves(2)),
        )),
        "tourney" => Some((tourney::program(), tourney::initial(12, 12))),
        "weaver" => Some((weaver::program(), weaver::initial(4, 4))),
        _ => None,
    }
}

/// Write `DIR/match_profile.json` for one profiled run.
fn write_profile(dir: &str, matcher: &str, workers: usize, reg: &MetricsRegistry) {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(format!("cannot create {}: {e}", dir.display())));
    let path = dir.join("match_profile.json");
    std::fs::write(&path, render_match_profile(matcher, workers, reg))
        .unwrap_or_else(|e| fail(format!("write {}: {e}", path.display())));
    eprintln!("profile written to {}", path.display());
}

fn cmd_run(args: &Args) {
    check_flags(
        "run",
        args,
        &[
            "wm",
            "cycles",
            "strategy",
            "matcher",
            "workers",
            "table-size",
            "partition",
            "seed",
            "quiet",
            "stats",
            "profile",
            "adapt",
        ],
    );
    let [program_path] = &args.positional[..] else {
        usage();
    };
    // A real file always wins; builtin section names only apply when no
    // such file exists.
    let (program, wmes) = if !std::path::Path::new(program_path).exists() {
        if let Some((program, mut wmes)) = builtin_workload(program_path) {
            wmes.extend(load_wmes(args.get("wm")));
            (program, wmes)
        } else {
            fail(format!(
                "cannot read {program_path}: no such file (and not a builtin section: \
                 rubik|tourney|weaver)"
            ))
        }
    } else {
        let program = parse_program(&read_file(program_path)).unwrap_or_else(|e| fail(e));
        (program, load_wmes(args.get("wm")))
    };
    let cycles = args.get_parse("cycles", 10_000usize);
    let strategy = strategy_of(args);
    let quiet = args.get("quiet").is_some();
    let profile_dir = args.get("profile");
    let adapt = args.get("adapt").is_some();
    let matcher_name = args.get("matcher").unwrap_or("rete");
    if adapt && matcher_name != "threaded" {
        usage_error("--adapt requires --matcher threaded (it drives the online repartitioner)");
    }
    match matcher_name {
        "rete" => {
            if let Some(dir) = profile_dir {
                let network = ReteNetwork::compile(&program).unwrap_or_else(|e| fail(e));
                let m = ReteMatcher::with_metrics(
                    network,
                    EngineConfig::default(),
                    MetricsRegistry::new(),
                );
                let mut interp = run_with(program, wmes, m, strategy, cycles, quiet);
                let reg = interp.matcher_mut().profile();
                write_profile(dir, "rete", 1, &reg);
            } else {
                let m = ReteMatcher::from_program(&program).unwrap_or_else(|e| fail(e));
                run_with(program, wmes, m, strategy, cycles, quiet);
            }
        }
        "naive" => {
            if profile_dir.is_some() {
                usage_error("--profile is not supported for --matcher naive (no match kernel)");
            }
            let m = NaiveMatcher::new(program.clone());
            run_with(program, wmes, m, strategy, cycles, quiet);
        }
        "treat" => {
            if let Some(dir) = profile_dir {
                let m = TreatMatcher::with_metrics(&program, MetricsRegistry::new());
                let interp = run_with(program, wmes, m, strategy, cycles, quiet);
                write_profile(dir, "treat", 1, &interp.matcher().profile());
            } else {
                let m = TreatMatcher::new(&program);
                run_with(program, wmes, m, strategy, cycles, quiet);
            }
        }
        "threaded" => {
            let workers = args.get_parse("workers", 4usize);
            if workers == 0 {
                usage_error("--workers must be at least 1 for --matcher threaded");
            }
            let table_size = args.get_parse("table-size", 2048u64);
            if table_size == 0 {
                usage_error("--table-size must be at least 1");
            }
            let seed = args.get_parse("seed", 1989u64);
            let partition_name = args.get("partition").unwrap_or("rr");
            let pre_run = (adapt || partition_name == "greedy")
                .then(|| profiled_pre_run(&program, &wmes, strategy, cycles, table_size));
            let series = |name| pre_run.as_ref().and_then(|reg| reg.counter(name));
            let partition = match partition_name {
                "rr" => Partition::round_robin(table_size, workers),
                "random" => Partition::random(table_size, workers, seed),
                "greedy" => {
                    // The kernel's per-bucket counter equals the traced
                    // `bucket_activity` (tests/profiled_equivalence.rs).
                    let mut activity = vec![0u64; table_size as usize];
                    for (&bucket, &n) in series(kernel::metric::BUCKET_ACTIVATIONS)
                        .into_iter()
                        .flatten()
                    {
                        activity[bucket as usize] = n;
                    }
                    Partition::greedy(&activity, workers)
                }
                other => usage_error(format!("unknown partition {other:?} (rr|random|greedy)")),
            };
            // With --adapt the transformed network replaces the plain
            // compile, and the matcher is always profiled: the skew report
            // needs the per-bucket activation counters. Profiling never
            // changes stdout, so quiet runs stay byte-identical.
            let (network, plan_summary) = if adapt {
                let empty = std::collections::BTreeMap::new();
                let activations = series(kernel::metric::NODE_ACTIVATIONS).unwrap_or(&empty);
                let (net, plan) =
                    compile_suggested(&program, activations, &wmes).unwrap_or_else(|e| fail(e));
                (net, plan.summary(&program))
            } else {
                let net = ReteNetwork::compile(&program).unwrap_or_else(|e| fail(e));
                (net, String::new())
            };
            let mut m = if profile_dir.is_some() || adapt {
                ThreadedMatcher::with_partition_profiled(network, partition)
            } else {
                ThreadedMatcher::with_partition(network, partition)
            };
            if adapt {
                m.enable_adaptation(AdaptOptions::default());
            }
            let mut interp = run_with(program, wmes, m, strategy, cycles, quiet);
            if args.get("stats").is_some() {
                let stats = interp.matcher().stats();
                eprintln!("threaded matcher: {} cycles", stats.cycles);
                for (i, w) in stats.per_worker.iter().enumerate() {
                    eprintln!(
                        "  worker {i}: {} tokens processed, {} forwarded in {} messages, \
                         peak queue {}",
                        w.tokens_processed, w.tokens_forwarded, w.messages_sent, w.max_queue_depth
                    );
                }
            }
            if adapt {
                let matcher = interp.matcher_mut();
                let reg = matcher.profile_snapshot().unwrap_or_else(|e| fail(e));
                let skew_before = pre_run.as_ref().and_then(bucket_skew_factor).unwrap_or(0.0);
                let skew_after = bucket_skew_factor(&reg).unwrap_or(0.0);
                let events = matcher.rebalance_events();
                let moved: u64 = events.iter().map(|e| e.moved_buckets).sum();
                eprintln!(
                    "adapt: plan {}",
                    if plan_summary.is_empty() {
                        "(empty)"
                    } else {
                        &plan_summary
                    }
                );
                eprintln!(
                    "adapt: bucket skew {skew_before:.3} -> {skew_after:.3}; \
                     {} rebalances moved {moved} buckets",
                    events.len()
                );
            }
            if let Some(dir) = profile_dir {
                let matcher = interp.matcher_mut();
                let reg = matcher.profile_snapshot().unwrap_or_else(|e| fail(e));
                write_profile(dir, "threaded", matcher.worker_count(), &reg);
                // Merged Chrome trace: the per-worker counter lanes plus
                // the synthesized match-work / barrier-wait phase spans,
                // all on the named THREADED_PID tracks.
                let mut rec = TraceRecorder::new();
                name_threaded_tracks(&mut rec, matcher.worker_count());
                matcher.record_into(&mut rec);
                matcher.record_cycles_into(&mut rec);
                let path = std::path::Path::new(dir).join("trace.json");
                std::fs::write(&path, chrome_trace(&rec))
                    .unwrap_or_else(|e| fail(format!("write {}: {e}", path.display())));
                eprintln!("worker-lane trace written to {}", path.display());
            }
        }
        other => fail(format!(
            "unknown matcher {other:?} (rete|naive|treat|threaded)"
        )),
    }
}

/// Drive one fuzz case's schedule through a single matcher, mirroring
/// the oracle's cadence (same per-round and total cycle bounds), for
/// profiling purposes only — nothing is compared. `RemoveNth` resolves
/// against this lane's own WM, which matches the oracle whenever the
/// matchers agree (and is merely a different valid schedule when not).
fn drive_for_profile<M: Matcher>(case: &FuzzCase, program: &Program, matcher: M) -> Interpreter<M> {
    const MAX_STEPS_PER_ROUND: usize = 8;
    const MAX_TOTAL_CYCLES: usize = 64;
    let mut interp = Interpreter::with_matcher(program.clone(), case.strategy, matcher);
    let mut total_cycles = 0usize;
    'rounds: for ops in &case.schedule.rounds {
        for op in ops {
            match op {
                ScheduleOp::Make(wme) => {
                    interp.add_wme(wme.clone());
                }
                ScheduleOp::RemoveNth(n) => {
                    let ids: Vec<WmeId> =
                        interp.working_memory().iter().map(|(id, _)| id).collect();
                    if ids.is_empty() {
                        continue;
                    }
                    let _ = interp.remove_wme(ids[n % ids.len()]);
                }
            }
        }
        for _ in 0..MAX_STEPS_PER_ROUND {
            if total_cycles >= MAX_TOTAL_CYCLES {
                break 'rounds;
            }
            total_cycles += 1;
            match interp.step() {
                Ok(StepOutcome::Quiescent) | Err(_) => break,
                Ok(_) => {}
            }
            if interp.is_halted() {
                break 'rounds;
            }
        }
        if interp.is_halted() {
            break;
        }
    }
    interp
}

/// Replay `case` under every profiled matcher and merge their registries
/// into `merged`. Threaded replay uses `try_process` semantics via the
/// interpreter; a build failure (invalid generated program) skips the
/// case.
fn replay_profiled(case: &FuzzCase, merged: &mut MetricsRegistry) {
    let Ok(program) = case.program() else {
        return;
    };
    if let Ok(network) = ReteNetwork::compile(&program) {
        let m = ReteMatcher::with_metrics(network, EngineConfig::default(), MetricsRegistry::new());
        let mut interp = drive_for_profile(case, &program, m);
        merged.merge(&interp.matcher_mut().profile());
    }
    let m = TreatMatcher::with_metrics(&program, MetricsRegistry::new());
    let interp = drive_for_profile(case, &program, m);
    merged.merge(&interp.matcher().profile());
    if let Ok(m) = ThreadedMatcher::from_program_profiled(&program, 2) {
        let mut interp = drive_for_profile(case, &program, m);
        if let Ok(reg) = interp.matcher_mut().profile_snapshot() {
            merged.merge(&reg);
        }
    }
}

fn cmd_fuzz(args: &Args) {
    check_flags(
        "fuzz",
        args,
        &[
            "seed",
            "iters",
            "matchers",
            "max-productions",
            "shrink",
            "out",
            "profile",
        ],
    );
    if !args.positional.is_empty() {
        usage_error("fuzz takes no positional arguments");
    }
    let seed = args.get_parse("seed", 0u64);
    let iters = args.get_parse("iters", 100u64);
    let matchers = MatcherKind::parse_list(args.get("matchers").unwrap_or("all"))
        .unwrap_or_else(|e| usage_error(e));
    let cfg = GenConfig {
        max_productions: args.get_parse("max-productions", 4usize).max(1),
        ..GenConfig::default()
    };
    let do_shrink = args.get("shrink").is_some();
    let out_dir = std::path::PathBuf::from(args.get("out").unwrap_or("target/fuzz"));
    let mut profile: Option<MetricsRegistry> = args.get("profile").map(|_| MetricsRegistry::new());

    let mut divergences = 0u64;
    for i in 0..iters {
        let case_seed = seed + i;
        let (case, divergence) = fuzz_one(case_seed, &cfg, &matchers, do_shrink);
        if let Some(merged) = profile.as_mut() {
            replay_profiled(&case, merged);
        }
        if let Some(d) = divergence {
            divergences += 1;
            eprintln!("seed {case_seed}: {d}");
            match write_repro(&out_dir, &format!("fuzz-{case_seed}"), &case) {
                Ok((ops, sched)) => {
                    eprintln!(
                        "  reproducer: {} + {}{}",
                        ops.display(),
                        sched.display(),
                        if do_shrink { " (shrunk)" } else { "" }
                    );
                }
                Err(e) => eprintln!("  could not write reproducer: {e}"),
            }
        }
    }
    if let (Some(merged), Some(dir)) = (profile.as_ref(), args.get("profile")) {
        write_profile(dir, "fuzz-replay", 2, merged);
    }
    let names: Vec<&str> = matchers.iter().map(|m| m.name()).collect();
    println!(
        "fuzz: {iters} cases (seeds {seed}..{}), matchers [{}]: {divergences} divergences",
        seed + iters,
        names.join(",")
    );
    if divergences > 0 {
        exit(1);
    }
}

fn cmd_trace(args: &Args) {
    check_flags(
        "trace",
        args,
        &["wm", "cycles", "table-size", "strategy", "out"],
    );
    let [program_path] = &args.positional[..] else {
        usage();
    };
    let program = parse_program(&read_file(program_path)).unwrap_or_else(|e| fail(e));
    let wmes = load_wmes(args.get("wm"));
    let cycles = args.get_parse("cycles", 10_000usize);
    let table_size = args.get_parse("table-size", 2048u64);
    let strategy = strategy_of(args);
    let network = ReteNetwork::compile(&program).unwrap_or_else(|e| fail(e));
    let matcher = ReteMatcher::new(
        network,
        EngineConfig {
            table_size,
            record_trace: true,
        },
    );
    let mut interp = Interpreter::with_matcher(program, strategy, matcher);
    for w in wmes {
        interp.add_wme(w);
    }
    let result = interp.run(cycles).unwrap_or_else(|e| fail(e));
    let trace = interp
        .matcher_mut()
        .take_trace()
        .expect("tracing was enabled");
    let stats = trace.stats();
    eprintln!(
        "{:?}: {} cycles, {} firings; activations: {}",
        result.outcome,
        result.cycles,
        result.fired.len(),
        stats
    );
    let text = trace.to_text();
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &text).unwrap_or_else(|e| fail(format!("write {path}: {e}")));
            eprintln!("trace written to {path}");
        }
        None => print!("{text}"),
    }
}

fn cmd_simulate(args: &Args) {
    check_flags(
        "simulate",
        args,
        &[
            "procs",
            "overhead",
            "partition",
            "seed",
            "jobs",
            "format",
            "trace-out",
            "stats",
        ],
    );
    let [trace_path] = &args.positional[..] else {
        usage();
    };
    let trace = Trace::from_text(&read_file(trace_path)).unwrap_or_else(|e| fail(e));
    let procs: Vec<usize> = args
        .get("procs")
        .unwrap_or("1,2,4,8,16,32")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| fail(format!("bad processor count {s:?}")))
        })
        .collect();
    let overhead = match args.get("overhead").unwrap_or("8") {
        "0" => OverheadSetting::table_5_1()[0],
        "8" => OverheadSetting::table_5_1()[1],
        "16" => OverheadSetting::table_5_1()[2],
        "32" => OverheadSetting::table_5_1()[3],
        other => fail(format!("unknown overhead {other:?} (0|8|16|32)")),
    };
    let seed = args.get_parse("seed", 1989u64);
    let partition = match args.get("partition").unwrap_or("rr") {
        "rr" => PartitionStrategy::RoundRobin,
        "random" => PartitionStrategy::Random(seed),
        "greedy" => PartitionStrategy::GreedyWholeTrace,
        other => fail(format!("unknown partition {other:?} (rr|random|greedy)")),
    };
    let format = match args.get("format") {
        None => OutputFormat::Text,
        Some(v) => OutputFormat::parse(v).unwrap_or_else(|e| fail(e)),
    };
    let jobs = args.get_parse(
        "jobs",
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    );
    let base = baseline(&trace);
    let curve = speedup_curve_jobs(&trace, &procs, overhead, partition, jobs);
    let summary = SimulateSummary {
        trace: &trace,
        serial_total: base.total,
        points: &curve,
    };
    print!("{}", summary.render(format));

    // Telemetry is a separate, opt-in re-run of the largest requested
    // machine — the summary above is untouched by it.
    let trace_out = args.get("trace-out");
    let want_stats = args.get("stats").is_some();
    if trace_out.is_some() || want_stats {
        let procs_max = procs.iter().copied().max().unwrap_or(1);
        let config = MappingConfig::standard(procs_max, overhead);
        let bucket_partition = partition.build(&trace, procs_max);
        let mut recorder = TraceRecorder::new();
        name_machine_tracks(&mut recorder, &config);
        simulate_recorded(
            &mut SimScratch::new(),
            &trace,
            &config,
            &bucket_partition,
            &mut recorder,
        );
        if let Some(path) = trace_out {
            std::fs::write(path, chrome_trace(&recorder))
                .unwrap_or_else(|e| fail(format!("write {path}: {e}")));
            eprintln!("telemetry trace ({procs_max} match processors) written to {path}");
        }
        if want_stats {
            print!("{}", stats_block(&recorder));
        }
    }
}

/// The program a `mpps serve --script` run compiles: `--program` names a
/// `.ops` file or a builtin section; the default is the synthetic
/// ticket-triage ruleset the serving benchmarks use. A builtin's canned
/// initial working memory is *not* loaded — script sessions start empty
/// and `make` their own WMEs.
fn serve_program(args: &Args) -> Program {
    match args.get("program") {
        None => serve::program(),
        Some(p) if std::path::Path::new(p).exists() => {
            parse_program(&read_file(p)).unwrap_or_else(|e| fail(e))
        }
        Some(p) => builtin_workload(p)
            .map(|(program, _)| program)
            .unwrap_or_else(|| {
                fail(format!(
                    "cannot read {p}: no such file (and not a builtin section: \
                     rubik|tourney|weaver)"
                ))
            }),
    }
}

fn cmd_serve(args: &Args) {
    check_flags(
        "serve",
        args,
        &[
            "synthetic",
            "script",
            "program",
            "sessions",
            "rounds",
            "wmes",
            "workers",
            "queue",
            "shards",
            "sharding",
            "strategy",
            "table-size",
            "stats",
            "adapt",
            "resident-budget",
            "evict-dir",
            "migrate",
        ],
    );
    if !args.positional.is_empty() {
        usage_error("serve takes no positional arguments");
    }
    let script = args.get("script");
    let synthetic = args.get("synthetic").is_some();
    if script.is_some() == synthetic {
        usage_error("serve needs exactly one of --synthetic or --script FILE");
    }
    let defaults = ServerConfig::default();
    let workers = args.get_parse("workers", defaults.workers);
    if workers == 0 {
        usage_error("--workers must be at least 1");
    }
    let queue_capacity = args.get_parse("queue", defaults.queue_capacity);
    if queue_capacity == 0 {
        usage_error("--queue must be at least 1");
    }
    let shards = args.get_parse("shards", defaults.shards);
    if shards == 0 {
        usage_error("--shards must be at least 1");
    }
    let table_size = args.get_parse("table-size", defaults.engine.table_size);
    if table_size == 0 {
        usage_error("--table-size must be at least 1");
    }
    let sharding = match args.get("sharding") {
        None => defaults.sharding,
        Some(v) => Sharding::parse(v).unwrap_or_else(|| {
            usage_error(format!("unknown sharding {v:?} (rr|random[:SEED]|greedy)"))
        }),
    };
    let resident_budget = match args.get("resident-budget") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(0) => usage_error("--resident-budget must be at least 1"),
            Ok(n) => Some(n),
            Err(_) => usage_error(format!("--resident-budget: not a number: {v:?}")),
        },
    };
    let evict_dir = args.get("evict-dir").map(std::path::PathBuf::from);
    if evict_dir.is_some() && resident_budget.is_none() {
        usage_error("--evict-dir needs --resident-budget (nothing is evicted without one)");
    }
    let migrate = args.get("migrate").is_some();
    if migrate && script.is_some() {
        usage_error("--migrate only applies to --synthetic (scripts are deterministic)");
    }
    let config = ServerConfig {
        workers,
        queue_capacity,
        shards,
        sharding,
        strategy: strategy_of(args),
        engine: EngineConfig {
            table_size,
            record_trace: false,
        },
        adapt: args.get("adapt").is_some(),
        resident_budget,
        evict_dir,
        ..defaults
    };

    if let Some(path) = script {
        let report =
            run_script(serve_program(args), &read_file(path), config).unwrap_or_else(|e| fail(e));
        for line in &report.log {
            println!("{line}");
        }
        return;
    }

    if args.get("program").is_some() {
        usage_error("--program only applies to --script (synthetic load has a fixed ruleset)");
    }
    let spec = SyntheticSpec {
        sessions: args.get_parse("sessions", 1000usize),
        rounds: args.get_parse("rounds", 3u64),
        wmes_per_round: args.get_parse("wmes", 4usize),
        migrate,
    };
    if spec.sessions == 0 {
        usage_error("--sessions must be at least 1");
    }
    let report = run_synthetic(config, &spec).unwrap_or_else(|e| fail(e));
    println!(
        "serve: {} sessions x {} rounds x {} wmes on {} workers ({sharding:?})",
        report.sessions, report.rounds, spec.wmes_per_round, workers
    );
    println!(
        "  {} replies ({} failures), {} overload retries, {:.3}s wall",
        report.replies,
        report.failures,
        report.overloads,
        report.elapsed.as_secs_f64()
    );
    println!(
        "  {} WME changes ({:.0}/s), {} cycles ({:.0}/s), {} firings",
        report.wme_changes,
        report.changes_per_sec,
        report.cycles,
        report.cycles_per_sec,
        report.fired
    );
    println!(
        "  cycle latency p50 {} ns, p95 {} ns; batch p95 {} ns",
        report.p50_cycle_ns, report.p95_cycle_ns, report.p95_batch_ns
    );
    // Only emitted when eviction or migration is on, so the default
    // output stays byte-stable for existing smoke tests.
    if report.resident_budget.is_some() || spec.migrate {
        let budget = report
            .resident_budget
            .map_or("unbounded".to_string(), |b| b.to_string());
        println!(
            "  resident budget {budget}/worker: {} evictions, {} fault-ins, {} migrations",
            report.evictions, report.faultins, report.migrations
        );
    }
    if args.get("stats").is_some() {
        for (i, (requests, high)) in report
            .worker_requests
            .iter()
            .zip(&report.worker_queue_high)
            .enumerate()
        {
            eprintln!("  worker {i}: {requests} requests, peak queue depth {high}");
        }
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let cmd = raw.remove(0);
    let args = Args::parse(raw);
    match cmd.as_str() {
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "simulate" => cmd_simulate(&args),
        "fuzz" => cmd_fuzz(&args),
        "serve" => cmd_serve(&args),
        "help" | "--help" | "-h" => usage(),
        other => {
            eprintln!("unknown command {other:?}");
            usage();
        }
    }
}
