//! `mpps` — run, trace and simulate OPS5-subset production systems.
//!
//! `mpps help` prints every subcommand's synopsis; it is generated from
//! [`COMMANDS`], the one place a subcommand or flag is declared.
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
//! any divergence was found. Each case is timed, and stderr names the
//! slowest one (`slowest case: seed N, T ms`).
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
//! strategy for the real thread pool, fixed for the whole run. Greedy does
//! an offline profiled sequential pre-run to measure bucket activity, as
//! in §5.2.2. `--stats` prints per-worker activity counters to stderr.
//! `--workers`, `--partition`, `--seed` and `--stats` apply only to the
//! threaded matcher, and `--table-size` only to the hashed ones (rete and
//! threaded). Giving a flag to a matcher it does not apply to is a usage
//! error.
//!
//! `mpps serve` runs the rule-engine-as-a-service layer: one compiled
//! program multiplexed across many independent working-memory sessions on
//! a bounded-queue worker pool. `--synthetic` drives the built-in
//! ticket-triage load (`--sessions`/`--rounds`/`--wmes`) and prints
//! sustained WME-changes/sec plus cycle-latency percentiles (`--stats`
//! adds per-worker request counts and the process's peak resident memory
//! on stderr); `--script FILE` replays a deterministic session script
//! (`session`/`make`/`run`/`snapshot`/`restore`/`destroy`, one command
//! per line) and prints one log line per command.
//!
//! Exit status: 0 on success (and for `mpps help`), 1 for runtime
//! failures (unreadable file, parse error, fuzz divergence), 2 for caller
//! mistakes — an unknown subcommand or flag, a missing or malformed flag
//! value, a value above the flag's ceiling (`--table-size`, `--workers`) —
//! reported with the subcommand's usage line. The binary denies
//! `unwrap`, `expect` and `panic!` outside tests: a failure is a message
//! and an exit status, never an abort.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod format;

use format::{stats_block, OutputFormat, SimulateSummary};
use mpps::core::sweep::{baseline, speedup_curve_jobs, PartitionStrategy};
use mpps::core::{
    greedy_partition, name_machine_tracks, render_match_profile, simulate_recorded, MappingConfig,
    OverheadSetting, Partition, SimScratch, ThreadedMatcher,
};
use mpps::difftest::{fuzz_one, replay, write_repro, FuzzCase, GenConfig, MatcherKind};
use mpps::ops::{
    parse_program, parse_wme, Interpreter, Matcher, NaiveMatcher, Program, Strategy, TreatMatcher,
    Wme,
};
use mpps::rete::{EngineConfig, ReteMatcher, ReteNetwork, Trace, MAX_TABLE_SIZE};
use mpps::server::{run_script, run_synthetic, ServerConfig, SyntheticSpec};
use mpps::telemetry::{chrome::chrome_trace, MetricsRegistry, TraceRecorder};
use mpps::workloads::{rubik, serve, tourney, weaver};
use std::process::exit;

/// One subcommand. [`COMMANDS`] is the only declaration of a subcommand
/// or a flag: the usage text, switch-vs-valued parsing, unknown-flag
/// rejection and dispatch are all derived from it.
struct Command {
    name: &'static str,
    /// Synopsis of the required positional arguments, one word each.
    positional: &'static str,
    /// `(flag, Some(metavar))` takes a value; `(flag, None)` is a switch.
    flags: &'static [(&'static str, Option<&'static str>)],
    run: fn(&Args),
}

const COMMANDS: &[Command] = &[
    Command {
        name: "run",
        positional: "<program.ops|rubik|tourney|weaver>",
        flags: &[
            ("wm", Some("FILE")),
            ("cycles", Some("N")),
            ("strategy", Some("lex|mea")),
            ("matcher", Some("rete|naive|treat|threaded")),
            ("workers", Some("N")),
            ("table-size", Some("N")),
            ("partition", Some("rr|random|greedy")),
            ("seed", Some("N")),
            ("quiet", None),
            ("stats", None),
            ("profile", Some("DIR")),
        ],
        run: cmd_run,
    },
    Command {
        name: "trace",
        positional: "<program.ops>",
        flags: &[
            ("wm", Some("FILE")),
            ("cycles", Some("N")),
            ("table-size", Some("N")),
            ("strategy", Some("lex|mea")),
            ("out", Some("FILE")),
        ],
        run: cmd_trace,
    },
    Command {
        name: "simulate",
        positional: "<file.trace>",
        flags: &[
            ("procs", Some("LIST")),
            ("overhead", Some("0|8|16|32")),
            ("partition", Some("rr|random|greedy")),
            ("seed", Some("N")),
            ("jobs", Some("N")),
            ("format", Some("text|json")),
            ("trace-out", Some("FILE")),
            ("stats", None),
        ],
        run: cmd_simulate,
    },
    Command {
        name: "fuzz",
        positional: "",
        flags: &[
            ("seed", Some("N")),
            ("iters", Some("N")),
            ("matchers", Some("LIST|all")),
            ("max-productions", Some("N")),
            ("shrink", None),
            ("out", Some("DIR")),
            ("profile", Some("DIR")),
        ],
        run: cmd_fuzz,
    },
    Command {
        name: "serve",
        positional: "",
        flags: &[
            ("synthetic", None),
            ("script", Some("FILE")),
            ("program", Some("FILE|rubik|tourney|weaver")),
            ("sessions", Some("N")),
            ("rounds", Some("N")),
            ("wmes", Some("N")),
            ("workers", Some("N")),
            ("queue", Some("N")),
            ("strategy", Some("lex|mea")),
            ("table-size", Some("N")),
            ("stats", None),
            ("resident-budget", Some("N")),
            ("evict-dir", Some("DIR")),
        ],
        run: cmd_serve,
    },
];

impl Command {
    /// `mpps NAME <positional> [--flag METAVAR]…`, wrapped at 78 columns.
    fn usage(&self) -> String {
        let flags = self.flags.iter().map(|(flag, metavar)| match metavar {
            Some(metavar) => format!("[--{flag} {metavar}]"),
            None => format!("[--{flag}]"),
        });
        let positional = self.positional.split_whitespace().map(str::to_owned);
        let mut lines = Vec::new();
        let mut line = format!("mpps {}", self.name);
        for word in positional.chain(flags) {
            if line.len() + 1 + word.len() > 78 {
                lines.push(std::mem::replace(&mut line, format!("          {word}")));
            } else {
                line = format!("{line} {word}");
            }
        }
        lines.push(line);
        lines.join("\n")
    }
}

/// Every subcommand's usage, one block per command.
fn full_usage() -> String {
    let blocks: Vec<String> = COMMANDS
        .iter()
        .map(|c| format!("  {}", c.usage().replace('\n', "\n  ")))
        .collect();
    format!("usage:\n{}\n  mpps help", blocks.join("\n"))
}

/// The largest value each bounded flag accepts. Past these the process
/// would die allocating hash tables or spawning threads instead of
/// reporting the mistake.
const CEILINGS: &[(&str, u64)] = &[("table-size", MAX_TABLE_SIZE), ("workers", 256)];

/// A runtime failure (exit 1): the command line was fine, the work was not.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("mpps: {msg}");
    exit(1)
}

/// One subcommand's parsed command line: positional args plus `--flag
/// [value]` pairs, checked against the command's declared flags.
struct Args {
    command: &'static Command,
    positional: Vec<String>,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `raw` against `command`'s table entry. Unknown flags, a
    /// valued flag without its value, and a wrong positional count are
    /// usage errors — silently ignoring a misspelled flag is how
    /// `--cycels 5` runs for 10 000 cycles.
    fn parse(command: &'static Command, raw: Vec<String>) -> Args {
        let mut args = Args {
            command,
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                args.positional.push(a);
                continue;
            };
            let Some(&(flag, metavar)) = command.flags.iter().find(|(f, _)| *f == key) else {
                args.usage_error(format!("unknown flag --{key} for `mpps {}`", command.name));
            };
            let value = match metavar {
                None => "true".to_owned(),
                Some(metavar) => it.next().unwrap_or_else(|| {
                    args.usage_error(format!("flag --{flag} needs a value ({metavar})"))
                }),
            };
            args.flags.push((flag, value));
        }
        if args.positional.len() != command.positional.split_whitespace().count() {
            let wants = match command.positional {
                "" => "no positional arguments",
                synopsis => synopsis,
            };
            args.usage_error(format!("`mpps {}` takes {wants}", command.name));
        }
        args
    }

    /// Invalid command-line input: report it with this subcommand's usage
    /// line and exit with the usage status (2), distinguishing caller
    /// mistakes from runtime failures (1).
    fn usage_error(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("mpps: {msg}\nusage: {}", self.command.usage());
        exit(2)
    }

    fn get(&self, key: &str) -> Option<&str> {
        let mut flags = self.flags.iter().rev();
        flags.find(|(k, _)| *k == key).map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The flag's value, `default` when absent. A value above the flag's
    /// entry in [`CEILINGS`] is a usage error.
    fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        let Some(v) = self.get(key) else {
            return default;
        };
        let ceiling = CEILINGS.iter().find(|(flag, _)| *flag == key);
        if let Some(&(_, max)) = ceiling {
            if v.parse::<u64>().is_ok_and(|n| n > max) {
                self.usage_error(format!("--{key} must be at most {max}"));
            }
        }
        v.parse()
            .unwrap_or_else(|_| self.usage_error(format!("bad value for --{key}: {v:?}")))
    }

    /// Like [`Args::get_parse`], for counts that must be at least 1.
    fn get_positive<T: std::str::FromStr + PartialEq + From<u8>>(
        &self,
        key: &str,
        default: T,
    ) -> T {
        let n = self.get_parse(key, default);
        if n == T::from(0) {
            self.usage_error(format!("--{key} must be at least 1"));
        }
        n
    }

    /// A flag whose value is one of a fixed set of names; absent, it is
    /// the first option.
    fn choice<T: Copy>(&self, key: &str, options: &[(&str, T)]) -> T {
        let Some(v) = self.get(key) else {
            return options[0].1;
        };
        let found = options.iter().find(|(name, _)| *name == v);
        found.map(|&(_, t)| t).unwrap_or_else(|| {
            let names: Vec<&str> = options.iter().map(|(name, _)| *name).collect();
            self.usage_error(format!("unknown --{key} {v:?} ({})", names.join("|")))
        })
    }

    /// `--partition` (with `--seed` for the random placement).
    fn partition(&self) -> PartitionStrategy {
        let seed = self.get_parse("seed", 1989u64);
        self.choice(
            "partition",
            &[
                ("rr", PartitionStrategy::RoundRobin),
                ("random", PartitionStrategy::Random(seed)),
                ("greedy", PartitionStrategy::GreedyWholeTrace),
            ],
        )
    }

    fn strategy(&self) -> Strategy {
        self.choice(
            "strategy",
            &[("lex", Strategy::Lex), ("mea", Strategy::Mea)],
        )
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

/// The sequential pre-run behind `--partition greedy`: one profiled run of
/// the whole program, whose kernel counters give the per-bucket activity
/// greedy placement packs (§5.2.2).
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

/// A `--program`/positional argument naming a `.ops` file or a builtin
/// section. A real file always wins; builtin section names only apply
/// when no such file exists.
fn load_program(path: &str) -> (Program, Vec<Wme>) {
    if std::path::Path::new(path).exists() {
        let program = parse_program(&read_file(path)).unwrap_or_else(|e| fail(e));
        return (program, Vec::new());
    }
    builtin_workload(path).unwrap_or_else(|| {
        fail(format!(
            "cannot read {path}: no such file (and not a builtin section: \
             rubik|tourney|weaver)"
        ))
    })
}

fn cmd_run(args: &Args) {
    let matcher_name = args.choice(
        "matcher",
        &["rete", "naive", "treat", "threaded"].map(|name| (name, name)),
    );
    // A flag the chosen matcher would ignore is a caller mistake.
    let ignored: &[&str] = match matcher_name {
        "threaded" => &[],
        "rete" => &["workers", "partition", "seed", "stats"],
        _ => &["workers", "partition", "seed", "stats", "table-size"],
    };
    if let Some(flag) = ignored.iter().find(|flag| args.has(flag)) {
        args.usage_error(format!(
            "--{flag} does not apply to --matcher {matcher_name}"
        ));
    }
    let (program, mut wmes) = load_program(&args.positional[0]);
    wmes.extend(load_wmes(args.get("wm")));
    let cycles = args.get_parse("cycles", 10_000usize);
    let strategy = args.strategy();
    let quiet = args.has("quiet");
    let profile_dir = args.get("profile");
    let table_size = args.get_positive("table-size", 2048u64);
    match matcher_name {
        "rete" => {
            let network = ReteNetwork::compile(&program).unwrap_or_else(|e| fail(e));
            let config = EngineConfig {
                table_size,
                record_trace: false,
            };
            if let Some(dir) = profile_dir {
                let m = ReteMatcher::with_metrics(network, config, MetricsRegistry::new());
                let mut interp = run_with(program, wmes, m, strategy, cycles, quiet);
                let reg = interp.matcher_mut().profile();
                write_profile(dir, "rete", 1, &reg);
            } else {
                let m = ReteMatcher::new(network, config);
                run_with(program, wmes, m, strategy, cycles, quiet);
            }
        }
        "naive" => {
            if profile_dir.is_some() {
                args.usage_error(
                    "--profile is not supported for --matcher naive (no match kernel)",
                );
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
        _ => run_threaded(args, program, wmes, strategy, cycles, table_size),
    }
}

/// `mpps run --matcher threaded`: the real thread pool, with its bucket
/// placement, profile and stats options.
fn run_threaded(
    args: &Args,
    program: Program,
    wmes: Vec<Wme>,
    strategy: Strategy,
    cycles: usize,
    table_size: u64,
) {
    let workers = args.get_positive("workers", 4usize);
    let placement = args.partition();
    let profile_dir = args.get("profile");
    let partition = match placement {
        PartitionStrategy::RoundRobin => Partition::round_robin(table_size, workers),
        PartitionStrategy::Random(seed) => Partition::random(table_size, workers, seed),
        PartitionStrategy::GreedyWholeTrace => {
            let measured = profiled_pre_run(&program, &wmes, strategy, cycles, table_size);
            greedy_partition(&measured, table_size, workers)
        }
    };
    let network = ReteNetwork::compile(&program).unwrap_or_else(|e| fail(e));
    let m = if profile_dir.is_some() {
        ThreadedMatcher::with_partition_profiled(network, partition)
    } else {
        ThreadedMatcher::with_partition(network, partition)
    };
    let mut interp = run_with(program, wmes, m, strategy, cycles, args.has("quiet"));
    if args.has("stats") {
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
    if let Some(dir) = profile_dir {
        let matcher = interp.matcher_mut();
        let reg = matcher.profile_snapshot().unwrap_or_else(|e| fail(e));
        write_profile(dir, "threaded", matcher.worker_count(), &reg);
        // Merged Chrome trace: the per-worker counter lanes plus the
        // match-work / barrier-wait phase spans, all on the named
        // THREADED_PID tracks.
        let path = std::path::Path::new(dir).join("trace.json");
        std::fs::write(&path, chrome_trace(&matcher.export_trace()))
            .unwrap_or_else(|e| fail(format!("write {}: {e}", path.display())));
        eprintln!("worker-lane trace written to {}", path.display());
    }
}

/// Replay `case` under every profiled matcher (at the oracle's cadence,
/// [`replay`]) and merge their registries into `merged`. A build failure
/// (invalid generated program) skips the case.
fn replay_profiled(case: &FuzzCase, merged: &mut MetricsRegistry) {
    let Ok(program) = case.program() else {
        return;
    };
    if let Ok(network) = ReteNetwork::compile(&program) {
        let m = ReteMatcher::with_metrics(network, EngineConfig::default(), MetricsRegistry::new());
        let mut interp = replay(case, &program, m);
        merged.merge(&interp.matcher_mut().profile());
    }
    let m = TreatMatcher::with_metrics(&program, MetricsRegistry::new());
    let interp = replay(case, &program, m);
    merged.merge(&interp.matcher().profile());
    if let Ok(m) = ThreadedMatcher::from_program_profiled(&program, 2) {
        let mut interp = replay(case, &program, m);
        if let Ok(reg) = interp.matcher_mut().profile_snapshot() {
            merged.merge(&reg);
        }
    }
}

fn cmd_fuzz(args: &Args) {
    let seed = args.get_parse("seed", 0u64);
    let iters = args.get_parse("iters", 100u64);
    let matchers = MatcherKind::parse_list(args.get("matchers").unwrap_or("all"))
        .unwrap_or_else(|e| args.usage_error(e));
    let cfg = GenConfig {
        max_productions: args.get_positive("max-productions", 4usize),
        ..GenConfig::default()
    };
    let do_shrink = args.has("shrink");
    let out_dir = std::path::PathBuf::from(args.get("out").unwrap_or("target/fuzz"));
    let mut profile: Option<MetricsRegistry> = args.get("profile").map(|_| MetricsRegistry::new());

    let mut divergences = 0u64;
    // (time, seed) of the slowest case, so a runaway one is named by the
    // tool rather than found with a stopwatch.
    let mut slowest: Option<(std::time::Duration, u64)> = None;
    for i in 0..iters {
        let case_seed = seed + i;
        let started = std::time::Instant::now();
        let (case, divergence) = fuzz_one(case_seed, &cfg, &matchers, do_shrink);
        let took = started.elapsed();
        if slowest.is_none_or(|(worst, _)| took > worst) {
            slowest = Some((took, case_seed));
        }
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
    if let Some((took, case_seed)) = slowest {
        eprintln!(
            "slowest case: seed {case_seed}, {:.1} ms",
            took.as_secs_f64() * 1e3
        );
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
    let cycles = args.get_parse("cycles", 10_000usize);
    let table_size = args.get_positive("table-size", 2048u64);
    let strategy = args.strategy();
    let program = parse_program(&read_file(&args.positional[0])).unwrap_or_else(|e| fail(e));
    let wmes = load_wmes(args.get("wm"));
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
        .unwrap_or_else(|| fail("tracing was enabled but no trace was recorded"));
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
    let procs: Vec<usize> = args
        .get("procs")
        .unwrap_or("1,2,4,8,16,32")
        .split(',')
        .map(|s| {
            (s.trim().parse().ok())
                .filter(|&n: &usize| n > 0)
                .unwrap_or_else(|| args.usage_error(format!("bad processor count {s:?}")))
        })
        .collect();
    let [zero, eight, sixteen, thirty_two] = OverheadSetting::table_5_1();
    let overhead = args.choice(
        "overhead",
        &[
            ("8", eight),
            ("0", zero),
            ("16", sixteen),
            ("32", thirty_two),
        ],
    );
    let partition = args.partition();
    let format = args.choice(
        "format",
        &[("text", OutputFormat::Text), ("json", OutputFormat::Json)],
    );
    let jobs = args.get_parse("jobs", mpps::telemetry::available_cpus());
    let trace = Trace::from_text(&read_file(&args.positional[0])).unwrap_or_else(|e| fail(e));
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
    let want_stats = args.has("stats");
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

fn cmd_serve(args: &Args) {
    let script = args.get("script");
    if script.is_some() == args.has("synthetic") {
        args.usage_error("serve needs exactly one of --synthetic or --script FILE");
    }
    let defaults = ServerConfig::default();
    let workers = args.get_positive("workers", defaults.workers);
    let resident_budget = args
        .has("resident-budget")
        .then(|| args.get_positive("resident-budget", 0usize));
    let evict_dir = args.get("evict-dir").map(std::path::PathBuf::from);
    if evict_dir.is_some() && resident_budget.is_none() {
        args.usage_error("--evict-dir needs --resident-budget (nothing is evicted without one)");
    }
    let config = ServerConfig {
        workers,
        queue_capacity: args.get_positive("queue", defaults.queue_capacity),
        strategy: args.strategy(),
        engine: EngineConfig {
            table_size: args.get_positive("table-size", defaults.engine.table_size),
            record_trace: false,
        },
        resident_budget,
        evict_dir,
        ..defaults
    };

    if let Some(path) = script {
        // `--program` names a `.ops` file or a builtin section; the default
        // is the synthetic ticket-triage ruleset. A builtin's canned initial
        // working memory is *not* loaded — script sessions start empty and
        // `make` their own WMEs.
        let program = args
            .get("program")
            .map_or_else(serve::program, |p| load_program(p).0);
        let report = run_script(program, &read_file(path), config).unwrap_or_else(|e| fail(e));
        for line in &report.log {
            println!("{line}");
        }
        return;
    }

    if args.has("program") {
        args.usage_error("--program only applies to --script (synthetic load has a fixed ruleset)");
    }
    let spec = SyntheticSpec {
        sessions: args.get_positive("sessions", 1000usize),
        rounds: args.get_parse("rounds", 3u64),
        wmes_per_round: args.get_parse("wmes", 4usize),
    };
    let report = run_synthetic(config, &spec).unwrap_or_else(|e| fail(e));
    println!(
        "serve: {} sessions x {} rounds x {} wmes on {} workers",
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
    // Only emitted when eviction is on, so the default output stays
    // byte-stable for existing smoke tests.
    if let Some(budget) = report.resident_budget {
        println!(
            "  resident budget {budget}/worker: {} evictions, {} fault-ins",
            report.evictions, report.faultins
        );
    }
    if args.has("stats") {
        for (i, (requests, high)) in report
            .worker_requests
            .iter()
            .zip(&report.worker_queue_high)
            .enumerate()
        {
            eprintln!("  worker {i}: {requests} requests, peak queue depth {high}");
        }
        if let Some(kib) = mpps::telemetry::peak_rss_kib() {
            eprintln!(
                "  peak resident memory {kib} KiB ({:.1} MiB)",
                kib as f64 / 1024.0
            );
        }
    }
}

fn main() {
    let mut raw = std::env::args().skip(1);
    let name = raw.next();
    match name.as_deref() {
        Some("help" | "--help" | "-h") => println!("{}", full_usage()),
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(command) => (command.run)(&Args::parse(command, raw.collect())),
            None => {
                eprintln!("mpps: unknown command {name:?}\n{}", full_usage());
                exit(2)
            }
        },
        None => {
            eprintln!("{}", full_usage());
            exit(2)
        }
    }
}
