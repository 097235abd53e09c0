//! Smoke tests for the `mpps` command-line tool: run → trace → simulate,
//! end to end, on the bundled monkey-and-bananas program.

use std::process::Command;

fn mpps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mpps"))
}

fn repo_file(rel: &str) -> String {
    format!("{}/{}", env!("CARGO_MANIFEST_DIR"), rel)
}

#[test]
fn run_monkey_and_bananas() {
    let out = mpps()
        .args([
            "run",
            &repo_file("examples/data/monkey.ops"),
            "--wm",
            &repo_file("examples/data/monkey.wm"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("push-ladder"));
    assert!(stdout.contains("climb-ladder"));
    assert!(stdout.contains("grab-bananas"));
    assert!(stdout.contains("got bananas"));
    assert!(stdout.contains("Halted after 3 cycles"));
}

#[test]
fn run_with_each_matcher_agrees() {
    let run = |matcher: &str| {
        let out = mpps()
            .args([
                "run",
                &repo_file("examples/data/monkey.ops"),
                "--wm",
                &repo_file("examples/data/monkey.wm"),
                "--matcher",
                matcher,
                "--quiet",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{matcher}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let rete = run("rete");
    assert_eq!(rete, run("naive"));
    assert_eq!(rete, run("treat"));
    assert_eq!(rete, run("threaded"));
}

#[test]
fn fuzz_clean_sweep_reports_zero_divergences() {
    // A short fixed-seed sweep: all matchers agree, summary on stdout,
    // exit status 0.
    let out = mpps()
        .args(["fuzz", "--iters", "25", "--seed", "0", "--shrink"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fuzz: 25 cases (seeds 0..25)"), "{stdout}");
    assert!(stdout.contains("0 divergences"), "{stdout}");
    assert!(stdout.contains("naive,rete,treat,threaded"), "{stdout}");
}

#[test]
fn fuzz_subset_of_matchers_is_accepted() {
    let out = mpps()
        .args(["fuzz", "--iters", "5", "--matchers", "rete,treat"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("matchers [rete,treat]"), "{stdout}");
}

#[test]
fn fuzz_bad_matcher_is_usage_error() {
    let out = mpps()
        .args(["fuzz", "--iters", "1", "--matchers", "dragnet"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("dragnet"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn fuzz_rejects_positional_arguments() {
    let out = mpps()
        .args(["fuzz", "extra.ops"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn trace_then_simulate_roundtrip() {
    let dir = std::env::temp_dir().join(format!("mpps-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("monkey.trace");
    let out = mpps()
        .args([
            "trace",
            &repo_file("examples/data/monkey.ops"),
            "--wm",
            &repo_file("examples/data/monkey.wm"),
            "--table-size",
            "64",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert!(text.starts_with("mpps-trace v1 table_size=64"));

    let out = mpps()
        .args([
            "simulate",
            trace_path.to_str().unwrap(),
            "--procs",
            "1,2,4",
            "--overhead",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("P, time_us, speedup"));
    // P=1 at zero overhead is the baseline: speedup 1.00.
    assert!(stdout.contains("1, "), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Write the monkey-and-bananas trace into a fresh temp dir named `tag`.
fn make_trace(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("mpps-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("monkey.trace");
    let out = mpps()
        .args([
            "trace",
            &repo_file("examples/data/monkey.ops"),
            "--wm",
            &repo_file("examples/data/monkey.wm"),
            "--table-size",
            "64",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    (dir, trace_path)
}

#[test]
fn simulate_trace_out_keeps_stdout_identical_and_writes_perfetto_trace() {
    let (dir, trace_path) = make_trace("traceout");
    let chrome_path = dir.join("t.json");
    let base_args = [
        "simulate",
        trace_path.to_str().unwrap(),
        "--procs",
        "1,2,4",
        "--overhead",
        "8",
        "--jobs",
        "2",
    ];
    let plain = mpps().args(base_args).output().expect("binary runs");
    let traced = mpps()
        .args(base_args)
        .args(["--trace-out", chrome_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(plain.status.success() && traced.status.success());
    // Enabling telemetry must not change the figure output.
    assert_eq!(plain.stdout, traced.stdout);

    // The exported file is a Chrome trace with one named lane per machine
    // processor of the largest requested configuration (4 match + control).
    let text = std::fs::read_to_string(&chrome_path).unwrap();
    let doc = mpps::telemetry::json::parse(&text).expect("trace parses as JSON");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    let lane_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    assert!(lane_names.contains(&"control"), "{lane_names:?}");
    for m in 0..4 {
        assert!(lane_names.contains(&format!("match {m}").as_str()));
    }
    // Every processor lane carries at least one complete ("X") span.
    for tid in 0..5u32 {
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("tid").and_then(|t| t.as_u64()) == Some(tid as u64)
                    && e.get("pid").and_then(|p| p.as_u64()) == Some(1)
            }),
            "no span on processor lane {tid}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_rejects_out_of_range_bucket_without_panicking() {
    let dir = std::env::temp_dir().join(format!("mpps-cli-badbucket-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("bad.trace");
    std::fs::write(
        &trace_path,
        "mpps-trace v1 table_size=64\ncycle\nJ n1 R + b99999 .\n",
    )
    .unwrap();
    let out = mpps()
        .args(["simulate", trace_path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 3: bucket 99999 out of range for table_size=64"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_format_json_emits_parseable_summary() {
    let (dir, trace_path) = make_trace("json");
    let out = mpps()
        .args([
            "simulate",
            trace_path.to_str().unwrap(),
            "--procs",
            "1,2",
            "--overhead",
            "0",
            "--format",
            "json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let doc = mpps::telemetry::json::parse(&stdout).expect("summary parses as JSON");
    let points = doc.get("points").and_then(|p| p.as_array()).unwrap();
    assert_eq!(points.len(), 2);
    assert_eq!(
        points[0].get("processors").and_then(|v| v.as_u64()),
        Some(1)
    );
    assert!(doc.get("serial_match_us").and_then(|v| v.as_f64()).unwrap() > 0.0);
    assert!(doc.get("trace").and_then(|t| t.get("cycles")).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_stats_prints_histogram_summaries() {
    let (dir, trace_path) = make_trace("stats");
    let out = mpps()
        .args([
            "simulate",
            trace_path.to_str().unwrap(),
            "--procs",
            "1,2,4",
            "--overhead",
            "8",
            "--stats",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The summary table is still there, followed by the histogram block.
    assert!(stdout.contains("P, time_us, speedup"));
    assert!(stdout.contains("telemetry histograms"));
    // One line per sampled metric, in metric-name order (the aggregate
    // store is name-sorted).
    let metrics: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.contains("telemetry histograms"))
        .skip(1)
        .filter_map(|l| l.trim_start().split_once(": n=").map(|(name, _)| name))
        .collect();
    assert_eq!(
        metrics,
        [
            "acts-per-bucket",
            "cycle-makespan-us",
            "left-acts-per-proc",
            "network-transit-ns",
            "queue-depth",
            "right-acts-per-proc",
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threaded_workers_zero_is_usage_error() {
    let out = mpps()
        .args([
            "run",
            &repo_file("examples/data/monkey.ops"),
            "--wm",
            &repo_file("examples/data/monkey.wm"),
            "--matcher",
            "threaded",
            "--workers",
            "0",
        ])
        .output()
        .expect("binary runs");
    // Caller mistake: usage status (2), a diagnostic naming the flag, and
    // no panic backtrace.
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--workers"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn threaded_partition_strategies_agree_with_rete() {
    let run = |extra: &[&str]| {
        let out = mpps()
            .args([
                "run",
                &repo_file("examples/data/monkey.ops"),
                "--wm",
                &repo_file("examples/data/monkey.wm"),
                "--quiet",
            ])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let rete = run(&["--matcher", "rete"]);
    for partition in ["rr", "random", "greedy"] {
        let threaded = run(&[
            "--matcher",
            "threaded",
            "--workers",
            "3",
            "--partition",
            partition,
            "--seed",
            "42",
        ]);
        assert_eq!(rete, threaded, "partition {partition} diverged");
    }
}

#[test]
fn threaded_stats_prints_worker_lines() {
    let out = mpps()
        .args([
            "run",
            &repo_file("examples/data/monkey.ops"),
            "--wm",
            &repo_file("examples/data/monkey.wm"),
            "--matcher",
            "threaded",
            "--workers",
            "2",
            "--stats",
            "--quiet",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("threaded matcher:"), "{stderr}");
    assert!(stderr.contains("worker 0:"), "{stderr}");
    assert!(stderr.contains("worker 1:"), "{stderr}");
}

/// Every characteristic section under every profiled matcher: profiling
/// leaves stdout untouched and writes a `match_profile.json` that passes
/// the full v1 schema check (totals, hot-list ordering, skew invariants,
/// arena, phases, worker lanes).
#[test]
fn run_profile_keeps_stdout_identical_and_writes_schema_valid_profile() {
    let dir = std::env::temp_dir().join(format!("mpps-cli-profile-{}", std::process::id()));
    for section in ["rubik", "tourney", "weaver"] {
        for matcher in ["rete", "treat", "threaded"] {
            let base = ["run", section, "--matcher", matcher, "--workers", "3"];
            let plain = mpps().args(base).arg("--quiet").output().unwrap();
            let prof_dir = dir.join(section).join(matcher);
            let profiled = mpps()
                .args(base)
                .args(["--quiet", "--profile", prof_dir.to_str().unwrap()])
                .output()
                .expect("binary runs");
            assert!(
                plain.status.success() && profiled.status.success(),
                "{section}/{matcher}: {}",
                String::from_utf8_lossy(&profiled.stderr)
            );
            // Profiling must not change what the run prints.
            assert_eq!(
                plain.stdout, profiled.stdout,
                "{section}/{matcher}: stdout diverged"
            );

            let profile = std::fs::read_to_string(prof_dir.join("match_profile.json")).unwrap();
            let report = mpps::core::check_profile(&profile)
                .unwrap_or_else(|e| panic!("{section}/{matcher}: {e}"));
            assert!(
                report.contains(&format!("matcher {matcher:?}")) && !report.contains(", 0 act"),
                "{section}/{matcher}: {report}"
            );
            if matcher == "threaded" {
                assert!(report.contains("3 worker lanes"), "{section}: {report}");
            }
        }
    }
    // The threaded run also exports the merged Chrome-trace lanes.
    let trace_path = dir.join("tourney").join("threaded").join("trace.json");
    let trace = std::fs::read_to_string(trace_path).unwrap();
    let doc = mpps::telemetry::json::parse(&trace).expect("trace parses as JSON");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    let has = |name: &str| {
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
    };
    assert!(has("match-work"), "no match-work spans in trace");
    assert!(has("barrier-wait"), "no barrier-wait spans in trace");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_profile_with_naive_matcher_is_usage_error() {
    let out = mpps()
        .args([
            "run",
            "tourney",
            "--matcher",
            "naive",
            "--profile",
            "/tmp/x",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--profile"), "{stderr}");
}

#[test]
fn fuzz_profile_writes_merged_replay_profile() {
    let dir = std::env::temp_dir().join(format!("mpps-cli-fuzzprof-{}", std::process::id()));
    let out = mpps()
        .args([
            "fuzz",
            "--iters",
            "10",
            "--seed",
            "7",
            "--profile",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("match_profile.json")).unwrap();
    let doc = mpps::telemetry::json::parse(&text).expect("profile parses as JSON");
    assert_eq!(
        doc.get("matcher").and_then(|v| v.as_str()),
        Some("fuzz-replay")
    );
    assert!(
        doc.get("totals")
            .and_then(|t| t.get("activations"))
            .and_then(|v| v.as_u64())
            .unwrap()
            > 0
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_synthetic_prints_throughput_summary() {
    let out = mpps()
        .args([
            "serve",
            "--synthetic",
            "--sessions",
            "30",
            "--rounds",
            "2",
            "--wmes",
            "2",
            "--workers",
            "2",
            "--stats",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("serve: 30 sessions x 2 rounds x 2 wmes on 2 workers\n"),
        "{stdout}"
    );
    assert!(stdout.contains("0 failures"), "{stdout}");
    // 30 creations + 60 ingestion rounds, 3 firings per request.
    assert!(stdout.contains("90 replies"), "{stdout}");
    assert!(stdout.contains("360 firings"), "{stdout}");
    assert!(stdout.contains("cycle latency p50"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("worker 0:"), "{stderr}");
    assert!(stderr.contains("worker 1:"), "{stderr}");
}

#[test]
fn serve_script_restores_deterministically() {
    let dir = std::env::temp_dir().join(format!("mpps-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let script = dir.join("triage.script");
    std::fs::write(
        &script,
        "# snapshot mid-stream, restore, replay the tail\n\
         session a\n\
         make a (stats ^done 0)\n\
         make a (request ^id 1 ^kind alert)\n\
         snapshot a\n\
         make a (request ^id 2 ^kind order)\n\
         restore b a\n\
         make b (request ^id 2 ^kind order)\n\
         destroy a\n",
    )
    .unwrap();
    let out = mpps()
        .args(["serve", "--script", script.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 8, "{stdout}");
    assert!(lines[0].starts_with("session a = s0"), "{stdout}");
    assert!(lines[3].starts_with("snapshot a: "), "{stdout}");
    // The restored session replays the same input and fires identically.
    assert_eq!(
        lines[4].replace(" a:", ":"),
        lines[6].replace(" b:", ":"),
        "{stdout}"
    );
    assert_eq!(lines[7], "destroy a: ok", "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--resident-budget` caps resident sessions per worker: the summary
/// gains an eviction line, and with `--migrate` the synthetic driver
/// rebalances between rounds. The constrained run still reports zero
/// failures — eviction and migration must be invisible to correctness.
#[test]
fn serve_synthetic_evicts_and_migrates_under_a_resident_budget() {
    let dir = std::env::temp_dir().join(format!("mpps-cli-evict-{}", std::process::id()));
    let out = mpps()
        .args([
            "serve",
            "--synthetic",
            "--sessions",
            "24",
            "--rounds",
            "2",
            "--wmes",
            "2",
            "--workers",
            "2",
            "--resident-budget",
            "4",
            "--evict-dir",
            dir.to_str().unwrap(),
            "--migrate",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 failures"), "{stdout}");
    assert!(stdout.contains("resident budget 4/worker:"), "{stdout}");
    // 24 sessions over a 4/worker budget must actually spill to disk.
    let line = stdout
        .lines()
        .find(|l| l.contains("resident budget"))
        .unwrap();
    assert!(!line.contains(" 0 evictions"), "{stdout}");
    // Balanced admission gives rebalance nothing to do by itself, so the
    // driver displaces sessions first: the migration path must have run.
    assert!(!line.contains(" 0 migrations"), "{stdout}");
    // The workers clean their spill directories up on shutdown.
    assert!(
        !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
        "spill files leaked in {}",
        dir.display()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Degenerate or contradictory serve flags are usage errors (exit 2),
/// not silent clamps — and so are the placement flags that went away
/// with the shard layer.
#[test]
fn serve_rejects_degenerate_scale_flags() {
    for (args, wants) in [
        (
            &["serve", "--synthetic", "--sharding", "rr"][..],
            "unknown flag --sharding for `mpps serve`",
        ),
        (
            &["serve", "--synthetic", "--shards", "4"][..],
            "unknown flag --shards for `mpps serve`",
        ),
        (
            &["serve", "--synthetic", "--workers", "0"][..],
            "--workers must be at least 1",
        ),
        (
            &["serve", "--synthetic", "--resident-budget", "0"][..],
            "--resident-budget must be at least 1",
        ),
        (
            &["serve", "--synthetic", "--evict-dir", "/tmp/x"][..],
            "--evict-dir needs --resident-budget",
        ),
        (
            &["serve", "--script", "x", "--migrate"][..],
            "--migrate only applies to --synthetic",
        ),
    ] {
        let out = mpps().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(wants), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: mpps serve"), "{args:?}: {stderr}");
    }
}

#[test]
fn serve_needs_exactly_one_mode() {
    for args in [
        &["serve"][..],
        &["serve", "--synthetic", "--script", "x"][..],
    ] {
        let out = mpps().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("exactly one of"), "{args:?}: {stderr}");
    }
}

/// Every subcommand rejects flags it does not understand the same way:
/// a diagnostic naming the flag, its own usage line, exit status 2.
#[test]
fn unknown_flags_are_usage_errors_everywhere() {
    for cmd in ["run", "trace", "simulate", "fuzz", "serve"] {
        let out = mpps()
            .args([cmd, "--bogus", "value"])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{cmd} accepted --bogus");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag --bogus for `mpps"),
            "{cmd}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("usage: mpps {cmd}")),
            "{cmd}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
    }
}

/// Caller mistakes exit 2 with the subcommand's usage line, whatever the
/// flag: a missing value, an unparsable number, a name outside the flag's
/// fixed set. (Runtime failures — an unreadable file — stay exit 1.)
#[test]
fn malformed_flag_values_are_usage_errors() {
    for args in [
        &["run", "rubik", "--cycles"][..],
        &["run", "rubik", "--cycles", "abc"],
        &["run", "rubik", "--strategy", "fifo"],
        &["run", "rubik", "--matcher", "leaps"],
        &[
            "run",
            "rubik",
            "--matcher",
            "threaded",
            "--partition",
            "hash",
        ],
        &["run", "rubik", "--matcher", "threaded", "--workers", "many"],
        &["run", "rubik", "--table-size", "0"],
        &["run"],
        &["trace", "no-such.ops", "--strategy", "fifo"],
        &["trace", "no-such.ops", "--table-size", "0"],
        &["simulate", "no-such.trace", "--overhead", "64"],
        &["simulate", "no-such.trace", "--format", "yaml"],
        &["simulate", "no-such.trace", "--partition", "hash"],
        &["simulate", "no-such.trace", "--procs", "1,two"],
        &["simulate", "no-such.trace", "--procs", "0"],
        &["simulate", "no-such.trace", "--procs", "1,0,4"],
        &["simulate", "no-such.trace", "--jobs"],
        &["fuzz", "--iters", "lots"],
        &["fuzz", "--max-productions", "0"],
        &["serve", "--synthetic", "--sessions", "-3"],
        &["serve", "--synthetic", "--strategy", "fifo"],
    ] {
        let out = mpps().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("usage: mpps {}", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    }
}

/// `mpps help` (and `--help`, `-h`) is not an error: the generated usage
/// goes to stdout, exit 0, and names every subcommand. `--adapt` is a
/// `run` flag only: `serve` rejects it like any flag it does not declare.
#[test]
fn help_prints_generated_usage_to_stdout() {
    for flag in ["help", "--help", "-h"] {
        let out = mpps().arg(flag).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for cmd in ["run", "trace", "simulate", "fuzz", "serve"] {
            assert!(stdout.contains(&format!("mpps {cmd}")), "{flag}: {stdout}");
        }
        assert!(stdout.contains("[--resident-budget N]"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag} wrote to stderr");
    }
    let out = mpps()
        .args(["serve", "--synthetic", "--adapt"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --adapt"), "{stderr}");
}

#[test]
fn bad_input_fails_cleanly() {
    let out = mpps().args(["run", "/nonexistent.ops"]).output().unwrap();
    assert!(!out.status.success());
    let out = mpps().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = mpps().output().unwrap();
    assert!(!out.status.success());
}
