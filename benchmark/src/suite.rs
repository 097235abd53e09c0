//! The whole benchmark from one command: every workload in its own child
//! process (so `peak_rss_mb` is that workload's alone), first timed, then
//! traced, every output check run, every metric printed.

use crate::matching::thr_workers;
use crate::metrics::{parse_metrics, END_TO_END};
use crate::WORKLOADS;
use mpps_telemetry::json::{self, Value};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

/// Measuring seconds of a child: (timed, traced).
const SECONDS: (f64, f64) = (10.0, 5.0);
const QUICK_SECONDS: (f64, f64) = (0.4, 0.4);

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Run one child; returns its `detail` object, as printed and parsed, or
/// why there is none.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out_dir: &Path,
) -> Result<(String, Value), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(text) => detail = Some((text.to_string(), json::parse(text)?)),
            // The child's table; its last line (the contract's) is for the driver.
            None if !line.starts_with('{') => println!("{line}"),
            None => {}
        }
    }
    detail.ok_or_else(|| "printed no detail line".into())
}

pub fn run(seed: u64, quick: bool, out_dir: &Path, out: Option<&Path>) -> ExitCode {
    let nproc = mpps_telemetry::available_cpus();
    let commit = commit();
    println!(
        "mpps-benchmark: commit {commit}, nproc {nproc}, thr_workers {}, seed {seed}{}",
        thr_workers(),
        if quick {
            ", --quick (smoke sizes, no bounds)"
        } else {
            ""
        }
    );
    let (timed_s, traced_s) = if quick { QUICK_SECONDS } else { SECONDS };
    let mut failures: Vec<String> = Vec::new();
    let mut body = String::new();
    let mut digests: Vec<(&str, String)> = Vec::new();
    let mut threads_row: Vec<String> = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        println!(
            "\n== {}: {} ({} per second; one op = {})",
            w.name, w.why, w.work, w.op
        );
        let sep = if i == 0 { "" } else { ",\n" };
        let _ = write!(body, "{sep}    \"{}\": {{", w.name);
        for (j, (label, trace, seconds)) in [("timed", false, timed_s), ("traced", true, traced_s)]
            .into_iter()
            .enumerate()
        {
            match child(w.name, seed, seconds, trace, quick, out_dir) {
                Ok((text, detail)) => {
                    let failed = detail.get("failed").and_then(Value::as_u64).unwrap_or(1);
                    let attempted = detail.get("attempted").and_then(Value::as_u64).unwrap_or(0);
                    println!("  {label}: failed_share {failed}/{attempted}");
                    if failed > 0 {
                        failures.push(format!(
                            "{} ({label}): {failed} of {attempted} operations failed their checks",
                            w.name
                        ));
                    }
                    if !trace {
                        let digest = detail
                            .get("digest")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string();
                        digests.push((w.name, digest));
                    } else {
                        let metrics = parse_metrics(&detail);
                        let get = |name: &str| metrics.iter().find(|m| m.0 == name).map(|m| m.1);
                        if let (Some(p), Some(m)) = (
                            get("core.simexec.predicted_speedup"),
                            get("core.threaded.speedup_vs_seq"),
                        ) {
                            threads_row.push(format!(
                                "  {:<14} simulator predicts {p:.2}x at {} workers, threads measure {m:.2}x",
                                w.name,
                                thr_workers()
                            ));
                        }
                    }
                    let sep = if j == 0 { "" } else { ", " };
                    let _ = write!(body, "{sep}\"{label}\": {text}");
                }
                Err(e) => failures.push(format!("{} ({label}): {e}", w.name)),
            }
        }
        body.push('}');
    }

    // Same seed, same access sequence: the two serve workloads must leave
    // byte-equal snapshots behind.
    let digest_of = |name: &str| digests.iter().find(|d| d.0 == name).map(|d| d.1.clone());
    if digest_of("serve-hot") != digest_of("serve-spill") {
        failures.push("serve-hot and serve-spill snapshots differ for the same seed".into());
    }

    println!("\n== simulator vs the threads it models (core.simexec.predicted_speedup | core.threaded.speedup_vs_seq)");
    for row in &threads_row {
        println!("{row}");
    }

    let doc = format!(
        "{{\n  \"schema\": \"mpps-benchmark/1\",\n  \"commit\": \"{commit}\",\n  \"nproc\": {nproc},\n  \"thr_workers\": {},\n  \"seed\": {seed},\n  \"quick\": {quick},\n  \"workloads\": {{\n{body}\n  }}\n}}\n",
        thr_workers()
    );
    let default_out = out_dir.join("results.json");
    let path = out.unwrap_or(&default_out);
    match std::fs::write(path, &doc) {
        Ok(()) => println!("\nresults written to {}", path.display()),
        Err(e) => failures.push(format!("writing {}: {e}", path.display())),
    }
    if failures.is_empty() {
        println!("all output checks passed");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            println!("FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}

/// One row per end-to-end metric × workload of a results file:
/// `(workload, metric, headline, rounds)`.
pub fn end_to_end_rows(doc: &Value) -> Vec<(String, &'static str, f64, Vec<f64>)> {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let Some(timed) = doc
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .and_then(|x| x.get("timed"))
        else {
            continue;
        };
        let metrics = parse_metrics(timed);
        for def in END_TO_END {
            if let Some((_, value, _, rounds)) = metrics.iter().find(|m| m.0 == def.name) {
                rows.push((w.name.to_string(), def.name, *value, rounds.clone()));
            }
        }
    }
    rows
}
