//! Telemetry export for `repro --telemetry-out DIR`, and the schema check
//! behind `repro --check-telemetry DIR`.
//!
//! A telemetry directory holds three files produced from one traced sweep:
//!
//! * `trace.json` — Chrome `trace_event` JSON (open at
//!   <https://ui.perfetto.dev>), one wall-time lane per sweep worker.
//! * `events.jsonl` — the same spans and counters, one JSON object per
//!   line, for ad-hoc scripting.
//! * `summary.json` — per-metric histogram percentiles.
//!
//! [`check_dir`] validates the directory structurally — required keys,
//! types, and cross-file consistency — using only the workspace's own
//! JSON parser, so CI can assert schema validity without a `jsonschema`
//! dependency.

use std::path::Path;

use mpps_telemetry::json::{parse, Value};
use mpps_telemetry::{chrome::chrome_trace, jsonl, TraceRecorder};

/// File names written into a telemetry directory.
pub const FILES: [&str; 3] = ["trace.json", "events.jsonl", "summary.json"];

/// Write the three telemetry files for `rec` into `dir` (created if
/// missing). Returns the paths written.
pub fn write_dir(dir: &Path, rec: &TraceRecorder) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let contents = [
        chrome_trace(rec),
        jsonl::events_jsonl(rec),
        jsonl::summary_json(rec),
    ];
    let mut written = Vec::with_capacity(FILES.len());
    for (name, text) in FILES.iter().zip(contents) {
        let path = dir.join(name);
        std::fs::write(&path, text)?;
        written.push(path);
    }
    Ok(written)
}

fn read(dir: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: cannot read: {e}"))
}

fn require_u64(obj: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{ctx}: missing or non-integer {key:?}"))
}

fn require_f64(obj: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{ctx}: missing or non-numeric {key:?}"))
}

fn require_str<'v>(obj: &'v Value, key: &str, ctx: &str) -> Result<&'v str, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{ctx}: missing or non-string {key:?}"))
}

/// Validate `trace.json`: a Chrome `trace_event` document whose events
/// all carry a phase and pid, with well-formed metadata, complete-span
/// and counter records. Returns the number of `"X"` spans.
fn check_trace(text: &str) -> Result<u64, String> {
    let doc = parse(text).map_err(|e| format!("trace.json: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace.json: missing \"traceEvents\" array")?;
    let mut spans = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let ctx = format!("trace.json: event {i}");
        let ph = require_str(ev, "ph", &ctx)?;
        require_u64(ev, "pid", &ctx)?;
        match ph {
            "M" => {
                let name = require_str(ev, "name", &ctx)?;
                let args = ev
                    .get("args")
                    .ok_or_else(|| format!("{ctx}: metadata without \"args\""))?;
                match name {
                    "process_name" | "thread_name" => {
                        require_str(args, "name", &ctx)?;
                    }
                    "thread_sort_index" => {
                        require_f64(args, "sort_index", &ctx)?;
                    }
                    other => return Err(format!("{ctx}: unknown metadata {other:?}")),
                }
            }
            "X" => {
                require_str(ev, "name", &ctx)?;
                require_u64(ev, "tid", &ctx)?;
                require_f64(ev, "ts", &ctx)?;
                require_f64(ev, "dur", &ctx)?;
                spans += 1;
            }
            "C" => {
                require_str(ev, "name", &ctx)?;
                require_f64(ev, "ts", &ctx)?;
                ev.get("args")
                    .and_then(Value::as_object)
                    .filter(|args| args.values().all(|v| v.as_f64().is_some()))
                    .ok_or_else(|| format!("{ctx}: counter args must be numeric"))?;
            }
            other => return Err(format!("{ctx}: unknown phase {other:?}")),
        }
    }
    Ok(spans)
}

/// Validate `events.jsonl`: one object per line, each a span or counter
/// with the full field set. Returns the number of span lines.
fn check_events(text: &str) -> Result<u64, String> {
    let mut spans = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let ctx = format!("events.jsonl: line {}", lineno + 1);
        let ev = parse(line).map_err(|e| format!("{ctx}: {e}"))?;
        require_u64(&ev, "pid", &ctx)?;
        require_u64(&ev, "tid", &ctx)?;
        require_str(&ev, "name", &ctx)?;
        match require_str(&ev, "type", &ctx)? {
            "span" => {
                let start = require_u64(&ev, "start_ns", &ctx)?;
                let end = require_u64(&ev, "end_ns", &ctx)?;
                if start > end {
                    return Err(format!("{ctx}: span ends before it starts"));
                }
                spans += 1;
            }
            "counter" => {
                require_u64(&ev, "t_ns", &ctx)?;
                require_u64(&ev, "value", &ctx)?;
            }
            other => return Err(format!("{ctx}: unknown event type {other:?}")),
        }
    }
    Ok(spans)
}

/// Validate `summary.json`: a `"metrics"` object mapping metric names to
/// complete histogram summaries with internally consistent percentiles.
fn check_summary(text: &str) -> Result<(), String> {
    let doc = parse(text).map_err(|e| format!("summary.json: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("summary.json: missing \"metrics\" object")?;
    for (name, stats) in metrics {
        check_hist(stats, &format!("summary.json: metric {name:?}"))?;
    }
    Ok(())
}

/// Validate a telemetry directory written by [`write_dir`]. Checks each
/// file's structure and that the two event files agree on the span count.
/// Returns a one-line description of what was validated.
pub fn check_dir(dir: &Path) -> Result<String, String> {
    let trace_spans = check_trace(&read(dir, "trace.json")?)?;
    let event_spans = check_events(&read(dir, "events.jsonl")?)?;
    check_summary(&read(dir, "summary.json")?)?;
    if trace_spans != event_spans {
        return Err(format!(
            "span count mismatch: trace.json has {trace_spans}, events.jsonl has {event_spans}"
        ));
    }
    Ok(format!(
        "telemetry ok: {} files, {trace_spans} spans",
        FILES.len()
    ))
}

/// A histogram summary (`summary.json` metric or profile phase): a
/// complete summary object with consistent percentiles.
fn check_hist(v: &Value, ctx: &str) -> Result<(), String> {
    let count = require_u64(v, "count", ctx)?;
    let min = require_u64(v, "min", ctx)?;
    let max = require_u64(v, "max", ctx)?;
    let p50 = require_u64(v, "p50", ctx)?;
    let p95 = require_u64(v, "p95", ctx)?;
    require_f64(v, "mean", ctx)?;
    if count > 0 && !(min <= p50 && p50 <= p95 && p95 <= max) {
        return Err(format!(
            "{ctx}: percentiles out of order (min {min}, p50 {p50}, p95 {p95}, max {max})"
        ));
    }
    Ok(())
}

fn check_u64_fields(v: &Value, fields: &[&str], ctx: &str) -> Result<(), String> {
    for f in fields {
        require_u64(v, f, ctx)?;
    }
    Ok(())
}

/// Validate a `match_profile.json` document written by
/// `mpps_core::render_match_profile` (`mpps run --profile`). Checks the
/// schema tag, machine info, totals, hot-node/hot-rule ordering, the
/// bucket-skew invariants (`max ≥ mean`, `factor = max/mean`), arena
/// occupancy, phase histograms, and per-worker lanes. Returns a one-line
/// description of what was validated.
pub fn check_profile(path: &Path) -> Result<String, String> {
    let name = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{name}: cannot read: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{name}: {e}"))?;
    let ctx = format!("{name}");

    let schema = require_str(&doc, "schema", &ctx)?;
    if schema != "mpps.match_profile.v1" {
        return Err(format!("{ctx}: unknown schema {schema:?}"));
    }
    let matcher = require_str(&doc, "matcher", &ctx)?;
    if matcher.is_empty() {
        return Err(format!("{ctx}: empty matcher name"));
    }

    let machine = doc
        .get("machine")
        .ok_or_else(|| format!("{ctx}: missing \"machine\""))?;
    if require_u64(machine, "cpus", &ctx)? == 0 {
        return Err(format!("{ctx}: machine.cpus must be at least 1"));
    }
    if require_u64(machine, "workers", &ctx)? == 0 {
        return Err(format!("{ctx}: machine.workers must be at least 1"));
    }

    let totals = doc
        .get("totals")
        .ok_or_else(|| format!("{ctx}: missing \"totals\""))?;
    check_u64_fields(
        totals,
        &[
            "activations",
            "left_probes",
            "right_probes",
            "prefilter_hits",
            "match_ns",
        ],
        &format!("{ctx}: totals"),
    )?;
    let total_acts = require_u64(totals, "activations", &ctx)?;

    let hot_nodes = doc
        .get("hot_nodes")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"hot_nodes\" array"))?;
    let mut prev = u64::MAX;
    for (i, entry) in hot_nodes.iter().enumerate() {
        let ectx = format!("{ctx}: hot_nodes[{i}]");
        check_u64_fields(
            entry,
            &[
                "node",
                "activations",
                "left_probes",
                "right_probes",
                "prefilter_hits",
                "match_ns",
            ],
            &ectx,
        )?;
        let acts = require_u64(entry, "activations", &ectx)?;
        if acts > prev {
            return Err(format!("{ectx}: not sorted by activations"));
        }
        if acts > total_acts {
            return Err(format!("{ectx}: node exceeds total activations"));
        }
        prev = acts;
    }
    let hot_rules = doc
        .get("hot_rules")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"hot_rules\" array"))?;
    for (i, entry) in hot_rules.iter().enumerate() {
        check_u64_fields(
            entry,
            &[
                "rule",
                "activations",
                "retractions",
                "alpha_inserts",
                "seed_joins",
                "match_ns",
            ],
            &format!("{ctx}: hot_rules[{i}]"),
        )?;
    }

    let skew = doc
        .get("bucket_skew")
        .ok_or_else(|| format!("{ctx}: missing \"bucket_skew\""))?;
    if !matches!(skew, Value::Null) {
        let sctx = format!("{ctx}: bucket_skew");
        let hit = require_u64(skew, "buckets_hit", &sctx)?;
        let max = require_u64(skew, "max_activations", &sctx)?;
        let mean = require_f64(skew, "mean_activations", &sctx)?;
        let factor = require_f64(skew, "skew_factor", &sctx)?;
        if hit == 0 {
            return Err(format!("{sctx}: present but no buckets hit"));
        }
        if (max as f64) < mean {
            return Err(format!("{sctx}: max {max} below mean {mean}"));
        }
        if mean > 0.0 && (factor - max as f64 / mean).abs() > 0.01 {
            return Err(format!(
                "{sctx}: skew_factor {factor} is not max/mean ({max}/{mean})"
            ));
        }
    }

    let arena = doc
        .get("arena")
        .ok_or_else(|| format!("{ctx}: missing \"arena\""))?;
    check_u64_fields(
        arena,
        &["allocs", "frees", "live", "high_water", "free_high_water"],
        &format!("{ctx}: arena"),
    )?;

    let phases = doc
        .get("phases")
        .ok_or_else(|| format!("{ctx}: missing \"phases\""))?;
    let cycles = require_u64(phases, "cycles", &format!("{ctx}: phases"))?;
    for series in ["wall_ns", "work_ns", "wait_ns", "drain_activations"] {
        let v = phases
            .get(series)
            .ok_or_else(|| format!("{ctx}: phases missing {series:?}"))?;
        // `null`: the matcher never recorded the series.
        if !matches!(v, Value::Null) {
            check_hist(v, &format!("{ctx}: phases.{series}"))?;
        }
    }

    let workers = doc
        .get("workers")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{ctx}: missing \"workers\" array"))?;
    for (i, lane) in workers.iter().enumerate() {
        check_u64_fields(
            lane,
            &["worker", "work_ns", "wait_ns", "forwarded_in"],
            &format!("{ctx}: workers[{i}]"),
        )?;
    }

    Ok(format!(
        "profile ok: matcher {matcher:?}, {total_acts} activations, {cycles} cycles, \
         {} hot nodes, {} worker lanes",
        hot_nodes.len(),
        workers.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_telemetry::{Recorder, Track};

    fn sample_recorder() -> TraceRecorder {
        let mut rec = TraceRecorder::new();
        rec.name_process(2, "sweep workers");
        rec.name_track(Track::worker(0), "worker 0");
        rec.span(Track::worker(0), "point", 100, 250);
        rec.counter(Track::worker(0), "queue-depth", 150, 3);
        rec.sample("task-wall-ns", 150);
        rec
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mpps-bench-tel-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn written_dir_passes_the_check() {
        let dir = tmp_dir("ok");
        let written = write_dir(&dir, &sample_recorder()).unwrap();
        assert_eq!(written.len(), FILES.len());
        let report = check_dir(&dir).unwrap();
        assert!(report.contains("1 spans"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_fails() {
        let dir = tmp_dir("missing");
        write_dir(&dir, &sample_recorder()).unwrap();
        std::fs::remove_file(dir.join("summary.json")).unwrap();
        let err = check_dir(&dir).unwrap_err();
        assert!(err.contains("summary.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_trace_fails() {
        let dir = tmp_dir("corrupt");
        write_dir(&dir, &sample_recorder()).unwrap();
        std::fs::write(
            dir.join("trace.json"),
            "{\"traceEvents\": [{\"ph\": \"X\"}]}",
        )
        .unwrap();
        let err = check_dir(&dir).unwrap_err();
        assert!(err.contains("event 0"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn span_count_mismatch_fails() {
        let dir = tmp_dir("mismatch");
        write_dir(&dir, &sample_recorder()).unwrap();
        std::fs::write(dir.join("events.jsonl"), "").unwrap();
        let err = check_dir(&dir).unwrap_err();
        assert!(err.contains("span count mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_recorder_round_trips() {
        let dir = tmp_dir("empty");
        write_dir(&dir, &TraceRecorder::new()).unwrap();
        check_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end: a real profiled threaded run renders a profile that
    /// passes the schema check.
    #[test]
    fn threaded_profile_passes_the_check() {
        use mpps_ops::{parse_program, Matcher, Wme, WmeChange, WmeId};

        let prog = parse_program("(p j (a ^v <x>) (b ^v <x>) --> (remove 1))").unwrap();
        let mut m = mpps_core::ThreadedMatcher::from_program_profiled(&prog, 2).unwrap();
        let mut changes = Vec::new();
        for v in 0..16i64 {
            changes.push(WmeChange::add(
                WmeId(v as u64 * 2 + 1),
                Wme::new("a", &[("v", v.into())]),
            ));
            changes.push(WmeChange::add(
                WmeId(v as u64 * 2 + 2),
                Wme::new("b", &[("v", v.into())]),
            ));
        }
        m.process(&changes);
        let reg = m.profile_snapshot().unwrap();
        let text = mpps_core::render_match_profile("threaded", m.worker_count(), &reg);

        let dir = tmp_dir("profile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("match_profile.json");
        std::fs::write(&path, &text).unwrap();
        let report = check_profile(&path).unwrap();
        assert!(report.contains("matcher \"threaded\""), "{report}");
        assert!(report.contains("2 worker lanes"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An empty (unprofiled) registry still renders a schema-valid
    /// profile — null skew, empty hot lists.
    #[test]
    fn empty_profile_passes_the_check() {
        let text =
            mpps_core::render_match_profile("rete", 1, &mpps_telemetry::MetricsRegistry::new());
        let dir = tmp_dir("profile-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("match_profile.json");
        std::fs::write(&path, &text).unwrap();
        check_profile(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_profile_fails_the_check() {
        let dir = tmp_dir("profile-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("match_profile.json");

        std::fs::write(&path, "{\"schema\": \"something-else\"}").unwrap();
        let err = check_profile(&path).unwrap_err();
        assert!(err.contains("schema"), "{err}");

        // Valid schema tag but inconsistent skew factor.
        let text =
            mpps_core::render_match_profile("threaded", 2, &mpps_telemetry::MetricsRegistry::new())
                .replace(
                    "\"bucket_skew\": null",
                    "\"bucket_skew\": {\"buckets_hit\": 2, \"max_activations\": 4, \
             \"mean_activations\": 2.0, \"skew_factor\": 9.0}",
                );
        std::fs::write(&path, text).unwrap();
        let err = check_profile(&path).unwrap_err();
        assert!(err.contains("skew_factor"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
