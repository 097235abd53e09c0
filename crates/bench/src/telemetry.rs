//! Telemetry export for `repro --telemetry-out DIR`, and the directory
//! check behind `repro --check-telemetry DIR`.
//!
//! A telemetry directory holds three files produced from one traced sweep:
//!
//! * `trace.json` — Chrome `trace_event` JSON (open at
//!   <https://ui.perfetto.dev>), one wall-time lane per sweep worker.
//! * `events.jsonl` — the same spans and counters, one JSON object per
//!   line, for ad-hoc scripting.
//! * `summary.json` — per-metric histogram percentiles.
//!
//! A directory written by `mpps run --profile DIR` holds a
//! `match_profile.json` instead, with a `trace.json` beside it when the
//! matcher was the threaded one. [`check_dir`] validates either kind with
//! each format's own checker (each lives beside its writer) plus the
//! cross-file consistency only a directory has.

use std::path::Path;

use mpps_telemetry::chrome::{check_trace, chrome_trace};
use mpps_telemetry::jsonl::{check_events, check_summary, events_jsonl, summary_json};
use mpps_telemetry::TraceRecorder;

/// File names written into a telemetry directory.
pub const FILES: [&str; 3] = ["trace.json", "events.jsonl", "summary.json"];

/// What `mpps run --profile DIR` writes instead (beside a `trace.json`).
const PROFILE: &str = "match_profile.json";

/// Write the three telemetry files for `rec` into `dir` (created if
/// missing). Returns the paths written.
pub fn write_dir(dir: &Path, rec: &TraceRecorder) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let contents = [chrome_trace(rec), events_jsonl(rec), summary_json(rec)];
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

/// Validate a telemetry directory. One that holds a `match_profile.json`
/// is a profile directory: the profile must pass, and so must the
/// `trace.json` beside it if there is one. Any other must hold all of
/// [`FILES`], each well-formed, with the two event files agreeing on the
/// span count. Returns a one-line description of what was validated.
pub fn check_dir(dir: &Path) -> Result<String, String> {
    if dir.join(PROFILE).exists() {
        let mut report = mpps_core::check_profile(&read(dir, PROFILE)?)?;
        if dir.join(FILES[0]).exists() {
            let spans = check_trace(&read(dir, FILES[0])?)?;
            report.push_str(&format!("; trace ok: {spans} spans"));
        }
        return Ok(report);
    }
    let trace_spans = check_trace(&read(dir, FILES[0])?)?;
    let event_spans = check_events(&read(dir, FILES[1])?)?;
    check_summary(&read(dir, FILES[2])?)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_telemetry::{MetricSink, Recorder, Track};

    fn sample_recorder() -> TraceRecorder {
        let mut rec = TraceRecorder::new();
        rec.name_process(2, "sweep workers");
        rec.name_track(Track::worker(0), "worker 0");
        rec.span(Track::worker(0), "point", 100, 250);
        rec.counter(Track::worker(0), "queue-depth", 150, 3);
        rec.observe("task-wall-ns", 150);
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

    /// A `mpps run --profile` directory: the profile is checked, and the
    /// trace beside it when present; a bad profile fails the directory.
    #[test]
    fn profile_dir_checks_the_profile_and_any_trace() {
        let dir = tmp_dir("profile");
        std::fs::create_dir_all(&dir).unwrap();
        let reg = mpps_telemetry::MetricsRegistry::new();
        let profile = mpps_core::render_match_profile("rete", 1, &reg);
        std::fs::write(dir.join(PROFILE), &profile).unwrap();
        let report = check_dir(&dir).unwrap();
        assert!(report.starts_with("profile ok"), "{report}");
        assert!(!report.contains("trace ok"), "{report}");

        std::fs::write(dir.join("trace.json"), chrome_trace(&sample_recorder())).unwrap();
        let report = check_dir(&dir).unwrap();
        assert!(report.ends_with("trace ok: 1 spans"), "{report}");

        std::fs::write(dir.join(PROFILE), "{}").unwrap();
        let err = check_dir(&dir).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
