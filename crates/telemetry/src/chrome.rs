//! Chrome `trace_event` export.
//!
//! Emits the JSON object format (`{"traceEvents": [...]}`) understood
//! by [Perfetto](https://ui.perfetto.dev) and `chrome://tracing`:
//! `"M"` metadata events name the processes and threads, `"X"`
//! complete events carry the spans, and `"C"` counter events carry the
//! counters. Timestamps in the format are *microseconds*; recorded
//! nanoseconds are written as fractional µs with three decimals so no
//! precision is lost. [`check_trace`] is the format's validator.

use crate::json::{escape, parse, require_f64, require_str, require_u64, Value};
use crate::recorder::TraceRecorder;

/// Nanoseconds rendered as fractional trace-format microseconds.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render the recorder's events as a Chrome `trace_event` JSON
/// document. The output is deterministic: metadata first (processes,
/// then tracks, in naming order), then spans and counters in recording
/// order.
pub fn chrome_trace(rec: &TraceRecorder) -> String {
    let mut events: Vec<String> = Vec::new();

    for (pid, name) in rec.process_names() {
        events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(name)
        ));
    }
    for (track, name) in rec.track_names() {
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": {}, \
             \"args\": {{\"name\": \"{}\"}}}}",
            track.pid,
            track.tid,
            escape(name)
        ));
        // Keep lanes in tid order rather than first-event order.
        events.push(format!(
            "{{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": {}, \"tid\": {}, \
             \"args\": {{\"sort_index\": {}}}}}",
            track.pid, track.tid, track.tid
        ));
    }
    for s in rec.spans() {
        events.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": {}, \"tid\": {}, \
             \"ts\": {}, \"dur\": {}}}",
            escape(s.name),
            s.track.pid,
            s.track.tid,
            us(s.start_ns),
            us(s.end_ns.saturating_sub(s.start_ns))
        ));
    }
    for c in rec.counters() {
        events.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"C\", \"pid\": {}, \"tid\": {}, \
             \"ts\": {}, \"args\": {{\"value\": {}}}}}",
            escape(c.name),
            c.track.pid,
            c.track.tid,
            us(c.t_ns),
            c.value
        ));
    }

    let mut out = String::new();
    out.push_str("{\"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str("  ");
        out.push_str(e);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Validate a [`chrome_trace`] document: every event carries a phase
/// and pid, with well-formed metadata, complete-span and counter
/// records. Returns the number of `"X"` spans.
pub fn check_trace(text: &str) -> Result<u64, String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::{Recorder, Track};

    #[test]
    fn trace_is_valid_json_with_expected_events() {
        let mut rec = TraceRecorder::new();
        rec.name_process(crate::recorder::SIM_PID, "simulated machine");
        rec.name_track(Track::sim_proc(0), "proc 0");
        rec.span(Track::sim_proc(0), "constant-tests", 1_500, 31_500);
        rec.counter(Track::sim_proc(0), "queue-depth", 2_000, 4);

        let text = chrome_trace(&rec);
        let doc = json::parse(&text).expect("trace parses as JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // 1 process_name + 1 thread_name + 1 thread_sort_index + 1 span + 1 counter
        assert_eq!(events.len(), 5);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .expect("one X event");
        assert_eq!(span.get("ts").and_then(|t| t.as_f64()), Some(1.5));
        assert_eq!(span.get("dur").and_then(|t| t.as_f64()), Some(30.0));
    }

    #[test]
    fn names_are_escaped() {
        let mut rec = TraceRecorder::new();
        rec.name_track(Track::worker(0), "odd \"name\"\n");
        rec.span(Track::worker(0), "a \"b\" \\ c", 0, 1);
        let text = chrome_trace(&rec);
        assert!(text.contains("odd \\\"name\\\"\\n"));
        let doc = json::parse(&text).expect("trace parses as JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
        let span = events.last().and_then(|e| e.get("name"));
        assert_eq!(span.and_then(|n| n.as_str()), Some("a \"b\" \\ c"));
    }
}
