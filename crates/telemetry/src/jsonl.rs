//! JSONL event stream and histogram-summary export.
//!
//! [`events_jsonl`] writes one JSON object per line — every span and
//! counter verbatim, in recording order — for ad-hoc analysis with
//! line-oriented tools. [`summary_json`] writes a single JSON object
//! mapping each sampled metric to its [`HistogramSummary`]
//! (p50/p95/max and friends). [`check_events`] and [`check_summary`]
//! are the two formats' validators.
//!
//! [`HistogramSummary`]: crate::hist::HistogramSummary

use crate::hist::check_hist;
use crate::json::{escape, parse, require_str, require_u64, Value};
use crate::recorder::TraceRecorder;

/// Render every span and counter as one JSON object per line.
pub fn events_jsonl(rec: &TraceRecorder) -> String {
    let mut out = String::new();
    for s in rec.spans() {
        let name = escape(s.name);
        out.push_str(&format!(
            "{{\"type\": \"span\", \"pid\": {}, \"tid\": {}, \"name\": \"{name}\", \
             \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.track.pid, s.track.tid, s.start_ns, s.end_ns
        ));
    }
    for c in rec.counters() {
        let name = escape(c.name);
        out.push_str(&format!(
            "{{\"type\": \"counter\", \"pid\": {}, \"tid\": {}, \"name\": \"{name}\", \
             \"t_ns\": {}, \"value\": {}}}\n",
            c.track.pid, c.track.tid, c.t_ns, c.value
        ));
    }
    out
}

/// Render the recorder's histograms as one JSON object:
/// `{"metrics": {"<name>": {count, min, max, mean, p50, p95}, ...}}`.
pub fn summary_json(rec: &TraceRecorder) -> String {
    let mut out = String::from("{\"metrics\": {");
    for (i, (metric, hist)) in rec.histograms().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let summary = hist.summary().to_json();
        out.push_str(&format!("\"{}\": {summary}", escape(metric)));
    }
    out.push_str("}}\n");
    out
}

/// Validate an [`events_jsonl`] stream: one object per line, each a
/// span or counter with the full field set. Returns the number of span
/// lines.
pub fn check_events(text: &str) -> Result<u64, String> {
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

/// Validate a [`summary_json`] document: a `"metrics"` object mapping
/// metric names to complete, internally consistent histogram summaries.
pub fn check_summary(text: &str) -> Result<(), String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::MetricSink;
    use crate::recorder::{Recorder, Track};

    /// A name every writer must escape to survive `json::parse`.
    const ODD: &str = "acts \"per\" \\ bucket";

    #[test]
    fn every_jsonl_line_parses() {
        let mut rec = TraceRecorder::new();
        rec.span(Track::sim_proc(1), ODD, 0, 32_000);
        rec.counter(Track::sim_proc(1), ODD, 10, 2);
        let text = events_jsonl(&rec);
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = json::parse(line).expect("line parses");
            assert!(v.get("type").is_some());
            assert_eq!(v.get("name").and_then(|n| n.as_str()), Some(ODD));
        }
    }

    #[test]
    fn summary_reports_percentiles() {
        let mut rec = TraceRecorder::new();
        for v in [1, 2, 3, 4, 100] {
            rec.observe(ODD, v);
        }
        let text = summary_json(&rec);
        let doc = json::parse(&text).unwrap();
        let m = doc
            .get("metrics")
            .and_then(|m| m.get(ODD))
            .expect("metric present");
        assert_eq!(m.get("count").and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(m.get("p95").and_then(|v| v.as_f64()), Some(100.0));
        assert_eq!(m.get("p50").and_then(|v| v.as_f64()), Some(3.0));
    }

    #[test]
    fn empty_recorder_summary_is_valid() {
        let rec = TraceRecorder::new();
        let doc = json::parse(&summary_json(&rec)).unwrap();
        assert!(doc.get("metrics").is_some());
    }
}
