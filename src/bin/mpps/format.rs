//! All human- and script-facing output of `mpps simulate`.
//!
//! Every line the subcommand prints is rendered here, so the text layout
//! lives in exactly one place and `--format json` can reuse the same data.
//! The text renderers reproduce the historical output byte-for-byte —
//! `tests/cli.rs` pins that.

use mpps::core::sweep::SpeedupPoint;
use mpps::mpcsim::telemetry::TraceRecorder;
use mpps::mpcsim::SimTime;
use mpps::rete::Trace;

/// How the simulate summary is rendered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OutputFormat {
    /// The historical column layout.
    Text,
    /// One JSON object on stdout.
    Json,
}

/// Everything `mpps simulate` reports about one run.
pub struct SimulateSummary<'a> {
    /// The replayed trace.
    pub trace: &'a Trace,
    /// Serial (one-processor, zero-overhead) match time.
    pub serial_total: SimTime,
    /// One row per requested processor count.
    pub points: &'a [SpeedupPoint],
}

impl SimulateSummary<'_> {
    /// Render in the requested format.
    pub fn render(&self, format: OutputFormat) -> String {
        match format {
            OutputFormat::Text => self.render_text(),
            OutputFormat::Json => self.render_json(),
        }
    }

    fn render_text(&self) -> String {
        let stats = self.trace.stats();
        let mut out = format!(
            "trace: {} cycles, {} activations ({})\n",
            self.trace.cycles.len(),
            stats.total(),
            stats
        );
        out.push_str(&format!("serial match time: {}\n", self.serial_total));
        out.push_str("P, time_us, speedup\n");
        for point in self.points {
            out.push_str(&format!(
                "{}, {:.1}, {:.2}\n",
                point.processors, point.total_us, point.speedup
            ));
        }
        out
    }

    fn render_json(&self) -> String {
        let stats = self.trace.stats();
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"processors\": {}, \"time_us\": {:.1}, \"speedup\": {:.2}}}",
                    p.processors, p.total_us, p.speedup
                )
            })
            .collect();
        format!(
            "{{\"trace\": {{\"cycles\": {}, \"activations\": {}}}, \
             \"serial_match_us\": {:.1}, \"points\": [{}]}}\n",
            self.trace.cycles.len(),
            stats.total(),
            self.serial_total.as_us(),
            points.join(", ")
        )
    }
}

/// Render `--stats`: one line per recorded histogram metric, in
/// first-seen order.
pub fn stats_block(rec: &TraceRecorder) -> String {
    let mut out = String::from("telemetry histograms (per-metric percentiles):\n");
    for (metric, hist) in rec.histograms() {
        let s = hist.summary();
        out.push_str(&format!(
            "  {metric}: n={} min={} p50={} p95={} max={} mean={:.1}\n",
            s.count, s.min, s.p50, s.p95, s.max, s.mean
        ));
    }
    out
}
