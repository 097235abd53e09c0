#![warn(missing_docs)]

//! # mpps-telemetry — the workspace's one telemetry surface
//!
//! Built around one rule: **telemetry must cost nothing when it is
//! off**. Instrumented code is generic over one trait hierarchy —
//! [`MetricSink`] for order-free aggregates, refined by [`Recorder`]
//! for events on a timeline — and the default [`NullMetrics`] has an
//! `ENABLED = false` associated constant and empty inline methods, so
//! every recording site monomorphizes away and the disabled build is
//! instruction-identical to an uninstrumented one.
//!
//! Five recording methods, in three shapes, cover the workspace's needs:
//!
//! * **keyed counters / gauges / histograms** ([`MetricSink::add`] /
//!   [`set`](MetricSink::set) / [`observe`](MetricSink::observe)) —
//!   activations per Rete node, arena high-water marks, queue depths,
//!   per-cycle phase times, summarized as p50/p95/max by exact
//!   [`Histogram`]s and merged commutatively across workers in a
//!   [`MetricsRegistry`];
//! * **spans** ([`Recorder::span`]) — an interval of activity on a
//!   [`Track`] (one track per simulated processor in *simulated* time;
//!   one per sweep worker or match thread in *wall* time);
//! * **counter observations** ([`Recorder::counter`]) — a value sampled
//!   at a point in time on a track (message-queue depth).
//!
//! The in-memory [`TraceRecorder`] collects all five — it can be handed
//! to a simulator and to a match kernel alike — and exports as
//!
//! * a Chrome `trace_event` JSON file ([`chrome::chrome_trace`]) that
//!   loads directly in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing`, and
//! * a JSONL event stream plus a JSON summary of histogram percentiles
//!   ([`jsonl`]).
//!
//! Each format's validator lives beside its writer
//! ([`chrome::check_trace`], [`jsonl::check_events`],
//! [`jsonl::check_summary`], [`hist::check_hist`]), on [`json`], a
//! dependency-free JSON parser.

pub mod chrome;
pub mod hist;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod recorder;

pub use hist::{Histogram, HistogramSummary};
pub use metrics::{available_cpus, peak_rss_kib, MetricSink, MetricsRegistry, NullMetrics};
pub use recorder::{OffsetRecorder, Recorder, TraceRecorder, Track};
