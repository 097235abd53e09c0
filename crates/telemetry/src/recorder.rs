//! The [`Recorder`] trait — [`MetricSink`] plus a timeline — and its
//! implementations.
//!
//! Code that records *when* something happened is generic over
//! `R: Recorder`; because `Recorder` refines [`MetricSink`], the same
//! value also takes the order-free aggregates (`add` / `set` /
//! `observe`), `ENABLED` is declared once, and [`NullMetrics`] is the
//! disabled sink for both. [`TraceRecorder`] keeps everything in memory
//! for export; [`OffsetRecorder`] shifts span/counter timestamps so
//! per-cycle simulations (which each restart at t = 0) land on one
//! continuous per-run timeline.

use crate::hist::Histogram;
use crate::metrics::{MetricSink, MetricsRegistry, NullMetrics};

/// A (process, thread) pair identifying one horizontal lane in the
/// exported trace. `pid` groups related tracks (all simulated
/// processors; all sweep workers); `tid` is the lane within the group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track {
    /// Trace process id (a track group).
    pub pid: u32,
    /// Trace thread id (a lane within the group).
    pub tid: u32,
}

/// Track group for simulated processors (timestamps in simulated time).
pub const SIM_PID: u32 = 1;
/// Track group for sweep workers (timestamps in wall time).
pub const SWEEP_PID: u32 = 2;
/// Track group for the real threaded matcher's worker threads (wall time).
pub const THREADED_PID: u32 = 3;

impl Track {
    /// The lane for simulated processor `index` (simulated time).
    pub fn sim_proc(index: usize) -> Self {
        Self {
            pid: SIM_PID,
            tid: index as u32,
        }
    }

    /// The lane for sweep worker `index` (wall time).
    pub fn worker(index: usize) -> Self {
        Self {
            pid: SWEEP_PID,
            tid: index as u32,
        }
    }

    /// The lane for threaded-matcher worker `index` (wall time) — the real
    /// executor's counterpart of [`Track::sim_proc`].
    pub fn match_worker(index: usize) -> Self {
        Self {
            pid: THREADED_PID,
            tid: index as u32,
        }
    }

    /// The run-level lane marking MRA cycle boundaries (simulated time).
    /// `tid` is `u32::MAX` so it sorts after every processor lane.
    pub fn sim_cycles() -> Self {
        Self {
            pid: SIM_PID,
            tid: u32::MAX,
        }
    }
}

/// A [`MetricSink`] that also records events on a timeline. All
/// timestamps are `u64` nanoseconds on whatever clock the track uses
/// (simulated time for processor tracks, wall time for worker tracks).
///
/// Implementations must be cheap to call: recording sites sit inside
/// the simulator's inner loop and are guarded only by monomorphization
/// (`R::ENABLED`), never by a runtime flag.
pub trait Recorder: MetricSink {
    /// Record a completed interval `[start_ns, end_ns)` on `track`.
    fn span(&mut self, track: Track, name: &'static str, start_ns: u64, end_ns: u64);

    /// Record an instantaneous counter value at `t_ns` on `track`.
    fn counter(&mut self, track: Track, name: &'static str, t_ns: u64, value: u64);
}

impl Recorder for NullMetrics {
    #[inline(always)]
    fn span(&mut self, _: Track, _: &'static str, _: u64, _: u64) {}

    #[inline(always)]
    fn counter(&mut self, _: Track, _: &'static str, _: u64, _: u64) {}
}

/// Forward through mutable references so a borrowed [`TraceRecorder`]
/// can be handed by value to a consumer that takes `R: Recorder`.
impl<R: Recorder> Recorder for &mut R {
    #[inline(always)]
    fn span(&mut self, track: Track, name: &'static str, start_ns: u64, end_ns: u64) {
        (**self).span(track, name, start_ns, end_ns);
    }

    #[inline(always)]
    fn counter(&mut self, track: Track, name: &'static str, t_ns: u64, value: u64) {
        (**self).counter(track, name, t_ns, value);
    }
}

/// Shifts span and counter timestamps by a fixed offset before
/// forwarding; aggregates pass through untouched. Each MRA cycle runs a
/// fresh discrete-event simulation starting at t = 0; wrapping the
/// run's recorder in an `OffsetRecorder` carrying the accumulated
/// simulated time keeps the per-processor tracks continuous across
/// cycles.
#[derive(Debug)]
pub struct OffsetRecorder<R> {
    inner: R,
    offset_ns: u64,
}

impl<R: Recorder> OffsetRecorder<R> {
    /// Wrap `inner`, adding `offset_ns` to every timestamp.
    pub fn new(inner: R, offset_ns: u64) -> Self {
        Self { inner, offset_ns }
    }
}

impl<R: MetricSink> MetricSink for OffsetRecorder<R> {
    const ENABLED: bool = R::ENABLED;

    #[inline]
    fn add(&mut self, metric: &'static str, key: u64, delta: u64) {
        self.inner.add(metric, key, delta);
    }

    #[inline]
    fn set(&mut self, metric: &'static str, key: u64, value: u64) {
        self.inner.set(metric, key, value);
    }

    #[inline]
    fn observe(&mut self, metric: &'static str, value: u64) {
        self.inner.observe(metric, value);
    }

    fn export(&self) -> MetricsRegistry {
        self.inner.export()
    }
}

impl<R: Recorder> Recorder for OffsetRecorder<R> {
    #[inline]
    fn span(&mut self, track: Track, name: &'static str, start_ns: u64, end_ns: u64) {
        self.inner.span(
            track,
            name,
            start_ns + self.offset_ns,
            end_ns + self.offset_ns,
        );
    }

    #[inline]
    fn counter(&mut self, track: Track, name: &'static str, t_ns: u64, value: u64) {
        self.inner
            .counter(track, name, t_ns + self.offset_ns, value);
    }
}

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Lane the span belongs to.
    pub track: Track,
    /// Static label ("constant-tests", "point #12", ...).
    pub name: &'static str,
    /// Start of the interval, ns.
    pub start_ns: u64,
    /// End of the interval, ns.
    pub end_ns: u64,
}

/// One recorded counter observation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterEvent {
    /// Lane the counter belongs to.
    pub track: Track,
    /// Counter name ("queue-depth", ...).
    pub name: &'static str,
    /// Observation time, ns.
    pub t_ns: u64,
    /// Observed value.
    pub value: u64,
}

/// The in-memory recorder behind every export format: keeps spans and
/// counter observations verbatim and aggregates everything order-free
/// in a [`MetricsRegistry`] (name-sorted, so exports are stable).
#[derive(Clone, Debug, Default)]
pub struct TraceRecorder {
    spans: Vec<SpanEvent>,
    counters: Vec<CounterEvent>,
    registry: MetricsRegistry,
    track_names: Vec<(Track, String)>,
    process_names: Vec<(u32, String)>,
}

/// Set `key`'s name in a first-seen-ordered name list; later calls win.
fn set_name<K: PartialEq>(names: &mut Vec<(K, String)>, key: K, name: String) {
    match names.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = name,
        None => names.push((key, name)),
    }
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Give `track` a human-readable lane name in the exported trace.
    /// Later calls for the same track win.
    pub fn name_track(&mut self, track: Track, name: impl Into<String>) {
        set_name(&mut self.track_names, track, name.into());
    }

    /// Give a track group (`pid`) a name in the exported trace.
    pub fn name_process(&mut self, pid: u32, name: impl Into<String>) {
        set_name(&mut self.process_names, pid, name.into());
    }

    /// Recorded spans, in recording order.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// Recorded counter observations, in recording order.
    pub fn counters(&self) -> &[CounterEvent] {
        &self.counters
    }

    /// Everything recorded through the [`MetricSink`] methods.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Histograms keyed by metric name, in name order.
    pub fn histograms(&self) -> &[(&'static str, Histogram)] {
        self.registry.histograms()
    }

    /// The histogram for `metric`, if any sample was observed.
    pub fn histogram(&self, metric: &str) -> Option<&Histogram> {
        self.registry.histogram(metric)
    }

    /// Track names assigned via [`TraceRecorder::name_track`].
    pub fn track_names(&self) -> &[(Track, String)] {
        &self.track_names
    }

    /// Process names assigned via [`TraceRecorder::name_process`].
    pub fn process_names(&self) -> &[(u32, String)] {
        &self.process_names
    }

    /// Fold another recorder's events into this one (spans and counter
    /// observations append; the registries merge; names fill gaps). Used
    /// to combine per-worker recorders in worker-index order so the
    /// merged trace is deterministic.
    pub fn merge(&mut self, other: TraceRecorder) {
        self.spans.extend(other.spans);
        self.counters.extend(other.counters);
        self.registry.merge(&other.registry);
        for (track, name) in other.track_names {
            if !self.track_names.iter().any(|(t, _)| *t == track) {
                self.track_names.push((track, name));
            }
        }
        for (pid, name) in other.process_names {
            if !self.process_names.iter().any(|(p, _)| *p == pid) {
                self.process_names.push((pid, name));
            }
        }
    }
}

impl MetricSink for TraceRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn add(&mut self, metric: &'static str, key: u64, delta: u64) {
        self.registry.add(metric, key, delta);
    }

    #[inline]
    fn set(&mut self, metric: &'static str, key: u64, value: u64) {
        self.registry.set(metric, key, value);
    }

    #[inline]
    fn observe(&mut self, metric: &'static str, value: u64) {
        self.registry.observe(metric, value);
    }

    fn export(&self) -> MetricsRegistry {
        self.registry.clone()
    }
}

impl Recorder for TraceRecorder {
    fn span(&mut self, track: Track, name: &'static str, start_ns: u64, end_ns: u64) {
        debug_assert!(start_ns <= end_ns, "span ends before it starts");
        self.spans.push(SpanEvent {
            track,
            name,
            start_ns,
            end_ns,
        });
    }

    fn counter(&mut self, track: Track, name: &'static str, t_ns: u64, value: u64) {
        self.counters.push(CounterEvent {
            track,
            name,
            t_ns,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One call to each of the five recording methods.
    fn record_all<R: Recorder>(mut r: R) {
        r.span(Track::sim_proc(0), "w", 5, 7);
        r.counter(Track::sim_proc(0), "q", 6, 2);
        r.add("c", 3, 4);
        r.set("g", 1, 8);
        r.observe("m", 9);
    }

    /// What [`record_all`] must leave behind, timestamps shifted by `offset`.
    fn assert_all_recorded(r: &TraceRecorder, offset: u64) {
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.spans()[0].start_ns, 5 + offset);
        assert_eq!(r.spans()[0].end_ns, 7 + offset);
        assert_eq!(r.counters().len(), 1);
        assert_eq!(r.counters()[0].t_ns, 6 + offset);
        assert_eq!(r.registry().counter("c").unwrap().get(&3), Some(&4));
        assert_eq!(r.registry().gauge("g").unwrap().get(&1), Some(&8));
        assert_eq!(r.histogram("m").unwrap().max(), Some(9));
        assert_eq!(r.export(), *r.registry());
    }

    #[test]
    fn null_sink_is_a_disabled_recorder() {
        const { assert!(!<NullMetrics as MetricSink>::ENABLED) };
        // And callable: the calls must be no-ops, not panics.
        record_all(NullMetrics);
        record_all(OffsetRecorder::new(NullMetrics, 1));
        const { assert!(!<OffsetRecorder<NullMetrics> as MetricSink>::ENABLED) };
    }

    /// The forwarders are where a unified hierarchy can silently drop a
    /// method: drive all five through each and find every one.
    #[test]
    fn forwarders_pass_all_five_methods() {
        let mut direct = TraceRecorder::new();
        record_all(&mut direct);
        assert_all_recorded(&direct, 0);
        const { assert!(<&mut TraceRecorder as MetricSink>::ENABLED) };

        let mut shifted = TraceRecorder::new();
        record_all(OffsetRecorder::new(&mut shifted, 100));
        assert_all_recorded(&shifted, 100);
        let wrapped = OffsetRecorder::new(&mut shifted, 0);
        assert_eq!(wrapped.export().counter_total("c"), 4);
    }

    #[test]
    fn merge_combines_registries_and_names() {
        let mut a = TraceRecorder::new();
        a.observe("wall", 10);
        a.add("n", 0, 1);
        a.name_process(SWEEP_PID, "sweep");
        a.name_track(Track::worker(0), "worker 0");
        let mut b = TraceRecorder::new();
        b.observe("wall", 20);
        b.add("n", 0, 2);
        b.span(Track::worker(1), "point", 0, 5);
        b.name_track(Track::worker(0), "ignored duplicate");
        b.name_track(Track::worker(1), "worker 1");
        a.merge(b);
        assert_eq!(a.histogram("wall").unwrap().count(), 2);
        assert_eq!(a.registry().counter_total("n"), 3);
        assert_eq!(a.spans().len(), 1);
        assert_eq!(a.track_names().len(), 2);
        assert_eq!(a.track_names()[0].1, "worker 0");
    }

    #[test]
    fn name_track_last_call_wins() {
        let mut r = TraceRecorder::new();
        r.name_track(Track::sim_proc(0), "first");
        r.name_track(Track::sim_proc(0), "second");
        assert_eq!(r.track_names().len(), 1);
        assert_eq!(r.track_names()[0].1, "second");
    }
}
