//! Keyed aggregates: counters, gauges, histograms — the base of the one
//! telemetry trait hierarchy.
//!
//! Instrumented code is generic over a [`MetricSink`] (or its timeline
//! refinement [`Recorder`]). The default [`NullMetrics`] has
//! `ENABLED = false` and empty inline methods, so every hook site
//! monomorphizes away in the disabled build: telemetry is guarded only
//! by monomorphization, never by a runtime flag.
//!
//! Three order-free shapes:
//!
//! * **keyed counters** (`add`) — monotonic sums per `u64` key
//!   (node id, bucket index, peer worker, production id);
//! * **keyed gauges** (`set`) — high-water marks per key; a gauge
//!   remembers the *maximum* value it was ever set to, which makes
//!   merging per-worker registries commutative;
//! * **histograms** (`observe`) — unkeyed scalar distributions as exact
//!   [`Histogram`]s (per-drain activation counts, per-cycle phase
//!   times, queue depths).
//!
//! [`MetricsRegistry`] is the one aggregate store. Registries from
//! different workers [`merge`](MetricsRegistry::merge) associatively:
//! counters and sums add, gauges take the max, histograms merge — so a
//! merged set of per-worker registries equals one registry fed the whole
//! event stream, regardless of how the stream was partitioned (pinned by
//! a proptest against a replay oracle).
//!
//! [`Recorder`]: crate::Recorder

use std::collections::BTreeMap;

use crate::hist::Histogram;

/// Sink for order-free aggregates.
///
/// Code paths that are expensive even to *prepare* (reading a clock,
/// computing an attribution key) should be wrapped in
/// `if M::ENABLED { .. }` so the disabled build drops them entirely;
/// nothing else may depend on it.
pub trait MetricSink {
    /// `true` when this sink records anything. `if M::ENABLED` blocks
    /// are resolved at monomorphization time.
    const ENABLED: bool;

    /// Add `delta` to the counter series `metric` at `key`.
    fn add(&mut self, metric: &'static str, key: u64, delta: u64);

    /// Raise the gauge series `metric` at `key` to at least `value`
    /// (high-water semantics: the gauge keeps the maximum ever set).
    fn set(&mut self, metric: &'static str, key: u64, value: u64);

    /// Record one sample into the histogram `metric`.
    fn observe(&mut self, metric: &'static str, value: u64);

    /// Snapshot this sink's contents as a registry (empty for
    /// [`NullMetrics`]). Used to ship per-worker registries back to a
    /// coordinator for merging.
    fn export(&self) -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

/// The disabled sink — for [`MetricSink`] and [`Recorder`](crate::Recorder)
/// alike: every method is empty and inlines to nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullMetrics;

impl MetricSink for NullMetrics {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&mut self, _metric: &'static str, _key: u64, _delta: u64) {}

    #[inline(always)]
    fn set(&mut self, _metric: &'static str, _key: u64, _value: u64) {}

    #[inline(always)]
    fn observe(&mut self, _metric: &'static str, _value: u64) {}
}

impl<M: MetricSink> MetricSink for &mut M {
    const ENABLED: bool = M::ENABLED;

    #[inline]
    fn add(&mut self, metric: &'static str, key: u64, delta: u64) {
        (**self).add(metric, key, delta);
    }

    #[inline]
    fn set(&mut self, metric: &'static str, key: u64, value: u64) {
        (**self).set(metric, key, value);
    }

    #[inline]
    fn observe(&mut self, metric: &'static str, value: u64) {
        (**self).observe(metric, value);
    }

    fn export(&self) -> MetricsRegistry {
        (**self).export()
    }
}

/// Collecting sink: keyed counters, high-water gauges, and exact
/// histograms, each addressed by a static metric name.
///
/// Series are stored sorted by metric name, so two registries that saw
/// the same aggregate data compare equal regardless of the order the
/// metrics first appeared in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, BTreeMap<u64, u64>)>,
    gauges: Vec<(&'static str, BTreeMap<u64, u64>)>,
    histograms: Vec<(&'static str, Histogram)>,
}

fn series_mut<'a, T: Default>(
    series: &'a mut Vec<(&'static str, T)>,
    metric: &'static str,
) -> &'a mut T {
    let at = match series.binary_search_by(|(name, _)| name.cmp(&metric)) {
        Ok(at) => at,
        Err(at) => {
            series.insert(at, (metric, T::default()));
            at
        }
    };
    &mut series[at].1
}

fn series_get<'a, T>(series: &'a [(&'static str, T)], metric: &str) -> Option<&'a T> {
    series
        .binary_search_by(|(name, _)| name.cmp(&metric))
        .ok()
        .map(|at| &series[at].1)
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The counter series `metric`, if any deltas were added to it.
    pub fn counter(&self, metric: &str) -> Option<&BTreeMap<u64, u64>> {
        series_get(&self.counters, metric)
    }

    /// Sum of all keys in the counter series `metric` (0 when absent).
    pub fn counter_total(&self, metric: &str) -> u64 {
        self.counter(metric).map(|m| m.values().sum()).unwrap_or(0)
    }

    /// The gauge series `metric`, if any values were set.
    pub fn gauge(&self, metric: &str) -> Option<&BTreeMap<u64, u64>> {
        series_get(&self.gauges, metric)
    }

    /// The histogram `metric`, if any samples were observed.
    pub fn histogram(&self, metric: &str) -> Option<&Histogram> {
        series_get(&self.histograms, metric)
    }

    /// All counter series, sorted by metric name.
    pub fn counters(&self) -> &[(&'static str, BTreeMap<u64, u64>)] {
        &self.counters
    }

    /// All gauge series, sorted by metric name.
    pub fn gauges(&self) -> &[(&'static str, BTreeMap<u64, u64>)] {
        &self.gauges
    }

    /// All histograms, sorted by metric name.
    pub fn histograms(&self) -> &[(&'static str, Histogram)] {
        &self.histograms
    }

    /// Fold another registry into this one: counters add, gauges take
    /// the per-key maximum, histograms merge. Commutative and
    /// associative, so per-worker registries can be merged in any order.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (metric, keys) in &other.counters {
            let mine = series_mut(&mut self.counters, metric);
            for (&key, &delta) in keys {
                *mine.entry(key).or_insert(0) += delta;
            }
        }
        for (metric, keys) in &other.gauges {
            let mine = series_mut(&mut self.gauges, metric);
            for (&key, &value) in keys {
                let slot = mine.entry(key).or_insert(0);
                *slot = (*slot).max(value);
            }
        }
        for (metric, hist) in &other.histograms {
            series_mut(&mut self.histograms, metric).merge(hist);
        }
    }
}

impl MetricSink for MetricsRegistry {
    const ENABLED: bool = true;

    #[inline]
    fn add(&mut self, metric: &'static str, key: u64, delta: u64) {
        *series_mut(&mut self.counters, metric)
            .entry(key)
            .or_insert(0) += delta;
    }

    #[inline]
    fn set(&mut self, metric: &'static str, key: u64, value: u64) {
        let slot = series_mut(&mut self.gauges, metric).entry(key).or_insert(0);
        *slot = (*slot).max(value);
    }

    #[inline]
    fn observe(&mut self, metric: &'static str, value: u64) {
        series_mut(&mut self.histograms, metric).record(value);
    }

    fn export(&self) -> MetricsRegistry {
        self.clone()
    }
}

/// Number of CPUs available to this process: `available_parallelism`
/// when the OS reports it, falling back to counting `processor` lines in
/// `/proc/cpuinfo`, with a floor of 1. Used by the bench manifest's
/// machine info and by profile summaries, so both report the same
/// number.
pub fn available_cpus() -> usize {
    let advertised = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let counted = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    advertised.max(counted).max(1)
}

/// This process's peak resident set in KiB: `VmHWM` from
/// `/proc/self/status`. `None` where the file or the line is missing, so
/// a report can leave the figure out rather than print 0.
pub fn peak_rss_kib() -> Option<u64> {
    vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM:` line of a `/proc/<pid>/status` text, in KiB.
fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &mut impl MetricSink) {
        sink.add("node.activations", 3, 2);
        sink.add("node.activations", 1, 5);
        sink.add("bucket.activations", 7, 1);
        sink.set("arena.live", 0, 10);
        sink.set("arena.live", 0, 4);
        sink.observe("drain.acts", 8);
        sink.observe("drain.acts", 2);
    }

    #[test]
    fn null_metrics_records_nothing() {
        let mut sink = NullMetrics;
        feed(&mut sink);
        const { assert!(!NullMetrics::ENABLED) };
        assert!(sink.export().is_empty());
    }

    #[test]
    fn registry_aggregates_by_metric_and_key() {
        let mut reg = MetricsRegistry::new();
        feed(&mut reg);
        feed(&mut reg);
        let acts = reg.counter("node.activations").unwrap();
        assert_eq!(acts.get(&3), Some(&4));
        assert_eq!(acts.get(&1), Some(&10));
        assert_eq!(reg.counter_total("node.activations"), 14);
        assert_eq!(reg.counter_total("missing"), 0);
        // Gauges keep the high-water mark, not the last write.
        assert_eq!(reg.gauge("arena.live").unwrap().get(&0), Some(&10));
        let h = reg.histogram("drain.acts").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), Some(8));
    }

    #[test]
    fn series_are_sorted_by_name_regardless_of_first_touch() {
        let mut a = MetricsRegistry::new();
        a.add("zz", 0, 1);
        a.add("aa", 0, 1);
        let mut b = MetricsRegistry::new();
        b.add("aa", 0, 1);
        b.add("zz", 0, 1);
        assert_eq!(a, b);
        let names: Vec<_> = a.counters().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["aa", "zz"]);
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricsRegistry::new();
        a.add("c", 1, 2);
        a.set("g", 0, 9);
        a.observe("h", 4);
        let mut b = MetricsRegistry::new();
        b.add("c", 1, 3);
        b.add("c", 2, 1);
        b.set("g", 0, 5);
        b.observe("h", 7);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c").unwrap().get(&1), Some(&5));
        assert_eq!(ab.gauge("g").unwrap().get(&0), Some(&9));
        assert_eq!(ab.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn available_cpus_is_at_least_one() {
        assert!(available_cpus() >= 1);
    }

    #[test]
    fn peak_rss_reads_vm_hwm_or_nothing() {
        let status = "Name:\tmpps\nVmPeak:\t  20000 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(1234));
        assert_eq!(vm_hwm_kib("Name:\tmpps\nVmRSS:\t 1000 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\tmany kB\n"), None);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kib().is_some_and(|kib| kib > 0));
        }
    }
}
