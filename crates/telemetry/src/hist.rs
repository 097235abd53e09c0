//! Exact histograms with nearest-rank percentiles.
//!
//! Samples in this workspace are small non-negative integers (activation
//! counts, queue depths) or nanosecond durations with few distinct
//! values per metric, so an exact value→count map is both cheaper and
//! more trustworthy than an approximating HDR-style sketch: the reported
//! p50/p95 are *exactly* the nearest-rank percentiles of the recorded
//! samples, which is what the tests assert against a sort-based oracle.

use std::collections::BTreeMap;

use crate::json::{require_f64, require_u64, Value};

/// An exact histogram of `u64` samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
    sum: u128,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        *self.counts.entry(value).or_insert(0) += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        self.counts.keys().next().copied()
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Mean of the samples.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// Nearest-rank percentile: the smallest recorded value whose
    /// cumulative count reaches `ceil(q * count)` (with a floor of rank
    /// 1), for `q` in `(0, 1]`. `quantile(0.5)` is the median,
    /// `quantile(1.0)` the maximum.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (&value, &n) in &self.counts {
            seen += n;
            if seen >= rank {
                return Some(value);
            }
        }
        unreachable!("cumulative count covers every rank");
    }

    /// Median (nearest rank).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 95th percentile (nearest rank).
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (&value, &n) in &other.counts {
            *self.counts.entry(value).or_insert(0) += n;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The summary statistics reported in exports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.total,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
            mean: self.mean().unwrap_or(0.0),
            p50: self.p50().unwrap_or(0),
            p95: self.p95().unwrap_or(0),
        }
    }
}

/// Percentile summary of one histogram (zeros when empty).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample.
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: u64,
    /// Nearest-rank 95th percentile.
    pub p95: u64,
}

impl HistogramSummary {
    /// Render as a JSON object (used by both export formats).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.3}, \"p50\": {}, \"p95\": {}}}",
            self.count, self.min, self.max, self.mean, self.p50, self.p95
        )
    }
}

/// Validate one [`HistogramSummary::to_json`] object: every field
/// present and the percentiles in order.
pub fn check_hist(v: &Value, ctx: &str) -> Result<(), String> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-based oracle for nearest-rank percentiles.
    fn oracle(samples: &[u64], q: f64) -> Option<u64> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p95(), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(42));
        assert_eq!(h.max(), Some(42));
        assert_eq!(h.mean(), Some(42.0));
        for q in [0.01, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), Some(42));
        }
    }

    #[test]
    fn ties_resolve_to_the_tied_value() {
        let mut h = Histogram::new();
        for v in [5, 5, 5, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(5));
        assert_eq!(h.p95(), Some(9));
        assert_eq!(h.quantile(0.8), Some(5));
        assert_eq!(h.quantile(0.81), Some(9));
    }

    #[test]
    fn merge_equals_recording_everything() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1, 2, 3] {
            a.record(v);
            all.record(v);
        }
        for v in [3, 4, 5, 5] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0, 1]")]
    fn out_of_range_quantile_panics() {
        Histogram::new().quantile(1.5);
    }

    proptest! {
        #[test]
        fn percentiles_match_sort_oracle(
            samples in proptest::collection::vec(0u64..1000, 0..200),
            q_milli in 1u64..1001,
        ) {
            let q = q_milli as f64 / 1000.0;
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            prop_assert_eq!(h.quantile(q), oracle(&samples, q));
            prop_assert_eq!(h.p50(), oracle(&samples, 0.5));
            prop_assert_eq!(h.p95(), oracle(&samples, 0.95));
            prop_assert_eq!(h.min(), samples.iter().copied().min());
            prop_assert_eq!(h.max(), samples.iter().copied().max());
        }
    }
}
