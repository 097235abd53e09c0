//! The online repartitioner: the closed skew loop on real threads.

use super::ThreadedMatcher;
use crate::partition::{load_skew, Partition};
use mpps_ops::MatchError;
use mpps_rete::kernel;

/// Tuning for the online repartitioner (see
/// [`ThreadedMatcher::enable_adaptation`]).
#[derive(Clone, Copy, Debug)]
pub struct AdaptOptions {
    /// Re-evaluate the partition every this many cycles.
    pub every: u64,
    /// Only migrate when the per-worker load-skew factor (max/mean of the
    /// activation deltas since the last evaluation) exceeds this.
    pub skew_threshold: f64,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            every: 4,
            skew_threshold: 1.25,
        }
    }
}

/// One automatic rebalance performed by the online repartitioner.
#[derive(Clone, Copy, Debug)]
pub struct RebalanceEvent {
    /// Match cycle after which the migration ran.
    pub cycle: u64,
    /// Per-worker load skew (max/mean) before, under the old partition.
    pub skew_before: f64,
    /// Projected per-worker load skew under the new partition.
    pub skew_after: f64,
    /// Buckets whose owner changed.
    pub moved_buckets: u64,
    /// Memory entries shipped between shards.
    pub moved_entries: u64,
    /// The hottest single bucket's share of the window's activations.
    /// When this exceeds `1/workers`, migration alone cannot balance the
    /// load — one bucket saturates its owner — and the caller should split
    /// the hot node with a network rewrite (copy-and-constraint).
    pub hot_bucket_share: f64,
}

/// Coordinator-side state of the online repartitioner.
pub(super) struct AdaptState {
    pub(super) options: AdaptOptions,
    /// Cumulative per-bucket activation counts at the last evaluation.
    last_buckets: Vec<u64>,
    /// Every rebalance performed so far.
    events: Vec<RebalanceEvent>,
}

impl ThreadedMatcher {
    /// Turn on the online repartitioner: every `options.every` cycles the
    /// coordinator diffs the cumulative per-bucket activation counters
    /// (the kernel's `bucket.activations` series) against the previous
    /// window, and when the per-worker load skew exceeds
    /// `options.skew_threshold` it re-runs the §5.2.2 greedy (LPT)
    /// packing over the window's activity and migrates bucket ownership at
    /// the cycle barrier. Requires a profiled matcher — the counters feed
    /// the decision.
    pub fn enable_adaptation(&mut self, options: AdaptOptions) {
        assert!(
            self.profiled,
            "online repartitioning needs a profiled matcher (bucket counters)"
        );
        assert!(options.every > 0, "adaptation period must be positive");
        self.adapt = Some(AdaptState {
            options,
            last_buckets: vec![0; self.table_size as usize],
            events: Vec::new(),
        });
    }

    /// Every rebalance the online repartitioner has performed.
    pub fn rebalance_events(&self) -> &[RebalanceEvent] {
        self.adapt.as_ref().map_or(&[], |s| &s.events)
    }

    /// One evaluation of the online repartitioner (post-cycle, quiescent):
    /// diff bucket counters, and if the load skew warrants it and greedy
    /// can actually improve it, migrate.
    pub(super) fn maybe_rebalance(&mut self) -> Result<(), MatchError> {
        let snapshot = self.profile_snapshot()?;
        let mut delta = vec![0u64; self.table_size as usize];
        let threshold = {
            let Some(state) = self.adapt.as_mut() else {
                return Ok(());
            };
            if let Some(series) = snapshot.counter(kernel::metric::BUCKET_ACTIVATIONS) {
                for (&bucket, &count) in series {
                    let b = bucket as usize;
                    if b < delta.len() {
                        delta[b] = count.saturating_sub(state.last_buckets[b]);
                        state.last_buckets[b] = count;
                    }
                }
            }
            state.options.skew_threshold
        };
        let total: u64 = delta.iter().sum();
        if total == 0 {
            return Ok(());
        }
        let skew_before = load_skew(&self.partition.loads(&delta));
        if skew_before <= threshold {
            return Ok(());
        }
        let candidate = Partition::greedy(&delta, self.workers.len());
        let skew_after = load_skew(&candidate.loads(&delta));
        if skew_after >= skew_before {
            return Ok(());
        }
        let hottest = delta.iter().copied().max().unwrap_or(0);
        let stats = self.migrate_to(candidate)?;
        let event = RebalanceEvent {
            cycle: self.cycles,
            skew_before,
            skew_after,
            moved_buckets: stats.moved_buckets,
            moved_entries: stats.moved_left + stats.moved_right,
            hot_bucket_share: hottest as f64 / total as f64,
        };
        if let Some(state) = self.adapt.as_mut() {
            state.events.push(event);
        }
        Ok(())
    }
}
