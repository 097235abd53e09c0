//! Cross-worker registry merging must be partition-invariant: merging
//! per-worker registries equals one registry fed the whole event
//! stream, and both agree with a sort/merge oracle computed directly
//! from the events. A `TraceRecorder` is one more sink over the same
//! store, so it is held to the same oracle.

use std::collections::BTreeMap;

use mpps_telemetry::{MetricSink, MetricsRegistry, TraceRecorder};
use proptest::prelude::*;

const METRICS: [&str; 3] = ["node.activations", "bucket.activations", "peer.forwarded"];
const HISTS: [&str; 2] = ["drain.acts", "cycle.work-ns"];

#[derive(Clone, Debug)]
enum Event {
    Add { metric: usize, key: u64, delta: u64 },
    Set { metric: usize, key: u64, value: u64 },
    Observe { metric: usize, value: u64 },
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (0..METRICS.len(), 0u64..16, 0u64..100).prop_map(|(metric, key, delta)| Event::Add {
            metric,
            key,
            delta
        }),
        (0..METRICS.len(), 0u64..16, 0u64..100).prop_map(|(metric, key, value)| Event::Set {
            metric,
            key,
            value
        }),
        (0..HISTS.len(), 0u64..100).prop_map(|(metric, value)| Event::Observe { metric, value }),
    ]
}

fn apply(sink: &mut impl MetricSink, ev: &Event) {
    match *ev {
        Event::Add { metric, key, delta } => sink.add(METRICS[metric], key, delta),
        Event::Set { metric, key, value } => sink.set(METRICS[metric], key, value),
        Event::Observe { metric, value } => sink.observe(HISTS[metric], value),
    }
}

proptest! {
    /// Partition the stream across `workers` registries by an arbitrary
    /// assignment, merge in an arbitrary order, and compare against a
    /// single registry that saw every event.
    #[test]
    fn merged_worker_registries_equal_single_registry(
        events in proptest::collection::vec(event(), 0..200),
        workers in 1usize..5,
        assign_seed in 0u64..1000,
        reverse_merge in any::<bool>(),
    ) {
        let mut single = MetricsRegistry::new();
        let mut per_worker = vec![MetricsRegistry::new(); workers];
        let mut single_rec = TraceRecorder::new();
        let mut per_worker_rec = vec![TraceRecorder::new(); workers];
        // Deterministic but arbitrary assignment of events to workers.
        let mut state = assign_seed;
        for ev in &events {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let w = (state >> 33) as usize % workers;
            apply(&mut per_worker[w], ev);
            apply(&mut single, ev);
            apply(&mut per_worker_rec[w], ev);
            apply(&mut single_rec, ev);
        }
        prop_assert_eq!(&single_rec.export(), &single);
        let mut merged_rec = TraceRecorder::new();
        for rec in per_worker_rec {
            merged_rec.merge(rec);
        }
        prop_assert_eq!(merged_rec.registry(), &single);
        let mut merged = MetricsRegistry::new();
        if reverse_merge {
            for reg in per_worker.iter().rev() {
                merged.merge(reg);
            }
        } else {
            for reg in &per_worker {
                merged.merge(reg);
            }
        }
        prop_assert_eq!(&merged, &single);

        // Sort/merge oracle computed straight from the events.
        let mut counter_oracle: BTreeMap<(&str, u64), u64> = BTreeMap::new();
        let mut gauge_oracle: BTreeMap<(&str, u64), u64> = BTreeMap::new();
        let mut hist_oracle: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for ev in &events {
            match *ev {
                Event::Add { metric, key, delta } => {
                    *counter_oracle.entry((METRICS[metric], key)).or_insert(0) += delta;
                }
                Event::Set { metric, key, value } => {
                    let slot = gauge_oracle.entry((METRICS[metric], key)).or_insert(0);
                    *slot = (*slot).max(value);
                }
                Event::Observe { metric, value } => {
                    hist_oracle.entry(HISTS[metric]).or_default().push(value);
                }
            }
        }
        for (&(metric, key), &total) in &counter_oracle {
            prop_assert_eq!(merged.counter(metric).and_then(|m| m.get(&key).copied()), Some(total));
        }
        for (&(metric, key), &hw) in &gauge_oracle {
            prop_assert_eq!(merged.gauge(metric).and_then(|m| m.get(&key).copied()), Some(hw));
        }
        for (metric, samples) in &mut hist_oracle {
            samples.sort_unstable();
            let h = merged.histogram(metric).unwrap();
            prop_assert_eq!(h.count(), samples.len() as u64);
            prop_assert_eq!(h.min(), samples.first().copied());
            prop_assert_eq!(h.max(), samples.last().copied());
            let rank = ((0.5 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            prop_assert_eq!(h.p50(), Some(samples[rank - 1]));
        }
    }
}
