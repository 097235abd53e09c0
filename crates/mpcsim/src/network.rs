//! Interconnection-network models.
//!
//! The paper's simulations use a constant point-to-point latency (0.5 µs,
//! the Nectar figure) and find the network 97–98% idle. [`NetworkModel`]
//! also offers a per-hop latency over a binary hypercube, the
//! first-generation MPC interconnect, so `repro era` can show what a
//! slower, store-and-forward interconnect would have done.
//!
//! Utilization is accounted as the union of transfer intervals (the wire is
//! "busy" whenever at least one message is in flight), which is what the
//! paper's idle-percentage statement measures.

use crate::machine::ProcId;
use crate::time::SimTime;

/// How long a message spends on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetworkModel {
    /// Fixed latency between any two distinct processors (worm-hole routing
    /// with negligible per-hop cost — the Nectar/new-generation model).
    Constant(SimTime),
    /// Per-hop latency over a binary hypercube, where the hop count is
    /// the Hamming distance of the processor ids (the first-generation
    /// store-and-forward model).
    Hypercube {
        /// Latency contributed by each hop.
        per_hop: SimTime,
    },
}

impl NetworkModel {
    /// Wire time from `from` to `to`.
    pub fn latency(self, from: ProcId, to: ProcId) -> SimTime {
        if from == to {
            return SimTime::ZERO;
        }
        match self {
            NetworkModel::Constant(l) => l,
            NetworkModel::Hypercube { per_hop } => per_hop * u64::from((from ^ to).count_ones()),
        }
    }
}

/// Accumulates transfer intervals and reports busy/idle fractions.
///
/// [`record`] appends the interval, `O(1)`. [`busy_time`] sorts and
/// coalesces what was recorded, `O(n log n)`, and keeps the coalesced set,
/// so a later query sorts only it and what came since; a simulator asks
/// once per run. A sorted set kept merged on every record is no cheaper:
/// a handler's sends depart at its own future clock, out of event order, so
/// each insert shifted the tail of the set.
///
/// [`record`]: NetworkUsage::record
/// [`busy_time`]: NetworkUsage::busy_time
#[derive(Clone, Debug, Default)]
pub struct NetworkUsage {
    /// Non-empty transfers `(start, end)`: sorted and pairwise disjoint up
    /// to the last query, in record order after it.
    intervals: Vec<(SimTime, SimTime)>,
    /// Total number of messages carried.
    pub messages: u64,
}

impl NetworkUsage {
    /// Record a transfer occupying `[start, end)`.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        self.messages += 1;
        if end > start {
            self.intervals.push((start, end));
        }
    }

    /// Total time at least one message was in flight.
    pub fn busy_time(&mut self) -> SimTime {
        self.intervals.sort_unstable();
        // Coalesce in place; adjacency counts as touching.
        let mut kept = 0;
        for i in 0..self.intervals.len() {
            let (s, e) = self.intervals[i];
            if kept > 0 && s <= self.intervals[kept - 1].1 {
                let last_end = &mut self.intervals[kept - 1].1;
                *last_end = (*last_end).max(e);
            } else {
                self.intervals[kept] = (s, e);
                kept += 1;
            }
        }
        self.intervals.truncate(kept);
        self.intervals.iter().map(|&(s, e)| e - s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_latency_is_symmetric_and_zero_local() {
        let m = NetworkModel::Constant(SimTime::from_ns(500));
        assert_eq!(m.latency(1, 2), SimTime::from_ns(500));
        assert_eq!(m.latency(2, 1), SimTime::from_ns(500));
        assert_eq!(m.latency(3, 3), SimTime::ZERO);
    }

    #[test]
    fn hypercube_latency_scales_with_hamming_distance() {
        let m = NetworkModel::Hypercube {
            per_hop: SimTime::from_us(2),
        };
        assert_eq!(m.latency(0b000, 0b111), SimTime::from_us(6));
        assert_eq!(m.latency(0b101, 0b100), SimTime::from_us(2));
        assert_eq!(m.latency(5, 5), SimTime::ZERO);
    }

    #[test]
    fn usage_merges_overlapping_intervals() {
        let mut u = NetworkUsage::default();
        u.record(SimTime::from_us(0), SimTime::from_us(2));
        u.record(SimTime::from_us(1), SimTime::from_us(3)); // overlap
        u.record(SimTime::from_us(10), SimTime::from_us(11));
        assert_eq!(u.busy_time(), SimTime::from_us(4));
        assert_eq!(u.messages, 3);
        let idle = crate::metrics::idle_fraction(u.busy_time(), SimTime::from_us(100));
        assert!((idle - 0.96).abs() < 1e-9);
    }

    #[test]
    fn usage_empty_is_fully_idle() {
        let mut u = NetworkUsage::default();
        let busy = u.busy_time();
        assert_eq!(busy, SimTime::ZERO);
        let idle = |span| crate::metrics::idle_fraction(busy, span);
        assert_eq!(idle(SimTime::from_us(5)), 1.0);
        assert_eq!(idle(SimTime::ZERO), 1.0);
    }

    /// A standalone sort-and-sweep over every recorded transfer: the
    /// oracle for the coalesced set `busy_time` keeps between queries.
    fn oracle_busy_time(raw: &[(SimTime, SimTime)]) -> SimTime {
        let mut iv: Vec<_> = raw.iter().copied().filter(|&(s, e)| e > s).collect();
        iv.sort_unstable();
        let mut busy = SimTime::ZERO;
        let mut cur: Option<(SimTime, SimTime)> = None;
        for (s, e) in iv {
            match cur {
                None => cur = Some((s, e)),
                Some((cs, ce)) => {
                    if s <= ce {
                        cur = Some((cs, ce.max(e)));
                    } else {
                        busy += ce - cs;
                        cur = Some((s, e));
                    }
                }
            }
        }
        if let Some((cs, ce)) = cur {
            busy += ce - cs;
        }
        busy
    }

    #[test]
    fn busy_time_matches_oracle_mid_stream() {
        // Deterministic LCG stream of nasty intervals: duplicates,
        // containments, exact adjacency, zero-length, arrival out of order.
        let mut state: u64 = 0x1989_1989_1989_1989;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut u = NetworkUsage::default();
        let mut raw = Vec::new();
        for i in 0..500 {
            let start = SimTime::from_ns(next(2_000));
            let len = SimTime::from_ns(next(60));
            let end = start + len;
            raw.push((start, end));
            u.record(start, end);
            if i % 17 == 0 {
                // Query mid-stream too: a query coalesces what it has seen,
                // and the records after it must still count.
                assert_eq!(
                    u.busy_time(),
                    oracle_busy_time(&raw),
                    "after {} records",
                    i + 1
                );
            }
        }
        assert_eq!(u.busy_time(), oracle_busy_time(&raw));
        assert_eq!(
            u.busy_time(),
            oracle_busy_time(&raw),
            "a query is idempotent"
        );
        assert_eq!(u.messages, 500);
    }

    #[test]
    fn adjacent_intervals_coalesce_across_queries() {
        let mut u = NetworkUsage::default();
        let raw = [(0, 1), (2, 3), (1, 2), (3, 5), (4, 4)]
            .map(|(s, e)| (SimTime::from_us(s), SimTime::from_us(e)));
        for (i, &(s, e)) in raw.iter().enumerate() {
            u.record(s, e);
            assert_eq!(u.busy_time(), oracle_busy_time(&raw[..=i]));
        }
        assert_eq!(u.busy_time(), SimTime::from_us(5));
        assert_eq!(u.messages, 5);
    }
}
