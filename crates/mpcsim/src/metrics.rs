//! Machine-level metrics: processor utilization and network occupancy.

use crate::time::SimTime;

/// The canonical idle-fraction computation: the fraction of `[0, span)`
/// during which a resource busy for `busy` was idle. Every idle-percentage
/// figure in the workspace (network idle, `MappingReport`'s run-level
/// number) delegates here; a zero span counts as fully idle.
pub fn idle_fraction(busy: SimTime, span: SimTime) -> f64 {
    if span == SimTime::ZERO {
        return 1.0;
    }
    1.0 - busy.as_ns() as f64 / span.as_ns() as f64
}

/// Per-processor counters for one simulation run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ProcessorMetrics {
    /// Total CPU time spent in handlers (compute + send/receive overheads).
    pub busy_time: SimTime,
    /// Remote messages sent.
    pub messages_sent: u64,
    /// Messages whose handler ran here (remote + self + injected).
    pub messages_handled: u64,
}

/// Whole-machine metrics for one simulation run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MachineMetrics {
    /// One entry per processor.
    pub processors: Vec<ProcessorMetrics>,
    /// Union of in-flight intervals on the interconnect.
    pub network_busy: SimTime,
    /// Messages carried by the interconnect (remote sends only).
    pub network_messages: u64,
}

impl MachineMetrics {
    /// `1 - network_busy / makespan` — the paper reports 97–98% here.
    /// Delegates to the canonical [`idle_fraction`].
    pub fn network_idle_fraction(&self, makespan: SimTime) -> f64 {
        idle_fraction(self.network_busy, makespan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_fraction_is_canonical() {
        assert_eq!(idle_fraction(SimTime::ZERO, SimTime::ZERO), 1.0);
        assert_eq!(idle_fraction(SimTime::from_us(50), SimTime::ZERO), 1.0);
        let f = idle_fraction(SimTime::from_us(3), SimTime::from_us(100));
        assert!((f - 0.97).abs() < 1e-12);
        let m = MachineMetrics {
            network_busy: SimTime::from_us(3),
            ..Default::default()
        };
        assert_eq!(m.network_idle_fraction(SimTime::from_us(100)), f);
    }
}
