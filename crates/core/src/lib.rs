#![warn(missing_docs)]

//! # mpps-core — the distributed hash-table mapping of Rete onto MPCs
//!
//! The paper's primary contribution, implemented twice:
//!
//! * [`simexec`] — the **trace-driven simulated executor**: replays an
//!   activation trace (from `mpps-rete`) on a simulated message-passing
//!   machine (`mpps-mpcsim`) under the §4 cost model, reproducing the
//!   paper's speedup figures, overhead sweeps, and load distributions.
//! * [`threaded`] — a **real multi-threaded executor**: each match
//!   processor is an OS thread owning a partition of the hash-index range;
//!   tokens travel as crossbeam-channel messages. It implements
//!   [`mpps_ops::Matcher`], so the interpreter can run entire production
//!   systems on it, and is property-tested against the sequential engine.
//!
//! Supporting modules: the §4 [`cost`] model and Table 5-1 overhead rows,
//! bucket [`partition`] strategies (round-robin / random / offline greedy),
//! processor/overhead [`sweep`] helpers for the figures, the §6
//! [`continuum`] endpoints (replicated and single-master hash tables), and
//! the [`profile`] renderer that turns a merged match-kernel
//! [`mpps_telemetry::MetricsRegistry`] into `match_profile.json`.

pub mod continuum;
pub mod cost;
pub mod partition;
pub mod profile;
pub mod sharedbus;
pub mod simexec;
pub mod sweep;
pub mod threaded;

pub use cost::{CostModel, OverheadSetting, NECTAR_LATENCY};
pub use partition::{
    bucket_activity, cycle_bucket_activity, cycle_bucket_work, load_skew, Partition,
};
pub use profile::{check_profile, greedy_partition, render_match_profile, PROFILE_SCHEMA};
pub use sharedbus::{shared_bus_simulate, SharedBusConfig, SharedBusReport};
pub use simexec::{
    name_machine_tracks, simulate, simulate_in, simulate_per_cycle, simulate_per_cycle_in,
    simulate_recorded, CycleReport, MappingConfig, MappingReport, SimScratch, TerminationModel,
};
pub use sweep::{
    speedup_curve, speedup_curve_jobs, PartitionSpec, PartitionStrategy, PointId, PointSpec,
    SpeedupPoint, SweepPlan, SweepResults, TraceId,
};
pub use threaded::{ThreadedMatcher, ThreadedStats, WorkerStats};
