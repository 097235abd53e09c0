//! # mpps-bench — the harness that regenerates every table and figure
//!
//! [`experiments`] defines one function per artifact of the paper's §5
//! evaluation (plan its simulation points now, render them later) and
//! the `repro` binary prints them. [`telemetry`] writes and checks
//! `repro`'s telemetry directories. [`probmodel`] is §5.2.2's
//! balls-in-bins model of active-bucket distribution, and [`report`]
//! renders tables, series and speedup dips as plain text.
//! Nothing here times anything: performance is measured by
//! `benchmark/run.sh` alone (README "Performance").

pub mod experiments;
pub mod probmodel;
pub mod report;
pub mod telemetry;
