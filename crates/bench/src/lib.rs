//! # mpps-bench — the harness that regenerates every table and figure
//!
//! [`experiments`] defines one function per artifact of the paper's §5
//! evaluation (plan its simulation points now, render them later); the
//! `repro` binary prints them, and the criterion benches in `benches/`
//! time the design-choice ablations called out in DESIGN.md. [`adapt`] is
//! the live closed-skew-loop scenario shared by the `repro adapt` figure
//! and the adapt smoke test. Performance is measured elsewhere:
//! `benchmark/run.sh` (README "Performance").

pub mod adapt;
pub mod experiments;
pub mod telemetry;
