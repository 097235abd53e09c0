#![warn(missing_docs)]

//! # mpps-mpcsim — a discrete-event message-passing computer simulator
//!
//! The substrate under the paper's experiments: a deterministic
//! discrete-event simulation of a message-passing computer in the style of
//! Nectar — sequential processors exchanging messages over a low-latency
//! interconnect, with explicit **send overhead** (CPU time on the sender),
//! **network latency** (wire time, not occupying either CPU) and **receive
//! overhead** (CPU time on the receiver). These are precisely the knobs of
//! Table 5-1.
//!
//! The programming model is actor-like: a [`Node`] per processor handles
//! messages, declaring simulated compute time and sending messages through
//! a [`Ctx`]. Each processor is strictly sequential — messages queue while
//! it is busy — and the whole simulation is deterministic: ties are broken
//! by event sequence number, never by host-map iteration order.
//!
//! Self-sends model local work handoff: they bypass send/receive overheads
//! and the network, but still queue (a processor works on one unit at a
//! time).

pub mod event;
pub mod machine;
pub mod metrics;
pub mod network;
pub mod time;

pub use event::EventQueue;
pub use machine::{Ctx, MachineConfig, Node, ProcId, RunReport, Simulator};
pub use metrics::{idle_fraction, MachineMetrics, ProcessorMetrics};
pub use network::NetworkModel;
pub use time::SimTime;

// Re-exported so downstream crates can name recorder types without a
// separate dependency edge.
pub use mpps_telemetry as telemetry;
