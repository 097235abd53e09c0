#![warn(missing_docs)]

//! # mpps — Message-Passing Production Systems
//!
//! Umbrella crate for the `mpps` workspace: a from-scratch reproduction of
//! *"Production Systems on Message Passing Computers: Simulation Results and
//! Analysis"* (Tambe, Acharya & Gupta, ICPP 1989).
//!
//! The workspace is organized as layered crates, re-exported here:
//!
//! * [`ops`] — an OPS5-subset production-system language (working memory,
//!   productions, parser, conflict resolution, MRA interpreter).
//! * [`rete`] — the Rete match network with hashed token memories, network
//!   transforms (unsharing, dummy nodes, copy-and-constraint), and
//!   activation-trace capture.
//! * [`mpcsim`] — a discrete-event message-passing computer simulator.
//! * [`core`] — the paper's contribution: the distributed hash-table
//!   mapping of Rete onto an MPC, with a trace-driven simulated executor
//!   and a real multi-threaded message-passing executor.
//! * [`telemetry`] — zero-cost-when-disabled simulation telemetry:
//!   recorders, exact histograms, Chrome-trace and JSONL export.
//! * [`workloads`] — Rubik / Tourney / Weaver style rulesets and synthetic
//!   trace generators reproducing the paper's characteristic sections.
//! * [`difftest`] — the differential match-fuzzing harness behind
//!   `mpps fuzz`: random program/schedule generation, a four-matcher
//!   oracle with the naive matcher as ground truth, and delta-debug
//!   shrinking to minimal `.ops` + `.sched` reproducers.
//! * [`server`] — rule-engine-as-a-service behind `mpps serve`: one
//!   compiled program multiplexed across many independent working-memory
//!   sessions on a bounded-queue worker pool, with snapshot/restore.
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench`
//! for the harness that regenerates every table and figure of the paper.

pub use mpps_core as core;
pub use mpps_difftest as difftest;
pub use mpps_mpcsim as mpcsim;
pub use mpps_ops as ops;
pub use mpps_rete as rete;
pub use mpps_server as server;
pub use mpps_telemetry as telemetry;
pub use mpps_workloads as workloads;
