//! The repo's benchmark: seven workloads over every executor (sequential,
//! threaded, serve, simulator). See `README.md` for why each exists and what
//! each metric means; `BENCHMARK.json` at the repo root declares the names.
//!
//! Nothing in the program is touched: every layer is measured from outside,
//! by timing calls into its public functions.

pub mod cold;
pub mod compare;
pub mod harness;
pub mod matching;
pub mod metrics;
pub mod serve;
pub mod sim;
pub mod suite;

use harness::Opts;
use matching::Kind;
use metrics::Outcome;

/// A workload, with the unit its `work_per_s` counts and the operation its
/// `op_p50_us` / `op_p99_us` time.
pub struct Workload {
    pub name: &'static str,
    pub work: &'static str,
    pub op: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rubik-modify",
        work: "WME changes",
        op: "recognise-act cycle",
        why: "right-heavy multiple-modify cycles, ~90% of the time inside ReteMatcher::process: match-kernel work shows here, interpreter work barely",
    },
    Workload {
        name: "tourney-cross",
        work: "WME changes",
        op: "recognise-act cycle",
        why: "the paper's cross-product: one bucket, ~1000-entry conflict set, ~75% of the time in conflict_set + resolution + act, not in the kernel",
    },
    Workload {
        name: "weaver-small",
        work: "WME changes",
        op: "recognise-act cycle",
        why: "cycles of <=100 tokens: fixed per-cycle cost and, threaded, per-cycle synchronisation dominate",
    },
    Workload {
        name: "cold-start",
        work: "runs",
        op: "parse+compile+run+drop",
        why: "what every `mpps run FILE` pays: parse is ~31% and network compile ~16% of a run here, both <0.1% of rubik-modify",
    },
    Workload {
        name: "serve-hot",
        work: "requests",
        op: "submit-to-reply",
        why: "closed loop, 16 clients, all sessions resident: queue + lookup + match, the store's eviction path never taken",
    },
    Workload {
        name: "serve-spill",
        work: "requests",
        op: "submit-to-reply",
        why: "same access sequence under a resident budget just below the session count: LRU bookkeeping on every request, a spill to disk on one in ~1300",
    },
    Workload {
        name: "sim-sweep",
        work: "simulated activations",
        op: "simulation point",
        why: "the paper's Figure 5-1/5-2 grid on the trace-driven simulator: touches no matcher, so matcher changes predict no change here",
    },
];

/// Run one workload; `None` for a name that is not one.
pub fn run_workload(name: &str, opts: &Opts) -> Option<Outcome> {
    Some(match name {
        "rubik-modify" => matching::run(Kind::Rubik, opts),
        "tourney-cross" => matching::run(Kind::Tourney, opts),
        "weaver-small" => matching::run(Kind::Weaver, opts),
        "cold-start" => cold::run(opts),
        "serve-hot" => serve::run(opts, false),
        "serve-spill" => serve::run(opts, true),
        "sim-sweep" => sim::run(opts),
        _ => return None,
    })
}
