#![warn(missing_docs)]

//! # mpps-rete — the Rete match network with hashed token memories
//!
//! A from-scratch implementation of the Rete algorithm (Forgy 1982) in the
//! exact shape the paper's mapping requires:
//!
//! * an **alpha network** of constant-test nodes, compiled with sharing;
//! * **two-input (join) nodes** and **negative nodes** arranged in
//!   left-linear chains, whose memories are not per-node lists but entries
//!   in **two global hash tables** (one for all left memories, one for all
//!   right memories). Tokens hash on the destination node id plus the
//!   values bound to the variables tested for equality at that node —
//!   precisely the hash function of §3 of the paper;
//! * a sequential match engine ([`ReteMatcher`]) implementing
//!   [`mpps_ops::Matcher`], verified against the naive oracle;
//! * **activation-trace capture** ([`trace::Trace`]): a per-cycle record of
//!   every two-input-node activation (node, side, sign, bucket index,
//!   parent activation), which is the input format of the paper's
//!   trace-driven MPC simulator;
//! * the paper's **source/network transforms**: unsharing (§5.2.1),
//!   dummy-node fan-out splitting (§5.2.1), and copy-and-constraint
//!   (§5.2.2).

pub mod engine;
pub mod hashfn;
pub mod kernel;
pub mod memory;
pub mod network;
pub mod token;
pub mod trace;
pub mod transform;

pub use engine::{EngineConfig, ReteMatcher};
pub use hashfn::{bucket_index, chain_extend, chain_seed, hash_init, hash_mix, token_hash};
pub use kernel::{Kernel, KernelStats, Work};
pub use memory::{GlobalMemories, LeftEntry, RightEntry};
pub use network::{
    AlphaNode, JoinNode, NetworkStats, NodeId, NodeKind, NodeLayout, ProductionNode, ReteNetwork,
    Side, VarRef,
};
pub use token::{FlatToken, TokenArena, TokenId};
pub use trace::{ActKind, ActivationId, ActivationRecord, Trace, TraceCycle, TraceStats};
pub use transform::{
    compile_suggested, split_fanout, suggest_plan, unshare, SplitFanoutOptions, SplitSpec,
    TransformPlan,
};
