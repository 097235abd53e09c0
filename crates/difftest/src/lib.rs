#![warn(missing_docs)]

//! # mpps-difftest — differential match-fuzzing harness
//!
//! The workspace carries four matcher implementations that must agree on
//! every program and every working-memory history: [`NaiveMatcher`] (the
//! brute-force semantic reference), `ReteMatcher`, `TreatMatcher`, and the
//! message-passing `ThreadedMatcher` — plus two derived configurations
//! (sequential and threaded Rete over transform-rewritten networks, the
//! threaded one on a non-round-robin partition). Hand-written
//! equivalence tests cover the shapes we thought of; this crate covers the
//! ones we didn't.
//!
//! The harness has three parts:
//!
//! * [`gen`] — a seeded generator of random OPS5 programs (multi-CE
//!   productions over a small class/attribute vocabulary, shared join
//!   prefixes, negated CEs, LEX and MEA, `make`/`remove`/`modify` RHS
//!   actions) and random external WM-change schedules;
//! * [`oracle`] — a lockstep driver that runs one [`Interpreter`] per
//!   matcher through the same cycles and compares conflict sets, fired
//!   instantiations, and working memory after every cycle, with the naive
//!   matcher as ground truth;
//! * [`shrink`] — a delta-debugging minimizer that, given a diverging
//!   case, drops productions, schedule rounds/ops, condition elements and
//!   attribute tests while the divergence persists, then emits the result
//!   as a runnable `.ops` + `.sched` reproducer pair ([`repro`]).
//!
//! The `mpps fuzz` CLI subcommand and the `MPPS_FUZZ_ITERS`-gated CI smoke
//! test are thin wrappers over [`fuzz_one`].
//!
//! [`NaiveMatcher`]: mpps_ops::NaiveMatcher
//! [`Interpreter`]: mpps_ops::Interpreter

pub mod gen;
pub mod oracle;
pub mod repro;
pub mod shrink;

use mpps_core::{Partition, ThreadedMatcher};
use mpps_ops::{Matcher, NaiveMatcher, OpsError, Program, TreatMatcher};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork, SplitSpec, TransformPlan};
use std::fmt;
use std::str::FromStr;

pub use gen::{generate_case, FuzzCase, GenConfig, Schedule, ScheduleOp};
pub use oracle::{replay, run_case, Divergence, MAX_STEPS_PER_ROUND, MAX_TOTAL_CYCLES};
pub use repro::{load_repro, render_ops, render_sched, write_repro};
pub use shrink::shrink_case;

/// One of the matcher implementations (or configurations) under test.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MatcherKind {
    /// Brute-force recomputation — the semantic reference.
    Naive,
    /// Sequential hashed-memory Rete.
    Rete,
    /// TREAT (alpha memories + conflict set, no beta state).
    Treat,
    /// Message-passing Rete over real threads.
    Threaded,
    /// Sequential Rete over a network rewritten with every applicable
    /// transform (per-production unsharing + copy-and-constraint splits).
    ReteTransformed,
    /// Threaded Rete over the same transformed network, on a
    /// non-round-robin partition that gives bucket 0 (and so every
    /// single-CE production) to worker 1.
    ThreadedTransformed,
}

impl MatcherKind {
    /// The four base matchers, reference first.
    pub const ALL: [MatcherKind; 4] = [
        MatcherKind::Naive,
        MatcherKind::Rete,
        MatcherKind::Treat,
        MatcherKind::Threaded,
    ];

    /// Every matcher configuration, including the transformed-network
    /// variants. This is what `"all"` parses to.
    pub const EXTENDED: [MatcherKind; 6] = [
        MatcherKind::Naive,
        MatcherKind::Rete,
        MatcherKind::Treat,
        MatcherKind::Threaded,
        MatcherKind::ReteTransformed,
        MatcherKind::ThreadedTransformed,
    ];

    /// CLI/display name.
    pub fn name(self) -> &'static str {
        match self {
            MatcherKind::Naive => "naive",
            MatcherKind::Rete => "rete",
            MatcherKind::Treat => "treat",
            MatcherKind::Threaded => "threaded",
            MatcherKind::ReteTransformed => "rete-transformed",
            MatcherKind::ThreadedTransformed => "threaded-transformed",
        }
    }

    /// Build a boxed matcher for `program`. The threaded matchers are kept
    /// deliberately small (2 workers, 64 buckets) — the fuzzer's programs
    /// are tiny and the point is agreement, not throughput.
    pub fn build(self, program: &Program) -> Result<Box<dyn Matcher>, OpsError> {
        Ok(match self {
            MatcherKind::Naive => Box::new(NaiveMatcher::new(program.clone())),
            MatcherKind::Rete => Box::new(ReteMatcher::from_program(program)?),
            MatcherKind::Treat => Box::new(TreatMatcher::new(program)),
            MatcherKind::Threaded => {
                let network = ReteNetwork::compile(program)?;
                Box::new(ThreadedMatcher::new(network, 2, 64))
            }
            MatcherKind::ReteTransformed => {
                let network = transformed_network(program)?;
                Box::new(ReteMatcher::new(network, EngineConfig::default()))
            }
            MatcherKind::ThreadedTransformed => {
                let network = transformed_network(program)?;
                // Blocks of three buckets, alternating workers, starting on
                // worker 1.
                let owners = (0..64).map(|b| (b / 3 + 1) % 2).collect();
                Box::new(ThreadedMatcher::with_partition(
                    network,
                    Partition::from_owners(owners, 2),
                ))
            }
        })
    }

    /// Parse a comma-separated matcher list (e.g. `"rete,treat"`); the
    /// literal `"all"` selects every matcher configuration, `"base"` the
    /// four plain matchers.
    pub fn parse_list(s: &str) -> Result<Vec<MatcherKind>, String> {
        if s == "all" {
            return Ok(Self::EXTENDED.to_vec());
        }
        if s == "base" {
            return Ok(Self::ALL.to_vec());
        }
        s.split(',')
            .map(|part| part.trim().parse())
            .collect::<Result<Vec<_>, _>>()
    }
}

/// A maximal [`TransformPlan`] for `program`: unshare every production and
/// split the first CE per production that admits a copy-and-constraint
/// (any positive CE with a tested attribute). Boundaries sit inside the
/// generator's tiny integer vocabulary so the variants genuinely partition
/// live values rather than degenerating to one hot range.
pub fn transform_plan_for(program: &Program) -> TransformPlan {
    let mut plan = TransformPlan::unshare_all(program);
    for (pid, prod) in program.iter() {
        'split: for (ci, ce) in prod.lhs.iter().enumerate() {
            if ce.negated {
                continue;
            }
            for test in &ce.tests {
                let spec = SplitSpec::new(ci, test.attr.as_str(), vec![1, 2]);
                if spec.validate(prod).is_ok() {
                    plan = plan.with_split(pid, spec);
                    break 'split;
                }
            }
        }
    }
    plan
}

fn transformed_network(program: &Program) -> Result<ReteNetwork, OpsError> {
    let plan = transform_plan_for(program);
    ReteNetwork::compile_planned(program, &plan)
}

impl fmt::Display for MatcherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for MatcherKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "naive" => Ok(MatcherKind::Naive),
            "rete" => Ok(MatcherKind::Rete),
            "treat" => Ok(MatcherKind::Treat),
            "threaded" => Ok(MatcherKind::Threaded),
            "rete-transformed" => Ok(MatcherKind::ReteTransformed),
            "threaded-transformed" => Ok(MatcherKind::ThreadedTransformed),
            other => Err(format!(
                "unknown matcher {other:?} (naive|rete|treat|threaded|\
                 rete-transformed|threaded-transformed|base|all)"
            )),
        }
    }
}

/// Generate case `seed`, oracle it, and — when it diverges and `do_shrink`
/// is set — minimize before returning. The returned pair is the (possibly
/// shrunk) case plus the divergence found on it, or `None` if all matchers
/// agreed.
pub fn fuzz_one(
    seed: u64,
    cfg: &GenConfig,
    matchers: &[MatcherKind],
    do_shrink: bool,
) -> (FuzzCase, Option<Divergence>) {
    let case = generate_case(seed, cfg);
    match run_case(&case, matchers) {
        None => (case, None),
        Some(div) => {
            if do_shrink {
                let small = shrink_case(&case, matchers, 1000);
                let small_div = run_case(&small, matchers).unwrap_or(div);
                (small, Some(small_div))
            } else {
                (case, Some(div))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_str() {
        for k in MatcherKind::EXTENDED {
            assert_eq!(k.name().parse::<MatcherKind>().unwrap(), k);
        }
    }

    #[test]
    fn parse_list_all_base_and_csv() {
        assert_eq!(MatcherKind::parse_list("all").unwrap().len(), 6);
        assert_eq!(MatcherKind::parse_list("base").unwrap().len(), 4);
        assert_eq!(
            MatcherKind::parse_list("rete, treat").unwrap(),
            vec![MatcherKind::Rete, MatcherKind::Treat]
        );
        assert_eq!(
            MatcherKind::parse_list("threaded-transformed").unwrap(),
            vec![MatcherKind::ThreadedTransformed]
        );
        assert!(MatcherKind::parse_list("bogus").is_err());
    }

    #[test]
    fn build_produces_working_matchers() {
        let prog = mpps_ops::parse_program("(p t (a ^p <v>) --> (remove 1))").unwrap();
        for k in MatcherKind::EXTENDED {
            let mut m = k.build(&prog).unwrap();
            m.process(&[mpps_ops::WmeChange::add(
                mpps_ops::WmeId(1),
                mpps_ops::Wme::new("a", &[("p", 1.into())]),
            )]);
            assert_eq!(m.conflict_set().len(), 1, "{k}");
        }
    }

    #[test]
    fn fuzz_plan_unshares_everything_and_splits_where_it_can() {
        let prog = mpps_ops::parse_program(
            "(p splittable (a ^p <v>) --> (remove 1))\
             (p bare (b) --> (remove 1))",
        )
        .unwrap();
        let plan = transform_plan_for(&prog);
        for (pid, _) in prog.iter() {
            assert!(plan.unshares(pid));
        }
        // Only the production with a tested attribute gets a split.
        assert_eq!(plan.splits().len(), 1);
        plan.validate(&prog).expect("fuzz plan must validate");
    }
}
