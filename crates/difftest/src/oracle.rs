//! The differential oracle: run every matcher through the same interpreter
//! cycles in lockstep and compare observable state after each cycle.
//!
//! The naive matcher is always the ground truth — it is driven even when
//! the caller's matcher list omits it. After every cycle the oracle
//! compares, per matcher:
//!
//! * the **conflict set** (sorted canonically),
//! * the **step outcome** (which instantiation fired, or quiescence),
//! * the full **working memory** contents, and
//! * the halt flag.
//!
//! The first mismatch wins; the report names the diverging matcher, the
//! schedule round and interpreter cycle, and carries a human-readable
//! expected/actual diff for the CLI to print.

use crate::gen::{FuzzCase, ScheduleOp};
use crate::MatcherKind;
use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{Instantiation, Interpreter, Matcher, Program, Wme, WmeId};
use std::fmt;

/// Fire at most this many cycles after each schedule round (generated
/// programs can loop; the bound keeps the oracle total).
pub const MAX_STEPS_PER_ROUND: usize = 8;
/// Hard cap on cycles across the whole case.
pub const MAX_TOTAL_CYCLES: usize = 64;

/// A detected disagreement between a matcher and the naive reference.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The matcher that disagreed with the reference.
    pub matcher: MatcherKind,
    /// 0-based schedule round in which the mismatch surfaced.
    pub round: usize,
    /// Interpreter cycle count at the mismatch.
    pub cycle: usize,
    /// What differed (conflict set, firing, WM, …), expected vs actual.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} diverged from naive at round {}, cycle {}: {}",
            self.matcher, self.round, self.cycle, self.detail
        )
    }
}

fn clip(s: String) -> String {
    const MAX: usize = 600;
    if s.len() <= MAX {
        s
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

fn show_insts(set: &[Instantiation]) -> String {
    let items: Vec<String> = set.iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(" "))
}

fn show_wm(wm: &[(WmeId, Wme)]) -> String {
    let items: Vec<String> = wm.iter().map(|(id, w)| format!("{id}:{w}")).collect();
    format!("{{{}}}", items.join(" "))
}

fn wm_snapshot(interp: &Interpreter<Box<dyn Matcher>>) -> Vec<(WmeId, Wme)> {
    interp
        .working_memory()
        .iter()
        .map(|(id, w)| (id, w.clone()))
        .collect()
}

struct Lane {
    kind: MatcherKind,
    interp: Interpreter<Box<dyn Matcher>>,
}

/// Drive `case` through the reference plus every requested matcher.
/// Returns the first divergence, or `None` when they all agree to the end
/// of the schedule (or the cycle cap).
pub fn run_case(case: &FuzzCase, matchers: &[MatcherKind]) -> Option<Divergence> {
    let program = match case.program() {
        Ok(p) => p,
        // An invalid program is a generator bug, not a matcher divergence.
        Err(_) => return None,
    };

    let mut reference = Interpreter::with_matcher(
        program.clone(),
        case.strategy,
        MatcherKind::Naive
            .build(&program)
            .expect("naive matcher always builds"),
    );
    let mut lanes: Vec<Lane> = Vec::new();
    for &kind in matchers {
        if kind == MatcherKind::Naive {
            continue;
        }
        match kind.build(&program) {
            Ok(m) => lanes.push(Lane {
                kind,
                interp: Interpreter::with_matcher(program.clone(), case.strategy, m),
            }),
            Err(e) => {
                return Some(Divergence {
                    matcher: kind,
                    round: 0,
                    cycle: 0,
                    detail: clip(format!("failed to build for a valid program: {e}")),
                })
            }
        }
    }

    let mut total_cycles = 0usize;
    for (round, ops) in case.schedule.rounds.iter().enumerate() {
        // External changes, resolved against the reference WM so RemoveNth
        // is well-defined, then mirrored into every lane.
        for op in ops {
            match op {
                ScheduleOp::Make(wme) => {
                    reference.add_wme(wme.clone());
                    for lane in &mut lanes {
                        lane.interp.add_wme(wme.clone());
                    }
                }
                ScheduleOp::RemoveNth(n) => {
                    let ids: Vec<WmeId> = reference
                        .working_memory()
                        .iter()
                        .map(|(id, _)| id)
                        .collect();
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids[n % ids.len()];
                    reference.remove_wme(id).expect("id drawn from live WM");
                    for lane in &mut lanes {
                        if let Err(e) = lane.interp.remove_wme(id) {
                            return Some(Divergence {
                                matcher: lane.kind,
                                round,
                                cycle: total_cycles,
                                detail: clip(format!("WM missing {id} that naive holds: {e}")),
                            });
                        }
                    }
                }
            }
        }

        // Fire until quiescence (bounded), comparing after every cycle.
        for _ in 0..MAX_STEPS_PER_ROUND {
            if total_cycles >= MAX_TOTAL_CYCLES {
                return None;
            }
            total_cycles += 1;
            let ref_step = reference.step();
            for lane in &mut lanes {
                let lane_step = lane.interp.step();
                if let Some(detail) = compare_cycle(&reference, &ref_step, lane, &lane_step) {
                    return Some(Divergence {
                        matcher: lane.kind,
                        round,
                        cycle: total_cycles,
                        detail,
                    });
                }
            }
            let quiescent = matches!(ref_step, Ok(StepOutcome::Quiescent));
            if quiescent || ref_step.is_err() || reference.is_halted() {
                if ref_step.is_err() {
                    // Reference hit a runtime RHS error (every lane hit the
                    // same one — checked above); the case ends here.
                    return None;
                }
                break;
            }
        }
        if reference.is_halted() {
            break;
        }
    }
    None
}

/// Drive `case`'s schedule through a single `matcher` at the oracle's
/// cadence (same per-round and total cycle bounds) — nothing is compared;
/// this is how profiled matchers are dragged through the generated
/// grammar. `RemoveNth` resolves against this lane's own WM, which matches
/// the oracle whenever the matchers agree (and is merely a different valid
/// schedule when not).
pub fn replay<M: Matcher>(case: &FuzzCase, program: &Program, matcher: M) -> Interpreter<M> {
    let mut interp = Interpreter::with_matcher(program.clone(), case.strategy, matcher);
    let mut total_cycles = 0usize;
    'rounds: for ops in &case.schedule.rounds {
        for op in ops {
            match op {
                ScheduleOp::Make(wme) => {
                    interp.add_wme(wme.clone());
                }
                ScheduleOp::RemoveNth(n) => {
                    let ids: Vec<WmeId> =
                        interp.working_memory().iter().map(|(id, _)| id).collect();
                    if !ids.is_empty() {
                        let id = ids[n % ids.len()];
                        interp.remove_wme(id).expect("id drawn from live WM");
                    }
                }
            }
        }
        for _ in 0..MAX_STEPS_PER_ROUND {
            if total_cycles >= MAX_TOTAL_CYCLES {
                break 'rounds;
            }
            total_cycles += 1;
            if !matches!(interp.step(), Ok(StepOutcome::Fired(_))) || interp.is_halted() {
                break;
            }
        }
        if interp.is_halted() {
            break;
        }
    }
    interp
}

/// Compare one lane against the reference after a cycle; `Some(detail)` on
/// the first mismatch.
fn compare_cycle(
    reference: &Interpreter<Box<dyn Matcher>>,
    ref_step: &Result<StepOutcome, mpps_ops::OpsError>,
    lane: &Lane,
    lane_step: &Result<StepOutcome, mpps_ops::OpsError>,
) -> Option<String> {
    match (ref_step, lane_step) {
        (Ok(a), Ok(b)) => {
            let same = match (a, b) {
                (StepOutcome::Fired(x), StepOutcome::Fired(y)) => x == y,
                (StepOutcome::Quiescent, StepOutcome::Quiescent) => true,
                _ => false,
            };
            if !same {
                return Some(clip(format!("step produced {b:?}, naive produced {a:?}")));
            }
        }
        (Err(a), Err(_b)) => {
            // Both failed the same cycle (e.g. modify of a stale WME);
            // treat as agreement — the interpreter surfaces the error to
            // its caller identically.
            let _ = a;
        }
        (Ok(a), Err(b)) => {
            return Some(clip(format!("step error {b}, naive stepped {a:?}")));
        }
        (Err(a), Ok(b)) => {
            return Some(clip(format!("stepped {b:?}, naive errored {a}")));
        }
    }

    // Compared as returned: canonical order is part of the contract.
    let ref_cs = reference.matcher().conflict_set();
    let lane_cs = lane.interp.matcher().conflict_set();
    if ref_cs != lane_cs {
        return Some(clip(format!(
            "conflict set {} but naive has {}",
            show_insts(&lane_cs),
            show_insts(&ref_cs)
        )));
    }

    let ref_wm = wm_snapshot(reference);
    let lane_wm = wm_snapshot(&lane.interp);
    if ref_wm != lane_wm {
        return Some(clip(format!(
            "WM {} but naive has {}",
            show_wm(&lane_wm),
            show_wm(&ref_wm)
        )));
    }

    if reference.is_halted() != lane.interp.is_halted() {
        return Some("halt flag differs from naive".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenConfig, Schedule};
    use mpps_ops::{parse_program, parse_wme, Strategy};

    fn case_from(src: &str, strategy: Strategy, rounds: Vec<Vec<ScheduleOp>>) -> FuzzCase {
        let program = parse_program(src).unwrap();
        FuzzCase {
            productions: program.iter().map(|(_, p)| p.clone()).collect(),
            strategy,
            schedule: Schedule { rounds },
        }
    }

    fn mk(s: &str) -> ScheduleOp {
        ScheduleOp::Make(parse_wme(s).unwrap())
    }

    #[test]
    fn agreeing_case_reports_none() {
        let case = case_from(
            "(p t (a ^p <v>) (b ^q <v>) --> (remove 1))",
            Strategy::Lex,
            vec![
                vec![mk("(a ^p 1)"), mk("(b ^q 1)")],
                vec![mk("(a ^p 2)")],
                vec![ScheduleOp::RemoveNth(0)],
            ],
        );
        assert!(run_case(&case, &MatcherKind::ALL).is_none());
    }

    #[test]
    fn treat_negation_visibility_case_agrees_after_fix() {
        // The exact shape the fuzzer minimized the historical TREAT
        // positional-negation bug to; pinned here and in tests/corpus/.
        let case = case_from(
            "(p diverge (a) -(b ^q <v>) (c ^r <v>) --> (remove 1))",
            Strategy::Lex,
            vec![vec![mk("(c ^r 1)"), mk("(a)"), mk("(b ^q 2)")]],
        );
        assert!(run_case(&case, &MatcherKind::ALL).is_none());
    }

    #[test]
    fn leading_negation_case_agrees_across_all_matchers() {
        let case = case_from(
            "(p guard -(inhibit ^on <w>) (job ^id <w>) --> (remove 1))",
            Strategy::Mea,
            vec![
                vec![mk("(job ^id 1)")],
                vec![mk("(inhibit ^on 2)")],
                vec![ScheduleOp::RemoveNth(1)],
            ],
        );
        assert!(run_case(&case, &MatcherKind::ALL).is_none());
    }

    #[test]
    fn oracle_bounds_runaway_programs() {
        // Fires forever (make with no removal); the oracle must terminate.
        let case = case_from(
            "(p loop (a) --> (make a))",
            Strategy::Lex,
            vec![vec![mk("(a)")]; 20],
        );
        assert!(run_case(&case, &MatcherKind::ALL).is_none());
    }

    #[test]
    fn broken_matcher_is_caught() {
        // A matcher that silently drops every instantiation must be flagged
        // on the very first cycle with WMEs present.
        struct Mute;
        impl Matcher for Mute {
            fn process(&mut self, _changes: &[mpps_ops::WmeChange]) {}
            fn conflict_set(&self) -> Vec<Instantiation> {
                Vec::new()
            }
        }
        let program = parse_program("(p t (a) --> (remove 1))").unwrap();
        let mut reference = Interpreter::with_matcher(
            program.clone(),
            Strategy::Lex,
            MatcherKind::Naive.build(&program).unwrap(),
        );
        let boxed: Box<dyn Matcher> = Box::new(Mute);
        let lane_interp = Interpreter::with_matcher(program, Strategy::Lex, boxed);
        let mut lane = Lane {
            kind: MatcherKind::Rete,
            interp: lane_interp,
        };
        reference.add_wme(parse_wme("(a)").unwrap());
        lane.interp.add_wme(parse_wme("(a)").unwrap());
        let r = reference.step();
        let l = lane.interp.step();
        let detail = compare_cycle(&reference, &r, &lane, &l).expect("must diverge");
        assert!(detail.contains("naive"), "{detail}");
    }

    #[test]
    fn random_cases_currently_all_agree() {
        // A miniature in-process smoke run; the heavy version is the
        // `MPPS_FUZZ_ITERS`-gated integration test and `mpps fuzz`.
        let cfg = GenConfig::default();
        for seed in 0..25 {
            let case = crate::generate_case(seed, &cfg);
            if let Some(d) = run_case(&case, &MatcherKind::EXTENDED) {
                panic!("seed {seed} diverged: {d}");
            }
        }
    }
}
