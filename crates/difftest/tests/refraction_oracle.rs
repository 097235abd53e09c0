//! Refraction that forgets dead keys fires exactly what refraction that
//! remembers every key fires.
//!
//! The interpreter drops a refraction key once one of its WMEs has left
//! working memory (time tags are never reused, so that instantiation can
//! never appear again). This oracle re-derives every firing from first
//! principles: a wrapper matcher records each conflict set the
//! interpreter reads, and the instantiation that fired must be
//! `conflict::select` over that set with refraction = *every key fired so
//! far in the run* — the unpruned rule. Quiescence must coincide with
//! that selection being empty. Programs and schedules come from the
//! differential fuzzer's generator (negations, external removals,
//! runaway `make` loops), each run under both strategies, with an
//! `export_state` → `with_shared_state` cut at a random step whose export
//! must be exactly the fired keys still live. A hand-built case covers
//! the one shape the generator rarely reaches: instantiations blocked by a
//! negated CE across sweeps, then unblocked.

use mpps_difftest::{generate_case, FuzzCase, GenConfig, MatcherKind, Schedule, ScheduleOp};
use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{
    parse_program, parse_wme, select, Instantiation, Interpreter, MatchError, Matcher,
    ProductionId, Program, Strategy, WmeChange, WmeId,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

/// Longer runs than the differential oracle's, so the refraction memory
/// is swept many times within one case.
const CONFIG: GenConfig = GenConfig {
    max_productions: 4,
    max_rounds: 12,
    max_ops_per_round: 4,
};
const STEPS_PER_ROUND: usize = 32;

/// A matcher that remembers every conflict set it hands out.
struct Recording {
    inner: Box<dyn Matcher>,
    seen: RefCell<Vec<Vec<Instantiation>>>,
}

impl Recording {
    fn rete(program: &Program) -> Recording {
        Recording {
            inner: MatcherKind::Rete
                .build(program)
                .expect("generated programs compile"),
            seen: RefCell::new(Vec::new()),
        }
    }
}

impl Matcher for Recording {
    fn process(&mut self, changes: &[WmeChange]) {
        self.inner.process(changes)
    }

    fn try_process(&mut self, changes: &[WmeChange]) -> Result<(), MatchError> {
        self.inner.try_process(changes)
    }

    fn conflict_set(&self) -> Vec<Instantiation> {
        let set = self.inner.conflict_set();
        self.seen.borrow_mut().push(set.clone());
        set
    }
}

/// Run `case` under `strategy`, cutting at step `cut`, checking every
/// step against the unpruned rule. Returns the number of firings.
fn check(label: &str, case: &FuzzCase, strategy: Strategy, cut: usize) -> usize {
    let program = Arc::new(case.program().expect("generated programs validate"));
    let mut interp =
        Interpreter::with_shared_program(Arc::clone(&program), strategy, Recording::rete(&program));
    let mut fired_ever: HashSet<(ProductionId, Vec<WmeId>)> = HashSet::new();
    let mut steps = 0;
    for ops in &case.schedule.rounds {
        for op in ops {
            match op {
                ScheduleOp::Make(wme) => {
                    interp.add_wme(wme.clone());
                }
                ScheduleOp::RemoveNth(n) => {
                    let live: Vec<WmeId> =
                        interp.working_memory().iter().map(|(id, _)| id).collect();
                    if !live.is_empty() {
                        interp.remove_wme(live[n % live.len()]).unwrap();
                    }
                }
            }
        }
        for _ in 0..STEPS_PER_ROUND {
            if steps == cut {
                // The export is exactly the fired keys whose WMEs are all
                // still in working memory, sorted.
                let state = interp.export_state();
                let wm = interp.working_memory();
                let mut live: Vec<_> = fired_ever
                    .iter()
                    .filter(|(_, ids)| ids.iter().all(|&id| wm.get(id).is_some()))
                    .cloned()
                    .collect();
                live.sort();
                assert_eq!(state.fired_keys, live, "{label} cut {cut}: export");
                interp = Interpreter::with_shared_state(
                    Arc::clone(&program),
                    Recording::rete(&program),
                    state,
                )
                .expect("restore replays cleanly");
            }
            steps += 1;
            let at = format!("{label} {strategy:?} cut {cut} step {steps}");
            // A runtime RHS error (a modify of an element the same RHS
            // removed) ends the case; nothing after it is defined.
            let Ok(outcome) = interp.step() else {
                return fired_ever.len();
            };
            let seen = interp.matcher().seen.take();
            assert_eq!(seen.len(), 1, "{at}: one conflict-set read per step");
            let expected = select(&program, strategy, &seen[0], |i| {
                fired_ever.contains(&i.key())
            });
            match (outcome, expected) {
                (StepOutcome::Fired(record), Some(inst)) => {
                    assert_eq!(
                        (record.production, record.wme_ids),
                        inst.key(),
                        "{at}: fired the wrong instantiation"
                    );
                    assert!(fired_ever.insert(inst.key()), "{at}: refired {inst}");
                }
                (StepOutcome::Quiescent, None) => break,
                (StepOutcome::Fired(record), None) => {
                    panic!("{at}: fired {record:?} where every candidate had fired")
                }
                (StepOutcome::Quiescent, Some(inst)) => {
                    panic!("{at}: quiescent with {inst} never fired")
                }
            }
            if interp.is_halted() {
                return fired_ever.len();
            }
        }
    }
    fired_ever.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pruned_refraction_fires_what_unpruned_refraction_fires(
        seed in 0u64..1_000_000,
        cut in 0usize..96,
    ) {
        let case = generate_case(seed, &CONFIG);
        for strategy in [Strategy::Lex, Strategy::Mea] {
            check(&format!("seed {seed}"), &case, strategy, cut);
        }
    }
}

/// Vacuity guard: the oracle only means something if runs are long
/// enough for the refraction memory to be swept (it is, well before 64
/// keys). Demand a healthy share of such runs.
#[test]
fn generated_runs_are_long_enough_to_sweep() {
    let long = (0..100u64)
        .filter(|&seed| {
            let case = generate_case(seed, &CONFIG);
            check(&format!("seed {seed}"), &case, Strategy::Lex, usize::MAX) >= 64
        })
        .count();
    assert!(long >= 10, "only {long}/100 runs fired 64 times");
}

/// The case that separates the liveness rule from "drop the key when its
/// instantiation leaves the conflict set": twenty instantiations fire, a
/// negated CE blocks them all (their WMEs stay live), forty firings of
/// dying keys force sweeps, and then the block goes. Refraction must
/// still hold every one of the twenty — across a cut at any point too.
#[test]
fn blocked_then_unblocked_instantiations_stay_refracted() {
    let program = parse_program(
        r#"
        (p watch (item ^id <i>) -(block) --> (write saw <i>))
        (p consume (junk) --> (remove 1))
        "#,
    )
    .unwrap();
    let make = |text: &str, n: usize| -> Vec<ScheduleOp> {
        (0..n)
            .map(|i| ScheduleOp::Make(parse_wme(&text.replace('N', &i.to_string())).unwrap()))
            .collect()
    };
    let case = FuzzCase {
        productions: program.iter().map(|(_, p)| p.clone()).collect(),
        strategy: Strategy::Lex,
        schedule: Schedule {
            rounds: vec![
                make("(item ^id N)", 20),
                make("(block)", 1),
                make("(junk ^n N)", 20),
                make("(junk ^n N)", 20),
                // Working memory is the twenty items and the block.
                vec![ScheduleOp::RemoveNth(20)],
            ],
        },
    };
    for strategy in [Strategy::Lex, Strategy::Mea] {
        for cut in [usize::MAX, 0, 10, 21, 22, 40, 60, 63, 64] {
            assert_eq!(check("block/unblock", &case, strategy, cut), 60);
        }
    }
}
