//! Property test: freeing a matcher's spare capacity between batches
//! changes no match. Two Rete matchers run every generated program and
//! schedule in lockstep; one is shrunk (`ReteMatcher::shrink_to_live`,
//! plus the interpreter's refraction sweep, `Interpreter::shrink_to_live`)
//! after every batch and the other never is. Their firings, conflict sets
//! and recorded activation traces must be equal after every cycle.
//!
//! The schedule runs twice with a full retraction in between, so the
//! shrunk matcher also gives back a token arena that holds no live token
//! and then builds it up again. Small tables put several nodes' entries in
//! one bucket, so a bucket that must be kept sits next to ones that go.

use mpps_difftest::{generate_case, FuzzCase, GenConfig, ScheduleOp, MAX_STEPS_PER_ROUND};
use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{Interpreter, Matcher, Program, WmeId};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use proptest::prelude::*;

/// Cycles a case may run in all, across both passes.
const MAX_CYCLES: usize = 160;
/// One bucket, a few, and the engine default.
const TABLE_SIZES: [u64; 5] = [1, 2, 7, 64, 2048];

type Rete = Interpreter<ReteMatcher>;

fn interpreter(program: &Program, case: &FuzzCase, table_size: u64) -> Rete {
    let network = ReteNetwork::compile(program).expect("generated programs compile");
    let config = EngineConfig {
        table_size,
        record_trace: true,
    };
    Interpreter::with_matcher(
        program.clone(),
        case.strategy,
        ReteMatcher::new(network, config),
    )
}

/// What the interpreters did in one lockstep cycle.
enum Next {
    /// Fired: keep stepping.
    Step,
    /// Quiescent: go on with the next round.
    Round,
    /// Halted or failed (an RHS error, identically in both): the case ends.
    Stop,
}

/// Step both interpreters once, shrink one of them, and compare.
fn step_both(kept: &mut Rete, shrunk: &mut Rete) -> Next {
    let a = kept.step();
    let b = shrunk.step();
    shrunk.shrink_to_live();
    shrunk.matcher_mut().shrink_to_live();
    match (&a, &b) {
        (Ok(StepOutcome::Fired(x)), Ok(StepOutcome::Fired(y))) => {
            assert_eq!(x, y, "firings diverged")
        }
        (Ok(StepOutcome::Quiescent), Ok(StepOutcome::Quiescent)) | (Err(_), Err(_)) => {}
        _ => panic!("step outcomes diverged: {a:?} vs {b:?}"),
    }
    assert_eq!(
        kept.matcher().conflict_set(),
        shrunk.matcher().conflict_set(),
        "conflict sets diverged"
    );
    let trace = |i: &Rete| i.matcher().trace().expect("tracing is on").cycles.clone();
    let (ta, tb) = (trace(kept), trace(shrunk));
    assert_eq!(ta.len(), tb.len());
    for (cycle, (x, y)) in ta.iter().zip(&tb).enumerate() {
        assert_eq!(x.activations, y.activations, "trace cycle {cycle}");
    }
    match a {
        Err(_) => Next::Stop,
        Ok(_) if kept.is_halted() => Next::Stop,
        Ok(StepOutcome::Quiescent) => Next::Round,
        Ok(StepOutcome::Fired(_)) => Next::Step,
    }
}

/// Apply one round's external changes to both interpreters.
fn apply(ops: &[ScheduleOp], kept: &mut Rete, shrunk: &mut Rete) {
    for op in ops {
        match op {
            ScheduleOp::Make(wme) => {
                kept.add_wme(wme.clone());
                shrunk.add_wme(wme.clone());
            }
            ScheduleOp::RemoveNth(n) => {
                let ids: Vec<WmeId> = kept.working_memory().iter().map(|(id, _)| id).collect();
                if let Some(&id) = ids.get(n % ids.len().max(1)) {
                    kept.remove_wme(id).expect("id drawn from live WM");
                    shrunk.remove_wme(id).expect("both hold the same WM");
                }
            }
        }
    }
}

fn assert_shrink_changes_nothing(program: &Program, case: &FuzzCase, table_size: u64) {
    let mut kept = interpreter(program, case, table_size);
    let mut shrunk = interpreter(program, case, table_size);
    let mut cycles = 0;
    for pass in 0..2 {
        if pass == 1 {
            // Retract everything: the shrunk arena then holds no live
            // token (unless a leading negation seeded one) and goes.
            let ids: Vec<WmeId> = kept.working_memory().iter().map(|(id, _)| id).collect();
            for id in ids {
                kept.remove_wme(id).expect("retract");
                shrunk.remove_wme(id).expect("retract");
            }
        }
        for ops in &case.schedule.rounds {
            apply(ops, &mut kept, &mut shrunk);
            for _ in 0..MAX_STEPS_PER_ROUND {
                if cycles == MAX_CYCLES {
                    return;
                }
                cycles += 1;
                match step_both(&mut kept, &mut shrunk) {
                    Next::Step => {}
                    Next::Round => break,
                    Next::Stop => return,
                }
            }
        }
    }
}

proptest! {
    // The vendored proptest runner draws the same inputs for cases c, c^1,
    // c^4 and c^5, so these are 128 distinct draws.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn shrinking_between_batches_changes_no_match(
        seed in 0u64..1 << 20,
        table in 0..TABLE_SIZES.len(),
    ) {
        let case = generate_case(seed, &GenConfig::default());
        // An invalid program would be a generator bug, not a shrink bug.
        if let Ok(program) = case.program() {
            assert_shrink_changes_nothing(&program, &case, TABLE_SIZES[table]);
        }
    }
}
