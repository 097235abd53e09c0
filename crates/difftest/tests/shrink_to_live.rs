//! Property test: freeing a matcher's spare capacity between batches
//! changes no match, and neither does the table size. Three Rete matchers
//! run every generated program and schedule in lockstep: two at the
//! drawn table size, of which one is shrunk (`ReteMatcher::shrink_to_live`,
//! plus the interpreter's refraction sweep, `Interpreter::shrink_to_live`)
//! after every batch and the other never is, and a never-shrunk reference
//! with 2048 buckets. Firings and (sorted) conflict sets must be equal
//! across all three after every cycle; the two at one table size must
//! also record equal activation traces.
//!
//! The schedule runs twice with a full retraction in between, so the
//! shrunk matcher also gives back a token arena that holds no live token
//! and then builds it up again. Small tables put several nodes' entries in
//! one bucket, so a bucket that must be kept sits next to ones that go;
//! with one bucket, every entry of a side shares one shrunk `Vec`.

use mpps_difftest::{generate_case, FuzzCase, GenConfig, ScheduleOp, MAX_STEPS_PER_ROUND};
use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{Interpreter, Matcher, Program, WmeId};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use proptest::prelude::*;

/// Cycles a case may run in all, across both passes.
const MAX_CYCLES: usize = 160;
/// One bucket, a few, and the engine default.
const TABLE_SIZES: [u64; 5] = [1, 2, 7, 64, 2048];
/// Table size of the never-shrunk reference.
const REFERENCE_TABLE_SIZE: u64 = 2048;

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
    /// Halted or failed (an RHS error, identically in all): the case ends.
    Stop,
}

/// The interpreters of one case: a never-shrunk reference at
/// [`REFERENCE_TABLE_SIZE`], and two at the drawn table size of which
/// only `shrunk` is shrunk.
struct Lockstep {
    reference: Rete,
    kept: Rete,
    shrunk: Rete,
}

impl Lockstep {
    fn new(program: &Program, case: &FuzzCase, table_size: u64) -> Lockstep {
        Lockstep {
            reference: interpreter(program, case, REFERENCE_TABLE_SIZE),
            kept: interpreter(program, case, table_size),
            shrunk: interpreter(program, case, table_size),
        }
    }

    fn all(&mut self) -> [&mut Rete; 3] {
        [&mut self.reference, &mut self.kept, &mut self.shrunk]
    }

    /// Step every interpreter once, shrink one of them, and compare.
    fn step(&mut self) -> Next {
        let r = self.reference.step();
        let a = self.kept.step();
        let b = self.shrunk.step();
        self.shrunk.shrink_to_live();
        self.shrunk.matcher_mut().shrink_to_live();
        for (other, what) in [(&a, "shrunk"), (&r, "reference")] {
            match (&b, other) {
                (Ok(StepOutcome::Fired(x)), Ok(StepOutcome::Fired(y))) => {
                    assert_eq!(x, y, "{what} firings diverged")
                }
                (Ok(StepOutcome::Quiescent), Ok(StepOutcome::Quiescent)) | (Err(_), Err(_)) => {}
                _ => panic!("{what} step outcomes diverged: {b:?} vs {other:?}"),
            }
        }
        let conflict_set = self.shrunk.matcher().conflict_set();
        assert_eq!(
            self.kept.matcher().conflict_set(),
            conflict_set,
            "conflict sets diverged"
        );
        assert_eq!(
            self.reference.matcher().conflict_set(),
            conflict_set,
            "conflict sets diverged across table sizes"
        );
        let trace = |i: &Rete| i.matcher().trace().expect("tracing is on").cycles.clone();
        let (ta, tb) = (trace(&self.kept), trace(&self.shrunk));
        assert_eq!(ta.len(), tb.len());
        for (cycle, (x, y)) in ta.iter().zip(&tb).enumerate() {
            assert_eq!(x.activations, y.activations, "trace cycle {cycle}");
        }
        match a {
            Err(_) => Next::Stop,
            Ok(_) if self.kept.is_halted() => Next::Stop,
            Ok(StepOutcome::Quiescent) => Next::Round,
            Ok(StepOutcome::Fired(_)) => Next::Step,
        }
    }

    /// Apply one round's external changes to every interpreter.
    fn apply(&mut self, ops: &[ScheduleOp]) {
        for op in ops {
            match op {
                ScheduleOp::Make(wme) => {
                    for i in self.all() {
                        i.add_wme(wme.clone());
                    }
                }
                ScheduleOp::RemoveNth(n) => {
                    let ids = self.live_ids();
                    if let Some(&id) = ids.get(n % ids.len().max(1)) {
                        for i in self.all() {
                            i.remove_wme(id).expect("all hold the same WM");
                        }
                    }
                }
            }
        }
    }

    fn live_ids(&self) -> Vec<WmeId> {
        self.kept
            .working_memory()
            .iter()
            .map(|(id, _)| id)
            .collect()
    }
}

fn assert_shrink_changes_nothing(program: &Program, case: &FuzzCase, table_size: u64) {
    let mut run = Lockstep::new(program, case, table_size);
    let mut cycles = 0;
    for pass in 0..2 {
        if pass == 1 {
            // Retract everything: the shrunk arena then holds no live
            // token (unless a leading negation seeded one) and goes.
            for id in run.live_ids() {
                for i in run.all() {
                    i.remove_wme(id).expect("retract");
                }
            }
        }
        for ops in &case.schedule.rounds {
            run.apply(ops);
            for _ in 0..MAX_STEPS_PER_ROUND {
                if cycles == MAX_CYCLES {
                    return;
                }
                cycles += 1;
                match run.step() {
                    Next::Step => {}
                    Next::Round => break,
                    Next::Stop => return,
                }
            }
        }
    }
}

proptest! {
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
