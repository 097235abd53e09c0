//! Property tests: any sequence of network transforms — per-production
//! unsharing plus copy-and-constraint splits, in any combination — is
//! semantics-preserving. A transformed network must produce the same
//! per-cycle conflict sets and working memory as the untransformed one on
//! fuzz-generator programs, each driven through three independent
//! workloads, and must drain its token arena completely once every WME is
//! retracted (the arena-token invariant).

// The oracle's cycle bounds keep generated loops finite.
use mpps_difftest::{
    generate_case, FuzzCase, GenConfig, ScheduleOp, MAX_STEPS_PER_ROUND, MAX_TOTAL_CYCLES,
};
use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{Interpreter, Matcher, Program, WmeId};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork, SplitSpec, TransformPlan};
use proptest::prelude::*;

/// Build a random transform plan for `program`, consuming `decisions` as a
/// replayable coin stream: each production is independently unshared,
/// split (on a randomly chosen CE/attribute candidate with random
/// boundaries), both, or left alone.
fn random_plan(program: &Program, decisions: &[u8]) -> TransformPlan {
    const BOUNDARY_MENU: &[&[i64]] = &[&[1], &[2], &[0], &[1, 2], &[0, 1, 2, 3]];
    let mut stream = decisions.iter().copied().cycle();
    let mut next = move || stream.next().expect("decision stream is non-empty");
    let mut plan = TransformPlan::new();
    for (pid, prod) in program.iter() {
        if next() & 1 == 1 {
            plan = plan.with_unshare(pid);
        }
        if next() & 1 == 0 {
            continue;
        }
        let boundaries = BOUNDARY_MENU[next() as usize % BOUNDARY_MENU.len()];
        let mut candidates = Vec::new();
        for (ci, ce) in prod.lhs.iter().enumerate() {
            for test in &ce.tests {
                let spec = SplitSpec::new(ci, test.attr.as_str(), boundaries.to_vec());
                if spec.validate(prod).is_ok() {
                    candidates.push(spec);
                }
            }
        }
        if !candidates.is_empty() {
            let pick = next() as usize % candidates.len();
            plan = plan.with_split(pid, candidates.swap_remove(pick));
        }
    }
    plan
}

fn matcher_for(program: &Program, plan: &TransformPlan) -> ReteMatcher {
    let network = ReteNetwork::compile_planned(program, plan)
        .expect("plan was validated candidate by candidate");
    ReteMatcher::new(network, EngineConfig::default())
}

/// Drive baseline and transformed matchers through `case`'s schedule in
/// lockstep, comparing conflict set and WM after every interpreter cycle.
fn assert_equivalent_on(program: &Program, plan: &TransformPlan, case: &FuzzCase) {
    let base = matcher_for(program, &TransformPlan::new());
    let xform = matcher_for(program, plan);
    // Dummy tokens seeded at compile time (leading-negated-CE chains) live
    // for the network's whole lifetime; the drain check below must not
    // count them. The floors differ: unsharing duplicates dummy chains.
    let base_floor = base.arena_live();
    let xform_floor = xform.arena_live();
    let mut base = Interpreter::with_matcher(program.clone(), case.strategy, base);
    let mut xform = Interpreter::with_matcher(program.clone(), case.strategy, xform);

    let mut total_cycles = 0usize;
    'rounds: for ops in &case.schedule.rounds {
        for op in ops {
            match op {
                ScheduleOp::Make(wme) => {
                    base.add_wme(wme.clone());
                    xform.add_wme(wme.clone());
                }
                ScheduleOp::RemoveNth(n) => {
                    let ids: Vec<WmeId> = base.working_memory().iter().map(|(id, _)| id).collect();
                    if ids.is_empty() {
                        continue;
                    }
                    let id = ids[n % ids.len()];
                    base.remove_wme(id).expect("id drawn from live WM");
                    prop_assert!(
                        xform.remove_wme(id).is_ok(),
                        "transformed WM is missing {id} that baseline holds"
                    );
                }
            }
        }
        for _ in 0..MAX_STEPS_PER_ROUND {
            if total_cycles >= MAX_TOTAL_CYCLES {
                break 'rounds;
            }
            total_cycles += 1;
            let a = base.step();
            let b = xform.step();
            match (&a, &b) {
                (Ok(x), Ok(y)) => {
                    let same = match (x, y) {
                        (StepOutcome::Fired(f), StepOutcome::Fired(g)) => f == g,
                        (StepOutcome::Quiescent, StepOutcome::Quiescent) => true,
                        _ => false,
                    };
                    prop_assert!(same, "step outcome diverged: base {x:?}, transformed {y:?}");
                }
                (Err(_), Err(_)) => {}
                _ => prop_assert!(false, "one matcher errored: base {a:?}, transformed {b:?}"),
            }
            let cs_a = base.matcher().conflict_set();
            let cs_b = xform.matcher().conflict_set();
            prop_assert_eq!(cs_a, cs_b, "conflict sets diverged");
            let wm_a: Vec<_> = base.working_memory().iter().collect();
            let wm_b: Vec<_> = xform.working_memory().iter().collect();
            prop_assert_eq!(wm_a, wm_b, "working memories diverged");
            let quiescent = matches!(a, Ok(StepOutcome::Quiescent));
            if quiescent || a.is_err() || base.is_halted() {
                if a.is_err() {
                    return;
                }
                break;
            }
        }
        if base.is_halted() {
            break;
        }
    }

    // Arena-token invariant: retracting every remaining WME must drain the
    // transformed network's token arena exactly like the baseline's —
    // copies and unshared chains hold more tokens while live, never after.
    // Retractions are pending until the next match phase, and fired
    // productions may `make` fresh WMEs, so drain in bounded rounds.
    for _ in 0..16 {
        let ids: Vec<WmeId> = base.working_memory().iter().map(|(id, _)| id).collect();
        if ids.is_empty() {
            break;
        }
        for id in ids {
            base.remove_wme(id).expect("retract from baseline");
            xform.remove_wme(id).expect("retract from transformed");
        }
        let a = base.step();
        let b = xform.step();
        if a.is_err() || b.is_err() {
            return;
        }
    }
    if !base.working_memory().is_empty() {
        // A make-looping program kept WM occupied; the drain invariant
        // does not apply.
        return;
    }
    prop_assert_eq!(base.matcher().arena_live(), base_floor);
    prop_assert_eq!(
        xform.matcher().arena_live(),
        xform_floor,
        "transformed network leaked arena tokens after full retraction"
    );
    prop_assert_eq!(xform.matcher().conflict_set().len(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random plan × generated program × 3 workloads: the transformed
    /// network is observably identical to the untransformed one.
    #[test]
    fn transforms_preserve_conflict_sets_and_wm(
        seed in 0u64..4096,
        wseed in 0u64..4096,
        decisions in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let cfg = GenConfig::default();
        let case = generate_case(seed, &cfg);
        // An invalid program would be a generator bug, not a transform bug.
        if let Ok(program) = case.program() {
            let plan = random_plan(&program, &decisions);
            plan.validate(&program).expect("random plan must be valid by construction");

            // Workload 1: the case's own schedule. Workloads 2 and 3: the
            // schedules of two other generated cases — the generator draws
            // from one shared class/attribute vocabulary, so foreign
            // schedules still exercise this program's alpha network.
            assert_equivalent_on(&program, &plan, &case);
            for extra in [wseed, wseed.wrapping_add(7919)] {
                let donor = generate_case(extra, &cfg);
                let borrowed = FuzzCase {
                    productions: case.productions.clone(),
                    strategy: case.strategy,
                    schedule: donor.schedule,
                };
                assert_equivalent_on(&program, &plan, &borrowed);
            }
        }
    }
}
