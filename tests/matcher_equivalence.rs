//! The central correctness property of the workspace: the brute-force
//! reference matcher, the sequential hashed-memory Rete engine, and the
//! multi-threaded message-passing executor compute identical conflict
//! sets on arbitrary programs and working-memory histories.

use mpps::core::ThreadedMatcher;
use mpps::difftest::{generate_case, GenConfig, ScheduleOp};
use mpps::ops::{
    Action, ConditionElement, Matcher, NaiveMatcher, Production, Program, TestKind, TreatMatcher,
    Value, Wme, WmeChange, WmeId,
};
use mpps::rete::{EngineConfig, NodeKind, ReteMatcher, ReteNetwork};
use proptest::prelude::*;

const CLASSES: &[&str] = &["alpha", "beta", "gamma"];
const ATTRS: &[&str] = &["p", "q", "r"];
const VARS: &[&str] = &["u", "v", "w"];

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..4).prop_map(Value::Int),
        prop_oneof![Just("sym-x"), Just("sym-y")].prop_map(Value::sym),
    ]
}

fn arb_test() -> impl Strategy<Value = TestKind> {
    prop_oneof![
        arb_value().prop_map(|v| TestKind::Constant(mpps::ops::Predicate::Eq, v)),
        (0..VARS.len()).prop_map(|i| TestKind::Variable(mpps::ops::intern(VARS[i]))),
        proptest::collection::vec(arb_value(), 1..3).prop_map(TestKind::disjunction),
    ]
}

fn arb_ce(negated: bool) -> impl Strategy<Value = ConditionElement> {
    (
        0..CLASSES.len(),
        proptest::collection::vec((0..ATTRS.len(), arb_test()), 0..3),
    )
        .prop_map(move |(class, tests)| ConditionElement {
            class: mpps::ops::intern(CLASSES[class]),
            tests: tests
                .into_iter()
                .map(|(attr, kind)| mpps::ops::AttrTest {
                    attr: mpps::ops::intern(ATTRS[attr]),
                    kind,
                })
                .collect(),
            negated,
        })
}

fn arb_production(index: usize) -> impl Strategy<Value = Production> {
    (
        arb_ce(false),
        proptest::collection::vec((arb_ce(false), any::<bool>()), 0..2),
    )
        .prop_map(move |(first, rest)| {
            let mut lhs = vec![first];
            for (mut ce, neg) in rest {
                // Negation only for CEs after the first; strip variables
                // that would make negated-CE locals (they're allowed, but
                // keep the generator simple and valid).
                ce.negated = neg;
                lhs.push(ce);
            }
            Production {
                name: mpps::ops::intern(&format!("gen-rule-{index}")),
                lhs,
                rhs: vec![Action::Remove(1)],
            }
        })
        .prop_filter("structurally valid", |p| p.validate().is_ok())
}

fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(any::<u8>(), 1..4).prop_flat_map(|seeds| {
        let strategies: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, _)| arb_production(i))
            .collect();
        strategies.prop_map(|prods| {
            // Duplicate names impossible (indexed); validation re-checked.
            Program::from_productions(prods).expect("generated productions are valid")
        })
    })
}

fn arb_wme() -> impl Strategy<Value = Wme> {
    (
        0..CLASSES.len(),
        proptest::collection::vec((0..ATTRS.len(), arb_value()), 0..3),
    )
        .prop_map(|(class, pairs)| {
            Wme::from_pairs(
                mpps::ops::intern(CLASSES[class]),
                pairs
                    .into_iter()
                    .map(|(a, v)| (mpps::ops::intern(ATTRS[a]), v)),
            )
        })
}

/// A WM history: per batch, some additions and some deletions of
/// previously live WMEs (selected by index).
fn arb_history() -> impl Strategy<Value = Vec<(Vec<Wme>, Vec<prop::sample::Index>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(arb_wme(), 0..5),
            proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
        ),
        1..5,
    )
}

/// Materialize a history into per-batch `WmeChange` lists with consistent
/// ids (deletions target WMEs still live from earlier batches).
fn materialize(history: Vec<(Vec<Wme>, Vec<prop::sample::Index>)>) -> Vec<Vec<WmeChange>> {
    let mut next_id = 1u64;
    let mut live: Vec<(WmeId, Wme)> = Vec::new();
    let mut batches = Vec::new();
    for (adds, dels) in history {
        let mut batch = Vec::new();
        // Deletions first (of WMEs live before this batch), each id once.
        let mut deleted = std::collections::HashSet::new();
        for idx in dels {
            if live.is_empty() {
                break;
            }
            let k = idx.index(live.len());
            let (id, wme) = live[k].clone();
            if deleted.insert(id) {
                batch.push(WmeChange::remove(id, wme));
            }
        }
        live.retain(|(id, _)| !deleted.contains(id));
        for wme in adds {
            let id = WmeId(next_id);
            next_id += 1;
            live.push((id, wme.clone()));
            batch.push(WmeChange::add(id, wme));
        }
        batches.push(batch);
    }
    batches
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The constant-test index only prunes: over the fuzzer's programs and
    /// its aimed and random WMEs, every alpha a WME passes is among the
    /// candidates the index offers it, and the candidates come in strictly
    /// increasing id order (the order roots, and so traces, depend on).
    #[test]
    fn alpha_candidates_are_sound(seed in 0u64..1_000_000) {
        let case = generate_case(seed, &GenConfig::default());
        let network = ReteNetwork::compile(&case.program().unwrap()).unwrap();
        let wmes = case.schedule.rounds.iter().flatten().filter_map(|op| match op {
            ScheduleOp::Make(w) => Some(w),
            ScheduleOp::RemoveNth(_) => None,
        });
        let mut candidates = Vec::new();
        for wme in wmes {
            network.alpha_candidates(wme, &mut candidates);
            prop_assert!(candidates.windows(2).all(|p| p[0] < p[1]), "{:?}", candidates);
            for (id, node) in network.iter() {
                if let NodeKind::Alpha(a) = node {
                    prop_assert!(!a.matches(wme) || candidates.contains(&id), "{} passes {}", wme, id);
                }
            }
        }
    }

    /// Naive and Rete agree after every batch of every history.
    #[test]
    fn rete_equals_naive(program in arb_program(), history in arb_history()) {
        let mut naive = NaiveMatcher::new(program.clone());
        let mut rete = ReteMatcher::from_program(&program).unwrap();
        for batch in materialize(history) {
            naive.process(&batch);
            rete.process(&batch);
            prop_assert_eq!(naive.conflict_set(), rete.conflict_set());
        }
    }

    /// A tiny hash table (maximal bucket collisions) changes nothing.
    #[test]
    fn rete_correct_under_heavy_bucket_collisions(
        program in arb_program(),
        history in arb_history(),
    ) {
        let mut naive = NaiveMatcher::new(program.clone());
        let network = ReteNetwork::compile(&program).unwrap();
        let mut rete = ReteMatcher::new(
            network,
            EngineConfig { table_size: 2, record_trace: false },
        );
        for batch in materialize(history) {
            naive.process(&batch);
            rete.process(&batch);
            prop_assert_eq!(naive.conflict_set(), rete.conflict_set());
        }
    }

    /// TREAT (alpha memories only, no beta state) agrees with Rete after
    /// every batch — the strongest cross-algorithm check in the suite.
    #[test]
    fn treat_equals_rete(program in arb_program(), history in arb_history()) {
        let mut rete = ReteMatcher::from_program(&program).unwrap();
        let mut treat = TreatMatcher::new(&program);
        for batch in materialize(history) {
            rete.process(&batch);
            treat.process(&batch);
            prop_assert_eq!(rete.conflict_set(), treat.conflict_set());
        }
    }

    /// The threaded executor agrees with the sequential engine.
    #[test]
    fn threaded_equals_sequential(
        program in arb_program(),
        history in arb_history(),
        workers in 1usize..5,
    ) {
        let mut rete = ReteMatcher::from_program(&program).unwrap();
        let mut par = ThreadedMatcher::from_program(&program, workers).unwrap();
        for batch in materialize(history) {
            rete.process(&batch);
            par.process(&batch);
            prop_assert_eq!(rete.conflict_set(), par.conflict_set());
        }
    }
}
