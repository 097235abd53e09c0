//! Conflict-resolution order, in both senses of the word.
//!
//! * `resolve` and `select` pick the winner by maximizing `compare`, and
//!   any caller may sort whole candidate lists with it — all only
//!   well-defined when `compare` is a total order. The first property
//!   tests pin that contract for LEX and MEA: antisymmetry, transitivity,
//!   and `Equal` exactly on identical `(production, wme_ids)` keys.
//! * The interpreter's single-pass `select` (refraction consulted lazily)
//!   must pick what the definition picks: filter by refraction, then
//!   `resolve`; and one `sort_by(compare)` must equal repeated winner
//!   extraction.
//! * Every matcher's `conflict_set()` comes back in canonical
//!   `(production, wme_ids)` order — sorted on demand — and equal to the
//!   reference matcher's; and every matcher's `Matcher::select`, which
//!   walks its store in place, picks what `select` picks over that sorted
//!   snapshot, under LEX and MEA, with and without refraction.

use mpps::core::ThreadedMatcher;
use mpps::ops::{
    compare, intern, resolve, select, Action, AttrTest, ConditionElement, Instantiation, Matcher,
    NaiveMatcher, Production, ProductionId, Program, Strategy as CrStrategy, TestKind,
    TreatMatcher, Value, WmeChange, WmeId, WorkingMemory,
};
use mpps::rete::{ReteMatcher, ReteNetwork};
use mpps_difftest::{generate_case, FuzzCase, GenConfig, ScheduleOp};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Three productions with specificities 1, 2, and 3, so the specificity
/// tie-break is exercised alongside recency and the id-based final rung.
fn order_program() -> Program {
    let prods = (0..3usize)
        .map(|i| Production {
            name: intern(&format!("order-p{i}")),
            lhs: vec![ConditionElement::positive(
                "a",
                (0..i)
                    .map(|t| AttrTest {
                        attr: intern(["p", "q"][t]),
                        kind: TestKind::Constant(mpps::ops::Predicate::Eq, Value::Int(0)),
                    })
                    .collect(),
            )],
            rhs: vec![Action::Halt],
        })
        .collect();
    Program::from_productions(prods).unwrap()
}

/// Arbitrary instantiations over a deliberately tiny id space (tags
/// 1..=6, 1–3 WMEs) so recency ties, prefix cases, and identical keys all
/// occur with high probability.
fn arb_inst() -> impl Strategy<Value = Instantiation> {
    (0u32..3, proptest::collection::vec(1u64..7, 1..=3)).prop_map(|(p, ids)| {
        let ids: Vec<WmeId> = ids.into_iter().map(WmeId).collect();
        Instantiation::new(ProductionId(p), &ids)
    })
}

/// A conflict set in arbitrary order (no key twice — it is a set), each
/// entry with a refraction coin.
fn arb_conflict_set() -> impl Strategy<Value = Vec<(Instantiation, bool)>> {
    proptest::collection::vec((arb_inst(), any::<bool>()), 0..24).prop_map(|mut v| {
        let mut seen = std::collections::HashSet::new();
        v.retain(|(i, _)| seen.insert(i.clone()));
        v
    })
}

/// Drive `matchers` (reference first) with the external WM ops of the
/// difftest case `case`, one batch per schedule round, and check after
/// every batch that each conflict set is strictly increasing in canonical
/// order and equal to the reference's, and that each matcher's own
/// `select` equals `select` over that set — under both strategies, with
/// no refraction and with a refraction predicate seeded by the case and
/// the round.
fn assert_canonical_after_schedule(
    seed: u64,
    case: &FuzzCase,
    program: &Program,
    matchers: &mut [(String, Box<dyn Matcher>)],
) {
    let mut wm = WorkingMemory::new();
    for (r, round) in case.schedule.rounds.iter().enumerate() {
        let mut batch = Vec::new();
        for op in round {
            match op {
                ScheduleOp::Make(wme) => {
                    let id = wm.add(wme.clone());
                    batch.push(WmeChange::add(id, wme.clone()));
                }
                ScheduleOp::RemoveNth(n) => {
                    // Only WMEs older than this batch: a batch mentions
                    // each time tag at most once.
                    let old: Vec<WmeId> = wm
                        .iter()
                        .map(|(id, _)| id)
                        .filter(|id| batch.iter().all(|c: &WmeChange| c.id != *id))
                        .collect();
                    if !old.is_empty() {
                        let id = old[n % old.len()];
                        let wme = wm.remove(id).expect("listed as live");
                        batch.push(WmeChange::remove(id, wme));
                    }
                }
            }
        }
        let mut reference = None;
        for (name, m) in matchers.iter_mut() {
            m.process(&batch);
            let cs = m.conflict_set();
            assert!(
                cs.windows(2).all(|w| w[0].key() < w[1].key()),
                "seed {seed}: {name} conflict set out of canonical order"
            );
            let reference = reference.get_or_insert_with(|| cs.clone());
            assert_eq!(&cs, reference, "seed {seed}: {name} differs from naive");
            for strategy in [CrStrategy::Lex, CrStrategy::Mea] {
                for seeded in [false, true] {
                    // Seeded: about a third of the keys count as fired.
                    let refracted = |i: &Instantiation| {
                        let mut h = DefaultHasher::new();
                        (seed, r, i.key()).hash(&mut h);
                        seeded && h.finish().is_multiple_of(3)
                    };
                    assert_eq!(
                        m.select(program, strategy, &refracted),
                        select(program, strategy, &cs, refracted).cloned(),
                        "seed {seed} round {r}: {name} select, {strategy:?}, seeded {seeded}"
                    );
                }
            }
        }
    }
}

#[test]
fn every_matcher_returns_its_conflict_set_in_canonical_order() {
    for seed in 0..150 {
        let case = generate_case(seed, &GenConfig::default());
        let program = case.program().expect("generated programs validate");
        let mut matchers: Vec<(String, Box<dyn Matcher>)> = vec![
            ("naive".into(), Box::new(NaiveMatcher::new(program.clone()))),
            (
                "rete".into(),
                Box::new(ReteMatcher::from_program(&program).unwrap()),
            ),
            ("treat".into(), Box::new(TreatMatcher::new(&program))),
        ];
        for workers in [1, 2, 4] {
            let network = ReteNetwork::compile(&program).unwrap();
            matchers.push((
                format!("threaded/{workers}"),
                Box::new(ThreadedMatcher::new(network, workers, 64)),
            ));
        }
        assert_canonical_after_schedule(seed, &case, &program, &mut matchers);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// compare(a, b) is the reverse of compare(b, a), and Equal appears
    /// exactly when the instantiation keys coincide.
    #[test]
    fn compare_is_antisymmetric(a in arb_inst(), b in arb_inst()) {
        let prog = order_program();
        for strategy in [CrStrategy::Lex, CrStrategy::Mea] {
            let ab = compare(&prog, strategy, &a, &b);
            let ba = compare(&prog, strategy, &b, &a);
            prop_assert_eq!(ab, ba.reverse(), "{:?}", strategy);
            prop_assert_eq!(ab == Ordering::Equal, a.key() == b.key(), "{:?}", strategy);
        }
    }

    /// a ≥ b and b ≥ c imply a ≥ c — the property `max_by` and any
    /// sort-based caller silently rely on.
    #[test]
    fn compare_is_transitive(a in arb_inst(), b in arb_inst(), c in arb_inst()) {
        let prog = order_program();
        for strategy in [CrStrategy::Lex, CrStrategy::Mea] {
            let ab = compare(&prog, strategy, &a, &b);
            let bc = compare(&prog, strategy, &b, &c);
            if ab != Ordering::Less && bc != Ordering::Less {
                prop_assert_ne!(
                    compare(&prog, strategy, &a, &c),
                    Ordering::Less,
                    "{:?}: a>=b and b>=c but a<c", strategy
                );
            }
        }
    }

    /// Every instantiation equals itself under both strategies.
    #[test]
    fn compare_is_reflexive(a in arb_inst()) {
        let prog = order_program();
        for strategy in [CrStrategy::Lex, CrStrategy::Mea] {
            prop_assert_eq!(compare(&prog, strategy, &a, &a), Ordering::Equal);
        }
    }

    /// The single-pass select with lazy refraction picks exactly what the
    /// definition picks — drop the refracted, then `resolve` — whatever
    /// the input order, including when the overall best, or everything,
    /// is refracted.
    #[test]
    fn select_equals_filter_then_resolve(set in arb_conflict_set(), mode in 0u8..4) {
        let prog = order_program();
        for strategy in [CrStrategy::Lex, CrStrategy::Mea] {
            let all: Vec<&Instantiation> = set.iter().map(|(i, _)| i).collect();
            let best = resolve(&prog, strategy, all.iter().copied());
            let coin = |i: &Instantiation| set.iter().any(|(j, coin)| j == i && *coin);
            let refracted = |i: &Instantiation| match mode {
                0 => true,                       // everything
                1 => Some(i) == best,            // exactly the best
                2 => coin(i) || Some(i) == best, // a random subset and the best
                _ => coin(i),                    // a random subset
            };
            let expected = resolve(&prog, strategy, all.iter().copied().filter(|i| !refracted(i)));
            prop_assert_eq!(select(&prog, strategy, all.iter().copied(), refracted), expected);
            // The same set as the matchers hand it over: canonical order.
            let mut canonical = all.clone();
            canonical.sort();
            prop_assert_eq!(select(&prog, strategy, canonical, refracted), expected);
        }
    }

    /// One descending sort by `compare` equals extracting the `resolve`
    /// winner until none is left.
    #[test]
    fn one_sort_equals_repeated_max_extraction(set in arb_conflict_set()) {
        let prog = order_program();
        for strategy in [CrStrategy::Lex, CrStrategy::Mea] {
            let mut rest: Vec<&Instantiation> = set.iter().map(|(i, _)| i).collect();
            let mut sorted = rest.clone();
            sorted.sort_by(|a, b| compare(&prog, strategy, b, a));
            let mut extracted = Vec::new();
            while let Some(winner) = resolve(&prog, strategy, rest.iter().copied()) {
                rest.retain(|i| *i != winner);
                extracted.push(winner);
            }
            prop_assert_eq!(sorted, extracted, "{:?}", strategy);
        }
    }
}
