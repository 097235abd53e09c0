//! Bindings derived from an instantiation's WMEs are the bindings its
//! match accumulated.
//!
//! No matcher reports bindings: the interpreter derives them, for the
//! instantiation that fires, with `Production::bindings`. Every matcher
//! shares that one function, so the differential fuzzer can no longer
//! catch a wrong binding — this test does. Programs and schedules come
//! from the fuzzer's generator; the change batches of a replayed run are
//! fed to a fresh naive matcher one at a time, and after each batch every
//! instantiation the naive enumeration reports must derive exactly the
//! map that enumeration threaded through its search.

use mpps_difftest::{generate_case, replay, GenConfig};
use mpps_ops::{Matcher, NaiveMatcher, Sign, Wme, WmeId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// Replay `seed`'s case and check every batch; returns how many
/// instantiations were checked.
fn check(seed: u64) -> usize {
    let case = generate_case(seed, &GenConfig::default());
    let program = case.program().expect("generated programs validate");
    let run = replay(&case, &program, NaiveMatcher::new(program.clone()));
    let mut naive = NaiveMatcher::new(program.clone());
    let mut wm: HashMap<WmeId, Arc<Wme>> = HashMap::new();
    let mut checked = 0;
    for batch in run.change_log() {
        naive.process(batch);
        for c in batch {
            match c.sign {
                Sign::Plus => wm.insert(c.id, Arc::clone(&c.wme)),
                Sign::Minus => wm.remove(&c.id),
            };
        }
        naive.for_each_match(|p, ids, matched| {
            let derived = program.get(p).bindings(ids.iter().map(|id| &*wm[id]));
            assert_eq!(&derived, matched, "seed {seed}: {p} over {ids:?}");
            checked += 1;
        });
    }
    checked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn derived_bindings_equal_matched_bindings(seed in 0u64..1_000_000) {
        check(seed);
    }
}

/// Vacuity guard: most generated cases must report instantiations at all.
#[test]
fn generated_cases_report_instantiations() {
    let with_matches = (0..100u64).filter(|&seed| check(seed) > 0).count();
    assert!(
        with_matches >= 50,
        "only {with_matches}/100 cases matched anything"
    );
}
