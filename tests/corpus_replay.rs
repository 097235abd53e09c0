//! Replay every checked-in reproducer in `tests/corpus/` through the
//! differential oracle with every matcher configuration (the four base
//! matchers plus sequential and threaded Rete over transformed networks).
//!
//! Each corpus entry is a `<name>.ops` + `<name>.sched` pair that once
//! exposed a real divergence (minimized by the fuzzer's shrinker or by
//! hand). After the corresponding fix they must all agree forever; a
//! failure here means a regression re-opened a fixed bug.

use mpps::difftest::{load_repro, run_case, MatcherKind};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Every `.ops` file in the corpus, each with its `.sched` sibling.
fn corpus_entries() -> Vec<(PathBuf, PathBuf)> {
    let mut entries: Vec<(PathBuf, PathBuf)> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ops"))
        .map(|ops| {
            let sched = ops.with_extension("sched");
            assert!(
                sched.exists(),
                "{} has no matching .sched file",
                ops.display()
            );
            (ops, sched)
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn corpus_is_not_empty() {
    assert!(
        !corpus_entries().is_empty(),
        "tests/corpus/ must contain at least one pinned reproducer"
    );
}

#[test]
fn every_corpus_entry_has_no_stray_sched() {
    // The inverse pairing check: no orphaned .sched without a program.
    for entry in std::fs::read_dir(corpus_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "sched") {
            assert!(
                path.with_extension("ops").exists(),
                "{} has no matching .ops file",
                path.display()
            );
        }
    }
}

#[test]
fn corpus_replays_without_divergence() {
    for (ops, sched) in corpus_entries() {
        let case = load_repro(&ops, &sched).unwrap_or_else(|e| panic!("{}: {e}", ops.display()));
        assert!(
            case.program().is_ok(),
            "{}: corpus program no longer validates",
            ops.display()
        );
        if let Some(d) = run_case(&case, &MatcherKind::EXTENDED) {
            panic!("{} regressed: {d}", ops.display());
        }
    }
}

/// Every corpus entry also replays cleanly under the *profiled* matchers
/// (kernel hooks live, metrics recording): no panics, and the merged
/// registry shows real match activity. The corpus leans on the grammar's
/// dark corners — negation flips, removal churn — so this drags the
/// profiling hooks through paths the workload tests never reach.
#[test]
fn corpus_replays_cleanly_under_the_profiler() {
    use mpps::core::ThreadedMatcher;
    use mpps::difftest::replay;
    use mpps::ops::{treat, TreatMatcher};
    use mpps::rete::{kernel, ReteMatcher, ReteNetwork};
    use mpps::telemetry::MetricsRegistry;

    for (ops, sched) in corpus_entries() {
        let case = load_repro(&ops, &sched).unwrap();
        let program = case.program().unwrap();
        let mut merged = MetricsRegistry::new();

        let rete = ReteMatcher::with_metrics(
            ReteNetwork::compile(&program).unwrap(),
            mpps::rete::EngineConfig::default(),
            MetricsRegistry::new(),
        );
        let mut interp = replay(&case, &program, rete);
        merged.merge(&interp.matcher_mut().profile());

        let treat = TreatMatcher::with_metrics(&program, MetricsRegistry::new());
        let interp = replay(&case, &program, treat);
        merged.merge(&interp.matcher().profile());

        let threaded = ThreadedMatcher::from_program_profiled(&program, 2).unwrap();
        let mut interp = replay(&case, &program, threaded);
        merged.merge(&interp.matcher_mut().profile_snapshot().unwrap());

        assert!(
            merged.counter_total(treat::metric::RULE_ACTIVATIONS) > 0,
            "{}: profiled replay recorded no rule activations",
            ops.display()
        );
        let cycles = merged
            .histogram(kernel::metric::CYCLE_WALL_NS)
            .map(|h| h.count())
            .unwrap_or(0);
        assert!(
            cycles > 0,
            "{}: profiled replay recorded no match cycles",
            ops.display()
        );
    }
}

/// The corpus entries must actually exercise the matchers: each schedule
/// leads to at least one firing under the naive reference. Guards against
/// a corpus entry silently decaying into a vacuous no-op (e.g. after a
/// parser change).
#[test]
fn corpus_entries_are_not_vacuous() {
    use mpps::ops::{Interpreter, Matcher, NaiveMatcher};
    for (ops, sched) in corpus_entries() {
        let case = load_repro(&ops, &sched).unwrap();
        let program = case.program().unwrap();
        let naive: Box<dyn Matcher> = Box::new(NaiveMatcher::new(program.clone()));
        let mut interp = Interpreter::with_matcher(program, case.strategy, naive);
        let mut fired = 0usize;
        for round in &case.schedule.rounds {
            for op in round {
                match op {
                    mpps::difftest::ScheduleOp::Make(wme) => {
                        interp.add_wme(wme.clone());
                    }
                    mpps::difftest::ScheduleOp::RemoveNth(n) => {
                        let ids: Vec<_> =
                            interp.working_memory().iter().map(|(id, _)| id).collect();
                        if !ids.is_empty() {
                            interp.remove_wme(ids[n % ids.len()]).unwrap();
                        }
                    }
                }
            }
            for _ in 0..8 {
                match interp.step() {
                    Ok(mpps::ops::interpreter::StepOutcome::Fired(_)) => fired += 1,
                    _ => break,
                }
            }
        }
        assert!(
            fired > 0,
            "{}: schedule never fires a production",
            ops.display()
        );
    }
}
