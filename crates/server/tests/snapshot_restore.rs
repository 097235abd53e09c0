//! Snapshot → restore → continue must equal an uninterrupted run.
//!
//! The oracle runs a session straight through; the subject runs to a
//! property-chosen cut point, round-trips through the versioned snapshot
//! codec onto a **fresh** matcher (as a restore onto a new server would),
//! and continues. After every subsequent MRA cycle the two must agree on
//! working memory, the raw conflict set, the fired production, `(write …)`
//! output and the halt flag — across all builtin workloads and across
//! fuzzer-generated programs with adversarial add/remove schedules.

use mpps_difftest::{generate_case, GenConfig, ScheduleOp};
use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{Instantiation, Interpreter, Matcher, Program, Strategy, Wme, WmeId};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_server::program_fingerprint;
use mpps_server::snapshot::{decode, encode};
use mpps_workloads::{rubik, serve, tourney, weaver};
use proptest::prelude::*;
use std::sync::Arc;

const ENGINE: EngineConfig = EngineConfig {
    table_size: 32,
    record_trace: false,
};

fn fresh(
    program: &Arc<Program>,
    network: &Arc<ReteNetwork>,
    strategy: Strategy,
) -> Interpreter<ReteMatcher> {
    Interpreter::with_shared_program(
        Arc::clone(program),
        strategy,
        ReteMatcher::new_shared(Arc::clone(network), ENGINE),
    )
}

/// Snapshot `subject` to bytes and rebuild it on a brand-new matcher.
fn roundtrip(
    subject: &Interpreter<ReteMatcher>,
    program: &Arc<Program>,
    network: &Arc<ReteNetwork>,
) -> Interpreter<ReteMatcher> {
    let fp = program_fingerprint(program);
    let bytes = encode(&subject.export_state(), fp).expect("snapshot encodes");
    let state = decode(&bytes, fp).expect("snapshot decodes");
    Interpreter::with_shared_state(
        Arc::clone(program),
        ReteMatcher::new_shared(Arc::clone(network), ENGINE),
        state,
    )
    .expect("restore replays cleanly")
}

type Observation = (Vec<(WmeId, Wme)>, Vec<Instantiation>, bool, usize);

fn observe(i: &Interpreter<ReteMatcher>) -> Observation {
    let wm = i
        .working_memory()
        .iter()
        .map(|(id, w)| (id, w.clone()))
        .collect();
    let cs = i.matcher().conflict_set();
    (wm, cs, i.is_halted(), i.output().len())
}

/// Step both interpreters once and compare everything observable.
/// Returns true when both went quiescent or failed with the same error (a
/// generated RHS may, say, modify an element it already removed; the
/// error ends the run on both sides alike).
fn lockstep(
    oracle: &mut Interpreter<ReteMatcher>,
    subject: &mut Interpreter<ReteMatcher>,
    at: &str,
) -> bool {
    let (a, b) = match (oracle.step(), subject.step()) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            assert_eq!(
                a.err(),
                b.err(),
                "{at}: one side failed, or they failed differently"
            );
            return true;
        }
    };
    match (&a, &b) {
        (StepOutcome::Fired(x), StepOutcome::Fired(y)) => {
            assert_eq!(x.production, y.production, "{at}: fired different rules");
            assert_eq!(x.wme_ids, y.wme_ids, "{at}: fired on different WMEs");
        }
        (StepOutcome::Quiescent, StepOutcome::Quiescent) => {}
        _ => panic!("{at}: one side fired, the other went quiescent"),
    }
    assert_eq!(observe(oracle), observe(subject), "{at}: state diverged");
    assert_eq!(oracle.output(), subject.output(), "{at}: outputs diverged");
    matches!(a, StepOutcome::Quiescent)
}

/// Run `program` from `initial`, cutting the subject at cycle `cut`.
fn check_workload(program: Program, initial: Vec<Wme>, cut: usize, max_cycles: usize) {
    let program = Arc::new(program);
    let network = Arc::new(ReteNetwork::compile(&program).expect("compiles"));
    let mut oracle = fresh(&program, &network, Strategy::Lex);
    let mut subject = fresh(&program, &network, Strategy::Lex);
    for wme in &initial {
        oracle.add_wme(wme.clone());
        subject.add_wme(wme.clone());
    }
    for step in 0..max_cycles {
        if step == cut {
            subject = roundtrip(&subject, &program, &network);
        }
        if lockstep(
            &mut oracle,
            &mut subject,
            &format!("cycle {step} (cut {cut})"),
        ) || oracle.is_halted()
        {
            return;
        }
    }
}

fn builtin(which: usize) -> (Program, Vec<Wme>) {
    match which {
        0 => (
            rubik::program(),
            rubik::initial(&rubik::alternating_moves(2)),
        ),
        1 => (tourney::program(), tourney::initial(5, 5)),
        2 => (weaver::program(), weaver::initial(3, 3)),
        _ => {
            let mut initial = serve::initial();
            initial.extend(serve::round(9, 0, 3));
            (serve::program(), initial)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn builtin_workloads_survive_snapshot(which in 0usize..4, cut in 0usize..32) {
        let (program, initial) = builtin(which);
        check_workload(program, initial, cut, 48);
    }

    /// Fuzzer-generated programs (negations, removals, both strategies)
    /// with external add/remove schedules between quiescent settles.
    #[test]
    fn fuzzer_programs_survive_snapshot(seed in 0u64..400, cut in 0usize..24) {
        let case = generate_case(seed, &GenConfig::default());
        let Ok(program) = case.program() else { return; };
        let program = Arc::new(program);
        let network = Arc::new(ReteNetwork::compile(&program).expect("compiles"));
        let mut oracle = fresh(&program, &network, case.strategy);
        let mut subject = fresh(&program, &network, case.strategy);
        let mut steps = 0usize;
        let mut cut_done = false;
        'rounds: for (round, ops) in case.schedule.rounds.iter().enumerate() {
            for op in ops {
                match op {
                    ScheduleOp::Make(wme) => {
                        oracle.add_wme(wme.clone());
                        subject.add_wme(wme.clone());
                    }
                    ScheduleOp::RemoveNth(n) => {
                        let live: Vec<WmeId> =
                            oracle.working_memory().iter().map(|(id, _)| id).collect();
                        if live.is_empty() {
                            continue;
                        }
                        let id = live[n % live.len()];
                        oracle.remove_wme(id).expect("oracle remove");
                        subject.remove_wme(id).expect("subject remove");
                    }
                }
            }
            // Settle to quiescence, cutting the subject once at `cut`.
            for _ in 0..64 {
                if steps == cut && !cut_done {
                    subject = roundtrip(&subject, &program, &network);
                    cut_done = true;
                }
                steps += 1;
                if lockstep(
                    &mut oracle,
                    &mut subject,
                    &format!("seed {seed} round {round} step {steps}"),
                ) {
                    break;
                }
                if oracle.is_halted() {
                    break 'rounds;
                }
            }
        }
        // If the run was shorter than the cut, still prove the final
        // state survives a round-trip.
        if !cut_done {
            let restored = roundtrip(&subject, &program, &network);
            prop_assert_eq!(observe(&subject), observe(&restored));
        }
    }
}

/// Halt behavior survives restore: a session snapshotted *after* a halt
/// stays halted and refuses to fire again.
#[test]
fn halted_sessions_stay_halted() {
    let program = mpps_ops::parse_program("(p once (go) --> (halt))").unwrap();
    let program = Arc::new(program);
    let network = Arc::new(ReteNetwork::compile(&program).unwrap());
    let mut interp = fresh(&program, &network, Strategy::Lex);
    interp.wm_make("go", &[]);
    let result = interp.run(10).unwrap();
    assert_eq!(result.outcome, mpps_ops::RunOutcome::Halted);
    let restored = roundtrip(&interp, &program, &network);
    assert!(restored.is_halted());
    let mut restored = restored;
    let again = restored.run(10).unwrap();
    assert_eq!(again.outcome, mpps_ops::RunOutcome::Halted);
    assert_eq!(again.cycles, 0);
}
