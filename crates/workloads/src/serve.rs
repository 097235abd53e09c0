//! The per-session workload behind `mpps serve --synthetic`.
//!
//! The ROADMAP's serving direction inverts the paper: instead of one
//! production system spread across processors, one compiled network is
//! shared by many independent working-memory sessions (one per simulated
//! user). This module provides the session program and its request
//! generator: a small ticket-triage loop (route → finish → retire) whose
//! working memory returns to just the per-session `stats` element after
//! every round, so WM stays bounded no matter how many rounds a session
//! lives — the property a long-running server needs.
//!
//! Every ingested request costs exactly three firings (route, finish,
//! retire), which makes sustained WME-changes/sec and cycles/sec directly
//! comparable across session counts.

use mpps_ops::{parse_program, Program, Wme};

/// Number of MRA cycles one request costs (route, finish, retire).
pub const CYCLES_PER_REQUEST: usize = 3;

/// The session program: triage incoming `request` elements into `task`s,
/// complete them, and fold completions into the session's `stats` counter.
pub fn program() -> Program {
    parse_program(
        r#"
        (p route
           (request ^id <r> ^kind <k>)
           -(task ^req <r>)
           -->
           (make task ^req <r> ^kind <k> ^state open))
        (p finish
           (task ^req <r> ^state open)
           (request ^id <r>)
           -->
           (remove 2)
           (modify 1 ^state done))
        (p retire
           (stats ^done <n>)
           (task ^state done)
           -->
           (remove 2)
           (modify 1 ^done (+ <n> 1)))
        "#,
    )
    .expect("serve workload program is valid")
}

/// A session's initial working memory: the `stats` accumulator.
pub fn initial() -> Vec<Wme> {
    vec![Wme::new("stats", &[("done", 0.into())])]
}

/// The request kinds sessions cycle through (varies alpha routing and
/// join-value hashing across requests).
const KINDS: [&str; 4] = ["alert", "order", "query", "sync"];

/// One round of requests for `session`: `count` WMEs with ids unique
/// within the session's lifetime (so refraction never confuses rounds)
/// and kinds that vary by session and position.
pub fn round(session: u64, round: u64, count: usize) -> Vec<Wme> {
    (0..count)
        .map(|j| {
            let id = round * count as u64 + j as u64;
            let kind = KINDS[((session + id) % KINDS.len() as u64) as usize];
            Wme::new(
                "request",
                &[("id", (id as i64).into()), ("kind", kind.into())],
            )
        })
        .collect()
}

/// Upper bound on the cycles a round of `count` requests needs to
/// quiesce (three firings per request plus the final quiescent match).
pub fn cycle_budget(count: usize) -> usize {
    CYCLES_PER_REQUEST * count + 1
}

/// A minimal single-request probe: one `request` WME whose id is taken
/// from a private high range so it never collides with [`round`] ids.
/// Used to *touch* a session — e.g. forcing an evicted one to fault back
/// in — without perturbing the per-round accounting the benches assert.
pub fn touch(session: u64, seq: u64) -> Vec<Wme> {
    let id = (1 << 40) | seq;
    let kind = KINDS[((session + seq) % KINDS.len() as u64) as usize];
    vec![Wme::new(
        "request",
        &[("id", (id as i64).into()), ("kind", kind.into())],
    )]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_ops::{Interpreter, RunOutcome, Strategy};

    #[test]
    fn each_round_quiesces_with_bounded_wm() {
        let mut interp = Interpreter::new(program(), Strategy::Lex);
        for w in initial() {
            interp.add_wme(w);
        }
        for r in 0..3u64 {
            for w in round(7, r, 4) {
                interp.add_wme(w);
            }
            let result = interp.run(cycle_budget(4)).unwrap();
            assert_eq!(result.outcome, RunOutcome::Quiescent, "round {r}");
            assert_eq!(result.fired.len(), CYCLES_PER_REQUEST * 4, "round {r}");
            // WM is back to just the stats element.
            assert_eq!(interp.working_memory().len(), 1, "round {r}");
        }
        let (_, stats) = interp.working_memory().iter().next().unwrap();
        assert_eq!(
            stats.get(mpps_ops::intern("done")),
            Some(mpps_ops::Value::Int(12))
        );
    }

    #[test]
    fn rounds_differ_across_sessions_and_rounds() {
        assert_ne!(round(0, 0, 4), round(1, 0, 4));
        assert_ne!(round(0, 0, 4), round(0, 1, 4));
    }
}
