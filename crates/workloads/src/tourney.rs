//! A runnable tournament-scheduling ruleset with a genuine cross-product.
//!
//! The paper's Tourney section came from "a program to do scheduling for a
//! tournament", whose interesting cycle contains a heavy **cross-product**:
//! a two-input node with *no equality-tested variable*, so the hash
//! function cannot discriminate and all of its tokens land in one bucket
//! (§5.2.2). The pairing rule below joins east-division teams against
//! west-division teams with no shared variable — exactly that shape.
//! [`crate::section::capture_trace`] over this program yields a trace
//! whose cross join is single-bucket, and a planned
//! [`mpps_rete::SplitSpec`] on the pairing rule (split on the west team's
//! integer id) restores discrimination — the Figure 5-6 experiment, on a
//! real ruleset.

use crate::section::{capture_trace, capture_trace_on, CapturedRun};
use mpps_ops::builder::var;
use mpps_ops::{Production, ProductionBuilder, ProductionId, Program, Strategy, Wme};
use mpps_rete::{ReteNetwork, SplitSpec, TransformPlan};

/// The pairing rule: the cross-product production.
pub fn pairing_rule() -> Production {
    ProductionBuilder::new("pair-teams")
        .ce("round", |ce| ce.var("n", "r"))
        .ce("team", |ce| ce.constant("div", "east").var("id", "a"))
        .ce("team", |ce| ce.constant("div", "west").var("id", "b"))
        .neg_ce("game", |ce| ce.var("east", "a").var("west", "b"))
        .neg_ce("busy", |ce| ce.var("round", "r").var("team", "a"))
        .neg_ce("busy", |ce| ce.var("round", "r").var("team", "b"))
        .make(
            "game",
            &[("east", var("a")), ("west", var("b")), ("round", var("r"))],
        )
        .make("busy", &[("round", var("r")), ("team", var("a"))])
        .make("busy", &[("round", var("r")), ("team", var("b"))])
        .build()
        .expect("pairing rule is valid")
}

/// The complete program (pairing only; rounds are injected as WMEs).
pub fn program() -> Program {
    Program::from_productions(vec![pairing_rule()]).expect("tourney program is valid")
}

/// The network with the pairing rule split `ways` copies by
/// copy-and-constraint on the west team's id (ids are `100..100+west`).
fn split_network(west: usize, ways: usize) -> ReteNetwork {
    assert!(ways >= 2, "splitting needs at least two copies");
    let span = west.div_ceil(ways) as i64;
    let boundaries: Vec<i64> = (1..ways as i64).map(|k| 100 + k * span).collect();
    // CE index 2 (0-based) is the west-team condition element.
    let plan =
        TransformPlan::new().with_split(ProductionId(0), SplitSpec::new(2, "id", boundaries));
    ReteNetwork::compile_planned(&program(), &plan).expect("split plan is valid")
}

/// Initial WM: `east` + `west` teams and round 1. East ids are `0..east`,
/// west ids `100..100+west`.
pub fn initial(east: usize, west: usize) -> Vec<Wme> {
    let mut wmes = Vec::new();
    for i in 0..east {
        wmes.push(Wme::new(
            "team",
            &[("div", "east".into()), ("id", (i as i64).into())],
        ));
    }
    for i in 0..west {
        wmes.push(Wme::new(
            "team",
            &[("div", "west".into()), ("id", (100 + i as i64).into())],
        ));
    }
    wmes.push(Wme::new("round", &[("n", 1.into())]));
    wmes
}

/// Capture a section: `cycles` MRA cycles over an east×west tournament.
/// The first match phase contains the cross-product explosion.
pub fn section(east: usize, west: usize, cycles: usize, table_size: u64) -> CapturedRun {
    capture_trace(
        program(),
        initial(east, west),
        Strategy::Lex,
        cycles,
        table_size,
    )
    .expect("tourney section runs")
}

/// The same section over the copy-and-constraint network.
pub fn section_split(
    east: usize,
    west: usize,
    ways: usize,
    cycles: usize,
    table_size: u64,
) -> CapturedRun {
    capture_trace_on(
        split_network(west, ways),
        program(),
        initial(east, west),
        Strategy::Lex,
        cycles,
        table_size,
    )
    .expect("tourney cc section runs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_ops::{Interpreter, Matcher};
    use mpps_rete::trace::ActKind;
    use mpps_rete::{EngineConfig, NodeKind, ReteMatcher, Side};

    #[test]
    fn cross_join_has_no_hash_discrimination() {
        let net = ReteNetwork::compile(&program()).unwrap();
        // The join of east×west (the second two-input node) tests no
        // variable.
        let cross = net
            .iter()
            .filter_map(|(_, n)| match n {
                NodeKind::TwoInput(j) if !j.negative => Some(j),
                _ => None,
            })
            .find(|j| j.spec.eq_checks.is_empty());
        assert!(cross.is_some(), "program contains a cross-product join");
    }

    #[test]
    fn pairing_produces_full_cross_product_in_conflict_set() {
        let mut m = ReteMatcher::from_program(&program()).unwrap();
        let changes: Vec<_> = initial(4, 5)
            .into_iter()
            .enumerate()
            .map(|(i, w)| mpps_ops::WmeChange::add(mpps_ops::WmeId(1 + i as u64), w))
            .collect();
        m.process(&changes);
        assert_eq!(m.conflict_set().len(), 20);
    }

    #[test]
    fn firing_schedules_disjoint_pairs_per_round() {
        let mut interp = Interpreter::new(program(), Strategy::Lex);
        for w in initial(3, 3) {
            interp.add_wme(w);
        }
        let r = interp.run(50).unwrap();
        // Each team can play once in round 1: three games.
        let games = interp
            .working_memory()
            .iter()
            .filter(|(_, w)| w.class().as_str() == "game")
            .count();
        assert_eq!(games, 3);
        assert!(r.fired.iter().all(|f| f.name.as_str() == "pair-teams"));
    }

    #[test]
    fn section_is_left_heavy_and_single_bucket_at_the_cross_join() {
        let run = section(8, 8, 3, 512);
        let stats = run.trace.stats();
        assert!(
            stats.left_fraction() > 0.6,
            "cross-product sections are left-heavy: {stats}"
        );
        // The cross-product join cannot discriminate: there must be a node
        // with many left activations all landing in a single bucket.
        use std::collections::HashMap;
        let mut per_node: HashMap<u32, Vec<u64>> = HashMap::new();
        for c in &run.trace.cycles {
            for a in &c.activations {
                if a.kind == ActKind::TwoInput && a.side == Side::Left {
                    per_node.entry(a.node.0).or_default().push(a.bucket);
                }
            }
        }
        let single_bucket_hot = per_node.values().any(|buckets| {
            let mut uniq = buckets.clone();
            uniq.sort_unstable();
            uniq.dedup();
            buckets.len() >= 8 && uniq.len() == 1
        });
        assert!(
            single_bucket_hot,
            "expected a non-discriminating (single-bucket) hot node"
        );
    }

    #[test]
    fn copy_and_constraint_spreads_the_cross_join() {
        let plain = section(8, 8, 2, 512);
        let split = section_split(8, 8, 4, 2, 512);
        let spread = |run: &CapturedRun| {
            let mut buckets: Vec<u64> = run
                .trace
                .cycles
                .iter()
                .flat_map(|c| c.activations.iter())
                .filter(|a| a.kind == ActKind::TwoInput && a.side == Side::Left)
                .map(|a| a.bucket)
                .collect();
            buckets.sort_unstable();
            buckets.dedup();
            buckets.len()
        };
        assert!(
            spread(&split) > spread(&plain),
            "copies spread left tokens over more buckets ({} vs {})",
            spread(&split),
            spread(&plain)
        );
    }

    #[test]
    fn copy_constrained_network_schedules_the_same_games() {
        let mut a = Interpreter::new(program(), Strategy::Lex);
        let split = ReteMatcher::new(split_network(4, 2), EngineConfig::default());
        let mut b = Interpreter::with_matcher(program(), Strategy::Lex, split);
        for w in initial(3, 4) {
            a.add_wme(w.clone());
            b.add_wme(w);
        }
        a.run(60).unwrap();
        b.run(60).unwrap();
        let games = |wm: &mpps_ops::WorkingMemory| {
            wm.iter()
                .filter(|(_, w)| w.class().as_str() == "game")
                .count()
        };
        assert_eq!(games(a.working_memory()), games(b.working_memory()));
    }
}
