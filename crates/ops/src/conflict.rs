//! Conflict resolution: choosing which instantiation fires.
//!
//! Implements the two standard OPS5 strategies. Both start from
//! *refraction* (an instantiation never fires twice), which the
//! [`crate::Interpreter`] enforces through the predicate it hands
//! [`select`].
//!
//! * **LEX** — order instantiations by recency: compare the time tags of
//!   their WMEs sorted in descending order, lexicographically; if one
//!   vector is a prefix of the other, the longer dominates. Ties are broken
//!   by specificity (total number of LHS tests), then deterministically by
//!   production id and WME ids (OPS5 says "arbitrary"; we need
//!   reproducibility).
//! * **MEA** — like LEX but first compares the recency of the WME matching
//!   the first *positive* condition element (the "means–ends-analysis"
//!   goal element; negated CEs match no WME and are skipped), then falls
//!   back to the LEX ordering.
//!
//! [`ConflictSet`] is the store the incremental matchers keep the set in,
//! and [`ConflictSet::select`] resolves over it where it lives.

use crate::fxhash::FxBuildHasher;
use crate::matcher::{Instantiation, InstantiationKey};
use crate::production::Program;
use crate::wme::{Sign, WmeId};
use std::cmp::Ordering;
use std::collections::hash_map::{Entry, HashMap};

/// Conflict-resolution strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// The LEX strategy (default in OPS5).
    #[default]
    Lex,
    /// The MEA strategy.
    Mea,
}

/// Compare recency vectors (descending time-tag lists) lexicographically;
/// the more recent dominates. Returns `Greater` when `a` dominates `b`.
fn compare_recency(a: &[WmeId], b: &[WmeId]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    // Prefix rule: the instantiation with more time tags dominates.
    a.len().cmp(&b.len())
}

/// Full LEX dominance test. Returns `Greater` when `a` should fire over `b`.
fn lex_cmp(program: &Program, a: &Instantiation, b: &Instantiation) -> Ordering {
    compare_recency(a.recency(), b.recency())
        .then_with(|| {
            program
                .get(a.production())
                .specificity()
                .cmp(&program.get(b.production()).specificity())
        })
        // Deterministic final tie-break (OPS5: arbitrary). Reversed so that
        // the *lowest* production id / WME ids win, matching textual order.
        .then_with(|| b.cmp(a))
}

/// The MEA goal element: the WME matching the production's first
/// *positive* condition element. `wme_ids` lists the matches of the
/// non-negated CEs in LHS order — negated CEs contribute no entry — so the
/// goal element is the first entry even when the production's LHS *starts*
/// with negated CEs. An instantiation with no WMEs at all (only possible
/// for hand-built values; validation requires a positive CE) compares
/// below every real one via `None < Some`.
fn mea_goal(inst: &Instantiation) -> Option<WmeId> {
    inst.wme_ids().first().copied()
}

/// MEA dominance: first-positive-CE recency first, then LEX.
fn mea_cmp(program: &Program, a: &Instantiation, b: &Instantiation) -> Ordering {
    mea_goal(a)
        .cmp(&mea_goal(b))
        .then_with(|| lex_cmp(program, a, b))
}

/// Compare two instantiations under `strategy`; `Greater` means `a` fires
/// over `b`. This is the exact comparator [`select`] and [`resolve`]
/// maximize with, made public so tests can check it is a total order
/// (antisymmetric and transitive, with `Equal` only for identical
/// `(production, wme_ids)` keys) — the contract `max_by` and sort-based
/// callers rely on. It allocates nothing: the recency vectors were sorted
/// when the instantiations were built.
pub fn compare(
    program: &Program,
    strategy: Strategy,
    a: &Instantiation,
    b: &Instantiation,
) -> Ordering {
    match strategy {
        Strategy::Lex => lex_cmp(program, a, b),
        Strategy::Mea => mea_cmp(program, a, b),
    }
}

/// Select the winning instantiation from `candidates` (already filtered for
/// refraction). Returns `None` when the conflict set is empty.
pub fn resolve<'a>(
    program: &Program,
    strategy: Strategy,
    candidates: impl IntoIterator<Item = &'a Instantiation>,
) -> Option<&'a Instantiation> {
    candidates
        .into_iter()
        .max_by(|a, b| compare(program, strategy, a, b))
}

/// Select the instantiation that fires from a whole conflict set: the
/// maximum under [`compare`] among the candidates that are not `refracted`.
/// One pass, and `refracted` is consulted only for a candidate that would
/// displace the running best — on a conflict set of hundreds that is a
/// handful of refraction probes per cycle instead of one per entry.
/// Equivalent to filtering by `refracted` and then calling [`resolve`].
pub fn select<'a>(
    program: &Program,
    strategy: Strategy,
    conflict_set: impl IntoIterator<Item = &'a Instantiation>,
    refracted: impl Fn(&Instantiation) -> bool,
) -> Option<&'a Instantiation> {
    let mut best: Option<&'a Instantiation> = None;
    for cand in conflict_set {
        let displaces =
            best.is_none_or(|b| compare(program, strategy, cand, b) == Ordering::Greater);
        if displaces && !refracted(cand) {
            best = Some(cand);
        }
    }
    best
}

/// A conflict set: signed derivation counts in a hash map keyed by
/// `(production, wme_ids)`. Only entries with a count above 0 are visible
/// — to [`ConflictSet::select`], [`ConflictSet::len`] and every iteration.
///
/// The map keeps no order, and nothing on the cycle path needs one:
/// [`select`] is exact in any iteration order, because [`compare`] is a
/// total order and refraction is consulted only for a candidate that
/// would displace the running best. [`ConflictSet::sorted`] produces the
/// canonical order on demand.
#[derive(Default)]
pub struct ConflictSet {
    counts: HashMap<Instantiation, i64, FxBuildHasher>,
}

impl ConflictSet {
    /// Count one derivation of `inst`: `Plus` adds one, `Minus` takes one
    /// away — from an entry not seen yet too, which then waits at a
    /// negative count for the `Plus` it overtook. An entry is removed when
    /// its count settles at 0. Returns the count afterwards.
    pub fn update(&mut self, sign: Sign, inst: Instantiation) -> i64 {
        let delta = match sign {
            Sign::Plus => 1,
            Sign::Minus => -1,
        };
        match self.counts.entry(inst) {
            Entry::Occupied(mut slot) => {
                let count = *slot.get() + delta;
                if count == 0 {
                    slot.remove();
                } else {
                    *slot.get_mut() = count;
                }
                count
            }
            Entry::Vacant(slot) => *slot.insert(delta),
        }
    }

    /// Take one derivation away from the entry `key` names, probing with
    /// the borrowed key, so a retraction builds no record. Returns the
    /// count afterwards, or `None`, changing nothing, when the store holds
    /// no entry for `key`.
    pub fn retract(&mut self, key: &dyn InstantiationKey) -> Option<i64> {
        let (inst, count) = self.counts.remove_entry(key)?;
        if count != 1 {
            self.counts.insert(inst, count - 1);
        }
        Some(count - 1)
    }

    /// Is the instantiation `key` names visible?
    pub(crate) fn contains(&self, key: &dyn InstantiationKey) -> bool {
        self.counts.get(key).is_some_and(|&count| count > 0)
    }

    /// Drop every entry for which `keep` is false.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Instantiation) -> bool) {
        self.counts.retain(|inst, _| keep(inst));
    }

    /// The visible entries, in no particular order.
    fn iter(&self) -> impl Iterator<Item = &Instantiation> {
        self.counts
            .iter()
            .filter(|&(_, &count)| count > 0)
            .map(|(inst, _)| inst)
    }

    /// Number of visible entries.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no entry is visible.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// [`select`] over the visible entries, walked in place.
    pub fn select(
        &self,
        program: &Program,
        strategy: Strategy,
        refracted: impl Fn(&Instantiation) -> bool,
    ) -> Option<&Instantiation> {
        select(program, strategy, self.iter(), refracted)
    }

    /// Free the map's spare capacity (all of it when the set is empty).
    /// Entries and counts stay; only the iteration order may change,
    /// which nothing depends on.
    pub fn shrink_to_fit(&mut self) {
        self.counts.shrink_to_fit();
    }

    /// The visible entries in canonical order: the snapshot
    /// [`crate::Matcher::conflict_set`] returns.
    pub fn sorted(&self) -> Vec<Instantiation> {
        let mut set: Vec<Instantiation> = self.iter().cloned().collect();
        set.sort_unstable();
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::ConditionElement;
    use crate::production::{Action, Production, ProductionId};
    use crate::symbol::intern;

    fn inst(p: u32, ids: &[u64]) -> Instantiation {
        let ids: Vec<WmeId> = ids.iter().map(|&i| WmeId(i)).collect();
        Instantiation::new(ProductionId(p), &ids)
    }

    /// A program with two productions: p0 with one CE (specificity 1),
    /// p1 with one CE carrying an extra test (specificity 2).
    fn two_prod_program() -> Program {
        let p0 = Production {
            name: intern("cr-low-spec"),
            lhs: vec![ConditionElement::positive("a", vec![])],
            rhs: vec![Action::Halt],
        };
        let p1 = Production {
            name: intern("cr-high-spec"),
            lhs: vec![ConditionElement::positive(
                "a",
                vec![crate::cond::AttrTest {
                    attr: intern("x"),
                    kind: crate::cond::TestKind::Variable(intern("v")),
                }],
            )],
            rhs: vec![Action::Halt],
        };
        Program::from_productions(vec![p0, p1]).unwrap()
    }

    #[test]
    fn empty_conflict_set_yields_none() {
        let prog = two_prod_program();
        assert!(resolve(&prog, Strategy::Lex, []).is_none());
    }

    #[test]
    fn lex_prefers_more_recent() {
        let prog = two_prod_program();
        let a = inst(0, &[5]);
        let b = inst(0, &[9]);
        let w = resolve(&prog, Strategy::Lex, [&a, &b]).unwrap();
        assert_eq!(w, &b);
    }

    #[test]
    fn lex_compares_full_recency_vector() {
        let prog = two_prod_program();
        // Both have max tag 9; second tags 3 vs 7 decide.
        let a = inst(0, &[9, 3]);
        let b = inst(0, &[9, 7]);
        assert_eq!(resolve(&prog, Strategy::Lex, [&a, &b]).unwrap(), &b);
    }

    #[test]
    fn lex_prefix_rule_longer_dominates() {
        let prog = two_prod_program();
        let a = inst(0, &[9]);
        let b = inst(0, &[9, 1]);
        assert_eq!(resolve(&prog, Strategy::Lex, [&a, &b]).unwrap(), &b);
    }

    #[test]
    fn lex_ties_broken_by_specificity() {
        let prog = two_prod_program();
        let a = inst(0, &[4]); // specificity 1
        let b = inst(1, &[4]); // specificity 2
        assert_eq!(resolve(&prog, Strategy::Lex, [&a, &b]).unwrap(), &b);
    }

    #[test]
    fn final_tie_break_is_deterministic() {
        let prog = two_prod_program();
        // Same recency, same production, different WME identity (possible
        // with self-joins). Lowest wme_ids wins, both orders of presentation.
        let a = inst(0, &[4, 4]);
        let b = inst(0, &[4, 4]);
        assert_eq!(
            resolve(&prog, Strategy::Lex, [&a, &b]).unwrap().key(),
            a.key()
        );
        assert_eq!(
            resolve(&prog, Strategy::Lex, [&b, &a]).unwrap().key(),
            a.key()
        );
    }

    #[test]
    fn mea_prefers_recent_first_ce_even_if_lex_disagrees() {
        let prog = two_prod_program();
        // a's first CE matched a newer WME (10 > 2) although b is globally
        // more recent (99).
        let a = inst(0, &[10, 1]);
        let b = inst(0, &[2, 99]);
        assert_eq!(resolve(&prog, Strategy::Mea, [&a, &b]).unwrap(), &a);
        // LEX would pick b.
        assert_eq!(resolve(&prog, Strategy::Lex, [&a, &b]).unwrap(), &b);
    }

    #[test]
    fn mea_falls_back_to_lex_on_first_ce_tie() {
        let prog = two_prod_program();
        let a = inst(0, &[10, 1]);
        let b = inst(0, &[10, 5]);
        assert_eq!(resolve(&prog, Strategy::Mea, [&a, &b]).unwrap(), &b);
    }

    #[test]
    fn mea_goal_element_with_negated_first_ce_against_naive() {
        // Regression: the production's LHS *starts* with a negated CE, so
        // the MEA goal element is the first positive CE's WME — which is
        // still `wme_ids[0]`, because negated CEs contribute no entry.
        // NaiveMatcher produces the conflict set; MEA must serve the goal
        // with the more recent `goal` WME even though LEX prefers the
        // instantiation holding the globally newest WME.
        use crate::matcher::{Matcher, WmeChange};
        use crate::naive::NaiveMatcher;
        use crate::parser::{parse_program, parse_wme};
        let prog = parse_program(
            r#"
            (p serve
               -(inhibit ^on yes)
               (goal ^id <g>)
               (item ^for <g>)
               -->
               (remove 2))
            "#,
        )
        .unwrap();
        let mut naive = NaiveMatcher::new(prog.clone());
        let wmes = [
            "(goal ^id g1)",  // t1: old goal
            "(goal ^id g2)",  // t2: recent goal
            "(item ^for g2)", // t3
            "(item ^for g1)", // t4: globally newest WME belongs to g1
        ];
        let changes: Vec<WmeChange> = wmes
            .iter()
            .enumerate()
            .map(|(i, s)| WmeChange::add(WmeId(i as u64 + 1), parse_wme(s).unwrap()))
            .collect();
        naive.process(&changes);
        let cs = naive.conflict_set();
        assert_eq!(cs.len(), 2);
        // Every instantiation's first id is a goal WME (the negated CE
        // added nothing in front of it).
        assert!(cs.iter().all(|i| i.wme_ids()[0] <= WmeId(2)));
        let mea = resolve(&prog, Strategy::Mea, cs.iter()).unwrap();
        assert_eq!(mea.wme_ids(), [WmeId(2), WmeId(3)], "goal recency rules");
        let lex = resolve(&prog, Strategy::Lex, cs.iter()).unwrap();
        assert_eq!(lex.wme_ids(), [WmeId(1), WmeId(4)], "global recency");
    }

    #[test]
    fn compare_equal_only_for_identical_keys() {
        let prog = two_prod_program();
        let a = inst(0, &[4, 2]);
        let b = inst(0, &[2, 4]); // same recency vector, different key
        for s in [Strategy::Lex, Strategy::Mea] {
            assert_ne!(compare(&prog, s, &a, &b), Ordering::Equal);
            assert_eq!(compare(&prog, s, &a, &a), Ordering::Equal);
        }
    }

    #[test]
    fn minus_before_plus_settles_to_an_absent_entry() {
        let mut set = ConflictSet::default();
        assert_eq!(set.update(Sign::Minus, inst(0, &[1, 2])), -1);
        assert_eq!(set.update(Sign::Plus, inst(0, &[1, 2])), 0);
        assert!(set.counts.is_empty(), "the settled entry is removed");
        assert!(set.is_empty());
    }

    #[test]
    fn negative_entries_are_invisible() {
        let prog = two_prod_program();
        let mut set = ConflictSet::default();
        set.update(Sign::Minus, inst(0, &[9]));
        set.update(Sign::Plus, inst(0, &[5]));
        assert_eq!(set.len(), 1);
        assert!(!set.contains(&inst(0, &[9])));
        assert_eq!(set.sorted(), vec![inst(0, &[5])]);
        for strategy in [Strategy::Lex, Strategy::Mea] {
            // The negative entry is the more recent one; it must not win.
            assert_eq!(set.select(&prog, strategy, |_| false), Some(&inst(0, &[5])));
        }
        set.update(Sign::Minus, inst(0, &[5]));
        assert!(set.is_empty());
        assert_eq!(set.select(&prog, Strategy::Lex, |_| false), None);
        assert!(set.sorted().is_empty());
    }

    #[test]
    fn retract_probes_by_borrowed_key_and_reports_an_unknown_one() {
        let mut set = ConflictSet::default();
        for i in [inst(1, &[3]), inst(0, &[9, 4]), inst(0, &[2])] {
            set.update(Sign::Plus, i);
        }
        let ids = [WmeId(4), WmeId(9)];
        assert_eq!(set.retract(&(ProductionId(0), &ids[..])), None);
        assert_eq!(set.len(), 3, "an unknown key changes nothing");
        let ids = [WmeId(9), WmeId(4)];
        assert_eq!(set.retract(&(ProductionId(0), &ids[..])), Some(0));
        assert_eq!(set.sorted(), vec![inst(0, &[2]), inst(1, &[3])]);
    }

    #[test]
    fn sorted_snapshot_is_canonical_and_select_agrees_with_it() {
        let prog = two_prod_program();
        let mut set = ConflictSet::default();
        let entries = [
            inst(1, &[2]),
            inst(0, &[7, 1]),
            inst(0, &[3]),
            inst(1, &[9]),
        ];
        for i in &entries {
            set.update(Sign::Plus, i.clone());
        }
        let mut canonical = entries.to_vec();
        canonical.sort();
        assert_eq!(set.sorted(), canonical);
        for strategy in [Strategy::Lex, Strategy::Mea] {
            let refracted = |i: &Instantiation| i.production() == ProductionId(1);
            assert_eq!(
                set.select(&prog, strategy, refracted),
                select(&prog, strategy, &canonical, refracted)
            );
        }
    }
}
