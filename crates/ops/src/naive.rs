//! The brute-force reference matcher.
//!
//! `NaiveMatcher` recomputes the full conflict set from scratch after every
//! batch of WM changes by enumerating all WME combinations per production.
//! It is exponentially slower than Rete on real programs, but its semantics
//! are transparently correct, which makes it the oracle every other matcher
//! in the workspace is property-tested against.

use crate::cond::Bindings;
use crate::matcher::{Instantiation, Matcher, WmeChange};
use crate::production::{Production, ProductionId, Program};
use crate::wme::{Sign, Wme, WmeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Brute-force matcher: the semantic oracle.
pub struct NaiveMatcher {
    program: Program,
    wm: BTreeMap<WmeId, Arc<Wme>>,
    conflict_set: Vec<Instantiation>,
}

impl NaiveMatcher {
    /// Create a matcher for `program` over an initially empty WM.
    pub fn new(program: Program) -> Self {
        NaiveMatcher {
            program,
            wm: BTreeMap::new(),
            conflict_set: Vec::new(),
        }
    }

    fn recompute(&mut self) {
        let mut out = Vec::new();
        self.for_each_match(|pid, wme_ids, _| out.push(Instantiation::new(pid, wme_ids)));
        // The enumeration is unordered; the trait's contract is canonical
        // order, and `NaiveMatcher` pays for it once per rebuild.
        out.sort();
        out.dedup();
        self.conflict_set = out;
    }

    /// Enumerate every match of every production over the current working
    /// memory: `emit` receives the production, the WME ids matched by its
    /// non-negated CEs (in CE order) and the bindings the match
    /// accumulated. The conflict set keeps only the first two; the
    /// bindings are there for checking [`Production::bindings`] against.
    pub fn for_each_match(&self, mut emit: impl FnMut(ProductionId, &[WmeId], &Bindings)) {
        let mut matched = Vec::new();
        for (pid, prod) in self.program.iter() {
            Self::extend(
                &self.wm,
                prod,
                0,
                &mut matched,
                &Bindings::default(),
                &mut |wme_ids, bindings| emit(pid, wme_ids, bindings),
            );
        }
    }

    /// Depth-first enumeration over the CEs of `prod` starting at `ce_idx`,
    /// with `matched` holding the WME ids consumed by earlier positive CEs.
    fn extend(
        wm: &BTreeMap<WmeId, Arc<Wme>>,
        prod: &Production,
        ce_idx: usize,
        matched: &mut Vec<WmeId>,
        bindings: &Bindings,
        emit: &mut impl FnMut(&[WmeId], &Bindings),
    ) {
        if ce_idx == prod.lhs.len() {
            emit(matched, bindings);
            return;
        }
        let ce = &prod.lhs[ce_idx];
        if ce.negated {
            // Negated CE: succeeds iff no WME matches under the current
            // bindings. Local (existential) variables don't escape.
            let blocked = wm
                .values()
                .any(|w| ce.match_with_bindings(w, bindings).is_some());
            if !blocked {
                Self::extend(wm, prod, ce_idx + 1, matched, bindings, emit);
            }
        } else {
            for (&id, w) in wm.iter() {
                if let Some(next) = ce.match_with_bindings(w, bindings) {
                    matched.push(id);
                    Self::extend(wm, prod, ce_idx + 1, matched, &next, emit);
                    matched.pop();
                }
            }
        }
    }

    /// Current number of live WMEs (visible for tests).
    pub fn wm_len(&self) -> usize {
        self.wm.len()
    }
}

impl Matcher for NaiveMatcher {
    fn process(&mut self, changes: &[WmeChange]) {
        for c in changes {
            match c.sign {
                Sign::Plus => {
                    self.wm.insert(c.id, Arc::clone(&c.wme));
                }
                Sign::Minus => {
                    self.wm.remove(&c.id);
                }
            }
        }
        self.recompute();
    }

    fn conflict_set(&self) -> Vec<Instantiation> {
        self.conflict_set.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::symbol::intern;
    use crate::value::Value;

    fn changes_add(start: u64, wmes: Vec<Wme>) -> Vec<WmeChange> {
        wmes.into_iter()
            .enumerate()
            .map(|(i, w)| WmeChange::add(WmeId(start + i as u64), w))
            .collect()
    }

    /// The bindings `inst` fires with, derived from its WMEs — checked
    /// against the map the enumeration accumulated for it.
    fn bindings_of(m: &NaiveMatcher, inst: &Instantiation) -> Bindings {
        let prod = m.program.get(inst.production());
        let derived = prod.bindings(inst.wme_ids().iter().map(|id| &*m.wm[id]));
        let mut matched = None;
        m.for_each_match(|p, ids, b| {
            if (p, ids) == (inst.production(), inst.wme_ids()) {
                matched = Some(b.clone());
            }
        });
        assert_eq!(Some(&derived), matched.as_ref());
        derived
    }

    fn blue_block_program() -> Program {
        parse_program(
            r#"
            (p clear-the-blue-block
               (block ^name <b2> ^color blue)
               (block ^name <b2> ^on <b1>)
               (hand ^state free)
               -->
               (remove 2))
            "#,
        )
        .unwrap()
    }

    #[test]
    fn paper_figure_2_1_instantiation() {
        // The exact example from Figure 2-1 of the paper.
        let mut m = NaiveMatcher::new(blue_block_program());
        m.process(&changes_add(
            1,
            vec![
                Wme::new("block", &[("name", "b1".into()), ("color", "blue".into())]),
                Wme::new("block", &[("name", "b1".into()), ("on", "table".into())]),
                Wme::new(
                    "hand",
                    &[("state", "free".into()), ("name", "robot-1-hand".into())],
                ),
            ],
        ));
        let cs = m.conflict_set();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].wme_ids(), [WmeId(1), WmeId(2), WmeId(3)]);
        let b = bindings_of(&m, &cs[0]);
        assert_eq!(b[&intern("b2")], Value::sym("b1"));
        assert_eq!(b[&intern("b1")], Value::sym("table"));
    }

    #[test]
    fn no_match_when_variable_inconsistent() {
        let mut m = NaiveMatcher::new(blue_block_program());
        m.process(&changes_add(
            1,
            vec![
                Wme::new("block", &[("name", "b1".into()), ("color", "blue".into())]),
                // Different block name: <b2> cannot bind consistently.
                Wme::new("block", &[("name", "b9".into()), ("on", "table".into())]),
                Wme::new("hand", &[("state", "free".into())]),
            ],
        ));
        assert!(m.conflict_set().is_empty());
    }

    #[test]
    fn deletion_retracts_instantiation() {
        let mut m = NaiveMatcher::new(blue_block_program());
        let wmes = vec![
            Wme::new("block", &[("name", "b1".into()), ("color", "blue".into())]),
            Wme::new("block", &[("name", "b1".into()), ("on", "table".into())]),
            Wme::new("hand", &[("state", "free".into())]),
        ];
        m.process(&changes_add(1, wmes.clone()));
        assert_eq!(m.conflict_set().len(), 1);
        m.process(&[WmeChange::remove(WmeId(3), wmes[2].clone())]);
        assert!(m.conflict_set().is_empty());
    }

    #[test]
    fn negated_ce_blocks_when_matching_wme_present() {
        let prog = parse_program(
            r#"
            (p no-busy-hand
               (block ^name <b>)
               -(hand ^state busy)
               -->
               (remove 1))
            "#,
        )
        .unwrap();
        let mut m = NaiveMatcher::new(prog);
        m.process(&changes_add(
            1,
            vec![Wme::new("block", &[("name", "b1".into())])],
        ));
        assert_eq!(m.conflict_set().len(), 1);
        m.process(&changes_add(
            2,
            vec![Wme::new("hand", &[("state", "busy".into())])],
        ));
        assert!(m.conflict_set().is_empty());
    }

    #[test]
    fn negated_ce_sees_earlier_bindings() {
        let prog = parse_program(
            r#"
            (p unique-color
               (block ^color <c>)
               -(marker ^color <c>)
               -->
               (remove 1))
            "#,
        )
        .unwrap();
        let mut m = NaiveMatcher::new(prog);
        m.process(&changes_add(
            1,
            vec![
                Wme::new("block", &[("color", "blue".into())]),
                Wme::new("block", &[("color", "red".into())]),
                Wme::new("marker", &[("color", "blue".into())]),
            ],
        ));
        let cs = m.conflict_set();
        // Only the red block survives the negation.
        assert_eq!(cs.len(), 1);
        assert_eq!(bindings_of(&m, &cs[0])[&intern("c")], Value::sym("red"));
    }

    #[test]
    fn cross_product_enumerates_all_pairs() {
        let prog = parse_program(
            r#"
            (p pair-up
               (team ^side left ^name <a>)
               (team ^side right ^name <b>)
               -->
               (remove 1))
            "#,
        )
        .unwrap();
        let mut m = NaiveMatcher::new(prog);
        let mut wmes = Vec::new();
        for i in 0..3 {
            wmes.push(Wme::new(
                "team",
                &[("side", "left".into()), ("name", i.into())],
            ));
        }
        for i in 0..4 {
            wmes.push(Wme::new(
                "team",
                &[("side", "right".into()), ("name", (100 + i).into())],
            ));
        }
        m.process(&changes_add(1, wmes));
        assert_eq!(m.conflict_set().len(), 12);
    }

    #[test]
    fn same_wme_may_match_multiple_ces() {
        // OPS5 allows one WME to satisfy several CEs of one instantiation.
        let prog = parse_program(
            r#"
            (p self-join
               (node ^id <x>)
               (node ^id <x>)
               -->
               (remove 1))
            "#,
        )
        .unwrap();
        let mut m = NaiveMatcher::new(prog);
        m.process(&changes_add(1, vec![Wme::new("node", &[("id", 1.into())])]));
        assert_eq!(m.conflict_set().len(), 1);
        assert_eq!(m.conflict_set()[0].wme_ids(), [WmeId(1), WmeId(1)]);
    }

    #[test]
    fn idempotent_reprocessing_of_empty_delta() {
        let mut m = NaiveMatcher::new(blue_block_program());
        m.process(&changes_add(
            1,
            vec![
                Wme::new("block", &[("name", "b1".into()), ("color", "blue".into())]),
                Wme::new("block", &[("name", "b1".into()), ("on", "t".into())]),
                Wme::new("hand", &[("state", "free".into())]),
            ],
        ));
        let before = m.conflict_set();
        m.process(&[]);
        assert_eq!(before, m.conflict_set());
    }
}
