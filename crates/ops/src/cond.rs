//! Condition elements: the patterns on a production's left-hand side.
//!
//! A condition element (CE) names a WME class and lists per-attribute tests.
//! Tests come in three kinds (§2.1 of the paper):
//!
//! * **constant tests** — compare an attribute against a literal with one of
//!   the OPS5 predicates (`=`, `<>`, `<`, `<=`, `>`, `>=`);
//! * **variable (equality) tests** — bind a variable on first occurrence and
//!   require consistency on later occurrences; these are the tests the
//!   Rete two-input nodes evaluate and the distributed hash table hashes on;
//! * **variable-predicate tests** — compare against an already-bound
//!   variable with a non-equality predicate (e.g. `^size > <s>`).
//!
//! A CE may be negated; a negated CE is satisfied when *no* WME matches it.

use crate::fxhash::FxBuildHasher;
use crate::symbol::Symbol;
use crate::value::Value;
use crate::wme::Wme;
use std::collections::HashMap;
use std::fmt;

/// Variable bindings: what matching a CE adds to, and what a RHS evaluates
/// under. Keyed by interned variable names, so the map uses the
/// workspace's fast [`FxBuildHasher`].
pub type Bindings = HashMap<Symbol, Value, FxBuildHasher>;

/// An OPS5 comparison predicate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Predicate {
    /// `=` — equality (the default when a bare constant is written).
    Eq,
    /// `<>` — inequality.
    Ne,
    /// `<` — numeric/symbolic less-than.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl Predicate {
    /// Apply the predicate to two values using OPS5's total order. `=` and
    /// `<>` compare identities only: ordering two symbols reads their
    /// names from the interner.
    pub fn eval(self, lhs: Value, rhs: Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Predicate::Eq => lhs == rhs,
            Predicate::Ne => lhs != rhs,
            Predicate::Lt => lhs.ops_cmp(rhs) == Less,
            Predicate::Le => lhs.ops_cmp(rhs) != Greater,
            Predicate::Gt => lhs.ops_cmp(rhs) == Greater,
            Predicate::Ge => lhs.ops_cmp(rhs) != Less,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Predicate::Eq => "=",
            Predicate::Ne => "<>",
            Predicate::Lt => "<",
            Predicate::Le => "<=",
            Predicate::Gt => ">",
            Predicate::Ge => ">=",
        })
    }
}

/// The body of one attribute test.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TestKind {
    /// Compare the attribute against a literal.
    Constant(Predicate, Value),
    /// OPS5 disjunction `<< v1 v2 … >>`: the attribute must equal one of
    /// the listed constants. Stored sorted and deduplicated (canonical).
    Disjunction(Vec<Value>),
    /// Bind the attribute's value to a variable (or, if the variable is
    /// already bound in this production, require equality with the binding).
    Variable(Symbol),
    /// Compare the attribute against an already-bound variable with a
    /// non-equality predicate, e.g. `^size > <s>`.
    VariablePred(Predicate, Symbol),
}

impl TestKind {
    /// Build a canonical disjunction (sorted, deduplicated).
    pub fn disjunction(mut values: Vec<Value>) -> TestKind {
        values.sort_unstable();
        values.dedup();
        TestKind::Disjunction(values)
    }
}

/// One `^attr test` entry of a condition element.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AttrTest {
    /// The attribute being tested.
    pub attr: Symbol,
    /// The test applied to its value.
    pub kind: TestKind,
}

impl fmt::Display for AttrTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            TestKind::Constant(Predicate::Eq, v) => write!(f, "^{} {}", self.attr, v),
            TestKind::Constant(p, v) => write!(f, "^{} {} {}", self.attr, p, v),
            TestKind::Disjunction(vals) => {
                write!(f, "^{} <<", self.attr)?;
                for v in vals {
                    write!(f, " {v}")?;
                }
                write!(f, " >>")
            }
            TestKind::Variable(var) => write!(f, "^{} <{}>", self.attr, var),
            TestKind::VariablePred(p, var) => write!(f, "^{} {} <{}>", self.attr, p, var),
        }
    }
}

/// A condition element: class, attribute tests, and an optional negation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConditionElement {
    /// Required WME class.
    pub class: Symbol,
    /// Attribute tests, in source order. The same attribute may appear more
    /// than once (conjunction of tests).
    pub tests: Vec<AttrTest>,
    /// True for `-(...)` CEs: satisfied when no WME matches.
    pub negated: bool,
}

impl ConditionElement {
    /// A non-negated CE.
    pub fn positive(class: impl Into<Symbol>, tests: Vec<AttrTest>) -> Self {
        ConditionElement {
            class: class.into(),
            tests,
            negated: false,
        }
    }

    /// A negated CE.
    pub fn negative(class: impl Into<Symbol>, tests: Vec<AttrTest>) -> Self {
        ConditionElement {
            class: class.into(),
            tests,
            negated: true,
        }
    }

    /// Does `wme` pass all the *constant* tests (class + literals +
    /// disjunctions) of this CE? Variable tests are ignored; they are the
    /// join tests.
    pub fn constant_match(&self, wme: &Wme) -> bool {
        if wme.class() != self.class {
            return false;
        }
        self.tests.iter().all(|t| match &t.kind {
            TestKind::Constant(p, v) => wme.get(t.attr).is_some_and(|w| p.eval(w, *v)),
            TestKind::Disjunction(vals) => wme.get(t.attr).is_some_and(|w| vals.contains(&w)),
            // A variable test requires the attribute to be *present*.
            TestKind::Variable(_) | TestKind::VariablePred(..) => wme.get(t.attr).is_some(),
        })
    }

    /// Full match of `wme` against this CE under the partial `bindings`
    /// accumulated from earlier CEs. On success, returns the bindings map
    /// extended with this CE's new variable bindings.
    ///
    /// This is the semantics the naive matcher uses directly and the Rete
    /// engine must agree with.
    pub fn match_with_bindings(&self, wme: &Wme, bindings: &Bindings) -> Option<Bindings> {
        if !self.constant_match(wme) {
            return None;
        }
        let mut out = bindings.clone();
        for t in &self.tests {
            let wv = wme.get(t.attr)?;
            match &t.kind {
                TestKind::Constant(..) | TestKind::Disjunction(_) => {} // already checked
                TestKind::Variable(var) => match out.get(var) {
                    Some(&bound) if bound != wv => return None,
                    Some(_) => {}
                    None => {
                        out.insert(*var, wv);
                    }
                },
                TestKind::VariablePred(p, var) => {
                    // Unbound comparison variables never match: the parser
                    // rejects forward references, so this only occurs for
                    // malformed hand-built productions.
                    let bound = *out.get(var)?;
                    if !p.eval(wv, bound) {
                        return None;
                    }
                }
            }
        }
        Some(out)
    }

    /// Count of individual tests, used by LEX specificity.
    pub fn test_count(&self) -> usize {
        // The class test counts as one test in OPS5 specificity.
        1 + self.tests.len()
    }
}

impl fmt::Display for ConditionElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "-")?;
        }
        write!(f, "({}", self.class)?;
        for t in &self.tests {
            write!(f, " {t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::intern;

    fn ce(class: &str, tests: Vec<AttrTest>) -> ConditionElement {
        ConditionElement::positive(class, tests)
    }

    fn test_const(attr: &str, v: Value) -> AttrTest {
        AttrTest {
            attr: intern(attr),
            kind: TestKind::Constant(Predicate::Eq, v),
        }
    }

    fn test_var(attr: &str, var: &str) -> AttrTest {
        AttrTest {
            attr: intern(attr),
            kind: TestKind::Variable(intern(var)),
        }
    }

    #[test]
    fn predicates_on_ints() {
        assert!(Predicate::Lt.eval(1.into(), 2.into()));
        assert!(Predicate::Le.eval(2.into(), 2.into()));
        assert!(Predicate::Gt.eval(3.into(), 2.into()));
        assert!(Predicate::Ge.eval(2.into(), 2.into()));
        assert!(Predicate::Ne.eval(1.into(), 2.into()));
        assert!(Predicate::Eq.eval(2.into(), 2.into()));
        assert!(!Predicate::Eq.eval(1.into(), 2.into()));
    }

    #[test]
    fn predicates_on_syms() {
        assert!(Predicate::Lt.eval("apple".into(), "zebra".into()));
        assert!(Predicate::Ne.eval("a".into(), "b".into()));
    }

    #[test]
    fn constant_match_checks_class() {
        let c = ce("block", vec![]);
        let w = Wme::new("hand", &[]);
        assert!(!c.constant_match(&w));
    }

    #[test]
    fn constant_match_checks_literals() {
        let c = ce("block", vec![test_const("color", "blue".into())]);
        let blue = Wme::new("block", &[("color", "blue".into())]);
        let red = Wme::new("block", &[("color", "red".into())]);
        let none = Wme::new("block", &[]);
        assert!(c.constant_match(&blue));
        assert!(!c.constant_match(&red));
        assert!(!c.constant_match(&none));
    }

    #[test]
    fn variable_test_requires_attribute_presence() {
        let c = ce("block", vec![test_var("on", "x")]);
        let w = Wme::new("block", &[]);
        assert!(!c.constant_match(&w));
    }

    #[test]
    fn match_binds_fresh_variable() {
        let c = ce("block", vec![test_var("name", "b")]);
        let w = Wme::new("block", &[("name", "b1".into())]);
        let b = c.match_with_bindings(&w, &Bindings::default()).unwrap();
        assert_eq!(b[&intern("b")], Value::sym("b1"));
    }

    #[test]
    fn match_requires_consistency_with_existing_binding() {
        let c = ce("block", vec![test_var("name", "b")]);
        let w = Wme::new("block", &[("name", "b1".into())]);
        let mut pre = Bindings::default();
        pre.insert(intern("b"), Value::sym("b1"));
        assert!(c.match_with_bindings(&w, &pre).is_some());
        pre.insert(intern("b"), Value::sym("b2"));
        assert!(c.match_with_bindings(&w, &pre).is_none());
    }

    #[test]
    fn same_variable_twice_in_one_ce_must_agree() {
        let c = ce("pair", vec![test_var("a", "x"), test_var("b", "x")]);
        let same = Wme::new("pair", &[("a", 1.into()), ("b", 1.into())]);
        let diff = Wme::new("pair", &[("a", 1.into()), ("b", 2.into())]);
        assert!(c.match_with_bindings(&same, &Bindings::default()).is_some());
        assert!(c.match_with_bindings(&diff, &Bindings::default()).is_none());
    }

    #[test]
    fn variable_pred_compares_against_binding() {
        let c = ce(
            "box",
            vec![AttrTest {
                attr: intern("size"),
                kind: TestKind::VariablePred(Predicate::Gt, intern("s")),
            }],
        );
        let w = Wme::new("box", &[("size", 10.into())]);
        let mut pre = Bindings::default();
        pre.insert(intern("s"), Value::Int(5));
        assert!(c.match_with_bindings(&w, &pre).is_some());
        pre.insert(intern("s"), Value::Int(50));
        assert!(c.match_with_bindings(&w, &pre).is_none());
    }

    #[test]
    fn variable_pred_with_unbound_variable_fails() {
        let c = ce(
            "box",
            vec![AttrTest {
                attr: intern("size"),
                kind: TestKind::VariablePred(Predicate::Gt, intern("unbound")),
            }],
        );
        let w = Wme::new("box", &[("size", 10.into())]);
        assert!(c.match_with_bindings(&w, &Bindings::default()).is_none());
    }

    #[test]
    fn test_count_includes_class() {
        let c = ce("block", vec![test_var("name", "b")]);
        assert_eq!(c.test_count(), 2);
    }

    #[test]
    fn display_roundtrip_shape() {
        let c = ConditionElement::negative(
            "hand",
            vec![test_const("state", "busy".into()), test_var("name", "h")],
        );
        assert_eq!(c.to_string(), "-(hand ^state busy ^name <h>)");
    }
}
