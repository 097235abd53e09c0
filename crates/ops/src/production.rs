//! Productions, right-hand sides, and whole programs.
//!
//! Programs are built from client text, so the module denies `unwrap`,
//! `expect` and `panic!` outside tests.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::cond::{Bindings, ConditionElement, TestKind};
use crate::error::OpsError;
use crate::symbol::Symbol;
use crate::value::Value;
use crate::wme::Wme;
use std::collections::HashSet;
use std::fmt;

/// Index of a production within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProductionId(pub u32);

impl fmt::Display for ProductionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Arithmetic operator usable in RHS value expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RhsOp {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Euclidean remainder (`a.rem_euclid(b)`); division by zero is an
    /// interpreter error.
    Mod,
}

impl RhsOp {
    /// Apply the operator to integer operands. A result outside `i64` is an
    /// interpreter error, as is a modulo by zero: never a wrapped value.
    pub fn apply(self, a: i64, b: i64) -> Result<i64, OpsError> {
        if self == RhsOp::Mod && b == 0 {
            return Err(OpsError::Arithmetic("modulo by zero".into()));
        }
        let result = match self {
            RhsOp::Add => a.checked_add(b),
            RhsOp::Sub => a.checked_sub(b),
            RhsOp::Mul => a.checked_mul(b),
            RhsOp::Mod => a.checked_rem_euclid(b),
        };
        result
            .ok_or_else(|| OpsError::Arithmetic(format!("overflow in ({} {a} {b})", self.symbol())))
    }

    /// The operator as written in a program.
    fn symbol(self) -> &'static str {
        match self {
            RhsOp::Add => "+",
            RhsOp::Sub => "-",
            RhsOp::Mul => "*",
            RhsOp::Mod => "mod",
        }
    }
}

/// A value expression on the right-hand side: a literal, a variable bound on
/// the LHS, or a (recursively nested) integer computation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RhsValue {
    /// A literal value.
    Const(Value),
    /// The value bound to an LHS variable.
    Var(Symbol),
    /// `(op a b)` — integer arithmetic over two sub-expressions.
    Compute(RhsOp, Box<RhsValue>, Box<RhsValue>),
}

impl RhsValue {
    /// Evaluate under the instantiation's bindings.
    pub fn eval(&self, bindings: &Bindings) -> Result<Value, OpsError> {
        match self {
            RhsValue::Const(v) => Ok(*v),
            RhsValue::Var(var) => bindings
                .get(var)
                .copied()
                .ok_or_else(|| OpsError::UnboundVariable(var.as_str().to_owned())),
            RhsValue::Compute(op, a, b) => {
                let av = a.eval(bindings)?;
                let bv = b.eval(bindings)?;
                match (av.as_int(), bv.as_int()) {
                    (Some(ai), Some(bi)) => Ok(Value::Int(op.apply(ai, bi)?)),
                    _ => Err(OpsError::Arithmetic(format!(
                        "non-integer operand in ({op:?} {av} {bv})"
                    ))),
                }
            }
        }
    }

    /// All variables mentioned in this expression.
    pub fn variables(&self, out: &mut HashSet<Symbol>) {
        match self {
            RhsValue::Const(_) => {}
            RhsValue::Var(v) => {
                out.insert(*v);
            }
            RhsValue::Compute(_, a, b) => {
                a.variables(out);
                b.variables(out);
            }
        }
    }
}

impl From<Value> for RhsValue {
    fn from(v: Value) -> Self {
        RhsValue::Const(v)
    }
}

impl fmt::Display for RhsValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RhsValue::Const(v) => write!(f, "{v}"),
            RhsValue::Var(v) => write!(f, "<{v}>"),
            RhsValue::Compute(op, a, b) => write!(f, "({} {a} {b})", op.symbol()),
        }
    }
}

/// A right-hand-side action.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Action {
    /// `(make class ^attr val ...)` — add a WME.
    Make {
        /// Class of the new WME.
        class: Symbol,
        /// Attribute expressions.
        attrs: Vec<(Symbol, RhsValue)>,
    },
    /// `(remove k)` — delete the WME matched by the `k`-th (1-based,
    /// counting only non-negated) condition element.
    Remove(usize),
    /// `(modify k ^attr val ...)` — delete then re-add the `k`-th matched
    /// WME with the given attributes overwritten. OPS5 semantics: the
    /// re-added WME gets a *fresh* time tag, which is exactly what produces
    /// the paper's "multiple-modify-effect" token churn.
    Modify {
        /// 1-based non-negated CE index.
        ce: usize,
        /// Attributes to overwrite.
        attrs: Vec<(Symbol, RhsValue)>,
    },
    /// `(write ...)` — append values to the run's output log.
    Write(Vec<RhsValue>),
    /// `(bind <var> expr)` — bind (or rebind) a variable for use by the
    /// *later* actions of the same right-hand side.
    Bind(Symbol, RhsValue),
    /// `(call fn args…)` — invoke a user-defined function registered on
    /// the interpreter ("RHS actions may … call a user-defined function",
    /// §2.1 of the paper).
    Call(Symbol, Vec<RhsValue>),
    /// `(halt)` — stop the recognize–act cycle after this firing.
    Halt,
}

/// An if-then rule: named LHS/RHS pair.
#[derive(Clone, PartialEq, Debug)]
pub struct Production {
    /// Rule name (unique within a program).
    pub name: Symbol,
    /// Condition elements in source order.
    pub lhs: Vec<ConditionElement>,
    /// Actions executed when an instantiation fires.
    pub rhs: Vec<Action>,
}

impl Production {
    /// Validate structural invariants:
    ///
    /// * at least one *non-negated* CE (a production made only of negated
    ///   CEs has no working-memory support and could never be retracted
    ///   deterministically); negated CEs may appear anywhere, including
    ///   before the first positive CE — a leading negated CE simply has no
    ///   visible bindings, so all its variables are existential locals;
    /// * every variable used in a negated CE, a `VariablePred` test, or the
    ///   RHS must be bound by an equality test in an earlier (or same,
    ///   for negated CE locals) non-negated CE;
    /// * `remove`/`modify` indices must point at non-negated CEs.
    pub fn validate(&self) -> Result<(), OpsError> {
        let err = |msg: String| Err(OpsError::InvalidProduction(self.name.to_string(), msg));
        if self.lhs.is_empty() {
            return err("production has no condition elements".into());
        }
        if self.lhs.iter().all(|ce| ce.negated) {
            return err("production needs at least one non-negated condition element".into());
        }
        // Walk CEs tracking bound variables.
        let mut bound: HashSet<Symbol> = HashSet::new();
        for ce in &self.lhs {
            let mut local: HashSet<Symbol> = HashSet::new();
            for t in &ce.tests {
                match &t.kind {
                    TestKind::Variable(v) => {
                        local.insert(*v);
                    }
                    TestKind::VariablePred(_, v) => {
                        if !bound.contains(v) && !local.contains(v) {
                            return err(format!(
                                "variable <{v}> used in a predicate before being bound"
                            ));
                        }
                    }
                    TestKind::Constant(..) => {}
                    TestKind::Disjunction(vals) => {
                        if vals.is_empty() {
                            return err("empty disjunction << >> can never match".into());
                        }
                    }
                }
            }
            if !ce.negated {
                bound.extend(local);
            }
            // Variables appearing only inside a negated CE are existential
            // locals; they may not escape, which is enforced by `bound`
            // simply not including them.
        }
        let positive_count = self.lhs.iter().filter(|c| !c.negated).count();
        // RHS `(bind …)` actions extend the visible bindings for the
        // actions that follow them.
        let mut rhs_bound = bound.clone();
        for a in &self.rhs {
            let mut used: HashSet<Symbol> = HashSet::new();
            match a {
                Action::Make { attrs, .. } => {
                    for (_, v) in attrs {
                        v.variables(&mut used);
                    }
                }
                Action::Modify { ce, attrs } => {
                    if *ce == 0 || *ce > positive_count {
                        return err(format!(
                            "(modify {ce}) out of range: production has {positive_count} \
                             non-negated condition elements"
                        ));
                    }
                    for (_, v) in attrs {
                        v.variables(&mut used);
                    }
                }
                Action::Remove(ce) => {
                    if *ce == 0 || *ce > positive_count {
                        return err(format!(
                            "(remove {ce}) out of range: production has {positive_count} \
                             non-negated condition elements"
                        ));
                    }
                }
                Action::Write(vals) => {
                    for v in vals {
                        v.variables(&mut used);
                    }
                }
                Action::Bind(_, expr) => {
                    expr.variables(&mut used);
                }
                Action::Call(_, args) => {
                    for v in args {
                        v.variables(&mut used);
                    }
                }
                Action::Halt => {}
            }
            if let Some(v) = used.iter().find(|v| !rhs_bound.contains(v)) {
                return err(format!("RHS uses unbound variable <{v}>"));
            }
            if let Action::Bind(var, _) = a {
                rhs_bound.insert(*var);
            }
        }
        Ok(())
    }

    /// The variable bindings of an instantiation whose non-negated CEs are
    /// matched, in LHS order, by `wmes`: each variable takes its value at
    /// its first equality occurrence — exactly the map
    /// [`ConditionElement::match_with_bindings`] accumulates along the
    /// match. Every matcher reports instantiations without bindings; the
    /// interpreter derives them here for the one that fires.
    pub fn bindings<'a>(&self, wmes: impl IntoIterator<Item = &'a Wme>) -> Bindings {
        let mut out = Bindings::default();
        for (ce, wme) in self.lhs.iter().filter(|ce| !ce.negated).zip(wmes) {
            for t in &ce.tests {
                if let (TestKind::Variable(var), Some(value)) = (&t.kind, wme.get(t.attr)) {
                    out.entry(*var).or_insert(value);
                }
            }
        }
        out
    }

    /// Total number of LHS tests — the LEX specificity measure.
    pub fn specificity(&self) -> usize {
        self.lhs.iter().map(|c| c.test_count()).sum()
    }
}

impl fmt::Display for Production {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "(p {}", self.name)?;
        for ce in &self.lhs {
            writeln!(f, "   {ce}")?;
        }
        writeln!(f, "  -->")?;
        for a in &self.rhs {
            match a {
                Action::Make { class, attrs } => {
                    write!(f, "   (make {class}")?;
                    for (at, v) in attrs {
                        write!(f, " ^{at} {v}")?;
                    }
                    writeln!(f, ")")?;
                }
                Action::Remove(k) => writeln!(f, "   (remove {k})")?,
                Action::Modify { ce, attrs } => {
                    write!(f, "   (modify {ce}")?;
                    for (at, v) in attrs {
                        write!(f, " ^{at} {v}")?;
                    }
                    writeln!(f, ")")?;
                }
                Action::Write(vals) => {
                    write!(f, "   (write")?;
                    for v in vals {
                        write!(f, " {v}")?;
                    }
                    writeln!(f, ")")?;
                }
                Action::Bind(var, expr) => writeln!(f, "   (bind <{var}> {expr})")?,
                Action::Call(name, args) => {
                    write!(f, "   (call {name}")?;
                    for v in args {
                        write!(f, " {v}")?;
                    }
                    writeln!(f, ")")?;
                }
                Action::Halt => writeln!(f, "   (halt)")?,
            }
        }
        write!(f, ")")
    }
}

/// A production-system program: an ordered set of uniquely named rules.
#[derive(Clone, Debug, Default)]
pub struct Program {
    productions: Vec<Production>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program {
            productions: Vec::new(),
        }
    }

    /// Build a program from rules, validating each and rejecting duplicate
    /// names.
    pub fn from_productions(rules: Vec<Production>) -> Result<Self, OpsError> {
        let mut p = Program::new();
        for r in rules {
            p.add(r)?;
        }
        Ok(p)
    }

    /// Add a rule, validating it.
    pub fn add(&mut self, production: Production) -> Result<ProductionId, OpsError> {
        production.validate()?;
        if self.productions.iter().any(|p| p.name == production.name) {
            return Err(OpsError::DuplicateProduction(production.name.to_string()));
        }
        let id = ProductionId(u32::try_from(self.productions.len()).map_err(|_| {
            OpsError::InvalidProduction(production.name.to_string(), "program too large".into())
        })?);
        self.productions.push(production);
        Ok(id)
    }

    /// The rule with the given id.
    pub fn get(&self, id: ProductionId) -> &Production {
        &self.productions[id.0 as usize]
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.productions.len()
    }

    /// True when the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.productions.is_empty()
    }

    /// Iterate `(id, production)` pairs in definition order.
    pub fn iter(&self) -> impl Iterator<Item = (ProductionId, &Production)> {
        self.productions
            .iter()
            .enumerate()
            .map(|(i, p)| (ProductionId(i as u32), p))
    }

    /// Look up a rule by name.
    pub fn find(&self, name: Symbol) -> Option<ProductionId> {
        self.productions
            .iter()
            .position(|p| p.name == name)
            .map(|i| ProductionId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::{AttrTest, Predicate};
    use crate::symbol::intern;

    fn var_test(attr: &str, var: &str) -> AttrTest {
        AttrTest {
            attr: intern(attr),
            kind: TestKind::Variable(intern(var)),
        }
    }

    fn simple_prod(name: &str) -> Production {
        Production {
            name: intern(name),
            lhs: vec![ConditionElement::positive(
                "block",
                vec![var_test("name", "b")],
            )],
            rhs: vec![Action::Remove(1)],
        }
    }

    #[test]
    fn valid_simple_production() {
        assert!(simple_prod("ok").validate().is_ok());
    }

    #[test]
    fn empty_lhs_rejected() {
        let p = Production {
            name: intern("empty"),
            lhs: vec![],
            rhs: vec![],
        };
        assert!(matches!(p.validate(), Err(OpsError::InvalidProduction(..))));
    }

    #[test]
    fn all_negated_lhs_rejected() {
        let p = Production {
            name: intern("all-neg"),
            lhs: vec![
                ConditionElement::negative("block", vec![]),
                ConditionElement::negative("hand", vec![]),
            ],
            rhs: vec![],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn negated_first_ce_accepted_with_positive_support() {
        // A leading negated CE is legal: its variables are existential
        // locals evaluated before any binding exists.
        let p = Production {
            name: intern("neg-first"),
            lhs: vec![
                ConditionElement::negative("inhibit", vec![var_test("on", "v")]),
                ConditionElement::positive("block", vec![var_test("name", "b")]),
            ],
            rhs: vec![Action::Remove(1)],
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn rhs_unbound_variable_rejected() {
        let p = Production {
            name: intern("unbound"),
            lhs: vec![ConditionElement::positive("block", vec![])],
            rhs: vec![Action::Write(vec![RhsValue::Var(intern("nowhere"))])],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn remove_index_out_of_range_rejected() {
        let mut p = simple_prod("range");
        p.rhs = vec![Action::Remove(2)];
        assert!(p.validate().is_err());
        p.rhs = vec![Action::Remove(0)];
        assert!(p.validate().is_err());
    }

    #[test]
    fn modify_counts_only_positive_ces() {
        let p = Production {
            name: intern("mod-neg"),
            lhs: vec![
                ConditionElement::positive("a", vec![]),
                ConditionElement::negative("b", vec![]),
            ],
            rhs: vec![Action::Modify {
                ce: 2,
                attrs: vec![],
            }],
        };
        // Only one positive CE, so (modify 2) is invalid.
        assert!(p.validate().is_err());
    }

    #[test]
    fn negated_ce_local_variables_do_not_escape() {
        let p = Production {
            name: intern("neg-local"),
            lhs: vec![
                ConditionElement::positive("a", vec![]),
                ConditionElement::negative("b", vec![var_test("x", "v")]),
            ],
            rhs: vec![Action::Write(vec![RhsValue::Var(intern("v"))])],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn variable_pred_forward_reference_rejected() {
        let p = Production {
            name: intern("fwd"),
            lhs: vec![ConditionElement::positive(
                "a",
                vec![AttrTest {
                    attr: intern("size"),
                    kind: TestKind::VariablePred(Predicate::Gt, intern("later")),
                }],
            )],
            rhs: vec![],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn rhs_value_eval() {
        let mut b = Bindings::default();
        b.insert(intern("x"), Value::Int(10));
        let expr = RhsValue::Compute(
            RhsOp::Add,
            Box::new(RhsValue::Var(intern("x"))),
            Box::new(RhsValue::Const(Value::Int(5))),
        );
        assert_eq!(expr.eval(&b).unwrap(), Value::Int(15));
    }

    #[test]
    fn rhs_mod_by_zero_errors() {
        let expr = RhsValue::Compute(
            RhsOp::Mod,
            Box::new(RhsValue::Const(Value::Int(5))),
            Box::new(RhsValue::Const(Value::Int(0))),
        );
        assert!(expr.eval(&Bindings::default()).is_err());
    }

    #[test]
    fn rhs_arith_on_symbol_errors() {
        let expr = RhsValue::Compute(
            RhsOp::Add,
            Box::new(RhsValue::Const(Value::sym("a"))),
            Box::new(RhsValue::Const(Value::Int(1))),
        );
        assert!(expr.eval(&Bindings::default()).is_err());
    }

    #[test]
    fn mod_is_euclidean() {
        assert_eq!(RhsOp::Mod.apply(-1, 4).unwrap(), 3);
    }

    fn overflows(op: RhsOp, a: i64, b: i64) -> bool {
        matches!(op.apply(a, b), Err(OpsError::Arithmetic(m)) if m.starts_with("overflow"))
    }

    #[test]
    fn add_at_the_i64_limits() {
        assert_eq!(RhsOp::Add.apply(i64::MAX, 0).unwrap(), i64::MAX);
        assert_eq!(RhsOp::Add.apply(i64::MIN, i64::MAX).unwrap(), -1);
        assert!(overflows(RhsOp::Add, i64::MAX, 1));
        assert!(overflows(RhsOp::Add, i64::MIN, -1));
    }

    #[test]
    fn sub_at_the_i64_limits() {
        assert_eq!(RhsOp::Sub.apply(i64::MIN, 0).unwrap(), i64::MIN);
        assert_eq!(RhsOp::Sub.apply(-1, i64::MAX).unwrap(), i64::MIN);
        assert!(overflows(RhsOp::Sub, i64::MIN, 1));
        assert!(overflows(RhsOp::Sub, 0, i64::MIN));
    }

    #[test]
    fn mul_at_the_i64_limits() {
        assert_eq!(RhsOp::Mul.apply(i64::MIN, 1).unwrap(), i64::MIN);
        assert_eq!(RhsOp::Mul.apply(i64::MAX, -1).unwrap(), -i64::MAX);
        assert!(overflows(RhsOp::Mul, i64::MIN, -1));
        assert!(overflows(RhsOp::Mul, i64::MAX, 2));
    }

    #[test]
    fn mod_at_the_i64_limits() {
        assert_eq!(RhsOp::Mod.apply(i64::MIN, i64::MAX).unwrap(), i64::MAX - 1);
        assert_eq!(RhsOp::Mod.apply(i64::MAX, i64::MIN).unwrap(), i64::MAX);
        assert!(overflows(RhsOp::Mod, i64::MIN, -1));
        assert!(RhsOp::Mod.apply(i64::MIN, 0).is_err());
    }

    #[test]
    fn bindings_take_each_variable_at_its_first_occurrence() {
        let prog = crate::parse_program(
            "(p b (a ^x <v> ^y <w>) -(c ^x <u>) (d ^x <v> ^z <u>) --> (remove 1))",
        )
        .unwrap();
        let p = prog.get(ProductionId(0));
        let a = Wme::new("a", &[("x", 1.into()), ("y", 2.into())]);
        let d = Wme::new("d", &[("x", 1.into()), ("z", 3.into())]);
        let b = p.bindings([&a, &d]);
        // The negated CE binds nothing; `<u>` first occurs in the third CE.
        let want: Bindings = [("v", 1), ("w", 2), ("u", 3)]
            .into_iter()
            .map(|(v, i)| (intern(v), Value::Int(i)))
            .collect();
        assert_eq!(b, want);
    }

    #[test]
    fn program_rejects_duplicate_names() {
        let mut prog = Program::new();
        prog.add(simple_prod("dup")).unwrap();
        assert!(matches!(
            prog.add(simple_prod("dup")),
            Err(OpsError::DuplicateProduction(_))
        ));
    }

    #[test]
    fn program_lookup_by_name() {
        let mut prog = Program::new();
        let id = prog.add(simple_prod("findme")).unwrap();
        assert_eq!(prog.find(intern("findme")), Some(id));
        assert_eq!(prog.find(intern("ghost")), None);
    }

    #[test]
    fn specificity_counts_all_tests() {
        let p = Production {
            name: intern("spec"),
            lhs: vec![
                ConditionElement::positive("a", vec![var_test("x", "v")]),
                ConditionElement::positive("b", vec![]),
            ],
            rhs: vec![],
        };
        // (class + 1 test) + (class) = 3
        assert_eq!(p.specificity(), 3);
    }
}
