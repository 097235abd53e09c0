//! Seeded random generation of fuzz cases: an OPS5 program plus an
//! external working-memory change schedule.
//!
//! The vocabulary is deliberately tiny — four classes, three attributes,
//! integer values `0..=2` and two symbols — so that independently generated
//! condition elements collide on the same WMEs and joins actually join.
//! Productions share first CEs with earlier productions some of the time to
//! exercise alpha/beta network sharing, negated CEs appear anywhere in the
//! LHS (including before the first positive CE), and constant tests are
//! sometimes disjunctions `<< … >>`.
//!
//! Generation is validity-by-construction where cheap (RHS only references
//! variables bound by positive CEs, `remove`/`modify` indices stay in
//! range) and validity-by-retry otherwise: the candidate is re-rolled from
//! the same RNG stream until [`mpps_ops::Production::validate`] accepts the
//! whole program, so `generate_case(seed, cfg)` is still a pure function of
//! its arguments.

use mpps_ops::{
    intern, Action, AttrTest, ConditionElement, OpsError, Predicate, Production, Program, RhsOp,
    RhsValue, Strategy, TestKind, Value, Wme,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLASSES: [&str; 4] = ["a", "b", "c", "d"];
const ATTRS: [&str; 3] = ["p", "q", "r"];
const VARS: [&str; 3] = ["v0", "v1", "v2"];
const SYMS: [&str; 2] = ["x", "y"];

/// Tunables for case generation.
#[derive(Clone, Debug)]
pub struct GenConfig {
    /// Upper bound on productions per program (≥ 1).
    pub max_productions: usize,
    /// Upper bound on schedule rounds (≥ 1).
    pub max_rounds: usize,
    /// Upper bound on external WM ops per round.
    pub max_ops_per_round: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_productions: 4,
            max_rounds: 6,
            max_ops_per_round: 4,
        }
    }
}

/// One external working-memory operation.
#[derive(Clone, PartialEq, Debug)]
pub enum ScheduleOp {
    /// Add this WME.
    Make(Wme),
    /// Remove the `n % live`-th WME currently in the reference interpreter's
    /// working memory (ascending time-tag order); a no-op when WM is empty.
    RemoveNth(usize),
}

/// External WM changes grouped into rounds; after each round's ops the
/// oracle lets the interpreters fire until quiescence (bounded).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Schedule {
    /// The rounds, in order.
    pub rounds: Vec<Vec<ScheduleOp>>,
}

/// A complete fuzz case: program + strategy + schedule.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The productions (validated as a set by [`FuzzCase::program`]).
    pub productions: Vec<Production>,
    /// Conflict-resolution strategy all interpreters run under.
    pub strategy: Strategy,
    /// The external change schedule.
    pub schedule: Schedule,
}

impl FuzzCase {
    /// Build (and thereby validate) the program.
    pub fn program(&self) -> Result<Program, OpsError> {
        Program::from_productions(self.productions.clone())
    }
}

fn value(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.6) {
        Value::Int(rng.gen_range(0i64..=2))
    } else {
        Value::sym(SYMS[rng.gen_range(0..SYMS.len())])
    }
}

fn wme(rng: &mut StdRng) -> Wme {
    let class = CLASSES[rng.gen_range(0..CLASSES.len())];
    let n_attrs = rng.gen_range(0..=2);
    let mut pairs = Vec::new();
    for _ in 0..n_attrs {
        pairs.push((intern(ATTRS[rng.gen_range(0..ATTRS.len())]), value(rng)));
    }
    Wme::from_pairs(intern(class), pairs)
}

/// One condition element. `bound` is the set of variables already bound by
/// earlier positive CEs (used to bias toward joins and to keep
/// `VariablePred` tests legal). `negated` biases variable choice toward
/// *unbound* names: a variable in a negated CE that only a later positive
/// CE binds is existential inside the negation, the exact scoping rule the
/// matchers have historically disagreed on — the fuzzer must hit it often.
fn condition(rng: &mut StdRng, bound: &[&'static str], negated: bool) -> ConditionElement {
    let class = CLASSES[rng.gen_range(0..CLASSES.len())];
    // Negated CEs always carry at least one test, weighted toward variable
    // tests: a bare `-(class)` only exercises presence, while `-(class ^a
    // <v>)` exercises the binding-scope rules that matchers get wrong.
    let n_tests = if negated {
        rng.gen_range(1..=2)
    } else {
        rng.gen_range(0..=2)
    };
    let var_lo = if negated { 3 } else { 5 };
    let mut tests = Vec::new();
    for _ in 0..n_tests {
        let attr = intern(ATTRS[rng.gen_range(0..ATTRS.len())]);
        let roll = rng.gen_range(0..10);
        let kind = match roll {
            // Variable test: positive CEs prefer an already-bound variable
            // (a join test); negated CEs prefer a fresh name (an
            // existential, possibly forward-referencing a later binder).
            _ if roll >= var_lo && roll <= 8 => {
                let join_bias = if negated { 0.3 } else { 0.7 };
                let v = if !bound.is_empty() && rng.gen_bool(join_bias) {
                    bound[rng.gen_range(0..bound.len())]
                } else {
                    VARS[rng.gen_range(0..VARS.len())]
                };
                TestKind::Variable(intern(v))
            }
            // Constant equality — the alpha-network workhorse.
            0..=3 if rng.gen_bool(0.8) => TestKind::Constant(Predicate::Eq, value(rng)),
            // A disjunction `<< … >>`: no `=` constant, so an alpha testing
            // only this is one the constant-test index cannot file by value.
            0..=3 => {
                let n = rng.gen_range(1..=3);
                TestKind::disjunction((0..n).map(|_| value(rng)).collect())
            }
            // Constant inequality.
            4 => TestKind::Constant(Predicate::Ne, value(rng)),
            // Predicate against a bound variable (falls back to a constant
            // test when nothing is bound yet).
            _ => {
                if bound.is_empty() {
                    TestKind::Constant(Predicate::Lt, Value::Int(rng.gen_range(0i64..=2)))
                } else {
                    let v = bound[rng.gen_range(0..bound.len())];
                    let pred = [Predicate::Ne, Predicate::Lt, Predicate::Gt][rng.gen_range(0..3)];
                    TestKind::VariablePred(pred, intern(v))
                }
            }
        };
        tests.push(AttrTest { attr, kind });
    }
    ConditionElement::positive(class, tests)
}

/// Variables bound (via equality tests) by the positive CEs of `lhs`.
fn bound_vars(lhs: &[ConditionElement]) -> Vec<&'static str> {
    let mut out = Vec::new();
    for ce in lhs.iter().filter(|ce| !ce.negated) {
        for t in &ce.tests {
            if let TestKind::Variable(v) = t.kind {
                if let Some(name) = VARS.iter().find(|&&n| intern(n) == v) {
                    if !out.contains(name) {
                        out.push(name);
                    }
                }
            }
        }
    }
    out
}

fn rhs_value(rng: &mut StdRng, bound: &[&'static str]) -> RhsValue {
    if !bound.is_empty() && rng.gen_bool(0.4) {
        let var = RhsValue::Var(intern(bound[rng.gen_range(0..bound.len())]));
        if rng.gen_bool(0.5) {
            computed(rng, var)
        } else {
            var
        }
    } else {
        RhsValue::Const(value(rng))
    }
}

/// `(mod (op <v> k) 3)`: arithmetic over a bound variable whose result
/// stays in the colliding `0..=2` vocabulary, so computed values feed back
/// into matching. Rarely `k` sits near `i64::MAX`, so that some bindings
/// overflow and every lane must stop on the same arithmetic error (as it
/// must when `<v>` holds a symbol).
fn computed(rng: &mut StdRng, var: RhsValue) -> RhsValue {
    let op = [RhsOp::Add, RhsOp::Sub, RhsOp::Mul][rng.gen_range(0..3)];
    let k = if rng.gen_bool(0.2) {
        i64::MAX - rng.gen_range(0i64..=2)
    } else {
        rng.gen_range(0i64..=2)
    };
    let inner = RhsValue::Compute(op, Box::new(var), Box::new(RhsValue::Const(Value::Int(k))));
    RhsValue::Compute(
        RhsOp::Mod,
        Box::new(inner),
        Box::new(RhsValue::Const(Value::Int(3))),
    )
}

fn production(rng: &mut StdRng, index: usize, earlier: &[Production]) -> Production {
    let n_ces = rng.gen_range(1..=3);
    let mut lhs: Vec<ConditionElement> = Vec::with_capacity(n_ces);
    for i in 0..n_ces {
        // Shared join prefixes: sometimes open with the first CE of an
        // earlier production so alpha/beta nodes get shared.
        if i == 0 && !earlier.is_empty() && rng.gen_bool(0.35) {
            let donor = &earlier[rng.gen_range(0..earlier.len())];
            lhs.push(donor.lhs[0].clone());
            continue;
        }
        let bound = bound_vars(&lhs);
        // Negate with modest probability; validation requires at least one
        // positive CE, which the retry loop in `generate_case` enforces for
        // the rare all-negated roll.
        let negated = rng.gen_bool(0.25);
        let mut ce = condition(rng, &bound, negated);
        ce.negated = negated;
        lhs.push(ce);
    }
    let positive_count = lhs.iter().filter(|ce| !ce.negated).count();
    let bound = bound_vars(&lhs);

    let n_actions = rng.gen_range(1..=2);
    let mut rhs = Vec::with_capacity(n_actions);
    for _ in 0..n_actions {
        let action = match rng.gen_range(0..6) {
            // Removals dominate: they drain WM, which keeps runs finite and
            // exercises every matcher's retraction path.
            0 | 1 if positive_count > 0 => Action::Remove(rng.gen_range(1..=positive_count)),
            2 | 3 => {
                let n_attrs = rng.gen_range(0..=2);
                let attrs = (0..n_attrs)
                    .map(|_| {
                        (
                            intern(ATTRS[rng.gen_range(0..ATTRS.len())]),
                            rhs_value(rng, &bound),
                        )
                    })
                    .collect();
                Action::Make {
                    class: intern(CLASSES[rng.gen_range(0..CLASSES.len())]),
                    attrs,
                }
            }
            _ if positive_count > 0 => Action::Modify {
                ce: rng.gen_range(1..=positive_count),
                attrs: vec![(
                    intern(ATTRS[rng.gen_range(0..ATTRS.len())]),
                    rhs_value(rng, &bound),
                )],
            },
            _ => Action::Make {
                class: intern(CLASSES[rng.gen_range(0..CLASSES.len())]),
                attrs: Vec::new(),
            },
        };
        rhs.push(action);
    }

    Production {
        name: intern(&format!("gen-p{index}")),
        lhs,
        rhs,
    }
}

/// A WME aimed at `ce`: same class, constant-equality tests satisfied,
/// variable-tested attributes filled with random (joinable) values. Purely
/// random WMEs rarely hit a 2-test CE; aimed ones make joins and negations
/// actually fire.
fn wme_for_ce(rng: &mut StdRng, ce: &ConditionElement) -> Wme {
    let mut w = Wme::from_pairs(ce.class, []);
    for t in &ce.tests {
        match &t.kind {
            TestKind::Constant(Predicate::Eq, v) => w.set(t.attr, *v),
            TestKind::Disjunction(vals) => w.set(t.attr, vals[rng.gen_range(0..vals.len())]),
            _ => w.set(t.attr, value(rng)),
        }
    }
    // Occasionally an extra attribute no test asked for.
    if rng.gen_bool(0.2) {
        w.set(intern(ATTRS[rng.gen_range(0..ATTRS.len())]), value(rng));
    }
    w
}

fn schedule(rng: &mut StdRng, cfg: &GenConfig, productions: &[Production]) -> Schedule {
    let ces: Vec<&ConditionElement> = productions.iter().flat_map(|p| p.lhs.iter()).collect();
    let n_rounds = rng.gen_range(1..=cfg.max_rounds.max(1));
    let mut rounds = Vec::with_capacity(n_rounds);
    for _ in 0..n_rounds {
        let n_ops = rng.gen_range(0..=cfg.max_ops_per_round);
        let ops = (0..n_ops)
            .map(|_| match rng.gen_range(0..10) {
                // Aimed at a production CE (including negated ones — that
                // is how blocking WMEs arise).
                0..=4 if !ces.is_empty() => {
                    let target = ces[rng.gen_range(0..ces.len())];
                    ScheduleOp::Make(wme_for_ce(rng, target))
                }
                0..=6 => ScheduleOp::Make(wme(rng)),
                _ => ScheduleOp::RemoveNth(rng.gen_range(0..8)),
            })
            .collect();
        rounds.push(ops);
    }
    Schedule { rounds }
}

/// Generate the fuzz case for `seed`. Deterministic: the same seed and
/// config always produce the same case.
pub fn generate_case(seed: u64, cfg: &GenConfig) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let n_prods = rng.gen_range(1..=cfg.max_productions.max(1));
        let mut productions: Vec<Production> = Vec::with_capacity(n_prods);
        for i in 0..n_prods {
            productions.push(production(&mut rng, i, &productions));
        }
        let strategy = if rng.gen_bool(0.5) {
            Strategy::Lex
        } else {
            Strategy::Mea
        };
        let schedule = schedule(&mut rng, cfg, &productions);
        let case = FuzzCase {
            productions,
            strategy,
            schedule,
        };
        // Rare invalid rolls (e.g. an all-negated LHS) re-roll from the
        // same stream, keeping generation a pure function of the seed.
        if case.program().is_ok() {
            return case;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate_case(42, &cfg);
        let b = generate_case(42, &cfg);
        assert_eq!(a.productions, b.productions);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.strategy, b.strategy);
    }

    #[test]
    fn generated_programs_validate() {
        let cfg = GenConfig::default();
        for seed in 0..200 {
            let case = generate_case(seed, &cfg);
            case.program()
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid program: {e}"));
            assert!(!case.schedule.rounds.is_empty());
        }
    }

    #[test]
    fn generation_covers_the_interesting_features() {
        let cfg = GenConfig::default();
        let (mut negated, mut mea, mut multi_ce, mut removes) = (false, false, false, false);
        let (mut disjunction_only, mut computed, mut near_max) = (false, false, false);
        for seed in 0..300 {
            let case = generate_case(seed, &cfg);
            mea |= case.strategy == Strategy::Mea;
            for p in &case.productions {
                negated |= p.lhs.iter().any(|ce| ce.negated);
                multi_ce |= p.lhs.len() > 1;
                removes |= p.rhs.iter().any(|a| matches!(a, Action::Remove(_)));
                // A CE whose only tests are disjunctions compiles to an alpha
                // with no `=` constant.
                disjunction_only |= p.lhs.iter().any(|ce| {
                    !ce.tests.is_empty()
                        && ce
                            .tests
                            .iter()
                            .all(|t| matches!(t.kind, TestKind::Disjunction(_)))
                });
                for value in p.rhs.iter().flat_map(rhs_values) {
                    computed |= matches!(value, RhsValue::Compute(..));
                    near_max |= value.to_string().contains("922337203685477580");
                }
            }
        }
        assert!(negated && mea && multi_ce && removes && disjunction_only);
        assert!(
            computed && near_max,
            "no computed RHS value, or none near i64::MAX"
        );
    }

    fn rhs_values(action: &Action) -> Vec<&RhsValue> {
        match action {
            Action::Make { attrs, .. } | Action::Modify { attrs, .. } => {
                attrs.iter().map(|(_, v)| v).collect()
            }
            _ => Vec::new(),
        }
    }

    #[test]
    fn generated_cases_actually_fire() {
        // Vacuity guard: a generator drift that stops schedules from ever
        // matching productions would leave the oracle comparing empty
        // conflict sets forever. Demand a healthy firing rate.
        use crate::gen::ScheduleOp;
        use mpps_ops::interpreter::StepOutcome;
        use mpps_ops::{Interpreter, WmeId};
        let cfg = GenConfig::default();
        let mut fired_cases = 0;
        for seed in 0..100u64 {
            let case = generate_case(seed, &cfg);
            let mut interp = Interpreter::new(case.program().unwrap(), case.strategy);
            let mut fired = false;
            'case: for round in &case.schedule.rounds {
                for op in round {
                    match op {
                        ScheduleOp::Make(w) => {
                            interp.add_wme(w.clone());
                        }
                        ScheduleOp::RemoveNth(n) => {
                            let ids: Vec<WmeId> =
                                interp.working_memory().iter().map(|(id, _)| id).collect();
                            if let Some(&id) = ids.get(n % ids.len().max(1)) {
                                interp.remove_wme(id).unwrap();
                            }
                        }
                    }
                }
                for _ in 0..8 {
                    match interp.step() {
                        Ok(StepOutcome::Fired(_)) => fired = true,
                        _ => break,
                    }
                    if interp.is_halted() {
                        break 'case;
                    }
                }
            }
            fired_cases += usize::from(fired);
        }
        assert!(
            fired_cases >= 25,
            "only {fired_cases}/100 generated cases fired a production"
        );
    }

    #[test]
    fn generated_program_text_roundtrips() {
        // The Display form of every generated production must parse back —
        // that is what makes the emitted reproducers runnable.
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let case = generate_case(seed, &cfg);
            let text = case
                .productions
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join("\n");
            let reparsed = mpps_ops::parse_program(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: display did not reparse: {e}\n{text}"));
            assert_eq!(reparsed.len(), case.productions.len());
        }
    }
}
