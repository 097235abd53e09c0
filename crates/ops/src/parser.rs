//! Parser for the OPS5-like textual syntax.
//!
//! Grammar (s-expressions, `;` comments to end of line):
//!
//! ```text
//! program    := production*
//! production := '(' 'p' name ce+ '-->' action* ')'
//! ce         := ['-'] '(' class test* ')'
//! test       := '^' attr ([pred] (constant | variable) | '<<' constant+ '>>')
//! pred       := '=' | '<>' | '<' | '<=' | '>' | '>='
//! action     := '(' 'make' class (attrval)* ')'
//!             | '(' 'remove' INT ')'
//!             | '(' 'modify' INT attrval* ')'
//!             | '(' 'write' rhsval* ')'
//!             | '(' 'halt' ')'
//! attrval    := '^' attr rhsval
//! rhsval     := constant | variable | '(' ('+'|'-'|'*'|'mod') rhsval rhsval ')'
//! ```
//!
//! Variables are written `<name>`. A bare constant after `^attr` means an
//! equality test; a predicate token before the operand makes it relational,
//! e.g. `^size > 4` or `^size > <s>`. RHS computations nest at most
//! [`MAX_RHS_NESTING`] deep.
//!
//! The parser reads client input (`mpps run`, `mpps serve`), so malformed
//! input is a `ParseError`, and the module denies `unwrap`, `expect` and
//! `panic!` outside tests.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::cond::{AttrTest, ConditionElement, Predicate, TestKind};
use crate::error::{OpsError, ParseError};
use crate::production::{Action, Production, Program, RhsOp, RhsValue};
use crate::symbol::{intern, Symbol};
use crate::value::Value;
use crate::wme::Wme;

/// How deep `(op a b)` computations may nest in one RHS value. A value is
/// built, validated, evaluated, printed and dropped by recursion, so this
/// one limit bounds the stack all of those use. The deepest value in this
/// repository nests 2 (the fuzz generator's `(mod (op <v> k) 3)`); a debug
/// build still serves 1024 levels on a 2 MiB thread stack.
pub const MAX_RHS_NESTING: usize = 256;

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    LParen,
    RParen,
    Arrow,
    /// `-` immediately before `(`: CE negation.
    NegDash,
    /// `^attr`
    Attr(Symbol),
    /// `<name>`
    Var(Symbol),
    /// Relational predicate token.
    Pred(Predicate),
    /// `<<` — start of a disjunction.
    LDisj,
    /// `>>` — end of a disjunction.
    RDisj,
    /// Bare identifier.
    Sym(Symbol),
    /// Integer literal.
    Int(i64),
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

/// A token together with its source location.
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'*' | b'+' | b'?' | b'.' | b'/' | b'!')
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b';') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// The identifier at the cursor, borrowed from the source. Identifier
    /// bytes are ASCII, so both ends of the slice are char boundaries.
    fn ident(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if is_ident_char(c) {
                self.bump();
            } else {
                break;
            }
        }
        &self.src[start..self.pos]
    }

    fn next_token(&mut self) -> Result<Option<Spanned>, ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let span = |tok| Spanned { tok, line, col };
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b'^' => {
                self.bump();
                let name = self.ident();
                if name.is_empty() {
                    return Err(self.err("expected attribute name after '^'"));
                }
                Tok::Attr(intern(name))
            }
            b'<' => {
                self.bump();
                match self.peek() {
                    Some(b'<') => {
                        self.bump();
                        Tok::LDisj
                    }
                    Some(b'>') => {
                        self.bump();
                        Tok::Pred(Predicate::Ne)
                    }
                    Some(b'=') => {
                        self.bump();
                        Tok::Pred(Predicate::Le)
                    }
                    Some(d) if is_ident_char(d) => {
                        let name = self.ident();
                        if self.peek() == Some(b'>') {
                            self.bump();
                            Tok::Var(intern(name))
                        } else {
                            return Err(self.err(format!("unterminated variable <{name}")));
                        }
                    }
                    _ => Tok::Pred(Predicate::Lt),
                }
            }
            b'>' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        Tok::Pred(Predicate::Ge)
                    }
                    Some(b'>') => {
                        self.bump();
                        Tok::RDisj
                    }
                    _ => Tok::Pred(Predicate::Gt),
                }
            }
            b'=' => {
                self.bump();
                Tok::Pred(Predicate::Eq)
            }
            b'-' => {
                if self.peek2() == Some(b'-')
                    && self.src.as_bytes().get(self.pos + 2) == Some(&b'>')
                {
                    self.bump();
                    self.bump();
                    self.bump();
                    Tok::Arrow
                } else if self.peek2() == Some(b'(') {
                    self.bump();
                    Tok::NegDash
                } else if self.peek2().is_some_and(|d| d.is_ascii_digit()) {
                    // Sign and digits parse together, so `i64::MIN` (which
                    // has no positive counterpart) reads back.
                    let text = self.ident();
                    let n: i64 = text
                        .parse()
                        .map_err(|_| self.err(format!("bad integer {text}")))?;
                    Tok::Int(n)
                } else {
                    self.bump();
                    // Bare '-': the subtraction operator symbol.
                    Tok::Sym(intern("-"))
                }
            }
            d if d.is_ascii_digit() => {
                let digits = self.ident();
                match digits.parse::<i64>() {
                    Ok(n) => Tok::Int(n),
                    // Identifiers may start with a digit in OPS5 (rare);
                    // treat unparsable numerics as symbols.
                    Err(_) => Tok::Sym(intern(digits)),
                }
            }
            c if is_ident_char(c) => {
                let name = self.ident();
                Tok::Sym(intern(name))
            }
            other => {
                return Err(self.err(format!("unexpected character {:?}", other as char)));
            }
        };
        Ok(Some(span(tok)))
    }
}

fn lex(src: &str) -> Result<Vec<Spanned>, ParseError> {
    let mut lexer = Lexer::new(src);
    let mut out = Vec::new();
    while let Some(t) = lexer.next_token()? {
        out.push(t);
    }
    Ok(out)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn err_at(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or((0, 0), |s| (s.line, s.col));
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(self.err_at(format!("expected {what}, found {t:?}"))),
            None => Err(self.err_at(format!("expected {what}, found end of input"))),
        }
    }

    fn expect_sym(&mut self, what: &str) -> Result<Symbol, ParseError> {
        match self.next() {
            Some(Tok::Sym(s)) => Ok(s),
            Some(t) => Err(self.err_at(format!("expected {what}, found {t:?}"))),
            None => Err(self.err_at(format!("expected {what}, found end of input"))),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn production(&mut self) -> Result<Production, ParseError> {
        self.expect(&Tok::LParen, "'('")?;
        let head = self.expect_sym("'p'")?;
        if head.as_str() != "p" {
            return Err(self.err_at(format!("expected 'p', found '{head}'")));
        }
        let name = self.expect_sym("production name")?;
        let mut lhs = Vec::new();
        loop {
            match self.peek() {
                Some(Tok::Arrow) => {
                    self.next();
                    break;
                }
                Some(Tok::LParen) => lhs.push(self.condition_element(false)?),
                Some(Tok::NegDash) => {
                    self.next();
                    lhs.push(self.condition_element(true)?);
                }
                _ => return Err(self.err_at("expected condition element or '-->'")),
            }
        }
        let mut rhs = Vec::new();
        while self.peek() == Some(&Tok::LParen) {
            rhs.push(self.action()?);
        }
        self.expect(&Tok::RParen, "')' closing production")?;
        Ok(Production { name, lhs, rhs })
    }

    fn condition_element(&mut self, negated: bool) -> Result<ConditionElement, ParseError> {
        self.expect(&Tok::LParen, "'('")?;
        let class = self.expect_sym("condition-element class")?;
        let mut tests = Vec::new();
        loop {
            match self.next() {
                Some(Tok::RParen) => break,
                Some(Tok::Attr(attr)) => {
                    let kind = self.attr_test_kind()?;
                    tests.push(AttrTest { attr, kind });
                }
                Some(t) => return Err(self.err_at(format!("expected '^attr' or ')', found {t:?}"))),
                None => return Err(self.err_at("unterminated condition element")),
            }
        }
        Ok(ConditionElement {
            class,
            tests,
            negated,
        })
    }

    fn attr_test_kind(&mut self) -> Result<TestKind, ParseError> {
        match self.next() {
            Some(Tok::LDisj) => {
                let mut values = Vec::new();
                loop {
                    match self.next() {
                        Some(Tok::RDisj) => break,
                        Some(Tok::Sym(s)) => values.push(Value::Sym(s)),
                        Some(Tok::Int(i)) => values.push(Value::Int(i)),
                        other => {
                            return Err(self.err_at(format!(
                                "expected constant or '>>' in disjunction, found {other:?}"
                            )))
                        }
                    }
                }
                if values.is_empty() {
                    return Err(self.err_at("empty disjunction << >>"));
                }
                Ok(TestKind::disjunction(values))
            }
            Some(Tok::Sym(s)) => Ok(TestKind::Constant(Predicate::Eq, Value::Sym(s))),
            Some(Tok::Int(i)) => Ok(TestKind::Constant(Predicate::Eq, Value::Int(i))),
            Some(Tok::Var(v)) => Ok(TestKind::Variable(v)),
            Some(Tok::Pred(p)) => match self.next() {
                Some(Tok::Sym(s)) => Ok(TestKind::Constant(p, Value::Sym(s))),
                Some(Tok::Int(i)) => Ok(TestKind::Constant(p, Value::Int(i))),
                Some(Tok::Var(v)) => {
                    if p == Predicate::Eq {
                        Ok(TestKind::Variable(v))
                    } else {
                        Ok(TestKind::VariablePred(p, v))
                    }
                }
                other => {
                    Err(self.err_at(format!("expected value after predicate, found {other:?}")))
                }
            },
            other => Err(self.err_at(format!("expected test value, found {other:?}"))),
        }
    }

    fn action(&mut self) -> Result<Action, ParseError> {
        self.expect(&Tok::LParen, "'('")?;
        let head = self.expect_sym("action name")?;
        let action = match head.as_str() {
            "make" => {
                let class = self.expect_sym("class for make")?;
                let attrs = self.attr_values()?;
                Action::Make { class, attrs }
            }
            "remove" => {
                let k = self.expect_index()?;
                Action::Remove(k)
            }
            "modify" => {
                let ce = self.expect_index()?;
                let attrs = self.attr_values()?;
                Action::Modify { ce, attrs }
            }
            "write" => {
                let mut vals = Vec::new();
                while self.peek() != Some(&Tok::RParen) {
                    vals.push(self.rhs_value(0)?);
                }
                Action::Write(vals)
            }
            "bind" => {
                let var = match self.next() {
                    Some(Tok::Var(v)) => v,
                    other => {
                        return Err(
                            self.err_at(format!("expected variable after bind, found {other:?}"))
                        )
                    }
                };
                Action::Bind(var, self.rhs_value(0)?)
            }
            "call" => {
                let name = self.expect_sym("function name")?;
                let mut args = Vec::new();
                while self.peek() != Some(&Tok::RParen) {
                    args.push(self.rhs_value(0)?);
                }
                Action::Call(name, args)
            }
            "halt" => Action::Halt,
            other => return Err(self.err_at(format!("unknown action '{other}'"))),
        };
        self.expect(&Tok::RParen, "')' closing action")?;
        Ok(action)
    }

    fn expect_index(&mut self) -> Result<usize, ParseError> {
        match self.next() {
            Some(Tok::Int(i)) if i > 0 => Ok(i as usize),
            Some(t) => Err(self.err_at(format!(
                "expected positive condition-element index, found {t:?}"
            ))),
            None => Err(self.err_at("expected condition-element index")),
        }
    }

    /// `^attr rhsval` pairs until the closing paren (not consumed).
    fn attr_values(&mut self) -> Result<Vec<(Symbol, RhsValue)>, ParseError> {
        let mut out = Vec::new();
        while let Some(&Tok::Attr(attr)) = self.peek() {
            self.next();
            out.push((attr, self.rhs_value(0)?));
        }
        Ok(out)
    }

    /// An RHS value inside `depth` enclosing computations.
    fn rhs_value(&mut self, depth: usize) -> Result<RhsValue, ParseError> {
        if depth == MAX_RHS_NESTING && self.peek() == Some(&Tok::LParen) {
            return Err(self.err_at(format!(
                "RHS computation nested deeper than {MAX_RHS_NESTING}"
            )));
        }
        match self.next() {
            Some(Tok::Sym(s)) => Ok(RhsValue::Const(Value::Sym(s))),
            Some(Tok::Int(i)) => Ok(RhsValue::Const(Value::Int(i))),
            Some(Tok::Var(v)) => Ok(RhsValue::Var(v)),
            Some(Tok::LParen) => {
                let op = match self.next() {
                    Some(Tok::Sym(s)) => match s.as_str() {
                        "+" => RhsOp::Add,
                        "-" => RhsOp::Sub,
                        "*" => RhsOp::Mul,
                        "mod" => RhsOp::Mod,
                        other => return Err(self.err_at(format!("unknown operator '{other}'"))),
                    },
                    other => return Err(self.err_at(format!("expected operator, found {other:?}"))),
                };
                let a = self.rhs_value(depth + 1)?;
                let b = self.rhs_value(depth + 1)?;
                self.expect(&Tok::RParen, "')' closing computation")?;
                Ok(RhsValue::Compute(op, Box::new(a), Box::new(b)))
            }
            other => Err(self.err_at(format!("expected RHS value, found {other:?}"))),
        }
    }
}

/// Parse a single production.
pub fn parse_production(src: &str) -> Result<Production, OpsError> {
    let mut p = Parser {
        toks: lex(src)?,
        pos: 0,
    };
    let prod = p.production()?;
    if !p.at_end() {
        return Err(p.err_at("trailing input after production").into());
    }
    prod.validate()?;
    Ok(prod)
}

/// Parse a whole program (any number of productions).
pub fn parse_program(src: &str) -> Result<Program, OpsError> {
    let mut p = Parser {
        toks: lex(src)?,
        pos: 0,
    };
    let mut prods = Vec::new();
    while !p.at_end() {
        prods.push(p.production()?);
    }
    Program::from_productions(prods)
}

/// Parse a literal WME, e.g. `(block ^name b1 ^color blue)`. Only constant
/// values are allowed.
pub fn parse_wme(src: &str) -> Result<Wme, OpsError> {
    let mut p = Parser {
        toks: lex(src)?,
        pos: 0,
    };
    p.expect(&Tok::LParen, "'('").map_err(OpsError::Parse)?;
    let class = p.expect_sym("WME class").map_err(OpsError::Parse)?;
    let mut pairs = Vec::new();
    loop {
        match p.next() {
            Some(Tok::RParen) => break,
            Some(Tok::Attr(attr)) => {
                let v = match p.next() {
                    Some(Tok::Sym(s)) => Value::Sym(s),
                    Some(Tok::Int(i)) => Value::Int(i),
                    other => {
                        return Err(p
                            .err_at(format!("expected constant value, found {other:?}"))
                            .into())
                    }
                };
                pairs.push((attr, v));
            }
            other => {
                return Err(p
                    .err_at(format!("expected '^attr' or ')', found {other:?}"))
                    .into())
            }
        }
    }
    if !p.at_end() {
        return Err(p.err_at("trailing input after WME").into());
    }
    Ok(Wme::from_pairs(class, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::intern;

    #[test]
    fn parses_paper_production() {
        let p = parse_production(
            r#"
            (p clear-the-blue-block
               (block ^name <block2> ^color blue)
               (block ^name <block2> ^on <block1>)
               (hand ^state free)
               -->
               (remove 2))
            "#,
        )
        .unwrap();
        assert_eq!(p.name.as_str(), "clear-the-blue-block");
        assert_eq!(p.lhs.len(), 3);
        assert_eq!(p.rhs, vec![Action::Remove(2)]);
        assert_eq!(
            p.lhs[0].tests[1].kind,
            TestKind::Constant(Predicate::Eq, Value::sym("blue"))
        );
        assert_eq!(p.lhs[0].tests[0].kind, TestKind::Variable(intern("block2")));
    }

    #[test]
    fn parses_negated_ce() {
        let p = parse_production("(p neg (a ^x 1) -(b ^y <> 2) --> (halt))").unwrap();
        assert!(p.lhs[1].negated);
        assert_eq!(
            p.lhs[1].tests[0].kind,
            TestKind::Constant(Predicate::Ne, Value::Int(2))
        );
    }

    #[test]
    fn parses_relational_predicates() {
        let p = parse_production(
            "(p rel (a ^v <x>) (box ^size > 4 ^w <= 9 ^d >= <x> ^e < 0) --> (halt))",
        )
        .unwrap();
        let t = &p.lhs[1].tests;
        assert_eq!(t[0].kind, TestKind::Constant(Predicate::Gt, Value::Int(4)));
        assert_eq!(t[1].kind, TestKind::Constant(Predicate::Le, Value::Int(9)));
        assert_eq!(
            t[2].kind,
            TestKind::VariablePred(Predicate::Ge, intern("x"))
        );
        assert_eq!(t[3].kind, TestKind::Constant(Predicate::Lt, Value::Int(0)));
    }

    #[test]
    fn eq_predicate_before_variable_is_plain_binding() {
        let p = parse_production("(p eqv (a ^x <v>) (b ^y = <v>) --> (halt))").unwrap();
        assert_eq!(p.lhs[1].tests[0].kind, TestKind::Variable(intern("v")));
    }

    #[test]
    fn parses_arithmetic_rhs() {
        let p =
            parse_production("(p arith (c ^v <v>) --> (modify 1 ^v (+ (* <v> 2) -3)))").unwrap();
        let Action::Modify { attrs, .. } = &p.rhs[0] else {
            panic!("expected modify");
        };
        let (attr, val) = &attrs[0];
        assert_eq!(attr.as_str(), "v");
        assert_eq!(val.to_string(), "(+ (* <v> 2) -3)");
    }

    #[test]
    fn parses_negative_integers() {
        let p = parse_production("(p negint (a ^x -5) --> (halt))").unwrap();
        assert_eq!(
            p.lhs[0].tests[0].kind,
            TestKind::Constant(Predicate::Eq, Value::Int(-5))
        );
    }

    #[test]
    fn the_i64_limits_round_trip() {
        for n in [i64::MIN, i64::MAX] {
            let w = parse_wme(&format!("(a ^x {n})")).unwrap();
            assert_eq!(w.get(intern("x")), Some(Value::Int(n)));
            assert_eq!(parse_wme(&w.to_string()).unwrap(), w);
            let p = parse_production(&format!("(p lim (a ^x {n}) --> (make b ^y {n}))")).unwrap();
            assert_eq!(
                p.lhs[0].tests[0].kind,
                TestKind::Constant(Predicate::Eq, Value::Int(n))
            );
            let prog = parse_program(&p.to_string()).unwrap();
            assert_eq!(prog.get(crate::ProductionId(0)), &p);
        }
        let e = parse_wme("(a ^x -9223372036854775809)").unwrap_err();
        assert!(
            e.to_string().contains("bad integer -9223372036854775809"),
            "{e}"
        );
    }

    /// `(p a (x ^v <v>) --> (make y ^w (+ (+ … 1) 1)) (remove 1))` with
    /// `depth` nested additions.
    fn nested_program(depth: usize) -> String {
        format!(
            "(p a (x ^v <v>) --> (make y ^w {}1{}) (remove 1))",
            "(+ ".repeat(depth),
            " 1)".repeat(depth)
        )
    }

    #[test]
    fn rhs_nesting_at_the_limit_parses_and_one_deeper_is_an_error() {
        let p = parse_production(&nested_program(MAX_RHS_NESTING)).unwrap();
        assert_eq!(parse_production(&p.to_string()).unwrap(), p);
        let Action::Make { attrs, .. } = &p.rhs[0] else {
            panic!("expected make")
        };
        let sum = attrs[0].1.eval(&crate::Bindings::default()).unwrap();
        assert_eq!(sum, Value::Int(MAX_RHS_NESTING as i64 + 1));
        let e = parse_program(&nested_program(MAX_RHS_NESTING + 1)).unwrap_err();
        let OpsError::Parse(pe) = e else {
            panic!("expected a parse error, got {e:?}")
        };
        // The offending token is the innermost `(`.
        let col = "(p a (x ^v <v>) --> (make y ^w ".len() + 3 * MAX_RHS_NESTING + 1;
        assert_eq!((pe.line, pe.col), (1, col), "{pe}");
        assert!(pe.message.contains("nested deeper than"), "{pe}");
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program("; a leading comment\n(p c (a) --> (halt)) ; trailing\n").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn unterminated_variable_errors() {
        let e = parse_production("(p bad (a ^x <oops) --> (halt))").unwrap_err();
        assert!(e.to_string().contains("unterminated variable"));
    }

    #[test]
    fn unknown_action_errors() {
        let e = parse_production("(p bad (a) --> (explode))").unwrap_err();
        assert!(e.to_string().contains("unknown action"));
    }

    #[test]
    fn missing_arrow_errors() {
        assert!(parse_production("(p bad (a) (halt))").is_err());
    }

    #[test]
    fn remove_zero_index_rejected() {
        assert!(parse_production("(p bad (a) --> (remove 0))").is_err());
    }

    #[test]
    fn validation_runs_on_parse() {
        // RHS variable never bound on LHS → semantic validation error.
        let e = parse_production("(p bad (a) --> (write <ghost>))").unwrap_err();
        assert!(matches!(e, OpsError::InvalidProduction(..)));
    }

    #[test]
    fn parse_wme_roundtrip() {
        let w = parse_wme("(block ^name b1 ^color blue ^weight 3)").unwrap();
        assert_eq!(w.class().as_str(), "block");
        assert_eq!(w.get(intern("weight")), Some(Value::Int(3)));
        assert_eq!(parse_wme(&w.to_string()).unwrap(), w);
    }

    #[test]
    fn parse_wme_rejects_variables() {
        assert!(parse_wme("(block ^name <b>)").is_err());
    }

    #[test]
    fn multi_production_program() {
        let prog = parse_program(
            r#"
            (p first  (a ^x <v>) --> (write <v>))
            (p second (b ^y 1) --> (halt))
            "#,
        )
        .unwrap();
        assert_eq!(prog.len(), 2);
        assert!(prog.find(intern("first")).is_some());
        assert!(prog.find(intern("second")).is_some());
    }

    #[test]
    fn error_location_is_reported() {
        let e = parse_production("(p bad\n   (a ^ ) --> (halt))").unwrap_err();
        let OpsError::Parse(pe) = e else { panic!() };
        assert_eq!(pe.line, 2);
    }

    #[test]
    fn display_parse_roundtrip_for_production() {
        let src = r#"
            (p round-trip
               (block ^name <b> ^size > 4)
               -(hand ^state busy)
               -->
               (make goal ^obj <b> ^n (+ 1 2))
               (modify 1 ^size 0)
               (remove 1)
               (write done <b>)
               (halt))
        "#;
        let p1 = parse_production(src).unwrap();
        let p2 = parse_production(&p1.to_string()).unwrap();
        assert_eq!(p1, p2);
    }
}

#[cfg(test)]
mod disjunction_tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn parses_disjunction() {
        let p =
            parse_production("(p disj (block ^color << red blue 3 >>) --> (remove 1))").unwrap();
        let TestKind::Disjunction(vals) = &p.lhs[0].tests[0].kind else {
            panic!("expected disjunction, got {:?}", p.lhs[0].tests[0].kind);
        };
        assert_eq!(vals.len(), 3);
        assert!(vals.contains(&Value::sym("red")));
        assert!(vals.contains(&Value::Int(3)));
    }

    #[test]
    fn disjunction_is_canonical() {
        let a = parse_production("(p a (b ^c << x y >>) --> (remove 1))").unwrap();
        let b = parse_production("(p a (b ^c << y x x >>) --> (remove 1))").unwrap();
        assert_eq!(a.lhs, b.lhs);
    }

    #[test]
    fn empty_disjunction_rejected() {
        assert!(parse_production("(p a (b ^c << >>) --> (remove 1))").is_err());
    }

    #[test]
    fn disjunction_rejects_variables_inside() {
        assert!(parse_production("(p a (b ^c << <v> x >>) --> (remove 1))").is_err());
    }

    #[test]
    fn disjunction_display_roundtrip() {
        let p = parse_production("(p a (b ^c << red blue >> ^n <v>) --> (write <v>))").unwrap();
        let q = parse_production(&p.to_string()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn ne_predicate_still_lexes_next_to_disjunction() {
        let p = parse_production("(p a (b ^c <> red ^d << 1 2 >>) --> (remove 1))").unwrap();
        assert!(matches!(
            p.lhs[0].tests[0].kind,
            TestKind::Constant(Predicate::Ne, _)
        ));
    }
}
