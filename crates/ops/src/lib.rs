#![warn(missing_docs)]

//! # mpps-ops — an OPS5-subset production-system language
//!
//! This crate provides the language substrate for the `mpps` workspace, a
//! reproduction of *"Production Systems on Message Passing Computers"*
//! (Tambe, Acharya & Gupta, ICPP 1989). It implements the parts of OPS5 that
//! the paper's match-parallelism study depends on:
//!
//! * **Working memory**: records-with-attributes ([`Wme`]) identified by
//!   monotonically increasing time tags ([`WmeId`]).
//! * **Productions**: left-hand sides made of condition elements with
//!   constant tests, variable (equality) tests and negated condition
//!   elements; right-hand sides with `make` / `remove` / `modify` / `write` /
//!   `halt` actions.
//! * A textual parser for an OPS5-like s-expression syntax and a
//!   programmatic [`builder`] API.
//! * **Conflict resolution**: the OPS5 LEX and MEA strategies with
//!   refraction.
//! * The **match–resolve–act interpreter** ([`Interpreter`]) parameterized
//!   over a [`Matcher`], so the naive matcher in this crate, the sequential
//!   Rete engine in `mpps-rete`, and the parallel executors in `mpps-core`
//!   are interchangeable.
//!
//! ## Quick example
//!
//! ```
//! use mpps_ops::{parse_program, Interpreter, Strategy};
//!
//! let program = parse_program(
//!     r#"
//!     (p count-down
//!        (counter ^value <v>)
//!        -(counter ^value 0)
//!        -->
//!        (modify 1 ^value (- <v> 1))
//!        (write tick <v>))
//!     "#,
//! )
//! .unwrap();
//!
//! let mut interp = Interpreter::new(program, Strategy::Lex);
//! interp.wm_make("counter", &[("value", 3.into())]);
//! let result = interp.run(100).unwrap();
//! assert_eq!(result.fired.len(), 3); // fires for 3, 2, 1 and then quiesces
//! ```

pub mod builder;
pub mod cond;
pub mod conflict;
pub mod error;
mod fxhash;
pub mod interpreter;
pub mod matcher;
pub mod naive;
pub mod parser;
pub mod production;
pub mod symbol;
pub mod treat;
pub mod value;
pub mod wme;

pub use builder::ProductionBuilder;
pub use cond::{AttrTest, Bindings, ConditionElement, Predicate, TestKind};
pub use conflict::{compare, resolve, select, ConflictSet, Strategy};
pub use error::{MatchError, OpsError, ParseError};
pub use fxhash::{FxBuildHasher, FxHasher};
pub use interpreter::{FiredRecord, Interpreter, InterpreterState, RunOutcome, RunResult};
pub use matcher::{Instantiation, InstantiationKey, Matcher, WmeChange};
pub use naive::NaiveMatcher;
pub use parser::{parse_production, parse_program, parse_wme};
pub use production::{Action, Production, ProductionId, Program, RhsOp, RhsValue};
pub use symbol::{intern, Symbol};
pub use treat::TreatMatcher;
pub use value::Value;
pub use wme::{Sign, Wme, WmeId, WorkingMemory};
