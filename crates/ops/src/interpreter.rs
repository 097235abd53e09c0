//! The match–resolve–act (MRA) interpreter.
//!
//! [`Interpreter`] owns the working memory and drives a pluggable
//! [`Matcher`] through the classic OPS5 cycle:
//!
//! 1. **match** — hand the previous cycle's WM changes to the matcher;
//! 2. **resolve** — pick the winner among the instantiations that have not
//!    fired yet (refraction) with the configured [`Strategy`], in one pass
//!    over the matcher's conflict set, where the matcher keeps it
//!    ([`Matcher::select`]);
//! 3. **act** — execute the winner's RHS, queuing the resulting WM changes
//!    for the next cycle's match phase.
//!
//! The interpreter records the per-cycle change batches it produced
//! ([`Interpreter::change_log`]); `mpps-rete` replays such logs to capture
//! activation traces, and the property-test suites replay them into
//! different matchers to prove equivalence.

use crate::conflict::Strategy;
use crate::error::OpsError;
use crate::fxhash::FxBuildHasher;
use crate::matcher::{Instantiation, Matcher, WmeChange};
use crate::naive::NaiveMatcher;
use crate::production::{Action, Production, ProductionId, Program};
use crate::symbol::Symbol;
use crate::value::Value;
use crate::wme::{Sign, Wme, WmeId, WorkingMemory};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// A record of one production firing.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FiredRecord {
    /// 1-based cycle number in which the firing happened.
    pub cycle: usize,
    /// Which production fired.
    pub production: ProductionId,
    /// Its name.
    pub name: Symbol,
    /// The WMEs of the fired instantiation.
    pub wme_ids: Vec<WmeId>,
}

/// Why a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// Conflict set became empty (after refraction).
    Quiescent,
    /// A `(halt)` action executed.
    Halted,
    /// The cycle limit was reached with work remaining.
    CycleLimit,
}

/// Summary of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Number of MRA cycles executed (including the final quiescent match).
    pub cycles: usize,
    /// Every firing, in order.
    pub fired: Vec<FiredRecord>,
    /// How the run ended.
    pub outcome: RunOutcome,
}

/// The result of a single [`Interpreter::step`].
#[derive(Clone, Debug)]
pub enum StepOutcome {
    /// A production fired.
    Fired(FiredRecord),
    /// Nothing fireable: the system is quiescent.
    Quiescent,
}

/// Signature of a user-defined RHS function: receives the evaluated
/// arguments and the live working memory; may return WMEs to add.
pub type UserFn = Box<dyn FnMut(&[Value], &WorkingMemory) -> Vec<Wme>>;

/// A portable snapshot of an [`Interpreter`]'s mutable session state —
/// everything that is not derivable from the (shared, immutable) program.
///
/// [`Interpreter::export_state`] captures it; [`Interpreter::with_matcher_state`]
/// rebuilds a live interpreter from it on top of a *fresh* matcher for the
/// same program. Matcher-internal memories are intentionally not part of
/// the snapshot: a matcher is a pure fold over the WM change batches it was
/// fed, so the restore path replays the matcher-visible working memory as
/// one batch and arrives at an equivalent conflict set (the equivalence the
/// matcher property suites and the differential fuzzer pin down).
///
/// User-defined RHS functions are not captured; re-register them after a
/// restore if the program uses `(call …)`.
#[derive(Clone, PartialEq, Debug)]
pub struct InterpreterState {
    /// Conflict-resolution strategy the session runs under.
    pub strategy: Strategy,
    /// Live working memory, ascending time-tag order.
    pub wm: Vec<(WmeId, Wme)>,
    /// The next time tag to hand out.
    pub next_id: u64,
    /// Refraction memory, sorted for canonical comparison. An export
    /// holds only live keys (every WME still in `wm`); a restore accepts
    /// dead ones too.
    pub fired_keys: Vec<(ProductionId, Vec<WmeId>)>,
    /// WM changes queued since the last match phase (not yet matcher-visible).
    pub pending: Vec<WmeChange>,
    /// Values written by `(write …)` actions so far.
    pub output: Vec<Vec<Value>>,
    /// MRA cycles executed so far.
    pub cycle: usize,
    /// Whether a `(halt)` has executed.
    pub halted: bool,
}

/// [`Refraction`] sweeps once it holds more keys than this, or than twice
/// the keys that survived its last sweep, whichever is larger.
const SWEEP_FLOOR: usize = 16;

/// Refraction memory: the instantiations that have fired. An
/// instantiation is only its identity `(production, wme_ids)`, so holding
/// one pins no bindings; an insert is a reference-count bump and a probe
/// hashes the candidate's identity once.
///
/// A key is *live* while every WME it names is in working memory. Time
/// tags are never reused, so once one of them has left, no instantiation
/// with that key can appear again: the key is dead and may be forgotten
/// without changing any firing. Dead keys are swept out amortised (see
/// [`SWEEP_FLOOR`]), so the memory stays proportional to the live keys.
/// A key with no WMEs (an all-negated LHS) is always live.
#[derive(Default)]
struct Refraction {
    keys: HashSet<Instantiation, FxBuildHasher>,
    /// Keys that survived the last sweep.
    survivors: usize,
}

/// Is every WME of the key `ids` still in working memory?
fn live(wm: &WorkingMemory, ids: &[WmeId]) -> bool {
    ids.iter().all(|&id| wm.get(id).is_some())
}

impl Refraction {
    /// Has `inst` fired before? Exact for every instantiation a matcher
    /// can report, since all of its WMEs are live.
    fn contains(&self, inst: &Instantiation) -> bool {
        self.keys.contains(inst)
    }

    fn insert(&mut self, inst: Instantiation) {
        self.keys.insert(inst);
    }

    /// Drop the dead keys if the memory has doubled since the last sweep.
    fn sweep_if_due(&mut self, wm: &WorkingMemory) {
        if self.keys.len() > (2 * self.survivors).max(SWEEP_FLOOR) {
            self.sweep(wm);
        }
    }

    /// Drop every dead key now.
    fn sweep(&mut self, wm: &WorkingMemory) {
        self.keys.retain(|inst| live(wm, inst.wme_ids()));
        self.survivors = self.keys.len();
    }

    /// The live keys, sorted (the canonical snapshot form).
    fn live_keys(&self, wm: &WorkingMemory) -> Vec<(ProductionId, Vec<WmeId>)> {
        let mut keys: Vec<(ProductionId, Vec<WmeId>)> = self
            .keys
            .iter()
            .filter(|inst| live(wm, inst.wme_ids()))
            .map(Instantiation::key)
            .collect();
        keys.sort();
        keys
    }
}

/// The MRA-cycle interpreter, generic over the match engine.
pub struct Interpreter<M: Matcher = NaiveMatcher> {
    program: Arc<Program>,
    strategy: Strategy,
    wm: WorkingMemory,
    matcher: M,
    fired_keys: Refraction,
    /// WM changes produced since the last match phase, at most one per
    /// time tag.
    pending: Vec<WmeChange>,
    /// Every pending add has a time tag at or above this one: the first
    /// tag handed out since the last match phase (or, after a restore, the
    /// lowest pending add).
    floor: WmeId,
    /// Per-cycle batches actually handed to the matcher.
    change_log: Vec<Vec<WmeChange>>,
    /// Values emitted by `(write ...)` actions.
    output: Vec<Vec<Value>>,
    fired: Vec<FiredRecord>,
    cycle: usize,
    halted: bool,
    /// User-defined RHS functions, by name.
    functions: HashMap<Symbol, UserFn>,
}

impl Interpreter<NaiveMatcher> {
    /// Interpreter over the brute-force reference matcher.
    pub fn new(program: Program, strategy: Strategy) -> Self {
        let matcher = NaiveMatcher::new(program.clone());
        Interpreter::with_matcher(program, strategy, matcher)
    }
}

impl<M: Matcher> Interpreter<M> {
    /// Interpreter over a caller-supplied matcher (must have been built for
    /// the same `program`).
    pub fn with_matcher(program: Program, strategy: Strategy, matcher: M) -> Self {
        Self::with_shared_program(Arc::new(program), strategy, matcher)
    }

    /// Like [`Interpreter::with_matcher`] over a *shared* program.
    ///
    /// Many interpreters can point at one program — the serving layer runs
    /// thousands of sessions against a single compiled ruleset, and an
    /// `Arc` keeps the per-session cost at a pointer instead of a clone of
    /// every production.
    pub fn with_shared_program(program: Arc<Program>, strategy: Strategy, matcher: M) -> Self {
        let wm = WorkingMemory::new();
        Interpreter {
            program,
            strategy,
            floor: wm.next_id(),
            wm,
            matcher,
            fired_keys: Refraction::default(),
            pending: Vec::new(),
            change_log: Vec::new(),
            output: Vec::new(),
            fired: Vec::new(),
            cycle: 0,
            halted: false,
            functions: HashMap::new(),
        }
    }

    /// Capture the session state of this interpreter (see
    /// [`InterpreterState`]). Cheap relative to a run: clones the live WM,
    /// the *live* refraction keys, pending changes and outputs; the
    /// matcher, the per-cycle change log and the firing log are excluded
    /// by design. Dead refraction keys can never block a firing again, so
    /// leaving them out makes the state canonical: it does not depend on
    /// when the refraction memory was last swept.
    pub fn export_state(&self) -> InterpreterState {
        InterpreterState {
            strategy: self.strategy,
            wm: self.wm.iter().map(|(id, w)| (id, w.clone())).collect(),
            next_id: self.wm.next_id().0,
            fired_keys: self.fired_keys.live_keys(&self.wm),
            pending: self.pending.clone(),
            output: self.output.clone(),
            cycle: self.cycle,
            halted: self.halted,
        }
    }

    /// Rebuild an interpreter from a captured [`InterpreterState`] on top
    /// of a **fresh** matcher built for the same `program`.
    ///
    /// The matcher is brought up to date by replaying the matcher-visible
    /// working memory as a single add batch: that is the live WM *minus*
    /// pending additions (the matcher never saw them) *plus* pending
    /// removals (the matcher still holds them). The pending queue is then
    /// restored without its add-and-remove pairs, so the next
    /// [`Interpreter::step`] hands the matcher exactly the batch an
    /// uninterrupted run would have.
    pub fn with_matcher_state(
        program: Program,
        matcher: M,
        state: InterpreterState,
    ) -> Result<Self, OpsError> {
        Self::with_shared_state(Arc::new(program), matcher, state)
    }

    /// Like [`Interpreter::with_matcher_state`] over a *shared* program.
    pub fn with_shared_state(
        program: Arc<Program>,
        mut matcher: M,
        state: InterpreterState,
    ) -> Result<Self, OpsError> {
        let wm = WorkingMemory::from_parts(state.wm, state.next_id);
        // A pending add+remove *pair* of one id is a WME the matcher never
        // saw and never will: both changes go, so it cannot leak into the
        // replay batch via the Minus arm. A decoded state may repeat an id
        // with one sign, too; any id that is not alone goes.
        let mut count: HashMap<WmeId, u32, FxBuildHasher> = HashMap::default();
        for c in &state.pending {
            *count.entry(c.id).or_insert(0) += 1;
        }
        let pending: Vec<WmeChange> = state
            .pending
            .into_iter()
            .filter(|c| count[&c.id] == 1)
            .collect();
        let mut visible: BTreeMap<WmeId, Arc<Wme>> =
            wm.shared().map(|(id, w)| (id, Arc::clone(w))).collect();
        for change in &pending {
            match change.sign {
                Sign::Plus => {
                    visible.remove(&change.id);
                }
                Sign::Minus => {
                    visible.insert(change.id, Arc::clone(&change.wme));
                }
            }
        }
        let batch: Vec<WmeChange> = visible
            .into_iter()
            .map(|(id, wme)| WmeChange::add(id, wme))
            .collect();
        matcher.try_process(&batch).map_err(OpsError::Match)?;
        // Dead keys (snapshots taken before they were dropped from
        // exports) restore too; the next sweep forgets them.
        let mut fired_keys = Refraction::default();
        for (production, ids) in &state.fired_keys {
            fired_keys.insert(Instantiation::new(*production, ids));
        }
        let floor = pending
            .iter()
            .filter(|c| c.sign == Sign::Plus)
            .map(|c| c.id)
            .min()
            .unwrap_or(wm.next_id());
        Ok(Interpreter {
            program,
            strategy: state.strategy,
            wm,
            matcher,
            fired_keys,
            pending,
            floor,
            change_log: vec![batch],
            output: state.output,
            fired: Vec::new(),
            cycle: state.cycle,
            halted: state.halted,
            functions: HashMap::new(),
        })
    }

    /// Register a user-defined RHS function callable via `(call name …)`.
    /// The function receives the evaluated arguments and a view of working
    /// memory, and may return WMEs to add (queued like `make`).
    pub fn register_function(
        &mut self,
        name: &str,
        f: impl FnMut(&[Value], &WorkingMemory) -> Vec<Wme> + 'static,
    ) {
        self.functions.insert(crate::intern(name), Box::new(f));
    }

    /// Add a WME to working memory (takes effect at the next match phase).
    pub fn wm_make(&mut self, class: &str, attrs: &[(&str, Value)]) -> WmeId {
        self.add_wme(Wme::new(class, attrs))
    }

    /// Add a pre-built WME. It is allocated once, here, and shared by
    /// working memory, the change log and the matcher.
    pub fn add_wme(&mut self, wme: Wme) -> WmeId {
        let wme = Arc::new(wme);
        let id = self.wm.add(Arc::clone(&wme));
        self.pending.push(WmeChange::add(id, wme));
        id
    }

    /// Remove a WME by id (takes effect at the next match phase).
    ///
    /// A WME added since the last match phase was never visible to any
    /// matcher, so its removal deletes the pending add instead of queuing
    /// a delete: a batch mentions each time tag at most once, the matcher
    /// contract. (Found by the differential fuzzer: `add_wme` +
    /// `remove_wme` of the same element before a `step` tripped the Rete
    /// engine's batch assertion while the naive matcher shrugged it off.)
    pub fn remove_wme(&mut self, id: WmeId) -> Result<(), OpsError> {
        let wme = self
            .wm
            .remove(id)
            .ok_or_else(|| OpsError::StaleWme(format!("{id} is not in working memory")))?;
        if id >= self.floor {
            // A live WME has no pending delete, so a change of its tag is
            // its add.
            if let Some(at) = self.pending.iter().rposition(|c| c.id == id) {
                self.pending.remove(at);
                return Ok(());
            }
        }
        self.pending.push(WmeChange::remove(id, wme));
        Ok(())
    }

    /// Execute one MRA cycle. Flushes pending WM changes into the matcher,
    /// resolves, and fires at most one instantiation.
    pub fn step(&mut self) -> Result<StepOutcome, OpsError> {
        self.cycle += 1;
        let batch = std::mem::take(&mut self.pending);
        self.floor = self.wm.next_id();
        // Log first, match from the log: one owned batch, zero copies.
        self.change_log.push(batch);
        self.matcher
            .try_process(self.change_log.last().expect("batch just pushed"))?;

        let winner = self.matcher.select(&self.program, self.strategy, &|i| {
            self.fired_keys.contains(i)
        });
        match winner {
            Some(winner) => Ok(StepOutcome::Fired(self.fire(&winner)?)),
            None => Ok(StepOutcome::Quiescent),
        }
    }

    /// Fire `inst`: enter it into the refraction memory, execute its RHS
    /// (queuing WM changes), record the firing, and sweep the refraction
    /// memory if it is due.
    ///
    /// A second `Arc` handle to the program is taken for the duration of
    /// the firing so the RHS can be walked by reference while actions
    /// mutate the interpreter — no per-firing clone of the action list.
    /// Nothing an action can reach reads `self.program` (user functions
    /// only see the working memory).
    fn fire(&mut self, inst: &Instantiation) -> Result<FiredRecord, OpsError> {
        self.fired_keys.insert(inst.clone());
        let program = Arc::clone(&self.program);
        let production = program.get(inst.production());
        let record = FiredRecord {
            cycle: self.cycle,
            production: inst.production(),
            name: production.name,
            wme_ids: inst.wme_ids().to_vec(),
        };
        self.fire_actions(production, inst)?;
        self.fired.push(record.clone());
        self.fired_keys.sweep_if_due(&self.wm);
        Ok(record)
    }

    fn fire_actions(
        &mut self,
        production: &Production,
        inst: &Instantiation,
    ) -> Result<(), OpsError> {
        // Derived once, for the winner alone: every WME it names is still
        // live, since no action has run yet. `(bind …)` actions extend the
        // map for later actions.
        let mut bindings = production.bindings(inst.wme_ids().iter().map(|&id| {
            self.wm
                .get(id)
                .expect("an instantiation's WMEs are live until it fires")
        }));
        for action in &production.rhs {
            match action {
                Action::Make { class, attrs } => {
                    let mut wme = Wme::from_pairs(*class, []);
                    for (attr, expr) in attrs {
                        wme.set(*attr, expr.eval(&bindings)?);
                    }
                    self.add_wme(wme);
                }
                Action::Remove(k) => {
                    let id = inst.wme_ids()[*k - 1];
                    // The WME may already be gone if a previous action of
                    // this same RHS removed it; OPS5 treats that as a no-op.
                    if self.wm.get(id).is_some() {
                        self.remove_wme(id)?;
                    }
                }
                Action::Modify { ce, attrs } => {
                    let id = inst.wme_ids()[*ce - 1];
                    // The one copy a modify makes: the edited element.
                    let Some(old) = self.wm.get(id).cloned() else {
                        return Err(OpsError::StaleWme(format!(
                            "(modify {ce}) of {id}: element already removed this firing"
                        )));
                    };
                    self.remove_wme(id)?;
                    let mut wme = old;
                    for (attr, expr) in attrs {
                        wme.set(*attr, expr.eval(&bindings)?);
                    }
                    self.add_wme(wme);
                }
                Action::Write(exprs) => {
                    let vals = exprs
                        .iter()
                        .map(|e| e.eval(&bindings))
                        .collect::<Result<Vec<_>, _>>()?;
                    self.output.push(vals);
                }
                Action::Bind(var, expr) => {
                    let value = expr.eval(&bindings)?;
                    bindings.insert(*var, value);
                }
                Action::Call(name, args) => {
                    let values = args
                        .iter()
                        .map(|e| e.eval(&bindings))
                        .collect::<Result<Vec<_>, _>>()?;
                    let Some(f) = self.functions.get_mut(name) else {
                        return Err(OpsError::UnknownFunction(name.to_string()));
                    };
                    let new_wmes = f(&values, &self.wm);
                    for wme in new_wmes {
                        self.add_wme(wme);
                    }
                }
                Action::Halt => {
                    self.halted = true;
                }
            }
        }
        Ok(())
    }

    /// Run until quiescence, halt, or `max_cycles`.
    ///
    /// A halted interpreter stays halted: calling `run` again (as a
    /// server does when a session receives input after a `(halt)`)
    /// returns immediately with [`RunOutcome::Halted`] and fires nothing.
    pub fn run(&mut self, max_cycles: usize) -> Result<RunResult, OpsError> {
        let start_fired = self.fired.len();
        let start_cycle = self.cycle;
        if self.halted {
            return Ok(RunResult {
                cycles: 0,
                fired: Vec::new(),
                outcome: RunOutcome::Halted,
            });
        }
        let mut outcome = RunOutcome::CycleLimit;
        while self.cycle - start_cycle < max_cycles {
            match self.step()? {
                StepOutcome::Quiescent => {
                    outcome = RunOutcome::Quiescent;
                    break;
                }
                StepOutcome::Fired(_) => {
                    if self.halted {
                        outcome = RunOutcome::Halted;
                        break;
                    }
                }
            }
        }
        Ok(RunResult {
            cycles: self.cycle - start_cycle,
            fired: self.fired[start_fired..].to_vec(),
            outcome,
        })
    }

    /// The live working memory.
    pub fn working_memory(&self) -> &WorkingMemory {
        &self.wm
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The conflict-resolution strategy in force.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The per-cycle WM change batches handed to the matcher so far.
    pub fn change_log(&self) -> &[Vec<WmeChange>] {
        &self.change_log
    }

    /// Take (and clear) the recorded per-cycle change batches.
    ///
    /// Long-running sessions — the serving layer's bread and butter — must
    /// drain the log periodically or it grows without bound; the drained
    /// batches double as the per-request WME-change count the server's
    /// throughput metrics report.
    pub fn drain_change_log(&mut self) -> Vec<Vec<WmeChange>> {
        std::mem::take(&mut self.change_log)
    }

    /// Values written by `(write ...)` actions, one entry per action.
    pub fn output(&self) -> &[Vec<Value>] {
        &self.output
    }

    /// All firings since the interpreter was built, restored, or last
    /// drained with [`Interpreter::drain_fired`].
    pub fn fired(&self) -> &[FiredRecord] {
        &self.fired
    }

    /// Take (and clear) the firing log — the twin of
    /// [`Interpreter::drain_change_log`]. A long-lived session drains it
    /// after every run ([`RunResult::fired`] already carries that run's
    /// firings), or it grows with every firing.
    pub fn drain_fired(&mut self) -> Vec<FiredRecord> {
        std::mem::take(&mut self.fired)
    }

    /// Borrow the underlying matcher (e.g. to extract a Rete trace).
    pub fn matcher(&self) -> &M {
        &self.matcher
    }

    /// Mutably borrow the underlying matcher (e.g. to take ownership of a
    /// recorded trace between runs).
    pub fn matcher_mut(&mut self) -> &mut M {
        &mut self.matcher
    }

    /// Free what the interpreter holds beyond its live state between
    /// runs: the dead refraction keys, swept now instead of when the next
    /// sweep falls due, and the refraction memory's spare capacity. Exact
    /// at any time: a dead key can never block a firing again. The
    /// matcher is not touched; a caller that keeps many idle interpreters
    /// shrinks it through [`Interpreter::matcher_mut`].
    pub fn shrink_to_live(&mut self) {
        self.fired_keys.sweep(&self.wm);
        self.fired_keys.keys.shrink_to_fit();
    }

    /// True once a `(halt)` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of MRA cycles executed.
    pub fn cycles(&self) -> usize {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn countdown_fires_until_quiescent() {
        let prog = parse_program(
            r#"
            (p count-down
               (counter ^value <v>)
               -(counter ^value 0)
               -->
               (modify 1 ^value (- <v> 1))
               (write tick <v>))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("counter", &[("value", 3.into())]);
        let result = interp.run(100).unwrap();
        assert_eq!(result.outcome, RunOutcome::Quiescent);
        assert_eq!(result.fired.len(), 3);
        assert_eq!(
            interp.output(),
            &[
                vec![Value::sym("tick"), Value::Int(3)],
                vec![Value::sym("tick"), Value::Int(2)],
                vec![Value::sym("tick"), Value::Int(1)],
            ]
        );
    }

    #[test]
    fn halt_stops_the_run() {
        let prog = parse_program(
            r#"
            (p once (start) --> (make step ^n 1) (halt))
            (p never (step ^n <n>) --> (make step ^n (+ <n> 1)))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("start", &[]);
        let result = interp.run(100).unwrap();
        assert_eq!(result.outcome, RunOutcome::Halted);
        assert_eq!(result.fired.len(), 1);
    }

    #[test]
    fn cycle_limit_reported() {
        let prog = parse_program(
            r#"
            (p forever (tick ^n <n>) --> (modify 1 ^n (+ <n> 1)))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("tick", &[("n", 0.into())]);
        let result = interp.run(10).unwrap();
        assert_eq!(result.outcome, RunOutcome::CycleLimit);
        assert_eq!(result.cycles, 10);
    }

    #[test]
    fn refraction_prevents_refiring() {
        // Without refraction this would loop forever re-firing the same
        // instantiation (its RHS doesn't change WM).
        let prog = parse_program(
            r#"
            (p observe (fact ^kind constant) --> (write saw-it))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("fact", &[("kind", "constant".into())]);
        let result = interp.run(100).unwrap();
        assert_eq!(result.outcome, RunOutcome::Quiescent);
        assert_eq!(result.fired.len(), 1);
    }

    #[test]
    fn refraction_memory_forgets_dead_keys_and_keeps_live_ones() {
        // `note` fires once on a fact that stays; then `tick` fires 10⁴
        // times, each firing's key killed by its own modify.
        let prog = parse_program(
            r#"
            (p note (fact) --> (write noted))
            (p tick (counter ^n <n>) --> (modify 1 ^n (+ <n> 1)))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("counter", &[("n", 0.into())]);
        let fact = interp.wm_make("fact", &[]);
        let mut peak = 0;
        for _ in 0..10_000 {
            assert!(matches!(interp.step().unwrap(), StepOutcome::Fired(_)));
            let held = interp.fired_keys.keys.len();
            peak = peak.max(held);
        }
        assert!(
            peak <= SWEEP_FLOOR + 1,
            "refraction memory reached {peak} keys"
        );
        // The live key survived every sweep: `note` never fired again.
        assert_eq!(interp.output().len(), 1);
        assert_eq!(
            interp.export_state().fired_keys,
            vec![(ProductionId(0), vec![fact])]
        );
    }

    #[test]
    fn modify_gives_fresh_time_tag_and_refires() {
        let prog = parse_program(
            r#"
            (p bump
               (counter ^value <v> ^limit <l>)
               (counter ^value <v2>)
               -->
               (write noop))
            "#,
        )
        .unwrap();
        // Self-join: after the counter is modified the time tag changes, so
        // a new instantiation (not refracted) appears.
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("counter", &[("value", 1.into()), ("limit", 5.into())]);
        let r = interp.run(3).unwrap();
        // Fires exactly once: no modify in RHS, refraction blocks repeats.
        assert_eq!(r.fired.len(), 1);
    }

    #[test]
    fn lex_picks_most_recent_data() {
        let prog = parse_program(
            r#"
            (p any (item ^tag <t>) --> (remove 1) (write picked <t>))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("item", &[("tag", "old".into())]);
        interp.wm_make("item", &[("tag", "new".into())]);
        interp.run(10).unwrap();
        // LEX: most recent WME wins first.
        assert_eq!(
            interp.output()[0],
            vec![Value::sym("picked"), Value::sym("new")]
        );
        assert_eq!(
            interp.output()[1],
            vec![Value::sym("picked"), Value::sym("old")]
        );
    }

    #[test]
    fn mea_prefers_recent_first_ce() {
        let prog = parse_program(
            r#"
            (p goal-directed
               (goal ^id <g>)
               (item ^for <g>)
               -->
               (remove 2)
               (write served <g>))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Mea);
        let _g1 = interp.wm_make("goal", &[("id", "g1".into())]);
        interp.wm_make("item", &[("for", "g1".into())]);
        interp.wm_make("item", &[("for", "g2".into())]);
        let _g2 = interp.wm_make("goal", &[("id", "g2".into())]);
        interp.run(10).unwrap();
        // MEA: g2's goal WME is more recent, so g2 is served first even
        // though g1's item instantiation also exists.
        assert_eq!(
            interp.output()[0],
            vec![Value::sym("served"), Value::sym("g2")]
        );
    }

    #[test]
    fn remove_of_already_removed_wme_is_noop() {
        let prog = parse_program(
            r#"
            (p double-remove
               (thing ^id <t>)
               (thing ^id <t>)
               -->
               (remove 1)
               (remove 2))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("thing", &[("id", 1.into())]);
        // Both CEs match the same WME; second remove must not error.
        let r = interp.run(10).unwrap();
        assert_eq!(r.outcome, RunOutcome::Quiescent);
        assert_eq!(interp.working_memory().len(), 0);
    }

    #[test]
    fn change_log_batches_match_cycles() {
        let prog = parse_program(
            r#"
            (p grow (seed) --> (remove 1) (make plant) (make flower))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("seed", &[]);
        interp.run(10).unwrap();
        let log = interp.change_log();
        // Cycle 1 matches the initial add and fires; cycle 2 matches
        // {-seed +plant +flower} and detects quiescence.
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].len(), 1);
        assert_eq!(log[1].len(), 3);
    }

    #[test]
    fn export_restore_continues_identically() {
        let src = r#"
            (p count-down
               (counter ^value <v>)
               -(counter ^value 0)
               -->
               (modify 1 ^value (- <v> 1))
               (write tick <v>))
            "#;
        let prog = parse_program(src).unwrap();
        // Uninterrupted reference run.
        let mut whole = Interpreter::new(prog.clone(), Strategy::Lex);
        whole.wm_make("counter", &[("value", 5.into())]);
        whole.run(100).unwrap();
        // Interrupted run: two cycles, snapshot, restore, continue.
        let mut first = Interpreter::new(prog.clone(), Strategy::Lex);
        first.wm_make("counter", &[("value", 5.into())]);
        first.step().unwrap();
        first.step().unwrap();
        let state = first.export_state();
        let matcher = NaiveMatcher::new(prog.clone());
        let mut resumed = Interpreter::with_matcher_state(prog, matcher, state).unwrap();
        resumed.run(100).unwrap();
        assert_eq!(resumed.cycles(), whole.cycles());
        assert_eq!(resumed.output(), whole.output());
        let a: Vec<_> = resumed.working_memory().iter().collect();
        let b: Vec<_> = whole.working_memory().iter().collect();
        assert_eq!(a, b);
        assert_eq!(
            resumed.matcher().conflict_set(),
            whole.matcher().conflict_set()
        );
    }

    #[test]
    fn export_restore_preserves_pending_changes() {
        // A WME queued but not yet matched must survive the round trip and
        // reach the matcher on the next step, exactly once.
        let prog = parse_program("(p t (a) --> (halt))").unwrap();
        let mut interp = Interpreter::new(prog.clone(), Strategy::Lex);
        interp.step().unwrap(); // empty first cycle
        interp.wm_make("a", &[]);
        let state = interp.export_state();
        assert_eq!(state.pending.len(), 1);
        let mut resumed =
            Interpreter::with_matcher_state(prog.clone(), NaiveMatcher::new(prog), state).unwrap();
        let r = resumed.run(10).unwrap();
        assert_eq!(r.outcome, RunOutcome::Halted);
        assert_eq!(r.fired.len(), 1);
    }

    #[test]
    fn remove_unknown_wme_errors() {
        let prog = parse_program("(p x (a) --> (remove 1))").unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        assert!(interp.remove_wme(WmeId(42)).is_err());
    }
}

#[cfg(test)]
mod bind_tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn bind_extends_rhs_bindings() {
        let prog = parse_program(
            r#"
            (p double
               (counter ^v <v>)
               -->
               (bind <d> (* <v> 2))
               (make result ^doubled <d> ^plus (+ <d> 1))
               (remove 1))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("counter", &[("v", 7.into())]);
        interp.run(10).unwrap();
        let result = interp
            .working_memory()
            .iter()
            .find(|(_, w)| w.class().as_str() == "result")
            .unwrap()
            .1;
        assert_eq!(result.get(crate::intern("doubled")), Some(Value::Int(14)));
        assert_eq!(result.get(crate::intern("plus")), Some(Value::Int(15)));
    }

    #[test]
    fn bind_use_before_definition_rejected() {
        let bad = parse_program("(p bad (a) --> (write <x>) (bind <x> 1))");
        assert!(bad.is_err());
    }

    #[test]
    fn bind_display_roundtrip() {
        let prog = parse_program("(p b (a ^v <v>) --> (bind <w> (+ <v> 1)) (write <w>))").unwrap();
        let p = prog.get(crate::ProductionId(0));
        let again = crate::parse_production(&p.to_string()).unwrap();
        assert_eq!(p, &again);
    }
}

#[cfg(test)]
mod call_tests {
    use super::*;
    use crate::parser::parse_program;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn call_invokes_registered_function_with_evaluated_args() {
        let prog = parse_program(
            r#"
            (p notify (alarm ^level <l>) --> (call page-operator <l> urgent) (remove 1))
            "#,
        )
        .unwrap();
        let seen: Rc<RefCell<Vec<Vec<Value>>>> = Rc::new(RefCell::new(Vec::new()));
        let seen2 = seen.clone();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.register_function("page-operator", move |args, _wm| {
            seen2.borrow_mut().push(args.to_vec());
            Vec::new()
        });
        interp.wm_make("alarm", &[("level", 3.into())]);
        interp.run(10).unwrap();
        assert_eq!(
            seen.borrow().as_slice(),
            &[vec![Value::Int(3), Value::sym("urgent")]]
        );
    }

    #[test]
    fn call_may_return_wmes_to_add() {
        let prog = parse_program(
            r#"
            (p expand (seed ^n <n>) --> (call fibonacci <n>) (remove 1))
            "#,
        )
        .unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.register_function("fibonacci", |args, _wm| {
            let n = args[0].as_int().unwrap();
            let (mut a, mut b) = (0i64, 1i64);
            (0..n)
                .map(|_| {
                    let v = a;
                    (a, b) = (b, a + b);
                    Wme::new("fib", &[("value", v.into())])
                })
                .collect()
        });
        interp.wm_make("seed", &[("n", 5.into())]);
        interp.run(10).unwrap();
        let fibs: Vec<i64> = interp
            .working_memory()
            .iter()
            .filter(|(_, w)| w.class().as_str() == "fib")
            .map(|(_, w)| w.get(crate::intern("value")).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(fibs, vec![0, 1, 1, 2, 3]);
    }

    #[test]
    fn unregistered_call_is_an_error() {
        let prog = parse_program("(p x (a) --> (call ghost))").unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        interp.wm_make("a", &[]);
        let err = interp.run(10).unwrap_err();
        assert!(matches!(err, OpsError::UnknownFunction(_)), "{err}");
    }

    #[test]
    fn call_display_roundtrip() {
        let prog = parse_program("(p c (a ^v <v>) --> (call f <v> 2 sym))").unwrap();
        let p = prog.get(crate::ProductionId(0));
        let again = crate::parse_production(&p.to_string()).unwrap();
        assert_eq!(p, &again);
    }

    #[test]
    fn add_then_remove_between_steps_cancels_in_batch() {
        // Regression (differential fuzzer): a WME added and removed between
        // two match phases must never reach the matcher — handing both
        // changes through gives the batch two entries for one time tag,
        // which the Rete engine (rightly) rejects.
        let prog = parse_program("(p t (a) --> (halt))").unwrap();
        let mut interp = Interpreter::new(prog, Strategy::Lex);
        let keep = interp.wm_make("b", &[]);
        let id = interp.wm_make("a", &[]);
        interp.remove_wme(id).unwrap();
        interp.step().unwrap();
        let batch = interp.change_log().last().unwrap();
        assert_eq!(batch.len(), 1, "transient WME leaked into the batch");
        assert_eq!(batch[0].id, keep);
        // And the production over the transient class never fired.
        assert!(interp.fired().is_empty());
    }
}
