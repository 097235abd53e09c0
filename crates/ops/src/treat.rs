//! The TREAT match algorithm (Miranker 1987) — the paper's reference \[30\].
//!
//! TREAT is the classic alternative to Rete: it keeps **alpha memories
//! only** (per condition element, the WMEs passing its constant tests) and
//! the **conflict set**, but no beta memories. Joins are recomputed on
//! demand:
//!
//! * when a WME is **added**, new instantiations are found by seeding each
//!   condition element it matches and joining the *other* CEs' alpha
//!   memories;
//! * when a WME is **deleted**, instantiations containing it are simply
//!   dropped from the conflict set — no join work at all, which is TREAT's
//!   celebrated advantage on delete-heavy cycles (and exactly the
//!   multiple-modify traffic of §5.2.2);
//! * negated CEs are handled by filtering candidate instantiations against
//!   the negated alpha memories; additions matching a negated CE retract
//!   blocked instantiations, deletions re-derive what they unblocked.
//!   Negation is *positional*: a negated CE sees only the variables bound
//!   by positive CEs that precede it in LHS order, so before testing the
//!   negated memories the instantiation's bindings are restricted to that
//!   visible set — a variable bound by a later positive CE stays an
//!   existential local inside the negation, exactly as in the reference
//!   [`crate::NaiveMatcher`] enumeration.
//!
//! Duplicate-free enumeration uses the standard seeding discipline: when
//! the new WME is pinned at position *k*, positions before *k* join
//! against their memories *without* the new WME and positions after *k*
//! with it, so every combination is generated at exactly one seed.

use crate::cond::{Bindings, ConditionElement, TestKind};
use crate::conflict::{ConflictSet, Strategy};
use crate::fxhash::FxBuildHasher;
use crate::matcher::{Instantiation, Matcher, WmeChange};
use crate::production::{Production, ProductionId, Program};
use crate::symbol::Symbol;
use crate::wme::{Sign, Wme, WmeId};
use mpps_telemetry::{MetricSink, MetricsRegistry, NullMetrics};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Metric names emitted by the TREAT profiling hooks — the per-rule
/// analogue of the Rete kernel's per-node series. Keys are production
/// indices.
pub mod metric {
    /// Instantiations derived into the conflict set, keyed by production.
    pub const RULE_ACTIVATIONS: &str = "rule.activations";
    /// Instantiations dropped (WME deletion or a violated negation),
    /// keyed by production.
    pub const RULE_RETRACTIONS: &str = "rule.retractions";
    /// WMEs inserted into this production's alpha memories, keyed by
    /// production.
    pub const RULE_ALPHA_INSERTS: &str = "rule.alpha-inserts";
    /// Seeded join enumerations started, keyed by production.
    pub const RULE_SEED_JOINS: &str = "rule.seed-joins";
    /// Cumulative sampled match nanoseconds, keyed by production. One
    /// `(production, change)` body in [`SAMPLE_EVERY`](super::SAMPLE_EVERY)
    /// is timed and scaled back up.
    pub const RULE_MATCH_NS: &str = "rule.match-ns";
}

/// Sampling gate for per-rule match timing (same discipline as the Rete
/// kernel's per-node gate).
pub const SAMPLE_EVERY: u32 = 16;

/// A negated condition element with its binding context.
struct NegatedCe {
    /// Index into the production's LHS.
    lhs_idx: usize,
    /// The condition element.
    ce: ConditionElement,
    /// Variables bound by positive CEs *earlier in LHS order* — the only
    /// bindings this negation may observe. Everything else it mentions is
    /// an existential local.
    visible: HashSet<Symbol>,
    /// `(attr, k, site)` for each equality test of this CE on a visible
    /// variable: the variable's value is attribute `site` of the WME
    /// matching positive CE `k`.
    joins: Vec<(Symbol, usize, Symbol)>,
}

impl NegatedCe {
    /// Can `wme` block the instantiation whose positive CE `k` matched
    /// `at(k)`? A mismatch on an equality test of a visible variable
    /// rules it out exactly, without deriving any bindings.
    fn may_block<'a>(&self, wme: &Wme, at: impl Fn(usize) -> &'a Wme) -> bool {
        self.joins
            .iter()
            .all(|&(attr, k, site)| wme.get(attr) == at(k).get(site))
    }

    /// Does `wme` violate this negation for an instantiation carrying
    /// `bindings`? Only the visible bindings participate in the test.
    fn blocked_by(&self, wme: &Wme, bindings: &Bindings) -> bool {
        // Common case: every binding is visible — test directly without
        // building a restricted copy.
        if bindings.keys().all(|var| self.visible.contains(var)) {
            return self.ce.match_with_bindings(wme, bindings).is_some();
        }
        let restricted: Bindings = bindings
            .iter()
            .filter(|(var, _)| self.visible.contains(*var))
            .map(|(&var, &val)| (var, val))
            .collect();
        self.ce.match_with_bindings(wme, &restricted).is_some()
    }
}

/// Per-production compiled view: positive and negated CEs in LHS order.
struct CompiledProduction {
    /// The rule itself, for deriving an instantiation's bindings.
    rule: Production,
    /// `(lhs index, CE)` of positive condition elements, in order.
    positive: Vec<(usize, ConditionElement)>,
    /// Negated condition elements, each with its visible-variable set.
    negative: Vec<NegatedCe>,
}

/// Alpha memory of one condition element: WMEs passing its constant tests.
/// Entries share one [`Arc`] per working-memory element, so a WME matching
/// several CEs (the common case) is stored once, not cloned per memory.
#[derive(Default)]
struct AlphaMemory {
    entries: Vec<(WmeId, Arc<Wme>)>,
}

impl AlphaMemory {
    fn add(&mut self, id: WmeId, wme: &Arc<Wme>) {
        self.entries.push((id, wme.clone()));
    }

    fn remove(&mut self, id: WmeId) {
        self.entries.retain(|(e, _)| *e != id);
    }
}

/// The TREAT matcher: alpha memories + conflict set, no beta state.
///
/// `M` is the profiling sink: [`NullMetrics`] (the default — hooks
/// monomorphize away) or a collecting sink installed via
/// [`TreatMatcher::with_metrics`], recording per-rule activation,
/// retraction, and sampled match-time series.
pub struct TreatMatcher<M: MetricSink = NullMetrics> {
    productions: Vec<CompiledProduction>,
    /// `memories[p]` maps an LHS index to its alpha memory.
    memories: Vec<HashMap<usize, AlphaMemory>>,
    /// Every live WME by time tag: where a negation re-test finds the
    /// WMEs to derive an instantiation's bindings from.
    wmes: HashMap<WmeId, Arc<Wme>, FxBuildHasher>,
    /// The conflict set: one count per instantiation, never above 1 —
    /// TREAT derives each instantiation once and drops it whole.
    conflict: ConflictSet,
    metrics: M,
    sample_tick: u32,
}

impl TreatMatcher {
    /// Build an unprofiled TREAT matcher for `program`.
    pub fn new(program: &Program) -> Self {
        Self::with_metrics(program, NullMetrics)
    }
}

impl<M: MetricSink> TreatMatcher<M> {
    /// Build a TREAT matcher recording per-rule metrics into `metrics`.
    pub fn with_metrics(program: &Program, metrics: M) -> Self {
        let mut productions = Vec::with_capacity(program.len());
        let mut memories = Vec::with_capacity(program.len());
        for (_, prod) in program.iter() {
            productions.push(compile(prod));
            let mems: HashMap<usize, AlphaMemory> = prod
                .lhs
                .iter()
                .enumerate()
                .map(|(i, _)| (i, AlphaMemory::default()))
                .collect();
            memories.push(mems);
        }
        TreatMatcher {
            productions,
            memories,
            wmes: HashMap::default(),
            conflict: ConflictSet::default(),
            metrics,
            sample_tick: 0,
        }
    }

    /// The profiling sink.
    pub fn metrics(&self) -> &M {
        &self.metrics
    }

    /// Snapshot the recorded metrics as a registry (empty when `M` is
    /// [`NullMetrics`]).
    pub fn profile(&self) -> MetricsRegistry {
        self.metrics.export()
    }

    /// Enumerate instantiations of production `p` with the WME `(id, wme)`
    /// pinned at positive position `seed` (index into `positive`).
    /// `exclude_new` controls the duplicate discipline (see module docs).
    fn seeded_instantiations(
        &self,
        p: usize,
        seed: usize,
        id: WmeId,
        wme: &Wme,
        out: &mut Vec<Instantiation>,
    ) {
        let mems = &self.memories[p];
        let mut chosen: Vec<WmeId> = Vec::with_capacity(self.productions[p].positive.len());
        self.extend_positive(
            p,
            seed,
            id,
            wme,
            0,
            &mut chosen,
            &Bindings::default(),
            mems,
            out,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn extend_positive(
        &self,
        p: usize,
        seed: usize,
        seed_id: WmeId,
        seed_wme: &Wme,
        pos: usize,
        chosen: &mut Vec<WmeId>,
        bindings: &Bindings,
        mems: &HashMap<usize, AlphaMemory>,
        out: &mut Vec<Instantiation>,
    ) {
        let compiled = &self.productions[p];
        if pos == compiled.positive.len() {
            // All positive CEs satisfied; check the negated ones.
            if self.negations_clear(p, bindings) {
                out.push(Instantiation::new(ProductionId(p as u32), chosen));
            }
            return;
        }
        let (lhs_idx, ce) = &compiled.positive[pos];
        if pos == seed {
            if let Some(next) = ce.match_with_bindings(seed_wme, bindings) {
                chosen.push(seed_id);
                self.extend_positive(
                    p,
                    seed,
                    seed_id,
                    seed_wme,
                    pos + 1,
                    chosen,
                    &next,
                    mems,
                    out,
                );
                chosen.pop();
            }
            return;
        }
        let memory = &mems[lhs_idx];
        for (cand_id, cand) in &memory.entries {
            // Duplicate discipline: before the seed position the new WME
            // is invisible (an earlier seeding already covers those
            // combinations).
            if pos < seed && *cand_id == seed_id {
                continue;
            }
            if let Some(next) = ce.match_with_bindings(cand, bindings) {
                chosen.push(*cand_id);
                self.extend_positive(
                    p,
                    seed,
                    seed_id,
                    seed_wme,
                    pos + 1,
                    chosen,
                    &next,
                    mems,
                    out,
                );
                chosen.pop();
            }
        }
    }

    /// True when no WME in the negated memories matches under the bindings
    /// each negation is allowed to see (its visible-variable restriction).
    fn negations_clear(&self, p: usize, bindings: &Bindings) -> bool {
        let compiled = &self.productions[p];
        let mems = &self.memories[p];
        compiled.negative.iter().all(|neg| {
            !mems[&neg.lhs_idx]
                .entries
                .iter()
                .any(|(_, w)| neg.blocked_by(w, bindings))
        })
    }

    /// Recompute production `p`'s complete instantiation set (used after a
    /// deletion unblocks a negated CE).
    fn all_instantiations(&self, p: usize) -> Vec<Instantiation> {
        let compiled = &self.productions[p];
        if compiled.positive.is_empty() {
            return Vec::new();
        }
        // Seeding at position 0 with each WME of its memory, with the
        // "new" id set to an impossible value so nothing is excluded.
        let mems = &self.memories[p];
        let first_lhs = compiled.positive[0].0;
        let mut out = Vec::new();
        for (id, wme) in &mems[&first_lhs].entries {
            self.seeded_instantiations(p, 0, *id, wme, &mut out);
        }
        out
    }

    /// One activation in `SAMPLE_EVERY` per `(production, change)` body
    /// is wall-clock timed; returns the timer for this body if sampled.
    fn sample_timer(&mut self) -> Option<std::time::Instant> {
        if !M::ENABLED {
            return None;
        }
        self.sample_tick = self.sample_tick.wrapping_add(1);
        self.sample_tick
            .is_multiple_of(SAMPLE_EVERY)
            .then(std::time::Instant::now)
    }

    fn record_sample(&mut self, p: usize, timer: Option<std::time::Instant>) {
        if let Some(t0) = timer {
            let ns = t0.elapsed().as_nanos() as u64;
            self.metrics
                .add(metric::RULE_MATCH_NS, p as u64, ns * SAMPLE_EVERY as u64);
        }
    }

    fn handle_add(&mut self, id: WmeId, wme: &Arc<Wme>) {
        self.wmes.insert(id, Arc::clone(wme));
        for p in 0..self.productions.len() {
            let timer = self.sample_timer();
            // Update this production's memories first (a WME may match
            // several CEs). `productions` and `memories` are disjoint
            // fields, so the CE list is walked by reference — no clones.
            let mut matched_pos: Vec<usize> = Vec::new();
            for (i, ce) in &self.productions[p].positive {
                if ce.constant_match(wme) {
                    self.memories[p].get_mut(i).unwrap().add(id, wme);
                    matched_pos.push(*i);
                }
            }
            let mut neg_hits: Vec<usize> = Vec::new();
            for (k, neg) in self.productions[p].negative.iter().enumerate() {
                if neg.ce.constant_match(wme) {
                    self.memories[p].get_mut(&neg.lhs_idx).unwrap().add(id, wme);
                    neg_hits.push(k);
                }
            }
            if M::ENABLED {
                let inserts = (matched_pos.len() + neg_hits.len()) as u64;
                if inserts > 0 {
                    self.metrics
                        .add(metric::RULE_ALPHA_INSERTS, p as u64, inserts);
                }
            }
            // Retractions: the new WME may violate negated CEs of existing
            // instantiations — testing each negation only against the
            // bindings it can see, derived from the instantiation's WMEs
            // once no equality test rules the pair out.
            if !neg_hits.is_empty() {
                let compiled = &self.productions[p];
                let wmes = &self.wmes;
                let metrics = &mut self.metrics;
                self.conflict.retain(|inst| {
                    if inst.production().0 as usize != p {
                        return true;
                    }
                    let ids = inst.wme_ids();
                    let keep = !neg_hits.iter().any(|&k| {
                        let neg = &compiled.negative[k];
                        neg.may_block(wme, |pos| &wmes[&ids[pos]])
                            && neg.blocked_by(
                                wme,
                                &compiled.rule.bindings(ids.iter().map(|id| &*wmes[id])),
                            )
                    });
                    if M::ENABLED && !keep {
                        metrics.add(metric::RULE_RETRACTIONS, p as u64, 1);
                    }
                    keep
                });
            }
            // Assertions: seed each positive position the WME matches.
            let seeds: Vec<usize> = self.productions[p]
                .positive
                .iter()
                .enumerate()
                .filter(|(_, (i, _))| matched_pos.contains(i))
                .map(|(k, _)| k)
                .collect();
            if M::ENABLED && !seeds.is_empty() {
                self.metrics
                    .add(metric::RULE_SEED_JOINS, p as u64, seeds.len() as u64);
            }
            let mut found = Vec::new();
            for k in seeds {
                self.seeded_instantiations(p, k, id, wme, &mut found);
            }
            if M::ENABLED && !found.is_empty() {
                self.metrics
                    .add(metric::RULE_ACTIVATIONS, p as u64, found.len() as u64);
            }
            for inst in found {
                // Every seeded instantiation holds the new WME: it is new.
                let count = self.conflict.update(Sign::Plus, inst);
                debug_assert_eq!(count, 1, "duplicate TREAT derivation");
            }
            self.record_sample(p, timer);
        }
    }

    fn handle_delete(&mut self, id: WmeId) {
        self.wmes.remove(&id);
        // Drop every instantiation containing the WME: TREAT's cheap path.
        {
            let metrics = &mut self.metrics;
            self.conflict.retain(|inst| {
                let keep = !inst.wme_ids().contains(&id);
                if M::ENABLED && !keep {
                    metrics.add(metric::RULE_RETRACTIONS, inst.production().0 as u64, 1);
                }
                keep
            });
        }
        for p in 0..self.productions.len() {
            let timer = self.sample_timer();
            let mut unblocked = false;
            let neg_indices: Vec<usize> = self.productions[p]
                .negative
                .iter()
                .map(|neg| neg.lhs_idx)
                .collect();
            for (i, mem) in self.memories[p].iter_mut() {
                let before = mem.entries.len();
                mem.remove(id);
                if mem.entries.len() != before && neg_indices.contains(i) {
                    unblocked = true;
                }
            }
            // A deletion from a negated memory may unblock instantiations:
            // re-derive this production.
            if unblocked {
                for inst in self.all_instantiations(p) {
                    if self.conflict.contains(&inst) {
                        continue;
                    }
                    self.conflict.update(Sign::Plus, inst);
                    if M::ENABLED {
                        self.metrics.add(metric::RULE_ACTIVATIONS, p as u64, 1);
                    }
                }
            }
            self.record_sample(p, timer);
        }
    }
}

fn compile(prod: &Production) -> CompiledProduction {
    let mut positive = Vec::new();
    let mut negative = Vec::new();
    // Variables bound by the positive CEs seen so far, in LHS order, each
    // with the positive CE and attribute of its first occurrence.
    let mut bound: Vec<(Symbol, usize, Symbol)> = Vec::new();
    for (i, ce) in prod.lhs.iter().enumerate() {
        if ce.negated {
            let joins = ce
                .tests
                .iter()
                .filter_map(|t| match t.kind {
                    TestKind::Variable(v) => bound
                        .iter()
                        .find(|b| b.0 == v)
                        .map(|&(_, k, site)| (t.attr, k, site)),
                    _ => None,
                })
                .collect();
            negative.push(NegatedCe {
                lhs_idx: i,
                ce: ce.clone(),
                visible: bound.iter().map(|b| b.0).collect(),
                joins,
            });
        } else {
            for t in &ce.tests {
                if let TestKind::Variable(v) = t.kind {
                    if bound.iter().all(|b| b.0 != v) {
                        bound.push((v, positive.len(), t.attr));
                    }
                }
            }
            positive.push((i, ce.clone()));
        }
    }
    CompiledProduction {
        rule: prod.clone(),
        positive,
        negative,
    }
}

impl<M: MetricSink> Matcher for TreatMatcher<M> {
    fn process(&mut self, changes: &[WmeChange]) {
        for c in changes {
            match c.sign {
                // The change's own `Arc` is what the alpha memories share.
                Sign::Plus => self.handle_add(c.id, &c.wme),
                Sign::Minus => self.handle_delete(c.id),
            }
        }
    }

    fn conflict_set(&self) -> Vec<Instantiation> {
        self.conflict.sorted()
    }

    fn select(
        &self,
        program: &Program,
        strategy: Strategy,
        refracted: &dyn Fn(&Instantiation) -> bool,
    ) -> Option<Instantiation> {
        self.conflict.select(program, strategy, refracted).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveMatcher;
    use crate::parser::parse_program;
    use mpps_telemetry::MetricsRegistry;

    fn add(id: u64, wme: Wme) -> WmeChange {
        WmeChange::add(WmeId(id), wme)
    }

    fn del(id: u64, wme: Wme) -> WmeChange {
        WmeChange::remove(WmeId(id), wme)
    }

    fn agree(src: &str, batches: &[Vec<WmeChange>]) {
        let prog = parse_program(src).unwrap();
        let mut naive = NaiveMatcher::new(prog.clone());
        let mut treat = TreatMatcher::new(&prog);
        for batch in batches {
            naive.process(batch);
            treat.process(batch);
            assert_eq!(
                naive.conflict_set(),
                treat.conflict_set(),
                "diverged after batch"
            );
        }
    }

    const BLUE: &str = r#"
        (p clear-the-blue-block
           (block ^name <b2> ^color blue)
           (block ^name <b2> ^on <b1>)
           (hand ^state free)
           -->
           (remove 2))
    "#;

    #[test]
    fn matches_paper_example() {
        agree(
            BLUE,
            &[vec![
                add(
                    1,
                    Wme::new("block", &[("name", "b1".into()), ("color", "blue".into())]),
                ),
                add(
                    2,
                    Wme::new("block", &[("name", "b1".into()), ("on", "t".into())]),
                ),
                add(3, Wme::new("hand", &[("state", "free".into())])),
            ]],
        );
    }

    #[test]
    fn deletion_is_cheap_and_correct() {
        let hand = Wme::new("hand", &[("state", "free".into())]);
        agree(
            BLUE,
            &[
                vec![
                    add(
                        1,
                        Wme::new("block", &[("name", "b1".into()), ("color", "blue".into())]),
                    ),
                    add(
                        2,
                        Wme::new("block", &[("name", "b1".into()), ("on", "t".into())]),
                    ),
                    add(3, hand.clone()),
                ],
                vec![del(3, hand)],
                vec![add(4, Wme::new("hand", &[("state", "free".into())]))],
            ],
        );
    }

    #[test]
    fn self_join_no_duplicates() {
        agree(
            "(p selfj (node ^id <x>) (node ^id <x>) --> (remove 1))",
            &[
                vec![add(1, Wme::new("node", &[("id", 1.into())]))],
                vec![add(2, Wme::new("node", &[("id", 1.into())]))],
                vec![del(1, Wme::new("node", &[("id", 1.into())]))],
            ],
        );
    }

    #[test]
    fn negation_block_and_unblock() {
        let edge = Wme::new("edge", &[("to", 7.into())]);
        agree(
            "(p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))",
            &[
                vec![add(1, Wme::new("node", &[("id", 7.into())]))],
                vec![add(2, edge.clone())],
                vec![del(2, edge)],
            ],
        );
    }

    #[test]
    fn cross_product_counts() {
        let prog = parse_program("(p cross (a ^v <x>) (b ^w <y>) --> (remove 1))").unwrap();
        let mut treat = TreatMatcher::new(&prog);
        let mut changes = Vec::new();
        for i in 0..4 {
            changes.push(add(1 + i, Wme::new("a", &[("v", (i as i64).into())])));
        }
        for i in 0..5 {
            changes.push(add(10 + i, Wme::new("b", &[("w", (i as i64).into())])));
        }
        treat.process(&changes);
        assert_eq!(treat.conflict_set().len(), 20);
    }

    #[test]
    fn batch_of_adds_equivalent_to_singles() {
        let prog = parse_program("(p j (a ^v <x>) (b ^v <x>) --> (remove 1))").unwrap();
        let mut together = TreatMatcher::new(&prog);
        let mut one_by_one = TreatMatcher::new(&prog);
        let changes = vec![
            add(1, Wme::new("a", &[("v", 1.into())])),
            add(2, Wme::new("b", &[("v", 1.into())])),
            add(3, Wme::new("a", &[("v", 1.into())])),
        ];
        together.process(&changes);
        for c in &changes {
            one_by_one.process(std::slice::from_ref(c));
        }
        assert_eq!(together.conflict_set(), one_by_one.conflict_set());
        assert_eq!(together.conflict_set().len(), 2);
    }

    #[test]
    fn negation_sees_only_earlier_positive_bindings() {
        // Regression (found by the differential fuzzer): `<v>` is bound by
        // a positive CE *after* the negation, so inside the negation it is
        // an existential local — ANY (b ^q …) WME blocks, not just one
        // whose q equals the later binding. The old TREAT evaluated
        // negations with the instantiation's full bindings and wrongly
        // kept the instantiation alive when q ≠ r.
        agree(
            "(p diverge (a) -(b ^q <v>) (c ^r <v>) --> (remove 1))",
            &[vec![
                add(1, Wme::new("c", &[("r", 1.into())])),
                add(2, Wme::new("a", &[])),
                add(3, Wme::new("b", &[("q", 2.into())])),
            ]],
        );
    }

    #[test]
    fn negation_visibility_on_add_retraction_path() {
        // Same visibility rule on the incremental path: the blocking WME
        // arrives after the instantiation exists, so the retraction filter
        // must also restrict bindings to the negation's visible set.
        agree(
            "(p diverge (a) -(b ^q <v>) (c ^r <v>) --> (remove 1))",
            &[
                vec![
                    add(1, Wme::new("c", &[("r", 1.into())])),
                    add(2, Wme::new("a", &[])),
                ],
                vec![add(3, Wme::new("b", &[("q", 2.into())]))],
                vec![del(3, Wme::new("b", &[("q", 2.into())]))],
            ],
        );
    }

    #[test]
    fn leading_negated_ce_agrees_with_naive() {
        // A negated CE before any positive CE sees no bindings at all.
        let inhibit = Wme::new("inhibit", &[("on", "yes".into())]);
        agree(
            "(p guard -(inhibit ^on <w>) (job ^id <j>) --> (remove 1))",
            &[
                vec![add(1, Wme::new("job", &[("id", 1.into())]))],
                vec![add(2, inhibit.clone())],
                vec![del(2, inhibit)],
            ],
        );
    }

    #[test]
    fn profiled_treat_matches_identically_and_records_per_rule_metrics() {
        let prog =
            parse_program("(p lonely (node ^id <n>) -(edge ^to <n>) --> (remove 1))").unwrap();
        let mut plain = TreatMatcher::new(&prog);
        let mut profiled = TreatMatcher::with_metrics(&prog, MetricsRegistry::new());
        let batches = vec![
            vec![add(1, Wme::new("node", &[("id", 7.into())]))],
            vec![add(2, Wme::new("edge", &[("to", 7.into())]))],
            vec![del(2, Wme::new("edge", &[("to", 7.into())]))],
        ];
        for batch in &batches {
            plain.process(batch);
            profiled.process(batch);
            assert_eq!(plain.conflict_set(), profiled.conflict_set());
        }
        let reg = profiled.profile();
        // Derived once on add, once on the unblocking delete; retracted
        // once by the blocking edge.
        assert_eq!(reg.counter_total(metric::RULE_ACTIVATIONS), 2);
        assert_eq!(reg.counter_total(metric::RULE_RETRACTIONS), 1);
        assert!(reg.counter_total(metric::RULE_ALPHA_INSERTS) >= 2);
        assert!(reg.counter_total(metric::RULE_SEED_JOINS) >= 1);
        assert!(plain.profile().is_empty());
    }

    #[test]
    fn modify_heavy_sequence_agrees_with_naive() {
        // The multiple-modify pattern: repeated delete+add of the same
        // logical WME (fresh ids), where TREAT's cheap deletion shines.
        let mut batches = Vec::new();
        batches.push(vec![
            add(1, Wme::new("counter", &[("v", 0.into())])),
            add(2, Wme::new("watch", &[("on", "yes".into())])),
        ]);
        let mut live = 1u64;
        for (next, step) in (3u64..).zip(1i64..6) {
            batches.push(vec![
                del(live, Wme::new("counter", &[("v", (step - 1).into())])),
                add(next, Wme::new("counter", &[("v", step.into())])),
            ]);
            live = next;
        }
        agree(
            "(p watch (watch ^on yes) (counter ^v <v>) --> (remove 2))",
            &batches,
        );
    }
}
