//! The paper's bottleneck-removal transforms (§5.2).
//!
//! Three mechanisms are proposed for the *multiple-successor* and
//! *uneven-token-distribution* problems:
//!
//! 1. **Unsharing** (Figure 5-3): compile the network without two-input
//!    node sharing, so each production generates its successors at its own
//!    node (and hence bucket). Implemented in the compiler as a plan that
//!    unshares every production ([`TransformPlan::unshare_all`]);
//!    [`unshare`] is a convenience wrapper.
//! 2. **Dummy nodes**: insert intermediate nodes that split one node's
//!    large successor fan-out into 2–4 parts. Implemented as the trace
//!    transform [`split_fanout`], mirroring how dummy nodes reshape the
//!    activation tree without changing match semantics.
//! 3. **Copy-and-constraint** (Stolfo; §5.2.2): split a production into
//!    multiple copies, each matching a slice of the data, so the copies'
//!    distinct node ids restore hash discrimination. Implemented in the
//!    compiler as a planned [`SplitSpec`], which keeps the production's
//!    identity on every copy.

use crate::hashfn::bucket_index;
use crate::network::{NodeId, ReteNetwork, Side};
use crate::trace::{ActKind, ActivationRecord, Trace, TraceCycle};
use mpps_ops::{
    intern, AttrTest, OpsError, Predicate, Production, ProductionId, Program, Symbol, TestKind,
    Value,
};

/// Compile `program` with two-input-node sharing disabled — the unsharing
/// transform of §5.2.1.
pub fn unshare(program: &Program) -> Result<ReteNetwork, OpsError> {
    ReteNetwork::compile_planned(program, &TransformPlan::unshare_all(program))
}

/// Options for [`split_fanout`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SplitFanoutOptions {
    /// Only activations generating more than this many successors are
    /// split.
    pub threshold: usize,
    /// How many dummy nodes to split the successors across (the paper
    /// suggests 2–4).
    pub ways: usize,
}

impl Default for SplitFanoutOptions {
    fn default() -> Self {
        SplitFanoutOptions {
            threshold: 8,
            ways: 4,
        }
    }
}

/// Apply the dummy-node transform to a trace: every activation whose
/// fan-out exceeds `opts.threshold` has its successors re-parented onto
/// `opts.ways` freshly invented dummy two-input activations, each placed in
/// its own hash bucket. The original activation then generates only
/// `opts.ways` (dummy) tokens, and the real successors are generated in
/// parallel at the dummies — exactly the effect of inserting dummy nodes in
/// the Rete network.
pub fn split_fanout(trace: &Trace, opts: SplitFanoutOptions) -> Trace {
    assert!(opts.ways >= 2, "splitting needs at least 2 ways");
    // Fresh node ids start past any node mentioned in the trace.
    let mut next_node = trace
        .cycles
        .iter()
        .flat_map(|c| c.activations.iter())
        .map(|a| a.node.0)
        .max()
        .map_or(0, |m| m + 1);

    let mut out = Trace::new(trace.table_size);
    for cycle in &trace.cycles {
        let children = cycle.children_index();
        let mut new_cycle = TraceCycle::default();
        // old index -> new index (for unsplit parents)
        let mut remap: Vec<u32> = vec![0; cycle.activations.len()];
        // old child index -> new parent index (for re-parented children)
        let mut reparent: Vec<Option<u32>> = vec![None; cycle.activations.len()];

        for (i, act) in cycle.activations.iter().enumerate() {
            let parent = match (reparent[i], act.parent) {
                (Some(p), _) => Some(p),
                (None, Some(op)) => Some(remap[op as usize]),
                (None, None) => None,
            };
            let new_idx = new_cycle.activations.len() as u32;
            remap[i] = new_idx;
            new_cycle
                .activations
                .push(ActivationRecord { parent, ..*act });

            let kids = &children[i];
            if kids.len() > opts.threshold {
                // Insert dummies right after the parent; round-robin the
                // children across them.
                let mut dummy_idx = Vec::with_capacity(opts.ways);
                for _ in 0..opts.ways {
                    let node = NodeId(next_node);
                    next_node += 1;
                    let idx = new_cycle.activations.len() as u32;
                    dummy_idx.push(idx);
                    new_cycle.activations.push(ActivationRecord {
                        node,
                        side: Side::Left,
                        sign: act.sign,
                        bucket: bucket_index(node, [], trace.table_size),
                        parent: Some(new_idx),
                        kind: ActKind::TwoInput,
                    });
                }
                for (k, &child) in kids.iter().enumerate() {
                    reparent[child as usize] = Some(dummy_idx[k % opts.ways]);
                }
            }
        }
        out.cycles.push(new_cycle);
    }
    out
}

/// A planned network-level copy-and-constraint: split one production's
/// join chain by constraining the value range of `attr` at LHS condition
/// element `ce_index`.
///
/// The copies are distinct LHS variants compiled to distinct node ids —
/// which is what restores hash discrimination for non-discriminating
/// (cross-product) joins — but a planned split is applied during
/// compilation ([`ReteNetwork::compile_planned`]) and keeps the
/// production's name and [`ProductionId`] on every variant, so the
/// rewritten network's conflict sets are *identical* to the original's,
/// not merely equivalent up to renaming.
///
/// Soundness: [`mpps_ops::Value`] is totally ordered (integers below all
/// symbols), so the added `>= b[i-1]` / `< b[i]` constant tests partition
/// *every* possible value of `attr` into exactly one of the `n + 1`
/// half-open ranges — symbols all land in the last range. The only way a
/// WME could match the original CE but no variant is for `attr` to be
/// absent, which [`SplitSpec::validate`] rules out by requiring the CE to
/// already test `attr` (every test kind implies presence).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SplitSpec {
    /// 0-based index into the production's LHS of the CE to constrain.
    pub ce_index: usize,
    /// The attribute whose value range is split.
    pub attr: Symbol,
    /// Strictly increasing range boundaries; `n` boundaries yield `n + 1`
    /// variants covering `(-∞, b0)`, `[b0, b1)`, …, `[bn-1, +∞)`.
    pub boundaries: Vec<i64>,
}

impl SplitSpec {
    /// A split of CE `ce_index` on `attr` at the given boundaries.
    pub fn new(ce_index: usize, attr: &str, boundaries: Vec<i64>) -> Self {
        SplitSpec {
            ce_index,
            attr: intern(attr),
            boundaries,
        }
    }

    /// Check this spec is applicable to `production` (see type docs for
    /// the soundness conditions).
    pub fn validate(&self, production: &Production) -> Result<(), OpsError> {
        let invalid = |msg: String| {
            Err(OpsError::InvalidProduction(
                production.name.to_string(),
                msg,
            ))
        };
        let Some(ce) = production.lhs.get(self.ce_index) else {
            return invalid(format!("split: no CE at index {}", self.ce_index));
        };
        if ce.negated {
            return invalid("split: cannot split on a negated CE".into());
        }
        if self.boundaries.is_empty() {
            return invalid("split: need at least one boundary".into());
        }
        if self.boundaries.windows(2).any(|w| w[0] >= w[1]) {
            return invalid("split: boundaries must be strictly increasing".into());
        }
        // Presence guard: every test kind fails on an absent attribute, so
        // an existing test on `attr` guarantees the range tests see a value.
        if !ce.tests.iter().any(|t| t.attr == self.attr) {
            return invalid(format!(
                "split: CE {} has no test on ^{} — a WME without the \
                 attribute would match the original but no variant",
                self.ce_index, self.attr
            ));
        }
        Ok(())
    }

    /// The constrained LHS variants (same name, same everything except the
    /// added range tests). Call [`SplitSpec::validate`] first.
    fn variants(&self, production: &Production) -> Vec<Production> {
        let copies = self.boundaries.len() + 1;
        let mut out = Vec::with_capacity(copies);
        for i in 0..copies {
            let mut p = production.clone();
            let ce = &mut p.lhs[self.ce_index];
            if i > 0 {
                ce.tests.push(AttrTest {
                    attr: self.attr,
                    kind: TestKind::Constant(Predicate::Ge, Value::Int(self.boundaries[i - 1])),
                });
            }
            if i < self.boundaries.len() {
                ce.tests.push(AttrTest {
                    attr: self.attr,
                    kind: TestKind::Constant(Predicate::Lt, Value::Int(self.boundaries[i])),
                });
            }
            out.push(p);
        }
        out
    }
}

/// A set of semantics-preserving network rewrites: per-production
/// unsharing (§5.2.1) and copy-and-constraint splits (§5.2.2), applied
/// together by [`ReteNetwork::compile_planned`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TransformPlan {
    unshare: Vec<ProductionId>,
    splits: Vec<(ProductionId, SplitSpec)>,
}

impl TransformPlan {
    /// An empty plan (compiles identically to [`ReteNetwork::compile`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The plan that unshares every production of `program`: no two-input
    /// node is shared anywhere — the whole-network unsharing of Figure 5-3.
    pub fn unshare_all(program: &Program) -> Self {
        TransformPlan {
            unshare: program.iter().map(|(pid, _)| pid).collect(),
            splits: Vec::new(),
        }
    }

    /// Mark `pid` for unsharing: its two-input nodes bypass the sharing
    /// cache, so no other production's chain can collapse into them.
    pub fn with_unshare(mut self, pid: ProductionId) -> Self {
        if !self.unshare.contains(&pid) {
            self.unshare.push(pid);
        }
        self
    }

    /// Add a copy-and-constraint split for `pid`.
    pub fn with_split(mut self, pid: ProductionId, spec: SplitSpec) -> Self {
        self.splits.push((pid, spec));
        self
    }

    /// Is `pid` marked for unsharing?
    pub fn unshares(&self, pid: ProductionId) -> bool {
        self.unshare.contains(&pid)
    }

    /// The planned splits, in insertion order.
    pub fn splits(&self) -> &[(ProductionId, SplitSpec)] {
        &self.splits
    }

    /// Check every planned rewrite against `program`.
    pub fn validate(&self, program: &Program) -> Result<(), OpsError> {
        let check = |pid: ProductionId| {
            if (pid.0 as usize) < program.len() {
                Ok(())
            } else {
                Err(OpsError::InvalidProduction(
                    format!("p{}", pid.0),
                    "plan references a production the program does not have".into(),
                ))
            }
        };
        for &pid in &self.unshare {
            check(pid)?;
        }
        for (i, (pid, spec)) in self.splits.iter().enumerate() {
            check(*pid)?;
            spec.validate(program.get(*pid))?;
            if self.splits[..i].iter().any(|(p, _)| p == pid) {
                return Err(OpsError::InvalidProduction(
                    program.get(*pid).name.to_string(),
                    "plan splits the same production twice".into(),
                ));
            }
        }
        Ok(())
    }

    /// The LHS variants to compile for `pid` (`None` when the plan does
    /// not split it). Used by [`ReteNetwork::compile_planned`].
    pub(crate) fn split_variants(
        &self,
        pid: ProductionId,
        production: &Production,
    ) -> Option<Vec<Production>> {
        let (_, spec) = self.splits.iter().find(|(p, _)| *p == pid)?;
        Some(spec.variants(production))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ReteMatcher};
    use mpps_ops::{parse_production, parse_program, Matcher, Wme, WmeChange, WmeId};

    fn sample_trace_with_big_fanout() -> Trace {
        use mpps_ops::Sign;
        let mut t = Trace::new(64);
        let mut cycle = TraceCycle::default();
        // One root with 12 children and one small root with 1 child.
        cycle.activations.push(ActivationRecord {
            node: NodeId(1),
            side: Side::Left,
            sign: Sign::Plus,
            bucket: 3,
            parent: None,
            kind: ActKind::TwoInput,
        });
        for _ in 0..12 {
            cycle.activations.push(ActivationRecord {
                node: NodeId(2),
                side: Side::Left,
                sign: Sign::Plus,
                bucket: 7,
                parent: Some(0),
                kind: ActKind::TwoInput,
            });
        }
        cycle.activations.push(ActivationRecord {
            node: NodeId(3),
            side: Side::Right,
            sign: Sign::Plus,
            bucket: 9,
            parent: None,
            kind: ActKind::TwoInput,
        });
        cycle.activations.push(ActivationRecord {
            node: NodeId(2),
            side: Side::Left,
            sign: Sign::Plus,
            bucket: 7,
            parent: Some(13),
            kind: ActKind::TwoInput,
        });
        t.cycles.push(cycle);
        t
    }

    #[test]
    fn split_fanout_reduces_max_fanout() {
        let t = sample_trace_with_big_fanout();
        assert_eq!(t.cycles[0].max_fanout(), 12);
        let s = split_fanout(
            &t,
            SplitFanoutOptions {
                threshold: 8,
                ways: 4,
            },
        );
        // The big parent now has 4 dummy children; each dummy has 3 real
        // children.
        assert_eq!(s.cycles[0].max_fanout(), 4);
        // 15 original + 4 dummies.
        assert_eq!(s.cycles[0].activations.len(), 19);
    }

    #[test]
    fn split_fanout_preserves_small_parents() {
        let t = sample_trace_with_big_fanout();
        let s = split_fanout(
            &t,
            SplitFanoutOptions {
                threshold: 20,
                ways: 2,
            },
        );
        // Nothing exceeds the threshold: structure unchanged.
        assert_eq!(s.cycles[0].activations.len(), t.cycles[0].activations.len());
        assert_eq!(s.cycles[0].max_fanout(), t.cycles[0].max_fanout());
    }

    #[test]
    fn split_fanout_keeps_parent_before_child_invariant() {
        let s = split_fanout(
            &sample_trace_with_big_fanout(),
            SplitFanoutOptions::default(),
        );
        for cycle in &s.cycles {
            for (i, a) in cycle.activations.iter().enumerate() {
                if let Some(p) = a.parent {
                    assert!((p as usize) < i);
                }
            }
        }
    }

    #[test]
    fn split_fanout_dummies_get_fresh_nodes_and_buckets() {
        let t = sample_trace_with_big_fanout();
        let s = split_fanout(
            &t,
            SplitFanoutOptions {
                threshold: 8,
                ways: 4,
            },
        );
        let dummies: Vec<&ActivationRecord> = s.cycles[0]
            .activations
            .iter()
            .filter(|a| a.node.0 > 3)
            .collect();
        assert_eq!(dummies.len(), 4);
        let mut nodes: Vec<u32> = dummies.iter().map(|a| a.node.0).collect();
        nodes.dedup();
        assert_eq!(nodes.len(), 4);
    }

    #[test]
    fn unshare_compiles_without_beta_sharing() {
        let prog = parse_program(
            r#"
            (p a (g ^id <g>) (t ^g <g>) (u ^k 1) --> (remove 1))
            (p b (g ^id <g>) (t ^g <g>) (u ^k 2) --> (remove 1))
            "#,
        )
        .unwrap();
        let shared = ReteNetwork::compile(&prog).unwrap();
        let unshared = unshare(&prog).unwrap();
        assert!(unshared.stats().two_input > shared.stats().two_input);
        assert_eq!(unshared.stats().shared_two_input, 0);
    }

    /// Run each batch through matchers over both networks and compare the
    /// full conflict sets — production ids included — after every batch.
    fn assert_identical_conflicts(a: &ReteNetwork, b: &ReteNetwork, batches: &[Vec<WmeChange>]) {
        let mut ma = ReteMatcher::new(a.clone(), EngineConfig::default());
        let mut mb = ReteMatcher::new(b.clone(), EngineConfig::default());
        let key = |m: &ReteMatcher| {
            let mut v: Vec<(u32, Vec<WmeId>)> = m
                .conflict_set()
                .into_iter()
                .map(|i| (i.production().0, i.wme_ids().to_vec()))
                .collect();
            v.sort();
            v
        };
        for batch in batches {
            ma.process(batch);
            mb.process(batch);
            assert_eq!(key(&ma), key(&mb));
        }
    }

    fn cross_batches() -> Vec<Vec<WmeChange>> {
        let mut changes = Vec::new();
        for i in 0..12 {
            changes.push(WmeChange::add(
                WmeId(100 + i),
                Wme::new("lhs", &[("id", (i as i64).into())]),
            ));
        }
        // Symbol-valued ids exercise the total-order fallback (they must
        // land in the last range copy, not vanish).
        changes.push(WmeChange::add(
            WmeId(200),
            Wme::new("lhs", &[("id", "zed".into())]),
        ));
        for i in 0..6 {
            changes.push(WmeChange::add(
                WmeId(300 + i),
                Wme::new("rhs", &[("id", (i as i64).into())]),
            ));
        }
        let retract = vec![WmeChange::remove(
            WmeId(103),
            Wme::new("lhs", &[("id", 3.into())]),
        )];
        vec![changes, retract]
    }

    #[test]
    fn planned_split_preserves_conflict_sets_and_production_ids() {
        let prog = parse_program("(p cross (lhs ^id <a>) (rhs ^id <b>) --> (remove 1))").unwrap();
        let base = ReteNetwork::compile(&prog).unwrap();
        let plan =
            TransformPlan::new().with_split(ProductionId(0), SplitSpec::new(1, "id", vec![2, 4]));
        let split = ReteNetwork::compile_planned(&prog, &plan).unwrap();
        // Three variants, one production node each, all for ProductionId(0).
        assert_eq!(split.production_nodes_of(ProductionId(0)).count(), 3);
        // Variant 0: id < 2; variant 1: 2 <= id < 4; variant 2: id >= 4 —
        // half-open ranges on top of the CE's own variable test.
        let (_, spec) = &plan.splits()[0];
        let tests: Vec<usize> = spec
            .variants(prog.get(ProductionId(0)))
            .iter()
            .map(|v| v.lhs[1].tests.len())
            .collect();
        assert_eq!(tests, [2, 3, 2]);
        assert_identical_conflicts(&base, &split, &cross_batches());
    }

    #[test]
    fn planned_split_on_seed_ce_preserves_conflict_sets() {
        let prog = parse_program("(p cross (lhs ^id <a>) (rhs ^id <b>) --> (remove 1))").unwrap();
        let base = ReteNetwork::compile(&prog).unwrap();
        let plan =
            TransformPlan::new().with_split(ProductionId(0), SplitSpec::new(0, "id", vec![3]));
        let split = ReteNetwork::compile_planned(&prog, &plan).unwrap();
        assert_identical_conflicts(&base, &split, &cross_batches());
    }

    #[test]
    fn planned_unshare_preserves_conflict_sets() {
        let prog = parse_program(
            r#"
            (p a (goal ^id <g>) (task ^goal <g>) (slot ^x 1) --> (remove 1))
            (p b (goal ^id <g>) (task ^goal <g>) (slot ^x 2) --> (remove 1))
            "#,
        )
        .unwrap();
        let base = ReteNetwork::compile(&prog).unwrap();
        let plan = TransformPlan::new().with_unshare(ProductionId(1));
        let net = ReteNetwork::compile_planned(&prog, &plan).unwrap();
        // Production b's chain no longer collapses into a's.
        assert_eq!(net.stats().shared_two_input, 0);
        assert!(net.stats().two_input > base.stats().two_input);
        let changes = vec![
            WmeChange::add(WmeId(1), Wme::new("goal", &[("id", 7.into())])),
            WmeChange::add(WmeId(2), Wme::new("task", &[("goal", 7.into())])),
            WmeChange::add(WmeId(3), Wme::new("slot", &[("x", 1.into())])),
            WmeChange::add(WmeId(4), Wme::new("slot", &[("x", 2.into())])),
        ];
        assert_identical_conflicts(&base, &net, &[changes]);
    }

    #[test]
    fn planned_split_spreads_buckets_without_renaming() {
        let prog = parse_program("(p cross (lhs ^id <a>) (rhs ^id <b>) --> (remove 1))").unwrap();
        let run = |net: ReteNetwork| {
            let mut m = ReteMatcher::new(
                net,
                EngineConfig {
                    table_size: 256,
                    record_trace: true,
                },
            );
            let mut changes = Vec::new();
            for i in 0..16 {
                changes.push(WmeChange::add(
                    WmeId(100 + i),
                    Wme::new("lhs", &[("id", (i as i64).into())]),
                ));
            }
            changes.push(WmeChange::add(
                WmeId(200),
                Wme::new("rhs", &[("id", 3.into())]),
            ));
            m.process(&changes);
            let trace = m.take_trace().unwrap();
            let mut buckets: Vec<u64> = trace.cycles[0]
                .activations
                .iter()
                .filter(|a| a.kind == ActKind::TwoInput && a.side == Side::Left)
                .map(|a| a.bucket)
                .collect();
            buckets.sort_unstable();
            buckets.dedup();
            buckets.len()
        };
        let base = ReteNetwork::compile(&prog).unwrap();
        let plan = TransformPlan::new()
            .with_split(ProductionId(0), SplitSpec::new(1, "id", vec![4, 8, 12]));
        let split = ReteNetwork::compile_planned(&prog, &plan).unwrap();
        assert_eq!(run(base), 1, "cross-product join uses one bucket");
        assert!(run(split) >= 3, "split spreads tokens over buckets");
    }

    #[test]
    fn split_spec_rejects_unsound_targets() {
        let p = parse_production("(p x (a ^id <i>) -(b ^id <j>) (c ^k 1) --> (remove 1))").unwrap();
        // Out of range.
        assert!(SplitSpec::new(9, "id", vec![1]).validate(&p).is_err());
        // Negated CE.
        assert!(SplitSpec::new(1, "id", vec![1]).validate(&p).is_err());
        // Empty / non-increasing boundaries.
        assert!(SplitSpec::new(0, "id", vec![]).validate(&p).is_err());
        assert!(SplitSpec::new(0, "id", vec![5, 5]).validate(&p).is_err());
        assert!(SplitSpec::new(0, "id", vec![9, 2]).validate(&p).is_err());
        // Attribute the CE never tests: presence not guaranteed.
        assert!(SplitSpec::new(0, "size", vec![1]).validate(&p).is_err());
        // A constant-tested attribute is fair game (presence implied).
        assert!(SplitSpec::new(2, "k", vec![1]).validate(&p).is_ok());
    }

    #[test]
    fn plan_validate_rejects_double_split_and_bad_pid() {
        let prog = parse_program("(p one (a ^id <i>) (b ^id <i>) --> (remove 1))").unwrap();
        let double = TransformPlan::new()
            .with_split(ProductionId(0), SplitSpec::new(0, "id", vec![1]))
            .with_split(ProductionId(0), SplitSpec::new(1, "id", vec![2]));
        assert!(double.validate(&prog).is_err());
        let bad = TransformPlan::new().with_unshare(ProductionId(9));
        assert!(bad.validate(&prog).is_err());
    }
}
