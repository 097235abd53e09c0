//! The sequential Rete match engine over hashed memories.
//!
//! [`ReteMatcher`] implements [`mpps_ops::Matcher`] by draining a FIFO of
//! [`Work`] items — the same unit of work the paper's mapping
//! distributes across processors — which makes the recorded [`Trace`] a
//! faithful serial schedule of the parallel computation (parents always
//! precede children).

use crate::kernel::{metric, Kernel, Work};
use crate::memory::GlobalMemories;
use crate::network::{NodeId, ReteNetwork, Side};
use crate::trace::{ActKind, ActivationRecord, Trace, TraceCycle};
use mpps_ops::{
    ConflictSet, Instantiation, Matcher, ProductionId, Program, Sign, Strategy, WmeChange,
};
use mpps_telemetry::{MetricSink, MetricsRegistry, NullMetrics};
use std::collections::VecDeque;
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EngineConfig {
    /// Number of buckets in each global hash table — the hash-index range
    /// the distributed mapping partitions across processors.
    pub table_size: u64,
    /// Record an activation trace while matching.
    pub record_trace: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            table_size: 2048,
            record_trace: false,
        }
    }
}

/// The sequential hashed-memory Rete matcher.
///
/// `M` is the profiling sink: [`NullMetrics`] (the default — every hook
/// monomorphizes away) or a collecting sink installed via
/// [`ReteMatcher::with_metrics`]. Profiling never changes match results,
/// only what gets recorded on the side.
pub struct ReteMatcher<M: MetricSink = NullMetrics> {
    network: Arc<ReteNetwork>,
    kernel: Kernel<M>,
    /// Derivation count per instantiation.
    conflict: ConflictSet,
    config: EngineConfig,
    trace: Option<Trace>,
    queue: VecDeque<(Work, Option<u32>)>,
    out: Vec<Work>,
}

impl ReteMatcher {
    /// Build an unprofiled matcher over an already-compiled network.
    pub fn new(network: ReteNetwork, config: EngineConfig) -> Self {
        Self::with_metrics(network, config, NullMetrics)
    }

    /// Build an unprofiled matcher over a *shared* compiled network.
    ///
    /// Many matchers can point at one compiled [`ReteNetwork`] — the
    /// network is immutable after compilation; all mutable match state
    /// (memories, token arena, conflict set) lives in the matcher. This
    /// is the compile-once/match-many path the serving layer uses to run
    /// thousands of independent sessions against one program.
    pub fn new_shared(network: Arc<ReteNetwork>, config: EngineConfig) -> Self {
        Self::with_metrics_shared(network, config, NullMetrics)
    }

    /// Compile `program` and build a matcher with default options.
    pub fn from_program(program: &mpps_ops::Program) -> Result<Self, mpps_ops::OpsError> {
        Ok(Self::new(
            ReteNetwork::compile(program)?,
            EngineConfig::default(),
        ))
    }
}

impl<M: MetricSink> ReteMatcher<M> {
    /// Build a matcher recording profiling metrics into `metrics`.
    pub fn with_metrics(network: ReteNetwork, config: EngineConfig, metrics: M) -> Self {
        Self::with_metrics_shared(Arc::new(network), config, metrics)
    }

    /// Like [`ReteMatcher::with_metrics`] over a shared compiled network.
    pub fn with_metrics_shared(
        network: Arc<ReteNetwork>,
        config: EngineConfig,
        metrics: M,
    ) -> Self {
        let trace = config.record_trace.then(|| Trace::new(config.table_size));
        ReteMatcher {
            kernel: Kernel::with_metrics(GlobalMemories::new(config.table_size), metrics),
            network,
            conflict: ConflictSet::default(),
            config,
            trace,
            queue: VecDeque::new(),
            out: Vec::new(),
        }
    }

    /// The profiling sink.
    pub fn metrics(&self) -> &M {
        &self.kernel.metrics
    }

    /// Snapshot the recorded metrics as a registry (empty when `M` is
    /// [`NullMetrics`]), flushing the arena gauges first.
    pub fn profile(&mut self) -> MetricsRegistry {
        self.kernel.record_arena_metrics(0);
        self.kernel.metrics.export()
    }

    /// The compiled network.
    pub fn network(&self) -> &ReteNetwork {
        &self.network
    }

    /// The global memories (diagnostics).
    pub fn memories(&self) -> &GlobalMemories {
        &self.kernel.mem
    }

    /// Number of live token-arena records (diagnostics; equals the stored
    /// left-token population whenever the work queue is drained).
    pub fn arena_live(&self) -> usize {
        self.kernel.arena.live()
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Take ownership of the recorded trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace
            .as_mut()
            .map(|t| std::mem::replace(t, Trace::new(t.table_size)))
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Free what the matcher holds beyond its live match state: the work
    /// queue and output buffer, the kernel's spare capacity
    /// ([`Kernel::shrink_to_live`]) and the conflict set's. For a caller
    /// that keeps many idle matchers, such as a server's sessions, between
    /// batches; [`Matcher::process`] never calls it. It changes no match
    /// result and no trace: no stored entry changes its bucket or its
    /// place in it, and every live token keeps its id.
    pub fn shrink_to_live(&mut self) {
        self.queue = VecDeque::new();
        self.out = Vec::new();
        self.kernel.shrink_to_live();
        self.conflict.shrink_to_fit();
    }

    fn record(
        &mut self,
        node: NodeId,
        side: Side,
        sign: Sign,
        bucket: u64,
        parent: Option<u32>,
        kind: ActKind,
    ) -> Option<u32> {
        let trace = self.trace.as_mut()?;
        let cycle = trace.cycles.last_mut().expect("cycle started in process()");
        cycle.activations.push(ActivationRecord {
            node,
            side,
            sign,
            bucket,
            parent,
            kind,
        });
        Some((cycle.activations.len() - 1) as u32)
    }

    /// Apply a `Prod` work item to the conflict set (does not release the
    /// token's arena reference — the caller does).
    fn apply_production(
        &mut self,
        production: ProductionId,
        sign: Sign,
        token: crate::token::TokenId,
    ) {
        match sign {
            Sign::Plus => {
                let inst = self.kernel.instantiation(production, token);
                let count = self.conflict.update(Sign::Plus, inst);
                debug_assert!(count == 1, "duplicate instantiation derivation");
            }
            Sign::Minus => {
                // Probe by borrowed key: a retraction builds no record.
                let count = self
                    .conflict
                    .retract(&(production, self.kernel.wme_ids(token)))
                    .expect("retracting unknown instantiation");
                debug_assert!(count >= 0, "instantiation count underflow");
            }
        }
    }
}

impl<M: MetricSink> Matcher for ReteMatcher<M> {
    fn process(&mut self, changes: &[WmeChange]) {
        let cycle_timer = M::ENABLED.then(std::time::Instant::now);
        if let Some(t) = self.trace.as_mut() {
            t.cycles.push(TraceCycle::default());
        }
        debug_assert!(
            {
                let mut seen = std::collections::HashSet::new();
                changes.iter().all(|c| seen.insert(c.id))
            },
            "a batch must mention each WmeId at most once"
        );
        debug_assert!(self.queue.is_empty());
        for change in changes {
            self.kernel
                .roots(&self.network, change, |_| true, &mut self.out);
        }
        self.queue.extend(self.out.drain(..).map(|w| (w, None)));
        while let Some((work, parent)) = self.queue.pop_front() {
            match work {
                Work::Prod {
                    node,
                    production,
                    sign,
                    token,
                } => {
                    self.record(node, Side::Left, sign, 0, parent, ActKind::Production);
                    self.apply_production(production, sign, token);
                    self.kernel.arena.release(token);
                }
                w @ (Work::Left { .. } | Work::Right { .. }) => {
                    let (node, side, sign) = match &w {
                        Work::Left { node, sign, .. } => (*node, Side::Left, *sign),
                        Work::Right { node, sign, .. } => (*node, Side::Right, *sign),
                        Work::Prod { .. } => unreachable!(),
                    };
                    let bucket = self.kernel.activate(&self.network, w, &mut self.out);
                    let act = self.record(node, side, sign, bucket, parent, ActKind::TwoInput);
                    for o in self.out.drain(..) {
                        self.queue.push_back((o, act));
                    }
                }
            }
        }
        self.kernel.end_batch();
        if let Some(t0) = cycle_timer {
            let ns = t0.elapsed().as_nanos() as u64;
            // Sequential matching has no barrier: the whole cycle is work.
            self.kernel.metrics.observe(metric::CYCLE_WALL_NS, ns);
            self.kernel.metrics.observe(metric::CYCLE_WORK_NS, ns);
            self.kernel.record_arena_metrics(0);
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
    use crate::network::ReteNetwork;
    use mpps_ops::{parse_program, NaiveMatcher, Value, Wme, WmeId};

    fn add(id: u64, wme: Wme) -> WmeChange {
        WmeChange::add(WmeId(id), wme)
    }

    fn del(id: u64, wme: impl Into<Arc<Wme>>) -> WmeChange {
        WmeChange::remove(WmeId(id), wme)
    }

    fn matcher(src: &str) -> ReteMatcher {
        ReteMatcher::from_program(&parse_program(src).unwrap()).unwrap()
    }

    fn traced(src: &str) -> ReteMatcher {
        let program = parse_program(src).unwrap();
        ReteMatcher::new(
            ReteNetwork::compile(&program).unwrap(),
            EngineConfig {
                table_size: 64,
                record_trace: true,
            },
        )
    }

    const BLUE: &str = r#"
        (p clear-the-blue-block
           (block ^name <b2> ^color blue)
           (block ^name <b2> ^on <b1>)
           (hand ^state free)
           -->
           (remove 2))
    "#;

    fn blue_wmes() -> Vec<WmeChange> {
        vec![
            add(
                1,
                Wme::new("block", &[("name", "b1".into()), ("color", "blue".into())]),
            ),
            add(
                2,
                Wme::new("block", &[("name", "b1".into()), ("on", "table".into())]),
            ),
            add(3, Wme::new("hand", &[("state", "free".into())])),
        ]
    }

    #[test]
    fn matches_paper_example() {
        let mut m = matcher(BLUE);
        m.process(&blue_wmes());
        let cs = m.conflict_set();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].wme_ids(), [WmeId(1), WmeId(2), WmeId(3)]);
        let prog = parse_program(BLUE).unwrap();
        let wmes = blue_wmes();
        let bindings = prog
            .get(cs[0].production())
            .bindings(wmes.iter().map(|c| &*c.wme));
        assert_eq!(bindings[&mpps_ops::intern("b1")], Value::sym("table"));
    }

    #[test]
    fn agrees_with_naive_on_paper_example() {
        let prog = parse_program(BLUE).unwrap();
        let mut rete = ReteMatcher::from_program(&prog).unwrap();
        let mut naive = NaiveMatcher::new(prog);
        rete.process(&blue_wmes());
        naive.process(&blue_wmes());
        assert_eq!(rete.conflict_set(), naive.conflict_set());
    }

    #[test]
    fn deletion_retracts() {
        let mut m = matcher(BLUE);
        let wmes = blue_wmes();
        m.process(&wmes);
        assert_eq!(m.conflict_set().len(), 1);
        m.process(&[del(3, wmes[2].wme.clone())]);
        assert!(m.conflict_set().is_empty());
        // Memories for the hand WME are gone too.
        m.process(&[add(4, Wme::new("hand", &[("state", "free".into())]))]);
        assert_eq!(m.conflict_set().len(), 1);
        assert_eq!(
            m.conflict_set()[0].wme_ids(),
            [WmeId(1), WmeId(2), WmeId(4)]
        );
    }

    #[test]
    fn incremental_addition_across_cycles() {
        let mut m = matcher(BLUE);
        let wmes = blue_wmes();
        m.process(&wmes[0..1]);
        assert!(m.conflict_set().is_empty());
        m.process(&wmes[1..2]);
        assert!(m.conflict_set().is_empty());
        m.process(&wmes[2..3]);
        assert_eq!(m.conflict_set().len(), 1);
    }

    #[test]
    fn negative_node_blocks_and_unblocks() {
        let mut m = matcher(
            r#"
            (p no-busy
               (block ^name <b>)
               -(hand ^holds <b>)
               -->
               (remove 1))
            "#,
        );
        m.process(&[add(1, Wme::new("block", &[("name", "b1".into())]))]);
        assert_eq!(m.conflict_set().len(), 1);
        // Blocking WME appears: instantiation retracted.
        let hand = Wme::new("hand", &[("holds", "b1".into())]);
        m.process(&[add(2, hand.clone())]);
        assert!(m.conflict_set().is_empty());
        // Blocking WME leaves: instantiation re-asserted.
        m.process(&[del(2, hand)]);
        assert_eq!(m.conflict_set().len(), 1);
    }

    #[test]
    fn negative_node_count_tracks_multiple_blockers() {
        let mut m = matcher(
            r#"
            (p lonely
               (node ^id <n>)
               -(edge ^to <n>)
               -->
               (remove 1))
            "#,
        );
        m.process(&[add(1, Wme::new("node", &[("id", 7.into())]))]);
        assert_eq!(m.conflict_set().len(), 1);
        let e1 = Wme::new("edge", &[("to", 7.into())]);
        let e2 = Wme::new("edge", &[("to", 7.into()), ("w", 2.into())]);
        m.process(&[add(2, e1.clone()), add(3, e2.clone())]);
        assert!(m.conflict_set().is_empty());
        // Removing only one blocker keeps the instantiation blocked.
        m.process(&[del(2, e1)]);
        assert!(m.conflict_set().is_empty());
        m.process(&[del(3, e2)]);
        assert_eq!(m.conflict_set().len(), 1);
    }

    #[test]
    fn self_join_produces_single_instantiation() {
        let mut m = matcher("(p selfj (node ^id <x>) (node ^id <x>) --> (remove 1))");
        m.process(&[add(1, Wme::new("node", &[("id", 1.into())]))]);
        assert_eq!(m.conflict_set().len(), 1);
        m.process(&[del(1, Wme::new("node", &[("id", 1.into())]))]);
        assert!(m.conflict_set().is_empty());
    }

    #[test]
    fn cross_product_generates_all_pairs() {
        let mut m = matcher(
            r#"
            (p cross (team ^side left ^name <a>) (team ^side right ^name <b>) --> (remove 1))
            "#,
        );
        let mut changes = Vec::new();
        let mut id = 0;
        for i in 0..5 {
            id += 1;
            changes.push(add(
                id,
                Wme::new("team", &[("side", "left".into()), ("name", i.into())]),
            ));
        }
        for i in 0..6 {
            id += 1;
            changes.push(add(
                id,
                Wme::new(
                    "team",
                    &[("side", "right".into()), ("name", (100 + i).into())],
                ),
            ));
        }
        m.process(&changes);
        assert_eq!(m.conflict_set().len(), 30);
    }

    #[test]
    fn trace_records_left_and_right_activations() {
        let mut m = traced(BLUE);
        m.process(&blue_wmes());
        let trace = m.trace().unwrap();
        assert_eq!(trace.cycles.len(), 1);
        let stats = trace.stats();
        // block+color-blue WME seeds J1 left; block+on WME right-activates
        // J1; hand WME right-activates J2; J1's output left-activates J2;
        // final token reaches the production node.
        assert_eq!(stats.left, 2);
        assert_eq!(stats.right, 2);
        assert_eq!(stats.instantiations, 1);
    }

    #[test]
    fn trace_parent_links_form_valid_forest() {
        let mut m = traced(BLUE);
        m.process(&blue_wmes());
        let trace = m.trace().unwrap();
        for cycle in &trace.cycles {
            for (i, a) in cycle.activations.iter().enumerate() {
                if let Some(p) = a.parent {
                    assert!((p as usize) < i, "parent precedes child");
                }
            }
        }
    }

    #[test]
    fn trace_bucket_consistency_between_sides() {
        // The left and right activations that meet at a node with equal
        // join values must report the same bucket index.
        let mut m = traced("(p j (a ^v <x>) (b ^v <x>) --> (remove 1))");
        m.process(&[
            add(1, Wme::new("a", &[("v", 42.into())])),
            add(2, Wme::new("b", &[("v", 42.into())])),
        ]);
        let trace = m.trace().unwrap();
        let acts = &trace.cycles[0].activations;
        let left = acts
            .iter()
            .find(|a| a.side == Side::Left && a.kind == ActKind::TwoInput)
            .unwrap();
        let right = acts.iter().find(|a| a.side == Side::Right).unwrap();
        assert_eq!(left.bucket, right.bucket);
        assert_eq!(left.node, right.node);
    }

    #[test]
    fn take_trace_resets() {
        let mut m = traced(BLUE);
        m.process(&blue_wmes());
        let t = m.take_trace().unwrap();
        assert_eq!(t.cycles.len(), 1);
        assert_eq!(m.trace().unwrap().cycles.len(), 0);
    }

    #[test]
    fn variable_pred_join_test() {
        let mut m = matcher(
            r#"
            (p bigger
               (box ^size <s>)
               (lid ^size > <s> ^for <f>)
               -->
               (remove 1))
            "#,
        );
        m.process(&[
            add(1, Wme::new("box", &[("size", 5.into())])),
            add(
                2,
                Wme::new("lid", &[("size", 7.into()), ("for", "x".into())]),
            ),
            add(
                3,
                Wme::new("lid", &[("size", 3.into()), ("for", "y".into())]),
            ),
        ]);
        let cs = m.conflict_set();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].wme_ids(), [WmeId(1), WmeId(2)]);
    }

    #[test]
    fn memories_empty_after_full_retraction() {
        let mut m = matcher(BLUE);
        let wmes = blue_wmes();
        m.process(&wmes);
        assert!(m.memories().left_len() > 0);
        assert!(m.arena_live() > 0);
        let dels: Vec<WmeChange> = wmes.iter().map(|c| del(c.id.0, c.wme.clone())).collect();
        m.process(&dels);
        assert_eq!(m.memories().left_len(), 0);
        assert_eq!(m.memories().right_len(), 0);
        assert_eq!(m.arena_live(), 0, "token arena fully reclaimed");
        assert!(m.conflict_set().is_empty());
    }

    #[test]
    fn shared_join_feeds_both_productions() {
        let mut m = matcher(
            r#"
            (p a (goal ^id <g>) (task ^goal <g> ^hard yes) --> (remove 1))
            (p b (goal ^id <g>) (task ^goal <g> ^hard no) --> (remove 1))
            "#,
        );
        m.process(&[
            add(1, Wme::new("goal", &[("id", 1.into())])),
            add(
                2,
                Wme::new("task", &[("goal", 1.into()), ("hard", "yes".into())]),
            ),
            add(
                3,
                Wme::new("task", &[("goal", 1.into()), ("hard", "no".into())]),
            ),
        ]);
        let cs = m.conflict_set();
        assert_eq!(cs.len(), 2);
        assert_ne!(cs[0].production(), cs[1].production());
    }

    /// Run the same batches through Rete and Naive, asserting identical
    /// conflict sets after each batch.
    fn agree(src: &str, batches: &[Vec<WmeChange>]) {
        let prog = parse_program(src).unwrap();
        let mut rete = ReteMatcher::from_program(&prog).unwrap();
        let mut naive = NaiveMatcher::new(prog);
        for batch in batches {
            rete.process(batch);
            naive.process(batch);
            assert_eq!(rete.conflict_set(), naive.conflict_set(), "diverged");
        }
    }

    #[test]
    fn profiled_matcher_matches_identically_and_records_metrics() {
        use crate::kernel::metric;
        use mpps_telemetry::MetricsRegistry;

        let prog = parse_program(BLUE).unwrap();
        let mut plain = ReteMatcher::from_program(&prog).unwrap();
        let mut profiled = ReteMatcher::with_metrics(
            ReteNetwork::compile(&prog).unwrap(),
            EngineConfig::default(),
            MetricsRegistry::new(),
        );
        let wmes = blue_wmes();
        plain.process(&wmes);
        profiled.process(&wmes);
        assert_eq!(plain.conflict_set(), profiled.conflict_set());

        let reg = profiled.profile();
        let acts = reg.counter_total(metric::NODE_ACTIVATIONS);
        assert!(acts > 0, "two-input activations recorded");
        assert_eq!(reg.counter_total(metric::BUCKET_ACTIVATIONS), acts);
        let probes = reg.counter_total(metric::NODE_LEFT_PROBES)
            + reg.counter_total(metric::NODE_RIGHT_PROBES);
        assert!(reg.counter_total(metric::NODE_PREFILTER_HITS) <= probes);
        assert!(reg.gauge(metric::ARENA_ALLOCS).is_some());
        let cycles = reg.histogram(metric::CYCLE_WALL_NS).unwrap();
        assert_eq!(cycles.count(), 1, "one sample per process() call");
        // The unprofiled matcher's sink stays empty.
        assert!(plain.profile().is_empty());
    }

    #[test]
    fn leading_negated_ce_blocks_and_unblocks() {
        // The LHS starts with a negated CE; the network must seed from the
        // first positive CE and chain the negation in behind it.
        let inhibit = Wme::new("inhibit", &[("on", "yes".into())]);
        agree(
            "(p guard -(inhibit ^on yes) (job ^id <j>) --> (remove 1))",
            &[
                vec![add(1, Wme::new("job", &[("id", 1.into())]))],
                vec![add(2, inhibit.clone())],
                vec![del(2, inhibit)],
            ],
        );
    }

    #[test]
    fn leading_negated_ce_variable_is_existential() {
        // `<w>` in the leading negation is unbound at that point, so ANY
        // inhibit WME carrying attribute `on` blocks — the variable must
        // not join against the later positive CE's binding of `<w>`.
        agree(
            "(p guard -(inhibit ^on <w>) (job ^id <w>) --> (remove 1))",
            &[
                vec![add(1, Wme::new("job", &[("id", 1.into())]))],
                // on=2 ≠ id=1, yet it blocks: existential semantics.
                vec![add(2, Wme::new("inhibit", &[("on", 2.into())]))],
                vec![del(2, Wme::new("inhibit", &[("on", 2.into())]))],
            ],
        );
    }

    #[test]
    fn leading_negation_with_mid_lhs_negation_agrees() {
        agree(
            "(p mix -(stop) (a ^x <v>) -(b ^y <v>) (c ^z <v>) --> (remove 1))",
            &[
                vec![
                    add(1, Wme::new("a", &[("x", 1.into())])),
                    add(2, Wme::new("c", &[("z", 1.into())])),
                ],
                vec![add(3, Wme::new("b", &[("y", 1.into())]))],
                vec![del(3, Wme::new("b", &[("y", 1.into())]))],
                vec![add(4, Wme::new("stop", &[]))],
                vec![del(4, Wme::new("stop", &[]))],
            ],
        );
    }
}

#[cfg(test)]
mod disjunction_tests {
    use super::*;
    use mpps_ops::{parse_program, NaiveMatcher, Wme, WmeId};

    #[test]
    fn disjunction_filters_at_alpha_and_agrees_with_naive() {
        let prog = parse_program(
            r#"
            (p warm (block ^color << red orange yellow >> ^name <n>)
               --> (remove 1))
            "#,
        )
        .unwrap();
        let mut rete = ReteMatcher::from_program(&prog).unwrap();
        let mut naive = NaiveMatcher::new(prog);
        let changes = vec![
            WmeChange::add(
                WmeId(1),
                Wme::new("block", &[("color", "red".into()), ("name", "a".into())]),
            ),
            WmeChange::add(
                WmeId(2),
                Wme::new("block", &[("color", "blue".into()), ("name", "b".into())]),
            ),
            WmeChange::add(
                WmeId(3),
                Wme::new("block", &[("color", "yellow".into()), ("name", "c".into())]),
            ),
        ];
        rete.process(&changes);
        naive.process(&changes);
        assert_eq!(rete.conflict_set(), naive.conflict_set());
        assert_eq!(rete.conflict_set().len(), 2);
    }

    #[test]
    fn disjunction_participates_in_alpha_sharing() {
        let prog = parse_program(
            r#"
            (p a (block ^color << red blue >>) (x) --> (remove 1))
            (p b (block ^color << blue red >>) (y) --> (remove 1))
            "#,
        )
        .unwrap();
        let net = crate::network::ReteNetwork::compile(&prog).unwrap();
        // Canonical disjunctions: both rules share one block alpha node.
        assert_eq!(net.stats().alpha, 3);
    }
}
