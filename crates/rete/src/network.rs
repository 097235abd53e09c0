//! The Rete network: node kinds and the compiler from productions.
//!
//! The network follows the paper's structure (Figure 2-2): constant-test
//! (alpha) nodes at the top, two-input nodes — joins and negative nodes —
//! below, arranged in left-linear chains, and a production node per rule at
//! the bottom. Memory nodes are *not* materialized as separate nodes:
//! following §3 of the paper, all left memories live in one global hash
//! table and all right memories in another (see [`crate::memory`]); a
//! two-input node's "memories" are just the hash-table entries tagged with
//! its [`NodeId`].
//!
//! The compiler shares alpha nodes between identical condition elements and
//! shares two-input nodes between productions with structurally identical
//! CE prefixes — the *sharing* that §5.2.1's unsharing transform removes.

use mpps_ops::{
    ConditionElement, FxBuildHasher, FxHasher, OpsError, Predicate, Production, ProductionId,
    Program, Symbol, TestKind, Value, Wme,
};
use std::collections::HashMap;
use std::fmt;

/// Identifier of any node in the network (alpha, two-input, or production).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Which input of a two-input node a token arrives on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// The beta (token) input. Stored in the global *left* hash table.
    Left,
    /// The alpha (WME) input. Stored in the global *right* hash table.
    Right,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Left => "L",
            Side::Right => "R",
        })
    }
}

/// A constant test `wme[attr] pred value`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConstTest {
    /// Tested attribute.
    pub attr: Symbol,
    /// Comparison predicate.
    pub pred: Predicate,
    /// Literal operand.
    pub value: Value,
}

/// An intra-element test `wme[attr] pred wme[other_attr]` (two attributes of
/// the same WME, induced by a repeated variable within one CE).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IntraTest {
    /// Left attribute.
    pub attr: Symbol,
    /// Comparison predicate.
    pub pred: Predicate,
    /// Right attribute (the binder occurrence).
    pub other_attr: Symbol,
}

/// An alpha (constant-test) node: decides whether a WME matches the
/// constant part of a condition element.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AlphaNode {
    /// This node's id.
    pub id: NodeId,
    /// Required WME class.
    pub class: Symbol,
    /// Constant tests, canonically sorted.
    pub const_tests: Vec<ConstTest>,
    /// Disjunction tests `^attr << v… >>`, canonically sorted.
    pub disj_tests: Vec<(Symbol, Vec<Value>)>,
    /// Intra-element tests, canonically sorted.
    pub intra_tests: Vec<IntraTest>,
    /// Attributes that must be present (from variable tests), sorted.
    pub required: Vec<Symbol>,
    /// Outgoing edges.
    pub successors: Vec<AlphaSucc>,
}

impl AlphaNode {
    /// Does `wme` pass this node's tests?
    pub fn matches(&self, wme: &Wme) -> bool {
        if wme.class() != self.class {
            return false;
        }
        self.const_tests
            .iter()
            .all(|t| wme.get(t.attr).is_some_and(|v| t.pred.eval(v, t.value)))
            && self
                .disj_tests
                .iter()
                .all(|(attr, vals)| wme.get(*attr).is_some_and(|v| vals.contains(&v)))
            && self.required.iter().all(|a| wme.get(*a).is_some())
            && self
                .intra_tests
                .iter()
                .all(|t| match (wme.get(t.attr), wme.get(t.other_attr)) {
                    (Some(a), Some(b)) => t.pred.eval(a, b),
                    _ => false,
                })
    }
}

/// An outgoing edge from an alpha node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlphaSucc {
    /// Feed matching WMEs to the given side of a two-input node. `Left`
    /// edges are first-CE (seed) edges.
    TwoInput(NodeId, Side),
    /// Single-positive-CE production fed directly by this alpha node.
    Production(NodeId),
}

/// The variable tests a two-input node performs between an incoming WME and
/// a beta token (or vice versa).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct JoinSpec {
    /// Fresh variables bound from the right WME: `(var, attr)` in source
    /// order. Empty for negative nodes.
    pub binds: Vec<(Symbol, Symbol)>,
    /// Equality tests `wme[attr] == token[var]`, in source order. **This
    /// order defines the hash signature** of the node: both left tokens
    /// (via `var`) and right WMEs (via `attr`) hash these values.
    pub eq_checks: Vec<(Symbol, Symbol)>,
    /// Relational tests `wme[attr] pred token[var]`.
    pub pred_checks: Vec<(Symbol, Predicate, Symbol)>,
}

impl JoinSpec {
    /// Hash-signature values of a right WME: the attribute values matched
    /// against the equality-tested variables, in signature order.
    pub fn right_hash_values<'a>(&'a self, wme: &'a Wme) -> impl Iterator<Item = Value> + 'a {
        self.eq_checks
            .iter()
            .map(move |&(_, attr)| wme.get(attr).expect("alpha guaranteed attribute presence"))
    }
}

/// Where a two-input node's left input comes from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LeftSource {
    /// The first two-input node of a chain: left tokens are seeded from
    /// first-CE WMEs arriving from this alpha node.
    Alpha(NodeId),
    /// A later node: left tokens come from the given two-input node.
    Beta(NodeId),
}

/// Outgoing edge from a two-input node (its output tokens are always *left*
/// activations of the target, per §2.2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Succ {
    /// Another two-input node (left input).
    TwoInput(NodeId),
    /// A production node (instantiation sink).
    Production(NodeId),
}

/// A two-input node: a join or (when `negative`) a negated-CE node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JoinNode {
    /// This node's id.
    pub id: NodeId,
    /// True for negated condition elements.
    pub negative: bool,
    /// The alpha node feeding the right input.
    pub right_alpha: NodeId,
    /// The left input source.
    pub left_src: LeftSource,
    /// For first-of-chain nodes: how to build a seed token's bindings from
    /// a first-CE WME (`(var, attr)` pairs).
    pub seed_binds: Option<Vec<(Symbol, Symbol)>>,
    /// The variable tests.
    pub spec: JoinSpec,
    /// Downstream consumers of this node's output tokens.
    pub successors: Vec<Succ>,
}

/// A production node: turns complete tokens into conflict-set updates.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProductionNode {
    /// This node's id.
    pub id: NodeId,
    /// The production whose instantiations this node emits.
    pub production: ProductionId,
    /// For single-positive-CE productions fed directly by an alpha node:
    /// how to build the instantiation's bindings from the WME.
    pub seed_binds: Option<Vec<(Symbol, Symbol)>>,
}

/// Any node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// Constant-test node.
    Alpha(AlphaNode),
    /// Join or negative node.
    TwoInput(JoinNode),
    /// Terminal production node.
    Production(ProductionNode),
}

/// Summary counts over a compiled network.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NetworkStats {
    /// Number of alpha nodes.
    pub alpha: usize,
    /// Number of two-input nodes (joins + negatives).
    pub two_input: usize,
    /// Number of negative nodes (subset of `two_input`).
    pub negative: usize,
    /// Number of production nodes.
    pub production: usize,
    /// Two-input nodes with more than one successor — shared join results.
    pub shared_two_input: usize,
}

/// Compile-time resolution of a variable occurrence to its storage site in
/// an arena token chain: the `slot`-th value introduced at chain `level`.
///
/// Levels count positive CEs from the top of the chain (seed = level 0);
/// slots index the values a level introduced, in `JoinSpec::binds` (or
/// seed-bind) order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct VarRef {
    /// 0-based chain level.
    pub level: u16,
    /// Index into the values introduced at that level.
    pub slot: u16,
}

/// Per-node variable layout, precomputed at compile time so the kernel
/// resolves variables by `(level, slot)` arithmetic instead of name lookup.
#[derive(Clone, Debug, Default)]
pub struct NodeLayout {
    /// Chain depth (number of levels) of tokens arriving on the left input
    /// (for production nodes: of complete tokens). 0 for alpha nodes.
    pub depth: u16,
    /// Site of each `JoinSpec::eq_checks` variable in the left token, in
    /// hash-signature order.
    pub left_key: Vec<VarRef>,
    /// Site of each `JoinSpec::pred_checks` variable in the left token.
    pub left_preds: Vec<VarRef>,
    /// Production nodes only: every visible variable and its site, for
    /// materializing instantiation bindings.
    pub vars: Vec<(Symbol, VarRef)>,
}

/// A compiled Rete network.
#[derive(Clone, Debug)]
pub struct ReteNetwork {
    nodes: Vec<NodeKind>,
    layouts: Vec<NodeLayout>,
    alpha_by_class: HashMap<Symbol, Vec<NodeId>>,
    production_nodes: Vec<NodeId>,
}

impl ReteNetwork {
    /// Compile `program` fully shared (the empty plan).
    pub fn compile(program: &Program) -> Result<Self, OpsError> {
        Self::compile_planned(program, &crate::transform::TransformPlan::default())
    }

    /// Compile `program` with a [`crate::transform::TransformPlan`] applied:
    /// productions the plan marks for unsharing bypass the two-input-node
    /// cache (per-production §5.2.1 unsharing), and productions the plan
    /// splits are compiled as one constrained LHS variant per value range —
    /// all carrying the *original* [`ProductionId`], so the transformed
    /// network produces byte-identical conflict sets.
    pub fn compile_planned(
        program: &Program,
        plan: &crate::transform::TransformPlan,
    ) -> Result<Self, OpsError> {
        plan.validate(program)?;
        let mut c = Compiler {
            net: ReteNetwork {
                nodes: Vec::new(),
                layouts: Vec::new(),
                alpha_by_class: HashMap::new(),
                production_nodes: Vec::new(),
            },
            alpha_cache: HashMap::default(),
            beta_cache: HashMap::default(),
            share_beta_now: true,
        };
        for (pid, prod) in program.iter() {
            c.share_beta_now = !plan.unshares(pid);
            match plan.split_variants(pid, prod) {
                Some(variants) => {
                    for variant in &variants {
                        c.compile_production(pid, variant)?;
                    }
                }
                None => c.compile_production(pid, prod)?,
            }
        }
        c.net.compute_layouts();
        Ok(c.net)
    }

    /// The precomputed variable layout of a two-input or production node.
    pub fn layout(&self, id: NodeId) -> &NodeLayout {
        &self.layouts[id.0 as usize]
    }

    /// Resolve every node's variable layout. Runs once at the end of
    /// compilation; relies on left sources having smaller ids than their
    /// consumers (guaranteed by construction order).
    fn compute_layouts(&mut self) {
        /// Variable scope at a point in a chain: where each visible
        /// variable lives as a `(level, slot)` site.
        type VarSites = Vec<(Symbol, VarRef)>;
        let n = self.nodes.len();
        let mut layouts = vec![NodeLayout::default(); n];
        // Scope flowing out of each two-input node: (depth, var sites).
        let mut outs: Vec<Option<(u16, VarSites)>> = vec![None; n];
        let find = |env: &[(Symbol, VarRef)], v: Symbol| -> VarRef {
            env.iter()
                .find(|&&(s, _)| s == v)
                .map(|&(_, r)| r)
                .expect("tested variable bound by an upstream CE")
        };
        for i in 0..n {
            let NodeKind::TwoInput(j) = &self.nodes[i] else {
                continue;
            };
            let (depth_in, env_in): (u16, VarSites) = match j.left_src {
                LeftSource::Alpha(_) => {
                    let seeds = j
                        .seed_binds
                        .as_ref()
                        .expect("alpha-fed join has seed binds");
                    let env = seeds
                        .iter()
                        .enumerate()
                        .map(|(s, &(v, _))| {
                            (
                                v,
                                VarRef {
                                    level: 0,
                                    slot: s as u16,
                                },
                            )
                        })
                        .collect();
                    (1, env)
                }
                LeftSource::Beta(b) => outs[b.0 as usize]
                    .clone()
                    .expect("left source compiled before its consumer"),
            };
            let lay = &mut layouts[i];
            lay.depth = depth_in;
            lay.left_key = j
                .spec
                .eq_checks
                .iter()
                .map(|&(v, _)| find(&env_in, v))
                .collect();
            lay.left_preds = j
                .spec
                .pred_checks
                .iter()
                .map(|&(v, _, _)| find(&env_in, v))
                .collect();
            let (depth_out, env_out) = if j.negative {
                (depth_in, env_in)
            } else {
                let mut env = env_in;
                for (s, &(v, _)) in j.spec.binds.iter().enumerate() {
                    env.push((
                        v,
                        VarRef {
                            level: depth_in,
                            slot: s as u16,
                        },
                    ));
                }
                (depth_in + 1, env)
            };
            for succ in &j.successors {
                if let Succ::Production(p) = *succ {
                    layouts[p.0 as usize].depth = depth_out;
                    layouts[p.0 as usize].vars = env_out.clone();
                }
            }
            outs[i] = Some((depth_out, env_out));
        }
        // Single-CE productions fed directly by an alpha node.
        for (node, lay) in self.nodes.iter().zip(layouts.iter_mut()) {
            let NodeKind::Production(p) = node else {
                continue;
            };
            if let Some(seeds) = &p.seed_binds {
                lay.depth = 1;
                lay.vars = seeds
                    .iter()
                    .enumerate()
                    .map(|(s, &(v, _))| {
                        (
                            v,
                            VarRef {
                                level: 0,
                                slot: s as u16,
                            },
                        )
                    })
                    .collect();
            }
        }
        self.layouts = layouts;
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.0 as usize]
    }

    /// The two-input node with the given id (panics if `id` is another kind).
    pub fn join(&self, id: NodeId) -> &JoinNode {
        match self.node(id) {
            NodeKind::TwoInput(j) => j,
            other => panic!("{id} is not a two-input node: {other:?}"),
        }
    }

    /// The alpha nodes a WME of class `class` must be tested against.
    pub fn alphas_for_class(&self, class: Symbol) -> &[NodeId] {
        self.alpha_by_class
            .get(&class)
            .map_or(&[], |v| v.as_slice())
    }

    /// The first production node of `pid`. A plan-split production has
    /// several nodes for one id (one per LHS variant); use
    /// `ReteNetwork::production_nodes` to see them all.
    pub fn production_node(&self, pid: ProductionId) -> NodeId {
        self.production_nodes_of(pid)
            .next()
            .expect("production has a node")
    }

    /// All production nodes of `pid`, in compilation order.
    pub fn production_nodes_of(&self, pid: ProductionId) -> impl Iterator<Item = NodeId> + '_ {
        self.production_nodes.iter().copied().filter(
            move |&id| matches!(self.node(id), NodeKind::Production(p) if p.production == pid),
        )
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the network has no nodes (empty program).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate all nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeKind)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Count nodes by kind.
    pub fn stats(&self) -> NetworkStats {
        let mut s = NetworkStats::default();
        for n in &self.nodes {
            match n {
                NodeKind::Alpha(_) => s.alpha += 1,
                NodeKind::TwoInput(j) => {
                    s.two_input += 1;
                    if j.negative {
                        s.negative += 1;
                    }
                    if j.successors.len() > 1 {
                        s.shared_two_input += 1;
                    }
                }
                NodeKind::Production(_) => s.production += 1,
            }
        }
        s
    }
}

/// Alpha-node structural identity (for sharing).
#[derive(Hash)]
struct AlphaKey {
    class: Symbol,
    const_tests: Vec<ConstTest>,
    disj_tests: Vec<(Symbol, Vec<Value>)>,
    intra_tests: Vec<IntraTest>,
    required: Vec<Symbol>,
}

/// Two-input-node structural identity (for sharing).
#[derive(Hash)]
struct BetaKey {
    left: LeftSource,
    seed_binds: Option<Vec<(Symbol, Symbol)>>,
    right_alpha: NodeId,
    negative: bool,
    spec: JoinSpec,
}

/// One [`FxHasher`] pass over a structural key (the std SipHash dominated
/// sharing-probe cost on large programs). The sharing caches index
/// candidate nodes by this hash and confirm with a field-by-field compare
/// against the existing node, so key contents are hashed exactly once and
/// then *moved* into the created node — never cloned.
fn structural_hash<T: std::hash::Hash>(t: &T) -> u64 {
    use std::hash::Hasher;
    let mut h = FxHasher::default();
    t.hash(&mut h);
    h.finish()
}

/// Per-CE analysis output.
struct CeAnalysis {
    alpha: AlphaKey,
    spec: JoinSpec,
}

struct Compiler {
    net: ReteNetwork,
    alpha_cache: HashMap<u64, Vec<NodeId>, FxBuildHasher>,
    beta_cache: HashMap<u64, Vec<NodeId>, FxBuildHasher>,
    /// Per-production override: `false` while compiling a production the
    /// active [`crate::transform::TransformPlan`] marks for unsharing.
    share_beta_now: bool,
}

impl Compiler {
    fn fresh_id(&self) -> NodeId {
        NodeId(self.net.nodes.len() as u32)
    }

    /// Split a CE's tests into the alpha part (constants, presence, intra)
    /// and the join part (tests against variables bound by earlier CEs).
    fn analyze_ce(
        ce: &ConditionElement,
        bound: &HashMap<Symbol, (), FxBuildHasher>,
    ) -> Result<CeAnalysis, OpsError> {
        let mut const_tests = Vec::with_capacity(ce.tests.len());
        let mut disj = Vec::new();
        let mut intra = Vec::new();
        let mut required = Vec::with_capacity(ce.tests.len());
        let mut spec = JoinSpec::default();
        // First occurrence attr of each locally fresh variable. A CE has a
        // handful of variables at most, so a linear-scanned vec beats a
        // heap-allocated map here.
        let mut local: Vec<(Symbol, Symbol)> = Vec::new();
        for t in &ce.tests {
            match &t.kind {
                TestKind::Constant(pred, value) => const_tests.push(ConstTest {
                    attr: t.attr,
                    pred: *pred,
                    value: *value,
                }),
                TestKind::Disjunction(values) => disj.push((t.attr, values.clone())),
                TestKind::Variable(v) => {
                    let v = *v;
                    required.push(t.attr);
                    if bound.contains_key(&v) {
                        spec.eq_checks.push((v, t.attr));
                    } else if let Some(&(_, binder)) = local.iter().find(|&&(lv, _)| lv == v) {
                        intra.push(IntraTest {
                            attr: t.attr,
                            pred: Predicate::Eq,
                            other_attr: binder,
                        });
                    } else {
                        local.push((v, t.attr));
                        if !ce.negated {
                            spec.binds.push((v, t.attr));
                        }
                    }
                }
                TestKind::VariablePred(pred, v) => {
                    let v = *v;
                    required.push(t.attr);
                    if bound.contains_key(&v) {
                        spec.pred_checks.push((v, *pred, t.attr));
                    } else if let Some(&(_, binder)) = local.iter().find(|&&(lv, _)| lv == v) {
                        intra.push(IntraTest {
                            attr: t.attr,
                            pred: *pred,
                            other_attr: binder,
                        });
                    } else {
                        return Err(OpsError::UnboundVariable(v.as_str().to_owned()));
                    }
                }
            }
        }
        // Sort on the Copy id-order key (`Symbol::index`), not `Symbol`'s
        // lexicographic `Ord` — the latter reaches into the interner and
        // compares strings on every step. The tie-breakers only fire for
        // duplicate tests on the same attribute, which dedup then removes.
        const_tests.sort_unstable_by(|a, b| {
            (a.attr.index().cmp(&b.attr.index()))
                .then_with(|| a.pred.cmp(&b.pred))
                .then_with(|| a.value.cmp(&b.value))
        });
        const_tests.dedup();
        disj.sort_unstable_by(|a, b| (a.0.index().cmp(&b.0.index())).then_with(|| a.1.cmp(&b.1)));
        disj.dedup();
        intra.sort_unstable_by_key(|t| (t.attr.index(), t.other_attr.index(), t.pred));
        intra.dedup();
        required.sort_unstable_by_key(|s| s.index());
        required.dedup();
        Ok(CeAnalysis {
            alpha: AlphaKey {
                class: ce.class,
                const_tests,
                disj_tests: disj,
                intra_tests: intra,
                required,
            },
            spec,
        })
    }

    fn alpha_node(&mut self, key: AlphaKey) -> NodeId {
        let kh = structural_hash(&key);
        for &cand in self.alpha_cache.get(&kh).into_iter().flatten() {
            if let NodeKind::Alpha(a) = &self.net.nodes[cand.0 as usize] {
                if a.class == key.class
                    && a.const_tests == key.const_tests
                    && a.disj_tests == key.disj_tests
                    && a.intra_tests == key.intra_tests
                    && a.required == key.required
                {
                    return cand;
                }
            }
        }
        let id = self.fresh_id();
        self.net
            .alpha_by_class
            .entry(key.class)
            .or_default()
            .push(id);
        self.net.nodes.push(NodeKind::Alpha(AlphaNode {
            id,
            class: key.class,
            const_tests: key.const_tests,
            disj_tests: key.disj_tests,
            intra_tests: key.intra_tests,
            required: key.required,
            successors: Vec::new(),
        }));
        self.alpha_cache.entry(kh).or_default().push(id);
        id
    }

    fn alpha_mut(&mut self, id: NodeId) -> &mut AlphaNode {
        match &mut self.net.nodes[id.0 as usize] {
            NodeKind::Alpha(a) => a,
            _ => unreachable!("{id} is not an alpha node"),
        }
    }

    fn join_mut(&mut self, id: NodeId) -> &mut JoinNode {
        match &mut self.net.nodes[id.0 as usize] {
            NodeKind::TwoInput(j) => j,
            _ => unreachable!("{id} is not a two-input node"),
        }
    }

    /// Find or create the two-input node for `key`, wiring its input edges
    /// on creation.
    fn two_input_node(&mut self, key: BetaKey) -> NodeId {
        let kh = self.share_beta_now.then(|| structural_hash(&key));
        if let Some(kh) = kh {
            for &cand in self.beta_cache.get(&kh).into_iter().flatten() {
                if let NodeKind::TwoInput(j) = &self.net.nodes[cand.0 as usize] {
                    if j.left_src == key.left
                        && j.right_alpha == key.right_alpha
                        && j.negative == key.negative
                        && j.seed_binds == key.seed_binds
                        && j.spec == key.spec
                    {
                        return cand;
                    }
                }
            }
        }
        let id = self.fresh_id();
        self.net.nodes.push(NodeKind::TwoInput(JoinNode {
            id,
            negative: key.negative,
            right_alpha: key.right_alpha,
            left_src: key.left,
            seed_binds: key.seed_binds,
            spec: key.spec,
            successors: Vec::new(),
        }));
        // Right input edge.
        self.alpha_mut(key.right_alpha)
            .successors
            .push(AlphaSucc::TwoInput(id, Side::Right));
        // Left input edge.
        match key.left {
            LeftSource::Alpha(a) => self
                .alpha_mut(a)
                .successors
                .push(AlphaSucc::TwoInput(id, Side::Left)),
            LeftSource::Beta(b) => self.join_mut(b).successors.push(Succ::TwoInput(id)),
        }
        if let Some(kh) = kh {
            self.beta_cache.entry(kh).or_default().push(id);
        }
        id
    }

    fn compile_production(&mut self, pid: ProductionId, prod: &Production) -> Result<(), OpsError> {
        let mut bound: HashMap<Symbol, (), FxBuildHasher> = HashMap::default();
        // Seed the chain from the first *positive* CE (validation guarantees
        // one exists). Negated CEs earlier in the LHS are chained in right
        // after the seed — order among negations is irrelevant because they
        // contribute no WME and no bindings.
        let first_pos = prod
            .lhs
            .iter()
            .position(|ce| !ce.negated)
            .expect("validated production has a positive CE");
        let first = Self::analyze_ce(&prod.lhs[first_pos], &bound)?;
        debug_assert!(first.spec.eq_checks.is_empty() && first.spec.pred_checks.is_empty());
        let alpha0 = self.alpha_node(first.alpha);
        let seed_binds = first
            .spec
            .binds
            .iter()
            .map(|&(v, a)| (v, a))
            .collect::<Vec<_>>();
        for (v, _) in &seed_binds {
            bound.insert(*v, ());
        }

        if prod.lhs.len() == 1 {
            // Single-CE production: alpha feeds the production node directly.
            let id = self.fresh_id();
            self.net.nodes.push(NodeKind::Production(ProductionNode {
                id,
                production: pid,
                seed_binds: Some(seed_binds),
            }));
            self.alpha_mut(alpha0)
                .successors
                .push(AlphaSucc::Production(id));
            self.net.production_nodes.push(id);
            return Ok(());
        }

        let mut left = LeftSource::Alpha(alpha0);
        let mut pending_seed = Some(seed_binds);
        let mut last: Option<NodeId> = None;
        let chain = (0..first_pos).chain(first_pos + 1..prod.lhs.len());
        for idx in chain {
            let ce = &prod.lhs[idx];
            // A negated CE positioned before the first positive CE sees no
            // bindings at all: its variables are existential locals, so it
            // must be analyzed against an empty scope even though the seed's
            // bindings are already flowing down the chain.
            let analysis = if idx < first_pos {
                Self::analyze_ce(ce, &HashMap::default())?
            } else {
                Self::analyze_ce(ce, &bound)?
            };
            let alpha = self.alpha_node(analysis.alpha);
            if !ce.negated {
                for (v, _) in &analysis.spec.binds {
                    bound.insert(*v, ());
                }
            }
            let key = BetaKey {
                left,
                seed_binds: pending_seed.take(),
                right_alpha: alpha,
                negative: ce.negated,
                spec: analysis.spec,
            };
            let node = self.two_input_node(key);
            left = LeftSource::Beta(node);
            last = Some(node);
        }
        let prod_node_id = self.fresh_id();
        self.net.nodes.push(NodeKind::Production(ProductionNode {
            id: prod_node_id,
            production: pid,
            seed_binds: None,
        }));
        self.join_mut(last.expect("multi-CE production has a two-input node"))
            .successors
            .push(Succ::Production(prod_node_id));
        self.net.production_nodes.push(prod_node_id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_ops::parse_program;

    fn compile(src: &str) -> ReteNetwork {
        ReteNetwork::compile(&parse_program(src).unwrap()).unwrap()
    }

    #[test]
    fn paper_figure_2_2_shape() {
        // Two-CE production: 2 alphas, 1 join, 1 production node.
        let net = compile(
            r#"
            (p example
               (c1 ^color red ^size <x>)
               (c2 ^num <x>)
               -->
               (remove 1))
            "#,
        );
        let s = net.stats();
        assert_eq!(s.alpha, 2);
        assert_eq!(s.two_input, 1);
        assert_eq!(s.negative, 0);
        assert_eq!(s.production, 1);
        // The join's hash signature is the single shared variable.
        let (jid, _) = net
            .iter()
            .find(|(_, n)| matches!(n, NodeKind::TwoInput(_)))
            .unwrap();
        let j = net.join(jid);
        assert_eq!(j.spec.eq_checks.len(), 1);
        assert!(j.seed_binds.is_some());
    }

    #[test]
    fn alpha_sharing_merges_identical_ces() {
        let net = compile(
            r#"
            (p a (block ^color blue ^name <n>) (hand ^state free) --> (remove 1))
            (p b (block ^color blue ^name <m>) (table ^top clear) --> (remove 1))
            "#,
        );
        // `block ^color blue ^name <var>` is structurally identical in both
        // productions (variable names don't affect alpha identity).
        let s = net.stats();
        assert_eq!(s.alpha, 3); // block-alpha shared, hand, table
    }

    #[test]
    fn beta_sharing_merges_identical_prefixes() {
        let net = compile(
            r#"
            (p a (goal ^id <g>) (task ^goal <g>) (slot ^x 1) --> (remove 1))
            (p b (goal ^id <g>) (task ^goal <g>) (slot ^x 2) --> (remove 1))
            "#,
        );
        let s = net.stats();
        // Shared: goal-alpha, task-alpha, first join. Distinct: two slot
        // alphas, two second-level joins, two production nodes.
        assert_eq!(s.two_input, 3);
        assert_eq!(s.shared_two_input, 1);
    }

    #[test]
    fn unshared_compile_duplicates_joins() {
        let src = r#"
            (p a (goal ^id <g>) (task ^goal <g>) (slot ^x 1) --> (remove 1))
            (p b (goal ^id <g>) (task ^goal <g>) (slot ^x 2) --> (remove 1))
        "#;
        let shared = compile(src);
        let program = parse_program(src).unwrap();
        let plan = crate::transform::TransformPlan::unshare_all(&program);
        let unshared = ReteNetwork::compile_planned(&program, &plan).unwrap();
        assert!(unshared.stats().two_input > shared.stats().two_input);
        assert_eq!(unshared.stats().two_input, 4);
        assert_eq!(unshared.stats().shared_two_input, 0);
    }

    #[test]
    fn variable_renaming_does_not_break_beta_sharing_of_alpha_but_breaks_join() {
        // Same prefix structure with different variable names: alpha nodes
        // share; join nodes do not (we share by textual structure).
        let net = compile(
            r#"
            (p a (goal ^id <g>) (task ^goal <g>) --> (remove 1))
            (p b (goal ^id <h>) (task ^goal <h>) --> (remove 1))
            "#,
        );
        let s = net.stats();
        assert_eq!(s.alpha, 2);
        assert_eq!(s.two_input, 2);
    }

    #[test]
    fn negated_ce_becomes_negative_node() {
        let net = compile(
            r#"
            (p neg (block ^name <b>) -(hand ^holds <b>) --> (remove 1))
            "#,
        );
        let s = net.stats();
        assert_eq!(s.two_input, 1);
        assert_eq!(s.negative, 1);
        let (jid, _) = net
            .iter()
            .find(|(_, n)| matches!(n, NodeKind::TwoInput(_)))
            .unwrap();
        let j = net.join(jid);
        assert!(j.negative);
        // Negative nodes bind nothing.
        assert!(j.spec.binds.is_empty());
        assert_eq!(j.spec.eq_checks.len(), 1);
    }

    #[test]
    fn single_ce_production_feeds_production_node_from_alpha() {
        let net = compile("(p solo (alarm ^level <l>) --> (remove 1))");
        let s = net.stats();
        assert_eq!(s.two_input, 0);
        assert_eq!(s.production, 1);
        let pnode = net.production_node(ProductionId(0));
        match net.node(pnode) {
            NodeKind::Production(p) => assert!(p.seed_binds.is_some()),
            _ => panic!(),
        }
    }

    #[test]
    fn repeated_variable_in_one_ce_is_intra_test() {
        let net = compile("(p intra (pair ^a <x> ^b <x>) --> (remove 1))");
        let (_, alpha) = net
            .iter()
            .find(|(_, n)| matches!(n, NodeKind::Alpha(_)))
            .unwrap();
        let NodeKind::Alpha(a) = alpha else { panic!() };
        assert_eq!(a.intra_tests.len(), 1);
        let w_ok = Wme::new("pair", &[("a", 1.into()), ("b", 1.into())]);
        let w_bad = Wme::new("pair", &[("a", 1.into()), ("b", 2.into())]);
        assert!(a.matches(&w_ok));
        assert!(!a.matches(&w_bad));
    }

    #[test]
    fn cross_product_join_has_empty_hash_signature() {
        // No shared variable between the CEs: the Tourney pathology.
        let net = compile(
            r#"
            (p cross (team ^side left ^name <a>) (team ^side right ^name <b>) --> (remove 1))
            "#,
        );
        let (jid, _) = net
            .iter()
            .find(|(_, n)| matches!(n, NodeKind::TwoInput(_)))
            .unwrap();
        assert!(net.join(jid).spec.eq_checks.is_empty());
    }

    #[test]
    fn alpha_matches_constant_and_relational_tests() {
        let net = compile("(p rel (box ^size > 4 ^kind crate) --> (remove 1))");
        let (_, n) = net
            .iter()
            .find(|(_, n)| matches!(n, NodeKind::Alpha(_)))
            .unwrap();
        let NodeKind::Alpha(a) = n else { panic!() };
        assert!(a.matches(&Wme::new(
            "box",
            &[("size", 5.into()), ("kind", "crate".into())]
        )));
        assert!(!a.matches(&Wme::new(
            "box",
            &[("size", 4.into()), ("kind", "crate".into())]
        )));
        assert!(!a.matches(&Wme::new(
            "box",
            &[("size", 9.into()), ("kind", "bin".into())]
        )));
        assert!(!a.matches(&Wme::new("crate", &[("size", 9.into())])));
    }

    #[test]
    fn alphas_for_class_index() {
        let net = compile(
            r#"
            (p a (block ^color blue) --> (remove 1))
            (p b (block ^color red) --> (remove 1))
            (p c (hand) --> (remove 1))
            "#,
        );
        assert_eq!(net.alphas_for_class(mpps_ops::intern("block")).len(), 2);
        assert_eq!(net.alphas_for_class(mpps_ops::intern("hand")).len(), 1);
        assert_eq!(net.alphas_for_class(mpps_ops::intern("ghost")).len(), 0);
    }

    #[test]
    fn three_ce_chain_is_left_linear() {
        let net = compile(
            r#"
            (p chain (a ^x <x>) (b ^x <x> ^y <y>) (c ^y <y>) --> (remove 1))
            "#,
        );
        let joins: Vec<&JoinNode> = net
            .iter()
            .filter_map(|(_, n)| match n {
                NodeKind::TwoInput(j) => Some(j),
                _ => None,
            })
            .collect();
        assert_eq!(joins.len(), 2);
        // First join's left comes from an alpha (seed), second from the first.
        assert!(matches!(joins[0].left_src, LeftSource::Alpha(_)));
        assert_eq!(joins[0].seed_binds.as_deref().map(<[_]>::len), Some(1));
        assert!(matches!(joins[1].left_src, LeftSource::Beta(id) if id == joins[0].id));
        assert!(joins[1].seed_binds.is_none());
    }

    #[test]
    fn layouts_resolve_tested_variables_to_chain_sites() {
        let net = compile(
            r#"
            (p chain (a ^x <x>) (b ^x <x> ^y <y>) (c ^y <y>) --> (remove 1))
            "#,
        );
        let joins: Vec<&JoinNode> = net
            .iter()
            .filter_map(|(_, n)| match n {
                NodeKind::TwoInput(j) => Some(j),
                _ => None,
            })
            .collect();
        // First join tests <x>, bound by the seed CE (level 0, slot 0).
        let l0 = net.layout(joins[0].id);
        assert_eq!(l0.depth, 1);
        assert_eq!(l0.left_key, vec![VarRef { level: 0, slot: 0 }]);
        // Second join tests <y>, introduced by the first join (level 1).
        let l1 = net.layout(joins[1].id);
        assert_eq!(l1.depth, 2);
        assert_eq!(l1.left_key, vec![VarRef { level: 1, slot: 0 }]);
        // The production node sees both variables over a 3-level chain.
        let pnode = net.production_node(ProductionId(0));
        let lp = net.layout(pnode);
        assert_eq!(lp.depth, 3);
        assert_eq!(lp.vars.len(), 2);
    }

    #[test]
    fn single_ce_production_layout_uses_seed_slots() {
        let net = compile("(p solo (alarm ^level <l>) --> (remove 1))");
        let lp = net.layout(net.production_node(ProductionId(0)));
        assert_eq!(lp.depth, 1);
        assert_eq!(
            lp.vars,
            vec![(mpps_ops::intern("l"), VarRef { level: 0, slot: 0 })]
        );
    }
}
