//! The activation kernel: pure two-input-node state transitions.
//!
//! Both the sequential engine ([`crate::ReteMatcher`]) and the distributed
//! executors in `mpps-core` perform the *same* micro-task when a token
//! reaches a node: update the owned hash bucket, probe the opposite bucket,
//! and emit successor tokens. This module is that micro-task, factored out
//! so every executor shares one source of truth for match semantics.
//!
//! A [`Kernel`] bundles the per-executor match state: a [`TokenArena`]
//! (flat token records, integer identity), a [`GlobalMemories`] (the two
//! global hash tables; a threaded worker touches only the buckets it
//! owns), probe counters, and reusable scratch. [`Kernel::activate`] mutates that state and appends
//! the generated work to a caller-owned buffer; it never queues, sends, or
//! records — the caller decides whether an output becomes a local queue
//! entry (sequential engine), a simulated message (trace-driven
//! simulator), or a crossbeam-channel send (threaded executor).
//!
//! Every in-flight [`Work::Left`]/[`Work::Prod`] owns one arena reference
//! to its token; `activate` consumes it (transferring it into a memory
//! entry, handing it to a successor, or releasing it), so arena occupancy
//! returns to exactly the stored-token population once all queues drain.
//! A [`Work::Right`] owns nothing: it borrows its WME from the kernel's
//! batch, which [`Kernel::roots`] fills and [`Kernel::end_batch`] empties
//! once the queue has drained.
//!
//! Hash prefilters (`key_hash`, chain fingerprints) only *reject*; every
//! accepted candidate is confirmed by exact value or chain comparison, so
//! 64-bit collisions cost time, never correctness.

use crate::hashfn::{hash_init, hash_mix, token_hash};
use crate::memory::{GlobalMemories, LeftEntry, RightEntry};
use crate::network::{AlphaSucc, JoinSpec, NodeId, NodeKind, NodeLayout, ReteNetwork, Side, Succ};
use crate::token::{TokenArena, TokenId};
use mpps_ops::{Instantiation, ProductionId, Sign, Symbol, Value, Wme, WmeChange, WmeId};
use mpps_telemetry::{MetricSink, NullMetrics};
use std::sync::Arc;

/// Metric names emitted by the kernel's profiling hooks. Keys are node
/// ids for `node.*` series, bucket indices for `bucket.*`, and an
/// executor-chosen lane (worker index; 0 for the sequential engine) for
/// `arena.*`.
pub mod metric {
    /// Two-input-node activations, keyed by node id.
    pub const NODE_ACTIVATIONS: &str = "node.activations";
    /// Constant-test evaluations ([`AlphaNode::matches`](crate::AlphaNode::matches)),
    /// keyed by alpha node id.
    pub const ALPHA_TESTS: &str = "alpha.tests";
    /// Left-table entries examined, keyed by node id.
    pub const NODE_LEFT_PROBES: &str = "node.left-probes";
    /// Right-table entries examined, keyed by node id.
    pub const NODE_RIGHT_PROBES: &str = "node.right-probes";
    /// Probed entries that survived the `(node, key_hash)` prefilter,
    /// keyed by node id. `hits / (left+right probes)` is the prefilter
    /// hit rate.
    pub const NODE_PREFILTER_HITS: &str = "node.prefilter-hits";
    /// Cumulative sampled match nanoseconds, keyed by node id. Every
    /// [`SAMPLE_EVERY`](super::SAMPLE_EVERY)-th activation is timed and
    /// scaled back up, so totals are estimates.
    pub const NODE_MATCH_NS: &str = "node.match-ns";
    /// Activations per hash bucket (`key_hash % table_size`), keyed by
    /// bucket index — the live form of the paper's activation-skew
    /// diagnosis.
    pub const BUCKET_ACTIVATIONS: &str = "bucket.activations";
    /// Tokens ever allocated, gauge keyed by executor lane.
    pub const ARENA_ALLOCS: &str = "arena.allocs";
    /// Tokens ever freed, gauge keyed by executor lane.
    pub const ARENA_FREES: &str = "arena.frees";
    /// Live-token count at the last flush, gauge keyed by executor lane.
    pub const ARENA_LIVE: &str = "arena.live";
    /// Peak live-token count, gauge keyed by executor lane.
    pub const ARENA_HIGH_WATER: &str = "arena.high-water";
    /// Peak free-list length, gauge keyed by executor lane.
    pub const ARENA_FREE_HIGH_WATER: &str = "arena.free-high-water";
    /// Wall-clock nanoseconds per match cycle (histogram). Executors
    /// observe one sample per `process` call.
    pub const CYCLE_WALL_NS: &str = "cycle.wall-ns";
    /// Nanoseconds per cycle spent matching (histogram; one sample per
    /// worker per cycle for the threaded executor).
    pub const CYCLE_WORK_NS: &str = "cycle.work-ns";
    /// Nanoseconds per cycle spent waiting at the cycle barrier
    /// (histogram; wall minus work, one sample per worker per cycle).
    pub const CYCLE_WAIT_NS: &str = "cycle.wait-ns";
}

/// Sampling gate for per-node match timing: one activation in
/// `SAMPLE_EVERY` is wall-clock timed and its duration scaled back up.
/// Keeps two `Instant` reads off all but 1/16th of profiled activations;
/// irrelevant when profiling is off (the gate itself monomorphizes away).
pub const SAMPLE_EVERY: u32 = 16;

/// A unit of match work: one pending node activation.
#[derive(Clone, Debug)]
pub enum Work {
    /// A WME arriving on a node's right input. Valid only on the kernel
    /// that made it, until that kernel's [`Kernel::end_batch`]: it is never
    /// sent to another worker.
    Right {
        /// Target two-input node.
        node: NodeId,
        /// Polarity.
        sign: Sign,
        /// The WME's time tag.
        wme_id: WmeId,
        /// The WME's index in the kernel's batch.
        wme: u32,
        /// Full token hash of the node's equality-tested attribute values.
        key_hash: u64,
    },
    /// A beta token arriving on a node's left input. Owns one arena
    /// reference to `token`.
    Left {
        /// Target two-input node.
        node: NodeId,
        /// Polarity.
        sign: Sign,
        /// The token (arena id).
        token: TokenId,
        /// Full token hash of the node's equality-tested variable values.
        key_hash: u64,
    },
    /// A complete token arriving at a production node. Owns one arena
    /// reference to `token`.
    Prod {
        /// The production node.
        node: NodeId,
        /// The satisfied production.
        production: ProductionId,
        /// Polarity.
        sign: Sign,
        /// The instantiation token (arena id).
        token: TokenId,
    },
}

impl Work {
    /// The hash bucket this work operates on, under `table_size` buckets.
    /// Production work has no bucket (instantiations go to the control
    /// processor); it reports bucket 0, whose owner keeps single-CE roots.
    pub fn bucket(&self, table_size: u64) -> u64 {
        match self {
            Work::Right { key_hash, .. } | Work::Left { key_hash, .. } => key_hash % table_size,
            Work::Prod { .. } => 0,
        }
    }
}

/// The value a seed bind takes from the WME that seeds the chain.
fn seed_value(wme: &Wme, (_, attr): (Symbol, Symbol)) -> Value {
    wme.get(attr).expect("alpha guaranteed presence")
}

/// Per-kernel probe counters (the telemetry skew histograms read these).
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelStats {
    /// Left-table entries examined by probes (right + delete activations).
    pub left_probes: u64,
    /// Right-table entries examined by left-activation probes.
    pub right_probes: u64,
    /// Probed entries that passed the `(node, key_hash)` integer
    /// prefilter and went on to the exact value/chain comparison.
    pub prefilter_hits: u64,
}

/// One executor's match state: token arena, hash tables, counters, scratch.
///
/// `M` is the profiling sink. The default [`NullMetrics`] records nothing
/// and every hook compiles away; [`Kernel::with_metrics`] swaps in a
/// collecting sink (per-node/per-bucket counters, sampled match timing).
#[derive(Debug)]
pub struct Kernel<M = NullMetrics> {
    /// The token arena (public: executors intern/extract/release tokens).
    pub arena: TokenArena,
    /// The two hash tables.
    pub mem: GlobalMemories,
    /// Probe counters.
    pub stats: KernelStats,
    /// The profiling sink (public: executors record their own metrics —
    /// forwarded-token counts, drain sizes — into the same registry).
    pub metrics: M,
    sample_tick: u32,
    eq_vals: Vec<Value>,
    pred_vals: Vec<Value>,
    bind_vals: Vec<Value>,
    transitions: Vec<TokenId>,
    wme_ids: Vec<WmeId>,
    alphas: Vec<NodeId>,
    /// The WMEs the current batch's right work points into.
    batch: Vec<Arc<Wme>>,
    /// Right work issued from `batch` and not yet activated.
    #[cfg(debug_assertions)]
    right_live: usize,
}

impl Kernel {
    /// A fresh unprofiled kernel over `mem`.
    pub fn new(mem: GlobalMemories) -> Self {
        Kernel::with_metrics(mem, NullMetrics)
    }
}

impl<M: MetricSink> Kernel<M> {
    /// A fresh kernel over `mem` recording into `metrics`.
    pub fn with_metrics(mem: GlobalMemories, metrics: M) -> Self {
        Kernel {
            arena: TokenArena::new(),
            mem,
            stats: KernelStats::default(),
            metrics,
            sample_tick: 0,
            eq_vals: Vec::new(),
            pred_vals: Vec::new(),
            bind_vals: Vec::new(),
            transitions: Vec::new(),
            wme_ids: Vec::new(),
            alphas: Vec::new(),
            batch: Vec::new(),
            #[cfg(debug_assertions)]
            right_live: 0,
        }
    }

    /// Flush the arena's counters into the metrics sink as gauges on
    /// `lane` (the worker index; 0 for the sequential engine). Call at
    /// batch/drain boundaries — gauges keep high-water semantics, so
    /// calling often only refines the numbers.
    pub fn record_arena_metrics(&mut self, lane: u64) {
        if !M::ENABLED {
            return;
        }
        self.metrics
            .set(metric::ARENA_ALLOCS, lane, self.arena.allocs());
        self.metrics
            .set(metric::ARENA_FREES, lane, self.arena.frees());
        self.metrics
            .set(metric::ARENA_LIVE, lane, self.arena.live() as u64);
        self.metrics.set(
            metric::ARENA_HIGH_WATER,
            lane,
            self.arena.high_water() as u64,
        );
        self.metrics.set(
            metric::ARENA_FREE_HIGH_WATER,
            lane,
            self.arena.free_high_water() as u64,
        );
    }

    /// The constant-test phase for one WME change (§3.2: the work every
    /// match processor duplicates): evaluate the alpha nodes the network's
    /// index offers the WME, in id order, and append each root activation
    /// whose bucket `owns` accepts — `key_hash % table_size`, or 0 for a
    /// single-CE production, as [`Work::bucket`]. A rejected root allocates
    /// nothing; a kept seed becomes a level-0 token in this arena, owned by
    /// its work item, and kept right work shares the change's `Arc` through
    /// the batch: the right memories store the element working memory
    /// holds, never a copy.
    pub fn roots(
        &mut self,
        net: &ReteNetwork,
        change: &WmeChange,
        owns: impl Fn(u64) -> bool,
        out: &mut Vec<Work>,
    ) {
        let table_size = self.mem.table_size();
        let (sign, wme_id) = (change.sign, change.id);
        let mut shared: Option<u32> = None;
        let mut alphas = std::mem::take(&mut self.alphas);
        net.alpha_candidates(&change.wme, &mut alphas);
        for &alpha_id in &alphas {
            let NodeKind::Alpha(alpha) = net.node(alpha_id) else {
                unreachable!("the constant-test index points at alpha nodes");
            };
            if M::ENABLED {
                self.metrics.add(metric::ALPHA_TESTS, alpha_id.0 as u64, 1);
            }
            if !alpha.matches(&change.wme) {
                continue;
            }
            for succ in &alpha.successors {
                match *succ {
                    AlphaSucc::TwoInput(node, Side::Right) => {
                        let spec = &net.join(node).spec;
                        let key_hash = token_hash(node, spec.right_hash_values(&change.wme));
                        if !owns(key_hash % table_size) {
                            continue;
                        }
                        let wme = *shared.get_or_insert_with(|| {
                            self.batch.push(Arc::clone(&change.wme));
                            (self.batch.len() - 1) as u32
                        });
                        #[cfg(debug_assertions)]
                        {
                            self.right_live += 1;
                        }
                        out.push(Work::Right {
                            node,
                            sign,
                            wme_id,
                            wme,
                            key_hash,
                        });
                    }
                    AlphaSucc::TwoInput(node, Side::Left) => {
                        let binds = net.join(node).seed_binds.as_deref();
                        let binds = binds.expect("alpha-fed join has seed binds");
                        let mut key_hash = hash_init(node);
                        for &r in &net.layout(node).left_key {
                            debug_assert_eq!(r.level, 0, "seed-fed node tests only seed bindings");
                            key_hash =
                                hash_mix(key_hash, seed_value(&change.wme, binds[r.slot as usize]));
                        }
                        if !owns(key_hash % table_size) {
                            continue;
                        }
                        let token = self.seed(change, binds);
                        out.push(Work::Left {
                            node,
                            sign,
                            token,
                            key_hash,
                        });
                    }
                    AlphaSucc::Production(node) => {
                        if !owns(0) {
                            continue;
                        }
                        let NodeKind::Production(p) = net.node(node) else {
                            unreachable!("alpha successor must be a production node");
                        };
                        let binds = p.seed_binds.as_deref();
                        let binds = binds.expect("alpha-fed production node has seed binds");
                        let token = self.seed(change, binds);
                        out.push(Work::Prod {
                            node,
                            production: p.production,
                            sign,
                            token,
                        });
                    }
                }
            }
        }
        self.alphas = alphas;
    }

    /// Drop the batch's WMEs. Call only where the work queue has drained:
    /// right work indexes the batch, so none may outlive it.
    pub fn end_batch(&mut self) {
        #[cfg(debug_assertions)]
        assert_eq!(self.right_live, 0, "right work outlived its batch");
        self.batch.clear();
    }

    /// Free what the kernel holds beyond its live state: the spare
    /// capacity of every bucket of both tables
    /// ([`GlobalMemories::shrink_to_live`]), the arena's spare records
    /// ([`TokenArena::shrink_to_live`]), the scratch vectors and the
    /// batch. Call only between batches, after [`Kernel::end_batch`].
    /// Match results do not change: no stored entry moves to another
    /// bucket or place, and every live token keeps its id.
    pub fn shrink_to_live(&mut self) {
        debug_assert!(self.batch.is_empty(), "shrinking inside a batch");
        self.mem.shrink_to_live();
        self.arena.shrink_to_live();
        self.eq_vals = Vec::new();
        self.pred_vals = Vec::new();
        self.bind_vals = Vec::new();
        self.transitions = Vec::new();
        self.wme_ids = Vec::new();
        self.alphas = Vec::new();
        self.batch = Vec::new();
    }

    /// A level-0 token for `change`'s WME under `binds` (caller owns one ref).
    fn seed(&mut self, change: &WmeChange, binds: &[(Symbol, Symbol)]) -> TokenId {
        let t = self.arena.alloc(TokenId::NONE, change.id);
        for &bind in binds {
            self.arena.push_val(t, seed_value(&change.wme, bind));
        }
        t
    }

    /// The matched WME ids of `token`, root first, in the kernel's scratch
    /// buffer: the borrowed identity a retraction probes the conflict
    /// store with, without allocating.
    pub fn wme_ids(&mut self, token: TokenId) -> &[WmeId] {
        self.arena.wme_ids_into(token, &mut self.wme_ids);
        &self.wme_ids
    }

    /// Materialize the instantiation for a complete token of `production`
    /// (does not consume the token's reference).
    pub fn instantiation(&mut self, production: ProductionId, token: TokenId) -> Instantiation {
        Instantiation::new(production, self.wme_ids(token))
    }

    /// Process one activation: update the owned bucket, probe the opposite
    /// bucket, append generated work to `out`. Returns the bucket index.
    /// `Prod` work must not be passed here — it is terminal and handled by
    /// the conflict-set owner.
    #[inline]
    pub fn activate(&mut self, net: &ReteNetwork, work: Work, out: &mut Vec<Work>) -> u64 {
        if !M::ENABLED {
            return self.activate_inner(net, work, out);
        }
        let node = match &work {
            Work::Right { node, .. } | Work::Left { node, .. } | Work::Prod { node, .. } => {
                node.0 as u64
            }
        };
        let before = self.stats;
        self.sample_tick = self.sample_tick.wrapping_add(1);
        let timer = self
            .sample_tick
            .is_multiple_of(SAMPLE_EVERY)
            .then(std::time::Instant::now);
        let bucket = self.activate_inner(net, work, out);
        if let Some(t0) = timer {
            let ns = t0.elapsed().as_nanos() as u64;
            self.metrics
                .add(metric::NODE_MATCH_NS, node, ns * SAMPLE_EVERY as u64);
        }
        self.metrics.add(metric::NODE_ACTIVATIONS, node, 1);
        self.metrics.add(metric::BUCKET_ACTIVATIONS, bucket, 1);
        let left = self.stats.left_probes - before.left_probes;
        if left > 0 {
            self.metrics.add(metric::NODE_LEFT_PROBES, node, left);
        }
        let right = self.stats.right_probes - before.right_probes;
        if right > 0 {
            self.metrics.add(metric::NODE_RIGHT_PROBES, node, right);
        }
        let hits = self.stats.prefilter_hits - before.prefilter_hits;
        if hits > 0 {
            self.metrics.add(metric::NODE_PREFILTER_HITS, node, hits);
        }
        bucket
    }

    fn activate_inner(&mut self, net: &ReteNetwork, work: Work, out: &mut Vec<Work>) -> u64 {
        let table_size = self.mem.table_size();
        match work {
            Work::Right {
                node,
                sign,
                wme_id,
                wme,
                key_hash,
            } => {
                #[cfg(debug_assertions)]
                {
                    self.right_live -= 1;
                }
                let join = net.join(node);
                let lay = net.layout(node);
                let bucket = key_hash % table_size;
                let wme = &self.batch[wme as usize];
                // Update the right table first (self-joins must see the WME).
                {
                    let rb = self.mem.right_bucket_mut(bucket);
                    match sign {
                        Sign::Plus => rb.push(RightEntry {
                            node,
                            key_hash,
                            wme_id,
                            wme: Arc::clone(wme),
                        }),
                        Sign::Minus => {
                            let pos = rb.iter().position(|e| e.node == node && e.wme_id == wme_id);
                            debug_assert!(pos.is_some(), "deleting unknown right entry");
                            if let Some(p) = pos {
                                rb.swap_remove(p);
                            }
                        }
                    }
                }
                // Resolve the WME side of the tests once.
                self.eq_vals.clear();
                for &(_, attr) in &join.spec.eq_checks {
                    self.eq_vals
                        .push(wme.get(attr).expect("alpha guaranteed presence"));
                }
                self.pred_vals.clear();
                for &(_, _, attr) in &join.spec.pred_checks {
                    self.pred_vals
                        .push(wme.get(attr).expect("alpha guaranteed presence"));
                }
                if join.negative {
                    self.transitions.clear();
                    let lb = self.mem.left_bucket_mut(bucket);
                    self.stats.left_probes += lb.len() as u64;
                    for e in lb.iter_mut() {
                        if e.node != node || e.key_hash != key_hash {
                            continue;
                        }
                        if M::ENABLED {
                            self.stats.prefilter_hits += 1;
                        }
                        if !token_passes(
                            &self.arena,
                            &join.spec,
                            lay,
                            e.token,
                            &self.eq_vals,
                            &self.pred_vals,
                        ) {
                            continue;
                        }
                        match sign {
                            Sign::Plus => {
                                e.neg_count += 1;
                                if e.neg_count == 1 {
                                    self.transitions.push(e.token);
                                }
                            }
                            Sign::Minus => {
                                debug_assert!(e.neg_count > 0, "negative count underflow");
                                e.neg_count -= 1;
                                if e.neg_count == 0 {
                                    self.transitions.push(e.token);
                                }
                            }
                        }
                    }
                    let out_sign = sign.flipped();
                    for i in 0..self.transitions.len() {
                        let t = self.transitions[i];
                        // Stored tokens stay in memory: give fan-out its own ref.
                        self.arena.retain(t);
                        fan_out(net, &mut self.arena, node, t, out_sign, out);
                    }
                } else {
                    self.bind_vals.clear();
                    for &(_, attr) in &join.spec.binds {
                        self.bind_vals
                            .push(wme.get(attr).expect("alpha guaranteed presence"));
                    }
                    let lb = self.mem.left_bucket_mut(bucket);
                    self.stats.left_probes += lb.len() as u64;
                    // Indexing, not iteration: the loop body borrows the
                    // arena mutably, which an iterator over `lb` (a borrow
                    // of `self.mem`) would otherwise pin across the calls.
                    #[allow(clippy::needless_range_loop)]
                    for i in 0..lb.len() {
                        let e = lb[i];
                        if e.node != node || e.key_hash != key_hash {
                            continue;
                        }
                        if M::ENABLED {
                            self.stats.prefilter_hits += 1;
                        }
                        if !token_passes(
                            &self.arena,
                            &join.spec,
                            lay,
                            e.token,
                            &self.eq_vals,
                            &self.pred_vals,
                        ) {
                            continue;
                        }
                        let child = self.arena.alloc(e.token, wme_id);
                        for vi in 0..self.bind_vals.len() {
                            self.arena.push_val(child, self.bind_vals[vi]);
                        }
                        fan_out(net, &mut self.arena, node, child, sign, out);
                    }
                }
                bucket
            }
            Work::Left {
                node,
                sign,
                token,
                key_hash,
            } => {
                let join = net.join(node);
                let lay = net.layout(node);
                let bucket = key_hash % table_size;
                // Resolve the token side of the tests once.
                self.eq_vals.clear();
                for &r in &lay.left_key {
                    self.eq_vals.push(self.arena.value(token, r));
                }
                self.pred_vals.clear();
                for &r in &lay.left_preds {
                    self.pred_vals.push(self.arena.value(token, r));
                }
                if join.negative {
                    match sign {
                        Sign::Plus => {
                            let rb = self.mem.right_bucket_mut(bucket);
                            self.stats.right_probes += rb.len() as u64;
                            let mut count = 0u32;
                            for e in rb.iter() {
                                if e.node != node || e.key_hash != key_hash {
                                    continue;
                                }
                                if M::ENABLED {
                                    self.stats.prefilter_hits += 1;
                                }
                                if wme_passes(&e.wme, &join.spec, &self.eq_vals, &self.pred_vals) {
                                    count += 1;
                                }
                            }
                            // The entry takes over the queued work's ref.
                            self.mem.left_bucket_mut(bucket).push(LeftEntry {
                                node,
                                key_hash,
                                token,
                                neg_count: count,
                            });
                            if count == 0 {
                                self.arena.retain(token);
                                fan_out(net, &mut self.arena, node, token, Sign::Plus, out);
                            }
                        }
                        Sign::Minus => {
                            let lb = self.mem.left_bucket_mut(bucket);
                            self.stats.left_probes += lb.len() as u64;
                            let pos = lb
                                .iter()
                                .position(|e| {
                                    e.node == node
                                        && e.key_hash == key_hash
                                        && self.arena.chain_eq(e.token, token)
                                })
                                .expect("deleting unknown left entry at negative node");
                            let entry = lb.swap_remove(pos);
                            self.arena.release(entry.token);
                            if entry.neg_count == 0 {
                                // Hand the queued work's ref to fan-out.
                                fan_out(net, &mut self.arena, node, token, Sign::Minus, out);
                            } else {
                                self.arena.release(token);
                            }
                        }
                    }
                } else {
                    match sign {
                        Sign::Plus => {
                            // The entry takes over the queued work's ref.
                            self.mem.left_bucket_mut(bucket).push(LeftEntry {
                                node,
                                key_hash,
                                token,
                                neg_count: 0,
                            });
                        }
                        Sign::Minus => {
                            let lb = self.mem.left_bucket_mut(bucket);
                            self.stats.left_probes += lb.len() as u64;
                            let pos = lb.iter().position(|e| {
                                e.node == node
                                    && e.key_hash == key_hash
                                    && self.arena.chain_eq(e.token, token)
                            });
                            debug_assert!(pos.is_some(), "deleting unknown left entry");
                            if let Some(p) = pos {
                                let entry = lb.swap_remove(p);
                                self.arena.release(entry.token);
                            }
                        }
                    }
                    let rb = self.mem.right_bucket_mut(bucket);
                    self.stats.right_probes += rb.len() as u64;
                    // Indexing for the same arena-vs-memory borrow split as
                    // the right-activation path above.
                    #[allow(clippy::needless_range_loop)]
                    for i in 0..rb.len() {
                        let e = &rb[i];
                        if e.node != node || e.key_hash != key_hash {
                            continue;
                        }
                        if M::ENABLED {
                            self.stats.prefilter_hits += 1;
                        }
                        if !wme_passes(&e.wme, &join.spec, &self.eq_vals, &self.pred_vals) {
                            continue;
                        }
                        let child = self.arena.alloc(token, e.wme_id);
                        for &(_, attr) in &join.spec.binds {
                            self.arena.push_val(
                                child,
                                e.wme.get(attr).expect("alpha guaranteed presence"),
                            );
                        }
                        fan_out(net, &mut self.arena, node, child, sign, out);
                    }
                    if sign == Sign::Minus {
                        // Children hold their own parent refs; drop the
                        // queued work's ref.
                        self.arena.release(token);
                    }
                }
                bucket
            }
            Work::Prod { .. } => {
                unreachable!("production work is terminal; apply it to the conflict set")
            }
        }
    }
}

/// Exact (post-prefilter) check of a stored left token against a WME whose
/// test values are already resolved into `eq_vals`/`pred_vals`.
fn token_passes(
    arena: &TokenArena,
    spec: &JoinSpec,
    lay: &NodeLayout,
    token: TokenId,
    eq_vals: &[Value],
    pred_vals: &[Value],
) -> bool {
    lay.left_key
        .iter()
        .zip(eq_vals)
        .all(|(&r, &w)| arena.value(token, r) == w)
        && lay
            .left_preds
            .iter()
            .zip(spec.pred_checks.iter())
            .zip(pred_vals)
            .all(|((&r, &(_, pred, _)), &w)| pred.eval(w, arena.value(token, r)))
}

/// Exact (post-prefilter) check of a stored right WME against a left token
/// whose test values are already resolved into `eq_vals`/`pred_vals`.
fn wme_passes(wme: &Wme, spec: &JoinSpec, eq_vals: &[Value], pred_vals: &[Value]) -> bool {
    spec.eq_checks
        .iter()
        .zip(eq_vals)
        .all(|(&(_, attr), &b)| wme.get(attr).is_some_and(|w| w == b))
        && spec
            .pred_checks
            .iter()
            .zip(pred_vals)
            .all(|(&(_, pred, attr), &b)| wme.get(attr).is_some_and(|w| pred.eval(w, b)))
}

/// Wrap a generated token for each successor of `node`, consuming one arena
/// reference (the first successor takes it; extras retain).
fn fan_out(
    net: &ReteNetwork,
    arena: &mut TokenArena,
    node: NodeId,
    token: TokenId,
    sign: Sign,
    out: &mut Vec<Work>,
) {
    let succs = &net.join(node).successors;
    for (i, succ) in succs.iter().enumerate() {
        if i > 0 {
            arena.retain(token);
        }
        match *succ {
            Succ::TwoInput(next) => {
                let mut h = hash_init(next);
                for &r in &net.layout(next).left_key {
                    h = hash_mix(h, arena.value(token, r));
                }
                out.push(Work::Left {
                    node: next,
                    sign,
                    token,
                    key_hash: h,
                });
            }
            Succ::Production(pnode) => {
                let NodeKind::Production(p) = net.node(pnode) else {
                    unreachable!("production successor must be a production node");
                };
                out.push(Work::Prod {
                    node: pnode,
                    production: p.production,
                    sign,
                    token,
                });
            }
        }
    }
    if succs.is_empty() {
        arena.release(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReteNetwork;
    use mpps_ops::parse_program;

    const TWO: &str = "(p two (a ^v <x>) (b ^v <x>) --> (remove 1))";
    const SOLO: &str = "(p solo (alarm ^v <l>) --> (remove 1))";

    fn compile(src: &str) -> ReteNetwork {
        ReteNetwork::compile(&parse_program(src).unwrap()).unwrap()
    }

    fn add(id: u64, class: &str, v: i64) -> WmeChange {
        WmeChange::add(WmeId(id), Wme::new(class, &[("v", v.into())]))
    }

    fn roots(k: &mut Kernel, net: &ReteNetwork, change: &WmeChange) -> Vec<Work> {
        let mut out = Vec::new();
        k.roots(net, change, |_| true, &mut out);
        out
    }

    #[test]
    fn roots_produce_expected_sides() {
        let net = compile(TWO);
        let mut k = Kernel::new(GlobalMemories::new(64));
        let a = roots(&mut k, &net, &add(1, "a", 1));
        assert_eq!(a.len(), 1);
        let Work::Left { token, .. } = a[0] else {
            panic!("first-CE WME seeds a left token: {a:?}");
        };
        assert_eq!(k.arena.wme_ids(token), vec![WmeId(1)]);
        let b = roots(&mut k, &net, &add(2, "b", 1));
        assert_eq!(b.len(), 1);
        assert!(matches!(b[0], Work::Right { .. }));
        let solo = compile(SOLO);
        let p = roots(&mut k, &solo, &add(3, "alarm", 3));
        assert!(matches!(p[..], [Work::Prod { .. }]), "{p:?}");
    }

    #[test]
    fn roots_skip_unowned_buckets_before_allocating() {
        let net = compile(TWO);
        let solo = compile(SOLO);
        let mut k = Kernel::new(GlobalMemories::new(64));
        let mut out = Vec::new();
        for change in [add(1, "a", 1), add(2, "b", 1)] {
            k.roots(&net, &change, |_| false, &mut out);
        }
        // A single-CE production's root is kept by the owner of bucket 0.
        k.roots(&solo, &add(3, "alarm", 3), |b| b != 0, &mut out);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(k.arena.allocs(), 0, "a rejected root allocates no token");
        k.roots(&solo, &add(3, "alarm", 3), |b| b == 0, &mut out);
        assert!(matches!(out[..], [Work::Prod { .. }]), "{out:?}");
        // The owner test is asked about the bucket `Work::bucket` reports.
        for change in [add(4, "a", 9), add(5, "b", 9)] {
            let bucket = roots(&mut k, &net, &change)[0].bucket(64);
            let mut kept = Vec::new();
            k.roots(&net, &change, |b| b != bucket, &mut kept);
            assert!(kept.is_empty(), "{kept:?}");
            k.roots(&net, &change, |b| b == bucket, &mut kept);
            assert_eq!(kept.len(), 1);
        }
    }

    #[test]
    fn activate_join_generates_on_second_arrival() {
        let net = compile(TWO);
        let mut k = Kernel::new(GlobalMemories::new(64));
        let mut out = Vec::new();
        let [left] = <[Work; 1]>::try_from(roots(&mut k, &net, &add(1, "a", 5))).unwrap();
        let b1 = k.activate(&net, left, &mut out);
        assert!(out.is_empty(), "no partner yet");
        let [right] = <[Work; 1]>::try_from(roots(&mut k, &net, &add(2, "b", 5))).unwrap();
        let b2 = k.activate(&net, right, &mut out);
        assert_eq!(b1, b2, "equal join values share a bucket index");
        assert_eq!(out.len(), 1);
        match out[0] {
            Work::Prod { token, .. } => {
                assert_eq!(k.arena.wme_ids(token), vec![WmeId(1), WmeId(2)]);
            }
            ref other => panic!("expected production work, got {other:?}"),
        }
    }

    #[test]
    fn root_key_hash_matches_legacy_token_hash() {
        // The seed key hash must equal the §3 hash over the node's
        // equality-tested values (trace byte-identity depends on it).
        let net = compile(TWO);
        let mut k = Kernel::new(GlobalMemories::new(64));
        let left = roots(&mut k, &net, &add(1, "a", 9));
        let Work::Left { node, key_hash, .. } = left[0] else {
            panic!("expected seed root");
        };
        assert_eq!(key_hash, token_hash(node, [Value::Int(9)]));
        let right = roots(&mut k, &net, &add(2, "b", 9));
        let Work::Right { key_hash: rh, .. } = right[0] else {
            panic!("expected right root");
        };
        assert_eq!(rh, key_hash, "left and right keys agree on equal values");
    }

    #[test]
    fn activate_releases_match_state_on_retraction() {
        let net = compile(TWO);
        let mut k = Kernel::new(GlobalMemories::new(64));
        let mut queue: Vec<Work> = Vec::new();
        let mut out = Vec::new();
        let changes = [
            add(1, "a", 5),
            add(2, "b", 5),
            WmeChange::remove(WmeId(1), Wme::new("a", &[("v", 5.into())])),
            WmeChange::remove(WmeId(2), Wme::new("b", &[("v", 5.into())])),
        ];
        for c in &changes {
            k.roots(&net, c, |_| true, &mut queue);
            while let Some(w) = queue.pop() {
                if let Work::Prod { token, .. } = w {
                    k.arena.release(token);
                    continue;
                }
                k.activate(&net, w, &mut out);
                queue.append(&mut out);
            }
            k.end_batch();
        }
        assert_eq!(k.mem.left_len(), 0);
        assert_eq!(k.mem.right_len(), 0);
        assert_eq!(k.arena.live(), 0, "all token records reclaimed");
        assert!(k.stats.left_probes + k.stats.right_probes > 0);
    }
}
