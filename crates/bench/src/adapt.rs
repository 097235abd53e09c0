//! The closed skew loop, measured live on the Tourney cross-product.
//!
//! One scenario shared by the `repro adapt` figure and the root
//! `adapt_smoke` integration test: the pairing rule's east×west join has
//! no equality-tested variable, so every token hashes to a single bucket
//! and a static partition necessarily serializes the whole join on one
//! worker (§5.2.2). The closed loop — profiled sequential pre-run →
//! [`mpps_rete::compile_suggested`] copy-and-constraint → online bucket
//! migration at cycle barriers — must spread that work without changing
//! a single observable.
//!
//! The workload seeds every off-diagonal pairing as an already-played
//! `game`, so pair tokens for them die at the negation after one cheap
//! probe and the cross-product bucket dominates total probe work — the
//! shape where greedy placement genuinely cannot balance. The skew
//! measure is the per-worker *probe load* (hash-table entries examined
//! per worker, max/mean): deterministic for this add-only workload, and
//! exactly the work a hot bucket concentrates on its owner.

use mpps_core::{
    bucket_skew_factor, greedy_partition, load_skew, AdaptOptions, Partition, ThreadedMatcher,
};
use mpps_ops::{Instantiation, Interpreter, Matcher, Strategy, Wme};
use mpps_rete::{compile_suggested, kernel, EngineConfig, ReteMatcher, ReteNetwork};
use mpps_telemetry::MetricsRegistry;
use mpps_workloads::tourney;

/// The adapt scenario's fixed shape (the acceptance configuration).
#[derive(Clone, Copy, Debug)]
pub struct AdaptScenario {
    /// East-division teams.
    pub east: usize,
    /// West-division teams.
    pub west: usize,
    /// Threaded-executor workers.
    pub workers: usize,
    /// Hash-table buckets.
    pub table_size: u64,
}

impl Default for AdaptScenario {
    fn default() -> Self {
        AdaptScenario {
            east: 24,
            west: 24,
            workers: 8,
            table_size: 2048,
        }
    }
}

/// Before/after measurements of one closed-loop run.
#[derive(Clone, Debug)]
pub struct AdaptReport {
    /// Worker count the scenario ran with.
    pub workers: usize,
    /// Per-worker probe loads under the static greedy partition.
    pub static_loads: Vec<u64>,
    /// Per-worker probe loads under transform + online migration.
    pub adaptive_loads: Vec<u64>,
    /// Per-bucket activation skew factor, untransformed network.
    pub static_bucket_skew: Option<f64>,
    /// Per-bucket activation skew factor, transformed network.
    pub adaptive_bucket_skew: Option<f64>,
    /// Online rebalances the repartitioner performed.
    pub rebalances: usize,
    /// Buckets whose owner changed across all rebalances.
    pub moved_buckets: u64,
    /// Human-readable summary of the suggested transform plan.
    pub plan_summary: String,
    /// Productions fired (identical across all three runs).
    pub firings: usize,
    /// Both threaded runs matched the sequential reference exactly
    /// (firing sequence, final WM, final conflict set).
    pub equivalent: bool,
}

impl AdaptReport {
    /// Probe-load skew (max/mean) under the static greedy partition.
    pub fn static_skew(&self) -> f64 {
        load_skew(&self.static_loads)
    }

    /// Probe-load skew (max/mean) under the closed loop.
    pub fn adaptive_skew(&self) -> f64 {
        load_skew(&self.adaptive_loads)
    }

    /// How many times smaller the skew got.
    pub fn reduction(&self) -> f64 {
        let adaptive = self.adaptive_skew();
        if adaptive > 0.0 {
            self.static_skew() / adaptive
        } else {
            0.0
        }
    }
}

/// Every off-diagonal pairing, already played. Ingested as its own
/// cycle *before* the teams (see [`initial_wm`]).
fn game_seeds(sc: &AdaptScenario) -> Vec<Wme> {
    let mut wmes = Vec::new();
    for a in 0..sc.east as i64 {
        for b in 0..sc.west as i64 {
            if a == b {
                continue;
            }
            wmes.push(Wme::new(
                "game",
                &[("east", a.into()), ("west", (100 + b).into())],
            ));
        }
    }
    wmes
}

/// The full scenario WM — tourney's round + teams plus the off-diagonal
/// game seeds; the diagonal stays open, so the run still fires once per
/// east team. This is the `suggest_plan` WME sample; `drive` ingests
/// the two halves as separate cycles.
pub fn initial_wm(sc: &AdaptScenario) -> Vec<Wme> {
    let mut wmes = tourney::initial(sc.east, sc.west);
    wmes.extend(game_seeds(sc));
    wmes
}

struct Observed {
    fired: Vec<(usize, String)>,
    wm: Vec<Wme>,
    conflict: Vec<Instantiation>,
}

impl Observed {
    fn same_as(&self, other: &Observed) -> bool {
        self.fired == other.fired && self.wm == other.wm && self.conflict == other.conflict
    }
}

/// Drive `matcher` over the scenario workload to quiescence and capture
/// everything observable.
fn drive<M: Matcher>(sc: &AdaptScenario, matcher: M) -> (Observed, Interpreter<M>) {
    let mut interp = Interpreter::with_matcher(tourney::program(), Strategy::Lex, matcher);
    // Seed the played games one cycle ahead of the teams: pair tokens
    // must find the negation memories already populated, not race their
    // own kill. (In one batch, a pair token reaching the neg-game node
    // before the seeded game entry passes through, spawns downstream
    // probe work, and is only then retracted — making per-worker probe
    // loads swing with thread interleaving.)
    for w in game_seeds(sc) {
        interp.add_wme(w);
    }
    interp.step().expect("game-seed cycle completes");
    for w in tourney::initial(sc.east, sc.west) {
        interp.add_wme(w);
    }
    let result = interp.run(10_000).expect("tourney scenario completes");
    let fired = result
        .fired
        .iter()
        .map(|f| (f.cycle, f.name.to_string()))
        .collect();
    let mut wm: Vec<Wme> = interp
        .working_memory()
        .iter()
        .map(|(_, w)| w.clone())
        .collect();
    wm.sort_by_key(|w| w.to_string());
    let conflict = interp.matcher().conflict_set();
    (
        Observed {
            fired,
            wm,
            conflict,
        },
        interp,
    )
}

/// The sequential pre-run behind both `mpps run --partition greedy` and
/// `--adapt`: one profiled run of the scenario, whose kernel counters give
/// the per-bucket activity greedy placement packs and the per-node
/// activations the transform plan is suggested from.
fn pre_run(sc: &AdaptScenario) -> MetricsRegistry {
    let matcher = ReteMatcher::with_metrics(
        ReteNetwork::compile(&tourney::program()).unwrap(),
        EngineConfig {
            table_size: sc.table_size,
            record_trace: false,
        },
        MetricsRegistry::new(),
    );
    let (_, mut interp) = drive(sc, matcher);
    interp.matcher_mut().profile()
}

/// Per-worker probe load: hash-table entries examined on each worker's
/// shard.
fn probe_loads(matcher: &ThreadedMatcher) -> Vec<u64> {
    matcher
        .stats()
        .per_worker
        .iter()
        .map(|w| w.left_probes + w.right_probes)
        .collect()
}

/// Run the full before/after comparison: sequential reference, static
/// greedy on the untransformed network, and the closed loop (transformed
/// network + online migration from a plain round-robin start).
pub fn measure(sc: &AdaptScenario) -> AdaptReport {
    let program = tourney::program();
    let (reference, _) = drive(sc, ReteMatcher::from_program(&program).unwrap());

    // Static baseline: LPT over the pre-run's measured bucket activity on
    // the untransformed network.
    let pre = pre_run(sc);
    let static_matcher = ThreadedMatcher::with_partition_profiled(
        ReteNetwork::compile(&program).unwrap(),
        greedy_partition(&pre, sc.table_size, sc.workers),
    );
    let (static_run, mut static_interp) = drive(sc, static_matcher);
    let static_loads = probe_loads(static_interp.matcher());
    let static_bucket_skew =
        bucket_skew_factor(&static_interp.matcher_mut().profile_snapshot().unwrap());

    // Closed loop: the same pre-run's node activations suggest the plan
    // (copy-and-constraint the hot cross-product).
    let empty = std::collections::BTreeMap::new();
    let acts = pre
        .counter(kernel::metric::NODE_ACTIVATIONS)
        .unwrap_or(&empty);
    let (network, plan) = compile_suggested(&program, acts, &initial_wm(sc)).unwrap();
    let mut adaptive_matcher = ThreadedMatcher::with_partition_profiled(
        network,
        Partition::round_robin(sc.table_size, sc.workers),
    );
    adaptive_matcher.enable_adaptation(AdaptOptions::default());
    let (adaptive_run, mut adaptive_interp) = drive(sc, adaptive_matcher);
    let adaptive_loads = probe_loads(adaptive_interp.matcher());
    let events = adaptive_interp.matcher().rebalance_events();
    let rebalances = events.len();
    let moved_buckets = events.iter().map(|e| e.moved_buckets).sum();
    let adaptive_bucket_skew =
        bucket_skew_factor(&adaptive_interp.matcher_mut().profile_snapshot().unwrap());

    AdaptReport {
        workers: sc.workers,
        static_loads,
        adaptive_loads,
        static_bucket_skew,
        adaptive_bucket_skew,
        rebalances,
        moved_buckets,
        plan_summary: plan.summary(&program),
        firings: reference.fired.len(),
        equivalent: static_run.same_as(&reference) && adaptive_run.same_as(&reference),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap configuration still closes the loop: transforms found,
    /// equivalence holds, skew does not get worse.
    #[test]
    fn small_scenario_closes_the_loop() {
        let sc = AdaptScenario {
            east: 8,
            west: 8,
            workers: 4,
            table_size: 256,
        };
        let report = measure(&sc);
        assert!(report.firings > 0, "scenario must fire");
        assert!(report.equivalent, "threaded diverged from sequential");
        assert!(
            report.plan_summary.contains("split"),
            "suggest_plan must find the cross-product: {}",
            report.plan_summary
        );
        assert!(
            report.adaptive_skew() <= report.static_skew(),
            "skew got worse: {report:?}"
        );
    }
}
