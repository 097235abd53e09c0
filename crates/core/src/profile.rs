//! Render a merged [`MetricsRegistry`] as `match_profile.json`.
//!
//! The profile is the human- and CI-facing summary of one profiled match
//! run (`mpps run --profile OUT`): the top-K hot nodes by activation
//! count, the per-bucket skew factor (max/mean activations across the
//! buckets that saw any work), arena occupancy, and — for the threaded
//! executor — the per-cycle barrier-wait vs match-work phase split plus
//! per-worker lanes. The schema is validated by
//! `mpps_bench::telemetry::check_profile` (run over every built-in
//! section and profiled matcher by `tests/cli.rs`), using only the
//! workspace's own JSON parser.
//!
//! Everything is derived from metric series by name (see
//! [`mpps_rete::kernel::metric`], [`crate::threaded::metric`], and the
//! TREAT `rule.*` series), so the renderer works for any matcher: series
//! a matcher never recorded simply render as `null` or empty lists.

use mpps_telemetry::{available_cpus, json, Histogram, MetricsRegistry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use mpps_ops::treat::metric as rmetric;
use mpps_rete::kernel::metric as kmetric;

use crate::threaded::metric as tmetric;
use crate::Partition;

/// Schema identifier written into every profile, checked by CI.
pub const PROFILE_SCHEMA: &str = "mpps.match_profile.v1";

/// How many hot nodes / rules the profile lists.
pub const TOP_K: usize = 10;

fn hist_json(h: Option<&Histogram>) -> String {
    match h {
        Some(h) => h.summary().to_json(),
        None => "null".to_owned(),
    }
}

/// Sum of one keyed series' values (0 when absent).
fn keyed_sum(keys: Option<&BTreeMap<u64, u64>>) -> u64 {
    keys.map(|m| m.values().sum()).unwrap_or(0)
}

/// Max of one keyed series' values (0 when absent).
fn keyed_max(keys: Option<&BTreeMap<u64, u64>>) -> u64 {
    keys.and_then(|m| m.values().copied().max()).unwrap_or(0)
}

/// The per-bucket activation skew factor: max/mean activation counts over
/// every bucket that saw at least one activation. A factor of 1.0 is a
/// perfectly even spread; the paper's §5.2 load-distribution analysis is
/// all about how far real workloads sit above that. `None` when the run
/// recorded no bucket activity (unprofiled matcher, or no match work).
pub fn bucket_skew_factor(reg: &MetricsRegistry) -> Option<f64> {
    let buckets = reg.counter(kmetric::BUCKET_ACTIVATIONS)?;
    if buckets.is_empty() {
        return None;
    }
    let total: u64 = buckets.values().sum();
    let max: u64 = buckets.values().copied().max().unwrap_or(0);
    let mean = total as f64 / buckets.len() as f64;
    if mean > 0.0 {
        Some(max as f64 / mean)
    } else {
        Some(0.0)
    }
}

/// The §5.2.2 offline-greedy partition from a profiled sequential run:
/// LPT-pack the per-bucket activation counter — equal to the traced
/// [`crate::bucket_activity`] (`tests/profiled_equivalence.rs`) — onto
/// `workers`. A run that recorded no bucket activity packs all zeros.
pub fn greedy_partition(reg: &MetricsRegistry, table_size: u64, workers: usize) -> Partition {
    let mut activity = vec![0u64; table_size as usize];
    for (&bucket, &n) in reg
        .counter(kmetric::BUCKET_ACTIVATIONS)
        .into_iter()
        .flatten()
    {
        activity[bucket as usize] = n;
    }
    Partition::greedy(&activity, workers)
}

/// The per-bucket skew block rendered into the profile document.
fn bucket_skew_json(reg: &MetricsRegistry) -> String {
    let Some(factor) = bucket_skew_factor(reg) else {
        return "null".to_owned();
    };
    let buckets = reg
        .counter(kmetric::BUCKET_ACTIVATIONS)
        .expect("factor implies the series exists");
    let hit = buckets.len() as u64;
    let total: u64 = buckets.values().sum();
    let max: u64 = buckets.values().copied().max().unwrap_or(0);
    let mean = total as f64 / hit as f64;
    format!(
        "{{\"buckets_hit\": {hit}, \"max_activations\": {max}, \
         \"mean_activations\": {mean:.3}, \"skew_factor\": {factor:.3}}}"
    )
}

/// Top-K entries of a keyed counter series, largest value first (ties
/// broken by key for determinism).
fn top_k(keys: Option<&BTreeMap<u64, u64>>, k: usize) -> Vec<u64> {
    let Some(keys) = keys else {
        return Vec::new();
    };
    let mut entries: Vec<(u64, u64)> = keys.iter().map(|(&id, &n)| (id, n)).collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(k);
    entries.into_iter().map(|(id, _)| id).collect()
}

fn at(keys: Option<&BTreeMap<u64, u64>>, id: u64) -> u64 {
    keys.and_then(|m| m.get(&id)).copied().unwrap_or(0)
}

fn hot_nodes_json(reg: &MetricsRegistry) -> String {
    let acts = reg.counter(kmetric::NODE_ACTIVATIONS);
    let mut out = String::from("[");
    for (i, node) in top_k(acts, TOP_K).into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"node\": {node}, \"activations\": {}, \"left_probes\": {}, \
             \"right_probes\": {}, \"prefilter_hits\": {}, \"match_ns\": {}}}",
            at(acts, node),
            at(reg.counter(kmetric::NODE_LEFT_PROBES), node),
            at(reg.counter(kmetric::NODE_RIGHT_PROBES), node),
            at(reg.counter(kmetric::NODE_PREFILTER_HITS), node),
            at(reg.counter(kmetric::NODE_MATCH_NS), node),
        );
    }
    out.push(']');
    out
}

fn hot_rules_json(reg: &MetricsRegistry) -> String {
    let acts = reg.counter(rmetric::RULE_ACTIVATIONS);
    let mut out = String::from("[");
    for (i, rule) in top_k(acts, TOP_K).into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"rule\": {rule}, \"activations\": {}, \"retractions\": {}, \
             \"alpha_inserts\": {}, \"seed_joins\": {}, \"match_ns\": {}}}",
            at(acts, rule),
            at(reg.counter(rmetric::RULE_RETRACTIONS), rule),
            at(reg.counter(rmetric::RULE_ALPHA_INSERTS), rule),
            at(reg.counter(rmetric::RULE_SEED_JOINS), rule),
            at(reg.counter(rmetric::RULE_MATCH_NS), rule),
        );
    }
    out.push(']');
    out
}

fn workers_json(reg: &MetricsRegistry) -> String {
    let work = reg.counter(tmetric::WORKER_WORK_NS);
    let wait = reg.counter(tmetric::WORKER_WAIT_NS);
    let forwarded_in = reg.counter(tmetric::PEER_FORWARDED);
    let mut lanes: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for keys in [work, wait].into_iter().flatten() {
        lanes.extend(keys.keys().copied());
    }
    let mut out = String::from("[");
    for (i, w) in lanes.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"worker\": {w}, \"work_ns\": {}, \"wait_ns\": {}, \"forwarded_in\": {}}}",
            at(work, w),
            at(wait, w),
            at(forwarded_in, w),
        );
    }
    out.push(']');
    out
}

/// Render one merged registry as the `match_profile.json` document.
///
/// `matcher` names the engine that produced the registry (`"rete"`,
/// `"treat"`, `"threaded"`, …); `workers` is the executor's thread count
/// (1 for the sequential matchers). Series the matcher never recorded
/// render as `null` (skew, phase histograms) or `[]` (hot lists,
/// workers), so the document shape is identical across matchers.
pub fn render_match_profile(matcher: &str, workers: usize, reg: &MetricsRegistry) -> String {
    let wall = reg.histogram(kmetric::CYCLE_WALL_NS);
    let arena = |name: &str| keyed_sum(reg.gauge(name));
    format!(
        "{{\n  \"schema\": \"{schema}\",\n  \"matcher\": \"{matcher}\",\n  \
         \"machine\": {{\"cpus\": {cpus}, \"workers\": {workers}}},\n  \
         \"totals\": {{\"activations\": {acts}, \"left_probes\": {lp}, \
         \"right_probes\": {rp}, \"prefilter_hits\": {pf}, \"match_ns\": {mns}}},\n  \
         \"hot_nodes\": {hot_nodes},\n  \
         \"hot_rules\": {hot_rules},\n  \
         \"bucket_skew\": {skew},\n  \
         \"arena\": {{\"allocs\": {allocs}, \"frees\": {frees}, \"live\": {live}, \
         \"high_water\": {hw}, \"free_high_water\": {fhw}}},\n  \
         \"phases\": {{\"cycles\": {cycles}, \"wall_ns\": {wall}, \
         \"work_ns\": {work}, \"wait_ns\": {wait}, \"drain_activations\": {drains}}},\n  \
         \"workers\": {per_worker}\n}}\n",
        schema = PROFILE_SCHEMA,
        matcher = json::escape(matcher),
        cpus = available_cpus(),
        workers = workers,
        acts = reg.counter_total(kmetric::NODE_ACTIVATIONS)
            + reg.counter_total(rmetric::RULE_ACTIVATIONS),
        lp = reg.counter_total(kmetric::NODE_LEFT_PROBES),
        rp = reg.counter_total(kmetric::NODE_RIGHT_PROBES),
        pf = reg.counter_total(kmetric::NODE_PREFILTER_HITS),
        mns = reg.counter_total(kmetric::NODE_MATCH_NS) + reg.counter_total(rmetric::RULE_MATCH_NS),
        hot_nodes = hot_nodes_json(reg),
        hot_rules = hot_rules_json(reg),
        skew = bucket_skew_json(reg),
        allocs = arena(kmetric::ARENA_ALLOCS),
        frees = arena(kmetric::ARENA_FREES),
        live = arena(kmetric::ARENA_LIVE),
        hw = keyed_max(reg.gauge(kmetric::ARENA_HIGH_WATER)),
        fhw = keyed_max(reg.gauge(kmetric::ARENA_FREE_HIGH_WATER)),
        cycles = wall.map(Histogram::count).unwrap_or(0),
        wall = hist_json(wall),
        work = hist_json(reg.histogram(kmetric::CYCLE_WORK_NS)),
        wait = hist_json(reg.histogram(kmetric::CYCLE_WAIT_NS)),
        drains = hist_json(reg.histogram(tmetric::DRAIN_ACTIVATIONS)),
        per_worker = workers_json(reg),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_telemetry::MetricSink;

    #[test]
    fn empty_registry_renders_valid_json() {
        const ODD: &str = "a \"b\" \\ c";
        let text = render_match_profile(ODD, 1, &MetricsRegistry::new());
        let doc = json::parse(&text).expect("valid JSON");
        assert_eq!(doc.get("matcher").and_then(|v| v.as_str()), Some(ODD));
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(PROFILE_SCHEMA)
        );
        assert!(doc.get("machine").unwrap().get("cpus").unwrap().as_u64() >= Some(1));
        assert_eq!(doc.get("hot_nodes").unwrap().as_array().unwrap().len(), 0);
        assert!(doc.get("bucket_skew").is_some());
    }

    #[test]
    fn hot_nodes_are_sorted_and_truncated() {
        let mut reg = MetricsRegistry::new();
        for node in 0..20u64 {
            reg.add(kmetric::NODE_ACTIVATIONS, node, node + 1);
            reg.add(kmetric::NODE_LEFT_PROBES, node, 2 * node);
        }
        let text = render_match_profile("threaded", 4, &reg);
        let doc = json::parse(&text).unwrap();
        let hot = doc.get("hot_nodes").unwrap().as_array().unwrap();
        assert_eq!(hot.len(), TOP_K);
        // Largest activation count (node 19, 20 activations) first.
        assert_eq!(hot[0].get("node").and_then(|v| v.as_u64()), Some(19));
        assert_eq!(hot[0].get("activations").and_then(|v| v.as_u64()), Some(20));
        assert_eq!(hot[0].get("left_probes").and_then(|v| v.as_u64()), Some(38));
        let acts: Vec<u64> = hot
            .iter()
            .map(|h| h.get("activations").and_then(|v| v.as_u64()).unwrap())
            .collect();
        let mut sorted = acts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(acts, sorted, "hot nodes sorted by activations desc");
    }

    #[test]
    fn skew_factor_is_max_over_mean() {
        let mut reg = MetricsRegistry::new();
        reg.add(kmetric::BUCKET_ACTIVATIONS, 0, 9);
        reg.add(kmetric::BUCKET_ACTIVATIONS, 1, 1);
        reg.add(kmetric::BUCKET_ACTIVATIONS, 2, 2);
        let text = render_match_profile("threaded", 2, &reg);
        let doc = json::parse(&text).unwrap();
        let skew = doc.get("bucket_skew").unwrap();
        assert_eq!(skew.get("buckets_hit").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(
            skew.get("max_activations").and_then(|v| v.as_u64()),
            Some(9)
        );
        // mean = 4, factor = 9/4 = 2.25
        assert_eq!(skew.get("skew_factor").and_then(|v| v.as_f64()), Some(2.25));
    }

    #[test]
    fn worker_lanes_come_from_split_counters() {
        let mut reg = MetricsRegistry::new();
        reg.add(tmetric::WORKER_WORK_NS, 0, 100);
        reg.add(tmetric::WORKER_WORK_NS, 1, 50);
        reg.add(tmetric::WORKER_WAIT_NS, 0, 10);
        reg.add(tmetric::WORKER_WAIT_NS, 1, 60);
        reg.add(tmetric::PEER_FORWARDED, 1, 7);
        let text = render_match_profile("threaded", 2, &reg);
        let doc = json::parse(&text).unwrap();
        let lanes = doc.get("workers").unwrap().as_array().unwrap();
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes[1].get("work_ns").and_then(|v| v.as_u64()), Some(50));
        assert_eq!(lanes[1].get("wait_ns").and_then(|v| v.as_u64()), Some(60));
        assert_eq!(
            lanes[1].get("forwarded_in").and_then(|v| v.as_u64()),
            Some(7)
        );
        assert_eq!(
            lanes[0].get("forwarded_in").and_then(|v| v.as_u64()),
            Some(0)
        );
    }
}
