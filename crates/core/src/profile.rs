//! `match_profile.json`: the one module that knows the format.
//!
//! The profile is the human- and CI-facing summary of one profiled match
//! run (`mpps run --profile OUT`): the top-K hot nodes by activation
//! count, the per-bucket skew factor (max/mean activations across the
//! buckets that saw any work), arena occupancy, and — for the threaded
//! executor — the per-cycle barrier-wait vs match-work phase split plus
//! per-worker lanes. One set of `(json key, metric series)` tables
//! drives both the writer, [`render_match_profile`], and the validator,
//! [`check_profile`] (run over every built-in section and profiled
//! matcher by `tests/cli.rs`), so a field is declared exactly once.
//!
//! Everything is derived from metric series by name (see
//! [`mpps_rete::kernel::metric`], [`crate::threaded::metric`], and the
//! TREAT `rule.*` series), so the renderer works for any matcher: series
//! a matcher never recorded simply render as `null` or empty lists.

use mpps_telemetry::hist::check_hist;
use mpps_telemetry::json::{self, require_f64, require_str, require_u64, Value};
use mpps_telemetry::{available_cpus, Histogram, MetricsRegistry};
use std::collections::{BTreeMap, BTreeSet};

use mpps_ops::treat::metric as rmetric;
use mpps_rete::kernel::metric as kmetric;

use crate::threaded::metric as tmetric;
use crate::Partition;

/// Schema identifier written into every profile, checked by CI.
pub const PROFILE_SCHEMA: &str = "mpps.match_profile.v1";

/// How many hot nodes / rules the profile lists.
pub const TOP_K: usize = 10;

type Keyed<'a> = Option<&'a BTreeMap<u64, u64>>;
/// How a gauge series folds to one number.
type Fold = fn(Keyed) -> u64;

/// `totals`: each field is the sum, over every key, of its counter series.
const TOTALS: &[(&str, &[&str])] = &[
    (
        "activations",
        &[kmetric::NODE_ACTIVATIONS, rmetric::RULE_ACTIVATIONS],
    ),
    ("left_probes", &[kmetric::NODE_LEFT_PROBES]),
    ("right_probes", &[kmetric::NODE_RIGHT_PROBES]),
    ("prefilter_hits", &[kmetric::NODE_PREFILTER_HITS]),
    (
        "match_ns",
        &[kmetric::NODE_MATCH_NS, rmetric::RULE_MATCH_NS],
    ),
];

/// A list of objects, one per id (node, rule, worker): the list's key,
/// the id field, then `(json key, counter series)` read at that id. The
/// hot lists are ranked by their first field.
struct Rows {
    list: &'static str,
    id: &'static str,
    fields: &'static [(&'static str, &'static str)],
}

const HOT_NODES: Rows = Rows {
    list: "hot_nodes",
    id: "node",
    fields: &[
        ("activations", kmetric::NODE_ACTIVATIONS),
        ("left_probes", kmetric::NODE_LEFT_PROBES),
        ("right_probes", kmetric::NODE_RIGHT_PROBES),
        ("prefilter_hits", kmetric::NODE_PREFILTER_HITS),
        ("match_ns", kmetric::NODE_MATCH_NS),
    ],
};

const HOT_RULES: Rows = Rows {
    list: "hot_rules",
    id: "rule",
    fields: &[
        ("activations", rmetric::RULE_ACTIVATIONS),
        ("retractions", rmetric::RULE_RETRACTIONS),
        ("alpha_inserts", rmetric::RULE_ALPHA_INSERTS),
        ("seed_joins", rmetric::RULE_SEED_JOINS),
        ("match_ns", rmetric::RULE_MATCH_NS),
    ],
};

/// One lane per worker that recorded work or wait time.
const WORKERS: Rows = Rows {
    list: "workers",
    id: "worker",
    fields: &[
        ("work_ns", tmetric::WORKER_WORK_NS),
        ("wait_ns", tmetric::WORKER_WAIT_NS),
        ("forwarded_in", tmetric::PEER_FORWARDED),
    ],
};

/// `arena`: each field folds its gauge series across the per-worker
/// arenas — occupancy adds up, a high-water mark is the worst of them.
const ARENA: &[(&str, &str, Fold)] = &[
    ("allocs", kmetric::ARENA_ALLOCS, keyed_sum),
    ("frees", kmetric::ARENA_FREES, keyed_sum),
    ("live", kmetric::ARENA_LIVE, keyed_sum),
    ("high_water", kmetric::ARENA_HIGH_WATER, keyed_max),
    ("free_high_water", kmetric::ARENA_FREE_HIGH_WATER, keyed_max),
];

/// `phases`: `cycles` counts the first histogram's samples; each field
/// is a histogram summary, or `null` when the matcher never recorded it.
const PHASE_CYCLES: &str = "cycles";
const PHASES: &[(&str, &str)] = &[
    ("wall_ns", kmetric::CYCLE_WALL_NS),
    ("work_ns", kmetric::CYCLE_WORK_NS),
    ("wait_ns", kmetric::CYCLE_WAIT_NS),
    ("drain_activations", tmetric::DRAIN_ACTIVATIONS),
];

/// `{"k": v, ...}` from rendered values.
fn object(fields: impl IntoIterator<Item = (&'static str, String)>) -> String {
    let body: Vec<String> = fields
        .into_iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Sum of one keyed series' values (0 when absent).
fn keyed_sum(keys: Keyed) -> u64 {
    keys.map_or(0, |m| m.values().sum())
}

/// Max of one keyed series' values (0 when absent).
fn keyed_max(keys: Keyed) -> u64 {
    keys.and_then(|m| m.values().copied().max()).unwrap_or(0)
}

/// Over every bucket that saw at least one activation: how many there
/// are, their max and mean activation counts, and max/mean. `None` when
/// the run recorded no bucket activity.
fn bucket_skew(reg: &MetricsRegistry) -> Option<(u64, u64, f64, f64)> {
    let buckets = reg
        .counter(kmetric::BUCKET_ACTIVATIONS)
        .filter(|b| !b.is_empty())?;
    let max = keyed_max(Some(buckets));
    let mean = keyed_sum(Some(buckets)) as f64 / buckets.len() as f64;
    let factor = if mean > 0.0 { max as f64 / mean } else { 0.0 };
    Some((buckets.len() as u64, max, mean, factor))
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

/// Top-K keys of a counter series, largest value first (ties broken by
/// key for determinism).
fn top_k(keys: Keyed, k: usize) -> Vec<u64> {
    let mut entries: Vec<(u64, u64)> = keys
        .into_iter()
        .flatten()
        .map(|(&id, &n)| (id, n))
        .collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries.truncate(k);
    entries.into_iter().map(|(id, _)| id).collect()
}

/// One object per id, each field read from its series at that id.
fn rows_json(reg: &MetricsRegistry, rows: &Rows, ids: impl IntoIterator<Item = u64>) -> String {
    let objects: Vec<String> = ids
        .into_iter()
        .map(|id| {
            let at = |&(key, metric): &(&'static str, &str)| {
                let n = reg.counter(metric).and_then(|m| m.get(&id)).copied();
                (key, n.unwrap_or(0).to_string())
            };
            object(std::iter::once((rows.id, id.to_string())).chain(rows.fields.iter().map(at)))
        })
        .collect();
    format!("[{}]", objects.join(", "))
}

/// Render one merged registry as the `match_profile.json` document.
///
/// `matcher` names the engine that produced the registry (`"rete"`,
/// `"treat"`, `"threaded"`, …); `workers` is the executor's thread count
/// (1 for the sequential matchers). Series the matcher never recorded
/// render as `null` (skew, phase histograms) or `[]` (hot lists,
/// workers), so the document shape is identical across matchers.
pub fn render_match_profile(matcher: &str, workers: usize, reg: &MetricsRegistry) -> String {
    let total = |metrics: &[&str]| -> u64 { metrics.iter().map(|m| reg.counter_total(m)).sum() };
    let hot = |rows: &Rows| rows_json(reg, rows, top_k(reg.counter(rows.fields[0].1), TOP_K));
    let hist = |metric: &str| match reg.histogram(metric) {
        Some(h) => h.summary().to_json(),
        None => "null".to_owned(),
    };
    let skew = match bucket_skew(reg) {
        Some((hit, max, mean, factor)) => format!(
            "{{\"buckets_hit\": {hit}, \"max_activations\": {max}, \
             \"mean_activations\": {mean:.3}, \"skew_factor\": {factor:.3}}}"
        ),
        None => "null".to_owned(),
    };
    let cycles = reg.histogram(PHASES[0].1).map_or(0, Histogram::count);
    let lanes: BTreeSet<u64> = [tmetric::WORKER_WORK_NS, tmetric::WORKER_WAIT_NS]
        .iter()
        .filter_map(|metric| reg.counter(metric))
        .flat_map(|series| series.keys().copied())
        .collect();
    let sections = [
        ("schema", format!("\"{PROFILE_SCHEMA}\"")),
        ("matcher", format!("\"{}\"", json::escape(matcher))),
        (
            "machine",
            object([
                ("cpus", available_cpus().to_string()),
                ("workers", workers.to_string()),
            ]),
        ),
        (
            "totals",
            object(TOTALS.iter().map(|&(k, ms)| (k, total(ms).to_string()))),
        ),
        (HOT_NODES.list, hot(&HOT_NODES)),
        (HOT_RULES.list, hot(&HOT_RULES)),
        ("bucket_skew", skew),
        (
            "arena",
            object(
                ARENA
                    .iter()
                    .map(|&(k, m, fold)| (k, fold(reg.gauge(m)).to_string())),
            ),
        ),
        (
            "phases",
            object(
                std::iter::once((PHASE_CYCLES, cycles.to_string()))
                    .chain(PHASES.iter().map(|&(k, m)| (k, hist(m)))),
            ),
        ),
        (WORKERS.list, rows_json(reg, &WORKERS, lanes)),
    ];
    let body: Vec<String> = sections
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Validate a `match_profile.json` document written by
/// [`render_match_profile`]: the schema tag, machine info, every field
/// the tables declare, hot-node ordering, the bucket-skew invariants
/// (`max ≥ mean`, `factor = max/mean`), and well-formed phase
/// histograms. Returns a one-line description of what was validated.
pub fn check_profile(text: &str) -> Result<String, String> {
    let ctx = "match_profile.json";
    let doc = json::parse(text).map_err(|e| format!("{ctx}: {e}"))?;
    let section = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("{ctx}: missing {key:?}"))
    };

    let schema = require_str(&doc, "schema", ctx)?;
    if schema != PROFILE_SCHEMA {
        return Err(format!("{ctx}: unknown schema {schema:?}"));
    }
    let matcher = require_str(&doc, "matcher", ctx)?;
    if matcher.is_empty() {
        return Err(format!("{ctx}: empty matcher name"));
    }
    let machine = section("machine")?;
    for key in ["cpus", "workers"] {
        if require_u64(machine, key, ctx)? == 0 {
            return Err(format!("{ctx}: machine.{key} must be at least 1"));
        }
    }

    let totals = section("totals")?;
    for (key, _) in TOTALS {
        require_u64(totals, key, &format!("{ctx}: totals"))?;
    }
    let rows = |rows: &Rows| -> Result<&[Value], String> {
        let list = section(rows.list)?
            .as_array()
            .ok_or_else(|| format!("{ctx}: {:?} is not an array", rows.list))?;
        for (i, entry) in list.iter().enumerate() {
            let ectx = format!("{ctx}: {}[{i}]", rows.list);
            require_u64(entry, rows.id, &ectx)?;
            for (key, _) in rows.fields {
                require_u64(entry, key, &ectx)?;
            }
        }
        Ok(list)
    };
    // The hot lists are ranked by their first field, which `totals` sums.
    let rank = HOT_NODES.fields[0].0;
    let total_acts = require_u64(totals, rank, ctx)?;
    let hot_nodes = rows(&HOT_NODES)?;
    let mut prev = u64::MAX;
    for (i, entry) in hot_nodes.iter().enumerate() {
        let ectx = format!("{ctx}: {}[{i}]", HOT_NODES.list);
        let acts = require_u64(entry, rank, &ectx)?;
        if acts > prev {
            return Err(format!("{ectx}: not sorted by {rank}"));
        }
        if acts > total_acts {
            return Err(format!("{ectx}: node exceeds total {rank}"));
        }
        prev = acts;
    }
    rows(&HOT_RULES)?;

    let skew = section("bucket_skew")?;
    if !matches!(skew, Value::Null) {
        let sctx = format!("{ctx}: bucket_skew");
        let hit = require_u64(skew, "buckets_hit", &sctx)?;
        let max = require_u64(skew, "max_activations", &sctx)?;
        let mean = require_f64(skew, "mean_activations", &sctx)?;
        let factor = require_f64(skew, "skew_factor", &sctx)?;
        if hit == 0 {
            return Err(format!("{sctx}: present but no buckets hit"));
        }
        if (max as f64) < mean {
            return Err(format!("{sctx}: max {max} below mean {mean}"));
        }
        if mean > 0.0 && (factor - max as f64 / mean).abs() > 0.01 {
            return Err(format!(
                "{sctx}: skew_factor {factor} is not max/mean ({max}/{mean})"
            ));
        }
    }

    let arena = section("arena")?;
    for (key, ..) in ARENA {
        require_u64(arena, key, &format!("{ctx}: arena"))?;
    }
    let phases = section("phases")?;
    let cycles = require_u64(phases, PHASE_CYCLES, &format!("{ctx}: phases"))?;
    for (key, _) in PHASES {
        let v = phases
            .get(key)
            .ok_or_else(|| format!("{ctx}: phases missing {key:?}"))?;
        // `null`: the matcher never recorded the series.
        if !matches!(v, Value::Null) {
            check_hist(v, &format!("{ctx}: phases.{key}"))?;
        }
    }
    let workers = rows(&WORKERS)?;

    Ok(format!(
        "profile ok: matcher {matcher:?}, {total_acts} activations, {cycles} cycles, \
         {} hot nodes, {} worker lanes",
        hot_nodes.len(),
        workers.len()
    ))
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
        // Null skew and empty lists are schema-valid.
        check_profile(&text).unwrap();
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

    /// Every series the profile reads, with small distinct values.
    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for node in 0..3u64 {
            reg.add(kmetric::NODE_ACTIVATIONS, node, 10 + node);
            reg.add(kmetric::NODE_LEFT_PROBES, node, 2 * node);
            reg.add(kmetric::NODE_RIGHT_PROBES, node, 3 * node);
            reg.add(kmetric::NODE_PREFILTER_HITS, node, node % 2);
            reg.add(kmetric::NODE_MATCH_NS, node, 100 * node);
        }
        for rule in 0..2u64 {
            reg.add(rmetric::RULE_ACTIVATIONS, rule, 5 + rule);
            reg.add(rmetric::RULE_RETRACTIONS, rule, rule);
            reg.add(rmetric::RULE_ALPHA_INSERTS, rule, 7);
            reg.add(rmetric::RULE_SEED_JOINS, rule, 2 * rule + 1);
            reg.add(rmetric::RULE_MATCH_NS, rule, 50 * rule);
        }
        for (bucket, n) in [(0, 9), (1, 1), (2, 2)] {
            reg.add(kmetric::BUCKET_ACTIVATIONS, bucket, n);
        }
        for w in 0..2u64 {
            reg.set(kmetric::ARENA_ALLOCS, w, 40 + w);
            reg.set(kmetric::ARENA_FREES, w, 30);
            reg.set(kmetric::ARENA_LIVE, w, 10 + w);
            reg.set(kmetric::ARENA_HIGH_WATER, w, 12 + w);
            reg.set(kmetric::ARENA_FREE_HIGH_WATER, w, 4 + w);
            reg.add(tmetric::WORKER_WORK_NS, w, 100 + w);
            reg.add(tmetric::WORKER_WAIT_NS, w, 60 - w);
        }
        reg.add(tmetric::PEER_FORWARDED, 1, 7);
        for v in [100, 200, 300] {
            reg.observe(kmetric::CYCLE_WALL_NS, v);
            reg.observe(kmetric::CYCLE_WORK_NS, v / 2);
            reg.observe(kmetric::CYCLE_WAIT_NS, v / 4);
        }
        reg.observe(tmetric::DRAIN_ACTIVATIONS, 8);
        reg.observe(tmetric::DRAIN_ACTIVATIONS, 2);
        reg
    }

    /// The table-driven writer emits, byte for byte, what the
    /// hand-formatted one it replaced did (captured from that commit for
    /// [`sample_registry`]; only the CPU count is this machine's).
    #[test]
    fn rendering_is_byte_equal_to_the_hand_formatted_writer() {
        let expected = r#"{
  "schema": "mpps.match_profile.v1",
  "matcher": "threaded",
  "machine": {"cpus": CPUS, "workers": 2},
  "totals": {"activations": 44, "left_probes": 6, "right_probes": 9, "prefilter_hits": 1, "match_ns": 350},
  "hot_nodes": [{"node": 2, "activations": 12, "left_probes": 4, "right_probes": 6, "prefilter_hits": 0, "match_ns": 200}, {"node": 1, "activations": 11, "left_probes": 2, "right_probes": 3, "prefilter_hits": 1, "match_ns": 100}, {"node": 0, "activations": 10, "left_probes": 0, "right_probes": 0, "prefilter_hits": 0, "match_ns": 0}],
  "hot_rules": [{"rule": 1, "activations": 6, "retractions": 1, "alpha_inserts": 7, "seed_joins": 3, "match_ns": 50}, {"rule": 0, "activations": 5, "retractions": 0, "alpha_inserts": 7, "seed_joins": 1, "match_ns": 0}],
  "bucket_skew": {"buckets_hit": 3, "max_activations": 9, "mean_activations": 4.000, "skew_factor": 2.250},
  "arena": {"allocs": 81, "frees": 60, "live": 21, "high_water": 13, "free_high_water": 5},
  "phases": {"cycles": 3, "wall_ns": {"count": 3, "min": 100, "max": 300, "mean": 200.000, "p50": 200, "p95": 300}, "work_ns": {"count": 3, "min": 50, "max": 150, "mean": 100.000, "p50": 100, "p95": 150}, "wait_ns": {"count": 3, "min": 25, "max": 75, "mean": 50.000, "p50": 50, "p95": 75}, "drain_activations": {"count": 2, "min": 2, "max": 8, "mean": 5.000, "p50": 2, "p95": 8}},
  "workers": [{"worker": 0, "work_ns": 100, "wait_ns": 60, "forwarded_in": 0}, {"worker": 1, "work_ns": 101, "wait_ns": 59, "forwarded_in": 7}]
}
"#
            .replace("CPUS", &available_cpus().to_string());
        let text = render_match_profile("threaded", 2, &sample_registry());
        assert_eq!(text, expected);
        let report = check_profile(&text).unwrap();
        assert!(report.contains("44 activations, 3 cycles"), "{report}");
        assert!(report.contains("3 hot nodes, 2 worker lanes"), "{report}");
    }

    /// Every field any table declares is load-bearing in the checker:
    /// dropping it (here: renaming it away) or giving it the wrong type
    /// is rejected, and the error names the field.
    #[test]
    fn dropping_or_mistyping_each_declared_field_is_rejected() {
        let good = render_match_profile("threaded", 2, &sample_registry());
        let mut declared: Vec<(&str, &str)> = Vec::new();
        declared.extend(TOTALS.iter().map(|f| ("totals", f.0)));
        for rows in [&HOT_NODES, &HOT_RULES, &WORKERS] {
            declared.push((rows.list, rows.id));
            declared.extend(rows.fields.iter().map(|f| (rows.list, f.0)));
        }
        declared.extend(ARENA.iter().map(|f| ("arena", f.0)));
        declared.push(("phases", PHASE_CYCLES));
        declared.extend(PHASES.iter().map(|f| ("phases", f.0)));
        assert_eq!(declared.len(), 5 + 6 + 6 + 4 + 5 + 5);

        for (section, field) in declared {
            // The field's first occurrence inside its section.
            let start = good.find(&format!("\n  \"{section}\": ")).unwrap();
            let at = start + good[start..].find(&format!("\"{field}\": ")).unwrap();
            let (head, tail) = good.split_at(at);
            let key = format!("\"{field}\": ");
            let dropped = format!("{head}\"x-{field}\": {}", &tail[key.len()..]);
            let mistyped = format!("{head}{key}\"oops\", \"was\": {}", &tail[key.len()..]);
            for bad in [dropped, mistyped] {
                json::parse(&bad).expect("the corruption is still JSON");
                let err = check_profile(&bad).expect_err(&format!("{section}.{field}"));
                assert!(err.contains(field), "{section}.{field}: {err}");
            }
        }
    }

    /// End-to-end: a real profiled threaded run renders a profile that
    /// passes the schema check.
    #[test]
    fn threaded_profile_passes_the_check() {
        use mpps_ops::{parse_program, Matcher, Wme, WmeChange, WmeId};

        let prog = parse_program("(p j (a ^v <x>) (b ^v <x>) --> (remove 1))").unwrap();
        let mut m = crate::ThreadedMatcher::from_program_profiled(&prog, 2).unwrap();
        let mut changes = Vec::new();
        for v in 0..16i64 {
            changes.push(WmeChange::add(
                WmeId(v as u64 * 2 + 1),
                Wme::new("a", &[("v", v.into())]),
            ));
            changes.push(WmeChange::add(
                WmeId(v as u64 * 2 + 2),
                Wme::new("b", &[("v", v.into())]),
            ));
        }
        m.process(&changes);
        let reg = m.profile_snapshot().unwrap();
        let text = render_match_profile("threaded", m.worker_count(), &reg);
        let report = check_profile(&text).unwrap();
        assert!(report.contains("matcher \"threaded\""), "{report}");
        assert!(report.contains("2 worker lanes"), "{report}");
    }

    #[test]
    fn corrupted_profile_fails_the_check() {
        let err = check_profile("{\"schema\": \"something-else\"}").unwrap_err();
        assert!(err.contains("schema"), "{err}");

        // Valid schema tag but inconsistent skew factor.
        let text = render_match_profile("threaded", 2, &MetricsRegistry::new()).replace(
            "\"bucket_skew\": null",
            "\"bucket_skew\": {\"buckets_hit\": 2, \"max_activations\": 4, \
             \"mean_activations\": 2.0, \"skew_factor\": 9.0}",
        );
        let err = check_profile(&text).unwrap_err();
        assert!(err.contains("skew_factor"), "{err}");
    }
}
